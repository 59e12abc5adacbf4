//! Append-only JSONL journals (format v1): one writer and one loader for
//! the sweep checkpoint journal and for `fjs serve`'s journal
//! ([`crate::service::ServeJournal`]).
//!
//! An [`AppendLog`] holds one self-contained [`Record`] per line: a flat
//! JSON object, written and read through [`crate::json`].
//!
//! * **Durability.** [`AppendLog::append`] writes the record and its
//!   newline in one `write` before it returns, so a killed *process* loses
//!   nothing. The file is synced (`fdatasync`: the data and the length
//!   needed to read it back) every [`DEFAULT_SYNC_EVERY`] records (see
//!   [`AppendLog::with_sync_every`]) and on [`AppendLog::sync`], so an OS
//!   crash loses at most the records appended since the last sync.
//! * **Loading.** [`AppendLog::load`] reads every intact record back. A
//!   torn *final* record (the process died mid-write, or the filesystem
//!   lost the tail of the last sector) is dropped, and the file is cut back
//!   to its intact prefix, so the next append starts on a fresh line.
//!   Garbage in the *interior* of the file is a hard
//!   [`JournalError::Corrupt`]: that is corruption, not a crash artifact.
//!
//! A sweep [`Journal`] appends one line per completed **cell** (a
//! `(target, family, seed)` triple plus the cell's result) in completion
//! order, and keeps the last result per cell in memory. Its *sorted* form
//! is written once, atomically (write `<path>.tmp`, fsync, rename), by
//! [`Journal::compact`] when a sweep ends and by [`Journal::resume`]. So
//! the bytes of a finished journal are a pure function of the *set* of
//! completed cells: a sweep killed and resumed any number of times, at any
//! shard count, converges to an uninterrupted run's bytes. A cell lost to
//! an OS crash is simply re-run on resume: cells are deterministic.
//!
//! A sweep's shards share one `Journal` behind a lock, so its sync must
//! not run under that lock: it would stall every shard for the 1–2.5 ms a
//! sync takes. [`Journal::record`] therefore returns the due sync as a
//! [`PendingSync`] that the caller runs after releasing the lock and
//! before starting its next cell. While it is on its way, each other
//! shard may append the cell it was finishing, so the records an OS crash
//! can lose (those appended since the last finished sync began) number at
//! most `sync_every − 1 + (shards − 1)`, as long as a sync ends within a
//! cell's run time. On a disk slow enough to hold several shards' syncs in
//! flight at once (one per shard at most), up to `shards − 1` more batches
//! of `sync_every` records are at risk.

use crate::json::{self, Line};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Write as _};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// The journal format version stamped on every sweep journal line.
pub const JOURNAL_VERSION: u32 = 1;

/// Default records between syncs of an [`AppendLog`].
pub const DEFAULT_SYNC_EVERY: usize = 32;

/// A journal record: one flat JSON object per line.
pub trait Record: Sized {
    /// The record's line, without the newline.
    fn to_line(&self) -> String;
    /// Parses a line written by [`Record::to_line`].
    fn parse_line(line: &str) -> Result<Self, String>;
}

/// One unit of sweep work: a target run on one seeded family member.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Cell {
    /// Target name (e.g. a registry short name or `chaos:<mode>:<inner>`).
    pub target: String,
    /// Family label (e.g. `int[n=6,mu=2,tight,burst]`) or `trace:<file>`.
    pub family: String,
    /// The cell's case seed.
    pub seed: u64,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {} / seed {:#x}",
            self.target, self.family, self.seed
        )
    }
}

/// The recorded outcome of one completed cell.
#[derive(Clone, PartialEq, Debug)]
pub struct CellResult {
    /// The cell this result belongs to.
    pub cell: Cell,
    /// Supervision verdict label (`completed`, `timed-out`, `panicked`,
    /// `faulted`, or a harness-defined label such as `clean`).
    pub verdict: String,
    /// Span achieved by the run (0 when not applicable).
    pub span: f64,
    /// Events the run processed (0 when not applicable).
    pub events: usize,
    /// Retries the supervisor spent on the cell.
    pub retries: u32,
}

impl Record for CellResult {
    fn to_line(&self) -> String {
        Line::new()
            .num("v", JOURNAL_VERSION)
            .str("target", &self.cell.target)
            .str("family", &self.cell.family)
            .num("seed", self.cell.seed)
            .str("verdict", &self.verdict)
            .num("span", self.span)
            .num("events", self.events)
            .num("retries", self.retries)
            .finish()
    }

    fn parse_line(line: &str) -> Result<CellResult, String> {
        let record = json::parse_record(line, JOURNAL_VERSION)?;
        Ok(CellResult {
            cell: Cell {
                target: record.str("target")?.to_string(),
                family: record.str("family")?.to_string(),
                seed: record.num("seed")?,
            },
            verdict: record.str("verdict")?.to_string(),
            span: record.num("span")?,
            events: record.num("events")?,
            retries: record.num("retries")?,
        })
    }
}

/// Errors from journal IO and decoding.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying filesystem error.
    Io {
        /// The journal path involved.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// A malformed line in the interior of the journal (not a torn tail).
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, source } => {
                write!(f, "journal {}: {source}", path.display())
            }
            JournalError::Corrupt { line, detail } => {
                write!(f, "journal corrupt at line {line}: {detail}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Wraps an IO error with the journal path it happened on.
fn io_err(path: &Path) -> impl FnOnce(std::io::Error) -> JournalError + '_ {
    move |source| JournalError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// An append-only log of [`Record`]s (see module docs).
#[derive(Debug)]
pub struct AppendLog<R> {
    path: PathBuf,
    file: File,
    sync_every: usize,
    since_sync: usize,
    records: u64,
    record: PhantomData<fn(&R)>,
}

impl<R: Record> AppendLog<R> {
    /// Creates (truncating) the log at `path`. The empty file is synced at
    /// once, so "exists but empty" always means a fresh run that has
    /// recorded nothing yet.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let path = path.as_ref();
        let file = File::create(path).map_err(io_err(path))?;
        file.sync_all().map_err(io_err(path))?;
        Ok(Self::on(path, file))
    }

    /// Opens the log at `path` for appending, creating it if missing.
    /// [`AppendLog::load`] it first: loading cuts a torn tail off.
    pub fn open_append(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let path = path.as_ref();
        let file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(io_err(path))?;
        Ok(Self::on(path, file))
    }

    fn on(path: &Path, file: File) -> Self {
        AppendLog {
            path: path.to_path_buf(),
            file,
            sync_every: DEFAULT_SYNC_EVERY,
            since_sync: 0,
            records: 0,
            record: PhantomData,
        }
    }

    /// Sets how many records may accumulate between syncs (0 or 1 means
    /// every record).
    pub fn with_sync_every(mut self, n: usize) -> Self {
        self.sync_every = n.max(1);
        self
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended through this handle.
    pub fn records_appended(&self) -> u64 {
        self.records
    }

    /// Appends one record: its line and newline are written before this
    /// returns, and synced per the sync policy.
    pub fn append(&mut self, record: &R) -> Result<(), JournalError> {
        if self.write(record)? {
            self.sync()?;
        }
        Ok(())
    }

    /// Appends one record like [`AppendLog::append`], but hands a due
    /// sync back to the caller instead of running it.
    fn append_deferring_sync(&mut self, record: &R) -> Result<Option<PendingSync>, JournalError> {
        if !self.write(record)? {
            return Ok(None);
        }
        self.since_sync = 0;
        let file = self.file.try_clone().map_err(io_err(&self.path))?;
        Ok(Some(PendingSync {
            path: self.path.clone(),
            file,
        }))
    }

    /// Writes one record line; returns whether a sync is due.
    fn write(&mut self, record: &R) -> Result<bool, JournalError> {
        let mut line = record.to_line();
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .map_err(io_err(&self.path))?;
        self.records += 1;
        self.since_sync += 1;
        Ok(self.since_sync >= self.sync_every)
    }

    /// Forces the log to durable storage.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.sync_data().map_err(io_err(&self.path))?;
        self.since_sync = 0;
        Ok(())
    }

    /// Loads every intact record from `path`, in file order. A missing file
    /// is an empty log; a torn final record is dropped and cut off the file
    /// (and a final record missing only its newline gets one), so appends
    /// after a load start on a fresh line; interior garbage is
    /// [`JournalError::Corrupt`].
    pub fn load(path: impl AsRef<Path>) -> Result<Vec<R>, JournalError> {
        let path = path.as_ref();
        let text = match fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(path)(e)),
        };
        let mut records = Vec::new();
        // Byte length of the prefix that holds only intact records.
        let mut intact = 0;
        for (idx, raw) in text.split_inclusive('\n').enumerate() {
            let line = raw.trim();
            if !line.is_empty() {
                match R::parse_line(line) {
                    Ok(record) => records.push(record),
                    // Only the final non-empty chunk may be torn.
                    Err(_) if text[intact + raw.len()..].trim().is_empty() => break,
                    Err(detail) => {
                        return Err(JournalError::Corrupt {
                            line: idx + 1,
                            detail,
                        })
                    }
                }
            }
            intact += raw.len();
        }
        let unterminated = intact > 0 && !text[..intact].ends_with('\n');
        if intact < text.len() || unterminated {
            let mut file = OpenOptions::new()
                .append(true)
                .open(path)
                .map_err(io_err(path))?;
            file.set_len(intact as u64).map_err(io_err(path))?;
            if unterminated {
                file.write_all(b"\n").map_err(io_err(path))?;
            }
            file.sync_all().map_err(io_err(path))?;
        }
        Ok(records)
    }
}

/// A sync of an [`AppendLog`] handed to the caller, to run once it has
/// released whatever lock guards the log. Every byte appended before it
/// was handed out is already in the file; [`PendingSync::run`] makes
/// them durable.
#[derive(Debug)]
#[must_use = "run the sync once the journal's lock is released"]
pub struct PendingSync {
    path: PathBuf,
    file: File,
}

impl PendingSync {
    /// Syncs the log's data to durable storage.
    pub fn run(self) -> Result<(), JournalError> {
        self.file.sync_data().map_err(io_err(&self.path))
    }
}

/// A sweep checkpoint journal bound to a path on disk (see module docs).
#[derive(Debug)]
pub struct Journal {
    log: AppendLog<CellResult>,
    entries: BTreeMap<Cell, CellResult>,
}

impl Journal {
    /// Starts a fresh journal at `path`, discarding any existing file. The
    /// empty journal is persisted immediately so an early kill still leaves
    /// a well-formed (empty) file behind.
    pub fn create(path: impl AsRef<Path>) -> Result<Journal, JournalError> {
        Ok(Journal {
            log: AppendLog::create(path)?,
            entries: BTreeMap::new(),
        })
    }

    /// Opens the journal at `path` for resumption and compacts it. A
    /// missing file is an empty journal; a torn trailing line is dropped;
    /// interior garbage is a [`JournalError::Corrupt`]. When a cell was
    /// recorded twice, the last record wins.
    pub fn resume(path: impl AsRef<Path>) -> Result<Journal, JournalError> {
        let entries = AppendLog::<CellResult>::load(&path)?
            .into_iter()
            .map(|r| (r.cell.clone(), r))
            .collect();
        let mut journal = Journal {
            log: AppendLog::open_append(&path)?,
            entries,
        };
        journal.compact()?;
        Ok(journal)
    }

    /// The path this journal persists to.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Whether `cell` is already recorded as completed.
    pub fn contains(&self, cell: &Cell) -> bool {
        self.entries.contains_key(cell)
    }

    /// Number of recorded cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no cell has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded results in sorted cell order.
    pub fn entries(&self) -> impl Iterator<Item = &CellResult> {
        self.entries.values()
    }

    /// Records a completed cell by appending its line. Re-recording a cell
    /// overwrites its previous result. On every [`DEFAULT_SYNC_EVERY`]th
    /// record the due sync is returned, for the caller to run after
    /// releasing any lock around the journal (see module docs).
    pub fn record(&mut self, result: CellResult) -> Result<Option<PendingSync>, JournalError> {
        let pending = self.log.append_deferring_sync(&result)?;
        self.entries.insert(result.cell.clone(), result);
        Ok(pending)
    }

    /// Serializes the sorted entry set: the exact bytes
    /// [`Journal::compact`] writes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for result in self.entries.values() {
            out.push_str(&result.to_line());
            out.push('\n');
        }
        out
    }

    /// Rewrites the journal as its sorted entry set: `<path>.tmp` is
    /// written, fsynced and renamed over the journal (atomic on POSIX),
    /// and later records append to the new file. Sweeps call this when
    /// they end, on every exit path.
    pub fn compact(&mut self) -> Result<(), JournalError> {
        let path = self.log.path().to_path_buf();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut file = File::create(&tmp).map_err(io_err(&path))?;
        file.write_all(self.render().as_bytes())
            .map_err(io_err(&path))?;
        file.sync_all().map_err(io_err(&path))?;
        fs::rename(&tmp, &path).map_err(io_err(&path))?;
        self.log = AppendLog::open_append(&path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fjs_prng::check::forall;
    use fjs_prng::SmallRng;

    fn tmp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fjs-journal-{tag}-{}", std::process::id()));
        p
    }

    fn sample(i: u64) -> CellResult {
        CellResult {
            cell: Cell {
                target: format!("t{}", i % 3),
                family: format!("int[n=6,mu={},tight,burst]", i % 5),
                seed: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            },
            verdict: ["completed", "timed-out", "panicked", "faulted"][(i % 4) as usize]
                .to_string(),
            span: i as f64 * 0.5,
            events: (i * 7) as usize,
            retries: (i % 3) as u32,
        }
    }

    #[test]
    fn line_round_trip() {
        for i in 0..32 {
            let r = sample(i);
            let line = r.to_line();
            assert_eq!(CellResult::parse_line(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let r = CellResult {
            cell: Cell {
                target: "we\"ird\\name\nwith\tcontrol".to_string(),
                family: "fam{},=[]".to_string(),
                seed: 7,
            },
            verdict: "completed".to_string(),
            span: 1.25,
            events: 3,
            retries: 0,
        };
        let line = r.to_line();
        assert_eq!(CellResult::parse_line(&line).unwrap(), r, "{line}");
    }

    #[test]
    fn create_record_resume() {
        let path = tmp_path("crr");
        let mut j = Journal::create(&path).unwrap();
        for i in 0..10 {
            j.record(sample(i)).unwrap();
        }
        let back = Journal::resume(&path).unwrap();
        assert_eq!(back.len(), j.len());
        for r in j.entries() {
            assert!(back.contains(&r.cell));
        }
        assert_eq!(back.render(), j.render());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_resumes_empty() {
        let j = Journal::resume(tmp_path("missing-nonexistent")).unwrap();
        assert!(j.is_empty());
    }

    #[test]
    fn torn_tail_is_dropped_interior_garbage_rejected() {
        let path = tmp_path("torn");
        let mut j = Journal::create(&path).unwrap();
        for i in 0..5 {
            j.record(sample(i)).unwrap();
        }
        let full = fs::read_to_string(&path).unwrap();

        // Truncate mid-final-line: the tail is dropped, the rest loads.
        fs::write(&path, &full[..full.len() - 8]).unwrap();
        let back = Journal::resume(&path).unwrap();
        assert_eq!(back.len(), 4);
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            back.render(),
            "resume must cut the torn tail off the file"
        );

        // Garbage in the interior is corruption, not a torn tail.
        let mut lines: Vec<&str> = full.lines().collect();
        lines[1] = "{\"v\":1,garbage";
        fs::write(&path, lines.join("\n")).unwrap();
        assert!(matches!(
            Journal::resume(&path),
            Err(JournalError::Corrupt { line: 2, .. })
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn journal_bytes_are_order_independent() {
        let a_path = tmp_path("order-a");
        let b_path = tmp_path("order-b");
        let mut a = Journal::create(&a_path).unwrap();
        let mut b = Journal::create(&b_path).unwrap();
        for i in 0..12 {
            a.record(sample(i)).unwrap();
        }
        for i in (0..12).rev() {
            b.record(sample(i)).unwrap();
        }
        a.compact().unwrap();
        b.compact().unwrap();
        assert_eq!(
            fs::read(&a_path).unwrap(),
            fs::read(&b_path).unwrap(),
            "sorted rewrite must make bytes a pure function of the entry set"
        );
        let _ = fs::remove_file(&a_path);
        let _ = fs::remove_file(&b_path);
    }

    /// The satellite proptest: write a journal, truncate it at a random
    /// byte (simulating a kill mid-write of an appender-style tail), resume,
    /// re-record whatever is missing, and require byte-identity with the
    /// uninterrupted journal.
    #[test]
    fn prop_truncate_resume_converges() {
        let path = tmp_path("prop");
        forall(40, |rng: &mut SmallRng| {
            let n = 1 + rng.u64_below(10);
            let results: Vec<CellResult> = (0..n).map(sample).collect();

            let mut uninterrupted = Journal::create(&path).unwrap();
            for r in &results {
                uninterrupted.record(r.clone()).unwrap();
            }
            uninterrupted.compact().unwrap();
            let full_bytes = fs::read(&path).unwrap();

            // Kill: keep a random prefix of the file.
            let cut = rng.u64_below(full_bytes.len() as u64 + 1) as usize;
            fs::write(&path, &full_bytes[..cut]).unwrap();

            // Resume and replay exactly the cells the journal lost.
            let mut resumed = Journal::resume(&path).unwrap();
            let missing: Vec<&CellResult> = results
                .iter()
                .filter(|r| !resumed.contains(&r.cell))
                .collect();
            assert_eq!(
                missing.len() + resumed.len(),
                results.len(),
                "recovered + missing must partition the cells"
            );
            for r in missing {
                resumed.record(r.clone()).unwrap();
            }
            resumed.compact().unwrap();
            assert_eq!(fs::read(&path).unwrap(), full_bytes, "cut at byte {cut}");
        });
        let _ = fs::remove_file(&path);
    }

    /// `record` appends one line in place: the file is never replaced, and
    /// it grows by exactly the recorded line.
    #[cfg(unix)]
    #[test]
    fn record_appends_in_place() {
        use std::os::unix::fs::MetadataExt;
        let path = tmp_path("append");
        let mut j = Journal::create(&path).unwrap();
        let ino = fs::metadata(&path).unwrap().ino();
        for i in 0..10 {
            let before = fs::metadata(&path).unwrap().len();
            let line = sample(i).to_line();
            j.record(sample(i)).unwrap();
            let meta = fs::metadata(&path).unwrap();
            assert_eq!(meta.ino(), ino, "record {i} replaced the file");
            assert_eq!(meta.len(), before + line.len() as u64 + 1, "record {i}");
        }
        let _ = fs::remove_file(&path);
    }

    /// The record on a sync boundary hands its sync back instead of
    /// running it, with its line (and every earlier one) already written.
    #[test]
    fn boundary_record_returns_the_pending_sync() {
        let path = tmp_path("pending");
        let mut j = Journal::create(&path).unwrap();
        let mut written = 0;
        for i in 0..DEFAULT_SYNC_EVERY as u64 * 2 + 1 {
            written += sample(i).to_line().len() as u64 + 1;
            let pending = j.record(sample(i)).unwrap();
            let boundary = (i + 1) % DEFAULT_SYNC_EVERY as u64 == 0;
            assert_eq!(pending.is_some(), boundary, "record {i}");
            assert_eq!(fs::metadata(&path).unwrap().len(), written, "record {i}");
            if let Some(sync) = pending {
                sync.run().unwrap();
            }
        }
        let _ = fs::remove_file(&path);
    }

    /// Loading cuts a torn tail off the file, so the next append starts on
    /// a fresh line and the log loads cleanly again.
    #[test]
    fn load_cuts_the_torn_tail_before_append() {
        let path = tmp_path("cut");
        let mut log = AppendLog::<CellResult>::create(&path).unwrap();
        for i in 0..3 {
            log.append(&sample(i)).unwrap();
        }
        drop(log);
        let intact = fs::read_to_string(&path).unwrap();
        fs::write(&path, intact.clone() + r#"{"v":1,"target":"t"#).unwrap();
        assert_eq!(AppendLog::<CellResult>::load(&path).unwrap().len(), 3);
        assert_eq!(fs::read_to_string(&path).unwrap(), intact);

        // A final record that lost only its newline is kept and terminated.
        fs::write(&path, intact.trim_end()).unwrap();
        assert_eq!(AppendLog::<CellResult>::load(&path).unwrap().len(), 3);
        assert_eq!(fs::read_to_string(&path).unwrap(), intact);

        let mut log = AppendLog::<CellResult>::open_append(&path).unwrap();
        log.append(&sample(3)).unwrap();
        let back = AppendLog::<CellResult>::load(&path).unwrap();
        assert_eq!(back, (0..4).map(sample).collect::<Vec<_>>());
        let _ = fs::remove_file(&path);
    }
}
