//! Trace import/export: a minimal CSV format so users can run the
//! schedulers on their own job traces.
//!
//! Format: one job per line, `arrival,deadline,length` (header optional;
//! lines starting with `#` and blank lines are ignored). A fourth optional
//! column `size` is accepted and returned separately for DBP experiments.
//!
//! Two entry points share one parser:
//!
//! * [`parse_trace`] materializes a whole trace (the historical API);
//! * [`TraceReader`] streams records one line at a time from any
//!   [`BufRead`] with bounded memory — a multi-gigabyte trace never has to
//!   fit in RAM — and applies a [`Quarantine`] policy to malformed records
//!   (halt, skip, or skip-and-keep as dead letters), with counts surfaced
//!   through [`IngestStats`].
//!
//! `parse_trace` is implemented *on top of* `TraceReader` (halt policy),
//! so the two can never disagree about what a valid trace is, and the
//! line-numbered error messages are identical in both paths.

use fjs_core::job::{Instance, Job};
use std::fmt::Write as _;
use std::io::BufRead;

/// A parsed trace: the instance plus optional per-job sizes (present iff
/// every data line carried a fourth column).
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// The jobs.
    pub instance: Instance,
    /// Per-job sizes, if the trace had them.
    pub sizes: Option<Vec<f64>>,
}

/// Errors from trace parsing.
#[derive(Clone, PartialEq, Debug)]
pub enum TraceError {
    /// A line had the wrong number of columns.
    BadArity {
        /// 1-based line number.
        line: usize,
        /// Columns found.
        cols: usize,
    },
    /// A field failed to parse as a finite number.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending field.
        field: String,
    },
    /// A job's parameters are invalid (deadline < arrival, length ≤ 0, or
    /// size outside `(0, 1]`).
    BadJob {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The underlying reader failed (streaming ingestion only).
    Io {
        /// 1-based line number at which the read failed.
        line: usize,
        /// The OS error, rendered.
        message: String,
    },
}

impl TraceError {
    /// The 1-based line number the error points at.
    pub fn line(&self) -> usize {
        match *self {
            TraceError::BadArity { line, .. }
            | TraceError::BadNumber { line, .. }
            | TraceError::BadJob { line, .. }
            | TraceError::Io { line, .. } => line,
        }
    }
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadArity { line, cols } => {
                write!(f, "line {line}: expected 3 or 4 columns, found {cols}")
            }
            TraceError::BadNumber { line, field } => {
                write!(f, "line {line}: '{field}' is not a finite number")
            }
            TraceError::BadJob { line, reason } => write!(f, "line {line}: {reason}"),
            TraceError::Io { line, message } => write!(f, "line {line}: read error: {message}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// What a [`TraceReader`] does with a malformed record.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Quarantine {
    /// Stop at the first malformed record, yielding its error (the
    /// [`parse_trace`] behaviour).
    #[default]
    Halt,
    /// Skip malformed records, counting them in [`IngestStats::quarantined`].
    Skip,
    /// Skip malformed records but keep them as [`DeadLetter`]s (original
    /// line number, byte offset and raw text) for later inspection
    /// ([`TraceReader::dead_letters`]).
    DeadLetter,
}

impl Quarantine {
    /// All quarantine policies.
    pub const ALL: [Quarantine; 3] = [Quarantine::Halt, Quarantine::Skip, Quarantine::DeadLetter];

    /// Stable label (`halt`, `skip`, `dead-letter`).
    pub fn label(&self) -> &'static str {
        match self {
            Quarantine::Halt => "halt",
            Quarantine::Skip => "skip",
            Quarantine::DeadLetter => "dead-letter",
        }
    }
}

/// Ingestion counters maintained by a [`TraceReader`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct IngestStats {
    /// Physical lines consumed from the reader.
    pub lines: usize,
    /// Well-formed data records yielded.
    pub records: usize,
    /// Malformed records quarantined (skipped or dead-lettered). Always 0
    /// under [`Quarantine::Halt`] — the first one ends the stream.
    pub quarantined: usize,
}

/// A quarantined record retained under [`Quarantine::DeadLetter`]: enough
/// provenance to attribute the reject back to its exact place in the
/// source — the 1-based line number *and* the byte offset of the line's
/// first byte — plus the raw text (line terminator stripped).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeadLetter {
    /// 1-based line number in the source stream.
    pub line: usize,
    /// Byte offset of the start of the line in the source stream.
    pub offset: u64,
    /// The rejected line, without its terminator.
    pub raw: String,
}

impl std::fmt::Display for DeadLetter {
    /// The stable attribution format: `line 2 (byte 6): mangled`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {} (byte {}): {}", self.line, self.offset, self.raw)
    }
}

/// One well-formed record from a streaming trace.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TraceRecord {
    /// 1-based line number the record came from.
    pub line: usize,
    /// The job.
    pub job: Job,
    /// The optional fourth (size) column.
    pub size: Option<f64>,
}

/// An incremental trace reader: yields [`TraceRecord`]s from any
/// [`BufRead`] in file order, holding only one line in memory at a time.
///
/// ```
/// use fjs_workloads::{Quarantine, TraceReader};
///
/// let text = "0,5,2\nmangled line\n1,9,3\n";
/// let mut reader = TraceReader::new(text.as_bytes()).with_policy(Quarantine::Skip);
/// let jobs: Vec<_> = reader.by_ref().collect::<Result<Vec<_>, _>>().unwrap();
/// assert_eq!(jobs.len(), 2);
/// assert_eq!(reader.stats().quarantined, 1);
/// ```
pub struct TraceReader<R> {
    src: R,
    policy: Quarantine,
    buf: String,
    line_no: usize,
    /// Byte offset of the first unconsumed byte (= offset of the next
    /// line's first byte).
    byte_offset: u64,
    seen_data: bool,
    halted: bool,
    stats: IngestStats,
    dead: Vec<DeadLetter>,
}

impl<R: BufRead> TraceReader<R> {
    /// Wraps a buffered reader with the default ([`Quarantine::Halt`])
    /// policy.
    pub fn new(src: R) -> Self {
        TraceReader {
            src,
            policy: Quarantine::default(),
            buf: String::new(),
            line_no: 0,
            byte_offset: 0,
            seen_data: false,
            halted: false,
            stats: IngestStats::default(),
            dead: Vec::new(),
        }
    }

    /// Sets the quarantine policy.
    pub fn with_policy(mut self, policy: Quarantine) -> Self {
        self.policy = policy;
        self
    }

    /// Ingestion counters so far.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Quarantined records with full provenance (non-empty only under
    /// [`Quarantine::DeadLetter`]).
    pub fn dead_letters(&self) -> &[DeadLetter] {
        &self.dead
    }

    /// Classifies the line currently in `self.buf`. `Ok(None)` means the
    /// line carries no record (blank, comment, or the header).
    fn classify(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        let line_no = self.line_no;
        let line = self.buf.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        // Skip a header line: the first content line, no field numeric.
        if !self.seen_data && fields.iter().all(|f| f.parse::<f64>().is_err()) {
            self.seen_data = true;
            return Ok(None);
        }
        self.seen_data = true;
        if fields.len() != 3 && fields.len() != 4 {
            return Err(TraceError::BadArity {
                line: line_no,
                cols: fields.len(),
            });
        }
        let mut nums = Vec::with_capacity(4);
        for f in &fields {
            let v: f64 = f.parse().map_err(|_| TraceError::BadNumber {
                line: line_no,
                field: f.to_string(),
            })?;
            if !v.is_finite() {
                return Err(TraceError::BadNumber {
                    line: line_no,
                    field: f.to_string(),
                });
            }
            nums.push(v);
        }
        let (a, d, p) = (nums[0], nums[1], nums[2]);
        // The fallible job constructor owns the semantic checks (deadline
        // ordering, positive finite length), so the CLI and the library
        // agree on what a valid job is.
        let job = Job::try_adp(a, d, p).map_err(|e| TraceError::BadJob {
            line: line_no,
            reason: e.to_string(),
        })?;
        let size = match nums.get(3) {
            Some(&s) => {
                if !(s > 0.0 && s <= 1.0) {
                    return Err(TraceError::BadJob {
                        line: line_no,
                        reason: format!("size {s} outside (0, 1]"),
                    });
                }
                Some(s)
            }
            None => None,
        };
        Ok(Some(TraceRecord {
            line: line_no,
            job,
            size,
        }))
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.halted {
                return None;
            }
            self.buf.clear();
            let line_offset = self.byte_offset;
            match self.src.read_line(&mut self.buf) {
                // A broken reader can't be skipped past: always halt.
                Err(e) => {
                    self.halted = true;
                    return Some(Err(TraceError::Io {
                        line: self.line_no + 1,
                        message: e.to_string(),
                    }));
                }
                Ok(0) => return None,
                Ok(n) => self.byte_offset += n as u64,
            }
            self.line_no += 1;
            self.stats.lines += 1;
            match self.classify() {
                Ok(None) => continue,
                Ok(Some(record)) => {
                    self.stats.records += 1;
                    return Some(Ok(record));
                }
                Err(err) => match self.policy {
                    Quarantine::Halt => {
                        self.halted = true;
                        return Some(Err(err));
                    }
                    Quarantine::Skip => {
                        self.stats.quarantined += 1;
                        continue;
                    }
                    Quarantine::DeadLetter => {
                        self.stats.quarantined += 1;
                        let raw = self.buf.trim_end_matches(['\n', '\r']).to_string();
                        self.dead.push(DeadLetter {
                            line: self.line_no,
                            offset: line_offset,
                            raw,
                        });
                        continue;
                    }
                },
            }
        }
    }
}

/// Parses a trace from CSV text.
///
/// `str::lines`-style tolerance is preserved: CRLF traces parse identically
/// to LF ones, blank lines and `#` comments are skipped, and an initial
/// non-numeric header line is ignored. Implemented by streaming through
/// [`TraceReader`] with the [`Quarantine::Halt`] policy, so error messages
/// are byte-for-byte those of the streaming path.
pub fn parse_trace(text: &str) -> Result<Trace, TraceError> {
    let mut jobs = Vec::new();
    let mut sizes: Vec<f64> = Vec::new();
    let mut any_without_size = false;
    for item in TraceReader::new(text.as_bytes()) {
        let record = item?;
        jobs.push(record.job);
        match record.size {
            Some(s) => sizes.push(s),
            None => any_without_size = true,
        }
    }
    let sizes = if any_without_size || sizes.is_empty() {
        None
    } else {
        Some(sizes)
    };
    Ok(Trace {
        instance: Instance::new(jobs),
        sizes,
    })
}

/// Serializes an instance (optionally with sizes) to the CSV trace format.
pub fn write_trace(inst: &Instance, sizes: Option<&[f64]>) -> String {
    if let Some(sz) = sizes {
        assert_eq!(sz.len(), inst.len(), "one size per job");
    }
    let mut out = String::from("# arrival,deadline,length");
    if sizes.is_some() {
        out.push_str(",size");
    }
    out.push('\n');
    for (id, job) in inst.iter() {
        let _ = write!(out, "{},{},{}", job.arrival(), job.deadline(), job.length());
        if let Some(sz) = sizes {
            let _ = write!(out, ",{}", sz[id.index()]);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fjs_core::time::{dur, t};

    #[test]
    fn parses_basic_trace() {
        let trace = parse_trace("0,5,2\n1.5,9,3\n").unwrap();
        assert_eq!(trace.instance.len(), 2);
        assert_eq!(trace.instance.jobs()[1].arrival(), t(1.5));
        assert_eq!(trace.instance.jobs()[1].length(), dur(3.0));
        assert!(trace.sizes.is_none());
    }

    #[test]
    fn parses_crlf_traces() {
        let trace =
            parse_trace("arrival,deadline,length\r\n0,5,2\r\n\r\n# c\r\n1.5,9,3\r\n").unwrap();
        assert_eq!(trace.instance.len(), 2);
        assert_eq!(trace.instance.jobs()[1].arrival(), t(1.5));
    }

    #[test]
    fn header_after_comments_is_still_skipped() {
        let trace = parse_trace("# exported trace\n\narrival,deadline,length\n0,5,2\n").unwrap();
        assert_eq!(trace.instance.len(), 1);
    }

    #[test]
    fn header_not_skipped_after_data() {
        // A non-numeric line after real data is an error, not a header.
        assert!(matches!(
            parse_trace("0,5,2\na,b,c\n"),
            Err(TraceError::BadNumber { line: 2, .. })
        ));
    }

    #[test]
    fn errors_carry_job_constructor_reasons() {
        let err = parse_trace("5,1,2\n").unwrap_err();
        assert!(err.to_string().contains("precedes arrival"), "{err}");
        let err = parse_trace("0,5,-1\n").unwrap_err();
        assert!(err.to_string().contains("must be positive"), "{err}");
    }

    #[test]
    fn parses_sizes_comments_and_header() {
        let text = "arrival,deadline,length,size\n# a comment\n0,5,2,0.5\n\n1,9,3,0.25\n";
        let trace = parse_trace(text).unwrap();
        assert_eq!(trace.instance.len(), 2);
        assert_eq!(trace.sizes, Some(vec![0.5, 0.25]));
    }

    #[test]
    fn mixed_size_columns_drop_sizes() {
        let trace = parse_trace("0,5,2,0.5\n1,9,3\n").unwrap();
        assert!(trace.sizes.is_none(), "sizes only returned when complete");
        assert_eq!(trace.instance.len(), 2);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            parse_trace("0,5\n"),
            Err(TraceError::BadArity { line: 1, cols: 2 })
        ));
        assert!(matches!(
            parse_trace("0,5,abc\n"),
            Err(TraceError::BadNumber { line: 1, .. })
        ));
        assert!(matches!(
            parse_trace("5,1,2\n"),
            Err(TraceError::BadJob { line: 1, .. })
        ));
        assert!(matches!(
            parse_trace("0,5,0\n"),
            Err(TraceError::BadJob { .. })
        ));
        assert!(matches!(
            parse_trace("0,5,1,2.0\n"),
            Err(TraceError::BadJob { .. })
        ));
        assert!(matches!(
            parse_trace("0,5,inf\n"),
            Err(TraceError::BadNumber { .. })
        ));
    }

    #[test]
    fn roundtrip_without_sizes() {
        let inst = Instance::new(vec![
            fjs_core::job::Job::adp(0.0, 5.0, 2.0),
            fjs_core::job::Job::adp(1.25, 9.5, 3.75),
        ]);
        let text = write_trace(&inst, None);
        let back = parse_trace(&text).unwrap();
        assert_eq!(back.instance, inst);
        assert!(back.sizes.is_none());
    }

    #[test]
    fn roundtrip_with_sizes() {
        let inst = Instance::new(vec![fjs_core::job::Job::adp(0.0, 1.0, 1.0)]);
        let sizes = vec![0.125];
        let text = write_trace(&inst, Some(&sizes));
        let back = parse_trace(&text).unwrap();
        assert_eq!(back.instance, inst);
        assert_eq!(back.sizes, Some(sizes));
    }

    #[test]
    fn error_messages_are_informative() {
        let err = parse_trace("0,5\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    /// The satellite guard: the streaming rewrite must keep `parse_trace`'s
    /// line-numbered error messages byte-for-byte identical to the
    /// historical materializing parser.
    #[test]
    fn error_messages_match_golden_strings() {
        let goldens = [
            ("0,5\n", "line 1: expected 3 or 4 columns, found 2"),
            ("0,5,2,0.5,9\n", "line 1: expected 3 or 4 columns, found 5"),
            (
                "0,5,2\n\n# c\n1,abc,3\n",
                "line 4: 'abc' is not a finite number",
            ),
            ("0,5,inf\n", "line 1: 'inf' is not a finite number"),
            ("0,5,2\n0,5,2,2.0\n", "line 2: size 2 outside (0, 1]"),
        ];
        for (text, expected) in goldens {
            assert_eq!(parse_trace(text).unwrap_err().to_string(), expected);
        }
        // Constructor-owned messages keep their shape (exact wording owned
        // by fjs-core, so assert the line prefix and the moving parts).
        let err = parse_trace("0,5,2\n7,3,2\n").unwrap_err().to_string();
        assert!(err.starts_with("line 2: "), "{err}");
        assert!(err.contains('7') && err.contains('3'), "{err}");
    }

    #[test]
    fn reader_skip_policy_recovers_valid_records() {
        let text = "# hdr\n0,5,2\ngarbage,x\n1,9,3\n0,5\n2,9,1\n";
        let mut reader = TraceReader::new(text.as_bytes()).with_policy(Quarantine::Skip);
        let records: Vec<TraceRecord> = reader.by_ref().collect::<Result<Vec<_>, _>>().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[1].line, 4);
        let stats = reader.stats();
        assert_eq!(stats.lines, 6);
        assert_eq!(stats.records, 3);
        assert_eq!(stats.quarantined, 2);
        assert!(
            reader.dead_letters().is_empty(),
            "skip keeps no dead letters"
        );
    }

    #[test]
    fn reader_dead_letter_policy_keeps_raw_lines() {
        let text = "0,5,2\nmangled\n1,9,3\n";
        let mut reader = TraceReader::new(text.as_bytes()).with_policy(Quarantine::DeadLetter);
        let n = reader.by_ref().filter(Result::is_ok).count();
        assert_eq!(n, 2);
        assert_eq!(
            reader.dead_letters(),
            &[DeadLetter {
                line: 2,
                offset: 6,
                raw: "mangled".to_string(),
            }]
        );
        assert_eq!(reader.stats().quarantined, 1);
    }

    /// The satellite guard: dead letters carry the original line number
    /// AND the byte offset of the line's first byte, and render in the
    /// stable attribution format `fjs serve` replies quote.
    #[test]
    fn dead_letters_carry_offsets_and_golden_format() {
        // CRLF first line (7 bytes), then a comment (4), then the two
        // rejects at known offsets.
        let text = "0,5,2\r\n# c\nbad one\n1,9,3\n0,5\n";
        let mut reader = TraceReader::new(text.as_bytes()).with_policy(Quarantine::DeadLetter);
        let n = reader.by_ref().filter(Result::is_ok).count();
        assert_eq!(n, 2);
        let dead = reader.dead_letters();
        assert_eq!(dead.len(), 2);
        assert_eq!((dead[0].line, dead[0].offset), (3, 11));
        assert_eq!((dead[1].line, dead[1].offset), (5, 25));
        // Offsets point at the exact source bytes.
        assert_eq!(&text.as_bytes()[11..11 + dead[0].raw.len()], b"bad one");
        assert_eq!(&text.as_bytes()[25..25 + dead[1].raw.len()], b"0,5");
        let golden = ["line 3 (byte 11): bad one", "line 5 (byte 25): 0,5"];
        for (d, want) in dead.iter().zip(golden) {
            assert_eq!(d.to_string(), want);
        }
    }

    #[test]
    fn reader_halt_policy_stops_at_first_error() {
        let text = "0,5,2\n0,5\n1,9,3\n";
        let mut reader = TraceReader::new(text.as_bytes());
        assert!(reader.next().unwrap().is_ok());
        assert!(matches!(
            reader.next(),
            Some(Err(TraceError::BadArity { line: 2, cols: 2 }))
        ));
        assert!(reader.next().is_none(), "halt ends the stream");
        assert_eq!(reader.stats().quarantined, 0);
    }

    #[test]
    fn reader_io_error_always_halts() {
        struct FailAfter {
            fed: &'static [u8],
            pos: usize,
        }
        impl std::io::Read for FailAfter {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos < self.fed.len() {
                    let n = buf.len().min(self.fed.len() - self.pos);
                    buf[..n].copy_from_slice(&self.fed[self.pos..self.pos + n]);
                    self.pos += n;
                    Ok(n)
                } else {
                    Err(std::io::Error::other("disk on fire"))
                }
            }
        }
        let src = std::io::BufReader::new(FailAfter {
            fed: b"0,5,2\n",
            pos: 0,
        });
        let mut reader = TraceReader::new(src).with_policy(Quarantine::Skip);
        assert!(reader.next().unwrap().is_ok());
        match reader.next() {
            Some(Err(TraceError::Io { line: 2, message })) => {
                assert!(message.contains("disk on fire"), "{message}");
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        assert!(reader.next().is_none(), "io errors halt even under Skip");
    }

    #[test]
    fn parse_trace_and_reader_agree_on_roundtrip() {
        let inst = Instance::new(vec![
            fjs_core::job::Job::adp(0.0, 5.0, 2.0),
            fjs_core::job::Job::adp(1.0, 4.0, 1.5),
            fjs_core::job::Job::adp(2.5, 8.0, 3.0),
        ]);
        let text = write_trace(&inst, None);
        let streamed: Vec<Job> = TraceReader::new(text.as_bytes())
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
            .into_iter()
            .map(|r| r.job)
            .collect();
        assert_eq!(
            Instance::new(streamed),
            parse_trace(&text).unwrap().instance
        );
    }
}
