//! `fjs serve` — a resident scheduling daemon.
//!
//! Multiplexes many concurrent scheduling sessions (one [`Session`] each,
//! built from the scheduler
//! registry) over a line protocol ([`protocol`]) read from a file, stdin
//! or a unix socket. Decisions stream out incrementally — `start`/`done`
//! deltas plus a running span — and full history is never materialized:
//! per-session state is O(pending jobs) thanks to the span accountant and
//! completed-prefix compaction inside the service layer.
//!
//! Robustness properties:
//!
//! - **Isolation** — a panicking or hung scheduler poisons only its own
//!   session (typed [`SessionVerdict`](fjs_core::service::SessionVerdict));
//!   every other session keeps its
//!   byte-identical decision stream.
//! - **Backpressure** — `--max-sessions` bounds resident sessions and
//!   `--max-pending` bounds per-session resident jobs; excess load is shed
//!   with a structured `busy` reply rather than absorbed.
//! - **Crash safety** — admitted requests are appended to a
//!   [`ServeJournal`]; after `SIGKILL`, `--resume` replays the journal and
//!   re-reads the input past the last journaled line, reproducing the
//!   decision log byte for byte.
//! - **Graceful drain** — `SIGINT`/`SIGTERM` stop admission, close every
//!   session, flush all deltas and exit 0.
//! - **Scale-out** — `--workers N` shards sessions across a resident
//!   worker pool ([`dispatch`]) with a sequence-numbered merge that keeps
//!   the decision log and journal byte-identical to a single-threaded
//!   run; the socket frontends ([`net`]) serve many connections
//!   concurrently (unix and TCP) and survive per-connection failures.

pub mod dispatch;
#[cfg(unix)]
pub mod net;
pub mod protocol;

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};

use fjs_core::service::{
    tenant_of, BreakerConfig, OpenDecision, ServeEvent, ServeJournal, Session, SessionError,
    TenantBreakers, TenantQuotas, TenantShedCause,
};
use fjs_core::supervise::{PoisonMode, PoisonedScheduler, DEFAULT_WATCHDOG_EVENTS};
use fjs_core::time::{dur, t};
use fjs_schedulers::SchedulerKind;
use fjs_workloads::{DeadLetter, Quarantine};

use crate::soak::stop_requested;
use protocol::{parse_request, Request};

/// Default cap on concurrently open sessions.
pub const DEFAULT_MAX_SESSIONS: usize = 64;

/// Default cap on resident (pending + running) jobs per session.
pub const DEFAULT_MAX_PENDING: usize = 4096;

/// Default hard cap on one protocol frame (bytes, including the newline).
/// A connection that exceeds it gets `err line-too-long` and is dropped —
/// the reader never accumulates more than this per line.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 8192;

/// Default bounded depth of each connection's reply (writer) queue. A
/// client that stops draining replies fills it and is disconnected as a
/// slow client instead of growing daemon memory.
pub const DEFAULT_WRITER_QUEUE: usize = 256;

/// Tunables for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Cap on concurrently open sessions; `open` beyond it is shed `busy`.
    pub max_sessions: usize,
    /// Cap on resident (pending + running) jobs per session; `job` beyond
    /// it is shed `busy`. With a worker pool this also bounds the global
    /// dispatch window (requests in flight across all workers).
    pub max_pending: usize,
    /// Watchdog event budget per session (contains hung schedulers).
    pub watchdog_events: usize,
    /// What to do with malformed protocol lines.
    pub quarantine: Quarantine,
    /// Journal fsync cadence (records between `fsync` calls).
    pub checkpoint_every: usize,
    /// Artificial per-request delay in milliseconds — a test hook so
    /// kill/resume tests can reliably interrupt a run mid-stream.
    pub throttle_ms: u64,
    /// Session worker threads. `1` keeps the single-threaded [`Server`];
    /// above that, sessions shard across a
    /// [`SessionPool`](fjs_core::service::SessionPool) by stable *tenant*
    /// hash (so the governor's tenant quotas stay exact).
    pub workers: usize,
    /// Cap on concurrently open sessions per tenant (sid prefix before
    /// the first `.`); `0` disables. Excess `open`s shed `busy`.
    pub tenant_max_sessions: usize,
    /// Per-tenant resident-job and admitted-byte quotas (`0` = off).
    pub tenant_quotas: TenantQuotas,
    /// Tenant circuit-breaker tuning (threshold `0` disables).
    pub breaker: BreakerConfig,
    /// Hard cap on one protocol frame in bytes (socket frontends).
    pub max_frame_bytes: usize,
    /// Bounded per-connection writer-queue depth (socket frontends).
    pub writer_queue: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_sessions: DEFAULT_MAX_SESSIONS,
            max_pending: DEFAULT_MAX_PENDING,
            watchdog_events: DEFAULT_WATCHDOG_EVENTS,
            quarantine: Quarantine::DeadLetter,
            checkpoint_every: fjs_core::service::DEFAULT_SYNC_EVERY,
            throttle_ms: 0,
            workers: 1,
            tenant_max_sessions: 0,
            tenant_quotas: TenantQuotas::off(),
            breaker: BreakerConfig::default(),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            writer_queue: DEFAULT_WRITER_QUEUE,
        }
    }
}

/// Where decision-log lines go.
pub enum Sink {
    /// Discard.
    Null,
    /// Collect in memory (bench / in-process tests).
    Mem(Vec<u8>),
    /// Buffered file.
    File(io::BufWriter<std::fs::File>),
    /// Standard output.
    Stdout(io::Stdout),
}

impl Sink {
    fn write_line(&mut self, line: &str) -> io::Result<()> {
        match self {
            Sink::Null => Ok(()),
            Sink::Mem(buf) => {
                buf.extend_from_slice(line.as_bytes());
                buf.push(b'\n');
                Ok(())
            }
            Sink::File(w) => writeln!(w, "{line}"),
            Sink::Stdout(w) => writeln!(w, "{line}"),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Sink::Null | Sink::Mem(_) => Ok(()),
            Sink::File(w) => w.flush(),
            Sink::Stdout(w) => w.flush(),
        }
    }

    /// The collected bytes of a [`Sink::Mem`] sink.
    pub fn mem(&self) -> Option<&[u8]> {
        match self {
            Sink::Mem(buf) => Some(buf),
            _ => None,
        }
    }
}

/// One resident session plus its serve-side bookkeeping.
struct Slot {
    session: Session,
    jobs: u64,
}

/// End-of-run accounting: admission, shedding, quarantine and the
/// bounded-memory evidence (peak resident records / live span segments
/// across all sessions).
#[derive(Clone, Debug, Default)]
pub struct ServeSummary {
    /// Physical input lines consumed (including skipped resume prefix).
    pub lines: u64,
    /// Well-formed requests dispatched.
    pub requests: u64,
    /// Jobs admitted into sessions.
    pub jobs: u64,
    /// Requests shed with a `busy` reply (admission control).
    pub shed: u64,
    /// Requests shed by a per-tenant governor quota (session cap,
    /// resident-job quota or byte quota).
    pub tenant_shed: u64,
    /// `open`s refused because the tenant's circuit breaker was open.
    pub breaker_refused: u64,
    /// Times any tenant's circuit breaker tripped (closed → open).
    pub breaker_trips: u64,
    /// Sessions opened.
    pub opened: u64,
    /// Sessions closed (explicitly or by drain).
    pub closed: u64,
    /// Decision-log lines written.
    pub decision_lines: u64,
    /// Malformed lines quarantined (skipped or dead-lettered).
    pub quarantined: usize,
    /// Quarantined lines retained under [`Quarantine::DeadLetter`].
    pub dead: Vec<DeadLetter>,
    /// Peak concurrently open sessions.
    pub peak_sessions: usize,
    /// Peak resident job records in any single session — the O(pending)
    /// memory bound: this stays flat no matter how many jobs stream
    /// through.
    pub peak_retained: usize,
    /// Peak live (unretired) span segments in any single session.
    pub peak_live_segments: usize,
    /// Socket connections accepted over the run.
    pub connections: u64,
    /// Connections dropped by a read/write error (`ECONNRESET`, `EPIPE`,
    /// a client killed mid-line); the daemon keeps serving the rest.
    pub disconnects: u64,
    /// Connections dropped for sending a frame over the byte cap.
    pub oversize_disconnects: u64,
    /// Connections dropped for not draining replies (writer queue full).
    pub slow_disconnects: u64,
    /// Peak depth any connection's writer queue reached.
    pub peak_writer_queue: usize,
    /// Transient `accept()` failures retried instead of treated as fatal.
    pub accept_retries: u64,
    /// Set when a `halt`-policy quarantine or an I/O failure stopped the
    /// stream early.
    pub halted: Option<String>,
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serve: {} lines, {} requests, {} jobs admitted, {} shed, \
             {} sessions opened, {} closed, {} decision lines",
            self.lines,
            self.requests,
            self.jobs,
            self.shed,
            self.opened,
            self.closed,
            self.decision_lines
        )?;
        writeln!(
            f,
            "serve: peak {} sessions, {} resident records/session, \
             {} live span segments/session",
            self.peak_sessions, self.peak_retained, self.peak_live_segments
        )?;
        if self.connections > 0 || self.disconnects > 0 || self.accept_retries > 0 {
            writeln!(
                f,
                "serve: {} connections, {} dropped by I/O errors, {} accept retries",
                self.connections, self.disconnects, self.accept_retries
            )?;
        }
        if self.tenant_shed > 0 || self.breaker_refused > 0 || self.breaker_trips > 0 {
            writeln!(
                f,
                "serve: governor: {} tenant-quota sheds, {} breaker refusals, {} breaker trips",
                self.tenant_shed, self.breaker_refused, self.breaker_trips
            )?;
        }
        if self.oversize_disconnects > 0 || self.slow_disconnects > 0 {
            writeln!(
                f,
                "serve: net: {} oversize disconnects, {} slow clients dropped, \
                 peak writer queue {}",
                self.oversize_disconnects, self.slow_disconnects, self.peak_writer_queue
            )?;
        }
        if self.quarantined > 0 {
            writeln!(f, "serve: {} malformed lines quarantined", self.quarantined)?;
        }
        for d in &self.dead {
            writeln!(f, "serve: dead-letter {d}")?;
        }
        if let Some(why) = &self.halted {
            writeln!(f, "serve: halted: {why}")?;
        }
        Ok(())
    }
}

impl ServeSummary {
    /// One-line schema-v1 JSON rendering (the `--stats-jsonl` record),
    /// flat and append-friendly like the bench/journal line grammars.
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"v\":1,\"kind\":\"serve-summary\",\"lines\":{},\"requests\":{},\
             \"jobs\":{},\"shed\":{},\"tenant_shed\":{},\"breaker_refused\":{},\
             \"breaker_trips\":{},\"opened\":{},\"closed\":{},\
             \"decision_lines\":{},\"quarantined\":{},\"peak_sessions\":{},\
             \"peak_retained\":{},\"peak_live_segments\":{},\"connections\":{},\
             \"disconnects\":{},\"oversize_disconnects\":{},\
             \"slow_disconnects\":{},\"peak_writer_queue\":{},\
             \"accept_retries\":{}}}",
            self.lines,
            self.requests,
            self.jobs,
            self.shed,
            self.tenant_shed,
            self.breaker_refused,
            self.breaker_trips,
            self.opened,
            self.closed,
            self.decision_lines,
            self.quarantined,
            self.peak_sessions,
            self.peak_retained,
            self.peak_live_segments,
            self.connections,
            self.disconnects,
            self.oversize_disconnects,
            self.slow_disconnects,
            self.peak_writer_queue,
            self.accept_retries,
        )
    }
}

/// Reply and decision-log line formats, shared verbatim by the serial
/// [`Server`] and the pooled [`dispatch::PooledServer`] so the two
/// backends are byte-identical by construction, not by convention.
pub(crate) mod wire {
    use fjs_core::job::JobId;
    use fjs_core::service::{Decision, SessionError, SessionVerdict, TenantShedCause};
    use fjs_core::time::Dur;

    pub fn open_ok(sid: &str, name: &str) -> String {
        format!("ok open {sid} scheduler={name}")
    }
    pub fn open_err(sid: &str, e: &str) -> String {
        format!("err open {sid}: {e}")
    }
    pub fn open_busy(sid: &str, sessions: usize, max_sessions: usize) -> String {
        format!("busy open {sid} sessions={sessions} max-sessions={max_sessions}")
    }
    pub fn open_tenant_busy(sid: &str, tenant: &str, sessions: usize, max: usize) -> String {
        format!(
            "busy open {sid} tenant={tenant} tenant-sessions={sessions} max-tenant-sessions={max}"
        )
    }
    pub fn open_breaker(sid: &str, tenant: &str, failures: u32, retry_after: u64) -> String {
        format!(
            "busy open {sid} breaker-open tenant={tenant} failures={failures} \
             retry-after-events={retry_after}"
        )
    }
    pub fn job_ok(sid: &str, id: JobId, span: Dur) -> String {
        format!("ok job {sid} id={id} span={span}")
    }
    pub fn job_busy(sid: &str, resident: usize, max_pending: usize) -> String {
        format!("busy job {sid} pending={resident} max-pending={max_pending}")
    }
    pub fn job_tenant_busy(
        sid: &str,
        tenant: &str,
        cause: TenantShedCause,
        used: u64,
        limit: u64,
    ) -> String {
        let label = cause.label();
        format!("busy job {sid} tenant={tenant} tenant-{label}={used} max-tenant-{label}={limit}")
    }
    pub fn line_too_long(max_frame_bytes: usize) -> String {
        format!("err line-too-long max-frame-bytes={max_frame_bytes}")
    }
    pub fn stats_daemon(s: &super::ServeSummary) -> String {
        format!(
            "ok stats daemon lines={} requests={} jobs={} shed={} tenant-shed={} \
             breaker-refused={} breaker-trips={} oversize={} slow-clients={} \
             peak-writer-queue={}",
            s.lines,
            s.requests,
            s.jobs,
            s.shed,
            s.tenant_shed,
            s.breaker_refused,
            s.breaker_trips,
            s.oversize_disconnects,
            s.slow_disconnects,
            s.peak_writer_queue,
        )
    }
    pub fn job_terminal(sid: &str, v: &SessionVerdict) -> String {
        format!("err job {sid} verdict={}: session is terminal", v.label())
    }
    pub fn job_poisoned(sid: &str, v: &SessionVerdict) -> String {
        format!("err job {sid} verdict={}: {v}", v.label())
    }
    pub fn job_rejected(sid: &str, line: u64, offset: u64, e: &SessionError) -> String {
        format!("err job {sid} line={line} offset={offset}: {e}")
    }
    pub fn no_session(verb: &str, sid: &str) -> String {
        format!("err {verb} {sid}: no such session")
    }
    pub fn close_ok(sid: &str, span: Dur, jobs: u64, verdict: &str) -> String {
        format!("ok close {sid} span={span} jobs={jobs} verdict={verdict}")
    }
    #[allow(clippy::too_many_arguments)]
    pub fn stats_ok(
        sid: &str,
        span: Dur,
        pending: usize,
        running: usize,
        retained: usize,
        peak_retained: usize,
        events: usize,
    ) -> String {
        format!(
            "ok stats {sid} span={span} pending={pending} running={running} \
             retained={retained} peak-retained={peak_retained} events={events}"
        )
    }
    pub fn decision_line(sid: &str, d: &Decision) -> String {
        format!("{sid} {d}")
    }
    pub fn close_line(sid: &str, span: Dur, verdict_label: &str) -> String {
        format!("{sid} close span={span} verdict={verdict_label}")
    }
}

/// The resident daemon core: protocol dispatch, session multiplexing,
/// admission control, journaling and decision-log emission. Frontends
/// ([`run_stream`], [`net::run_connections`]) feed it one line at a time.
pub struct Server {
    opts: ServeOptions,
    sessions: BTreeMap<String, Slot>,
    journal: Option<ServeJournal>,
    log: Sink,
    line_no: u64,
    /// Input lines `<= cursor` were already replayed from the journal and
    /// are skipped on re-read.
    cursor: u64,
    replaying: bool,
    summary: ServeSummary,
    breakers: TenantBreakers,
}

impl Server {
    /// Creates a server writing decisions to `log`, journaling admitted
    /// requests to `journal` (if any).
    pub fn new(opts: ServeOptions, log: Sink, journal: Option<ServeJournal>) -> Server {
        let breakers = TenantBreakers::new(opts.breaker);
        Server {
            opts,
            sessions: BTreeMap::new(),
            journal,
            log,
            line_no: 0,
            cursor: 0,
            replaying: false,
            summary: ServeSummary::default(),
            breakers,
        }
    }

    /// Replays journal events recorded by a previous (killed) run: rebuilds
    /// every session to its exact pre-crash state, re-emitting the same
    /// decision-log lines, then arranges for input lines at or before the
    /// last journaled line to be skipped.
    pub fn resume(&mut self, events: &[ServeEvent]) -> Result<(), String> {
        self.replaying = true;
        for ev in events {
            match ev {
                ServeEvent::Open {
                    session, scheduler, ..
                } => {
                    // Journaled opens were all admitted; re-running the
                    // breaker check replays its half-open probe marking
                    // (it admits again by determinism).
                    let _ = self.breakers.admit_open(session);
                    self.apply_open(session, scheduler)
                        .map_err(|e| format!("resume: replaying open {session}: {e}"))?;
                }
                ServeEvent::Job {
                    session,
                    arrival,
                    deadline,
                    length,
                    ..
                } => {
                    // The journal only holds admitted offers; the replayed
                    // result (including a poisoning panic) matches the
                    // original run by the determinism contract.
                    let _ = self.apply_job(session, *arrival, *deadline, *length);
                }
                ServeEvent::Close { session, .. } => {
                    let _ = self.apply_close(session);
                }
            }
            self.cursor = self.cursor.max(ev.line());
        }
        self.replaying = false;
        self.line_no = 0;
        Ok(())
    }

    /// The resume cursor: input lines `<= cursor` are skipped.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// `true` once the stream must stop (halt-policy quarantine or fatal
    /// I/O error); frontends poll this after every line.
    pub fn halted(&self) -> bool {
        self.summary.halted.is_some()
    }

    /// Number of currently open sessions.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    fn journal_append(&mut self, ev: &ServeEvent) -> Result<(), String> {
        if self.replaying {
            return Ok(());
        }
        if let Some(j) = self.journal.as_mut() {
            j.append(ev).map_err(|e| format!("journal: {e}"))?;
        }
        Ok(())
    }

    fn log_line(&mut self, line: &str) -> Result<(), String> {
        self.log
            .write_line(line)
            .map_err(|e| format!("decision log: {e}"))?;
        self.summary.decision_lines += 1;
        Ok(())
    }

    fn note_peaks(&mut self, session: &Session) {
        let s = &mut self.summary;
        s.peak_retained = s.peak_retained.max(session.peak_retained_records());
        s.peak_live_segments = s.peak_live_segments.max(session.peak_live_segments());
    }

    /// Drains `sid`'s freshly produced decisions into the log.
    fn flush_decisions(&mut self, sid: &str) -> Result<(), String> {
        let Some(slot) = self.sessions.get_mut(sid) else {
            return Ok(());
        };
        let decisions = slot.session.take_decisions();
        let mut lines = Vec::with_capacity(decisions.len());
        for d in &decisions {
            lines.push(wire::decision_line(sid, d));
        }
        for line in &lines {
            self.log_line(line)?;
        }
        if let Some(slot) = self.sessions.get(sid) {
            let peak_retained = slot.session.peak_retained_records();
            let peak_live = slot.session.peak_live_segments();
            let s = &mut self.summary;
            s.peak_retained = s.peak_retained.max(peak_retained);
            s.peak_live_segments = s.peak_live_segments.max(peak_live);
        }
        Ok(())
    }

    fn apply_open(&mut self, sid: &str, spec: &str) -> Result<String, String> {
        if self.sessions.contains_key(sid) {
            return Err("session already open".into());
        }
        let session = build_session(spec, self.opts.watchdog_events)?;
        let name = session.scheduler_name();
        self.sessions
            .insert(sid.to_string(), Slot { session, jobs: 0 });
        self.summary.opened += 1;
        self.summary.peak_sessions = self.summary.peak_sessions.max(self.sessions.len());
        self.breakers.note_event();
        Ok(name)
    }

    fn apply_job(
        &mut self,
        sid: &str,
        arrival: f64,
        deadline: f64,
        length: f64,
    ) -> Result<Result<fjs_core::job::JobId, SessionError>, String> {
        let Some(slot) = self.sessions.get_mut(sid) else {
            return Err("no such session".into());
        };
        let offer = fjs_core::service::JobOffer {
            arrival: t(arrival),
            deadline: t(deadline),
            length: dur(length),
        };
        let outcome = slot.session.offer(offer);
        if outcome.is_ok() {
            slot.jobs += 1;
        }
        // Tick the breaker clock only for journal-equivalent outcomes
        // (admitted, or admitted-and-poisoned) so replay ticks match.
        if matches!(&outcome, Ok(_) | Err(SessionError::Terminal(_))) {
            self.breakers.note_event();
        }
        self.flush_decisions(sid)?;
        Ok(outcome)
    }

    fn apply_close(&mut self, sid: &str) -> Result<(String, fjs_core::time::Dur, u64), String> {
        let Some(mut slot) = self.sessions.remove(sid) else {
            return Err("no such session".into());
        };
        let verdict = slot.session.close();
        let span = slot.session.span();
        let decisions = slot.session.take_decisions();
        for d in &decisions {
            let line = wire::decision_line(sid, d);
            self.log_line(&line)?;
        }
        self.note_peaks(&slot.session);
        self.log_line(&wire::close_line(sid, span, verdict.label()))?;
        self.summary.closed += 1;
        self.breakers.note_close(sid, verdict.is_completed());
        self.summary.breaker_trips = self.breakers.trips();
        Ok((verdict.label().to_string(), span, slot.jobs))
    }

    /// Handles one raw input line starting at byte `offset` in its stream.
    ///
    /// Returns the reply to send back, or `None` for blank/comment lines
    /// and lines skipped by the resume cursor. `offset` and the internal
    /// line counter attribute quarantined lines exactly (same provenance
    /// contract as the batch trace reader's dead letters).
    pub fn handle_line(&mut self, offset: u64, raw: &str) -> Option<String> {
        self.line_no += 1;
        self.summary.lines += 1;
        if self.line_no <= self.cursor {
            return None;
        }
        if self.halted() {
            return Some("err halted".into());
        }
        let raw = raw.trim_end_matches('\n').trim_end_matches('\r');
        let req = match parse_request(raw) {
            Ok(None) => return None,
            Ok(Some(req)) => req,
            Err(reason) => return Some(self.quarantine_line(offset, raw, reason)),
        };
        self.summary.requests += 1;
        let reply = self.dispatch(offset, req);
        match reply {
            Ok(text) => Some(text),
            Err(fatal) => {
                self.summary.halted = Some(fatal.clone());
                Some(format!("err fatal: {fatal}"))
            }
        }
    }

    fn quarantine_line(&mut self, offset: u64, raw: &str, reason: String) -> String {
        let line = self.line_no;
        let reply = format!("err line={line} offset={offset}: {reason}");
        match self.opts.quarantine {
            Quarantine::Halt => {
                self.summary.halted = Some(format!("line {line} (byte {offset}): {reason}"));
            }
            Quarantine::Skip => self.summary.quarantined += 1,
            Quarantine::DeadLetter => {
                self.summary.quarantined += 1;
                self.summary.dead.push(DeadLetter {
                    line: self.line_no as usize,
                    offset,
                    raw: raw.to_string(),
                });
            }
        }
        reply
    }

    /// Dispatches a parsed request. `Ok` is the reply line; `Err` is a
    /// fatal server condition (journal or log I/O failure) that halts the
    /// stream.
    fn dispatch(&mut self, offset: u64, req: Request) -> Result<String, String> {
        let line = self.line_no;
        match req {
            Request::Open { sid, spec } => {
                // Admission order (mirrored exactly by the pooled
                // dispatcher): duplicate → global cap → tenant cap →
                // breaker → spec validation.
                let mut breaker_checked = false;
                if !self.sessions.contains_key(&sid) {
                    if self.sessions.len() >= self.opts.max_sessions {
                        self.summary.shed += 1;
                        return Ok(wire::open_busy(
                            &sid,
                            self.sessions.len(),
                            self.opts.max_sessions,
                        ));
                    }
                    let cap = self.opts.tenant_max_sessions;
                    if cap > 0 {
                        let tenant = tenant_of(&sid);
                        let open = self
                            .sessions
                            .keys()
                            .filter(|k| tenant_of(k) == tenant)
                            .count();
                        if open >= cap {
                            self.summary.tenant_shed += 1;
                            return Ok(wire::open_tenant_busy(&sid, tenant, open, cap));
                        }
                    }
                    breaker_checked = true;
                    if let OpenDecision::Refuse {
                        failures,
                        retry_after,
                    } = self.breakers.admit_open(&sid)
                    {
                        self.summary.breaker_refused += 1;
                        return Ok(wire::open_breaker(
                            &sid,
                            tenant_of(&sid),
                            failures,
                            retry_after,
                        ));
                    }
                }
                match self.apply_open(&sid, &spec) {
                    Ok(name) => {
                        self.journal_append(&ServeEvent::Open {
                            session: sid.clone(),
                            scheduler: spec,
                            line,
                        })?;
                        Ok(wire::open_ok(&sid, &name))
                    }
                    Err(e) => {
                        // A failed open is not journaled; undo the
                        // half-open probe reservation (if this sid took
                        // it) so the probe slot is not leaked.
                        if breaker_checked {
                            self.breakers.abort_open(&sid);
                        }
                        Ok(wire::open_err(&sid, &e))
                    }
                }
            }
            Request::Job {
                sid,
                arrival,
                deadline,
                length,
            } => {
                match self.sessions.get(&sid) {
                    None => return Ok(wire::no_session("job", &sid)),
                    Some(slot) => {
                        if let Some(v) = slot.session.verdict() {
                            return Ok(wire::job_terminal(&sid, v));
                        }
                        let resident = slot.session.num_pending() + slot.session.num_running();
                        if resident >= self.opts.max_pending {
                            self.summary.shed += 1;
                            return Ok(wire::job_busy(&sid, resident, self.opts.max_pending));
                        }
                    }
                }
                // Tenant quota checks, in the same order as the pool
                // worker's so serial and pooled replies match bytewise.
                let q = self.opts.tenant_quotas;
                if q.enabled() {
                    let tenant = tenant_of(&sid).to_string();
                    let mut t_resident = 0usize;
                    let mut t_bytes = 0u64;
                    for (k, slot) in &self.sessions {
                        if tenant_of(k) == tenant {
                            t_resident += slot.session.num_pending() + slot.session.num_running();
                            t_bytes += slot.session.admitted_payload_bytes();
                        }
                    }
                    if q.max_pending > 0 && t_resident >= q.max_pending {
                        self.summary.tenant_shed += 1;
                        return Ok(wire::job_tenant_busy(
                            &sid,
                            &tenant,
                            TenantShedCause::Pending,
                            t_resident as u64,
                            q.max_pending as u64,
                        ));
                    }
                    let offer = fjs_core::service::JobOffer {
                        arrival: t(arrival),
                        deadline: t(deadline),
                        length: dur(length),
                    };
                    if q.max_bytes > 0 && t_bytes + offer.canonical_bytes() > q.max_bytes {
                        self.summary.tenant_shed += 1;
                        return Ok(wire::job_tenant_busy(
                            &sid,
                            &tenant,
                            TenantShedCause::Bytes,
                            t_bytes,
                            q.max_bytes,
                        ));
                    }
                }
                match self.apply_job(&sid, arrival, deadline, length)? {
                    Ok(id) => {
                        self.journal_append(&ServeEvent::Job {
                            session: sid.clone(),
                            line,
                            arrival,
                            deadline,
                            length,
                        })?;
                        self.summary.jobs += 1;
                        let span = self
                            .sessions
                            .get(&sid)
                            .map(|s| s.session.span())
                            .unwrap_or(fjs_core::time::Dur::ZERO);
                        Ok(wire::job_ok(&sid, id, span))
                    }
                    Err(SessionError::Terminal(v)) => {
                        // This offer itself poisoned the session: the
                        // mutation happened, so it must be journaled for
                        // replay to reproduce the same terminal state.
                        self.journal_append(&ServeEvent::Job {
                            session: sid.clone(),
                            line,
                            arrival,
                            deadline,
                            length,
                        })?;
                        self.summary.jobs += 1;
                        Ok(wire::job_poisoned(&sid, &v))
                    }
                    Err(e) => Ok(wire::job_rejected(&sid, line, offset, &e)),
                }
            }
            Request::Close { sid } => match self.apply_close(&sid) {
                Ok((verdict, span, jobs)) => {
                    self.journal_append(&ServeEvent::Close {
                        session: sid.clone(),
                        line,
                    })?;
                    Ok(wire::close_ok(&sid, span, jobs, &verdict))
                }
                Err(e) => Ok(format!("err close {sid}: {e}")),
            },
            Request::Stats { sid } => match self.sessions.get(&sid) {
                None => Ok(wire::no_session("stats", &sid)),
                Some(slot) => {
                    let s = &slot.session;
                    Ok(wire::stats_ok(
                        &sid,
                        s.span(),
                        s.num_pending(),
                        s.num_running(),
                        s.retained_records(),
                        s.peak_retained_records(),
                        s.stats().events_total,
                    ))
                }
            },
            Request::StatsDaemon => Ok(wire::stats_daemon(&self.summary)),
        }
    }

    /// Graceful drain: closes every remaining session (alphabetical order,
    /// so drains are deterministic), flushes the decision log and syncs
    /// the journal. Called on end-of-input and on `SIGINT`/`SIGTERM`.
    pub fn drain(&mut self) -> Result<(), String> {
        let line = self.line_no;
        let sids: Vec<String> = self.sessions.keys().cloned().collect();
        for sid in sids {
            self.apply_close(&sid)?;
            self.journal_append(&ServeEvent::Close { session: sid, line })?;
        }
        self.log.flush().map_err(|e| format!("decision log: {e}"))?;
        if let Some(j) = self.journal.as_mut() {
            j.sync().map_err(|e| format!("journal: {e}"))?;
        }
        Ok(())
    }

    /// Drains and consumes the server, returning the final accounting and
    /// the decision-log sink (so in-memory logs can be inspected).
    pub fn finish(mut self) -> Result<(ServeSummary, Sink), String> {
        self.drain()?;
        Ok((self.summary, self.log))
    }
}

/// Unified driver over the two server backends, so frontends (file,
/// stdin, sockets) are written once. `Serial` replies synchronously;
/// `Pooled` replies arrive asynchronously through [`Backend::pump`],
/// tagged with the submitting connection and released in per-connection
/// order.
pub enum Backend {
    /// The single-threaded [`Server`] (`--workers 1`, the default).
    /// Both variants are boxed: each embeds its whole session/dispatch
    /// state inline, and the enum is moved around by the frontends.
    Serial(Box<Server>),
    /// The worker-pool dispatcher (`--workers N`).
    Pooled(Box<dispatch::PooledServer>),
}

impl Backend {
    /// Builds the backend selected by `opts.workers`.
    pub fn new(opts: ServeOptions, log: Sink, journal: Option<ServeJournal>) -> Backend {
        if opts.workers <= 1 {
            Backend::Serial(Box::new(Server::new(opts, log, journal)))
        } else {
            Backend::Pooled(Box::new(dispatch::PooledServer::new(opts, log, journal)))
        }
    }

    /// Submits one raw input line from `conn` starting at byte `offset`
    /// in that connection's stream; completed replies (possibly for other
    /// connections) are appended to `out` as `(conn, reply)` pairs.
    pub fn submit(
        &mut self,
        conn: u64,
        offset: u64,
        raw: &str,
        out: &mut Vec<(u64, String)>,
    ) -> Result<(), String> {
        match self {
            Backend::Serial(s) => {
                if let Some(reply) = s.handle_line(offset, raw) {
                    out.push((conn, reply));
                }
                Ok(())
            }
            Backend::Pooled(p) => p.submit(conn, offset, raw, out),
        }
    }

    /// Collects replies that completed since the last call (no-op for the
    /// serial backend, which replies inside [`Backend::submit`]).
    pub fn pump(&mut self, out: &mut Vec<(u64, String)>) -> Result<(), String> {
        match self {
            Backend::Serial(_) => Ok(()),
            Backend::Pooled(p) => p.pump(out),
        }
    }

    /// Blocks until every submitted request has completed and its reply
    /// was appended to `out`. Call before [`Backend::finish`] when the
    /// replies matter (file/stdin frontends).
    pub fn settle(&mut self, out: &mut Vec<(u64, String)>) -> Result<(), String> {
        match self {
            Backend::Serial(_) => Ok(()),
            Backend::Pooled(p) => p.settle(out),
        }
    }

    /// Drops per-connection reply state after a disconnect; undelivered
    /// replies for that connection are discarded.
    pub fn forget_conn(&mut self, conn: u64) {
        if let Backend::Pooled(p) = self {
            p.forget_conn(conn);
        }
    }

    /// See [`Server::resume`].
    pub fn resume(&mut self, events: &[ServeEvent]) -> Result<(), String> {
        match self {
            Backend::Serial(s) => s.resume(events),
            Backend::Pooled(p) => p.resume(events),
        }
    }

    /// See [`Server::cursor`].
    pub fn cursor(&self) -> u64 {
        match self {
            Backend::Serial(s) => s.cursor(),
            Backend::Pooled(p) => p.cursor(),
        }
    }

    /// See [`Server::halted`].
    pub fn halted(&self) -> bool {
        match self {
            Backend::Serial(s) => s.halted(),
            Backend::Pooled(p) => p.halted(),
        }
    }

    /// Installs or removes the callback that pooled work makes when it
    /// completes, so a frontend blocked on its own events wakes to
    /// [`Backend::pump`]. The serial backend answers inside
    /// [`Backend::submit`] and never calls it.
    pub fn set_waker(&mut self, waker: Option<fjs_core::service::Waker>) {
        if let Backend::Pooled(p) = self {
            p.set_waker(waker);
        }
    }

    /// The configured per-request throttle (test hook).
    pub fn throttle_ms(&self) -> u64 {
        match self {
            Backend::Serial(s) => s.opts.throttle_ms,
            Backend::Pooled(p) => p.throttle_ms(),
        }
    }

    /// The frame-length cap the socket frontends enforce per line.
    pub fn max_frame_bytes(&self) -> usize {
        match self {
            Backend::Serial(s) => s.opts.max_frame_bytes,
            Backend::Pooled(p) => p.opts().max_frame_bytes,
        }
    }

    /// The bounded per-connection writer-queue depth.
    pub fn writer_queue(&self) -> usize {
        match self {
            Backend::Serial(s) => s.opts.writer_queue,
            Backend::Pooled(p) => p.opts().writer_queue,
        }
    }

    pub(crate) fn summary_mut(&mut self) -> &mut ServeSummary {
        match self {
            Backend::Serial(s) => &mut s.summary,
            Backend::Pooled(p) => p.summary_mut(),
        }
    }

    /// Drains every session and returns the final accounting and log sink.
    pub fn finish(self) -> Result<(ServeSummary, Sink), String> {
        match self {
            Backend::Serial(s) => s.finish(),
            Backend::Pooled(p) => p.finish(),
        }
    }
}

/// Builds a session from a scheduler spec: a registry short name
/// (`eager`, `batch+`, `cdb`, ...) optionally wrapped as
/// `poison:<panic|hang>:<name>` to inject a misbehaving subject (the
/// supervision test double).
pub(crate) fn build_session(spec: &str, watchdog: usize) -> Result<Session, String> {
    if let Some(rest) = spec.strip_prefix("poison:") {
        let (mode_label, inner) = rest
            .split_once(':')
            .ok_or_else(|| format!("bad poison spec '{spec}' (want poison:<panic|hang>:<name>)"))?;
        let mode = PoisonMode::from_label(mode_label)
            .ok_or_else(|| format!("unknown poison mode '{mode_label}' (want panic|hang)"))?;
        let kind = lookup_kind(inner)?;
        let sched = Box::new(PoisonedScheduler::new(kind.build(), mode));
        return Ok(Session::new(sched, kind.information_model()).with_watchdog(watchdog));
    }
    let kind = lookup_kind(spec)?;
    Ok(Session::new(kind.build(), kind.information_model()).with_watchdog(watchdog))
}

fn lookup_kind(name: &str) -> Result<SchedulerKind, String> {
    let lower = name.to_ascii_lowercase();
    let canonical = if lower == "semi-cdb" {
        "semicdb"
    } else {
        lower.as_str()
    };
    SchedulerKind::from_short_name(canonical).ok_or_else(|| format!("unknown scheduler '{name}'"))
}

/// Installs `SIGINT` + `SIGTERM` handlers that request a graceful drain
/// (same stop flag as `fjs soak`, so either command can be supervised the
/// same way). Non-Unix targets get a no-op; the journal survives a hard
/// kill anyway.
#[cfg(unix)]
#[allow(clippy::fn_to_numeric_cast)] // signal(2) takes the handler as an address
pub fn install_drain_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_term(_signum: i32) {
        crate::soak::request_stop();
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_term as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
    }
}

/// No-op on non-Unix targets (see the Unix version).
#[cfg(not(unix))]
pub fn install_drain_handlers() {}

/// Feeds a buffered reader to the backend line by line, writing replies
/// to `replies` (if given) and stopping on end-of-input, a requested stop
/// (signal) or a server halt. Byte offsets are tracked exactly as the
/// batch trace reader does, so quarantine attribution matches. All lines
/// belong to one logical connection, so pooled replies come back in
/// submission order.
pub fn run_stream<R: BufRead>(
    backend: &mut Backend,
    mut src: R,
    mut replies: Option<&mut dyn Write>,
) -> Result<(), String> {
    let mut offset = 0u64;
    let mut buf = String::new();
    let mut out: Vec<(u64, String)> = Vec::new();
    let throttle = backend.throttle_ms();
    loop {
        if stop_requested() || backend.halted() {
            break;
        }
        buf.clear();
        let n = src
            .read_line(&mut buf)
            .map_err(|e| format!("reading input: {e}"))?;
        if n == 0 {
            break;
        }
        let line_offset = offset;
        offset += n as u64;
        if throttle > 0 {
            std::thread::sleep(std::time::Duration::from_millis(throttle));
        }
        backend.submit(0, line_offset, &buf, &mut out)?;
        write_replies(&mut out, &mut replies)?;
    }
    backend.settle(&mut out)?;
    write_replies(&mut out, &mut replies)?;
    Ok(())
}

fn write_replies(
    out: &mut Vec<(u64, String)>,
    replies: &mut Option<&mut dyn Write>,
) -> Result<(), String> {
    if let Some(w) = replies.as_deref_mut() {
        for (_conn, reply) in out.iter() {
            writeln!(w, "{reply}").map_err(|e| format!("writing reply: {e}"))?;
        }
        if !out.is_empty() {
            w.flush().map_err(|e| format!("writing reply: {e}"))?;
        }
    }
    out.clear();
    Ok(())
}

/// What the stdin frontend's dispatch loop blocks on.
enum StdinEvent {
    /// One input line and its byte offset.
    Line(u64, String),
    /// Pooled work completed; pump the backend.
    Wake,
    /// Input ended (EOF or a read error).
    End,
}

/// Serves the process's stdin, replying on stdout. Reads happen on a
/// helper thread feeding a channel, so a `SIGINT`/`SIGTERM` drain request
/// is honoured within ~100ms even while blocked waiting for input (a
/// blocking `read_line` would swallow the signal until the next line).
/// Pooled completions post a `Wake` on the same channel, so a reply is
/// written as soon as its worker finishes, not on the next line.
pub fn run_stdin(backend: &mut Backend) -> Result<(), String> {
    use std::sync::mpsc;

    let (tx, rx) = mpsc::channel::<StdinEvent>();
    let wake_tx = tx.clone();
    // Unbounded, so the waker never blocks a worker; coalescing keeps at
    // most one `Wake` outstanding per pump.
    backend.set_waker(Some(Box::new(move || {
        let _ = wake_tx.send(StdinEvent::Wake);
    })));
    std::thread::spawn(move || {
        let stdin = io::stdin();
        let mut src = stdin.lock();
        let mut offset = 0u64;
        let mut buf = String::new();
        loop {
            buf.clear();
            match src.read_line(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if tx.send(StdinEvent::Line(offset, buf.clone())).is_err() {
                        return;
                    }
                    offset += n as u64;
                }
            }
        }
        let _ = tx.send(StdinEvent::End);
    });

    let stdout = io::stdout();
    let mut stdout = stdout.lock();
    let mut replies: Option<&mut dyn Write> = Some(&mut stdout);
    let mut out: Vec<(u64, String)> = Vec::new();
    let served = stdin_loop(backend, &rx, &mut out, &mut replies);
    backend.set_waker(None);
    served?;
    backend.settle(&mut out)?;
    write_replies(&mut out, &mut replies)?;
    Ok(())
}

/// The stdin dispatch loop: submits each line, and pumps the backend
/// after every event so a completion is written as soon as it wakes us.
fn stdin_loop(
    backend: &mut Backend,
    rx: &std::sync::mpsc::Receiver<StdinEvent>,
    out: &mut Vec<(u64, String)>,
    replies: &mut Option<&mut dyn Write>,
) -> Result<(), String> {
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    let throttle = backend.throttle_ms();
    loop {
        if stop_requested() || backend.halted() {
            return Ok(());
        }
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(StdinEvent::Line(offset, line)) => {
                if throttle > 0 {
                    std::thread::sleep(Duration::from_millis(throttle));
                }
                backend.submit(0, offset, &line, out)?;
            }
            Ok(StdinEvent::Wake) | Err(RecvTimeoutError::Timeout) => {}
            Ok(StdinEvent::End) | Err(RecvTimeoutError::Disconnected) => return Ok(()),
        }
        backend.pump(out)?;
        write_replies(out, replies)?;
    }
}

/// Outcome of an in-process [`run_script`] call.
pub struct ScriptOutcome {
    /// One reply per non-blank request line, in order.
    pub replies: Vec<String>,
    /// The decision log, as written.
    pub log: String,
    /// Final accounting.
    pub summary: ServeSummary,
}

/// Runs a protocol script through an in-memory server — the entry point
/// used by benches and tests (no files, no sockets, no journal unless the
/// caller wires one in via [`Server`] directly).
pub fn run_script(script: &str, opts: ServeOptions) -> Result<ScriptOutcome, String> {
    let mut server = Server::new(opts, Sink::Mem(Vec::new()), None);
    let mut replies = Vec::new();
    let mut offset = 0u64;
    for line in script.split_inclusive('\n') {
        if let Some(reply) = server.handle_line(offset, line) {
            replies.push(reply);
        }
        offset += line.len() as u64;
        if server.halted() {
            break;
        }
    }
    let (summary, log) = server.finish()?;
    let log = String::from_utf8_lossy(log.mem().unwrap_or_default()).into_owned();
    Ok(ScriptOutcome {
        replies,
        log,
        summary,
    })
}

/// Like [`run_script`] but through whichever backend `opts.workers`
/// selects — the entry point for the pooled bench case and the
/// worker-count determinism tests (which assert the log is byte-identical
/// to [`run_script`]'s).
pub fn run_script_pooled(script: &str, opts: ServeOptions) -> Result<ScriptOutcome, String> {
    let mut backend = Backend::new(opts, Sink::Mem(Vec::new()), None);
    let mut out: Vec<(u64, String)> = Vec::new();
    let mut offset = 0u64;
    for line in script.split_inclusive('\n') {
        backend.submit(0, offset, line, &mut out)?;
        offset += line.len() as u64;
        if backend.halted() {
            break;
        }
    }
    backend.settle(&mut out)?;
    let replies = out.into_iter().map(|(_, reply)| reply).collect();
    let (summary, log) = backend.finish()?;
    let log = String::from_utf8_lossy(log.mem().unwrap_or_default()).into_owned();
    Ok(ScriptOutcome {
        replies,
        log,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fjs_core::supervise::with_quiet_panics;

    fn script_outcome(script: &str) -> ScriptOutcome {
        run_script(script, ServeOptions::default()).expect("script runs")
    }

    #[test]
    fn multiplexes_sessions_and_streams_decisions() {
        let out = script_outcome(
            "# demo\n\
             open a eager\n\
             open b lazy\n\
             job a 0,0,2\n\
             job b 0,5,1\n\
             job a 1,3,1\n\
             stats a\n\
             close a\n\
             close b\n",
        );
        assert!(out.replies[0].starts_with("ok open a scheduler="));
        assert!(out.replies[1].starts_with("ok open b scheduler="));
        assert!(out.replies[2].starts_with("ok job a "));
        assert!(out.replies[5].starts_with("ok stats a "));
        assert!(out.replies[6].starts_with("ok close a "));
        assert_eq!(out.summary.opened, 2);
        assert_eq!(out.summary.closed, 2);
        assert_eq!(out.summary.jobs, 3);
        // Every session's stream appears in the log, prefixed by its sid,
        // and ends with a close line carrying the final span.
        assert!(out.log.lines().any(|l| l.starts_with("a start ")));
        assert!(out.log.lines().any(|l| l.starts_with("b start ")));
        assert!(out.log.lines().any(|l| l.starts_with("a close span=")));
        assert!(out.log.lines().any(|l| l.starts_with("b close span=")));
    }

    #[test]
    fn session_cap_sheds_with_structured_busy() {
        let opts = ServeOptions {
            max_sessions: 1,
            ..ServeOptions::default()
        };
        let out = run_script("open a eager\nopen b eager\nclose a\n", opts).unwrap();
        assert_eq!(out.replies[1], "busy open b sessions=1 max-sessions=1");
        assert_eq!(out.summary.shed, 1);
        assert_eq!(out.summary.opened, 1);
    }

    #[test]
    fn pending_cap_sheds_jobs_but_keeps_session_alive() {
        let opts = ServeOptions {
            max_pending: 2,
            ..ServeOptions::default()
        };
        // The lazy scheduler keeps jobs pending until their deadline, so
        // same-instant offers accumulate residents.
        let out = run_script(
            "open a lazy\n\
             job a 0,100,1\n\
             job a 0,100,1\n\
             job a 0,100,1\n\
             close a\n",
            opts,
        )
        .unwrap();
        assert!(out.replies[1].starts_with("ok job a "));
        assert!(out.replies[2].starts_with("ok job a "));
        assert_eq!(out.replies[3], "busy job a pending=2 max-pending=2");
        assert_eq!(out.summary.shed, 1);
        assert_eq!(out.summary.jobs, 2);
        // The shed job is gone but the session still closes cleanly.
        assert!(out.replies[4].contains("verdict=completed"));
    }

    #[test]
    fn poisoned_session_is_contained_and_neighbours_unaffected() {
        let out = with_quiet_panics(|| {
            script_outcome(
                "open good eager\n\
                 open bad poison:panic:eager\n\
                 job good 0,0,1\n\
                 job bad 0,0,1\n\
                 job bad 1,1,1\n\
                 job good 1,1,1\n\
                 close bad\n\
                 close good\n",
            )
        });
        // The poisoning offer gets a typed verdict in a structured reply...
        assert!(
            out.replies[3].starts_with("err job bad verdict=panicked:"),
            "{}",
            out.replies[3]
        );
        // ...further offers are refused with the terminal verdict...
        assert!(
            out.replies[4].starts_with("err job bad verdict=panicked"),
            "{}",
            out.replies[4]
        );
        // ...and the close line reports it.
        assert!(
            out.replies[6].contains("verdict=panicked"),
            "{}",
            out.replies[6]
        );
        // The healthy neighbour is untouched: same decisions as running alone.
        let alone = script_outcome(
            "open good eager\n\
             job good 0,0,1\n\
             job good 1,1,1\n\
             close good\n",
        );
        let good_lines = |log: &str| {
            log.lines()
                .filter(|l| l.starts_with("good "))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(good_lines(&out.log), good_lines(&alone.log));
    }

    #[test]
    fn hung_scheduler_is_contained_by_the_watchdog() {
        let opts = ServeOptions {
            watchdog_events: 200,
            ..ServeOptions::default()
        };
        let out = run_script(
            "open spin poison:hang:eager\n\
             job spin 0,5,1\n\
             job spin 1,6,1\n\
             close spin\n",
            opts,
        )
        .unwrap();
        assert!(
            out.replies.iter().any(|r| r.contains("verdict=timed-out")),
            "{:?}",
            out.replies
        );
    }

    #[test]
    fn malformed_lines_are_dead_lettered_with_provenance() {
        let script = "open a eager\njob a bogus\njob a 0,5,1\nclose a\n";
        let out = script_outcome(script);
        assert_eq!(out.summary.quarantined, 1);
        assert_eq!(out.summary.dead.len(), 1);
        let d = &out.summary.dead[0];
        assert_eq!((d.line, d.offset), (2, 13));
        assert_eq!(d.raw, "job a bogus");
        assert_eq!(
            d.to_string(),
            "line 2 (byte 13): job a bogus",
            "dead-letter rendering is the golden trace-reader format"
        );
        assert!(out.replies[1].starts_with("err line=2 offset=13: "));
        // The well-formed remainder of the stream still ran.
        assert_eq!(out.summary.jobs, 1);
        assert_eq!(out.summary.closed, 1);
    }

    #[test]
    fn halt_policy_stops_the_stream() {
        let opts = ServeOptions {
            quarantine: Quarantine::Halt,
            ..ServeOptions::default()
        };
        let out = run_script("open a eager\nnonsense\njob a 0,5,1\n", opts).unwrap();
        assert!(out.summary.halted.is_some());
        // Nothing after the halt line was processed.
        assert_eq!(out.summary.jobs, 0);
    }

    #[test]
    fn validation_errors_carry_line_and_offset() {
        let out = script_outcome(
            "open a eager\n\
             job a 0,5,1\n\
             job a 5,9,1\n\
             job a 2,9,1\n\
             close a\n",
        );
        // Arrival regression is a session-level reject attributed to the
        // protocol stream position (line 4 starts at byte 37).
        assert!(
            out.replies[3].starts_with("err job a line=4 offset=37: "),
            "{}",
            out.replies[3]
        );
        assert!(out.replies[3].contains("arrival"), "{}", out.replies[3]);
        // The reject did not damage the session.
        assert!(out.replies[4].contains("verdict=completed"));
    }

    #[test]
    fn resume_replays_to_byte_identical_log() {
        let dir = std::env::temp_dir().join(format!(
            "fjs-serve-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("serve.journal");
        let script = "open a eager\n\
                      open b lazy\n\
                      job a 0,0,2\n\
                      job b 0,4,1\n\
                      job a 1,3,1\n\
                      job b 2,6,2\n\
                      close a\n\
                      close b\n";

        // Reference: one uninterrupted run, journaled.
        let journal = fjs_core::service::ServeJournal::create(&journal_path)
            .unwrap()
            .with_sync_every(1);
        let mut server = Server::new(
            ServeOptions::default(),
            Sink::Mem(Vec::new()),
            Some(journal),
        );
        let mut offset = 0u64;
        for line in script.split_inclusive('\n') {
            server.handle_line(offset, line);
            offset += line.len() as u64;
        }
        let (_, sink) = server.finish().unwrap();
        let reference = String::from_utf8(sink.mem().unwrap().to_vec()).unwrap();

        // Crash simulation: replay the journal as written after only the
        // first 5 protocol lines, then feed the rest of the input past the
        // cursor — the resumed log must equal the reference byte for byte.
        let journal2_path = dir.join("serve2.journal");
        let journal2 = fjs_core::service::ServeJournal::create(&journal2_path)
            .unwrap()
            .with_sync_every(1);
        let mut first = Server::new(ServeOptions::default(), Sink::Null, Some(journal2));
        let mut offset = 0u64;
        for line in script.split_inclusive('\n').take(5) {
            first.handle_line(offset, line);
            offset += line.len() as u64;
        }
        drop(first); // SIGKILL stand-in: no drain, no close events.

        let events = fjs_core::service::ServeJournal::load(&journal2_path).unwrap();
        let mut resumed = Server::new(ServeOptions::default(), Sink::Mem(Vec::new()), None);
        resumed.resume(&events).unwrap();
        assert_eq!(resumed.cursor(), 5);
        let mut offset = 0u64;
        for line in script.split_inclusive('\n') {
            resumed.handle_line(offset, line);
            offset += line.len() as u64;
        }
        let (_, sink) = resumed.finish().unwrap();
        let resumed_log = String::from_utf8(sink.mem().unwrap().to_vec()).unwrap();
        assert_eq!(resumed_log, reference, "resume must be byte-identical");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn build_session_understands_specs() {
        assert!(build_session("eager", 1000).is_ok());
        assert!(build_session("batch+", 1000).is_ok());
        assert!(build_session("poison:panic:eager", 1000).is_ok());
        assert!(build_session("poison:hang:lazy", 1000).is_ok());
        assert!(build_session("poison:frogs:eager", 1000).is_err());
        assert!(build_session("nonesuch", 1000).is_err());
    }

    #[test]
    fn tenant_session_cap_sheds_with_structured_busy() {
        let opts = ServeOptions {
            tenant_max_sessions: 1,
            ..ServeOptions::default()
        };
        let out = run_script(
            "open t.a eager\nopen t.b eager\nopen u.a eager\nclose t.a\nclose u.a\n",
            opts,
        )
        .unwrap();
        assert!(out.replies[0].starts_with("ok open t.a "));
        assert_eq!(
            out.replies[1],
            "busy open t.b tenant=t tenant-sessions=1 max-tenant-sessions=1"
        );
        // Another tenant is unaffected by t's cap.
        assert!(out.replies[2].starts_with("ok open u.a "));
        assert_eq!(out.summary.tenant_shed, 1);
        assert_eq!(out.summary.opened, 2);
    }

    #[test]
    fn tenant_pending_quota_spans_sibling_sessions() {
        let opts = ServeOptions {
            tenant_quotas: fjs_core::service::TenantQuotas {
                max_pending: 1,
                max_bytes: 0,
            },
            ..ServeOptions::default()
        };
        // Lazy keeps same-instant jobs resident, so t.a's admitted job
        // counts against the tenant when t.b offers its own.
        let out = run_script(
            "open t.a lazy\n\
             open t.b lazy\n\
             job t.a 0,100,1\n\
             job t.b 0,100,1\n\
             open u.a lazy\n\
             job u.a 0,100,1\n\
             close t.a\nclose t.b\nclose u.a\n",
            opts,
        )
        .unwrap();
        assert!(out.replies[2].starts_with("ok job t.a "));
        assert_eq!(
            out.replies[3],
            "busy job t.b tenant=t tenant-pending=1 max-tenant-pending=1"
        );
        // Tenant u is untouched by t's quota.
        assert!(out.replies[5].starts_with("ok job u.a "));
        assert_eq!(out.summary.tenant_shed, 1);
    }

    #[test]
    fn breaker_trips_refuses_and_recovers_end_to_end() {
        let opts = ServeOptions {
            breaker: fjs_core::service::BreakerConfig {
                threshold: 2,
                cooldown_events: 4,
            },
            ..ServeOptions::default()
        };
        let out = with_quiet_panics(|| {
            run_script(
                "open h.a poison:panic:eager\n\
                 job h.a 0,1,1\n\
                 close h.a\n\
                 open h.b poison:panic:eager\n\
                 job h.b 0,1,1\n\
                 close h.b\n\
                 open h.c eager\n\
                 open u.a eager\n\
                 job u.a 0,5,1\n\
                 job u.a 1,6,1\n\
                 close u.a\n\
                 open h.d eager\n\
                 job h.d 0,5,2\n\
                 close h.d\n\
                 open h.e eager\n\
                 close h.e\n",
                opts,
            )
            .unwrap()
        });
        // Two poisoned closes trip tenant h's breaker...
        assert_eq!(
            out.replies[6],
            "busy open h.c breaker-open tenant=h failures=2 retry-after-events=4"
        );
        // ...four healthy events later the cooldown elapses and h.d is
        // admitted as the half-open probe; its completed close re-closes
        // the breaker, so h.e is admitted without restriction.
        assert!(
            out.replies[11].starts_with("ok open h.d "),
            "{:?}",
            out.replies
        );
        assert!(out.replies[13].contains("verdict=completed"));
        assert!(out.replies[14].starts_with("ok open h.e "));
        assert_eq!(out.summary.breaker_trips, 1);
        assert_eq!(out.summary.breaker_refused, 1);
    }

    #[test]
    fn governor_output_is_byte_identical_across_worker_counts() {
        let script = "open t.a lazy\n\
                      open t.b lazy\n\
                      job t.a 0,100,1\n\
                      job t.b 0,100,1\n\
                      open h.a poison:panic:eager\n\
                      job h.a 0,1,1\n\
                      close h.a\n\
                      open h.b poison:panic:eager\n\
                      job h.b 0,1,1\n\
                      close h.b\n\
                      open h.c eager\n\
                      open u.a eager\n\
                      job u.a 0,5,1\n\
                      job u.a 1,6,1\n\
                      close u.a\n\
                      open h.d eager\n\
                      job h.d 0,5,2\n\
                      close h.d\n\
                      stats\n\
                      close t.a\n\
                      close t.b\n";
        let opts = |workers: usize| ServeOptions {
            workers,
            tenant_max_sessions: 3,
            tenant_quotas: fjs_core::service::TenantQuotas {
                max_pending: 1,
                max_bytes: 64,
            },
            breaker: fjs_core::service::BreakerConfig {
                threshold: 2,
                cooldown_events: 4,
            },
            ..ServeOptions::default()
        };
        let serial = with_quiet_panics(|| run_script(script, opts(1)).unwrap());
        assert!(
            serial.summary.breaker_trips > 0,
            "script must trip the breaker"
        );
        assert!(serial.summary.tenant_shed > 0, "script must shed on quota");
        for workers in [2usize, 8] {
            let pooled = with_quiet_panics(|| run_script_pooled(script, opts(workers)).unwrap());
            assert_eq!(
                pooled.replies, serial.replies,
                "replies must be byte-identical at workers={workers}"
            );
            assert_eq!(
                pooled.log, serial.log,
                "log must be byte-identical at workers={workers}"
            );
            assert_eq!(pooled.summary.breaker_trips, serial.summary.breaker_trips);
            assert_eq!(
                pooled.summary.breaker_refused,
                serial.summary.breaker_refused
            );
            assert_eq!(pooled.summary.tenant_shed, serial.summary.tenant_shed);
        }
    }

    #[test]
    fn breaker_state_survives_resume_identically() {
        let dir = std::env::temp_dir().join(format!(
            "fjs-breaker-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("serve.journal");
        let opts = || ServeOptions {
            breaker: fjs_core::service::BreakerConfig {
                threshold: 2,
                cooldown_events: 100,
            },
            ..ServeOptions::default()
        };
        // Two poisoned sessions trip tenant h live; everything they did
        // is journaled (opens, the poisoning offers, the closes).
        let script = "open h.a poison:panic:eager\n\
                      job h.a 0,1,1\n\
                      close h.a\n\
                      open h.b poison:panic:eager\n\
                      job h.b 0,1,1\n\
                      close h.b\n";
        let journal = fjs_core::service::ServeJournal::create(&journal_path)
            .unwrap()
            .with_sync_every(1);
        let mut live = Server::new(opts(), Sink::Null, Some(journal));
        let mut offset = 0u64;
        with_quiet_panics(|| {
            for line in script.split_inclusive('\n') {
                live.handle_line(offset, line);
                offset += line.len() as u64;
            }
        });
        let live_reply = live.handle_line(offset, "open h.z eager\n").unwrap();
        drop(live); // SIGKILL stand-in.

        // A resumed daemon must refuse the same open with the same bytes.
        // Re-feed the original input first: the resume cursor skips those
        // lines, then the probe lands at the same position as live.
        let events = fjs_core::service::ServeJournal::load(&journal_path).unwrap();
        let mut resumed = Server::new(opts(), Sink::Null, None);
        with_quiet_panics(|| resumed.resume(&events).unwrap());
        let mut offset = 0u64;
        for line in script.split_inclusive('\n') {
            assert!(resumed.handle_line(offset, line).is_none());
            offset += line.len() as u64;
        }
        let resumed_reply = resumed.handle_line(offset, "open h.z eager\n").unwrap();
        assert_eq!(
            resumed_reply, live_reply,
            "breaker state must replay bit-identically from the journal"
        );
        assert_eq!(
            resumed_reply,
            "busy open h.z breaker-open tenant=h failures=2 retry-after-events=100"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn summary_jsonl_is_flat_schema_v1() {
        let out = script_outcome("open a eager\njob a 0,5,2\nclose a\n");
        let line = out.summary.to_jsonl();
        assert!(
            line.starts_with("{\"v\":1,\"kind\":\"serve-summary\""),
            "{line}"
        );
        for key in [
            "\"tenant_shed\":0",
            "\"breaker_refused\":0",
            "\"breaker_trips\":0",
            "\"oversize_disconnects\":0",
            "\"slow_disconnects\":0",
            "\"peak_writer_queue\":0",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        assert!(!line.contains('\n'), "one flat line for JSONL appends");
    }
}
