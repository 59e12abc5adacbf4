//! `fjs serve` — a resident scheduling daemon.
//!
//! Multiplexes many concurrent scheduling sessions (one [`Session`] each,
//! built from the scheduler registry) over a line protocol ([`protocol`])
//! read from a file, stdin, or unix/TCP sockets. Decisions stream out
//! incrementally — `start`/`done` deltas plus a running span — and full
//! history is never materialized: per-session state is O(pending jobs)
//! thanks to the span accountant and completed-prefix compaction inside
//! the service layer.
//!
//! One [`Server`] ([`dispatch`]) serves every worker count: sessions
//! shard across a [`SessionPool`](fjs_core::service::SessionPool) whose
//! worker 0 has no thread, a request whose worker is idle runs on the
//! dispatcher thread unless more input waits, and a sequence-numbered
//! merge keeps the decision log and journal byte-identical at any count.
//! One `poll(2)` loop ([`net`], unix only) serves every frontend: the
//! listeners and their connections, or the stdin / `--input` line
//! source. [`run_script`] drives the server in process.
//!
//! Robustness properties:
//!
//! - **Isolation** — a panicking or hung scheduler poisons only its own
//!   session (typed [`Verdict`](fjs_core::supervise::Verdict));
//!   every other session keeps its
//!   byte-identical decision stream.
//! - **Backpressure** — `--max-sessions` bounds resident sessions and
//!   `--max-pending` bounds per-session resident jobs; excess load is shed
//!   with a structured `busy` reply rather than absorbed.
//! - **Crash safety** — admitted requests are appended to a
//!   [`ServeJournal`](fjs_core::service::ServeJournal); after `SIGKILL`,
//!   `--resume` replays the journal and re-reads the input past the last
//!   journaled line, reproducing the decision log byte for byte.
//! - **Graceful drain** — `SIGINT`/`SIGTERM` stop admission, close every
//!   session, flush all deltas and exit 0.
//! - **Connection containment** — the socket frontends serve many
//!   connections concurrently and survive per-connection failures.

pub mod dispatch;
#[cfg(unix)]
pub mod net;
pub mod protocol;

use std::io::{self, Write};

use fjs_core::json::Line;
use fjs_core::service::{BreakerConfig, Session, TenantQuotas};
use fjs_core::supervise::{PoisonMode, PoisonedScheduler, DEFAULT_WATCHDOG_EVENTS};
use fjs_schedulers::SchedulerKind;
use fjs_workloads::{DeadLetter, Quarantine};

pub use dispatch::Server;

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
    /// Journal sync cadence (records between syncs).
    pub checkpoint_every: usize,
    /// Artificial per-request delay in milliseconds — a test hook so
    /// kill/resume tests can reliably interrupt a run mid-stream.
    pub throttle_ms: u64,
    /// Session workers. Sessions shard across a
    /// [`SessionPool`](fjs_core::service::SessionPool) by stable *tenant*
    /// hash (so the governor's tenant quotas stay exact). Worker 0 has no
    /// thread of its own; each worker above it is a thread.
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
    /// At more than one worker: pool requests applied on the dispatcher
    /// thread and on worker threads. Timing-dependent, so only the exit
    /// summary shows it (never `to_jsonl` or `stats`).
    pub pool_applies: Option<(u64, u64)>,
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
        if let Some((dispatcher, threads)) = self.pool_applies {
            writeln!(
                f,
                "serve: pool: {dispatcher} requests applied on the dispatcher, \
                 {threads} on worker threads"
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
    /// written through the journals' flat-line writer.
    pub fn to_jsonl(&self) -> String {
        Line::new()
            .num("v", 1)
            .str("kind", "serve-summary")
            .num("lines", self.lines)
            .num("requests", self.requests)
            .num("jobs", self.jobs)
            .num("shed", self.shed)
            .num("tenant_shed", self.tenant_shed)
            .num("breaker_refused", self.breaker_refused)
            .num("breaker_trips", self.breaker_trips)
            .num("opened", self.opened)
            .num("closed", self.closed)
            .num("decision_lines", self.decision_lines)
            .num("quarantined", self.quarantined)
            .num("peak_sessions", self.peak_sessions)
            .num("peak_retained", self.peak_retained)
            .num("peak_live_segments", self.peak_live_segments)
            .num("connections", self.connections)
            .num("disconnects", self.disconnects)
            .num("oversize_disconnects", self.oversize_disconnects)
            .num("slow_disconnects", self.slow_disconnects)
            .num("peak_writer_queue", self.peak_writer_queue)
            .num("accept_retries", self.accept_retries)
            .finish()
    }
}

/// Reply and decision-log line formats, in one place so every frontend
/// and worker count renders the same bytes.
pub(crate) mod wire {
    use fjs_core::job::JobId;
    use fjs_core::service::{Decision, SessionError, SessionSnapshot, TenantShedCause};
    use fjs_core::supervise::Verdict;
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
    pub fn job_terminal(sid: &str, v: &Verdict) -> String {
        format!("err job {sid} verdict={}: session is terminal", v.label())
    }
    pub fn job_poisoned(sid: &str, v: &Verdict) -> String {
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
    pub fn stats_ok(sid: &str, s: &SessionSnapshot) -> String {
        format!(
            "ok stats {sid} span={} pending={} running={} retained={} peak-retained={} \
             events={}",
            s.span, s.pending, s.running, s.retained, s.peak_retained, s.events_total
        )
    }
    pub fn decision_line(sid: &str, d: &Decision) -> String {
        format!("{sid} {d}")
    }
    pub fn close_line(sid: &str, span: Dur, verdict_label: &str) -> String {
        format!("{sid} close span={span} verdict={verdict_label}")
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

/// Outcome of an in-process [`run_script`] call.
pub struct ScriptOutcome {
    /// One reply per non-blank request line, in order.
    pub replies: Vec<String>,
    /// The decision log, as written.
    pub log: String,
    /// Final accounting.
    pub summary: ServeSummary,
}

/// Runs a protocol script through an in-memory server at one worker —
/// the reference the benches and the worker-count tests compare against
/// (no files, no sockets, no journal; `opts.workers` is ignored).
pub fn run_script(script: &str, opts: ServeOptions) -> Result<ScriptOutcome, String> {
    run_script_pooled(script, ServeOptions { workers: 1, ..opts })
}

/// Like [`run_script`] at `opts.workers` workers, with every line of the
/// script in flight as soon as the dispatch window allows. Every line but
/// the last has input waiting behind it.
pub fn run_script_pooled(script: &str, opts: ServeOptions) -> Result<ScriptOutcome, String> {
    let mut server = Server::new(opts, Sink::Mem(Vec::new()), None);
    let mut out: Vec<(u64, String)> = Vec::new();
    let mut offset = 0u64;
    let mut lines = script.split_inclusive('\n').peekable();
    while let Some(line) = lines.next() {
        server.submit(0, offset, line, lines.peek().is_some(), &mut out)?;
        offset += line.len() as u64;
        if server.halted() {
            break;
        }
    }
    server.settle(&mut out);
    let replies = out.into_iter().map(|(_, reply)| reply).collect();
    let (summary, log) = server.finish()?;
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

    /// Journaled requests were admitted under the caps of the run that
    /// wrote them, so replay must not re-decide admission: a daemon
    /// resumed under caps of one session still rebuilds all three.
    #[test]
    fn replay_does_not_re_decide_admission() {
        let dir = std::env::temp_dir().join(format!(
            "fjs-replay-admission-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("serve.journal");
        let script = "open t.a eager\n\
                      open t.b lazy\n\
                      open t.c batch\n\
                      job t.a 0,0,2\n\
                      job t.b 0,4,1\n\
                      job t.c 0,3,1\n\
                      job t.a 1,3,1\n\
                      job t.b 2,6,2\n\
                      job t.c 1,5,2\n\
                      close t.a\n\
                      close t.b\n\
                      close t.c\n";
        let journal = fjs_core::service::ServeJournal::create(&journal_path)
            .unwrap()
            .with_sync_every(1);
        let mut live = Server::new(
            ServeOptions::default(),
            Sink::Mem(Vec::new()),
            Some(journal),
        );
        let mut offset = 0u64;
        for line in script.split_inclusive('\n') {
            assert!(live.handle_line(offset, line).unwrap().starts_with("ok "));
            offset += line.len() as u64;
        }
        let (_, sink) = live.finish().unwrap();
        let reference = String::from_utf8(sink.mem().unwrap().to_vec()).unwrap();

        let events = fjs_core::service::ServeJournal::load(&journal_path).unwrap();
        assert_eq!(events.len(), 12, "every request was journaled");
        let capped = ServeOptions {
            max_sessions: 1,
            tenant_max_sessions: 1,
            ..ServeOptions::default()
        };
        let mut resumed = Server::new(capped, Sink::Mem(Vec::new()), None);
        resumed.resume(&events).unwrap();
        let (_, sink) = resumed.finish().unwrap();
        let replayed = String::from_utf8(sink.mem().unwrap().to_vec()).unwrap();
        assert_eq!(replayed, reference);
        std::fs::remove_dir_all(&dir).unwrap();
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
