//! `serve-w1` / `serve-w2`: a real `fjs serve --socket` daemon under a
//! closed loop.
//!
//! Two client connections each keep exactly one request in flight: a
//! client sends its next line only after the previous reply arrived, as
//! the protocol's callers do (they wait for each `ok job` ack). Each
//! connection runs 8 concurrent sessions (16 in all) over a round-robin
//! mix of `eager`, `batch+`, `profit` and `cdb`. A session's job offers
//! are one `fjs loadgen` script ([`emit_script`] with the default
//! [`LoadgenOptions`] job model), with a `stats <sid>` read after every
//! 8th job; after its 48th job the session closes and a fresh sid opens
//! in its place. Sids belong to 8 tenants so that `--workers 2` puts
//! sessions on both workers.
//!
//! The timed phase is split over several daemon lifetimes: each starts a
//! fresh daemon, runs the closed loop for its share of the phase, stops
//! the daemon and checks it. An end-to-end figure is the fast quartile
//! ([`fast_quartile`]) over the lifetimes of the figure of each.
//!
//! The two workloads send byte-identical traffic for a seed; they differ
//! only in `--workers`, so their gap is the cost of the worker pool.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fjs_cli::loadgen::{emit_script, LoadgenOptions};
use fjs_cli::serve::protocol::{parse_request, Request};
use fjs_cli::serve::{run_script, run_script_pooled, ServeOptions, DEFAULT_MAX_PENDING};
use fjs_core::service::{
    stable_shard, tenant_of, JobOffer, PoolRequest, Session, SessionFactory, SessionPool,
    TenantQuotas,
};
use fjs_core::supervise::DEFAULT_WATCHDOG_EVENTS;
use fjs_core::time::{dur, t};
use fjs_prng::SmallRng;
use fjs_schedulers::SchedulerKind;

use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::{cpu_ticks, peak_rss_mb, Ctx, Outcome};

const CONNECTIONS: usize = 2;
const SESSIONS_PER_CONNECTION: usize = 8;
const JOBS_PER_SESSION: usize = 48;
const STATS_EVERY: usize = 8;
const SCHEDULERS: [&str; 4] = ["eager", "batch+", "profit", "cdb"];
const TENANTS: usize = 8;
/// Replies at or above this are "slow": the pooled dispatcher's 1 ms poll.
const SLOW_REPLY_US: f64 = 1000.0;
/// Length of one daemon lifetime; the untraced timed phase is split into
/// as many as fit, and at least [`MIN_LIFETIMES`].
const LIFETIME: Duration = Duration::from_millis(2250);
const MIN_LIFETIMES: usize = 4;
/// Longest wait for the daemon: start-up, one reply, or exit.
const DAEMON_WAIT: Duration = Duration::from_secs(20);
/// How often a starting client retries `connect` until the socket
/// exists: fine enough that the client's wait is not what `connect_ms`
/// measures.
const CONNECT_POLL: Duration = Duration::from_micros(50);
/// Start-up probes before each lifetime's own start-up.
const PROBES: usize = 2;
/// Figures come from the least stolen `1 / QUIET_SHARE` of the lifetimes.
const QUIET_SHARE: usize = 4;
/// Start-ups timed by the traced run for the set-up layers.
const TRACED_STARTUPS: usize = 16;
/// Requests replayed in process by the traced run's layer drives.
const REPLAY_CAP: usize = 60_000;
/// Untraced and traced session-layer drives compared for the tracing
/// overhead.
const OVERHEAD_REPS: usize = 3;

/// One session slot of a connection; a closed session's slot reopens
/// under a fresh sid.
struct Slot {
    tenant: usize,
    scheduler: &'static str,
    generation: u32,
    /// The current session's request lines, `open` to `close`.
    lines: Vec<String>,
    next: usize,
}

/// The request stream of one connection: a pure function of the seed.
pub struct Traffic {
    rng: SmallRng,
    slots: Vec<Slot>,
    next: usize,
    connection: usize,
}

impl Traffic {
    /// The stream of connection `connection` in daemon lifetime
    /// `lifetime`, for `seed`.
    pub fn new(seed: u64, lifetime: usize, connection: usize) -> Traffic {
        let slots = (0..SESSIONS_PER_CONNECTION)
            .map(|k| {
                let g = connection * SESSIONS_PER_CONNECTION + k;
                Slot {
                    tenant: g % TENANTS,
                    scheduler: SCHEDULERS[g % SCHEDULERS.len()],
                    generation: 0,
                    lines: Vec::new(),
                    next: 0,
                }
            })
            .collect();
        let stream = ((lifetime as u64) << 32) | (0x5EED_0000 + connection as u64);
        Traffic {
            rng: SmallRng::seed_from_u64(seed ^ stream),
            slots,
            next: 0,
            connection,
        }
    }

    /// Appends the next request line (with its newline) to `buf`.
    pub fn next_into(&mut self, buf: &mut String) {
        let k = self.next;
        self.next = (self.next + 1) % self.slots.len();
        let slot = &mut self.slots[k];
        if slot.next == slot.lines.len() {
            // The next session of this slot: one loadgen script of
            // JOBS_PER_SESSION jobs, with a stats read every STATS_EVERY.
            let prefix = format!(
                "t{}.c{}k{k}g{}s",
                slot.tenant, self.connection, slot.generation
            );
            let sid = format!("{prefix}0");
            let script = emit_script(&LoadgenOptions {
                sessions: 1,
                jobs: JOBS_PER_SESSION,
                seed: self.rng.next_u64(),
                scheduler: slot.scheduler.to_string(),
                sid_prefix: prefix,
                ..LoadgenOptions::default()
            });
            slot.lines.clear();
            slot.next = 0;
            slot.generation += 1;
            let mut jobs = 0;
            for line in script.lines().filter(|l| !l.starts_with('#')) {
                slot.lines.push(line.to_string());
                if line.starts_with("job ") {
                    jobs += 1;
                    if jobs % STATS_EVERY == 0 {
                        slot.lines.push(format!("stats {sid}"));
                    }
                }
            }
        }
        buf.push_str(&slot.lines[slot.next]);
        buf.push('\n');
        slot.next += 1;
    }
}

/// Everything one connection sent and received.
#[derive(Default)]
struct ConnLog {
    lines: String,
    replies: String,
    /// Send time of each request, from the phase start (s).
    sent_s: Vec<f64>,
    latency_us: Vec<f64>,
    ok: u64,
    busy: u64,
    err: u64,
}

#[derive(Clone, Copy)]
struct Startup {
    connect_ms: f64,
    first_reply_ms: f64,
    total_s: f64,
}

/// A child process that is killed and waited for if dropped while still
/// running, so no error path leaves a daemon behind.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// A daemon child plus its two client connections.
struct Daemon {
    child: Reaped,
    log: PathBuf,
    conns: Vec<UnixStream>,
    startup: Startup,
}

fn read_reply(stream: &UnixStream) -> Result<String, String> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .map_err(|e| format!("daemon reply: {e}"))?;
    if n == 0 {
        return Err("daemon closed the connection".into());
    }
    Ok(line)
}

impl Daemon {
    /// Spawns `fjs serve` and times spawn → connect → first `ok` reply on
    /// each connection (a bare `stats`, which touches no session).
    fn start(ctx: &Ctx, workers: usize, tag: &str) -> Result<Daemon, String> {
        let sock = ctx.run_dir.join(format!("{tag}.sock"));
        let log = ctx.run_dir.join(format!("{tag}.log"));
        let stderr = std::fs::File::create(ctx.run_dir.join(format!("{tag}.stderr")))
            .map_err(|e| format!("daemon stderr: {e}"))?;
        let t0 = Instant::now();
        let mut child = Reaped(
            Command::new(&ctx.fjs)
                .arg("serve")
                .arg("--socket")
                .arg(&sock)
                .arg("--workers")
                .arg(workers.to_string())
                .arg("--log")
                .arg(&log)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(stderr)
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", ctx.fjs.display()))?,
        );
        let first = loop {
            match UnixStream::connect(&sock) {
                Ok(s) => break s,
                Err(_) if t0.elapsed() < DAEMON_WAIT => {
                    if let Ok(Some(status)) = child.0.try_wait() {
                        return Err(format!("daemon exited during start-up: {status}"));
                    }
                    std::thread::sleep(CONNECT_POLL);
                }
                Err(e) => return Err(format!("daemon socket never accepted: {e}")),
            }
        };
        let t_connect = Instant::now();
        let mut conns = vec![first];
        for _ in 1..CONNECTIONS {
            conns.push(UnixStream::connect(&sock).map_err(|e| format!("connect: {e}"))?);
        }
        let mut t_first = None;
        for c in &mut conns {
            c.set_read_timeout(Some(DAEMON_WAIT))
                .map_err(|e| format!("socket: {e}"))?;
            c.write_all(b"stats\n").map_err(|e| format!("send: {e}"))?;
            let reply = read_reply(c)?;
            if !reply.starts_with("ok stats daemon") {
                return Err(format!("start-up probe got '{}'", reply.trim_end()));
            }
            t_first.get_or_insert_with(Instant::now);
        }
        let t_first = t_first.expect("at least one connection");
        let startup = Startup {
            connect_ms: (t_connect - t0).as_secs_f64() * 1e3,
            first_reply_ms: (t_first - t_connect).as_secs_f64() * 1e3,
            total_s: t0.elapsed().as_secs_f64(),
        };
        Ok(Daemon {
            child,
            log,
            conns,
            startup,
        })
    }

    /// Closes the connections, sends `SIGTERM` and waits for the graceful
    /// drain; a daemon that does not exit 0 is an error.
    fn stop(mut self) -> Result<(), String> {
        self.conns.clear();
        let pid = self.child.0.id().to_string();
        let sent = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .map_err(|e| format!("kill: {e}"))?;
        if !sent.success() {
            return Err(format!("kill -TERM {pid} failed"));
        }
        let t0 = Instant::now();
        loop {
            match self.child.0.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited {status} on SIGTERM")),
                Ok(None) if t0.elapsed() < DAEMON_WAIT => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not exit on SIGTERM".into()),
            }
        }
    }
}

/// One closed-loop phase: its start and each connection's log.
struct Phase {
    start: Instant,
    /// From the first send to the last reply.
    elapsed: Duration,
    logs: Vec<ConnLog>,
}

/// Runs the closed loop on every connection for `length`.
fn closed_loop(
    conns: &[UnixStream],
    traffic: &mut [Traffic],
    length: Duration,
) -> Result<Phase, String> {
    let start = Instant::now();
    let until = start + length;
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .zip(traffic.iter_mut())
            .map(|(conn, traffic)| {
                scope.spawn(move || -> Result<ConnLog, String> {
                    let mut log = ConnLog::default();
                    let mut writer = conn;
                    let mut reader = BufReader::new(conn);
                    while Instant::now() < until {
                        let from = log.lines.len();
                        traffic.next_into(&mut log.lines);
                        let at = log.replies.len();
                        let t0 = Instant::now();
                        writer
                            .write_all(&log.lines.as_bytes()[from..])
                            .map_err(|e| format!("send: {e}"))?;
                        let n = reader
                            .read_line(&mut log.replies)
                            .map_err(|e| format!("reply: {e}"))?;
                        let t1 = Instant::now();
                        if n == 0 {
                            return Err("daemon closed the connection".into());
                        }
                        log.sent_s.push((t0 - start).as_secs_f64());
                        log.latency_us.push((t1 - t0).as_secs_f64() * 1e6);
                        let reply = &log.replies[at..];
                        if reply.starts_with("ok ") {
                            log.ok += 1;
                        } else if reply.starts_with("busy ") {
                            log.busy += 1;
                        } else {
                            log.err += 1;
                        }
                    }
                    Ok(log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(Phase {
        start,
        elapsed: start.elapsed(),
        logs,
    })
}

/// End-to-end figures of one daemon lifetime, over all its samples.
struct Figures {
    throughput: f64,
    p50: f64,
    p99: f64,
    samples: usize,
    beyond: usize,
}

fn figures(phase: &Phase) -> Result<Figures, String> {
    let mut latency = latency_samples(&phase.logs);
    let ok: u64 = phase.logs.iter().map(|l| l.ok).sum();
    let p50 = latency.percentile(50.0)?.value;
    let p99 = latency.percentile(99.0)?;
    Ok(Figures {
        throughput: ok as f64 / phase.elapsed.as_secs_f64(),
        p50,
        p99: p99.value,
        samples: p99.samples,
        beyond: p99.beyond,
    })
}

fn latency_samples(logs: &[ConnLog]) -> Samples {
    let mut s = Samples::with_capacity(logs.iter().map(|l| l.latency_us.len()).sum());
    for log in logs {
        for &v in &log.latency_us {
            s.push(v);
        }
    }
    s
}

/// The session a request line addresses (its second token).
fn sid_of(line: &str) -> &str {
    line.split(' ').nth(1).unwrap_or_default()
}

/// Checks every session against an in-process replay of its own lines:
/// replies and decision-log lines must be byte-identical to
/// [`run_script`] on that session alone.
fn verify_sessions(logs: &[ConnLog], daemon_log: &str, out: &mut Outcome) {
    let mut scripts: BTreeMap<&str, (String, Vec<&str>)> = BTreeMap::new();
    for log in logs {
        for (line, reply) in log.lines.lines().zip(log.replies.lines()) {
            let entry = scripts.entry(sid_of(line)).or_default();
            entry.0.push_str(line);
            entry.0.push('\n');
            entry.1.push(reply);
        }
    }
    let mut logged: BTreeMap<&str, String> = BTreeMap::new();
    for line in daemon_log.lines() {
        let sid = line.split(' ').next().unwrap_or_default();
        let entry = logged.entry(sid).or_default();
        entry.push_str(line);
        entry.push('\n');
    }
    for sid in logged.keys() {
        if !scripts.contains_key(sid) {
            out.problem(format!("decision log names unknown session '{sid}'"));
        }
    }
    for (sid, (script, replies)) in &scripts {
        let alone = match run_script(script, ServeOptions::default()) {
            Ok(o) => o,
            Err(e) => {
                out.problem(format!("{sid}: in-process replay failed: {e}"));
                continue;
            }
        };
        let log_ok = logged.get(sid).map(String::as_str).unwrap_or_default() == alone.log;
        if alone.replies != *replies {
            out.problem(format!("{sid}: socket replies differ from the replay"));
        }
        if !log_ok {
            out.problem(format!("{sid}: decision-log lines differ from the replay"));
        }
        if alone.replies != *replies || !log_ok {
            // The session's `ok` replies were wrong answers: count them
            // failed too (non-`ok` replies are already counted).
            out.failed += replies.iter().filter(|r| r.starts_with("ok ")).count() as u64;
        }
    }
}

fn build_session(spec: &str) -> Result<Session, String> {
    let kind =
        SchedulerKind::from_short_name(spec).ok_or_else(|| format!("unknown scheduler {spec}"))?;
    Ok(Session::new(kind.build(), kind.information_model()).with_watchdog(DEFAULT_WATCHDOG_EVENTS))
}

fn offer_of(arrival: f64, deadline: f64, length: f64) -> JobOffer {
    JobOffer {
        arrival: t(arrival),
        deadline: t(deadline),
        length: dur(length),
    }
}

/// Drives the session layer directly over `script`, one span per call.
fn drive_sessions(script: &[&str], tracer: &mut Tracer) -> Result<(), String> {
    let mut sessions: BTreeMap<String, Session> = BTreeMap::new();
    for (i, line) in script.iter().enumerate() {
        let id = i as u64;
        let request = tracer.open_span("serve.direct.request", id);
        let parsed = tracer.span("serve.protocol.parse", id, || parse_request(line));
        let req = parsed?.ok_or("blank request line")?;
        match req {
            Request::Open { sid, spec } => {
                let s = tracer.span("service.session.open", id, || build_session(&spec))?;
                sessions.insert(sid, s);
            }
            Request::Job {
                sid,
                arrival,
                deadline,
                length,
            } => {
                let s = sessions.get_mut(&sid).ok_or("job for a closed session")?;
                let offer = offer_of(arrival, deadline, length);
                tracer
                    .span("service.session.offer", id, || s.offer(offer))
                    .map_err(|e| format!("{sid}: offer refused: {e}"))?;
                let d = tracer.span("service.session.drain", id, || s.take_decisions());
                std::hint::black_box(d);
            }
            Request::Stats { sid } => {
                let s = sessions.get(&sid).ok_or("stats for a closed session")?;
                let probe = tracer.span("service.session.stats", id, || {
                    (
                        s.span(),
                        s.num_pending(),
                        s.num_running(),
                        s.retained_records(),
                        s.stats().events_total,
                    )
                });
                std::hint::black_box(probe);
            }
            Request::Close { sid } => {
                let mut s = sessions.remove(&sid).ok_or("close for a closed session")?;
                let verdict = tracer.span("service.session.close", id, || s.close());
                let d = tracer.span("service.session.drain", id, || s.take_decisions());
                std::hint::black_box((verdict, d));
            }
            Request::StatsDaemon => {}
        }
        tracer.close_span(request);
    }
    Ok(())
}

/// Round trip of each request through a 2-worker [`SessionPool`] with one
/// request in flight; returns the per-request samples (µs).
fn drive_pool(script: &[&str], tracer: &mut Tracer) -> Result<Samples, String> {
    let factory: SessionFactory = Arc::new(build_session);
    let pool = SessionPool::new(2, DEFAULT_MAX_PENDING, TenantQuotas::off(), factory);
    let mut rtt = Samples::with_capacity(script.len());
    for (i, line) in script.iter().enumerate() {
        let req = match parse_request(line)?.ok_or("blank request line")? {
            Request::Open { sid, spec } => PoolRequest::Open { sid, spec },
            Request::Job {
                sid,
                arrival,
                deadline,
                length,
            } => PoolRequest::Offer {
                sid,
                offer: offer_of(arrival, deadline, length),
            },
            Request::Close { sid } => PoolRequest::Close { sid },
            Request::Stats { sid } => PoolRequest::Stats { sid },
            Request::StatsDaemon => continue,
        };
        let worker = stable_shard(tenant_of(sid_of(line)), pool.workers());
        let t0 = Instant::now();
        pool.submit(worker, i as u64, req)?;
        let (seq, reply) = pool
            .recv_timeout(DAEMON_WAIT)
            .ok_or("pool worker did not reply")?;
        let t1 = Instant::now();
        if seq != i as u64 {
            return Err(format!("pool replied to {seq}, expected {i}"));
        }
        std::hint::black_box(reply);
        tracer.record("service.pool.round_trip", i as u64, t0, t1);
        rtt.push((t1 - t0).as_secs_f64() * 1e6);
    }
    pool.shutdown();
    Ok(rtt)
}

/// The two connections' lines interleaved, capped at [`REPLAY_CAP`].
fn replay_script(logs: &[ConnLog]) -> Vec<&str> {
    let mut iters: Vec<_> = logs.iter().map(|l| l.lines.lines()).collect();
    let mut out = Vec::new();
    'outer: loop {
        let mut any = false;
        for it in &mut iters {
            if let Some(line) = it.next() {
                any = true;
                out.push(line);
                if out.len() == REPLAY_CAP {
                    break 'outer;
                }
            }
        }
        if !any {
            break;
        }
    }
    out
}

/// What the daemon of one lifetime was sent and answered.
struct Lifetime {
    phase: Phase,
    rss_mb: f64,
    /// Start-ups timed for this lifetime: its probes, then its own.
    startups: Vec<Startup>,
    /// Share of the machine's CPU time the host stole from the first
    /// start-up to the end of the closed loop.
    steal: f64,
}

/// Times `probes` start-ups of daemons that serve nothing but their
/// start-up probe, then starts a daemon, runs the closed loop on it for
/// `length`, stops it and checks every reply and decision-log line it
/// produced.
fn lifetime(
    ctx: &Ctx,
    workers: usize,
    index: usize,
    length: Duration,
    probes: usize,
    out: &mut Outcome,
) -> Result<Lifetime, String> {
    let (steal0, total0) = cpu_ticks()?;
    let mut startups = Vec::with_capacity(probes + 1);
    for p in 0..probes {
        let d = Daemon::start(ctx, workers, &format!("probe{index}-{p}"))?;
        startups.push(d.startup);
        d.stop()?;
    }
    let daemon = Daemon::start(ctx, workers, &format!("life{index}"))?;
    startups.push(daemon.startup);
    let mut traffic: Vec<Traffic> = (0..CONNECTIONS)
        .map(|c| Traffic::new(ctx.seed, index, c))
        .collect();
    let phase = closed_loop(&daemon.conns, &mut traffic, length)?;
    let (steal1, total1) = cpu_ticks()?;
    let steal = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    let rss_mb = peak_rss_mb(Some(daemon.child.0.id()))?;
    let log_path = daemon.log.clone();
    daemon.stop()?;
    for log in &phase.logs {
        out.attempted += log.ok + log.busy + log.err;
        out.failed += log.busy + log.err;
    }
    let log_text = std::fs::read_to_string(&log_path).map_err(|e| format!("daemon log: {e}"))?;
    verify_sessions(&phase.logs, &log_text, out);
    std::fs::remove_file(&log_path).map_err(|e| format!("daemon log: {e}"))?;
    Ok(Lifetime {
        phase,
        rss_mb,
        startups,
        steal,
    })
}

/// What the untraced run keeps of one lifetime.
struct Measured {
    figs: Figures,
    steal: f64,
    setup_s: Vec<f64>,
    rss_mb: f64,
}

/// Runs `serve-w1` (`workers == 1`) or `serve-w2`.
pub fn run(ctx: &Ctx, workers: usize, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if ctx.trace {
        traced(ctx, workers, tracer, &mut out)?;
        return Ok(out);
    }
    let phase = ctx.budget(1.0);
    let lifetimes =
        ((phase.as_secs_f64() / LIFETIME.as_secs_f64()).round() as usize).max(MIN_LIFETIMES);
    let length = phase / lifetimes as u32;
    let mut lives = Vec::with_capacity(lifetimes);
    for i in 0..lifetimes {
        let life = lifetime(ctx, workers, i, length, PROBES, &mut out)?;
        lives.push(Measured {
            figs: figures(&life.phase)?,
            steal: life.steal,
            setup_s: life.startups.iter().map(|s| s.total_s).collect(),
            rss_mb: life.rss_mb,
        });
    }
    let listed = |f: fn(&Figures) -> f64| {
        lives
            .iter()
            .map(|l| (f(&l.figs) * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    };
    out.notes.push(format!(
        "per lifetime: steal {:?}; throughput {:?}; p50 {:?}; p99 {:?}",
        lives
            .iter()
            .map(|l| (l.steal * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        listed(|f| f.throughput),
        listed(|f| f.p50),
        listed(|f| f.p99)
    ));
    let rss: Vec<f64> = lives.iter().map(|l| l.rss_mb).collect();
    out.set("peak_rss_mb", median(&rss));

    // Every other figure comes from the quarter of the lifetimes the host
    // disturbed least.
    lives.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    lives.truncate((lifetimes / QUIET_SHARE).max(1));
    let of = |f: fn(&Figures) -> f64| median(&lives.iter().map(|l| f(&l.figs)).collect::<Vec<_>>());
    out.set("throughput_per_s", of(|f| f.throughput));
    out.set("latency_p50_us", of(|f| f.p50));
    out.set("latency_p99_us", of(|f| f.p99));
    let setup_s: Vec<f64> = lives
        .iter()
        .flat_map(|l| l.setup_s.iter().copied())
        .collect();
    out.set("setup_s", median(&setup_s));
    let fewest = lives.iter().map(|l| &l.figs).min_by_key(|f| f.samples);
    let fewest = fewest.expect("a lifetime");
    out.notes.push(format!(
        "closed loop, {CONNECTIONS} connections x 1 in flight; medians over the {} least \
         stolen of {lifetimes} daemon lifetimes of {:.2} s (steal at most {:.3}), the smallest \
         with {} samples, {} beyond p99; setup: median of their {} start-ups",
        lives.len(),
        length.as_secs_f64(),
        lives.last().expect("a lifetime").steal,
        fewest.samples,
        fewest.beyond,
        setup_s.len()
    ));
    Ok(out)
}

/// The traced run: one daemon lifetime whose requests become
/// `serve.request` spans, more start-ups for the set-up layers, then the
/// in-process layer drives over the same traffic.
fn traced(ctx: &Ctx, workers: usize, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let life = lifetime(ctx, workers, 0, ctx.budget(0.2), 0, out)?;
    let mut startups = life.startups;
    while startups.len() < TRACED_STARTUPS {
        let d = Daemon::start(ctx, workers, &format!("probe{}", startups.len()))?;
        startups.push(d.startup);
        d.stop()?;
    }
    let connect: Vec<f64> = startups.iter().map(|s| s.connect_ms).collect();
    let first: Vec<f64> = startups.iter().map(|s| s.first_reply_ms).collect();
    out.set("serve.setup.connect_ms", median(&connect));
    out.set("serve.setup.first_reply_ms", median(&first));
    out.notes.push(format!(
        "setup: {} daemon start-ups: {:?} ms",
        startups.len(),
        startups
            .iter()
            .map(|s| (s.total_s * 1e4).round() / 10.0)
            .collect::<Vec<_>>()
    ));
    let logs = &life.phase.logs;
    let samples = latency_samples(logs);
    out.set(
        "serve.slow_reply_share",
        samples.share_at_least(SLOW_REPLY_US),
    );
    // Spans of the first requests only, as many as the layer drives replay.
    for (c, log) in logs.iter().enumerate() {
        let first = log
            .sent_s
            .iter()
            .zip(&log.latency_us)
            .take(REPLAY_CAP / CONNECTIONS);
        for (i, (&sent, &lat)) in first.enumerate() {
            let start = life.phase.start + Duration::from_secs_f64(sent);
            let end = start + Duration::from_secs_f64(lat / 1e6);
            tracer.record("serve.request", ((c as u64) << 40) | i as u64, start, end);
        }
    }
    let socket_mean_us = samples.mean();
    out.notes.push(format!(
        "socket round trip mean {socket_mean_us:.2} us over {} requests",
        samples.len()
    ));
    let (ok, busy, err) = logs
        .iter()
        .fold((0, 0, 0), |(o, b, e), l| (o + l.ok, b + l.busy, e + l.err));
    out.set("serve.replies.ok", ok as f64);
    out.set("serve.replies.busy", busy as f64);
    out.set("serve.replies.err", err as f64);
    let split = shard_split(logs);
    out.notes.push(format!(
        "sessions opened per worker at --workers 2: w0={} w1={}",
        split[0], split[1]
    ));
    out.set(
        "serve.shard.balance",
        split[0].min(split[1]) as f64 / split[0].max(split[1]).max(1) as f64,
    );
    layer_drives(ctx, workers, logs, socket_mean_us, tracer, out)
}

/// Sessions opened on each worker of a 2-worker pool.
fn shard_split(logs: &[ConnLog]) -> [u64; 2] {
    let mut split = [0u64; 2];
    for log in logs {
        for line in log.lines.lines().filter(|l| l.starts_with("open ")) {
            split[stable_shard(tenant_of(sid_of(line)), 2)] += 1;
        }
    }
    split
}

/// The traced run's in-process drives over the same traffic.
fn layer_drives(
    ctx: &Ctx,
    workers: usize,
    logs: &[ConnLog],
    socket_mean_us: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let script = replay_script(logs);
    let requests = script.len() as f64;
    let mut text = script.join("\n");
    text.push('\n');
    let opts = ServeOptions {
        workers,
        ..ServeOptions::default()
    };
    let budget = ctx.budget(0.1);
    let t0 = Instant::now();
    let mut per_req = Vec::new();
    let mut last = None;
    while per_req.is_empty() || t0.elapsed() < budget {
        let start = Instant::now();
        let o = tracer.span("serve.inproc.script", per_req.len() as u64, || {
            if workers == 1 {
                run_script(&text, opts.clone())
            } else {
                run_script_pooled(&text, opts.clone())
            }
        })?;
        per_req.push(start.elapsed().as_secs_f64() * 1e6 / requests);
        last = Some(o);
    }
    let inproc = median(&per_req);
    let o = last.expect("ran at least once");
    out.set("serve.inproc.per_req_us", inproc);
    out.set("serve.log_bytes_per_req", o.log.len() as f64 / requests);
    out.set(
        "serve.decisions_per_req",
        o.summary.decision_lines as f64 / requests,
    );
    out.set("serve.net.per_req_us", socket_mean_us - inproc);

    // Tracing overhead where spans are recorded: the session-layer drive,
    // which wraps every call in a span, timed untraced and traced in turn.
    // The first traced drive records into `tracer` for the layer figures.
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    for rep in 0..OVERHEAD_REPS {
        let t0 = Instant::now();
        drive_sessions(&script, &mut Tracer::new(false))?;
        plain.push(t0.elapsed().as_secs_f64());
        let mut fresh = Tracer::new(true);
        let into = if rep == 0 { &mut *tracer } else { &mut fresh };
        let t0 = Instant::now();
        drive_sessions(&script, into)?;
        spanned.push(t0.elapsed().as_secs_f64());
    }
    out.set(
        "trace.overhead_share",
        median(&spanned) / median(&plain) - 1.0,
    );
    let times = tracer.layer_times();
    let mean = |name: &str| times.get(name).map(|l| l.mean_us()).unwrap_or(0.0);
    let total = |name: &str| {
        times
            .get(name)
            .map(|l| l.total_ns as f64 / 1e3)
            .unwrap_or(0.0)
    };
    let parse = total("serve.protocol.parse") / requests;
    let session = [
        "service.session.open",
        "service.session.offer",
        "service.session.drain",
        "service.session.stats",
        "service.session.close",
    ]
    .iter()
    .map(|n| total(n))
    .sum::<f64>()
        / requests;
    out.set("serve.protocol.parse_us", mean("serve.protocol.parse"));
    out.set("service.session.offer_us", mean("service.session.offer"));
    out.set("service.session.drain_us", mean("service.session.drain"));
    out.set("service.session.close_us", mean("service.session.close"));

    let rtt = drive_pool(&script, tracer)?;
    let hop = rtt.mean() - session;
    out.set("service.pool.hop_us", hop);
    // At --workers 2 the script runner keeps many requests in flight, so
    // its pool cost is inside the residual rather than one hop each.
    out.set("serve.residual.per_req_us", inproc - parse - session);
    out.notes.push(format!(
        "in-process over {requests} requests: script {inproc:.3} us/req = parse {parse:.3} + \
         session {session:.3} + residual; pool round trip {:.3} us, 1 in flight",
        rtt.mean()
    ));
    Ok(())
}
