//! `fjs loadgen` — a seeded load generator for the `fjs serve` daemon.
//!
//! Two modes share one deterministic workload model (open-loop
//! Poisson-ish arrivals from [`fjs_prng::SmallRng`]):
//!
//! - **emit** — write the protocol script to a file, so serve runs,
//!   kill/resume comparisons and benches all consume byte-identical
//!   input for a given seed.
//! - **drive** — connect to a running daemon (unix socket or TCP), send
//!   the same script, and report reply-latency percentiles plus a
//!   log-bucketed latency histogram in the benchjson schema (`fjs
//!   bench-diff` can gate the percentiles).
//!
//! Drive mode paces requests one of two ways. **Open loop** (the
//! default) sends against the wall clock at `--rate` requests per second
//! regardless of replies, measuring the latency the daemon imposes under
//! a fixed offered load. **Closed loop** (`--concurrency K`) spawns `K`
//! client threads, each with its own connection driving the sessions
//! `s % K == c`; every thread sends one request and blocks for its reply
//! before sending the next, so the offered load adapts to service speed
//! and per-request latency is measured without coordinated-omission
//! artifacts from a lagging send schedule.

use std::io::{BufRead, BufReader, Read, Write};
use std::time::{Duration, Instant};

use fjs_analysis::benchjson::{BenchReport, BenchSample};
use fjs_prng::SmallRng;

/// Workload shape shared by both modes.
#[derive(Clone, Debug)]
pub struct LoadgenOptions {
    /// Concurrent sessions (jobs are dealt round-robin).
    pub sessions: usize,
    /// Total jobs across all sessions.
    pub jobs: usize,
    /// Target arrival rate in jobs per unit of simulated time (emit) and
    /// requests per wall-clock second (drive).
    pub rate: f64,
    /// PRNG seed; same seed ⇒ byte-identical script.
    pub seed: u64,
    /// Scheduler spec for every `open` line.
    pub scheduler: String,
    /// Mean job length (lengths are uniform in `(0, 2·mean]`).
    pub mean_length: f64,
    /// Laxity factor: slack is uniform in `[0, laxity · length]`.
    pub laxity: f64,
    /// Session-id prefix: sessions are named `<prefix>0`, `<prefix>1`, …
    /// The default `"s"` keeps scripts byte-identical to older releases;
    /// the fuzz harness uses dotted prefixes (`x3.r0s`) to pin its
    /// traffic to a tenant.
    pub sid_prefix: String,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            sessions: 4,
            jobs: 1000,
            rate: 100.0,
            seed: 0x5eed_10ad,
            scheduler: "eager".into(),
            mean_length: 1.0,
            laxity: 2.0,
            sid_prefix: "s".into(),
        }
    }
}

/// Renders the deterministic protocol script: `open` lines for every
/// session, `job` lines with exponential inter-arrival gaps dealt
/// round-robin, then `close` lines. Arrivals are globally non-decreasing,
/// so every session accepts its stream.
pub fn emit_script(opts: &LoadgenOptions) -> String {
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let sessions = opts.sessions.max(1);
    let rate = if opts.rate > 0.0 { opts.rate } else { 100.0 };
    let mut out = String::new();
    out.push_str("# fjs loadgen script\n");
    let p = opts.sid_prefix.as_str();
    for s in 0..sessions {
        out.push_str(&format!("open {p}{s} {}\n", opts.scheduler));
    }
    let mut now = 0.0f64;
    for i in 0..opts.jobs {
        // Exponential gap with mean 1/rate; 1 - u is in (0, 1] so the log
        // is finite.
        let u = rng.f64_unit();
        now += -(1.0 - u).ln() / rate;
        let length = (opts.mean_length * 2.0 * rng.f64_unit()).max(opts.mean_length * 1e-3);
        let slack = opts.laxity * length * rng.f64_unit();
        let arrival = round6(now);
        let length = round6(length).max(1e-6);
        let deadline = round6(now + slack).max(arrival);
        out.push_str(&format!(
            "job {p}{} {arrival},{deadline},{length}\n",
            i % sessions
        ));
    }
    for s in 0..sessions {
        out.push_str(&format!("close {p}{s}\n"));
    }
    out
}

/// Rounds to 6 decimals so script lines stay short; the rounding is part
/// of the deterministic contract (same seed ⇒ same bytes).
fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// Number of power-of-two latency buckets. Bucket `i` covers latencies
/// in `(2^(i-1)µs, 2^i µs]` (bucket 0 is everything ≤ 1µs); 40 buckets
/// reach past 6 days, so the top bucket never saturates in practice.
const HIST_BUCKETS: usize = 40;

/// Log-bucketed reply-latency histogram with power-of-two bounds
/// starting at 1µs.
#[derive(Clone, Debug, Default)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
}

impl LatencyHistogram {
    /// Builds the histogram from raw latencies (order irrelevant).
    pub fn from_latencies(latencies: &[f64]) -> Self {
        let mut counts = vec![0u64; HIST_BUCKETS];
        for &lat in latencies {
            counts[Self::bucket(lat)] += 1;
        }
        LatencyHistogram { counts }
    }

    /// Bucket index for a latency in seconds. Non-finite or sub-µs
    /// values land in bucket 0.
    fn bucket(lat_s: f64) -> usize {
        let ratio = lat_s / 1e-6;
        if ratio.is_nan() || ratio <= 1.0 {
            return 0;
        }
        (ratio.log2().ceil() as usize).min(HIST_BUCKETS - 1)
    }

    /// Upper bound of bucket `i` in seconds.
    fn upper_bound_s(i: usize) -> f64 {
        1e-6 * (1u64 << i) as f64
    }

    /// Non-empty buckets as `(upper_bound_seconds, count)` pairs in
    /// ascending bound order.
    pub fn nonzero(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::upper_bound_s(i), c))
    }
}

impl std::fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (bound, count) in self.nonzero() {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "le{}:{count}", human_bound(bound))?;
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

/// Renders a bucket bound compactly (`2us`, `512us`, `4ms`, `2s`, …).
fn human_bound(bound_s: f64) -> String {
    if bound_s < 1e-3 {
        format!("{:.0}us", bound_s * 1e6)
    } else if bound_s < 1.0 {
        format!("{:.0}ms", bound_s * 1e3)
    } else {
        format!("{:.0}s", bound_s)
    }
}

/// Reply-latency report from a drive run.
#[derive(Clone, Debug)]
pub struct DriveReport {
    /// Request lines sent.
    pub sent: usize,
    /// Replies received.
    pub replies: usize,
    /// Replies that were `busy` sheds.
    pub busy: usize,
    /// Replies that were `err`.
    pub errs: usize,
    /// Wall-clock seconds for the whole run (closed loop: the slowest
    /// client thread).
    pub elapsed_s: f64,
    /// Achieved request rate (sent / elapsed).
    pub achieved_rate: f64,
    /// Latency percentiles in seconds (p50, p90, p99).
    pub p50_s: f64,
    /// 90th percentile reply latency in seconds.
    pub p90_s: f64,
    /// 99th percentile reply latency in seconds.
    pub p99_s: f64,
    /// Log-bucketed latency histogram across all replies.
    pub hist: LatencyHistogram,
}

impl DriveReport {
    /// Renders the report as benchjson: one case per percentile (which
    /// `fjs bench-diff` can gate) plus one `serve-latency/hist/le_*`
    /// case per non-empty histogram bucket, carrying the bucket count in
    /// `samples` and the bound in the value fields. Empty buckets are
    /// omitted — the schema requires positive sample counts, and padding
    /// with zeros would bloat every report with ~40 dead cases.
    pub fn to_benchjson(&self, git: &str) -> String {
        let mut report = BenchReport::new(git);
        for (name, v) in [
            ("serve-latency/p50", self.p50_s),
            ("serve-latency/p90", self.p90_s),
            ("serve-latency/p99", self.p99_s),
        ] {
            report.upsert(BenchSample {
                name: name.into(),
                median_s: v,
                min_s: v,
                mean_s: v,
                iters: 1,
                samples: self.replies.max(1),
            });
        }
        for (bound, count) in self.hist.nonzero() {
            report.upsert(BenchSample {
                name: format!("serve-latency/hist/le_{}", human_bound(bound)),
                median_s: bound,
                min_s: bound,
                mean_s: bound,
                iters: 1,
                samples: count as usize,
            });
        }
        report.to_json()
    }
}

impl std::fmt::Display for DriveReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "loadgen: sent {} requests in {:.3}s ({:.1} req/s), {} replies \
             ({} busy, {} err)",
            self.sent, self.elapsed_s, self.achieved_rate, self.replies, self.busy, self.errs
        )?;
        writeln!(
            f,
            "loadgen: reply latency p50={:.6}s p90={:.6}s p99={:.6}s",
            self.p50_s, self.p90_s, self.p99_s
        )?;
        write!(f, "loadgen: latency histogram {}", self.hist)
    }
}

/// Nearest-rank percentile: the smallest element with at least `p` of
/// the sample at or below it (`idx = ⌈p·n⌉`, 1-based). `sorted` must be
/// ascending; use [`f64::total_cmp`] to sort so NaNs (which a broken
/// clock could in principle produce) order deterministically instead of
/// making the comparator panic or scrambling the order.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Where a drive run connects.
#[derive(Clone, Debug)]
pub enum DriveTarget {
    /// A unix-domain socket path (`fjs serve --socket`).
    #[cfg(unix)]
    Unix(std::path::PathBuf),
    /// A TCP address like `127.0.0.1:7070` (`fjs serve --tcp`).
    Tcp(String),
}

/// One direction of a connected drive stream.
pub(crate) type HalfStream = (Box<dyn Read + Send>, Box<dyn Write + Send>);

impl DriveTarget {
    /// Opens one connection and splits it into a reader/writer pair.
    pub(crate) fn connect(&self) -> Result<HalfStream, String> {
        self.connect_inner(None)
    }

    /// Connects with a read timeout on the reader half. The fuzz harness
    /// drains replies until the daemon goes quiet; without a timeout a
    /// daemon that (correctly) keeps the connection open would block the
    /// drain forever.
    pub(crate) fn connect_timeout(&self, read_timeout: Duration) -> Result<HalfStream, String> {
        self.connect_inner(Some(read_timeout))
    }

    fn connect_inner(&self, read_timeout: Option<Duration>) -> Result<HalfStream, String> {
        match self {
            #[cfg(unix)]
            DriveTarget::Unix(path) => {
                let s = std::os::unix::net::UnixStream::connect(path)
                    .map_err(|e| format!("connecting {}: {e}", path.display()))?;
                s.set_read_timeout(read_timeout)
                    .map_err(|e| format!("socket: {e}"))?;
                let r = s.try_clone().map_err(|e| format!("socket: {e}"))?;
                Ok((Box::new(r), Box::new(s)))
            }
            DriveTarget::Tcp(addr) => {
                let s = std::net::TcpStream::connect(addr)
                    .map_err(|e| format!("connecting {addr}: {e}"))?;
                // Closed-loop clients alternate tiny writes and reads;
                // Nagle + delayed ACK would serialize them at ~25ms each.
                let _ = s.set_nodelay(true);
                s.set_read_timeout(read_timeout)
                    .map_err(|e| format!("socket: {e}"))?;
                let r = s.try_clone().map_err(|e| format!("socket: {e}"))?;
                Ok((Box::new(r), Box::new(s)))
            }
        }
    }
}

impl std::fmt::Display for DriveTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            #[cfg(unix)]
            DriveTarget::Unix(path) => write!(f, "{}", path.display()),
            DriveTarget::Tcp(addr) => write!(f, "tcp {addr}"),
        }
    }
}

/// What a reply line was, classified by its first word.
enum ReplyClass {
    Ok,
    Busy,
    Err,
}

fn classify(line: &str) -> ReplyClass {
    if line.starts_with("busy") {
        ReplyClass::Busy
    } else if line.starts_with("err") {
        ReplyClass::Err
    } else {
        ReplyClass::Ok
    }
}

/// Non-comment, non-blank request lines of the script for `opts`.
fn request_lines(opts: &LoadgenOptions) -> Vec<String> {
    emit_script(opts)
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .map(str::to_owned)
        .collect()
}

fn build_report(sent: usize, outcomes: &[(f64, ReplyClass)], elapsed_s: f64) -> DriveReport {
    let busy = outcomes
        .iter()
        .filter(|(_, c)| matches!(c, ReplyClass::Busy))
        .count();
    let errs = outcomes
        .iter()
        .filter(|(_, c)| matches!(c, ReplyClass::Err))
        .count();
    let mut latencies: Vec<f64> = outcomes.iter().map(|(l, _)| *l).collect();
    latencies.sort_by(f64::total_cmp);
    DriveReport {
        sent,
        replies: outcomes.len(),
        busy,
        errs,
        elapsed_s,
        achieved_rate: if elapsed_s > 0.0 {
            sent as f64 / elapsed_s
        } else {
            0.0
        },
        p50_s: percentile(&latencies, 0.50),
        p90_s: percentile(&latencies, 0.90),
        p99_s: percentile(&latencies, 0.99),
        hist: LatencyHistogram::from_latencies(&latencies),
    }
}

/// Drives a running daemon. `concurrency <= 1` runs the open loop on one
/// connection; `concurrency >= 2` runs the closed loop with that many
/// client threads (see the module docs for the difference).
pub fn drive(
    target: &DriveTarget,
    opts: &LoadgenOptions,
    concurrency: usize,
) -> Result<DriveReport, String> {
    if concurrency <= 1 {
        drive_open_loop(target, opts)
    } else {
        drive_closed_loop(target, opts, concurrency)
    }
}

/// Sends the script's request lines open-loop at `opts.rate` requests
/// per wall-clock second (comment lines are skipped) and measures
/// per-reply latency.
///
/// The protocol replies exactly once per request line in connection
/// order, so the k-th reply is matched with the k-th send time.
fn drive_open_loop(target: &DriveTarget, opts: &LoadgenOptions) -> Result<DriveReport, String> {
    use std::time::Duration;

    let requests = request_lines(opts);
    let (reader, mut writer) = target.connect()?;

    let total = requests.len();
    let reader_handle =
        std::thread::spawn(move || -> Result<Vec<(Instant, ReplyClass)>, String> {
            let mut replies = Vec::with_capacity(total);
            let mut lines = BufReader::new(reader).lines();
            while replies.len() < total {
                match lines.next() {
                    Some(Ok(line)) => replies.push((Instant::now(), classify(&line))),
                    Some(Err(e)) => return Err(format!("socket read: {e}")),
                    None => break,
                }
            }
            Ok(replies)
        });

    let gap_s = if opts.rate > 0.0 {
        1.0 / opts.rate
    } else {
        0.0
    };
    let start = Instant::now();
    let mut send_times = Vec::with_capacity(total);
    for (i, line) in requests.iter().enumerate() {
        // Open loop: pace against the schedule, not the replies.
        let due = start + Duration::from_secs_f64(gap_s * i as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        send_times.push(Instant::now());
        writeln!(writer, "{line}").map_err(|e| format!("socket write: {e}"))?;
    }
    writer.flush().map_err(|e| format!("socket write: {e}"))?;

    let replies = reader_handle
        .join()
        .map_err(|_| "reader thread panicked".to_string())??;
    let elapsed_s = start.elapsed().as_secs_f64();

    let outcomes: Vec<(f64, ReplyClass)> = replies
        .into_iter()
        .zip(send_times.iter())
        .map(|((r, c), s)| (r.duration_since(*s).as_secs_f64(), c))
        .collect();
    Ok(build_report(send_times.len(), &outcomes, elapsed_s))
}

/// Closed-loop drive: `concurrency` client threads, each with its own
/// connection, each owning the sessions `s % concurrency == c` and
/// sending that subset of the script strictly send→await-reply. Latency
/// samples from all threads are merged; elapsed time is the slowest
/// thread's, since the run is not over until every client drains.
fn drive_closed_loop(
    target: &DriveTarget,
    opts: &LoadgenOptions,
    concurrency: usize,
) -> Result<DriveReport, String> {
    let requests = request_lines(opts);
    let sessions = opts.sessions.max(1);
    let k = concurrency.min(sessions).max(1);

    // Deal each line to the thread owning its session. Lines keep their
    // script-relative order within a thread, so opens precede jobs and
    // per-session arrival monotonicity is preserved.
    let mut decks: Vec<Vec<String>> = vec![Vec::new(); k];
    for line in requests {
        let sid = line
            .split_whitespace()
            .nth(1)
            .ok_or_else(|| format!("loadgen: malformed script line '{line}'"))?;
        // Session ids are "<prefix><N>"; recover N to deal by `N % k`.
        let n: usize = sid
            .strip_prefix(opts.sid_prefix.as_str())
            .and_then(|d| d.parse().ok())
            .ok_or_else(|| format!("loadgen: unexpected session id '{sid}'"))?;
        decks[n % k].push(line);
    }

    struct ThreadOut {
        sent: usize,
        outcomes: Vec<(f64, ReplyClass)>,
        elapsed_s: f64,
    }

    let mut handles = Vec::with_capacity(k);
    for deck in decks {
        let target = target.clone();
        handles.push(std::thread::spawn(move || -> Result<ThreadOut, String> {
            let (reader, mut writer) = target.connect()?;
            let mut lines = BufReader::new(reader).lines();
            let mut outcomes = Vec::with_capacity(deck.len());
            let start = Instant::now();
            let mut sent = 0usize;
            for line in &deck {
                let sent_at = Instant::now();
                writeln!(writer, "{line}").map_err(|e| format!("socket write: {e}"))?;
                writer.flush().map_err(|e| format!("socket write: {e}"))?;
                sent += 1;
                match lines.next() {
                    Some(Ok(reply)) => {
                        outcomes.push((sent_at.elapsed().as_secs_f64(), classify(&reply)))
                    }
                    Some(Err(e)) => return Err(format!("socket read: {e}")),
                    None => break,
                }
            }
            Ok(ThreadOut {
                sent,
                outcomes,
                elapsed_s: start.elapsed().as_secs_f64(),
            })
        }));
    }

    let mut sent = 0usize;
    let mut outcomes = Vec::new();
    let mut elapsed_s = 0.0f64;
    for h in handles {
        let out = h
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        sent += out.sent;
        outcomes.extend(out.outcomes);
        elapsed_s = elapsed_s.max(out.elapsed_s);
    }
    Ok(build_report(sent, &outcomes, elapsed_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_is_deterministic_and_well_formed() {
        let opts = LoadgenOptions {
            sessions: 3,
            jobs: 50,
            ..LoadgenOptions::default()
        };
        let a = emit_script(&opts);
        let b = emit_script(&opts);
        assert_eq!(a, b, "same seed must emit byte-identical scripts");

        let mut opens = 0;
        let mut jobs = 0;
        let mut closes = 0;
        let mut last_arrival = f64::NEG_INFINITY;
        for line in a.lines() {
            if line.starts_with('#') {
                continue;
            }
            let req = crate::serve::protocol::parse_request(line)
                .unwrap_or_else(|e| panic!("bad emitted line '{line}': {e}"))
                .unwrap_or_else(|| panic!("emitted blank request '{line}'"));
            match req {
                crate::serve::protocol::Request::Open { .. } => opens += 1,
                crate::serve::protocol::Request::Job { arrival, .. } => {
                    jobs += 1;
                    assert!(arrival >= last_arrival, "arrivals must be non-decreasing");
                    last_arrival = arrival;
                }
                crate::serve::protocol::Request::Close { .. } => closes += 1,
                crate::serve::protocol::Request::Stats { .. }
                | crate::serve::protocol::Request::StatsDaemon => panic!("unexpected stats"),
            }
        }
        assert_eq!((opens, jobs, closes), (3, 50, 3));
    }

    #[test]
    fn different_seeds_differ() {
        let a = emit_script(&LoadgenOptions::default());
        let b = emit_script(&LoadgenOptions {
            seed: 7,
            ..LoadgenOptions::default()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn percentiles_pick_order_statistics() {
        let xs = [0.1, 0.2, 0.3, 0.4, 1.0];
        assert_eq!(percentile(&xs, 0.5), 0.3);
        assert_eq!(percentile(&xs, 0.99), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentiles_use_nearest_rank_not_rounded_index() {
        // Nearest rank: p50 of 4 samples is the 2nd order statistic
        // (⌈0.5·4⌉ = 2). The old round((n-1)·p) indexing picked the 3rd.
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.5), 2.0);
        assert_eq!(percentile(&xs, 0.25), 1.0);
        assert_eq!(percentile(&xs, 0.75), 3.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        // p→0 clamps to the minimum, never index -1.
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // 200 samples: p99 is the 198th order statistic (⌈0.99·200⌉).
        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), 198.0);
        assert_eq!(percentile(&many, 0.5), 100.0);
    }

    #[test]
    fn latency_sort_is_nan_safe() {
        // total_cmp orders NaN after +inf instead of panicking or
        // leaving the slice scrambled like partial_cmp fallbacks do.
        let mut xs = [0.3, f64::NAN, 0.1, 0.2];
        xs.sort_by(f64::total_cmp);
        assert_eq!(&xs[..3], &[0.1, 0.2, 0.3]);
        assert!(xs[3].is_nan());
        assert_eq!(percentile(&xs, 0.5), 0.2);
    }

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let hist = LatencyHistogram::from_latencies(&[0.5e-6, 1e-6, 1.5e-6, 3e-6, 3.5e-6, 0.01]);
        let buckets: Vec<(f64, u64)> = hist.nonzero().collect();
        // ≤1µs: 0.5µs and 1µs; ≤2µs: 1.5µs; ≤4µs: 3µs and 3.5µs;
        // 0.01s = 10000µs → ≤2^14µs = 16384µs.
        assert_eq!(
            buckets,
            vec![(1e-6, 2), (2e-6, 1), (4e-6, 2), (16384e-6, 1)]
        );
        let rendered = hist.to_string();
        assert_eq!(rendered, "le1us:2 le2us:1 le4us:2 le16ms:1");
    }

    #[test]
    fn drive_report_renders_benchjson() {
        let report = DriveReport {
            sent: 10,
            replies: 10,
            busy: 0,
            errs: 0,
            elapsed_s: 1.0,
            achieved_rate: 10.0,
            p50_s: 0.001,
            p90_s: 0.002,
            p99_s: 0.003,
            hist: LatencyHistogram::from_latencies(&[0.001; 10]),
        };
        let json = report.to_benchjson("test");
        let parsed = BenchReport::parse(&json).expect("benchjson roundtrip");
        assert!(parsed.case("serve-latency/p50").is_some());
        assert!(parsed.case("serve-latency/p99").is_some());
        // 0.001s = 1000µs buckets into ≤1024µs; empty buckets are absent.
        assert!(parsed.case("serve-latency/hist/le_1ms").is_some());
        assert!(parsed.case("serve-latency/hist/le_1us").is_none());
    }
}
