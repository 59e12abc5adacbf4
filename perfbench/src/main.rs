//! `fjs-perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.py` builds the `fjs` binary and this program from the checkout,
//! then runs this program from the checkout root. Workloads (see
//! NOTES.md for why):
//!
//! - `serve-w1` / `serve-w2`: a real `fjs serve --socket` daemon at
//!   `--workers 1` / `2`, driven by a closed loop over 2 connections
//!   ([`serve`]).
//!
//! The traced `serve-w1` run also drives the engine on large traces
//! ([`engine`]) and the conformance sweep with a cold optimum cache
//! ([`sweep`]), in process, for their per-layer metrics.
//!
//! With `--trace 0` the last stdout line is a JSON object carrying every
//! end-to-end metric; with `--trace 1` it carries every per-layer metric
//! (0 for a layer the workload's path does not reach). Lines before it
//! starting with `#` are notes (sample counts, splits). A failed
//! correctness check still prints the JSON line, with `"correct": false`,
//! and exits 1; a run that cannot measure at all exits 2 without it.

mod engine;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics: reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
];

/// Per-layer metrics: reported by every workload with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.inproc.per_req_us", "us"),
    ("serve.net.per_req_us", "us"),
    ("serve.protocol.parse_us", "us"),
    ("service.session.offer_us", "us"),
    ("service.session.drain_us", "us"),
    ("service.session.close_us", "us"),
    ("serve.residual.per_req_us", "us"),
    ("service.pool.hop_us", "us"),
    ("serve.slow_reply_share", "share"),
    ("serve.setup.connect_ms", "ms"),
    ("serve.setup.first_reply_ms", "ms"),
    ("serve.replies.ok", "count"),
    ("serve.replies.busy", "count"),
    ("serve.replies.err", "count"),
    ("serve.log_bytes_per_req", "bytes"),
    ("serve.decisions_per_req", "count"),
    ("serve.shard.balance", "share"),
    ("workloads.io.parse_trace_ms", "ms"),
    ("sim.run_ms.eager", "ms"),
    ("sim.run_ms.lazy", "ms"),
    ("sim.run_ms.batch", "ms"),
    ("sim.run_ms.batchplus", "ms"),
    ("sim.run_ms.cdb", "ms"),
    ("sim.run_ms.profit", "ms"),
    ("sim.run_ms.doubler", "ms"),
    ("sim.events.completion", "count"),
    ("sim.events.release", "count"),
    ("sim.events.ordered-start", "count"),
    ("sim.events.length-probe", "count"),
    ("sim.events.deadline-alarm", "count"),
    ("sim.events.wakeup", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.scheduler_share", "share"),
    ("sim.environment_share", "share"),
    ("sim.peak_queue", "count"),
    ("sim.peak_retained", "count"),
    ("sim.arena_slots", "count"),
    ("testkit.deck.generate_us", "us"),
    ("testkit.oracles_us", "us"),
    ("sim.small_run_us", "us"),
    ("opt.dp_us_per_miss", "us"),
    ("opt.cache.hits", "count"),
    ("opt.cache.misses", "count"),
    ("opt.cache.hit_ratio", "share"),
    ("sweep.cpu_util", "share"),
    ("sweep.cpu_s.shards1", "s"),
    ("sweep.cpu_s.shards2", "s"),
    ("testkit.checks", "count"),
    ("trace.overhead_share", "share"),
];

/// What one run is asked to do.
pub struct Ctx {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The `fjs` binary built from the checkout.
    pub fjs: PathBuf,
    /// Scratch directory for this run (sockets, logs, traces), relative to
    /// the checkout root so socket paths stay short.
    pub run_dir: PathBuf,
}

impl Ctx {
    /// A share of the timed phase.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (requests, scheduler runs, oracle checks).
    pub attempted: u64,
    /// Operations that failed (non-`ok` replies, infeasible runs, oracle
    /// violations).
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }
}

/// `VmHWM` (peak resident set) of a process in MiB; `None` reads this
/// process.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// Machine-wide CPU time from `/proc/stat`, in clock ticks: `(steal,
/// total)`. Steal is time the host ran something else while one of this
/// machine's virtual CPUs wanted to run.
pub fn cpu_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("/proc/stat: no cpu line")?
        .split_whitespace()
        .map(|v| v.parse().map_err(|e| format!("/proc/stat: {e}")))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    Ok((fields.get(7).copied().unwrap_or(0), total))
}

/// Cores this process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fjs: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut get = BTreeMap::new();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        get.insert(flag, value);
    }
    let mut take = |flag: &str| get.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let args = Args {
        workload: take("--workload")?,
        seed: take("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: '{other}' is not 0 or 1")),
        },
        fjs: PathBuf::from(take("--fjs")?),
    };
    if let Some(flag) = get.keys().next() {
        return Err(format!("unexpected argument {flag}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of `list` in order.
fn result_line(out: &Outcome, list: &[(&str, &str)], fill_missing: bool) -> Result<String, String> {
    for name in out.metrics.keys() {
        if !list.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not in this run's metric list"));
        }
    }
    let mut metrics = Vec::with_capacity(list.len());
    for (name, unit) in list {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if fill_missing => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

/// The traced `serve-w1` run also drives the engine and sweep layers;
/// where two drives report the same metric, the first (serve, then
/// engine) is kept.
fn serve_w1_traced(ctx: &Ctx, tracer: &mut trace::Tracer) -> Result<Outcome, String> {
    let mut out = serve::run(ctx, 1, tracer)?;
    for more in [engine::run(ctx, tracer)?, sweep::run(ctx, tracer)?] {
        out.attempted += more.attempted;
        out.failed += more.failed;
        out.problems.extend(more.problems);
        out.notes.extend(more.notes);
        for (name, value) in more.metrics {
            out.metrics.entry(name).or_insert(value);
        }
    }
    Ok(out)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if !args.fjs.is_file() {
        return Err(format!("fjs binary {} not found", args.fjs.display()));
    }
    let work = PathBuf::from(".bench_build/perfbench");
    let run_dir = work.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        fjs: args.fjs,
        run_dir,
    };
    let mut tracer = trace::Tracer::new(ctx.trace);
    let result = match args.workload.as_str() {
        "serve-w1" if ctx.trace => serve_w1_traced(&ctx, &mut tracer),
        "serve-w1" => serve::run(&ctx, 1, &mut tracer),
        "serve-w2" => serve::run(&ctx, 2, &mut tracer),
        other => Err(format!("unknown workload '{other}' (serve-w1, serve-w2)")),
    };
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    let out = result?;
    if tracer.is_on() {
        let path = work.join(format!("spans-{}.jsonl", args.workload));
        tracer
            .dump(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
        for (name, t) in tracer.layer_times() {
            println!(
                "# span {name}: {} spans, mean {:.3} us, self {:.3} us",
                t.count,
                t.mean_us(),
                t.mean_self_us()
            );
        }
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for p in out.problems.iter().take(20) {
        println!("# CHECK FAILED: {p}");
    }
    if out.problems.len() > 20 {
        println!("# ... and {} more failed checks", out.problems.len() - 20);
    }
    let line = if ctx.trace {
        result_line(&out, PER_LAYER, true)?
    } else {
        result_line(&out, END_TO_END, false)?
    };
    println!("{line}");
    Ok(out.problems.is_empty() && out.failed == 0)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json must name the same
    /// metrics with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"name\"").count(),
            END_TO_END.len() + PER_LAYER.len() + json.matches("\"why\"").count(),
            "BENCHMARK.json names metrics this program does not report"
        );
    }

    #[test]
    fn result_line_fills_only_per_layer_gaps() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.set("setup_s", 0.5);
        assert!(result_line(&out, END_TO_END, false).is_err());
        let line = result_line(&out, PER_LAYER, true);
        assert!(line.is_err(), "setup_s is not a per-layer metric");
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        out.set("sim.peak_queue", 12.0);
        let line = result_line(&out, PER_LAYER, true).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"sim.peak_queue\": {\"value\": 12, \"unit\": \"count\"}"));
    }
}
