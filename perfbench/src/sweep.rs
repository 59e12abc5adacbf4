//! The conformance-sweep layers, driven in process by the traced
//! `serve-w1` run.
//!
//! A sweep is `run_conformance(all_targets(), main deck, 3000 cases)`
//! after `fjs_opt::cache::reset()`, so every sweep pays the exact DP as a
//! fresh `fjs conform all` does. The exact DP, the oracles and the fixed
//! per-case cost of tiny engine runs dominate: the engine layer used the
//! opposite way to the large traces of [`crate::engine`]. The sweep
//! reports nothing per call, so the per-call times come from replaying
//! its cases one at a time through the public calls it makes (deck
//! generation, `exact_opt`, `check_all` per target), also from a cold
//! cache.

use std::time::Instant;

use fjs_core::job::Instance;
use fjs_core::time::Dur;
use fjs_opt::cache;
use fjs_prng::check::case_seed;
use fjs_testkit::{
    all_targets, check_all, exact_opt, row, run_conformance, ConformConfig, DeckKind, OracleKind,
};

use crate::stats::median;
use crate::trace::Tracer;
use crate::{cores, Ctx, Outcome};

const CASES: usize = 3000;
/// Cold sweeps at one shard per core; their CPU and wall times are
/// medians.
const SWEEPS: usize = 3;

/// User + system CPU seconds of this process, all threads included.
fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("stat: {e}"))?;
    let fields: Vec<&str> = stat[stat.rfind(')').ok_or("bad /proc/self/stat")? + 2..]
        .split(' ')
        .collect();
    // utime and stime are fields 14 and 15 of the full line, in clock
    // ticks of 1/100 s.
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => Ok((u + s) / 100.0),
        _ => Err("bad /proc/self/stat".into()),
    }
}

/// What one cold sweep took and checked.
struct Swept {
    wall_s: f64,
    cpu_s: f64,
    checks: usize,
    cache: cache::CacheStats,
}

/// One cold sweep. A report that is not clean is a failure of every case
/// it names.
fn cold_sweep(config: &ConformConfig, out: &mut Outcome) -> Result<Swept, String> {
    let targets = all_targets();
    cache::reset();
    let cpu0 = process_cpu_s()?;
    let t0 = Instant::now();
    let report = run_conformance(&targets, config);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s()? - cpu0;
    // Operations are oracle checks, so a violation is one failed check.
    out.attempted += report.checks as u64;
    for f in &report.failures {
        out.failed += f.occurrences as u64;
        out.problem(format!(
            "{} violates {} on {} seed {}: {}",
            f.target.name(),
            f.oracle.id(),
            f.family,
            f.seed,
            f.detail
        ));
    }
    Ok(Swept {
        wall_s,
        cpu_s,
        checks: report.checks,
        cache: cache::stats(),
    })
}

/// Replays the sweep's cases one at a time from a cold cache, one span
/// per call; returns the checks run and the exact-DP time per cache miss.
fn replay(seed: u64, tracer: &mut Tracer, out: &mut Outcome) -> (usize, f64) {
    let targets = all_targets();
    let deck = DeckKind::Main.deck();
    let ratio_possible = targets
        .iter()
        .any(|t| row(t).contains(&OracleKind::RatioBound));
    cache::reset();
    let (mut checks, mut dp_misses, mut dp_miss_us) = (0, 0u64, 0.0);
    for i in 0..CASES {
        let id = i as u64;
        let family = deck[i % deck.len()];
        let seed = case_seed(seed, i);
        let case = tracer.open_span("testkit.case", id);
        let inst: Instance = tracer.span("testkit.deck.generate", id, || family.generate(seed));
        let opt: Option<Dur> = if ratio_possible {
            let before = cache::stats().misses;
            let start = Instant::now();
            let opt = tracer.span("opt.exact_opt", id, || exact_opt(&inst));
            if cache::stats().misses > before {
                dp_misses += 1;
                dp_miss_us += start.elapsed().as_secs_f64() * 1e6;
            }
            opt
        } else {
            None
        };
        for target in &targets {
            let (n, violations) =
                tracer.span("testkit.check_all", id, || check_all(target, &inst, opt));
            checks += n;
            out.attempted += n as u64;
            out.failed += violations.len() as u64;
            for v in violations {
                out.problem(format!(
                    "{} violates {} on {} seed {seed}: {}",
                    target.name(),
                    v.oracle.id(),
                    family.label(),
                    v.detail
                ));
            }
        }
        tracer.close_span(case);
        for target in &targets {
            let o = tracer.span("sim.small_run", id, || target.run_on(&inst, false));
            std::hint::black_box(o);
        }
    }
    (checks, dp_miss_us / dp_misses.max(1) as f64)
}

/// Drives the sweep layers; reports only per-layer metrics.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let shards = cores();
    let config = ConformConfig {
        cases: CASES,
        deck: DeckKind::Main,
        base_seed: ctx.seed,
        quick: false,
        shards,
        ..ConformConfig::default()
    };
    let mut swept = Vec::with_capacity(SWEEPS);
    for _ in 0..SWEEPS {
        swept.push(cold_sweep(&config, &mut out)?);
    }
    let serial = cold_sweep(
        &ConformConfig {
            shards: 1,
            ..config
        },
        &mut out,
    )?;
    let checks = swept[0].checks;
    if swept.iter().chain([&serial]).any(|s| s.checks != checks) {
        out.problem("checks changed between sweeps of the same cases");
    }
    let c = swept[0].cache;
    out.set("opt.cache.hits", c.hits as f64);
    out.set("opt.cache.misses", c.misses as f64);
    out.set("opt.cache.hit_ratio", c.hit_rate());
    out.set("testkit.checks", checks as f64);
    let cpu = median(&swept.iter().map(|s| s.cpu_s).collect::<Vec<_>>());
    let wall = median(&swept.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    out.set("sweep.cpu_util", cpu / wall);
    out.set("sweep.cpu_s.shards1", serial.cpu_s);
    out.set("sweep.cpu_s.shards2", cpu);
    out.notes.push(format!(
        "sweep wall {wall:.3} s at {shards} shards vs {:.3} s at 1; cpu {cpu:.2} s vs {:.2} s",
        serial.wall_s, serial.cpu_s
    ));

    let (replayed, dp_us) = replay(ctx.seed, tracer, &mut out);
    if replayed != checks {
        out.problem(format!("replay ran {replayed} checks, the sweep {checks}"));
    }
    let times = tracer.layer_times();
    let mean = |n: &str| times.get(n).map(|l| l.mean_us()).unwrap_or(0.0);
    out.set("testkit.deck.generate_us", mean("testkit.deck.generate"));
    out.set("testkit.oracles_us", mean("testkit.check_all"));
    out.set("sim.small_run_us", mean("sim.small_run"));
    out.set("opt.dp_us_per_miss", dp_us);
    Ok(out)
}
