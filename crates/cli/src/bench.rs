//! The `fjs bench` subcommand: the workspace's one timing suite, a table of
//! named cases over the hot path of every layer, emitted as a
//! [`fjs_analysis::benchjson`] schema-v1 report.
//!
//! The suite is the regression contract behind `BENCH_baseline.json` at the
//! repository root: CI re-runs `fjs bench --json` and gates the result with
//! `fjs bench-diff --max-regress 15`, so a case is never renamed. The two
//! sweep-shaped cases (`conform-deck`, `exhaustive-sweep`) exercise the
//! sharded executor and the memoized exact-optimum cache; the engine cases
//! time one event-driven run per scheduler; the interval, opt and dbp cases
//! time the substrates (interval algebra, span lower bounds, exact DP,
//! coordinate descent, First Fit packing); the serve cases time the
//! resident daemon's whole service path over an in-memory loadgen script.
//!
//! The paper's figures have no case here: `fjs all` regenerates every one
//! of them, and `tests/experiments_smoke.rs` runs them all.

use crate::experiments::e10_exhaustive::{
    enumerate_instances, kinds, sample_instance, validate_on,
};
use fjs_analysis::benchjson::BenchReport;
use fjs_analysis::time_case;
use fjs_core::interval::{Interval, IntervalSet};
use fjs_core::job::{Instance, Job};
use fjs_core::sim::{run_static, Clairvoyance};
use fjs_core::time::t;
use fjs_dbp::{deterministic_sizes, pack, Item, Packer};
use fjs_schedulers::SchedulerKind;
use fjs_testkit::{all_targets, run_conformance, ConformConfig};
use fjs_workloads::Scenario;

/// A timed workload. Its input is built once, untimed; the timing loop then
/// calls it repeatedly. It reduces its result to one number so the
/// optimizer cannot drop the work.
type Workload = Box<dyn FnMut() -> f64>;

/// Runs the whole suite and returns the schema-v1 report. `quick` shrinks
/// only the sample count, never a case's input.
pub fn run_bench_suite(quick: bool) -> BenchReport {
    let mut report = BenchReport::new(git_describe());
    // Each case's input is built just before it is timed, and dropped after.
    let mut case = |name: &str, mut workload: Workload| {
        report.upsert(time_case(name, quick, &mut workload));
    };
    case("conform-deck", conform_deck());
    case("exhaustive-sweep", exhaustive_sweep());
    case("engine-static-1k", engine_static(1_000));
    case("engine-static-10k", engine_static(10_000));
    case("interval-union-bulk", interval_union_bulk());
    case("serve-throughput-1k", serve_throughput(4, 1));
    case("serve-throughput-1k-w4", serve_throughput(8, 4));
    case("interval-collect-measure-10k", interval_collect(10_000));
    case("opt-lower-bounds-1k", opt_lower_bounds(1_000));
    case("opt-dp-n6", opt_dp_n6());
    case("opt-descent-200", opt_descent(200));
    case("dbp-first-fit-1k", dbp(1_000, Packer::FirstFit));
    let cd_first_fit = Packer::ClassifiedFirstFit {
        alpha: 2.0,
        base: 1.0,
    };
    case("dbp-cd-first-fit-1k", dbp(1_000, cd_first_fit));
    // Batch at 1k is `engine-static-1k`, on the same instance.
    for kind in SchedulerKind::full_set() {
        if kind != SchedulerKind::Batch {
            case(&format!("engine-1k/{}", kind.short_name()), engine_1k(kind));
        }
    }
    report
}

/// `conform-deck`: a quick-mode conformance pass over every registered
/// scheduler — deck instance generation, every applicable oracle, and the
/// exact-DP ratio denominators.
fn conform_deck() -> Workload {
    let targets = all_targets();
    let config = ConformConfig {
        cases: 16,
        base_seed: 1,
        quick: true,
        ..ConformConfig::default()
    };
    Box::new(move || {
        let report = run_conformance(&targets, &config);
        assert!(report.is_clean(), "bench deck must stay clean");
        report.checks as f64
    })
}

/// `exhaustive-sweep`: experiment E10's validation loop — the full ordered
/// 2-job grid plus heavier sampled instances, each solved to the exact
/// optimum, for all seven scheduler kinds over the *same* instance list
/// (the sharing the optimum cache exploits).
fn exhaustive_sweep() -> Workload {
    let mut instances: Vec<Instance> = enumerate_instances(2, 3, 2, 2);
    instances.extend((0..24).map(|seed| sample_instance(seed, 8)));
    Box::new(move || {
        let mut worst: f64 = 0.0;
        for kind in kinds() {
            worst = worst.max(validate_on(kind, &instances).max_ratio);
        }
        assert!(worst.is_finite() && worst >= 1.0 - 1e-9);
        worst
    })
}

/// `engine-static-1k` / `-10k`: one full event-driven Batch run of an
/// `n`-job cloud-batch instance under the default
/// [`fjs_core::sim::SimConfig`] — queue growth, action application and span
/// assembly, no tracing. At 10k, arena locality and calendar-queue O(1)
/// pops dominate (an O(n) removal shows up superlinearly). The arena
/// memory counters are pinned so regressions fail on footprint, not just
/// time.
fn engine_static(n: usize) -> Workload {
    let inst = Scenario::CloudBatch.generate(n, 3);
    Box::new(move || {
        let out = run_static(
            &inst,
            Clairvoyance::NonClairvoyant,
            fjs_schedulers::Batch::new(),
        );
        assert!(out.is_feasible());
        assert_eq!(out.stats.peak_retained, n, "batch runs retain all");
        assert_eq!(out.stats.arena_slots, n, "no slot churn on batch");
        out.span.get()
    })
}

/// `engine-1k/<scheduler>`: the `engine-static-1k` instance run by another
/// scheduler under its own information model.
fn engine_1k(kind: SchedulerKind) -> Workload {
    let inst = Scenario::CloudBatch.generate(1_000, 3);
    Box::new(move || {
        let out = kind.run_on(&inst);
        assert!(out.is_feasible());
        out.span.get()
    })
}

/// `interval-union-bulk`: merging many pre-built interval sets into an
/// accumulator (the busy-time union shape behind span and concurrency
/// metrics).
fn interval_union_bulk() -> Workload {
    let sets: Vec<IntervalSet> = (0..64)
        .map(|k| {
            (0..96)
                .map(|i| {
                    let x = (((k * 96 + i) as u64).wrapping_mul(2654435761) % 50_000) as f64 / 7.0;
                    Interval::new(t(x), t(x + 2.5))
                })
                .collect()
        })
        .collect();
    Box::new(move || {
        let mut acc = IntervalSet::new();
        for s in &sets {
            acc.union_with(s);
        }
        acc.measure().get()
    })
}

/// `interval-collect-measure-10k`: an [`IntervalSet`] built from `n`
/// unsorted, overlapping intervals, then measured.
fn interval_collect(n: usize) -> Workload {
    let intervals: Vec<Interval> = (0..n)
        .map(|i| {
            let x = ((i as u64).wrapping_mul(2654435761) % 100_000) as f64 / 10.0;
            Interval::new(t(x), t(x + 3.0))
        })
        .collect();
    Box::new(move || {
        let set: IntervalSet = intervals.iter().copied().collect();
        set.measure().get()
    })
}

/// `opt-lower-bounds-1k`: the chain and mandatory-interval span lower
/// bounds on an `n`-job cloud-batch instance.
fn opt_lower_bounds(n: usize) -> Workload {
    let inst = Scenario::CloudBatch.generate(n, 3);
    Box::new(move || fjs_opt::lb_chain(&inst).get() + fjs_opt::lb_mandatory(&inst).get())
}

/// `opt-dp-n6`: the uncached exact DP on a fixed six-job instance.
fn opt_dp_n6() -> Workload {
    let inst = Instance::new(vec![
        Job::adp(0.0, 3.0, 2.0),
        Job::adp(1.0, 5.0, 1.0),
        Job::adp(2.0, 2.0, 3.0),
        Job::adp(3.0, 8.0, 2.0),
        Job::adp(5.0, 9.0, 1.0),
        Job::adp(6.0, 10.0, 2.0),
    ]);
    Box::new(move || fjs_opt::optimal_span_dp(&inst).unwrap().get())
}

/// `opt-descent-200`: the coordinate-descent span upper bound (5 passes)
/// on an `n`-job cloud-batch instance.
fn opt_descent(n: usize) -> Workload {
    let inst = Scenario::CloudBatch.generate(n, 5);
    Box::new(move || fjs_opt::upper_bound_span(&inst, 5).span.get())
}

/// `dbp-first-fit-1k` / `dbp-cd-first-fit-1k`: packing the deadline-start
/// intervals of an `n`-job cloud-batch instance, with deterministic sizes
/// in [0.1, 0.6].
fn dbp(n: usize, packer: Packer) -> Workload {
    let inst = Scenario::CloudBatch.generate(n, 9);
    let sizes = deterministic_sizes(n, 0.1, 0.6, 11);
    let items: Vec<Item> = inst
        .iter()
        .map(|(id, j)| Item::new(j.active_interval_at(j.deadline()), sizes[id.index()]))
        .collect();
    Box::new(move || pack(&items, packer).total_usage.get())
}

/// `serve-throughput-1k` (1 worker, 4 sessions) and
/// `serve-throughput-1k-w4` (4 workers, 8 sessions): the resident daemon's
/// whole service path — protocol parsing, session multiplexing, incremental
/// span accounting, decision-log rendering — over a deterministic 1000-job
/// loadgen script, no I/O beyond an in-memory log. On a multi-core runner
/// the pooled case should beat the serial one by roughly the worker count;
/// on one core it measures pool overhead.
fn serve_throughput(sessions: usize, workers: usize) -> Workload {
    let script = crate::loadgen::emit_script(&crate::loadgen::LoadgenOptions {
        jobs: 1000,
        sessions,
        seed: 0x5eed_10ad,
        ..crate::loadgen::LoadgenOptions::default()
    });
    let opts = crate::serve::ServeOptions {
        workers,
        ..crate::serve::ServeOptions::default()
    };
    Box::new(move || {
        let out =
            crate::serve::run_script_pooled(&script, opts.clone()).expect("bench script must run");
        assert_eq!(out.summary.jobs, 1000, "bench script must admit every job");
        assert!(out.summary.halted.is_none());
        out.summary.decision_lines as f64
    })
}

/// `git describe --always --dirty` of the checkout, or `"unknown"`.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
