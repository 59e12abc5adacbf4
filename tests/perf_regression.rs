//! Lock-in suite for the performance layer: the two-pointer interval
//! union and windowed measure are differentials against a sort-and-merge
//! oracle, the exact-optimum cache's canonical fingerprint is invariant
//! under translation and power-of-two scaling, cache hits never change
//! oracle verdicts, the sharded executor is bit-identical to serial for
//! conformance and soak sweeps (including interrupt + resume), and the
//! `fjs bench` JSON honours schema v1 with a zero-regression self-diff.

use fjs::core::interval::{Interval, IntervalSet};
use fjs::core::job::{Instance, Job};
use fjs::core::time::{dur, t};
use fjs_cli::soak::{run_soak, SoakOptions};
use fjs_prng::check::forall;
use fjs_prng::SmallRng;
use fjs_testkit::{
    all_targets, check_all, run_conformance, ConformConfig, OracleViolation, Target,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Tests that assert on the process-global opt-cache counters or flip its
/// enabled flag serialize here so parallel test threads don't race them.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

static SCRATCH: AtomicUsize = AtomicUsize::new(0);

/// A unique temp path per call so tests don't collide.
fn scratch(tag: &str) -> PathBuf {
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("fjs-perf-{tag}-{}-{n}", std::process::id()));
    p
}

// ---------------------------------------------------------------------------
// Interval-set differentials: the two-pointer `union_with` and the
// partition-point `measure_within` against a naive sort-and-merge oracle.
// ---------------------------------------------------------------------------

/// Adversarial interval batch on a half-integer grid: short intervals chain
/// into touching runs, long ones nest and bridge them, and repeated
/// endpoints force every tie-handling branch.
fn adversarial_intervals(rng: &mut SmallRng) -> Vec<Interval> {
    let n = rng.u64_below(12) as usize;
    (0..n)
        .map(|_| {
            let lo = rng.u64_below(24) as f64 * 0.5;
            let len = match rng.u64_below(4) {
                0 => 0.5,
                1 => 1.0,
                2 => 4.0,
                _ => 9.0,
            };
            Interval::new(t(lo), t(lo + len))
        })
        .collect()
}

/// The oracle: gather every interval, sort by `lo`, and coalesce touching
/// or overlapping neighbours in one pass.
fn sort_and_merge(a: &[Interval], b: &[Interval]) -> Vec<Interval> {
    let mut all: Vec<Interval> = a.iter().chain(b.iter()).copied().collect();
    all.sort_by(|x, y| {
        x.lo()
            .get()
            .partial_cmp(&y.lo().get())
            .expect("finite endpoints")
    });
    let mut merged: Vec<Interval> = Vec::new();
    for iv in all {
        match merged.last_mut() {
            Some(last) if iv.lo() <= last.hi() => {
                if iv.hi() > last.hi() {
                    *last = Interval::new(last.lo(), iv.hi());
                }
            }
            _ => merged.push(iv),
        }
    }
    merged
}

#[test]
fn prop_union_with_matches_sort_and_merge_oracle() {
    forall(300, |rng| {
        let a = adversarial_intervals(rng);
        let b = adversarial_intervals(rng);
        let mut set: IntervalSet = a.iter().copied().collect();
        let other: IntervalSet = b.iter().copied().collect();
        set.union_with(&other);
        assert_eq!(
            set.segments(),
            sort_and_merge(&a, &b).as_slice(),
            "union_with diverged from the sort-and-merge oracle on {a:?} ∪ {b:?}"
        );
        // Union must be symmetric.
        let mut flipped: IntervalSet = b.iter().copied().collect();
        flipped.union_with(&a.iter().copied().collect());
        assert_eq!(set, flipped);
    });
}

#[test]
fn prop_measure_within_matches_full_scan_oracle() {
    forall(300, |rng| {
        let set: IntervalSet = adversarial_intervals(rng).into_iter().collect();
        for _ in 0..8 {
            let lo = rng.u64_below(40) as f64 * 0.5 - 3.0;
            let len = rng.u64_below(30) as f64 * 0.5;
            let window = Interval::new(t(lo), t(lo + len));
            let naive: f64 = set
                .segments()
                .iter()
                .map(|s| s.overlap_len(&window).get())
                .sum();
            assert_eq!(
                set.measure_within(&window),
                dur(naive),
                "measure_within diverged on window {window:?} over {set}"
            );
        }
    });
}

// ---------------------------------------------------------------------------
// Exact-optimum cache: canonical-fingerprint invariance and verdict
// stability under cache hits.
// ---------------------------------------------------------------------------

/// Random small integer instance well inside the DP's comfort zone.
fn small_int_instance(rng: &mut SmallRng) -> Instance {
    let n = 1 + rng.u64_below(4) as usize;
    Instance::new(
        (0..n)
            .map(|_| {
                let a = rng.u64_below(6) as f64;
                let lax = rng.u64_below(4) as f64;
                let p = 1.0 + rng.u64_below(3) as f64;
                Job::adp(a, a + lax, p)
            })
            .collect(),
    )
}

#[test]
fn prop_fingerprint_invariant_under_translation_and_pow2_scaling() {
    use fjs::opt::{cached_optimal_span_dp, optimal_span_dp};
    use fjs_testkit::oracles::{scaled, translated};

    forall(60, |rng| {
        let inst = small_int_instance(rng);
        let base = cached_optimal_span_dp(&inst).expect("small integer instance");
        assert_eq!(base, optimal_span_dp(&inst).expect("uncached solve"));

        // Translation: the canonical key shifts the earliest arrival to 0,
        // so any integer offset lands on the same entry — and the same span.
        let offset = rng.u64_below(50) as f64;
        let moved = translated(&inst, offset);
        assert_eq!(cached_optimal_span_dp(&moved).expect("translated"), base);
        assert_eq!(optimal_span_dp(&moved).expect("translated uncached"), base);

        // Power-of-two scaling: the key divides by the GCD, the cached
        // span multiplies back exactly (integers through exact f64 ops).
        let factor = (1u64 << rng.u64_below(3)) as f64;
        let grown = scaled(&inst, factor);
        let expect = dur(base.get() * factor);
        assert_eq!(cached_optimal_span_dp(&grown).expect("scaled"), expect);
        assert_eq!(optimal_span_dp(&grown).expect("scaled uncached"), expect);
    });
}

/// Flattens a `check_all` outcome into something comparable.
fn verdicts(target: &Target, insts: &[Instance]) -> Vec<(usize, Vec<(String, String)>)> {
    insts
        .iter()
        .map(|inst| {
            let (checks, violations) = check_all(target, inst, None);
            let flat = violations
                .iter()
                .map(|v: &OracleViolation| (v.oracle.id().to_string(), v.detail.clone()))
                .collect();
            (checks, flat)
        })
        .collect()
}

#[test]
fn cache_hits_never_change_oracle_verdicts() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = SmallRng::seed_from_u64(2017);
    let insts: Vec<Instance> = (0..6).map(|_| small_int_instance(&mut rng)).collect();
    let targets = all_targets();

    fjs::opt::cache::reset();
    let cold: Vec<_> = targets.iter().map(|t| verdicts(t, &insts)).collect();
    let after_cold = fjs::opt::cache::stats();
    assert!(
        after_cold.misses > 0,
        "the cold pass must actually exercise the ratio oracle"
    );

    let warm: Vec<_> = targets.iter().map(|t| verdicts(t, &insts)).collect();
    let after_warm = fjs::opt::cache::stats();
    assert_eq!(cold, warm, "a cache hit changed an oracle verdict");
    assert!(
        after_warm.hits > after_cold.hits,
        "the warm pass must be served from the cache"
    );
}

#[test]
fn conform_is_bit_identical_cached_and_uncached() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let targets = all_targets();
    let config = ConformConfig {
        cases: 12,
        base_seed: 3,
        quick: true,
        shards: 2,
        ..ConformConfig::default()
    };
    let cached = format!("{:?}", run_conformance(&targets, &config));
    fjs::opt::cache::set_enabled(false);
    let uncached = format!("{:?}", run_conformance(&targets, &config));
    fjs::opt::cache::set_enabled(true);
    assert_eq!(
        cached, uncached,
        "the memo table changed a conformance report"
    );
}

// ---------------------------------------------------------------------------
// Sharded executor determinism: conformance and soak sweeps bit-identical
// to serial at 1/2/8 shards, including interrupt + resume.
// ---------------------------------------------------------------------------

#[test]
fn conform_report_identical_at_1_2_8_shards() {
    let targets = all_targets();
    let run = |shards: usize| {
        let config = ConformConfig {
            cases: 24,
            base_seed: 5,
            quick: true,
            shards,
            ..ConformConfig::default()
        };
        format!("{:?}", run_conformance(&targets, &config))
    };
    let serial = run(1);
    for shards in [2, 8] {
        assert_eq!(run(shards), serial, "conform diverged at {shards} shard(s)");
    }
}

fn soak_targets() -> Vec<Target> {
    vec![
        Target::Kind(fjs::schedulers::SchedulerKind::Batch),
        Target::Kind(fjs::schedulers::SchedulerKind::Eager),
    ]
}

#[test]
fn soak_journal_identical_at_1_2_8_shards() {
    let mut journals = Vec::new();
    let mut reports = Vec::new();
    for shards in [1usize, 2, 8] {
        let path = scratch(&format!("shards{shards}"));
        let mut opts = SoakOptions::new(soak_targets(), &path);
        opts.cells = 6;
        opts.base_seed = 11;
        opts.shards = shards;
        let summary = run_soak(&opts).expect("soak");
        assert!(!summary.interrupted);
        journals.push(std::fs::read(&path).expect("journal bytes"));
        reports.push(summary.report);
        let _ = std::fs::remove_file(&path);
    }
    assert_eq!(journals[0], journals[1], "2 shards diverged from serial");
    assert_eq!(journals[0], journals[2], "8 shards diverged from serial");
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[0], reports[2]);
}

#[test]
fn sharded_soak_interrupted_and_resumed_converges_to_serial() {
    // Serial uninterrupted reference.
    let ref_path = scratch("resume-ref");
    let mut reference = SoakOptions::new(soak_targets(), &ref_path);
    reference.cells = 6;
    reference.base_seed = 23;
    let full = run_soak(&reference).expect("reference soak");

    // Sharded run "killed" mid-sweep, then resumed at a different shard
    // count: the journal must converge to the serial reference bytes.
    let cut_path = scratch("resume-cut");
    let mut cut = SoakOptions::new(soak_targets(), &cut_path);
    cut.cells = 6;
    cut.base_seed = 23;
    cut.shards = 4;
    cut.stop_after = Some(5);
    let first = run_soak(&cut).expect("interrupted soak");
    assert!(first.interrupted, "stop_after must interrupt the sweep");
    assert_eq!(first.ran, 5, "stop_after bounds executed cells exactly");

    cut.stop_after = None;
    cut.resume = true;
    cut.shards = 8;
    let second = run_soak(&cut).expect("resumed soak");
    assert!(!second.interrupted);

    assert_eq!(
        std::fs::read(&ref_path).expect("ref"),
        std::fs::read(&cut_path).expect("cut"),
        "sharded interrupt + resume must converge to the serial journal"
    );
    assert_eq!(second.report, full.report);
    let _ = std::fs::remove_file(&ref_path);
    let _ = std::fs::remove_file(&cut_path);
}

// ---------------------------------------------------------------------------
// Bench golden contract: schema-v1 JSON, lossless round-trip, and a
// self-diff with zero regressions.
// ---------------------------------------------------------------------------

#[test]
fn bench_json_honours_schema_v1_and_self_diff_is_clean() {
    use fjs::analysis::{diff_reports, BenchReport};

    let report = fjs_cli::bench::run_bench_suite(true);
    report
        .validate()
        .expect("bench report must satisfy schema v1");
    // Case names are the CI gate's keys: the first seven are the
    // `BENCH_baseline.json` cases.
    let names: Vec<&str> = report.cases.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "conform-deck",
            "exhaustive-sweep",
            "engine-static-1k",
            "engine-static-10k",
            "interval-union-bulk",
            "serve-throughput-1k",
            "serve-throughput-1k-w4",
            "interval-collect-measure-10k",
            "opt-lower-bounds-1k",
            "opt-dp-n6",
            "opt-descent-200",
            "dbp-first-fit-1k",
            "dbp-cd-first-fit-1k",
            "engine-1k/eager",
            "engine-1k/lazy",
            "engine-1k/batch+",
            "engine-1k/cdb",
            "engine-1k/profit",
            "engine-1k/doubler",
        ]
    );

    let baseline = BenchReport::parse(include_str!("../BENCH_baseline.json")).expect("baseline");
    assert!(
        diff_reports(&baseline, &report).only_old.is_empty(),
        "every BENCH_baseline.json case must still be in the suite"
    );

    let reparsed = BenchReport::parse(&report.to_json()).expect("round-trip parse");
    reparsed
        .validate()
        .expect("round-tripped report stays valid");
    assert_eq!(reparsed.cases.len(), report.cases.len());

    let diff = diff_reports(&report, &reparsed);
    assert_eq!(diff.aligned.len(), report.cases.len());
    assert!(diff.only_old.is_empty() && diff.only_new.is_empty());
    assert!(
        diff.regressions(0.0).is_empty(),
        "a report diffed against itself must show zero regressions"
    );
}

// ---------------------------------------------------------------------------
// Arena/queue memory gate: the 10k batch run must not grow its footprint
// past the structural bounds — every job resident exactly once (batch runs
// never recycle slots) and the calendar queue holding at most one
// completion, alarm, and ordered-start per live job plus slack for probes
// and wakeups.
// ---------------------------------------------------------------------------

#[test]
fn engine_10k_memory_counters_stay_within_structural_bounds() {
    use fjs::core::sim::{run_static, Clairvoyance};

    let inst = fjs::workloads::Scenario::CloudBatch.generate(10_000, 3);
    let out = run_static(
        &inst,
        Clairvoyance::NonClairvoyant,
        fjs::schedulers::Batch::new(),
    );
    assert!(out.is_feasible());

    // Batch runs retain every released job: the arena high-water mark and
    // total slot count both equal the job count, or slots are leaking.
    assert_eq!(
        out.stats.peak_retained, 10_000,
        "arena must retain 10k jobs"
    );
    assert_eq!(
        out.stats.arena_slots, 10_000,
        "arena must allocate 10k slots"
    );

    // The queue holds at most a few pending events per live job (completion
    // + deadline alarm dominate; probes/wakeups are transient). 4× jobs is
    // a loose structural ceiling — the seed run peaks far below it.
    assert!(
        out.stats.peak_queue <= 4 * 10_000,
        "peak queue {} exceeds the 4-events-per-job structural bound",
        out.stats.peak_queue
    );
    assert!(out.stats.is_consistent(), "per-kind counters must sum");
}
