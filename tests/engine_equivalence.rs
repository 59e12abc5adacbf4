//! Differential engine-equivalence suite.
//!
//! Replays identical workloads through the arena/event-heap engine
//! (`fjs_core::sim::run_with_config`) and the pre-rewrite reference core
//! (`fjs_core::sim::legacy`, compiled via the `legacy-engine` feature), and
//! asserts the outcomes are bit-identical: decision logs (rendered traces),
//! schedules and spans compared through `f64::to_bits`, and every
//! `RunStats` counter (wall clocks zeroed — they are the only fields
//! allowed to differ).
//!
//! Coverage: the full scheduler registry over the seeded μ×slack×load
//! family grid, the committed `tests/corpus/` counterexamples (chaos
//! targets exercising violation/force-start paths), the Theorem 3.3
//! adaptive adversary (LengthProbe / deferred-ruling paths), the Fibonacci
//! clairvoyant adversary, and event-cap-truncated partial runs.

use fjs::adversary::{CvAdversary, NcAdversary, NcAdversaryParams};
use fjs::schedulers::SchedulerKind;
use fjs::workloads::{IntFamily, LoadRegime, SlackRegime};
use fjs_core::faults::ChaosScheduler;
use fjs_core::job::{Instance, JobId};
use fjs_core::sim::legacy::run_with_config_legacy;
use fjs_core::sim::{
    render_trace, run_with_config, RunStats, SimConfig, SimOutcome, StaticEnv, Termination,
    TraceMode,
};
use fjs_prng::check::case_seed;
use fjs_testkit::{all_targets, load_dir, Target};
use std::path::Path;

fn config() -> SimConfig {
    SimConfig {
        max_events: 1_000_000,
        trace: TraceMode::Full,
        ..SimConfig::default()
    }
}

fn run_new_target(target: Target, inst: &Instance) -> SimOutcome {
    run_new_target_with(target, inst, config())
}

fn run_new_target_with(target: Target, inst: &Instance, cfg: SimConfig) -> SimOutcome {
    let env = StaticEnv::new(inst, target.information_model());
    match target {
        Target::Kind(kind) => run_with_config(env, kind.build(), cfg),
        Target::Chaos { inner, mode } => {
            run_with_config(env, ChaosScheduler::new(inner.build(), mode), cfg)
        }
    }
}

fn run_old_target(target: Target, inst: &Instance) -> SimOutcome {
    let env = StaticEnv::new(inst, target.information_model());
    match target {
        Target::Kind(kind) => run_with_config_legacy(env, kind.build(), config()),
        Target::Chaos { inner, mode } => {
            run_with_config_legacy(env, ChaosScheduler::new(inner.build(), mode), config())
        }
    }
}

/// Wall clocks are measurements, not decisions; everything else must match.
fn zero_walls(mut s: RunStats) -> RunStats {
    s.wall_total_s = 0.0;
    s.wall_scheduler_s = 0.0;
    s.wall_environment_s = 0.0;
    s
}

fn assert_equivalent(label: &str, new: &SimOutcome, old: &SimOutcome) {
    // Decision log: the rendered trace is the byte-identical contract.
    assert_eq!(
        render_trace(&new.trace),
        render_trace(&old.trace),
        "{label}: decision logs diverge"
    );
    // Span and every schedule start, compared at the bit level.
    assert_eq!(
        new.span.get().to_bits(),
        old.span.get().to_bits(),
        "{label}: span {} vs {}",
        new.span,
        old.span
    );
    assert_eq!(new.instance.len(), old.instance.len(), "{label}: job count");
    for i in 0..new.instance.len() {
        let id = JobId(i as u32);
        let (a, b) = (new.instance.job(id), old.instance.job(id));
        assert_eq!(
            a.arrival().get().to_bits(),
            b.arrival().get().to_bits(),
            "{label}: arrival of {id}"
        );
        assert_eq!(
            a.deadline().get().to_bits(),
            b.deadline().get().to_bits(),
            "{label}: deadline of {id}"
        );
        assert_eq!(
            a.length().get().to_bits(),
            b.length().get().to_bits(),
            "{label}: length of {id}"
        );
        assert_eq!(
            new.schedule.start(id).map(|t| t.get().to_bits()),
            old.schedule.start(id).map(|t| t.get().to_bits()),
            "{label}: start of {id}"
        );
    }
    assert_eq!(new.violations, old.violations, "{label}: violations");
    assert_eq!(
        new.rejected_actions, old.rejected_actions,
        "{label}: rejected actions"
    );
    assert_eq!(new.termination, old.termination, "{label}: termination");
    assert_eq!(new.unresolved, old.unresolved, "{label}: unresolved jobs");
    assert_eq!(
        new.events_processed, old.events_processed,
        "{label}: events processed"
    );
    assert_eq!(
        zero_walls(new.stats),
        zero_walls(old.stats),
        "{label}: RunStats counters"
    );
}

/// The full registry over the seeded μ×slack×load family grid: every
/// registered scheduler, every family, several seeds each.
#[test]
fn registry_matches_legacy_on_family_grid() {
    let mut cases = 0usize;
    for target in all_targets() {
        for &mu in &[1u64, 2, 4] {
            for &slack in &[
                SlackRegime::Rigid,
                SlackRegime::Tight,
                SlackRegime::Proportional,
                SlackRegime::Generous,
            ] {
                for &load in &[LoadRegime::Burst, LoadRegime::Moderate, LoadRegime::Sparse] {
                    let fam = IntFamily {
                        n: 6,
                        mu,
                        slack,
                        load,
                    };
                    for rep in 0..2 {
                        let inst = fam.generate(case_seed(0xe901, cases));
                        let label = format!("{} / {} rep {rep}", target.name(), fam.label());
                        let new = run_new_target(target, &inst);
                        let old = run_old_target(target, &inst);
                        assert_equivalent(&label, &new, &old);
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(
        cases >= 700,
        "grid covers the whole registry ({cases} runs checked)"
    );
}

/// Every committed counterexample replays identically on both cores —
/// chaos targets drive the violation, rejection and force-start paths.
#[test]
fn corpus_counterexamples_match_legacy() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let entries = load_dir(&dir).expect("corpus must load");
    assert!(
        !entries.is_empty(),
        "corpus ships at least the chaos entries"
    );
    for (path, entry) in &entries {
        let target = Target::from_name(&entry.target)
            .unwrap_or_else(|| panic!("{}: unknown target {}", path.display(), entry.target));
        let new = run_new_target(target, &entry.instance);
        let old = run_old_target(target, &entry.instance);
        assert_equivalent(&format!("corpus {}", path.display()), &new, &old);
    }
}

/// The Theorem 3.3 adaptive adversary rules lengths *after* starts via
/// deferred probes — the one path static instances never reach.
#[test]
fn adaptive_adversary_matches_legacy() {
    for &mu in &[2.0, 4.0] {
        for &n in &[4usize, 9] {
            for kind in SchedulerKind::non_clairvoyant_set() {
                let params = || NcAdversaryParams::uniform(mu, 2, n);
                let label = format!("nc-adversary μ={mu} n={n} vs {}", kind.label());
                let new = run_with_config(NcAdversary::new(params()), kind.build(), config());
                let old =
                    run_with_config_legacy(NcAdversary::new(params()), kind.build(), config());
                assert_equivalent(&label, &new, &old);
            }
        }
    }
}

/// The clairvoyant lower-bound adversary releases jobs reactively based on
/// observed world state; both cores must show it the same world.
#[test]
fn clairvoyant_adversary_matches_legacy() {
    for &n in &[3usize, 5, 8] {
        for kind in SchedulerKind::clairvoyant_set() {
            let label = format!("cv-adversary n={n} vs {}", kind.label());
            let new = run_with_config(CvAdversary::new(n), kind.build(), config());
            let old = run_with_config_legacy(CvAdversary::new(n), kind.build(), config());
            assert_equivalent(&label, &new, &old);
        }
    }
}

/// Event-cap-truncated runs produce identical *partial* outcomes:
/// termination, unresolved lists and placeholder instances all match.
#[test]
fn event_cap_partial_outcomes_match_legacy() {
    let fam = IntFamily {
        n: 12,
        mu: 4,
        slack: SlackRegime::Tight,
        load: LoadRegime::Burst,
    };
    let inst = fam.generate(case_seed(0xe902, 0));
    for cap in [1usize, 3, 7, 15, 30] {
        let cfg = SimConfig {
            max_events: cap,
            trace: TraceMode::Full,
            ..SimConfig::default()
        };
        let kind = SchedulerKind::Batch;
        let env = || StaticEnv::new(&inst, kind.information_model());
        let new = run_with_config(env(), kind.build(), cfg);
        let old = run_with_config_legacy(env(), kind.build(), cfg);
        assert_equivalent(&format!("event-cap {cap}"), &new, &old);
    }
}

/// The clairvoyance models must agree per-target with the model the legacy
/// run used (guards the registry plumbing the suite relies on).
#[test]
fn equivalence_covers_every_registered_kind() {
    let targets = all_targets();
    assert_eq!(
        targets.len(),
        SchedulerKind::registered_set().len(),
        "suite must cover the full registry"
    );
    for t in &targets {
        assert!(!t.is_chaos(), "registry targets are the real schedulers");
    }
}

/// The engine parks its allocations (arena world, event heap, scratch
/// buffers) in a thread-local pool between runs. A recycled run must be
/// bit-identical to a fresh-thread run — including after a much larger run
/// has grown the pooled heap and arena in between, after an event-capped
/// run has parked a heap that still holds events, and across different
/// schedulers and information models sharing one thread.
#[test]
fn recycled_scratch_matches_fresh_thread_runs() {
    let small = Instance::new(vec![
        fjs_core::job::Job::adp(0.0, 3.0, 1.0),
        fjs_core::job::Job::adp(0.5, 3.5, 2.0),
        fjs_core::job::Job::adp(2.0, 2.5, 0.5),
    ]);
    let big = Instance::new(
        (0..600)
            .map(|i| {
                let a = (i as f64) * 0.17;
                fjs_core::job::Job::adp(a, a + 4.0, 1.0 + (i % 7) as f64 * 0.3)
            })
            .collect::<Vec<_>>(),
    );

    for target in all_targets() {
        // Fresh thread: the very first run finds an empty pool.
        let fresh = std::thread::spawn({
            let small = small.clone();
            move || run_new_target(target, &small)
        })
        .join()
        .expect("fresh-thread run");

        // Same thread, pool warmed — first by the small run itself, then by
        // a big run that grows the pooled arena and event heap, then by a
        // capped run of the big instance that stops with events queued.
        let warmed = std::thread::spawn({
            let (small, big) = (small.clone(), big.clone());
            move || {
                let first = run_new_target(target, &small);
                let grown = run_new_target(target, &big);
                assert!(grown.termination.is_completed());
                let capped_cfg = SimConfig {
                    max_events: 50,
                    ..config()
                };
                let capped = run_new_target_with(target, &big, capped_cfg);
                assert_eq!(
                    capped.termination,
                    Termination::EventCapExhausted { events: 50 }
                );
                let second = run_new_target(target, &small);
                (first, second)
            }
        })
        .join()
        .expect("warmed-thread runs");

        let label = format!("{target:?} (recycled vs fresh)");
        assert_equivalent(&label, &warmed.0, &fresh);
        assert_equivalent(&label, &warmed.1, &fresh);
    }
}
