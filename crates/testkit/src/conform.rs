//! The conformance loop: seeded deck cases fanned out through the
//! work-stealing [`fjs_analysis::sharded_map`] executor, every applicable
//! oracle checked per target, and each distinct failure minimized by the
//! shrinker. The report is bit-identical for every shard count.

use crate::oracles::{self, OracleKind, OracleViolation};
use crate::shrink::{shrink, ShrinkStats, DEFAULT_SHRINK_BUDGET};
use crate::target::Target;
use fjs_analysis::{sharded_map, ShardPlan};
use fjs_core::job::Instance;
use fjs_core::supervise::{Cell, CellResult, Journal};
use fjs_prng::check::case_seed;
use fjs_workloads::{conformance_deck, uniform_conformance_deck, Family};
use std::sync::Mutex;

/// Which case deck a conformance run draws from.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DeckKind {
    /// The canonical mixed-length deck ([`conformance_deck`]).
    #[default]
    Main,
    /// The uniform-jobs deck ([`uniform_conformance_deck`]): lengths all
    /// equal, arming the uniform family's `2` / `1 + λ` ratio bounds.
    Uniform,
}

impl DeckKind {
    /// Materializes the deck.
    pub fn deck(&self) -> Vec<Family> {
        match self {
            DeckKind::Main => conformance_deck(),
            DeckKind::Uniform => uniform_conformance_deck(),
        }
    }

    /// Stable name (CLI `--deck`, corpus notes).
    pub fn name(&self) -> &'static str {
        match self {
            DeckKind::Main => "main",
            DeckKind::Uniform => "uniform",
        }
    }
}

/// Configuration for one conformance run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ConformConfig {
    /// Number of cases; case `i` draws deck member `i % deck.len()` with
    /// seed `case_seed(base_seed, i)`.
    pub cases: usize,
    /// The case deck.
    pub deck: DeckKind,
    /// Base seed; the whole run is a pure function of `(targets, config)`.
    pub base_seed: u64,
    /// Quick mode (CI): only deck members with at most 8 jobs, so every
    /// case stays microseconds-cheap.
    pub quick: bool,
    /// Shrinker evaluation budget per distinct failure.
    pub shrink_budget: usize,
    /// Worker shards for the case fan-out: `0` = one per core (the
    /// default), `1` = serial on the calling thread. Any value yields the
    /// same report bit for bit.
    pub shards: usize,
}

impl Default for ConformConfig {
    fn default() -> Self {
        ConformConfig {
            cases: 64,
            deck: DeckKind::Main,
            base_seed: 1,
            quick: false,
            shrink_budget: DEFAULT_SHRINK_BUDGET,
            shards: 0,
        }
    }
}

/// One distinct `(target, oracle)` failure, minimized.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The failing target.
    pub target: Target,
    /// The violated oracle.
    pub oracle: OracleKind,
    /// Diagnosis from the first occurrence.
    pub detail: String,
    /// Deck family label of the first occurrence.
    pub family: String,
    /// Case seed of the first occurrence.
    pub seed: u64,
    /// How many cases hit this `(target, oracle)` pair.
    pub occurrences: usize,
    /// The original (un-shrunk) failing instance.
    pub instance: Instance,
    /// The minimized instance (still fails the same oracle).
    pub shrunk: Instance,
    /// Shrinker effort spent.
    pub shrink_stats: ShrinkStats,
}

/// The result of a conformance run.
#[derive(Clone, Debug, Default)]
pub struct ConformReport {
    /// Cases executed.
    pub cases: usize,
    /// Total oracle checks executed across all cases and targets.
    pub checks: usize,
    /// `(target, case)` cells skipped because a resume journal already
    /// recorded them as completed.
    pub skipped: usize,
    /// Distinct minimized failures (empty for conforming schedulers).
    pub failures: Vec<Failure>,
}

impl ConformReport {
    /// `true` when no oracle failed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

struct RawFailure {
    target_index: usize,
    violation: OracleViolation,
    family: String,
    seed: u64,
    instance: Instance,
}

/// Side-channels for a supervised conformance run. The default hooks do
/// nothing, reproducing the plain [`run_conformance`] behaviour.
#[derive(Default)]
pub struct ConformHooks<'a> {
    /// Checkpoint journal: `(target, family, seed)` cells it already
    /// records are skipped (counted in [`ConformReport::skipped`]), and
    /// every newly finished cell is recorded — the `--resume` machinery.
    pub journal: Option<&'a Mutex<Journal>>,
    /// Called once per distinct failure *immediately after it is shrunk*,
    /// so counterexamples reach disk even if the sweep is later killed.
    pub on_failure: Option<&'a mut dyn FnMut(&Failure)>,
}

/// Runs the conformance suite for `targets`.
///
/// Deterministic: the report (including shrunk instances) is a pure
/// function of `(targets, config)` — `sharded_map` merges results back
/// into input order regardless of the shard count or which worker claimed
/// which case, and every oracle and the shrinker are deterministic.
pub fn run_conformance(targets: &[Target], config: &ConformConfig) -> ConformReport {
    run_conformance_with(targets, config, ConformHooks::default())
}

/// [`run_conformance`] with resume/flush [`ConformHooks`].
///
/// With a journal, the report covers only the cells run *this* time
/// (journalled cells are skipped), but the journal itself converges to the
/// same sorted byte content as an uninterrupted run — which is what
/// `--resume` needs.
pub fn run_conformance_with(
    targets: &[Target],
    config: &ConformConfig,
    mut hooks: ConformHooks<'_>,
) -> ConformReport {
    let mut deck: Vec<Family> = config.deck.deck();
    if config.quick {
        deck.retain(|f| f.n() <= 8);
    }
    let ratio_possible = targets
        .iter()
        .any(|t| oracles::row(t).contains(&OracleKind::RatioBound));

    let cases: Vec<(usize, Family, u64)> = (0..config.cases)
        .map(|i| (i, deck[i % deck.len()], case_seed(config.base_seed, i)))
        .collect();

    let journal = hooks.journal;
    let plan = ShardPlan::with_shards(config.shards).seeded(config.base_seed);
    let per_case: Vec<(usize, usize, Vec<RawFailure>)> =
        sharded_map(&cases, plan, |&(_, family, seed)| {
            // Resolve the whole case's skip set up front (one lock), so an
            // instance is never generated for fully-journalled cases.
            let todo: Vec<(usize, &Target)> = match journal {
                None => targets.iter().enumerate().collect(),
                Some(j) => {
                    let j = j.lock().unwrap_or_else(|e| e.into_inner());
                    targets
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| {
                            !j.contains(&Cell {
                                target: t.name(),
                                family: family.label(),
                                seed,
                            })
                        })
                        .collect()
                }
            };
            let skipped = targets.len() - todo.len();
            if todo.is_empty() {
                return (0, skipped, Vec::new());
            }
            let inst = family.generate(seed);
            // The exact optimum is per-instance, not per-target: compute it
            // once and share it across every ratio-bound check.
            let opt = if ratio_possible {
                oracles::exact_opt(&inst)
            } else {
                None
            };
            let mut checks = 0;
            let mut raw = Vec::new();
            for (target_index, target) in todo {
                let (n, violations) = oracles::check_all(target, &inst, opt);
                checks += n;
                let clean = violations.is_empty();
                for violation in violations {
                    raw.push(RawFailure {
                        target_index,
                        violation,
                        family: family.label(),
                        seed,
                        instance: inst.clone(),
                    });
                }
                if let Some(j) = journal {
                    let record = CellResult {
                        cell: Cell {
                            target: target.name(),
                            family: family.label(),
                            seed,
                        },
                        verdict: if clean {
                            "clean".into()
                        } else {
                            "failed".into()
                        },
                        span: 0.0,
                        events: 0,
                        retries: 0,
                    };
                    // Journal IO failures must not abort the sweep; the
                    // worst case is redoing this cell after a resume. A
                    // due sync runs after the lock is released, so it
                    // stalls only this shard.
                    let pending = j.lock().unwrap_or_else(|e| e.into_inner()).record(record);
                    if let Ok(Some(sync)) = pending {
                        let _ = sync.run();
                    }
                }
            }
            (checks, skipped, raw)
        });

    let mut report = ConformReport {
        cases: config.cases,
        ..ConformReport::default()
    };
    let mut failures: Vec<Failure> = Vec::new();
    for (checks, skipped, raw) in per_case {
        report.checks += checks;
        report.skipped += skipped;
        for rf in raw {
            let target = targets[rf.target_index];
            if let Some(existing) = failures
                .iter_mut()
                .find(|f| f.target == target && f.oracle == rf.violation.oracle)
            {
                existing.occurrences += 1;
                continue;
            }
            failures.push(Failure {
                target,
                oracle: rf.violation.oracle,
                detail: rf.violation.detail,
                family: rf.family,
                seed: rf.seed,
                occurrences: 1,
                instance: rf.instance,
                shrunk: Instance::empty(),
                shrink_stats: ShrinkStats::default(),
            });
        }
    }

    // Minimize each distinct failure, preserving the failing oracle, and
    // flush it through the hook the moment it is minimized — a later kill
    // must not lose already-shrunk counterexamples.
    for failure in &mut failures {
        let target = failure.target;
        let oracle = failure.oracle;
        let (shrunk, stats) = shrink(&failure.instance, config.shrink_budget, |cand| {
            oracles::still_fails(&target, oracle, cand)
        });
        failure.shrunk = shrunk;
        failure.shrink_stats = stats;
        if let Some(on_failure) = hooks.on_failure.as_mut() {
            on_failure(failure);
        }
    }

    report.failures = failures;
    report
}

/// All real registered schedulers as conformance targets.
pub fn all_targets() -> Vec<Target> {
    fjs_schedulers::SchedulerKind::registered_set()
        .into_iter()
        .map(Target::Kind)
        .collect()
}

/// The targets of a `fjs conform uniform` run: the uniform family itself
/// plus the seed-paper schedulers that remain meaningful at `μ = 1` —
/// cross-checking both theories on the shared regime (Batch+ reads
/// `μ + 1 = 2` there, the same bound UnitAligned claims).
pub fn uniform_targets() -> Vec<Target> {
    use fjs_schedulers::SchedulerKind;
    let mut kinds = SchedulerKind::uniform_set();
    kinds.extend([
        SchedulerKind::Eager,
        SchedulerKind::Lazy,
        SchedulerKind::Batch,
        SchedulerKind::BatchPlus,
        SchedulerKind::Doubler { c: 1.0 },
    ]);
    kinds.into_iter().map(Target::Kind).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(cases: usize) -> ConformConfig {
        ConformConfig {
            cases,
            base_seed: 1,
            quick: true,
            ..ConformConfig::default()
        }
    }

    #[test]
    fn real_schedulers_conform() {
        let report = run_conformance(&all_targets(), &quick_config(24));
        let details: Vec<String> = report
            .failures
            .iter()
            .map(|f| format!("{} / {}: {}", f.target.name(), f.oracle.id(), f.detail))
            .collect();
        assert!(
            report.is_clean(),
            "conformance failures:\n{}",
            details.join("\n")
        );
        assert_eq!(report.cases, 24);
        assert!(
            report.checks > 24 * all_targets().len(),
            "several oracles per target-case"
        );
    }

    #[test]
    fn uniform_deck_conformance_is_clean() {
        let config = ConformConfig {
            deck: DeckKind::Uniform,
            ..quick_config(24)
        };
        let report = run_conformance(&uniform_targets(), &config);
        let details: Vec<String> = report
            .failures
            .iter()
            .map(|f| format!("{} / {}: {}", f.target.name(), f.oracle.id(), f.detail))
            .collect();
        assert!(
            report.is_clean(),
            "uniform conformance failures:\n{}",
            details.join("\n")
        );
        assert!(report.checks > 24 * uniform_targets().len());
    }

    #[test]
    fn uniform_chaos_is_caught_and_shrunk_uniform() {
        // Self-test on the uniform deck: an injected bug in a uniform-family
        // scheduler must be caught, and its minimized counterexample must
        // still be a uniform-jobs instance.
        let target = Target::from_name("chaos:drop-starts:ualign").expect("parseable");
        let config = ConformConfig {
            deck: DeckKind::Uniform,
            ..quick_config(16)
        };
        let report = run_conformance(&[target], &config);
        assert!(!report.is_clean(), "harness must catch chaos on ualign");
        for f in &report.failures {
            assert!(
                f.shrunk.is_uniform(),
                "shrunk counterexample went mixed: {:?}",
                f.shrunk
            );
            assert!(oracles::still_fails(&f.target, f.oracle, &f.shrunk));
        }
    }

    #[test]
    fn chaos_is_caught_and_shrunk_small() {
        let report = run_conformance(&[Target::default_chaos()], &quick_config(16));
        assert!(!report.is_clean(), "the harness must catch injected chaos");
        let f = &report.failures[0];
        assert_eq!(f.oracle, OracleKind::Window);
        assert!(
            f.shrunk.len() <= 6,
            "shrunk to {} jobs: {:?}",
            f.shrunk.len(),
            f.shrunk
        );
        assert!(f.shrink_stats.evaluations > 0);
        assert!(
            oracles::still_fails(&f.target, f.oracle, &f.shrunk),
            "the minimized instance must preserve the failure"
        );
    }

    #[test]
    fn journal_hook_skips_completed_cells() {
        let mut path = std::env::temp_dir();
        path.push(format!("fjs-conform-journal-{}", std::process::id()));
        let targets = [Target::Kind(fjs_schedulers::SchedulerKind::Batch)];
        let config = quick_config(6);

        let journal = Mutex::new(Journal::create(&path).unwrap());
        let first = run_conformance_with(
            &targets,
            &config,
            ConformHooks {
                journal: Some(&journal),
                ..ConformHooks::default()
            },
        );
        assert_eq!(first.skipped, 0);
        assert!(first.checks > 0);
        assert_eq!(
            journal.lock().unwrap().len(),
            6,
            "one cell per (target, case)"
        );

        // Resume against the same journal: everything is already done.
        let journal = Mutex::new(Journal::resume(&path).unwrap());
        let second = run_conformance_with(
            &targets,
            &config,
            ConformHooks {
                journal: Some(&journal),
                ..ConformHooks::default()
            },
        );
        assert_eq!(second.skipped, 6);
        assert_eq!(second.checks, 0, "skipped cells run no oracles");
        assert!(second.is_clean());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn on_failure_hook_fires_per_shrunk_failure() {
        let mut seen: Vec<String> = Vec::new();
        let mut on_failure = |f: &Failure| {
            assert!(
                oracles::still_fails(&f.target, f.oracle, &f.shrunk),
                "hook must see the already-shrunk failure"
            );
            seen.push(format!("{}/{}", f.target.name(), f.oracle.id()));
        };
        let report = run_conformance_with(
            &[Target::default_chaos()],
            &quick_config(8),
            ConformHooks {
                on_failure: Some(&mut on_failure),
                ..ConformHooks::default()
            },
        );
        assert!(!report.is_clean());
        let expected: Vec<String> = report
            .failures
            .iter()
            .map(|f| format!("{}/{}", f.target.name(), f.oracle.id()))
            .collect();
        assert_eq!(seen, expected, "exactly one hook call per distinct failure");
    }

    #[test]
    fn reports_are_bit_stable() {
        let a = run_conformance(&[Target::default_chaos()], &quick_config(8));
        let b = run_conformance(&[Target::default_chaos()], &quick_config(8));
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.failures.len(), b.failures.len());
        for (fa, fb) in a.failures.iter().zip(&b.failures) {
            assert_eq!(fa.shrunk, fb.shrunk);
            assert_eq!(fa.seed, fb.seed);
            assert_eq!(fa.occurrences, fb.occurrences);
        }
    }
}
