//! Fault-injection verdict matrix: every registered scheduler against every
//! environment and scheduler fault mode.
//!
//! Each cell runs one scheduler under one fault through [`supervise`], with
//! no retries, and gets its [`Verdict`]:
//!
//! * **completed** — the run drained, the reported schedule validates
//!   against the materialized instance, and every job was started;
//! * **faulted** — the engine flagged the (legal) job stream as faulty, or
//!   the run drained but broke one of those guarantees (an invalid or
//!   incomplete schedule);
//! * **timed-out** — the watchdog event budget cut off a runaway loop;
//! * **panicked** — the engine or scheduler panicked. The engine's contract
//!   is that faults surface as typed degradation, so any panic is a bug.
//!
//! Environment-fault cells wrap the base instance in a
//! [`FaultyEnvironment`], which injects contract-*legal* pathological job
//! streams (zero-laxity bursts, equal-timestamp storms, extreme `μ`,
//! deferred rulings, dense releases, precision loss). Scheduler-fault cells
//! wrap the scheduler in a [`ChaosScheduler`], which perturbs its actions
//! into contract-*illegal* ones; the engine must absorb those as
//! [`RejectedAction`](fjs_core::sim::RejectedAction)s and still complete
//! every job. Schedulers run at their weakest supported information model,
//! exactly as in experiments.

use fjs_core::faults::{ChaosScheduler, EnvFaultMode, FaultyEnvironment, SchedFaultMode};
use fjs_core::job::{Instance, Job};
use fjs_core::sim::{Environment, OnlineScheduler, SimOutcome, StaticEnv};
use fjs_core::supervise::{supervise, RetryPolicy, SuperviseConfig, Verdict};

use crate::registry::SchedulerKind;

/// One cell of the chaos matrix.
#[derive(Clone, Debug)]
pub struct ChaosCell {
    /// Scheduler label (registry display name).
    pub scheduler: String,
    /// Fault label (`env:` or `sched:` prefixed kebab-case mode name).
    pub fault: String,
    /// How the cell's run ended.
    pub verdict: Verdict,
}

/// The full verdict matrix plus summary accessors.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// All cells, grouped by scheduler in registry order.
    pub cells: Vec<ChaosCell>,
}

impl ChaosReport {
    /// Cells that did not pass.
    pub fn failures(&self) -> Vec<&ChaosCell> {
        self.cells
            .iter()
            .filter(|c| !c.verdict.is_completed())
            .collect()
    }

    /// `true` when every cell passed.
    pub fn is_clean(&self) -> bool {
        self.cells.iter().all(|c| c.verdict.is_completed())
    }

    /// The distinct fault labels in matrix column order.
    pub fn fault_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = Vec::new();
        for c in &self.cells {
            if !labels.contains(&c.fault) {
                labels.push(c.fault.clone());
            }
        }
        labels
    }

    /// The distinct scheduler labels in matrix row order.
    pub fn scheduler_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = Vec::new();
        for c in &self.cells {
            if !labels.contains(&c.scheduler) {
                labels.push(c.scheduler.clone());
            }
        }
        labels
    }
}

/// Base instance every cell starts from: a small mixed-laxity workload with
/// simultaneous arrivals, a rigid job and a wide-window straggler, so the
/// injected faults land on non-trivial scheduler state.
pub fn chaos_base_instance() -> Instance {
    Instance::new(vec![
        Job::adp(0.0, 2.0, 1.0),
        Job::adp(0.0, 0.0, 2.0),
        Job::adp(0.5, 4.0, 0.5),
        Job::adp(1.0, 1.0, 1.0),
        Job::adp(1.0, 9.0, 3.0),
        Job::adp(2.5, 6.0, 1.5),
    ])
}

/// The matrix's oracle on a drained run: every length ruled, every job
/// started, and a schedule that validates against the instance.
fn guarantee_broken(outcome: &SimOutcome) -> Option<String> {
    if !outcome.unresolved.is_empty() {
        return Some(format!(
            "{} job lengths left unruled",
            outcome.unresolved.len()
        ));
    }
    if !outcome.schedule.is_complete() {
        return Some("schedule is missing job starts".into());
    }
    outcome
        .schedule
        .validate(&outcome.instance)
        .err()
        .map(|e| format!("invalid schedule: {e}"))
}

/// Runs one cell under [`supervise`] with the given event budget and no
/// retries: a retried transient fault would hide that the engine flagged
/// a legal job stream as faulty.
fn run_cell<E: Environment, S: OnlineScheduler>(
    max_events: usize,
    factory: impl FnMut(u32) -> (E, S),
) -> Verdict {
    let config = SuperviseConfig {
        watchdog_events: max_events,
        retry: RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        },
    };
    let sup = supervise(factory, &config);
    let broken = sup
        .outcome
        .as_ref()
        .filter(|_| sup.verdict.is_completed())
        .and_then(guarantee_broken);
    match broken {
        Some(message) => Verdict::Faulted { message },
        None => sup.verdict,
    }
}

/// Runs the full fault matrix for the given kinds (typically
/// [`SchedulerKind::registered_set`]): per kind, all [`EnvFaultMode`]s,
/// then all [`SchedFaultMode`]s, each cell under a watchdog budget of
/// `max_events` engine events (`--watchdog-events`, default
/// [`DEFAULT_WATCHDOG_EVENTS`](fjs_core::supervise::DEFAULT_WATCHDOG_EVENTS)).
pub fn run_chaos_matrix(kinds: &[SchedulerKind], max_events: usize) -> ChaosReport {
    let base = chaos_base_instance();
    let mut report = ChaosReport::default();
    for &kind in kinds {
        let model = kind.information_model();
        let mut push = |fault: String, verdict: Verdict| {
            report.cells.push(ChaosCell {
                scheduler: kind.label(),
                fault,
                verdict,
            })
        };
        for mode in EnvFaultMode::ALL {
            let verdict = run_cell(max_events, |_| {
                let env = FaultyEnvironment::new(StaticEnv::new(&base, model), mode);
                (env, kind.build())
            });
            push(format!("env:{}", mode.label()), verdict);
        }
        for mode in SchedFaultMode::ALL {
            let verdict = run_cell(max_events, |_| {
                let env = StaticEnv::new(&base, model);
                (env, ChaosScheduler::new(kind.build(), mode))
            });
            push(format!("sched:{}", mode.label()), verdict);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fjs_core::supervise::DEFAULT_WATCHDOG_EVENTS;

    #[test]
    fn base_instance_is_nontrivial() {
        let inst = chaos_base_instance();
        assert!(inst.len() >= 6);
        // Mixed laxity: at least one rigid and one flexible job.
        assert!(inst.jobs().iter().any(|j| j.laxity().get() == 0.0));
        assert!(inst.jobs().iter().any(|j| j.laxity().get() > 1.0));
    }

    #[test]
    fn full_matrix_is_clean() {
        let report = run_chaos_matrix(&SchedulerKind::registered_set(), DEFAULT_WATCHDOG_EVENTS);
        let expected = SchedulerKind::registered_set().len()
            * (EnvFaultMode::ALL.len() + SchedFaultMode::ALL.len());
        assert_eq!(report.cells.len(), expected);
        let failures: Vec<String> = report
            .failures()
            .iter()
            .map(|c| format!("{} × {} → {:?}", c.scheduler, c.fault, c.verdict))
            .collect();
        assert!(
            report.is_clean(),
            "chaos failures:\n{}",
            failures.join("\n")
        );
    }

    #[test]
    fn report_axes_cover_the_matrix() {
        let report = run_chaos_matrix(
            &[SchedulerKind::Eager, SchedulerKind::Lazy],
            DEFAULT_WATCHDOG_EVENTS,
        );
        assert_eq!(report.scheduler_labels().len(), 2);
        assert_eq!(
            report.fault_labels().len(),
            EnvFaultMode::ALL.len() + SchedFaultMode::ALL.len()
        );
    }

    #[test]
    fn a_panicking_scheduler_is_reported_not_propagated() {
        struct Exploder;
        impl fjs_core::sim::OnlineScheduler for Exploder {
            fn name(&self) -> String {
                "exploder".into()
            }
            fn on_arrival(
                &mut self,
                _job: fjs_core::sim::Arrival,
                _ctx: &mut fjs_core::sim::Ctx<'_>,
            ) {
                panic!("scheduler exploded");
            }
            fn on_deadline(
                &mut self,
                _id: fjs_core::job::JobId,
                _ctx: &mut fjs_core::sim::Ctx<'_>,
            ) {
            }
        }
        let base = chaos_base_instance();
        let verdict = run_cell(DEFAULT_WATCHDOG_EVENTS, |_| {
            let env = StaticEnv::new(&base, fjs_core::sim::Clairvoyance::NonClairvoyant);
            (env, Exploder)
        });
        match verdict {
            Verdict::Panicked { message } => assert!(message.contains("exploded")),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    /// A runaway cell is cut off by the watchdog and reported, not looped
    /// on: at a 50-event budget only the wakeup storm outruns it.
    #[test]
    fn a_runaway_cell_is_reported_timed_out() {
        let report = run_chaos_matrix(&[SchedulerKind::Eager], 50);
        let failures: Vec<(&str, &Verdict)> = report
            .failures()
            .iter()
            .map(|c| (c.fault.as_str(), &c.verdict))
            .collect();
        assert_eq!(
            failures,
            vec![("sched:wakeup-storm", &Verdict::TimedOut { events: 50 })]
        );
    }
}
