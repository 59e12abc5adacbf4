//! Fault-injection verdict matrix: every registered scheduler against every
//! environment and scheduler fault mode.
//!
//! Each cell runs one scheduler under one fault inside
//! `std::panic::catch_unwind` and classifies the result:
//!
//! * **pass** — the run terminated [`Termination::Completed`], the reported
//!   schedule validates against the materialized instance, and every job was
//!   started;
//! * **unsound** — the run finished but broke one of those guarantees
//!   (typed environment-fault termination, event-cap runaway, an invalid or
//!   incomplete schedule);
//! * **panic** — the engine or scheduler panicked. The engine's contract is
//!   that faults surface as typed degradation, so any panic is a bug.
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
use fjs_core::sim::{run_with_config, SimConfig, SimOutcome, StaticEnv, Termination};
use fjs_core::supervise::panic_message;

use crate::registry::SchedulerKind;

/// Default event budget per cell. Generous for these tiny instances —
/// hundreds of events are typical — so hitting it means a runaway feedback
/// loop, which the harness reports as unsound rather than looping for
/// minutes. Override with [`run_chaos_matrix_with`] (`--watchdog-events`).
pub const CHAOS_MAX_EVENTS: usize = 1_000_000;

/// How one (scheduler, fault) cell ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Clean completion with a valid, complete schedule.
    Pass,
    /// The run finished but broke an engine guarantee; the message says
    /// which one.
    Unsound(String),
    /// The run panicked; the message is the panic payload when printable.
    Panicked(String),
}

impl Verdict {
    /// `true` only for [`Verdict::Pass`].
    pub fn is_pass(&self) -> bool {
        matches!(self, Verdict::Pass)
    }

    /// Short cell label for tables: `pass`, `UNSOUND`, `PANIC`.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Unsound(_) => "UNSOUND",
            Verdict::Panicked(_) => "PANIC",
        }
    }
}

/// One cell of the chaos matrix.
#[derive(Clone, Debug)]
pub struct ChaosCell {
    /// Scheduler label (registry display name).
    pub scheduler: String,
    /// Fault label (`env:` or `sched:` prefixed kebab-case mode name).
    pub fault: String,
    /// Outcome classification.
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
        self.cells.iter().filter(|c| !c.verdict.is_pass()).collect()
    }

    /// `true` when every cell passed.
    pub fn is_clean(&self) -> bool {
        self.cells.iter().all(|c| c.verdict.is_pass())
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

fn classify(outcome: &SimOutcome) -> Verdict {
    match &outcome.termination {
        Termination::Completed => {}
        Termination::EventCapExhausted { events } => {
            return Verdict::Unsound(format!("runaway: event cap hit after {events} events"));
        }
        Termination::EnvironmentFault(fault) => {
            return Verdict::Unsound(format!(
                "engine flagged a legal job stream as faulty: {fault}"
            ));
        }
    }
    if !outcome.unresolved.is_empty() {
        return Verdict::Unsound(format!(
            "{} job lengths left unruled",
            outcome.unresolved.len()
        ));
    }
    if !outcome.schedule.is_complete() {
        return Verdict::Unsound("schedule is missing job starts".into());
    }
    if let Err(e) = outcome.schedule.validate(&outcome.instance) {
        return Verdict::Unsound(format!("invalid schedule: {e}"));
    }
    Verdict::Pass
}

fn run_cell(f: impl FnOnce() -> SimOutcome + std::panic::UnwindSafe) -> Verdict {
    match std::panic::catch_unwind(f) {
        Ok(outcome) => classify(&outcome),
        Err(payload) => Verdict::Panicked(panic_message(payload.as_ref())),
    }
}

/// Runs the full fault matrix for one scheduler kind: all
/// [`EnvFaultMode`]s, then all [`SchedFaultMode`]s, at the default
/// [`CHAOS_MAX_EVENTS`] watchdog budget.
pub fn run_chaos_for(kind: SchedulerKind) -> Vec<ChaosCell> {
    run_chaos_for_with(kind, CHAOS_MAX_EVENTS)
}

/// [`run_chaos_for`] with an explicit watchdog event budget per cell.
pub fn run_chaos_for_with(kind: SchedulerKind, max_events: usize) -> Vec<ChaosCell> {
    let base = chaos_base_instance();
    let model = kind.information_model();
    let config = SimConfig {
        max_events,
        ..SimConfig::default()
    };
    let scheduler = kind.label();
    let mut cells = Vec::with_capacity(EnvFaultMode::ALL.len() + SchedFaultMode::ALL.len());

    for mode in EnvFaultMode::ALL {
        let verdict = run_cell(|| {
            let env = FaultyEnvironment::new(StaticEnv::new(&base, model), mode);
            run_with_config(env, kind.build(), config)
        });
        cells.push(ChaosCell {
            scheduler: scheduler.clone(),
            fault: format!("env:{}", mode.label()),
            verdict,
        });
    }

    for mode in SchedFaultMode::ALL {
        let verdict = run_cell(|| {
            let env = StaticEnv::new(&base, model);
            run_with_config(env, ChaosScheduler::new(kind.build(), mode), config)
        });
        cells.push(ChaosCell {
            scheduler: scheduler.clone(),
            fault: format!("sched:{}", mode.label()),
            verdict,
        });
    }

    cells
}

/// Runs the matrix for the given kinds (typically
/// [`SchedulerKind::registered_set`]) at the default watchdog budget.
pub fn run_chaos_matrix(kinds: &[SchedulerKind]) -> ChaosReport {
    run_chaos_matrix_with(kinds, CHAOS_MAX_EVENTS)
}

/// [`run_chaos_matrix`] with an explicit watchdog event budget per cell.
pub fn run_chaos_matrix_with(kinds: &[SchedulerKind], max_events: usize) -> ChaosReport {
    let mut report = ChaosReport::default();
    for &kind in kinds {
        report.cells.extend(run_chaos_for_with(kind, max_events));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let report = run_chaos_matrix(&SchedulerKind::registered_set());
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
        let report = run_chaos_matrix(&[SchedulerKind::Eager, SchedulerKind::Lazy]);
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
        let verdict = run_cell(|| {
            let env = StaticEnv::new(&base, fjs_core::sim::Clairvoyance::NonClairvoyant);
            run_with_config(
                env,
                Exploder,
                SimConfig {
                    max_events: CHAOS_MAX_EVENTS,
                    ..SimConfig::default()
                },
            )
        });
        match verdict {
            Verdict::Panicked(msg) => assert!(msg.contains("exploded")),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }
}
