//! Conformance targets: a real registered scheduler, or a scheduler
//! deliberately wrapped in [`ChaosScheduler`] so the harness can prove it
//! catches injected contract violations.

use fjs_core::faults::{ChaosScheduler, SchedFaultMode};
use fjs_core::job::Instance;
use fjs_core::sim::{
    run_with_config, Clairvoyance, OnlineScheduler, SimConfig, SimOutcome, StaticEnv, TraceMode,
};
use fjs_core::supervise::DEFAULT_WATCHDOG_EVENTS;
use fjs_schedulers::SchedulerKind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The process-wide watchdog budget [`Target::run_on`] applies. The deck
/// instances are tiny, so hitting it means a runaway wakeup loop —
/// reported as a violation, not a hang.
static WATCHDOG_EVENTS: AtomicUsize = AtomicUsize::new(DEFAULT_WATCHDOG_EVENTS);

/// Overrides the watchdog event budget for every subsequent
/// [`Target::run_on`] in this process (the CLI's `--watchdog-events`).
/// Process-global because the budget threads through every oracle and
/// shrinker re-run; set it once before a sweep, not concurrently with one.
pub fn set_watchdog_events(max_events: usize) {
    WATCHDOG_EVENTS.store(max_events, Ordering::Relaxed);
}

/// The watchdog event budget currently in force.
pub fn watchdog_events() -> usize {
    WATCHDOG_EVENTS.load(Ordering::Relaxed)
}

/// What the conformance harness runs and checks.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Target {
    /// A registered scheduler configuration, run at its weakest supported
    /// information model.
    Kind(SchedulerKind),
    /// `inner` wrapped in a [`ChaosScheduler`] injecting `mode` — a
    /// *known-buggy* subject used to self-test the harness.
    Chaos {
        /// The wrapped scheduler.
        inner: SchedulerKind,
        /// The injected fault mode.
        mode: SchedFaultMode,
    },
}

impl Target {
    /// Parses a target name: a registry short name (`batch`, `cdb`, …) or
    /// `chaos:<mode>:<inner>` (e.g. `chaos:drop-starts:batch`).
    pub fn from_name(name: &str) -> Option<Target> {
        if let Some(rest) = name.strip_prefix("chaos:") {
            let (mode_name, inner_name) = rest.split_once(':')?;
            let mode = *SchedFaultMode::ALL
                .iter()
                .find(|m| m.label() == mode_name)?;
            let inner = SchedulerKind::from_short_name(inner_name)?;
            return Some(Target::Chaos { inner, mode });
        }
        SchedulerKind::from_short_name(name).map(Target::Kind)
    }

    /// Stable name, the inverse of [`Target::from_name`].
    pub fn name(&self) -> String {
        match self {
            Target::Kind(k) => k.short_name().to_string(),
            Target::Chaos { inner, mode } => {
                format!("chaos:{}:{}", mode.label(), inner.short_name())
            }
        }
    }

    /// The underlying scheduler kind (the inner one for chaos targets).
    pub fn kind(&self) -> SchedulerKind {
        match *self {
            Target::Kind(k) => k,
            Target::Chaos { inner, .. } => inner,
        }
    }

    /// Whether this is a deliberately faulty harness-self-test target.
    pub fn is_chaos(&self) -> bool {
        matches!(self, Target::Chaos { .. })
    }

    /// The information model the run uses.
    pub fn information_model(&self) -> Clairvoyance {
        self.kind().information_model()
    }

    /// Runs the target on `inst`, optionally recording the full event
    /// trace, under the [`watchdog_events`] budget.
    pub fn run_on(&self, inst: &Instance, record_trace: bool) -> SimOutcome {
        let config = SimConfig {
            max_events: watchdog_events(),
            trace: if record_trace {
                TraceMode::Full
            } else {
                TraceMode::Off
            },
            ..SimConfig::default()
        };
        let env = StaticEnv::new(inst, self.information_model());
        run_with_config(env, self.build(), config)
    }

    /// A fresh instance of the scheduler stack this target runs.
    pub fn build(&self) -> Box<dyn OnlineScheduler> {
        match *self {
            Target::Kind(kind) => kind.build(),
            Target::Chaos { inner, mode } => Box::new(ChaosScheduler::new(inner.build(), mode)),
        }
    }

    /// The default self-test target: Batch wrapped in a start-dropping
    /// chaos layer, which forces deadline starts the engine records as
    /// violations.
    pub fn default_chaos() -> Target {
        Target::Chaos {
            inner: SchedulerKind::Batch,
            mode: SchedFaultMode::DropStarts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in SchedulerKind::registered_set() {
            let t = Target::Kind(kind);
            assert_eq!(Target::from_name(&t.name()), Some(t));
        }
        let c = Target::default_chaos();
        assert_eq!(c.name(), "chaos:drop-starts:batch");
        assert_eq!(Target::from_name(&c.name()), Some(c));
        assert_eq!(Target::from_name("chaos:nope:batch"), None);
        assert_eq!(Target::from_name("bogus"), None);
    }

    #[test]
    fn chaos_target_produces_violations() {
        let inst = Instance::new(vec![
            fjs_core::job::Job::adp(0.0, 2.0, 1.0),
            fjs_core::job::Job::adp(0.0, 3.0, 2.0),
        ]);
        let out = Target::default_chaos().run_on(&inst, false);
        assert!(!out.violations.is_empty(), "drop-starts must force-start");
    }
}
