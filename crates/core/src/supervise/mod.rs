//! Supervised runs: watchdog budgets, panic isolation, deterministic
//! retry with exponential backoff, and a crash-safe checkpoint journal.
//!
//! The simulation engine already degrades through typed errors instead of
//! aborting, but a long sweep needs more: a *poisoned* scheduler that spins
//! forever or panics outright must be contained so the sweep continues, a
//! transient environment fault should be retried rather than failing the
//! whole cell, and a killed process must be able to resume without redoing
//! finished work. [`supervise`] provides the first two, [`journal`] the
//! third.
//!
//! Everything here is deterministic: the retry backoff jitter is drawn from
//! a seeded [`fjs_prng::SmallRng`], the watchdog is an *event* budget (not
//! wall clock), and a finished journal is its sorted entry set — so a
//! supervised sweep is a pure function of its configuration, kills and all.
//!
//! A note on scope: the watchdog bounds *engine events*, which contains
//! every runaway loop expressible through the engine (wakeup storms,
//! re-probe loops). A scheduler that blocks the thread without returning —
//! `loop {}` inside a callback — cannot be preempted from safe Rust; that
//! failure mode needs process-level supervision, which is what the
//! journal's kill-and-resume discipline is for.

pub mod journal;

pub use journal::{
    AppendLog, Cell, CellResult, Journal, JournalError, Record, DEFAULT_SYNC_EVERY, JOURNAL_VERSION,
};

use crate::job::JobId;
use crate::sim::{
    run_with_config, Arrival, Ctx, EnvFault, Environment, OnlineScheduler, SimConfig, SimOutcome,
    Termination,
};
use fjs_prng::SmallRng;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default watchdog event budget: generous for real schedulers on sweep
/// instances, tight enough to cut off a wakeup storm in well under a second.
pub const DEFAULT_WATCHDOG_EVENTS: usize = 1_000_000;

/// Deterministic exponential-backoff retry policy for transient
/// environment faults (see [`EnvFault::is_transient`]).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RetryPolicy {
    /// Maximum number of retries after the first attempt.
    pub max_retries: u32,
    /// Base delay; attempt `k` backs off `base_delay_ms · 2^k`, jittered.
    pub base_delay_ms: u64,
    /// Jitter half-width as a fraction of the delay: the realized delay is
    /// uniform in `[(1 − f)·d, (1 + f)·d]`.
    pub jitter_frac: f64,
    /// Seed for the jitter stream; same seed → same ledger.
    pub seed: u64,
    /// Whether to actually sleep the backoff delay. Off by default so
    /// simulated sweeps stay fast; the ledger records the delay either way.
    pub sleep: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay_ms: 25,
            jitter_frac: 0.5,
            seed: 0x5EED_BACC_0FF5_EED5,
            sleep: false,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff delay for retry number `attempt` (0-based),
    /// drawing jitter from `rng`.
    pub fn backoff_ms(&self, attempt: u32, rng: &mut SmallRng) -> u64 {
        let base = self
            .base_delay_ms
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        let f = self.jitter_frac.clamp(0.0, 1.0);
        let factor = 1.0 + f * (2.0 * rng.f64_unit() - 1.0);
        ((base as f64) * factor).round().max(0.0) as u64
    }
}

/// Configuration for [`supervise`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SuperviseConfig {
    /// Watchdog: the run is cut off after this many engine events and
    /// reported as [`Verdict::TimedOut`].
    pub watchdog_events: usize,
    /// Retry policy for transient environment faults.
    pub retry: RetryPolicy,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            watchdog_events: DEFAULT_WATCHDOG_EVENTS,
            retry: RetryPolicy::default(),
        }
    }
}

/// One retry the supervisor spent, recorded in the ledger.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RetryRecord {
    /// 0-based index of the attempt that faulted.
    pub attempt: u32,
    /// The transient fault that triggered the retry.
    pub fault: EnvFault,
    /// The (jittered) backoff delay charged before the next attempt.
    pub backoff_ms: u64,
}

/// How a supervised run or a served session ended: one verdict for the
/// sweep supervisor and `fjs serve` sessions, with stable labels.
#[derive(Clone, PartialEq, Debug)]
pub enum Verdict {
    /// The run drained naturally: every admitted job started and completed.
    Completed,
    /// The watchdog event budget cut the run off (runaway scheduler or
    /// environment loop).
    TimedOut {
        /// Events processed when the budget ran out.
        events: usize,
    },
    /// The scheduler (or environment) panicked; the panic was contained.
    Panicked {
        /// The panic payload, rendered.
        message: String,
    },
    /// A simulation fault: for [`supervise`], a non-transient environment
    /// fault or a transient one that survived every retry (the typed
    /// [`EnvFault`] stays in the outcome's [`Termination`]); for a session,
    /// a horizon overflow; for a chaos-matrix cell, also a completed run
    /// whose schedule breaks an engine guarantee.
    Faulted {
        /// The fault, rendered.
        message: String,
    },
}

impl Verdict {
    /// Stable lowercase label (used in journals, replies and reports).
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Completed => "completed",
            Verdict::TimedOut { .. } => "timed-out",
            Verdict::Panicked { .. } => "panicked",
            Verdict::Faulted { .. } => "faulted",
        }
    }

    /// Whether the run drained naturally.
    pub fn is_completed(&self) -> bool {
        matches!(self, Verdict::Completed)
    }
}

impl From<Termination> for Verdict {
    /// The one mapping from how a run stopped to its verdict.
    fn from(termination: Termination) -> Self {
        match termination {
            Termination::Completed => Verdict::Completed,
            Termination::EventCapExhausted { events } => Verdict::TimedOut { events },
            Termination::EnvironmentFault(fault) => Verdict::Faulted {
                message: fault.to_string(),
            },
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Completed => f.write_str("completed"),
            Verdict::TimedOut { events } => write!(f, "timed-out after {events} events"),
            Verdict::Panicked { message } => write!(f, "panicked: {message}"),
            Verdict::Faulted { message } => write!(f, "faulted: {message}"),
        }
    }
}

/// Runs `f` under [`catch_unwind`]; a panic becomes [`Verdict::Panicked`]
/// with the rendered payload. Every contained panic, in [`supervise`] and in
/// served sessions, becomes a verdict here.
pub fn contain_panic<T>(f: impl FnOnce() -> Result<T, Verdict>) -> Result<T, Verdict> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(Verdict::Panicked {
            message: panic_message(payload.as_ref()),
        })
    })
}

/// The outcome of a supervised run.
#[derive(Debug)]
pub struct Supervised {
    /// The typed verdict.
    pub verdict: Verdict,
    /// The engine outcome of the final attempt. `None` only for
    /// [`Verdict::Panicked`] (the unwound attempt's state is gone).
    pub outcome: Option<SimOutcome>,
    /// Attempts made (1 + retries taken).
    pub attempts: u32,
    /// The retry ledger, in order.
    pub retries: Vec<RetryRecord>,
}

/// Runs a scheduler under supervision.
///
/// `factory` builds a fresh `(environment, scheduler)` pair for attempt `k`
/// (0-based) — retries must not reuse consumed state. Each attempt runs
/// with the watchdog event budget under [`contain_panic`], so a poisoned
/// subject is reported as a typed verdict instead of killing the caller:
///
/// * panic → [`Verdict::Panicked`] (payload rendered);
/// * a transient fault ([`EnvFault::is_transient`]) with retries left →
///   retried with exponential backoff, every retry logged in the ledger;
/// * otherwise → the [`Verdict`] of the run's [`Termination`]: drained,
///   budget exhausted or faulted.
pub fn supervise<E, S>(
    mut factory: impl FnMut(u32) -> (E, S),
    config: &SuperviseConfig,
) -> Supervised
where
    E: Environment,
    S: OnlineScheduler,
{
    let sim = SimConfig {
        max_events: config.watchdog_events,
        ..SimConfig::default()
    };
    let mut rng = SmallRng::seed_from_u64(config.retry.seed);
    let mut retries: Vec<RetryRecord> = Vec::new();
    let mut attempt: u32 = 0;
    loop {
        let (env, sched) = factory(attempt);
        let (verdict, outcome) = match contain_panic(|| Ok(run_with_config(env, sched, sim))) {
            Ok(outcome) => match outcome.termination {
                Termination::EnvironmentFault(fault)
                    if fault.is_transient() && attempt < config.retry.max_retries =>
                {
                    let backoff_ms = config.retry.backoff_ms(attempt, &mut rng);
                    retries.push(RetryRecord {
                        attempt,
                        fault,
                        backoff_ms,
                    });
                    if config.retry.sleep && backoff_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                    }
                    attempt += 1;
                    continue;
                }
                termination => (termination.into(), Some(outcome)),
            },
            Err(verdict) => (verdict, None),
        };
        break Supervised {
            verdict,
            outcome,
            attempts: attempt + 1,
            retries,
        };
    }
}

/// Renders a panic payload: the `&str`/`String` message when there is one.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` with the global panic hook silenced, restoring it afterwards.
///
/// Sweeps that *expect* contained panics (chaos matrices, poisoned-subject
/// soaks) use this so each caught panic doesn't spray a backtrace banner
/// over the report. The hook is global process state: don't wrap code that
/// runs concurrently with panics the user *does* want reported.
pub fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f();
    std::panic::set_hook(previous);
    result
}

/// How a [`PoisonedScheduler`] misbehaves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PoisonMode {
    /// Panics on the first arrival.
    PanicOnArrival,
    /// Spins an unbounded same-instant wakeup loop — the engine-level
    /// analogue of a hang, contained by the watchdog event budget.
    HangWakeups,
}

impl PoisonMode {
    /// All poison modes.
    pub const ALL: [PoisonMode; 2] = [PoisonMode::PanicOnArrival, PoisonMode::HangWakeups];

    /// Stable label (`panic`, `hang`), the inverse of [`PoisonMode::from_label`].
    pub fn label(&self) -> &'static str {
        match self {
            PoisonMode::PanicOnArrival => "panic",
            PoisonMode::HangWakeups => "hang",
        }
    }

    /// Parses a label produced by [`PoisonMode::label`].
    pub fn from_label(label: &str) -> Option<PoisonMode> {
        PoisonMode::ALL.iter().copied().find(|m| m.label() == label)
    }
}

/// The wakeup token the hang poison spins on.
const POISON_TOKEN: u64 = u64::MAX - 0xB0;

/// A deliberately poisoned scheduler used to prove the watchdog contains
/// hung and panicking subjects (the supervision analogue of
/// [`crate::faults::ChaosScheduler`], which injects *contract* violations
/// rather than liveness failures).
pub struct PoisonedScheduler<S> {
    inner: S,
    mode: PoisonMode,
}

impl<S: OnlineScheduler> PoisonedScheduler<S> {
    /// Wraps `inner` with the given poison.
    pub fn new(inner: S, mode: PoisonMode) -> Self {
        PoisonedScheduler { inner, mode }
    }
}

impl<S: OnlineScheduler> OnlineScheduler for PoisonedScheduler<S> {
    fn name(&self) -> String {
        format!("Poisoned[{}]({})", self.mode.label(), self.inner.name())
    }

    fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
        match self.mode {
            PoisonMode::PanicOnArrival => {
                panic!(
                    "poisoned scheduler: injected panic on arrival of {}",
                    job.id
                )
            }
            PoisonMode::HangWakeups => {
                ctx.wake_at(ctx.now(), POISON_TOKEN);
                self.inner.on_arrival(job, ctx);
            }
        }
    }

    fn on_deadline(&mut self, id: JobId, ctx: &mut Ctx<'_>) {
        self.inner.on_deadline(id, ctx);
    }

    fn on_completion(&mut self, id: JobId, length: crate::time::Dur, ctx: &mut Ctx<'_>) {
        self.inner.on_completion(id, length, ctx);
    }

    fn on_wakeup(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if token == POISON_TOKEN {
            // Re-arm forever: the event budget, not this loop, ends the run.
            ctx.wake_at(ctx.now(), POISON_TOKEN);
        } else {
            self.inner.on_wakeup(token, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Instance, Job};
    use crate::sim::{Clairvoyance, StaticEnv, World};
    use crate::time::{t, Time};

    /// Starts every job the moment it arrives.
    struct Eager;
    impl OnlineScheduler for Eager {
        fn name(&self) -> String {
            "Eager".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            ctx.start(job.id);
        }
        fn on_deadline(&mut self, id: JobId, ctx: &mut Ctx<'_>) {
            ctx.start(id);
        }
    }

    fn small_instance() -> Instance {
        Instance::new(vec![Job::adp(0.0, 2.0, 1.0), Job::adp(1.0, 4.0, 2.0)])
    }

    /// A `StaticEnv` wrapper that reports a bogus past release time on the
    /// first `fail_for` attempts' first query — a transient
    /// `ReleaseInPast` fault.
    struct Flaky {
        inner: StaticEnv,
        poisoned: bool,
    }
    impl Environment for Flaky {
        fn clairvoyance(&self) -> Clairvoyance {
            self.inner.clairvoyance()
        }
        fn next_release_time(&mut self, world: &World) -> Option<Time> {
            if self.poisoned {
                return Some(t(-1.0));
            }
            self.inner.next_release_time(world)
        }
        fn release_at(&mut self, now: Time, world: &World) -> Vec<crate::sim::JobSpec> {
            self.inner.release_at(now, world)
        }
    }

    fn flaky_factory(fail_for: u32) -> impl FnMut(u32) -> (Flaky, Eager) {
        move |attempt| {
            let inner = StaticEnv::new(&small_instance(), Clairvoyance::Clairvoyant);
            (
                Flaky {
                    inner,
                    poisoned: attempt < fail_for,
                },
                Eager,
            )
        }
    }

    #[test]
    fn clean_run_completes_first_attempt() {
        let sup = supervise(flaky_factory(0), &SuperviseConfig::default());
        assert!(sup.verdict.is_completed(), "{}", sup.verdict);
        assert_eq!(sup.attempts, 1);
        assert!(sup.retries.is_empty());
        let outcome = sup.outcome.expect("completed runs carry an outcome");
        assert!(outcome.is_feasible());
    }

    #[test]
    fn transient_faults_are_retried_with_ledger() {
        let sup = supervise(flaky_factory(2), &SuperviseConfig::default());
        assert!(sup.verdict.is_completed(), "{}", sup.verdict);
        assert_eq!(sup.attempts, 3);
        assert_eq!(sup.retries.len(), 2);
        for (i, r) in sup.retries.iter().enumerate() {
            assert_eq!(r.attempt, i as u32);
            assert!(matches!(r.fault, EnvFault::ReleaseInPast { .. }));
            // Exponential envelope with ±50% jitter around 25·2^k.
            let nominal = 25u64 << r.attempt;
            assert!(
                r.backoff_ms >= nominal / 2 && r.backoff_ms <= nominal * 3 / 2,
                "backoff {} outside envelope of {nominal}",
                r.backoff_ms
            );
        }
    }

    #[test]
    fn retries_exhausted_is_faulted() {
        let config = SuperviseConfig {
            retry: RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default()
            },
            ..SuperviseConfig::default()
        };
        let sup = supervise(flaky_factory(10), &config);
        assert!(matches!(sup.verdict, Verdict::Faulted { .. }));
        assert!(matches!(
            sup.outcome.as_ref().map(|o| &o.termination),
            Some(Termination::EnvironmentFault(
                EnvFault::ReleaseInPast { .. }
            ))
        ));
        assert_eq!(sup.attempts, 2);
        assert_eq!(sup.retries.len(), 1);
        assert_eq!(sup.verdict.label(), "faulted");
        assert!(
            sup.outcome.is_some(),
            "faulted runs keep the partial outcome"
        );
    }

    #[test]
    fn retry_ledger_is_deterministic() {
        let a = supervise(flaky_factory(3), &SuperviseConfig::default());
        let b = supervise(flaky_factory(3), &SuperviseConfig::default());
        assert_eq!(a.retries, b.retries);

        let other_seed = SuperviseConfig {
            retry: RetryPolicy {
                seed: 99,
                ..RetryPolicy::default()
            },
            ..SuperviseConfig::default()
        };
        let c = supervise(flaky_factory(3), &other_seed);
        assert_ne!(
            a.retries.iter().map(|r| r.backoff_ms).collect::<Vec<_>>(),
            c.retries.iter().map(|r| r.backoff_ms).collect::<Vec<_>>(),
            "different jitter seed must move the delays"
        );
    }

    #[test]
    fn panicking_scheduler_is_contained() {
        let sup = with_quiet_panics(|| {
            supervise(
                |_| {
                    let env = StaticEnv::new(&small_instance(), Clairvoyance::Clairvoyant);
                    (
                        env,
                        PoisonedScheduler::new(Eager, PoisonMode::PanicOnArrival),
                    )
                },
                &SuperviseConfig::default(),
            )
        });
        match &sup.verdict {
            Verdict::Panicked { message } => {
                assert!(message.contains("injected panic"), "{message}");
            }
            other => panic!("expected Panicked, got {other}"),
        }
        assert_eq!(sup.verdict.label(), "panicked");
        assert_eq!(sup.attempts, 1, "panics are not retried");
    }

    #[test]
    fn hanging_scheduler_hits_watchdog() {
        let config = SuperviseConfig {
            watchdog_events: 5_000,
            ..SuperviseConfig::default()
        };
        let sup = supervise(
            |_| {
                let env = StaticEnv::new(&small_instance(), Clairvoyance::Clairvoyant);
                (env, PoisonedScheduler::new(Eager, PoisonMode::HangWakeups))
            },
            &config,
        );
        match sup.verdict {
            Verdict::TimedOut { events } => assert_eq!(events, 5_000),
            ref other => panic!("expected TimedOut, got {other}"),
        }
        assert!(
            sup.outcome.is_some(),
            "timed-out runs keep the partial outcome"
        );
    }

    #[test]
    fn poison_mode_labels_round_trip() {
        for mode in PoisonMode::ALL {
            assert_eq!(PoisonMode::from_label(mode.label()), Some(mode));
        }
        assert_eq!(PoisonMode::from_label("nope"), None);
    }
}
