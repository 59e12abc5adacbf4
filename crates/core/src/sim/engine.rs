//! The event-driven simulation engine.
//!
//! Drives an [`OnlineScheduler`] against an [`Environment`] and produces a
//! [`SimOutcome`]: the materialized instance, the schedule, its span, and
//! any feasibility violations.
//!
//! # Event ordering
//!
//! Multiple events may share a timestamp; they are processed in a fixed kind
//! order chosen to match the paper's semantics of half-open active intervals
//! `[s, s+p)`:
//!
//! 1. **Completions** — a job is *not* running at its completion instant, so
//!    completions precede everything else (e.g. the Theorem 3.3 adversary
//!    releases iteration `i+1` exactly at the earmarked job's completion,
//!    and those arrivals must observe the job as finished).
//! 2. **Releases** — arrivals at this instant.
//! 3. **Ordered starts** — `Ctx::start_at` commitments falling due.
//! 4. **Length probes** — deferred adaptive-length rulings.
//! 5. **Deadline alarms** — last-chance notifications for pending jobs.
//! 6. **Wakeups** — scheduler-requested callbacks.
//!
//! Within a kind, ties break by insertion sequence (FIFO), which makes runs
//! fully deterministic.
//!
//! # Batch runs and sessions
//!
//! [`run_with_config`] drives the loop until no event is left. A resident
//! [`Session`](crate::service::Session) drives the same steps one offer at
//! a time, so both follow this order by construction.

use crate::interval::RunningSpan;
use crate::job::{Instance, JobId};
use crate::schedule::Schedule;
use crate::service::{Decision, DecisionKind};
use crate::sim::env::{Clairvoyance, Environment, JobSpec, LengthRuling, LengthSpec};
use crate::sim::sched::{Action, Arrival, Ctx, OnlineScheduler};
use crate::sim::stats::RunStats;
use crate::sim::trace::{TraceEvent, TraceKind, TraceMode};
use crate::sim::world::World;
use crate::time::{Dur, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::time::Instant;

/// Engine limits and options.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Hard cap on processed events (guards against runaway adaptive
    /// environments or scheduler wakeup loops).
    pub max_events: usize,
    /// What to record into the outcome's [`TraceEvent`] log: nothing (the
    /// default) or the full chronology. See [`TraceMode`].
    pub trace: TraceMode,
    /// Measure wall-clock time spent inside scheduler callbacks and
    /// environment oracles ([`RunStats::wall_scheduler_s`] /
    /// [`RunStats::wall_environment_s`]). Costs two monotonic-clock reads
    /// per event, so it is off by default; counters are always collected.
    pub time_phases: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_events: 50_000_000,
            trace: TraceMode::Off,
            time_phases: false,
        }
    }
}

/// A feasibility violation: the scheduler let a pending job pass its
/// starting deadline. The engine force-starts the job at the deadline so the
/// run can continue, but correct schedulers must never trigger this.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Violation {
    /// The job that was not started in time.
    pub id: JobId,
    /// The deadline at which the engine force-started it.
    pub at: Time,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} missed its starting deadline at {}",
            self.id, self.at
        )
    }
}

/// How a simulation run ended.
///
/// Every run — even one driven by a hostile environment or a misbehaving
/// scheduler — produces a [`SimOutcome`]; this status says whether the
/// outcome covers the full instance or is a partial schedule cut short by a
/// resource cap or an environment contract breach.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Termination {
    /// All events drained; the schedule is complete.
    Completed,
    /// The [`SimConfig::max_events`] budget ran out (runaway environment or
    /// scheduler wakeup loop). The outcome carries the partial schedule at
    /// the moment the cap tripped.
    EventCapExhausted {
        /// Events processed (equals the configured cap).
        events: usize,
    },
    /// The environment broke its contract; the run stopped at the breach
    /// with the partial schedule accumulated so far.
    EnvironmentFault(EnvFault),
}

impl Termination {
    /// Whether the run drained naturally.
    pub fn is_completed(&self) -> bool {
        matches!(self, Termination::Completed)
    }
}

impl fmt::Display for Termination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Termination::Completed => write!(f, "completed"),
            Termination::EventCapExhausted { events } => {
                write!(f, "event cap exhausted after {events} events")
            }
            Termination::EnvironmentFault(e) => write!(f, "environment fault: {e}"),
        }
    }
}

/// A breach of the [`Environment`] contract, detected and reported instead
/// of aborting the process.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum EnvFault {
    /// `next_release_time` returned a time before the current instant.
    ReleaseInPast {
        /// The time the environment asked for.
        scheduled: Time,
        /// The simulation clock when it asked.
        now: Time,
    },
    /// A released job's starting deadline precedes its arrival.
    DeadlineBeforeArrival {
        /// The release instant (= arrival).
        arrival: Time,
        /// The offending deadline.
        deadline: Time,
    },
    /// A released job has a zero or negative fixed length.
    NonPositiveLength {
        /// The offending length.
        length: Dur,
    },
    /// An `Adaptive` length was released in a run that reveals lengths (or
    /// length classes) at arrival — there is nothing coherent to reveal.
    AdaptiveUnderClairvoyance,
    /// `rule_length` assigned a zero or negative length.
    RuledNonPositiveLength {
        /// The job whose length was ruled.
        id: JobId,
        /// The offending length.
        length: Dur,
    },
    /// `rule_length` assigned a length whose completion lies before the
    /// ruling instant (the job would have to finish in the past).
    RulingInPast {
        /// The job whose length was ruled.
        id: JobId,
        /// The implied completion time.
        completion: Time,
        /// The ruling instant.
        now: Time,
    },
    /// `rule_length` deferred to a time that is not in the future.
    ProbeNotDeferred {
        /// The job being probed.
        id: JobId,
        /// The non-advancing ask-again time.
        at: Time,
    },
    /// A start or ruling pushed a completion time beyond the finite `f64`
    /// range (degenerate timestamps on the order of `f64::MAX`).
    HorizonOverflow {
        /// The job whose completion overflowed.
        id: JobId,
        /// Its start.
        start: Time,
        /// Its length.
        length: Dur,
    },
}

impl EnvFault {
    /// Whether a retry with a fresh environment could plausibly succeed.
    ///
    /// Transient faults are the clock-skew-shaped ones — a release or
    /// ruling that landed "in the past", or a probe that failed to advance —
    /// which an external job source can produce under load and which a
    /// re-run may not reproduce. Structural faults (bad deadlines, bad
    /// lengths, incoherent clairvoyance) are properties of the workload
    /// itself and will recur on every attempt.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            EnvFault::ReleaseInPast { .. }
                | EnvFault::RulingInPast { .. }
                | EnvFault::ProbeNotDeferred { .. }
        )
    }
}

impl fmt::Display for EnvFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvFault::ReleaseInPast { scheduled, now } => {
                write!(f, "release scheduled in the past: {scheduled} < {now}")
            }
            EnvFault::DeadlineBeforeArrival { arrival, deadline } => {
                write!(
                    f,
                    "released job has deadline {deadline} before arrival {arrival}"
                )
            }
            EnvFault::NonPositiveLength { length } => {
                write!(f, "released job has non-positive length {length}")
            }
            EnvFault::AdaptiveUnderClairvoyance => {
                write!(f, "adaptive lengths require a fully non-clairvoyant run")
            }
            EnvFault::RuledNonPositiveLength { id, length } => {
                write!(f, "ruled non-positive length {length} for {id}")
            }
            EnvFault::RulingInPast {
                id,
                completion,
                now,
            } => {
                write!(
                    f,
                    "ruled length puts completion of {id} at {completion}, before {now}"
                )
            }
            EnvFault::ProbeNotDeferred { id, at } => {
                write!(
                    f,
                    "length probe for {id} re-asked at {at}, which is not in the future"
                )
            }
            EnvFault::HorizonOverflow { id, start, length } => {
                write!(
                    f,
                    "horizon overflow: {id} started at {start} with length {length}"
                )
            }
        }
    }
}

/// A scheduler action the engine refused to apply. The action is dropped
/// (the job in question remains pending and is force-started at its
/// deadline if the scheduler never issues a valid start), the run continues,
/// and the rejection is recorded in [`SimOutcome::rejected_actions`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RejectedAction {
    /// When the action was requested.
    pub at: Time,
    /// Why it was refused.
    pub fault: ActionFault,
}

impl fmt::Display for RejectedAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}: {}", self.at, self.fault)
    }
}

/// Why a scheduler action was refused.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ActionFault {
    /// A start was requested for a job that is not pending (already started,
    /// completed, or never released).
    StartNonPending {
        /// The requested job.
        id: JobId,
    },
    /// An immediate start was requested outside the job's `[a, d]` window.
    StartOutsideWindow {
        /// The requested job.
        id: JobId,
        /// The attempted start time (the current instant).
        at: Time,
    },
    /// A `start_at` was issued for a job that already has an ordered start.
    DuplicateOrderedStart {
        /// The requested job.
        id: JobId,
    },
    /// A `start_at` time lies in the past or outside the job's window.
    StartAtOutsideWindow {
        /// The requested job.
        id: JobId,
        /// The attempted start time.
        at: Time,
    },
    /// A wakeup was requested for a past instant.
    WakeupInPast {
        /// The requested wakeup time.
        at: Time,
    },
}

impl fmt::Display for ActionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionFault::StartNonPending { id } => {
                write!(f, "start of non-pending job {id}")
            }
            ActionFault::StartOutsideWindow { id, at } => {
                write!(f, "start of {id} at {at} outside its window")
            }
            ActionFault::DuplicateOrderedStart { id } => {
                write!(f, "duplicate ordered start for {id}")
            }
            ActionFault::StartAtOutsideWindow { id, at } => {
                write!(f, "ordered start of {id} at {at} outside [max(now, a), d]")
            }
            ActionFault::WakeupInPast { at } => write!(f, "wakeup at past instant {at}"),
        }
    }
}

/// The result of a simulation run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// All released jobs with their final lengths, in release order. For a
    /// run that did not complete ([`SimOutcome::termination`]), lengths of
    /// jobs listed in [`SimOutcome::unresolved`] are placeholders.
    pub instance: Instance,
    /// Start times chosen by the scheduler (complete when the run
    /// completed; partial otherwise).
    pub schedule: Schedule,
    /// Span of the schedule (cached from [`Schedule::span`]).
    pub span: Dur,
    /// Feasibility violations (empty for a correct scheduler).
    pub violations: Vec<Violation>,
    /// How the run ended.
    pub termination: Termination,
    /// Scheduler actions the engine refused to apply (empty for a correct
    /// scheduler).
    pub rejected_actions: Vec<RejectedAction>,
    /// Jobs whose adaptive lengths were never ruled because the run was cut
    /// short; their lengths in [`SimOutcome::instance`] are placeholders.
    /// Always empty when the run completed.
    pub unresolved: Vec<JobId>,
    /// Total events processed (diagnostics; equals
    /// [`RunStats::events_total`]).
    pub events_processed: usize,
    /// Engine counters for the run: events by kind, peak event-heap size,
    /// applied/rejected actions, force-starts and wall-clock phases.
    pub stats: RunStats,
    /// Chronological event log (empty unless [`SimConfig::trace`] asked
    /// for recording).
    pub trace: Vec<TraceEvent>,
}

impl SimOutcome {
    /// Whether the run finished without feasibility violations.
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether the run completed with no violations and no rejected
    /// actions — the strictest notion of a healthy run.
    pub fn is_clean(&self) -> bool {
        self.termination.is_completed()
            && self.violations.is_empty()
            && self.rejected_actions.is_empty()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EventKind {
    Completion(JobId),
    // Releases are not queued; they are pulled from the environment and
    // slot in at priority `RELEASE_ORDER`.
    OrderedStart(JobId),
    LengthProbe(JobId),
    DeadlineAlarm(JobId),
    Wakeup(u64),
}

impl EventKind {
    fn order(&self) -> u8 {
        match self {
            EventKind::Completion(_) => 0,
            EventKind::OrderedStart(_) => 2,
            EventKind::LengthProbe(_) => 3,
            EventKind::DeadlineAlarm(_) => 4,
            EventKind::Wakeup(_) => 5,
        }
    }
}

/// Priority of a release pseudo-event at equal timestamps.
const RELEASE_ORDER: u8 = 1;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Event {
    time: Time,
    order: u8,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.order, self.seq).cmp(&(other.time, other.order, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Why a drive step stopped short of its goal (the non-completed half of
/// [`Termination`]).
pub(crate) enum Stop {
    /// The [`SimConfig::max_events`] budget is spent.
    EventCap,
    /// The environment broke its contract.
    Fault(EnvFault),
}

impl From<EnvFault> for Stop {
    fn from(fault: EnvFault) -> Self {
        Stop::Fault(fault)
    }
}

/// The drive loop's state. Batch runs build one per run
/// ([`run_with_config`]); a [`Session`](crate::service::Session) keeps one
/// resident and feeds it one job at a time ([`Engine::release_alone`],
/// [`Engine::drain`]), so both walk the same `(time, order, seq)` order
/// through the same code.
pub(crate) struct Engine<E, S> {
    pub(crate) world: World,
    env: E,
    pub(crate) sched: S,
    /// Pending events, popped in the `(time, order, seq)` order of
    /// [`Event`]'s `Ord`.
    queue: BinaryHeap<Reverse<Event>>,
    /// Busy-interval span maintained incrementally as starts and rulings
    /// happen, so completed runs never re-measure the `IntervalSet` union.
    pub(crate) span: RunningSpan,
    seq: u64,
    pub(crate) violations: Vec<Violation>,
    pub(crate) rejected: Vec<RejectedAction>,
    pub(crate) stats: RunStats,
    pub(crate) config: SimConfig,
    pub(crate) trace: Vec<TraceEvent>,
    /// Reused action buffer handed to each [`Ctx`] (one allocation per run,
    /// not per callback).
    scratch: Vec<Action>,
    /// Reused release buffer handed to [`Environment::release_into`] (one
    /// allocation per run, not one per release event).
    spec_scratch: Vec<JobSpec>,
    /// Session mode: log every start and finish into `decisions`, compact
    /// completed records before `on_completion`, and keep no per-job
    /// history (violations and rejections are only counted), so resident
    /// state stays O(jobs in flight).
    resident: bool,
    /// Start/finish decisions since the session last drained them (always
    /// empty in batch runs).
    pub(crate) decisions: Vec<Decision>,
}

impl<E: Environment, S: OnlineScheduler> Engine<E, S> {
    fn new(env: E, sched: S, config: SimConfig, parts: EngineScratch) -> Self {
        Engine {
            world: parts.world,
            env,
            sched,
            queue: parts.queue,
            span: RunningSpan::new(),
            seq: 0,
            violations: Vec::new(),
            rejected: Vec::new(),
            stats: RunStats::default(),
            config,
            trace: Vec::new(),
            scratch: parts.scratch,
            spec_scratch: parts.spec_scratch,
            resident: false,
            decisions: Vec::new(),
        }
    }

    /// A session-mode engine: the caller releases jobs itself, so the
    /// environment is only consulted for its information model.
    pub(crate) fn resident(env: E, sched: S, max_events: usize) -> Self {
        let parts = EngineScratch {
            world: World::new(env.clairvoyance()),
            queue: BinaryHeap::new(),
            scratch: Vec::new(),
            spec_scratch: Vec::new(),
        };
        let config = SimConfig {
            max_events,
            ..SimConfig::default()
        };
        Engine {
            resident: true,
            ..Engine::new(env, sched, config, parts)
        }
    }

    #[inline]
    fn record(&mut self, kind: TraceKind) {
        match self.config.trace {
            TraceMode::Off => {}
            TraceMode::Full => self.trace.push(TraceEvent {
                time: self.world.now(),
                kind,
            }),
        }
    }

    #[inline]
    fn push(&mut self, time: Time, kind: EventKind) {
        self.queue.push(Reverse(Event {
            time,
            order: kind.order(),
            seq: self.seq,
            kind,
        }));
        self.seq += 1;
        self.stats.peak_queue = self.stats.peak_queue.max(self.queue.len());
    }

    fn reject(&mut self, fault: ActionFault) {
        self.stats.actions_rejected += 1;
        if !self.resident {
            self.rejected.push(RejectedAction {
                at: self.world.now(),
                fault,
            });
        }
    }

    /// Logs a session decision, carrying the running span after it.
    fn decide(&mut self, kind: DecisionKind, id: JobId, at: Time) {
        let span = self.span.total();
        self.decisions.push(Decision { kind, id, at, span });
    }

    /// Starts a phase-timing measurement when [`SimConfig::time_phases`]
    /// is set; [`Engine::phase_done`] accumulates it.
    fn phase_start(&self) -> Option<Instant> {
        self.config.time_phases.then(Instant::now)
    }

    fn phase_done(t0: Option<Instant>, acc: &mut f64) {
        if let Some(t0) = t0 {
            *acc += t0.elapsed().as_secs_f64();
        }
    }

    /// The completion instant `at + p`, guarding against `f64` overflow from
    /// degenerate timestamps.
    fn completion_time(&self, id: JobId, at: Time, p: Dur) -> Result<Time, EnvFault> {
        let raw = at.get() + p.get();
        if !raw.is_finite() {
            return Err(EnvFault::HorizonOverflow {
                id,
                start: at,
                length: p,
            });
        }
        Ok(Time::new(raw))
    }

    /// Starts a job at `at` and schedules its completion or length probe.
    ///
    /// Callers must have validated that the job is pending and `at` lies in
    /// its start window; this method only reports *environment* misbehavior
    /// (bad adaptive-length rulings).
    fn start_job(&mut self, id: JobId, at: Time) -> Result<(), EnvFault> {
        debug_assert!(self.world.is_pending(id), "starting non-pending job {id}");
        debug_assert!({
            let (a, d) = self.world.window_of(id);
            a <= at && at <= d
        });
        let known = self.world.length_of(id);
        self.world.mark_started(id, at);
        self.record(TraceKind::Started { id });
        match known {
            Some(p) => {
                let completion = self.completion_time(id, at, p)?;
                self.span.on_start(at, Some(completion));
                self.push(completion, EventKind::Completion(id));
                if self.resident {
                    self.decide(DecisionKind::Start, id, at);
                }
            }
            None => {
                let t0 = self.phase_start();
                let ruling = self.env.rule_length(id, at, at, &self.world);
                Self::phase_done(t0, &mut self.stats.wall_environment_s);
                match ruling {
                    LengthRuling::Assign(p) => {
                        if !p.is_positive() {
                            return Err(EnvFault::RuledNonPositiveLength { id, length: p });
                        }
                        let completion = self.completion_time(id, at, p)?;
                        self.world.set_length(id, p);
                        self.record(TraceKind::LengthRuled { id, length: p });
                        self.span.on_start(at, Some(completion));
                        self.push(completion, EventKind::Completion(id));
                    }
                    LengthRuling::AskAgainAt(t) => {
                        if t <= at {
                            return Err(EnvFault::ProbeNotDeferred { id, at: t });
                        }
                        self.span.on_start(at, None);
                        self.push(t, EventKind::LengthProbe(id));
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs one scheduler callback against a fresh [`Ctx`] (backed by the
    /// reusable scratch buffer) and applies the actions it requested.
    fn dispatch_callback(
        &mut self,
        call: impl FnOnce(&mut S, &mut Ctx<'_>),
    ) -> Result<(), EnvFault> {
        let mut ctx = Ctx::with_scratch(&self.world, std::mem::take(&mut self.scratch));
        let t0 = self.phase_start();
        call(&mut self.sched, &mut ctx);
        Self::phase_done(t0, &mut self.stats.wall_scheduler_s);
        let mut actions = ctx.into_actions();
        // No-op callbacks (the default on_completion, buffering on_arrival)
        // skip the apply machinery entirely.
        let applied = if actions.is_empty() {
            Ok(())
        } else {
            self.apply_actions(&mut actions)
        };
        actions.clear();
        self.scratch = actions;
        applied
    }

    /// Applies (by draining) the actions a scheduler requested during one
    /// callback. Invalid actions are rejected (recorded and dropped) rather
    /// than aborting the run: a dropped start leaves the job pending, where
    /// the deadline-alarm force-start guarantees it is eventually scheduled.
    fn apply_actions(&mut self, actions: &mut Vec<Action>) -> Result<(), EnvFault> {
        for action in actions.drain(..) {
            match action {
                Action::StartNow(id) => {
                    let now = self.world.now();
                    if !self.world.is_pending(id) {
                        self.reject(ActionFault::StartNonPending { id });
                        continue;
                    }
                    let (arrival, deadline) = self.world.window_of(id);
                    if now < arrival || now > deadline {
                        self.reject(ActionFault::StartOutsideWindow { id, at: now });
                        continue;
                    }
                    self.stats.actions_applied += 1;
                    self.start_job(id, now)?;
                }
                Action::StartAt(id, at) => {
                    let now = self.world.now();
                    if !self.world.is_pending(id) {
                        self.reject(ActionFault::StartNonPending { id });
                        continue;
                    }
                    if self.world.ordered_start_of(id).is_some() {
                        self.reject(ActionFault::DuplicateOrderedStart { id });
                        continue;
                    }
                    let (arrival, deadline) = self.world.window_of(id);
                    if at < now || at < arrival || at > deadline {
                        self.reject(ActionFault::StartAtOutsideWindow { id, at });
                        continue;
                    }
                    self.stats.actions_applied += 1;
                    self.world.set_ordered_start(id, at);
                    self.push(at, EventKind::OrderedStart(id));
                }
                Action::WakeAt(at, token) => {
                    if at < self.world.now() {
                        self.reject(ActionFault::WakeupInPast { at });
                        continue;
                    }
                    self.stats.actions_applied += 1;
                    self.push(at, EventKind::Wakeup(token));
                }
            }
        }
        Ok(())
    }

    /// Charges one event against the [`SimConfig::max_events`] budget.
    fn tick(&mut self) -> Result<(), Stop> {
        if self.stats.events_total >= self.config.max_events {
            return Err(Stop::EventCap);
        }
        self.stats.events_total += 1;
        Ok(())
    }

    /// Processes the earliest queued event if it sorts strictly before
    /// `bound` in the `(time, order)` order (any queued event when `None`),
    /// and reports whether there was one.
    fn step_before(&mut self, bound: Option<(Time, u8)>) -> Result<bool, Stop> {
        let Some(Reverse(e)) = self.queue.peek() else {
            return Ok(false);
        };
        if bound.is_some_and(|b| (e.time, e.order) >= b) {
            return Ok(false);
        }
        self.tick()?;
        if let Some(Reverse(event)) = self.queue.pop() {
            self.process(event)?;
        }
        Ok(true)
    }

    /// Processes every queued event that sorts strictly before `(time,
    /// order)`.
    fn advance_before(&mut self, time: Time, order: u8) -> Result<(), Stop> {
        while self.step_before(Some((time, order)))? {}
        Ok(())
    }

    /// How a run that stopped short ended: the one step from [`Stop`] to
    /// [`Termination`], for batch runs and sessions alike.
    pub(crate) fn stopped(&self, stop: Stop) -> Termination {
        match stop {
            Stop::EventCap => Termination::EventCapExhausted {
                events: self.stats.events_total,
            },
            Stop::Fault(fault) => Termination::EnvironmentFault(fault),
        }
    }

    /// Processes every queued event, including those they queue in turn.
    pub(crate) fn drain(&mut self) -> Result<(), Stop> {
        while self.step_before(None)? {}
        Ok(())
    }

    /// Opens a release instant at `now`: charges one release event and
    /// advances the clock. Batch runs open one per distinct arrival
    /// instant, sessions one per offer.
    fn open_release(&mut self, now: Time) -> Result<(), Stop> {
        self.tick()?;
        self.stats.release_events += 1;
        self.world.advance_to(now);
        Ok(())
    }

    /// Releases one job at the current instant `now`: validates its spec,
    /// queues its deadline alarm and dispatches `on_arrival`.
    fn release(&mut self, now: Time, spec: JobSpec) -> Result<JobId, EnvFault> {
        let JobSpec { deadline, length } = spec;
        if deadline < now {
            return Err(EnvFault::DeadlineBeforeArrival {
                arrival: now,
                deadline,
            });
        }
        let clairvoyance = self.world.clairvoyance();
        let fixed = match length {
            LengthSpec::Fixed(p) => {
                if !p.is_positive() {
                    return Err(EnvFault::NonPositiveLength { length: p });
                }
                Some(p)
            }
            LengthSpec::Adaptive => {
                if clairvoyance.reveals_class() {
                    return Err(EnvFault::AdaptiveUnderClairvoyance);
                }
                None
            }
        };
        let id = self.world.release(now, deadline, fixed);
        self.stats.jobs_released += 1;
        self.record(TraceKind::Released { id, deadline });
        self.push(deadline, EventKind::DeadlineAlarm(id));
        let arrival = Arrival {
            id,
            arrival: now,
            deadline,
            length: fixed.filter(|_| clairvoyance.is_clairvoyant()),
            length_class: fixed
                .filter(|_| clairvoyance.reveals_class())
                .map(|p| crate::sim::env::geometric_class(p, 2.0, 1.0)),
        };
        self.dispatch_callback(|sched, ctx| sched.on_arrival(arrival, ctx))?;
        Ok(id)
    }

    /// Releases one job as a release instant of its own, after every queued
    /// event that precedes a release at `now` (a session's offer).
    pub(crate) fn release_alone(&mut self, now: Time, spec: JobSpec) -> Result<JobId, Stop> {
        self.advance_before(now, RELEASE_ORDER)?;
        self.open_release(now)?;
        Ok(self.release(now, spec)?)
    }

    /// Processes one popped event (already charged against the budget).
    fn process(&mut self, event: Event) -> Result<(), EnvFault> {
        self.world.advance_to(event.time);
        match event.kind {
            EventKind::Completion(id) => {
                self.stats.completions += 1;
                self.stats.jobs_completed += 1;
                self.world.mark_completed(id);
                self.record(TraceKind::Completed { id });
                let Some(length) = self.world.length_of(id) else {
                    // Unreachable: completions are only scheduled once a
                    // length is known (mark_completed checks too).
                    return Ok(());
                };
                if self.resident {
                    self.decide(DecisionKind::Finish, id, event.time);
                    self.world.compact_completed_prefix();
                }
                self.dispatch_callback(|sched, ctx| sched.on_completion(id, length, ctx))?;
            }
            EventKind::OrderedStart(id) => {
                self.stats.ordered_starts += 1;
                if self.world.is_pending(id) {
                    self.start_job(id, event.time)?;
                }
            }
            EventKind::LengthProbe(id) => {
                self.stats.length_probes += 1;
                let Some(started_at) = self.world.start_of(id) else {
                    // Unreachable: probes are only scheduled after a
                    // start; skip rather than abort.
                    return Ok(());
                };
                let t0 = self.phase_start();
                let ruling = self
                    .env
                    .rule_length(id, started_at, event.time, &self.world);
                Self::phase_done(t0, &mut self.stats.wall_environment_s);
                match ruling {
                    LengthRuling::Assign(p) => {
                        if !p.is_positive() {
                            return Err(EnvFault::RuledNonPositiveLength { id, length: p });
                        }
                        let completion = self.completion_time(id, started_at, p)?;
                        if completion < event.time {
                            return Err(EnvFault::RulingInPast {
                                id,
                                completion,
                                now: event.time,
                            });
                        }
                        self.world.set_length(id, p);
                        self.record(TraceKind::LengthRuled { id, length: p });
                        self.span.on_rule(completion);
                        self.push(completion, EventKind::Completion(id));
                    }
                    LengthRuling::AskAgainAt(at) => {
                        if at <= event.time {
                            return Err(EnvFault::ProbeNotDeferred { id, at });
                        }
                        self.push(at, EventKind::LengthProbe(id));
                    }
                }
            }
            EventKind::DeadlineAlarm(id) => {
                self.stats.deadline_alarms += 1;
                if !self.world.is_pending(id) {
                    return Ok(()); // already started
                }
                if self.world.ordered_start_of(id).is_some() {
                    // An ordered start exists; it can only be for this
                    // very instant (start_at validates t <= d), and the
                    // OrderedStart event sorts before remaining alarms,
                    // so reaching here means it was issued during this
                    // instant. Honor it now.
                    return self.start_job(id, event.time);
                }
                self.dispatch_callback(|sched, ctx| sched.on_deadline(id, ctx))?;
                if self.world.is_pending(id) && self.world.ordered_start_of(id).is_none() {
                    self.stats.force_starts += 1;
                    if !self.resident {
                        self.violations.push(Violation { id, at: event.time });
                    }
                    self.record(TraceKind::ForcedStart { id });
                    self.start_job(id, event.time)?;
                }
            }
            EventKind::Wakeup(token) => {
                self.stats.wakeups += 1;
                self.record(TraceKind::Wakeup { token });
                self.dispatch_callback(|sched, ctx| sched.on_wakeup(token, ctx))?;
            }
        }
        Ok(())
    }

    /// The batch event loop: re-queries the environment before every event
    /// (an adaptive source may change its next release after any of
    /// them), then processes whichever comes first. Scheduler misbehavior
    /// is absorbed; the budget and environment breaches stop it.
    fn drive(&mut self) -> Result<(), Stop> {
        loop {
            let t0 = self.phase_start();
            let next_release = self.env.next_release_time(&self.world);
            Self::phase_done(t0, &mut self.stats.wall_environment_s);
            if let Some(rt) = next_release.filter(|&rt| rt < self.world.now()) {
                return Err(Stop::Fault(EnvFault::ReleaseInPast {
                    scheduled: rt,
                    now: self.world.now(),
                }));
            }
            if self.step_before(next_release.map(|rt| (rt, RELEASE_ORDER)))? {
                continue;
            }
            let Some(now) = next_release else {
                return Ok(());
            };
            self.open_release(now)?;
            let mut specs = std::mem::take(&mut self.spec_scratch);
            let t0 = self.phase_start();
            self.env.release_into(now, &self.world, &mut specs);
            Self::phase_done(t0, &mut self.stats.wall_environment_s);
            for spec in specs.drain(..) {
                self.release(now, spec)?;
            }
            // (On the error paths above the buffer is simply dropped.)
            self.spec_scratch = specs;
        }
    }

    fn run(mut self) -> (SimOutcome, EngineScratch) {
        let run_start = Instant::now();
        let drive_end = self.drive();
        self.stats.wall_total_s = run_start.elapsed().as_secs_f64();
        let termination = match drive_end {
            Ok(()) => Termination::Completed,
            Err(stop) => self.stopped(stop),
        };

        if termination.is_completed() {
            debug_assert_eq!(self.world.num_running(), 0);
            debug_assert_eq!(self.world.num_pending(), 0);
        }

        let (instance, unresolved) = self.world.to_partial_instance();
        debug_assert!(unresolved.is_empty() || !termination.is_completed());
        let mut schedule = Schedule::with_len(instance.len());
        for (id, start) in self.world.starts() {
            if let Some(start) = start {
                schedule.set_start(id, start);
            }
        }
        // A drained run has every start's completion ruled, so the running
        // scalar is the exact span; aborted runs fall back to measuring the
        // partial schedule (placeholder lengths make the scalar meaningless).
        let span = match self.span.total_if_resolved() {
            Some(s) if termination.is_completed() => {
                debug_assert_eq!(
                    s.get().to_bits(),
                    schedule.span(&instance).get().to_bits(),
                    "incremental span must be bit-identical to the measured union"
                );
                s
            }
            _ => schedule.span(&instance),
        };
        self.stats.peak_retained = self.world.peak_retained();
        self.stats.arena_slots = self.world.arena_slots();
        let outcome = SimOutcome {
            instance,
            schedule,
            span,
            violations: self.violations,
            termination,
            rejected_actions: self.rejected,
            unresolved,
            events_processed: self.stats.events_total,
            stats: self.stats,
            trace: self.trace,
        };
        let scratch = EngineScratch {
            world: self.world,
            queue: self.queue,
            scratch: self.scratch,
            spec_scratch: self.spec_scratch,
        };
        (outcome, scratch)
    }
}

/// The engine's recyclable allocations: the arena-backed world (eleven
/// column vectors), the event heap, and the two per-run scratch buffers.
/// `run_with_config` parks one of these per thread between runs, so
/// harness-shaped workloads — thousands of deck-sized runs back to back —
/// pay the malloc bill once per thread instead of once per run. Every part
/// is reset to its pristine state before reuse, so a recycled run is
/// observably identical to a fresh one (the equivalence and determinism
/// suites drive both paths).
struct EngineScratch {
    world: World,
    queue: BinaryHeap<Reverse<Event>>,
    scratch: Vec<Action>,
    spec_scratch: Vec<JobSpec>,
}

/// Arenas above this capacity (in records) are dropped rather than parked,
/// so one huge run does not pin megabytes to a long-lived thread.
const POOL_MAX_RECORDS: usize = 1 << 15;

thread_local! {
    static SCRATCH_POOL: std::cell::Cell<Option<Box<EngineScratch>>> =
        const { std::cell::Cell::new(None) };
}

/// Runs `sched` against `env` until no events remain.
pub fn run<E: Environment, S: OnlineScheduler>(env: E, sched: S) -> SimOutcome {
    run_with_config(env, sched, SimConfig::default())
}

/// Runs with explicit [`SimConfig`].
pub fn run_with_config<E: Environment, S: OnlineScheduler>(
    env: E,
    sched: S,
    config: SimConfig,
) -> SimOutcome {
    // Recycle the previous run's allocations (this thread) or start fresh;
    // either way the parts are in their pristine state before the run.
    let mut parts = match SCRATCH_POOL.with(|p| p.take()) {
        Some(mut parts) => {
            parts.world.reset(env.clairvoyance());
            // An event-capped run parks a queue that still holds events.
            parts.queue.clear();
            parts.scratch.clear();
            parts.spec_scratch.clear();
            parts
        }
        None => Box::new(EngineScratch {
            world: World::new(env.clairvoyance()),
            queue: BinaryHeap::new(),
            scratch: Vec::new(),
            spec_scratch: Vec::new(),
        }),
    };
    if let Some(n) = env.expected_jobs() {
        parts.world.reserve_jobs(n);
    }
    let (outcome, used) = Engine::new(env, sched, config, *parts).run();
    if used.world.capacity() <= POOL_MAX_RECORDS {
        SCRATCH_POOL.with(|p| p.set(Some(Box::new(used))));
    }
    outcome
}

/// Convenience: runs a scheduler on a static instance.
///
/// Note: the outcome's instance lists jobs in *release order* (sorted by
/// arrival), which may be a permutation of `inst`; spans are unaffected.
pub fn run_static<S: OnlineScheduler>(
    inst: &Instance,
    clairvoyance: Clairvoyance,
    sched: S,
) -> SimOutcome {
    let env = crate::sim::env::StaticEnv::new(inst, clairvoyance);
    run(env, sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::time::{dur, t};

    /// Starts every job the moment it arrives.
    struct EagerTest;
    impl OnlineScheduler for EagerTest {
        fn name(&self) -> String {
            "eager-test".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            ctx.start(job.id);
        }
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {
            unreachable!("eager never leaves jobs pending");
        }
    }

    /// Starts every job at its deadline via the deadline alarm.
    struct LazyTest;
    impl OnlineScheduler for LazyTest {
        fn name(&self) -> String {
            "lazy-test".into()
        }
        fn on_arrival(&mut self, _job: Arrival, _ctx: &mut Ctx<'_>) {}
        fn on_deadline(&mut self, id: JobId, ctx: &mut Ctx<'_>) {
            ctx.start(id);
        }
    }

    /// Never starts anything voluntarily (exercises force-start violations).
    struct Broken;
    impl OnlineScheduler for Broken {
        fn name(&self) -> String {
            "broken".into()
        }
        fn on_arrival(&mut self, _job: Arrival, _ctx: &mut Ctx<'_>) {}
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
    }

    fn inst() -> Instance {
        Instance::new(vec![
            Job::adp(0.0, 2.0, 1.0),
            Job::adp(0.5, 3.0, 2.0),
            Job::adp(10.0, 12.0, 1.0),
        ])
    }

    #[test]
    fn eager_starts_at_arrivals() {
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, EagerTest);
        assert!(out.is_feasible());
        assert!(out.schedule.is_complete());
        // [0,1) ∪ [0.5,2.5) ∪ [10,11) → 2.5 + 1.
        assert_eq!(out.span, dur(3.5));
        assert_eq!(out.schedule.start(JobId(0)), Some(t(0.0)));
        assert_eq!(out.schedule.start(JobId(1)), Some(t(0.5)));
        assert_eq!(out.schedule.start(JobId(2)), Some(t(10.0)));
        assert!(out.schedule.validate(&out.instance).is_ok());
    }

    #[test]
    fn lazy_starts_at_deadlines() {
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, LazyTest);
        assert!(out.is_feasible());
        // [2,3) ∪ [3,5) ∪ [12,13) → 3 + 1.
        assert_eq!(out.span, dur(4.0));
        assert_eq!(out.schedule.start(JobId(0)), Some(t(2.0)));
        assert_eq!(out.schedule.start(JobId(1)), Some(t(3.0)));
    }

    #[test]
    fn broken_scheduler_is_force_started_with_violations() {
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, Broken);
        assert_eq!(out.violations.len(), 3);
        assert!(!out.is_feasible());
        // Force-start happens at each deadline, so spans match Lazy.
        assert_eq!(out.span, dur(4.0));
    }

    #[test]
    fn start_at_commitment_honored() {
        /// Commits each arrival to start at its deadline via start_at.
        struct Committer;
        impl OnlineScheduler for Committer {
            fn name(&self) -> String {
                "committer".into()
            }
            fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
                ctx.start_at(job.id, job.deadline);
            }
            fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {
                unreachable!("ordered start should pre-empt the alarm");
            }
        }
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, Committer);
        assert!(out.is_feasible());
        assert_eq!(out.span, dur(4.0));
    }

    #[test]
    fn wakeups_fire_with_tokens() {
        /// Starts each job 0.5 after its arrival using a wakeup.
        struct Waker;
        impl OnlineScheduler for Waker {
            fn name(&self) -> String {
                "waker".into()
            }
            fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
                ctx.wake_at(job.arrival + dur(0.5), u64::from(job.id.0));
            }
            fn on_deadline(&mut self, id: JobId, ctx: &mut Ctx<'_>) {
                ctx.start(id);
            }
            fn on_wakeup(&mut self, token: u64, ctx: &mut Ctx<'_>) {
                let id = JobId(token as u32);
                if ctx.is_pending(id) {
                    ctx.start(id);
                }
            }
        }
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, Waker);
        assert!(out.is_feasible());
        assert_eq!(out.schedule.start(JobId(0)), Some(t(0.5)));
        assert_eq!(out.schedule.start(JobId(2)), Some(t(10.5)));
    }

    #[test]
    fn non_clairvoyant_masks_lengths_until_completion() {
        struct Observer {
            saw_length_at_arrival: bool,
            completion_lengths: Vec<Dur>,
        }
        impl OnlineScheduler for Observer {
            fn name(&self) -> String {
                "observer".into()
            }
            fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
                self.saw_length_at_arrival |= job.length.is_some();
                ctx.start(job.id);
            }
            fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
            fn on_completion(&mut self, _id: JobId, length: Dur, _ctx: &mut Ctx<'_>) {
                self.completion_lengths.push(length);
            }
        }
        let mut obs = Observer {
            saw_length_at_arrival: false,
            completion_lengths: vec![],
        };
        {
            let env = crate::sim::env::StaticEnv::new(&inst(), Clairvoyance::NonClairvoyant);
            let out = run_with_config(env, &mut obs, SimConfig::default());
            assert!(out.is_feasible());
        }
        assert!(!obs.saw_length_at_arrival);
        assert_eq!(obs.completion_lengths.len(), 3);
    }

    #[test]
    fn adaptive_lengths_via_probe() {
        /// Environment releasing one adaptive job and ruling length 2.0 one
        /// time unit after start (the Theorem 3.3 adversary's cadence).
        struct OneAdaptive {
            released: bool,
        }
        impl Environment for OneAdaptive {
            fn clairvoyance(&self) -> Clairvoyance {
                Clairvoyance::NonClairvoyant
            }
            fn next_release_time(&mut self, _world: &World) -> Option<Time> {
                (!self.released).then(|| t(1.0))
            }
            fn release_at(&mut self, _now: Time, _world: &World) -> Vec<JobSpec> {
                self.released = true;
                vec![JobSpec::adaptive(t(4.0))]
            }
            fn rule_length(
                &mut self,
                _id: JobId,
                started_at: Time,
                now: Time,
                _world: &World,
            ) -> LengthRuling {
                if now == started_at {
                    LengthRuling::AskAgainAt(started_at + dur(1.0))
                } else {
                    LengthRuling::Assign(dur(2.0))
                }
            }
        }
        let out = run(OneAdaptive { released: false }, EagerTest);
        assert!(out.is_feasible());
        assert_eq!(out.instance.job(JobId(0)).length(), dur(2.0));
        assert_eq!(out.schedule.start(JobId(0)), Some(t(1.0)));
        assert_eq!(out.span, dur(2.0));
    }

    #[test]
    fn outcome_instance_matches_release_order() {
        let source = Instance::new(vec![
            Job::adp(5.0, 6.0, 1.0), // released second
            Job::adp(0.0, 1.0, 2.0), // released first
        ]);
        let out = run_static(&source, Clairvoyance::Clairvoyant, EagerTest);
        assert_eq!(out.instance.job(JobId(0)).arrival(), t(0.0));
        assert_eq!(out.instance.job(JobId(1)).arrival(), t(5.0));
    }

    #[test]
    fn event_cap_yields_typed_termination_with_partial_schedule() {
        /// Wakes itself up forever.
        struct Spinner;
        impl OnlineScheduler for Spinner {
            fn name(&self) -> String {
                "spinner".into()
            }
            fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
                ctx.start(job.id);
                ctx.wake_at(job.arrival + dur(1.0), 0);
            }
            fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
            fn on_wakeup(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
                ctx.wake_at(ctx.now() + dur(1.0), 0);
            }
        }
        let single = Instance::new(vec![Job::adp(0.0, 0.0, 1.0)]);
        let env = crate::sim::env::StaticEnv::new(&single, Clairvoyance::Clairvoyant);
        let out = run_with_config(
            env,
            Spinner,
            SimConfig {
                max_events: 100,
                ..SimConfig::default()
            },
        );
        assert_eq!(
            out.termination,
            Termination::EventCapExhausted { events: 100 }
        );
        assert!(!out.is_clean());
        // The partial schedule still carries everything that happened before
        // the cap: the one real job was started (and completed).
        assert_eq!(out.schedule.start(JobId(0)), Some(t(0.0)));
        assert_eq!(out.instance.len(), 1);
        assert!(out.unresolved.is_empty());
    }

    #[test]
    fn rejected_actions_are_dropped_and_job_force_started() {
        /// Issues a barrage of invalid actions, never a valid start.
        struct Hostile;
        impl OnlineScheduler for Hostile {
            fn name(&self) -> String {
                "hostile".into()
            }
            fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
                ctx.start(JobId(999)); // never released
                ctx.start_at(job.id, job.deadline + dur(5.0)); // past deadline
                ctx.wake_at(job.arrival - dur(1.0), 7); // in the past
            }
            fn on_deadline(&mut self, id: JobId, _ctx: &mut Ctx<'_>) {
                let _ = id; // refuse to start
            }
        }
        let single = Instance::new(vec![Job::adp(1.0, 3.0, 2.0)]);
        let out = run_static(&single, Clairvoyance::Clairvoyant, Hostile);
        assert!(out.termination.is_completed(), "run absorbs the abuse");
        assert_eq!(out.rejected_actions.len(), 3);
        assert!(matches!(
            out.rejected_actions[0].fault,
            ActionFault::StartNonPending { id: JobId(999) }
        ));
        assert!(matches!(
            out.rejected_actions[1].fault,
            ActionFault::StartAtOutsideWindow { .. }
        ));
        assert!(matches!(
            out.rejected_actions[2].fault,
            ActionFault::WakeupInPast { .. }
        ));
        // The job was force-started at its deadline, so the schedule is
        // complete despite the scheduler never issuing a valid start.
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.schedule.start(JobId(0)), Some(t(3.0)));
        assert!(out.schedule.validate(&out.instance).is_ok());
    }

    #[test]
    fn duplicate_ordered_start_rejected_but_first_honored() {
        struct DoubleCommit;
        impl OnlineScheduler for DoubleCommit {
            fn name(&self) -> String {
                "double-commit".into()
            }
            fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
                ctx.start_at(job.id, job.deadline);
                ctx.start_at(job.id, job.arrival); // duplicate → rejected
            }
            fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
        }
        let single = Instance::new(vec![Job::adp(0.0, 2.0, 1.0)]);
        let out = run_static(&single, Clairvoyance::Clairvoyant, DoubleCommit);
        assert!(out.termination.is_completed());
        assert_eq!(out.rejected_actions.len(), 1);
        assert!(matches!(
            out.rejected_actions[0].fault,
            ActionFault::DuplicateOrderedStart { id: JobId(0) }
        ));
        assert!(out.is_feasible(), "first commitment still honored");
        assert_eq!(out.schedule.start(JobId(0)), Some(t(2.0)));
    }

    #[test]
    fn environment_fault_terminates_with_partial_outcome() {
        /// Releases one good job, then one whose deadline precedes arrival.
        struct BadEnv {
            step: u8,
        }
        impl Environment for BadEnv {
            fn clairvoyance(&self) -> Clairvoyance {
                Clairvoyance::Clairvoyant
            }
            fn next_release_time(&mut self, _world: &World) -> Option<Time> {
                match self.step {
                    0 => Some(t(0.0)),
                    1 => Some(t(1.0)),
                    _ => None,
                }
            }
            fn release_at(&mut self, now: Time, _world: &World) -> Vec<JobSpec> {
                self.step += 1;
                match self.step {
                    1 => vec![JobSpec::fixed(now + dur(4.0), dur(1.0))],
                    _ => vec![JobSpec::fixed(now - dur(0.5), dur(1.0))],
                }
            }
        }
        let out = run(BadEnv { step: 0 }, EagerTest);
        assert!(matches!(
            out.termination,
            Termination::EnvironmentFault(EnvFault::DeadlineBeforeArrival { .. })
        ));
        assert!(!out.is_clean());
        // The first (legal) job made it into the partial outcome.
        assert!(!out.instance.is_empty());
        assert_eq!(out.schedule.start(JobId(0)), Some(t(0.0)));
    }

    #[test]
    fn empty_instance_runs_to_empty_outcome() {
        let out = run_static(&Instance::empty(), Clairvoyance::Clairvoyant, EagerTest);
        assert!(out.is_feasible());
        assert_eq!(out.span, Dur::ZERO);
        assert_eq!(out.instance.len(), 0);
    }

    #[test]
    fn trace_records_full_lifecycle() {
        let single = Instance::new(vec![Job::adp(0.0, 2.0, 1.0)]);
        let env = crate::sim::env::StaticEnv::new(&single, Clairvoyance::Clairvoyant);
        let out = run_with_config(
            env,
            LazyTest,
            SimConfig {
                trace: TraceMode::Full,
                ..Default::default()
            },
        );
        use crate::sim::trace::TraceKind;
        let kinds: Vec<_> = out.trace.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::Released {
                    id: JobId(0),
                    deadline: t(2.0)
                },
                TraceKind::Started { id: JobId(0) },
                TraceKind::Completed { id: JobId(0) },
            ]
        );
        assert_eq!(out.trace[1].time, t(2.0));
        assert_eq!(out.trace[2].time, t(3.0));
    }

    #[test]
    fn trace_empty_when_disabled() {
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, EagerTest);
        assert!(out.trace.is_empty());
    }

    #[test]
    fn run_stats_count_events_exactly() {
        // Eager on the 3-job instance: every event is accounted for.
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, EagerTest);
        let s = out.stats;
        assert_eq!(s.release_events, 3, "one release instant per arrival");
        assert_eq!(s.jobs_released, 3);
        assert_eq!(s.completions, 3);
        assert_eq!(s.jobs_completed, 3);
        assert_eq!(s.deadline_alarms, 3, "alarms fire even for started jobs");
        assert_eq!(s.ordered_starts, 0);
        assert_eq!(s.length_probes, 0);
        assert_eq!(s.wakeups, 0);
        assert_eq!(s.events_total, 9);
        assert!(s.is_consistent());
        assert_eq!(s.events_total, out.events_processed);
        // J0 and J1 overlap in time: alarm0 + completion0 + alarm1 +
        // completion1 are all queued at once before anything pops.
        assert_eq!(s.peak_queue, 4);
        assert_eq!(s.actions_applied, 3, "three StartNow actions");
        assert_eq!(s.actions_rejected, 0);
        assert_eq!(s.force_starts, 0);
        assert!(s.wall_total_s >= 0.0 && s.wall_total_s.is_finite());
        // Phase timing is off by default.
        assert_eq!(s.wall_scheduler_s, 0.0);
        assert_eq!(s.wall_environment_s, 0.0);
    }

    #[test]
    fn run_stats_track_force_starts_and_rejections() {
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, Broken);
        assert_eq!(out.stats.force_starts, 3);
        assert_eq!(out.stats.force_starts, out.violations.len());
        assert_eq!(out.stats.actions_applied, 0);
        assert_eq!(
            out.stats.jobs_completed, 3,
            "force-started jobs still complete"
        );
    }

    #[test]
    fn time_phases_populates_wall_splits_without_changing_counts() {
        let env = crate::sim::env::StaticEnv::new(&inst(), Clairvoyance::Clairvoyant);
        let timed = run_with_config(
            env,
            EagerTest,
            SimConfig {
                time_phases: true,
                ..SimConfig::default()
            },
        );
        let untimed = run_static(&inst(), Clairvoyance::Clairvoyant, EagerTest);
        // Same deterministic counters either way; only wall clocks differ.
        assert_eq!(
            {
                let mut s = timed.stats;
                s.wall_total_s = 0.0;
                s.wall_scheduler_s = 0.0;
                s.wall_environment_s = 0.0;
                s
            },
            {
                let mut s = untimed.stats;
                s.wall_total_s = 0.0;
                s
            },
        );
        assert!(timed.stats.wall_scheduler_s >= 0.0);
        assert!(timed.stats.wall_environment_s >= 0.0);
        assert!(timed.stats.wall_total_s >= timed.stats.wall_scheduler_s);
    }

    #[test]
    fn run_stats_count_wakeups_and_ordered_starts() {
        /// Commits each arrival to its deadline and also asks for a wakeup.
        struct CommitAndWake;
        impl OnlineScheduler for CommitAndWake {
            fn name(&self) -> String {
                "commit-and-wake".into()
            }
            fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
                ctx.start_at(job.id, job.deadline);
                ctx.wake_at(job.deadline, u64::from(job.id.0));
            }
            fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
        }
        let out = run_static(&inst(), Clairvoyance::Clairvoyant, CommitAndWake);
        assert!(out.is_feasible());
        assert_eq!(out.stats.ordered_starts, 3);
        assert_eq!(out.stats.wakeups, 3);
        assert_eq!(out.stats.actions_applied, 6, "3 start_at + 3 wake_at");
        assert!(out.stats.is_consistent());
    }

    #[test]
    fn simultaneous_deadline_alarms_after_batch_start() {
        /// Batch-like: on a deadline alarm, start every pending job.
        struct MiniBatch;
        impl OnlineScheduler for MiniBatch {
            fn name(&self) -> String {
                "mini-batch".into()
            }
            fn on_arrival(&mut self, _job: Arrival, _ctx: &mut Ctx<'_>) {}
            fn on_deadline(&mut self, _id: JobId, ctx: &mut Ctx<'_>) {
                let pending: Vec<JobId> = ctx.pending().collect();
                for id in pending {
                    ctx.start(id);
                }
            }
        }
        // Two jobs share a deadline; the first alarm starts both, the second
        // alarm must be a no-op.
        let two = Instance::new(vec![Job::adp(0.0, 2.0, 1.0), Job::adp(0.0, 2.0, 5.0)]);
        let out = run_static(&two, Clairvoyance::Clairvoyant, MiniBatch);
        assert!(out.is_feasible());
        assert_eq!(out.schedule.start(JobId(0)), Some(t(2.0)));
        assert_eq!(out.schedule.start(JobId(1)), Some(t(2.0)));
        assert_eq!(out.span, dur(5.0));
    }
}
