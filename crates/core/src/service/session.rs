//! A resident scheduling session: the incremental analogue of the batch
//! engine's drive loop.
//!
//! [`Session`] owns one scheduler and one [`World`] and accepts jobs one at
//! a time via [`Session::offer`], in arrival order, with no bound on how
//! many will ever arrive. Between offers it holds the pending event queue
//! (deadline alarms, ordered starts, completions, wakeups) exactly as the
//! batch engine would; each offer first drains every queued event that
//! precedes the new arrival in the engine's `(time, tie-order)` total
//! order, then releases the job and dispatches `on_arrival`. Because the
//! tie-break orders are copied verbatim from the engine
//! ([`crate::sim::engine`]), a session fed a trace job-by-job makes the
//! same decisions, in the same order, as [`crate::sim::run_static`] over
//! the whole trace — the determinism contract `fjs serve` advertises.
//!
//! Three properties distinguish a session from a batch run:
//!
//! * **O(pending) memory.** Spans are accumulated by a
//!   [`SpanAccountant`] (closed intervals retire into a scalar) and
//!   completed job records are dropped by
//!   `World::compact_completed_prefix`, so resident state is proportional
//!   to the jobs in flight, not the jobs ever seen.
//! * **Containment.** Every entry point runs the scheduler under
//!   [`contain_panic`] with a cumulative event budget; a panic, a runaway
//!   wakeup loop, or a horizon overflow poisons *this* session with a
//!   typed [`Verdict`] (the supervise layer's) and leaves every other
//!   session untouched.
//! * **Incremental output.** Start/finish [`Decision`]s carry the running
//!   span and are drained by the caller as they happen; nothing waits for
//!   the end of the trace.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;

use crate::interval::{Interval, SpanAccountant};
use crate::job::JobId;
use crate::sim::env::{geometric_class, Clairvoyance};
use crate::sim::sched::{Action, Arrival, Ctx, OnlineScheduler};
use crate::sim::stats::RunStats;
use crate::sim::world::World;
use crate::supervise::{contain_panic, Verdict, DEFAULT_WATCHDOG_EVENTS};
use crate::time::{Dur, Time};

// ---- event queue (verbatim mirror of the batch engine's ordering) -------

/// Same-instant tie-break order, copied from the batch engine: completions
/// first, then releases (order 1, held by the arriving offer itself), then
/// ordered starts, deadline alarms, wakeups. Fixed-length sessions never
/// queue length probes (order 3), so that slot is simply unused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EventKind {
    Completion(JobId),
    OrderedStart(JobId),
    DeadlineAlarm(JobId),
    Wakeup(u64),
}

impl EventKind {
    fn order(self) -> u8 {
        match self {
            EventKind::Completion(_) => 0,
            EventKind::OrderedStart(_) => 2,
            EventKind::DeadlineAlarm(_) => 4,
            EventKind::Wakeup(_) => 5,
        }
    }
}

/// Tie-break rank of a release, between completions and ordered starts.
const RELEASE_ORDER: u8 = 1;

#[derive(Clone, Copy, Debug)]
struct Event {
    time: Time,
    order: u8,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.order, self.seq).cmp(&(other.time, other.order, other.seq))
    }
}

// ---- public surface ------------------------------------------------------

/// A job offered to a session (the streaming analogue of a trace record).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct JobOffer {
    /// Arrival time `a(J)`; must be ≥ every previously offered arrival.
    pub arrival: Time,
    /// Starting deadline `d(J)`; must be ≥ the arrival.
    pub deadline: Time,
    /// Processing length `p(J)`; must be positive. Sessions schedule fixed
    /// lengths only — adaptive adversaries need the batch engine's
    /// environment loop.
    pub length: Dur,
}

impl JobOffer {
    /// Canonical wire size of this offer's payload: the byte length of
    /// `"{a},{d},{l}"` rendered from the parsed values. The governor's
    /// per-tenant byte quota charges this — not the raw client bytes — so
    /// live admission and a journal replay (which re-parses the same
    /// canonical floats) account identically, and padding a payload with
    /// whitespace buys a client nothing.
    pub fn canonical_bytes(&self) -> u64 {
        let mut counter = ByteCounter(0);
        use std::fmt::Write;
        let _ = write!(
            counter,
            "{},{},{}",
            self.arrival.get(),
            self.deadline.get(),
            self.length.get()
        );
        counter.0
    }
}

/// Counts formatted bytes without allocating.
struct ByteCounter(u64);

impl fmt::Write for ByteCounter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len() as u64;
        Ok(())
    }
}

/// Why an offer (or close) was refused. The session state is unchanged
/// unless the variant is [`SessionError::Terminal`].
#[derive(Clone, PartialEq, Debug)]
pub enum SessionError {
    /// The session already reached a terminal verdict and accepts nothing.
    Terminal(Verdict),
    /// The offer's arrival precedes an earlier offer — sessions consume
    /// arrival-ordered streams, exactly like the batch engine's
    /// environments (which fault a release into the past).
    ArrivalRegressed {
        /// The offending arrival.
        arrival: Time,
        /// The session's arrival frontier (largest arrival admitted).
        frontier: Time,
    },
    /// The starting deadline precedes the arrival.
    DeadlineBeforeArrival {
        /// The offer's arrival.
        arrival: Time,
        /// The offending deadline.
        deadline: Time,
    },
    /// The processing length is zero or negative.
    NonPositiveLength {
        /// The offending length.
        length: Dur,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Terminal(v) => write!(f, "session is terminal ({v})"),
            SessionError::ArrivalRegressed { arrival, frontier } => write!(
                f,
                "arrival {arrival} precedes the session frontier {frontier}"
            ),
            SessionError::DeadlineBeforeArrival { arrival, deadline } => {
                write!(f, "deadline {deadline} precedes arrival {arrival}")
            }
            SessionError::NonPositiveLength { length } => {
                write!(f, "non-positive length {length}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// What a decision stream entry records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecisionKind {
    /// A job started (scheduler action, ordered start firing, or deadline
    /// force-start — indistinguishable downstream, exactly as in a batch
    /// run's schedule).
    Start,
    /// A job ran to completion.
    Finish,
}

/// One entry of a session's incremental decision stream.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Decision {
    /// Start or finish.
    pub kind: DecisionKind,
    /// The job.
    pub id: JobId,
    /// When it happened (simulation time).
    pub at: Time,
    /// Running span of the session *after* this decision.
    pub span: Dur,
}

impl fmt::Display for Decision {
    /// The canonical decision-log line body (without the session name):
    /// `start J3 at=4 span=7.5`. `fjs serve` prefixes the session and the
    /// byte-identity contract is over exactly this rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            DecisionKind::Start => "start",
            DecisionKind::Finish => "done",
        };
        write!(f, "{kind} {} at={} span={}", self.id, self.at, self.span)
    }
}

/// Outcome the session tried to reach internally: `Ok` to keep going, or
/// the terminal verdict that poisons it.
type Step = Result<(), Verdict>;

/// One resident scheduler instance (see module docs).
pub struct Session {
    world: World,
    sched: Box<dyn OnlineScheduler>,
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    scratch: Vec<Action>,
    span: SpanAccountant,
    stats: RunStats,
    decisions: Vec<Decision>,
    verdict: Option<Verdict>,
    max_events: usize,
    frontier: Time,
    peak_retained: usize,
    admitted_bytes: u64,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("scheduler", &self.sched.name())
            .field("now", &self.world.now())
            .field("pending", &self.world.num_pending())
            .field("running", &self.world.num_running())
            .field("verdict", &self.verdict)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// A fresh session around a scheduler. `clairvoyance` controls what
    /// `on_arrival` reveals, exactly as in batch runs; pass the
    /// scheduler's declared information model.
    pub fn new(sched: Box<dyn OnlineScheduler>, clairvoyance: Clairvoyance) -> Self {
        Session {
            world: World::new(clairvoyance),
            sched,
            queue: BinaryHeap::new(),
            seq: 0,
            scratch: Vec::new(),
            span: SpanAccountant::new(),
            stats: RunStats::default(),
            decisions: Vec::new(),
            verdict: None,
            max_events: DEFAULT_WATCHDOG_EVENTS,
            frontier: Time::ZERO,
            peak_retained: 0,
            admitted_bytes: 0,
        }
    }

    /// Caps the cumulative events this session may process (the watchdog
    /// budget; default [`DEFAULT_WATCHDOG_EVENTS`]).
    pub fn with_watchdog(mut self, max_events: usize) -> Self {
        self.max_events = max_events;
        self
    }

    /// The scheduler's self-reported name.
    pub fn scheduler_name(&self) -> String {
        self.sched.name()
    }

    /// Current simulation time (the time of the last processed event).
    pub fn now(&self) -> Time {
        self.world.now()
    }

    /// Running span: retired mass plus the measure of still-open segments.
    pub fn span(&self) -> Dur {
        self.span.total()
    }

    /// Engine counters accumulated so far. One divergence from a batch run
    /// over the same trace is expected: the batch engine counts one
    /// release *event* per distinct arrival instant, a session counts one
    /// per offer. `jobs_released` and every decision-bearing counter
    /// match.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Jobs admitted but not yet started.
    pub fn num_pending(&self) -> usize {
        self.world.num_pending()
    }

    /// Jobs currently running.
    pub fn num_running(&self) -> usize {
        self.world.num_running()
    }

    /// Job records currently materialized (history is compacted away).
    pub fn retained_records(&self) -> usize {
        self.world.num_retained()
    }

    /// High-water mark of materialized records — the bounded-memory
    /// witness: stays O(pending), not O(jobs ever offered).
    pub fn peak_retained_records(&self) -> usize {
        self.peak_retained
    }

    /// High-water mark of live (unretired) span segments.
    pub fn peak_live_segments(&self) -> usize {
        self.span.peak_live_segments()
    }

    /// Cumulative [`JobOffer::canonical_bytes`] of every offer that got
    /// past validation (admitted jobs *and* the offer that poisoned the
    /// session — exactly the offers the journal records, so a replay
    /// reproduces this figure). The tenant byte quota sums it across a
    /// tenant's open sessions.
    pub fn admitted_payload_bytes(&self) -> u64 {
        self.admitted_bytes
    }

    /// Terminal verdict, if the session has one.
    pub fn verdict(&self) -> Option<&Verdict> {
        self.verdict.as_ref()
    }

    /// Drains the decisions emitted since the last call, in order.
    pub fn take_decisions(&mut self) -> Vec<Decision> {
        std::mem::take(&mut self.decisions)
    }

    /// Offers the next job of the arrival stream.
    ///
    /// Drains every queued event that precedes the arrival, releases the
    /// job, and dispatches `on_arrival` — all under panic containment and
    /// the event budget. On success returns the job's id (global release
    /// order). A validation failure rejects the offer without touching
    /// session state; a contained panic / budget exhaustion / fault
    /// poisons the session and reports [`SessionError::Terminal`].
    pub fn offer(&mut self, offer: JobOffer) -> Result<JobId, SessionError> {
        if let Some(v) = &self.verdict {
            return Err(SessionError::Terminal(v.clone()));
        }
        if offer.arrival < self.frontier {
            return Err(SessionError::ArrivalRegressed {
                arrival: offer.arrival,
                frontier: self.frontier,
            });
        }
        if offer.deadline < offer.arrival {
            return Err(SessionError::DeadlineBeforeArrival {
                arrival: offer.arrival,
                deadline: offer.deadline,
            });
        }
        if !offer.length.is_positive() {
            return Err(SessionError::NonPositiveLength {
                length: offer.length,
            });
        }
        self.frontier = offer.arrival;
        self.admitted_bytes += offer.canonical_bytes();
        contain_panic(|| {
            self.drain_before(offer.arrival, RELEASE_ORDER)?;
            self.release_offer(offer)
        })
        .map_err(|verdict| {
            self.verdict = Some(verdict.clone());
            SessionError::Terminal(verdict)
        })
    }

    /// Declares the arrival stream finished and drains the session to
    /// quiescence (every admitted job started and completed), returning
    /// the terminal verdict. Idempotent: closing a terminal session just
    /// returns its verdict again.
    pub fn close(&mut self) -> Verdict {
        if let Some(v) = &self.verdict {
            return v.clone();
        }
        let verdict = contain_panic(|| self.drain_all())
            .err()
            .unwrap_or(Verdict::Completed);
        self.verdict = Some(verdict.clone());
        verdict
    }

    // ---- drive loop (mirrors crate::sim::engine) ---------------------

    fn push(&mut self, time: Time, kind: EventKind) {
        let ev = Event {
            time,
            order: kind.order(),
            seq: self.seq,
            kind,
        };
        self.seq += 1;
        self.queue.push(Reverse(ev));
        self.stats.peak_queue = self.stats.peak_queue.max(self.queue.len());
    }

    /// Processes queued events strictly preceding `(time, order)` in the
    /// engine's total order.
    fn drain_before(&mut self, time: Time, order: u8) -> Step {
        while let Some(&Reverse(ev)) = self.queue.peek() {
            if (ev.time, ev.order) >= (time, order) {
                break;
            }
            self.budget_check()?;
            self.queue.pop();
            self.dispatch_event(ev)?;
        }
        Ok(())
    }

    fn drain_all(&mut self) -> Step {
        while let Some(&Reverse(ev)) = self.queue.peek() {
            self.budget_check()?;
            self.queue.pop();
            self.dispatch_event(ev)?;
        }
        Ok(())
    }

    fn budget_check(&self) -> Step {
        if self.stats.events_total >= self.max_events {
            return Err(Verdict::TimedOut {
                events: self.stats.events_total,
            });
        }
        Ok(())
    }

    fn release_offer(&mut self, offer: JobOffer) -> Result<JobId, Verdict> {
        self.budget_check()?;
        self.advance(offer.arrival);
        self.stats.release_events += 1;
        self.stats.events_total += 1;
        let id = self
            .world
            .release(offer.arrival, offer.deadline, Some(offer.length));
        self.stats.jobs_released += 1;
        self.peak_retained = self.peak_retained.max(self.world.num_retained());
        self.push(offer.deadline, EventKind::DeadlineAlarm(id));
        let clairvoyance = self.world.clairvoyance();
        let arrival = Arrival {
            id,
            arrival: offer.arrival,
            deadline: offer.deadline,
            length: clairvoyance.is_clairvoyant().then_some(offer.length),
            length_class: clairvoyance
                .reveals_class()
                .then(|| geometric_class(offer.length, 2.0, 1.0)),
        };
        self.dispatch(|sched, ctx| sched.on_arrival(arrival, ctx))?;
        Ok(id)
    }

    fn advance(&mut self, to: Time) {
        self.world.advance_to(to);
        self.span.advance(to);
    }

    fn dispatch_event(&mut self, ev: Event) -> Step {
        self.advance(ev.time);
        self.stats.events_total += 1;
        match ev.kind {
            EventKind::Completion(id) => {
                self.stats.completions += 1;
                self.stats.jobs_completed += 1;
                let length = match self.world.job(id).length() {
                    Some(p) => p,
                    None => {
                        return Err(Verdict::Faulted {
                            message: format!("completing {id} with no ruled length"),
                        })
                    }
                };
                self.world.mark_completed(id);
                self.decisions.push(Decision {
                    kind: DecisionKind::Finish,
                    id,
                    at: ev.time,
                    span: self.span.total(),
                });
                self.world.compact_completed_prefix();
                self.dispatch(|sched, ctx| sched.on_completion(id, length, ctx))?;
            }
            EventKind::OrderedStart(id) => {
                self.stats.ordered_starts += 1;
                if self.world.is_pending(id) {
                    self.start_job(id, ev.time)?;
                }
            }
            EventKind::DeadlineAlarm(id) => {
                self.stats.deadline_alarms += 1;
                if !self.world.is_pending(id) {
                    // Already started (or completed): the alarm is spent.
                } else if self.world.job(id).ordered_start().is_some() {
                    // A same-instant ordered start is honored, as in the
                    // batch engine.
                    self.start_job(id, ev.time)?;
                } else {
                    self.dispatch(|sched, ctx| sched.on_deadline(id, ctx))?;
                    if self.world.is_pending(id) && self.world.job(id).ordered_start().is_none() {
                        self.stats.force_starts += 1;
                        self.start_job(id, ev.time)?;
                    }
                }
            }
            EventKind::Wakeup(token) => {
                self.stats.wakeups += 1;
                self.dispatch(|sched, ctx| sched.on_wakeup(token, ctx))?;
            }
        }
        Ok(())
    }

    /// Runs one scheduler callback and applies its actions — the batch
    /// engine's dispatch pattern, with the same scratch-buffer reuse.
    fn dispatch<F>(&mut self, callback: F) -> Step
    where
        F: FnOnce(&mut dyn OnlineScheduler, &mut Ctx<'_>),
    {
        let mut ctx = Ctx::with_scratch(&self.world, std::mem::take(&mut self.scratch));
        callback(self.sched.as_mut(), &mut ctx);
        let mut actions = ctx.into_actions();
        let step = self.apply_actions(&mut actions);
        actions.clear();
        self.scratch = actions;
        step
    }

    /// Validates and applies scheduler actions, mirroring the batch
    /// engine's rules verbatim. Invalid actions are counted and dropped
    /// (the session keeps going, exactly like a batch run).
    fn apply_actions(&mut self, actions: &mut Vec<Action>) -> Step {
        for action in actions.drain(..) {
            let now = self.world.now();
            match action {
                Action::StartNow(id) => {
                    if !self.world.is_pending(id) {
                        self.stats.actions_rejected += 1;
                        continue;
                    }
                    let rec = self.world.job(id);
                    if now < rec.arrival() || now > rec.deadline() {
                        self.stats.actions_rejected += 1;
                        continue;
                    }
                    self.stats.actions_applied += 1;
                    self.start_job(id, now)?;
                }
                Action::StartAt(id, at) => {
                    if !self.world.is_pending(id) {
                        self.stats.actions_rejected += 1;
                        continue;
                    }
                    let rec = self.world.job(id);
                    if rec.ordered_start().is_some() {
                        self.stats.actions_rejected += 1;
                        continue;
                    }
                    if at < now || at < rec.arrival() || at > rec.deadline() {
                        self.stats.actions_rejected += 1;
                        continue;
                    }
                    self.stats.actions_applied += 1;
                    self.world.set_ordered_start(id, at);
                    self.push(at, EventKind::OrderedStart(id));
                }
                Action::WakeAt(at, token) => {
                    if at < now {
                        self.stats.actions_rejected += 1;
                        continue;
                    }
                    self.stats.actions_applied += 1;
                    self.push(at, EventKind::Wakeup(token));
                }
            }
        }
        Ok(())
    }

    fn start_job(&mut self, id: JobId, at: Time) -> Step {
        let length = match self.world.job(id).length() {
            Some(p) => p,
            None => {
                return Err(Verdict::Faulted {
                    message: format!("starting {id} with no ruled length"),
                })
            }
        };
        // Same horizon guard as the batch engine: a completion time that
        // leaves f64 range would corrupt the event order.
        if !(at.get() + length.get()).is_finite() {
            return Err(Verdict::Faulted {
                message: format!("horizon overflow: {id} started at {at} with length {length}"),
            });
        }
        self.world.mark_started(id, at);
        self.span.record(Interval::active(at, length));
        self.decisions.push(Decision {
            kind: DecisionKind::Start,
            id,
            at,
            span: self.span.total(),
        });
        self.push(at + length, EventKind::Completion(id));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Instance, Job};
    use crate::sim::run_static;
    use crate::supervise::with_quiet_panics;
    use crate::time::{dur, t};

    fn offer(a: f64, d: f64, p: f64) -> JobOffer {
        JobOffer {
            arrival: t(a),
            deadline: t(d),
            length: dur(p),
        }
    }

    /// Starts every job the instant it arrives.
    struct Eager;
    impl OnlineScheduler for Eager {
        fn name(&self) -> String {
            "test-eager".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            ctx.start(job.id);
        }
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
    }

    /// Commits every job to its deadline via an ordered start.
    struct Latest;
    impl OnlineScheduler for Latest {
        fn name(&self) -> String {
            "test-latest".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            ctx.start_at(job.id, job.deadline);
        }
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
    }

    /// Never acts: every job is force-started by its deadline alarm, and
    /// every arrival also books a wakeup (exercising the wakeup path).
    struct Sleeper;
    impl OnlineScheduler for Sleeper {
        fn name(&self) -> String {
            "test-sleeper".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            ctx.wake_at(job.deadline, job.id.0 as u64);
        }
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
    }

    /// Panics on the `n`-th arrival.
    struct PanicOnNth {
        seen: usize,
        n: usize,
    }
    impl OnlineScheduler for PanicOnNth {
        fn name(&self) -> String {
            "test-panic".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            self.seen += 1;
            if self.seen == self.n {
                panic!("poisoned on arrival {}", self.seen);
            }
            ctx.start(job.id);
        }
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
    }

    /// Books a wakeup from every wakeup: a hang, contained only by the
    /// watchdog budget.
    struct Spinner;
    impl OnlineScheduler for Spinner {
        fn name(&self) -> String {
            "test-spinner".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            ctx.start(job.id);
            ctx.wake_at(ctx.now(), 0);
        }
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
        fn on_wakeup(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            ctx.wake_at(ctx.now(), token + 1);
        }
    }

    fn deck() -> Vec<JobOffer> {
        vec![
            offer(0.0, 2.0, 3.0),
            offer(0.0, 4.0, 1.0),
            offer(1.0, 5.0, 2.0),
            offer(3.0, 3.0, 0.5),
            offer(7.0, 11.0, 2.0),
            offer(7.0, 9.0, 4.0),
            offer(15.0, 18.0, 1.0),
        ]
    }

    fn session_outcome(
        sched: Box<dyn OnlineScheduler>,
        offers: &[JobOffer],
    ) -> (Vec<Decision>, Dur, Verdict) {
        let mut s = Session::new(sched, Clairvoyance::Clairvoyant);
        for &o in offers {
            s.offer(o).unwrap();
        }
        let verdict = s.close();
        (s.take_decisions(), s.span(), verdict)
    }

    /// The determinism contract: a session fed job-by-job reproduces the
    /// batch engine's starts and span exactly, for action-free, ordered-
    /// start, and force-start schedulers alike.
    #[test]
    fn session_matches_batch_engine_decisions() {
        let offers = deck();
        let inst = Instance::new(
            offers
                .iter()
                .map(|o| Job::new(o.arrival, o.deadline, o.length))
                .collect::<Vec<_>>(),
        );
        type MkSched = fn() -> Box<dyn OnlineScheduler>;
        let scheds: Vec<(&str, MkSched)> = vec![
            ("eager", || Box::new(Eager)),
            ("latest", || Box::new(Latest)),
            ("sleeper", || Box::new(Sleeper)),
        ];
        for (label, mk) in scheds {
            let batch = run_static(&inst, Clairvoyance::Clairvoyant, mk());
            assert!(batch.termination.is_completed(), "{label}: batch completed");
            let (decisions, span, verdict) = session_outcome(mk(), &offers);
            assert_eq!(verdict, Verdict::Completed, "{label}");
            assert_eq!(span, batch.span, "{label}: span");
            let starts: Vec<(JobId, Time)> = decisions
                .iter()
                .filter(|d| d.kind == DecisionKind::Start)
                .map(|d| (d.id, d.at))
                .collect();
            assert_eq!(starts.len(), offers.len(), "{label}: all jobs started");
            for &(id, at) in &starts {
                assert_eq!(batch.schedule.start(id), Some(at), "{label}: start of {id}");
            }
            // Final decision's running span equals the batch span.
            assert_eq!(
                decisions.last().map(|d| d.span),
                Some(batch.span),
                "{label}"
            );
        }
    }

    #[test]
    fn session_is_deterministic_byte_for_byte() {
        let offers = deck();
        let render = |ds: &[Decision]| ds.iter().map(|d| format!("{d}\n")).collect::<String>();
        let (a, _, _) = session_outcome(Box::new(Latest), &offers);
        let (b, _, _) = session_outcome(Box::new(Latest), &offers);
        assert_eq!(render(&a), render(&b));
    }

    #[test]
    fn offers_are_validated_without_state_damage() {
        let mut s = Session::new(Box::new(Eager), Clairvoyance::Clairvoyant);
        s.offer(offer(5.0, 6.0, 1.0)).unwrap();
        assert!(matches!(
            s.offer(offer(4.0, 9.0, 1.0)),
            Err(SessionError::ArrivalRegressed { .. })
        ));
        assert!(matches!(
            s.offer(offer(6.0, 5.0, 1.0)),
            Err(SessionError::DeadlineBeforeArrival { .. })
        ));
        assert!(matches!(
            s.offer(offer(6.0, 7.0, 0.0)),
            Err(SessionError::NonPositiveLength { .. })
        ));
        // The session is unpoisoned and still serves.
        s.offer(offer(6.0, 8.0, 1.0)).unwrap();
        assert_eq!(s.close(), Verdict::Completed);
        assert_eq!(s.stats().jobs_completed, 2);
    }

    #[test]
    fn panic_is_contained_with_typed_verdict() {
        with_quiet_panics(|| {
            let mut s = Session::new(
                Box::new(PanicOnNth { seen: 0, n: 2 }),
                Clairvoyance::Clairvoyant,
            );
            s.offer(offer(0.0, 5.0, 1.0)).unwrap();
            let err = s.offer(offer(1.0, 6.0, 1.0)).unwrap_err();
            let SessionError::Terminal(Verdict::Panicked { message }) = err else {
                panic!("want Panicked, got {err:?}");
            };
            assert_eq!(message, "poisoned on arrival 2");
            assert_eq!(s.verdict().map(|v| v.label()), Some("panicked"));
            // Terminal sessions refuse everything, idempotently.
            assert!(matches!(
                s.offer(offer(2.0, 7.0, 1.0)),
                Err(SessionError::Terminal(_))
            ));
            assert_eq!(s.close().label(), "panicked");
        });
    }

    #[test]
    fn watchdog_contains_wakeup_spin() {
        let mut s = Session::new(Box::new(Spinner), Clairvoyance::Clairvoyant).with_watchdog(500);
        s.offer(offer(0.0, 1.0, 1.0)).unwrap();
        let verdict = s.close();
        let Verdict::TimedOut { events } = verdict else {
            panic!("want TimedOut, got {verdict:?}");
        };
        assert_eq!(events, 500);
        assert_eq!(s.verdict().map(|v| v.label()), Some("timed-out"));
    }

    /// The O(pending) memory contract: a long sequential stream retires
    /// both its span segments and its job records as it goes.
    #[test]
    fn resident_state_stays_bounded_on_long_streams() {
        let mut s = Session::new(Box::new(Eager), Clairvoyance::Clairvoyant);
        let n = 5_000;
        for i in 0..n {
            let a = 2.0 * i as f64;
            s.offer(offer(a, a + 1.0, 1.0)).unwrap();
        }
        assert_eq!(s.close(), Verdict::Completed);
        assert_eq!(s.stats().jobs_completed, n);
        assert!(
            s.peak_retained_records() <= 8,
            "records grew: {}",
            s.peak_retained_records()
        );
        assert!(
            s.peak_live_segments() <= 8,
            "live segments grew: {}",
            s.peak_live_segments()
        );
        // Span is still exact over the whole history.
        assert_eq!(s.span(), dur(n as f64));
    }
}
