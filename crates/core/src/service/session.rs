//! A resident scheduling session: the batch engine's drive loop, fed one
//! job at a time.
//!
//! [`Session`] owns one scheduler and one resident engine
//! ([`crate::sim::engine`]) and accepts jobs one at a time via
//! [`Session::offer`], in arrival order, with no bound on how many will
//! ever arrive. Between offers the engine holds the pending event queue
//! (deadline alarms, ordered starts, completions, wakeups); each offer
//! first processes every queued event that precedes the new arrival in the
//! engine's `(time, order, seq)` order, then releases the job and
//! dispatches `on_arrival`. It is the batch engine's own code, so a session
//! fed a trace job-by-job makes the same decisions, in the same order, with
//! the same span bits, as [`crate::sim::run_static`] over the whole trace —
//! the determinism contract `fjs serve` advertises.
//!
//! Three properties distinguish a session from a batch run:
//!
//! * **O(pending) memory.** The span is the engine's
//!   [`RunningSpan`](crate::interval::RunningSpan) (one current segment
//!   plus a scalar), completed job records are dropped by
//!   `World::compact_completed_prefix` before `on_completion` runs, and no
//!   trace, violation or rejection is stored, so resident state is
//!   proportional to the jobs in flight, not the jobs ever seen.
//! * **Containment.** Every entry point runs the scheduler under
//!   [`contain_panic`] with a cumulative event budget; a panic, a runaway
//!   wakeup loop, or a horizon overflow poisons *this* session with a
//!   typed [`Verdict`] (the supervise layer's) and leaves every other
//!   session untouched.
//! * **Incremental output.** Start/finish [`Decision`]s carry the running
//!   span and are drained by the caller as they happen; nothing waits for
//!   the end of the trace.

use std::fmt;

use crate::job::{Instance, JobId};
use crate::sim::engine::Engine;
use crate::sim::env::{Clairvoyance, JobSpec, StaticEnv};
use crate::sim::sched::OnlineScheduler;
use crate::sim::stats::RunStats;
use crate::supervise::{contain_panic, Verdict, DEFAULT_WATCHDOG_EVENTS};
use crate::time::{Dur, Time};

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

/// A session-mode engine. Its environment releases nothing (offers do)
/// and only carries the information model.
type SessionEngine = Engine<StaticEnv, Box<dyn OnlineScheduler>>;

/// One resident scheduler instance (see module docs).
pub struct Session {
    engine: SessionEngine,
    verdict: Option<Verdict>,
    frontier: Time,
    admitted_bytes: u64,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("scheduler", &self.engine.sched.name())
            .field("now", &self.now())
            .field("pending", &self.num_pending())
            .field("running", &self.num_running())
            .field("verdict", &self.verdict)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// A fresh session around a scheduler. `clairvoyance` controls what
    /// `on_arrival` reveals, exactly as in batch runs; pass the
    /// scheduler's declared information model.
    pub fn new(sched: Box<dyn OnlineScheduler>, clairvoyance: Clairvoyance) -> Self {
        let env = StaticEnv::new(&Instance::empty(), clairvoyance);
        Session {
            engine: Engine::resident(env, sched, DEFAULT_WATCHDOG_EVENTS),
            verdict: None,
            frontier: Time::ZERO,
            admitted_bytes: 0,
        }
    }

    /// Caps the cumulative events this session may process (the watchdog
    /// budget; default [`DEFAULT_WATCHDOG_EVENTS`]).
    pub fn with_watchdog(mut self, max_events: usize) -> Self {
        self.engine.config.max_events = max_events;
        self
    }

    /// The scheduler's self-reported name.
    pub fn scheduler_name(&self) -> String {
        self.engine.sched.name()
    }

    /// Current simulation time (the time of the last processed event).
    pub fn now(&self) -> Time {
        self.engine.world.now()
    }

    /// Running span of every job started so far.
    pub fn span(&self) -> Dur {
        self.engine.span.total()
    }

    /// Engine counters accumulated so far. One divergence from a batch run
    /// over the same trace is expected: the batch engine counts one
    /// release *event* per distinct arrival instant, a session counts one
    /// per offer. `jobs_released` and every decision-bearing counter
    /// (`completions`, `ordered_starts`, `deadline_alarms`, `wakeups`,
    /// `actions_applied`, `actions_rejected`, `force_starts`) match.
    pub fn stats(&self) -> &RunStats {
        &self.engine.stats
    }

    /// Jobs admitted but not yet started.
    pub fn num_pending(&self) -> usize {
        self.engine.world.num_pending()
    }

    /// Jobs currently running.
    pub fn num_running(&self) -> usize {
        self.engine.world.num_running()
    }

    /// Job records currently materialized (history is compacted away).
    pub fn retained_records(&self) -> usize {
        self.engine.world.num_retained()
    }

    /// High-water mark of materialized records — the bounded-memory
    /// witness: stays O(pending), not O(jobs ever offered).
    pub fn peak_retained_records(&self) -> usize {
        self.engine.world.peak_retained()
    }

    /// High-water mark of live span segments: every start happens at
    /// `now`, so the running span holds one segment once a job has
    /// started, and none before.
    pub fn peak_live_segments(&self) -> usize {
        self.engine.span.live_segments()
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
        std::mem::take(&mut self.engine.decisions)
    }

    /// Offers the next job of the arrival stream.
    ///
    /// Processes every queued event that precedes the arrival, releases the
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
        let spec = JobSpec::fixed(offer.deadline, offer.length);
        let engine = &mut self.engine;
        contain_panic(|| {
            engine
                .release_alone(offer.arrival, spec)
                .map_err(|stop| engine.stopped(stop).into())
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
        let engine = &mut self.engine;
        let verdict = contain_panic(|| engine.drain().map_err(|stop| engine.stopped(stop).into()))
            .err()
            .unwrap_or(Verdict::Completed);
        self.verdict = Some(verdict.clone());
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::sim::run_static;
    use crate::sim::sched::{Arrival, Ctx};
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
    /// start, and force-start schedulers alike. The second deck chains two
    /// rigid jobs end to start at non-dyadic times, where a span that
    /// retired the first segment before the touching start summed to
    /// `9.05` instead of the batch's `9.049999999999999`.
    #[test]
    fn session_matches_batch_engine_decisions() {
        let touching = vec![offer(4.15, 4.15, 0.89), offer(5.04, 5.04, 8.16)];
        for offers in [deck(), touching] {
            assert_session_matches_batch(&offers);
        }
    }

    fn assert_session_matches_batch(offers: &[JobOffer]) {
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
            let (decisions, span, verdict) = session_outcome(mk(), offers);
            assert_eq!(verdict, Verdict::Completed, "{label}");
            assert_eq!(
                span.get().to_bits(),
                batch.span.get().to_bits(),
                "{label}: span {span} vs {}",
                batch.span
            );
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
                decisions.last().map(|d| d.span.get().to_bits()),
                Some(batch.span.get().to_bits()),
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

    /// Never acts, so every job is force-started by its deadline alarm.
    struct Idle;
    impl OnlineScheduler for Idle {
        fn name(&self) -> String {
            "test-idle".into()
        }
        fn on_arrival(&mut self, _job: Arrival, _ctx: &mut Ctx<'_>) {}
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
    }

    /// Issues only actions the engine rejects: a start of a job that was
    /// never released, an ordered start past the deadline, and a wakeup in
    /// the past.
    struct Hostile;
    impl OnlineScheduler for Hostile {
        fn name(&self) -> String {
            "test-hostile".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            ctx.start(JobId(u32::MAX));
            ctx.start_at(job.id, job.deadline + dur(1.0));
            ctx.wake_at(job.arrival - dur(1.0), 0);
        }
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
    }

    /// No buffer grows per job: over a long stream of force-starts and of
    /// rejected actions, the engine stores no violation, rejection or trace
    /// entry, and the resident records stay O(jobs in flight).
    #[test]
    fn session_state_stays_bounded_under_force_starts_and_rejections() {
        type MkSched = fn() -> Box<dyn OnlineScheduler>;
        let scheds: [(&str, MkSched); 2] = [
            ("idle", || Box::new(Idle)),
            ("hostile", || Box::new(Hostile)),
        ];
        for (label, mk) in scheds {
            let mut s = Session::new(mk(), Clairvoyance::Clairvoyant);
            let n = 10_000;
            for i in 0..n {
                let a = i as f64;
                s.offer(offer(a, a + 0.5, 1.0)).unwrap();
                let engine = &s.engine;
                assert!(engine.violations.is_empty(), "{label}: violations kept");
                assert!(engine.rejected.is_empty(), "{label}: rejections kept");
                assert!(engine.trace.is_empty(), "{label}: trace kept");
                assert!(
                    s.peak_retained_records() <= 8,
                    "{label}: records grew to {} at offer {i}",
                    s.peak_retained_records()
                );
                s.take_decisions();
            }
            assert_eq!(s.close(), Verdict::Completed, "{label}");
            let stats = s.stats();
            assert_eq!(stats.force_starts, n, "{label}: every job force-started");
            if label == "hostile" {
                assert_eq!(
                    stats.actions_rejected,
                    3 * n,
                    "{label}: every action rejected"
                );
            }
            assert!(s.engine.violations.is_empty() && s.engine.rejected.is_empty());
        }
    }

    /// A start whose completion leaves the finite range faults the session
    /// with the pinned message, and the fault is terminal.
    #[test]
    fn horizon_overflow_faults_with_the_pinned_message() {
        let mut s = Session::new(Box::new(Eager), Clairvoyance::Clairvoyant);
        let err = s.offer(offer(f64::MAX, f64::MAX, f64::MAX)).unwrap_err();
        let SessionError::Terminal(verdict) = err else {
            panic!("want Terminal, got {err:?}");
        };
        let (at, length) = (t(f64::MAX), dur(f64::MAX));
        assert_eq!(
            verdict.to_string(),
            format!("faulted: horizon overflow: J0 started at {at} with length {length}")
        );
        assert_eq!(s.close(), verdict);
    }
}
