//! The pre-arena reference engine, kept behind the `legacy-engine` feature.
//!
//! This is a verbatim snapshot of the drive loop as it stood before the
//! arena/calendar-queue/incremental-span rewrite: a `BinaryHeap<Reverse<_>>`
//! event queue and an end-of-run [`Schedule::span`] measurement. It runs
//! against the same [`World`], [`Environment`] and [`OnlineScheduler`]
//! types, so `tests/engine_equivalence.rs` can replay identical workloads
//! through both cores and assert bit-identical outcomes.
//!
//! Not compiled into release artifacts — only the equivalence suite enables
//! the feature. The event-ordering contract is documented in
//! [`engine`](crate::sim::engine) and is shared by construction: both cores
//! order by the same `(time, order, seq)` tuple.

use crate::job::JobId;
use crate::schedule::Schedule;
use crate::sim::engine::{
    ActionFault, EnvFault, Event, EventKind, RejectedAction, SimConfig, SimOutcome, Termination,
    Violation, RELEASE_ORDER,
};
use crate::sim::env::{Environment, JobSpec, LengthRuling, LengthSpec};
use crate::sim::sched::{Action, Arrival, Ctx, OnlineScheduler};
use crate::sim::stats::RunStats;
use crate::sim::trace::{TraceEvent, TraceKind, TraceMode};
use crate::sim::world::{JobStatus, World};
use crate::time::{Dur, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

enum DriveEnd {
    Drained,
    EventCap,
}

struct LegacyEngine<E, S> {
    world: World,
    env: E,
    sched: S,
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    violations: Vec<Violation>,
    rejected: Vec<RejectedAction>,
    stats: RunStats,
    config: SimConfig,
    trace: Vec<TraceEvent>,
    scratch: Vec<Action>,
}

impl<E: Environment, S: OnlineScheduler> LegacyEngine<E, S> {
    fn record(&mut self, kind: TraceKind) {
        match self.config.trace {
            TraceMode::Off => {}
            TraceMode::Full => self.trace.push(TraceEvent {
                time: self.world.now(),
                kind,
            }),
        }
    }

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
        self.rejected.push(RejectedAction {
            at: self.world.now(),
            fault,
        });
    }

    fn phase_start(&self) -> Option<Instant> {
        self.config.time_phases.then(Instant::now)
    }

    fn phase_done(t0: Option<Instant>, acc: &mut f64) {
        if let Some(t0) = t0 {
            *acc += t0.elapsed().as_secs_f64();
        }
    }

    fn completion_time(&self, id: JobId, at: Time, p: Dur) -> Result<Time, EnvFault> {
        let raw = at.get() + p.get();
        if !raw.is_finite() {
            return Err(EnvFault::HorizonOverflow { id });
        }
        Ok(Time::new(raw))
    }

    fn start_job(&mut self, id: JobId, at: Time) -> Result<(), EnvFault> {
        debug_assert!(self.world.is_pending(id), "starting non-pending job {id}");
        let rec = self.world.job(id);
        debug_assert!(rec.arrival() <= at && at <= rec.deadline());
        let known = rec.length();
        self.world.mark_started(id, at);
        self.record(TraceKind::Started { id });
        match known {
            Some(p) => {
                let completion = self.completion_time(id, at, p)?;
                self.push(completion, EventKind::Completion(id));
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
                        self.push(completion, EventKind::Completion(id));
                    }
                    LengthRuling::AskAgainAt(t) => {
                        if t <= at {
                            return Err(EnvFault::ProbeNotDeferred { id, at: t });
                        }
                        self.push(t, EventKind::LengthProbe(id));
                    }
                }
            }
        }
        Ok(())
    }

    fn dispatch_callback(
        &mut self,
        call: impl FnOnce(&mut S, &mut Ctx<'_>),
    ) -> Result<(), EnvFault> {
        let mut ctx = Ctx::with_scratch(&self.world, std::mem::take(&mut self.scratch));
        let t0 = self.phase_start();
        call(&mut self.sched, &mut ctx);
        Self::phase_done(t0, &mut self.stats.wall_scheduler_s);
        let mut actions = ctx.into_actions();
        let applied = self.apply_actions(&mut actions);
        actions.clear();
        self.scratch = actions;
        applied
    }

    fn apply_actions(&mut self, actions: &mut Vec<Action>) -> Result<(), EnvFault> {
        for action in actions.drain(..) {
            match action {
                Action::StartNow(id) => {
                    let now = self.world.now();
                    if !self.world.is_pending(id) {
                        self.reject(ActionFault::StartNonPending { id });
                        continue;
                    }
                    let rec = self.world.job(id);
                    if now < rec.arrival() || now > rec.deadline() {
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
                    let rec = self.world.job(id);
                    if rec.ordered_start().is_some() {
                        self.reject(ActionFault::DuplicateOrderedStart { id });
                        continue;
                    }
                    if at < now || at < rec.arrival() || at > rec.deadline() {
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

    fn dispatch_arrival(&mut self, arrival: Arrival) -> Result<(), EnvFault> {
        self.dispatch_callback(|sched, ctx| sched.on_arrival(arrival, ctx))
    }

    fn drive(&mut self) -> Result<DriveEnd, EnvFault> {
        loop {
            let queued = self.queue.peek().map(|Reverse(e)| (e.time, e.order));
            let t0 = self.phase_start();
            let next_release = self.env.next_release_time(&self.world);
            Self::phase_done(t0, &mut self.stats.wall_environment_s);
            let release = match next_release {
                Some(rt) if rt < self.world.now() => {
                    return Err(EnvFault::ReleaseInPast {
                        scheduled: rt,
                        now: self.world.now(),
                    })
                }
                Some(rt) => Some((rt, RELEASE_ORDER)),
                None => None,
            };
            let release_due = match (queued, release) {
                (None, None) => return Ok(DriveEnd::Drained),
                (None, Some((rt, _))) => Some(rt),
                (Some(_), None) => None,
                (Some(q), Some(r)) => (r < q).then_some(r.0),
            };

            if self.stats.events_total >= self.config.max_events {
                return Ok(DriveEnd::EventCap);
            }
            self.stats.events_total += 1;

            if let Some(now) = release_due {
                self.stats.release_events += 1;
                self.world.advance_to(now);
                let t0 = self.phase_start();
                let specs = self.env.release_at(now, &self.world);
                Self::phase_done(t0, &mut self.stats.wall_environment_s);
                let clairvoyance = self.world.clairvoyance();
                for JobSpec { deadline, length } in specs {
                    if deadline < now {
                        return Err(EnvFault::DeadlineBeforeArrival {
                            arrival: now,
                            deadline,
                        });
                    }
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
                    self.dispatch_arrival(Arrival {
                        id,
                        arrival: now,
                        deadline,
                        length: if clairvoyance.is_clairvoyant() {
                            fixed
                        } else {
                            None
                        },
                        length_class: if clairvoyance.reveals_class() {
                            fixed.map(|p| crate::sim::env::geometric_class(p, 2.0, 1.0))
                        } else {
                            None
                        },
                    })?;
                }
                continue;
            }

            let Some(Reverse(event)) = self.queue.pop() else {
                return Ok(DriveEnd::Drained);
            };
            self.world.advance_to(event.time);
            match event.kind {
                EventKind::Completion(id) => {
                    self.stats.completions += 1;
                    self.stats.jobs_completed += 1;
                    self.world.mark_completed(id);
                    self.record(TraceKind::Completed { id });
                    let Some(length) = self.world.job(id).length() else {
                        continue;
                    };
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
                    let Some(started_at) = self.world.job(id).start() else {
                        continue;
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
                        continue;
                    }
                    if self.world.job(id).ordered_start().is_some() {
                        self.start_job(id, event.time)?;
                        continue;
                    }
                    self.dispatch_callback(|sched, ctx| sched.on_deadline(id, ctx))?;
                    if self.world.is_pending(id) && self.world.job(id).ordered_start().is_none() {
                        self.stats.force_starts += 1;
                        self.violations.push(Violation { id, at: event.time });
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
        }
    }

    fn run(mut self) -> SimOutcome {
        let run_start = Instant::now();
        let drive_end = self.drive();
        self.stats.wall_total_s = run_start.elapsed().as_secs_f64();
        let termination = match drive_end {
            Ok(DriveEnd::Drained) => Termination::Completed,
            Ok(DriveEnd::EventCap) => Termination::EventCapExhausted {
                events: self.stats.events_total,
            },
            Err(fault) => Termination::EnvironmentFault(fault),
        };

        if termination.is_completed() {
            debug_assert_eq!(self.world.num_running(), 0);
            debug_assert_eq!(self.world.num_pending(), 0);
        }

        let (instance, unresolved) = self.world.to_partial_instance();
        debug_assert!(unresolved.is_empty() || !termination.is_completed());
        let mut schedule = Schedule::with_len(instance.len());
        for (id, rec) in self.world.records() {
            match rec.status() {
                JobStatus::Completed { start, .. } | JobStatus::Running { start } => {
                    schedule.set_start(id, start);
                }
                JobStatus::Pending => {}
            }
        }
        let span = schedule.span(&instance);
        self.stats.peak_retained = self.world.peak_retained();
        self.stats.arena_slots = self.world.arena_slots();
        SimOutcome {
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
        }
    }
}

/// Runs `sched` against `env` on the pre-rewrite reference core.
pub fn run_legacy<E: Environment, S: OnlineScheduler>(env: E, sched: S) -> SimOutcome {
    run_with_config_legacy(env, sched, SimConfig::default())
}

/// Runs the reference core with explicit [`SimConfig`].
pub fn run_with_config_legacy<E: Environment, S: OnlineScheduler>(
    env: E,
    sched: S,
    config: SimConfig,
) -> SimOutcome {
    LegacyEngine {
        world: World::new(env.clairvoyance()),
        env,
        sched,
        queue: BinaryHeap::with_capacity(256.min(config.max_events)),
        seq: 0,
        violations: Vec::new(),
        rejected: Vec::new(),
        stats: RunStats::default(),
        config,
        trace: Vec::new(),
        scratch: Vec::new(),
    }
    .run()
}

/// Convenience: runs a scheduler on a static instance on the reference core.
pub fn run_static_legacy<S: OnlineScheduler>(
    inst: &crate::job::Instance,
    clairvoyance: crate::sim::env::Clairvoyance,
    sched: S,
) -> SimOutcome {
    let env = crate::sim::env::StaticEnv::new(inst, clairvoyance);
    run_legacy(env, sched)
}
