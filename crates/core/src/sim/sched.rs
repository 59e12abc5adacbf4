//! The online scheduler interface.
//!
//! A scheduler is a state machine driven by four callbacks: job arrival,
//! a pending job hitting its starting deadline, job completion, and
//! self-requested wakeups. All decisions flow through [`Ctx`], which exposes
//! a read view of the [`World`] (masking processing lengths in
//! non-clairvoyant runs) and collects start orders.

use crate::job::JobId;
use crate::sim::world::World;
use crate::time::{Dur, Time};

/// What a scheduler learns when a job arrives.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Arrival {
    /// The job's id (release order).
    pub id: JobId,
    /// Arrival time `a(J)` (equals the current time).
    pub arrival: Time,
    /// Starting deadline `d(J)`.
    pub deadline: Time,
    /// Processing length `p(J)` — `Some` iff the run is clairvoyant.
    pub length: Option<Dur>,
    /// Geometric length class `⌈log₂ p⌉` — `Some` iff the run reveals at
    /// least classes ([`crate::sim::Clairvoyance::reveals_class`]).
    pub length_class: Option<i64>,
}

impl Arrival {
    /// Laxity `d(J) − a(J)`.
    pub fn laxity(&self) -> Dur {
        self.deadline - self.arrival
    }
}

/// An action requested by the scheduler during a callback.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Action {
    StartNow(JobId),
    StartAt(JobId, Time),
    WakeAt(Time, u64),
}

/// Scheduler-facing view of the simulation plus an action sink.
///
/// Reads reflect the world *at callback entry*; actions requested during the
/// callback are applied by the engine after the callback returns, in order.
pub struct Ctx<'a> {
    world: &'a World,
    actions: Vec<Action>,
}

impl<'a> Ctx<'a> {
    /// Test-only convenience; the engine goes through [`Ctx::with_scratch`].
    #[cfg(test)]
    pub(crate) fn new(world: &'a World) -> Self {
        Ctx {
            world,
            actions: Vec::new(),
        }
    }

    /// Like `Ctx::new`, but reusing a caller-owned action buffer so the
    /// engine's dispatch loop allocates once per run instead of once per
    /// callback. The buffer must be empty.
    pub(crate) fn with_scratch(world: &'a World, scratch: Vec<Action>) -> Self {
        debug_assert!(scratch.is_empty());
        Ctx {
            world,
            actions: scratch,
        }
    }

    pub(crate) fn into_actions(self) -> Vec<Action> {
        self.actions
    }

    /// Drains the actions requested so far, leaving the sink empty. Used by
    /// [`crate::faults::ChaosScheduler`] to intercept and perturb an inner
    /// scheduler's actions before the engine sees them.
    pub(crate) fn take_actions(&mut self) -> Vec<Action> {
        std::mem::take(&mut self.actions)
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.world.now()
    }

    /// Whether lengths are revealed at arrival.
    pub fn is_clairvoyant(&self) -> bool {
        self.world.is_clairvoyant()
    }

    /// Starts a pending job immediately (at [`Ctx::now`]).
    pub fn start(&mut self, id: JobId) {
        self.actions.push(Action::StartNow(id));
    }

    /// Starts every currently pending job immediately, in id order.
    /// Equivalent to `for id in ctx.pending().collect::<Vec<_>>() {
    /// ctx.start(id) }` but without materializing the id list.
    pub fn start_all_pending(&mut self) {
        // `pending()` borrows the world immutably while `actions` is
        // disjoint, so the loop pushes directly into the sink.
        let world = self.world;
        for id in world.pending() {
            self.actions.push(Action::StartNow(id));
        }
    }

    /// Commits to starting a pending job at a future time `t` (engine
    /// validates `now <= t <= d(J)` when applying).
    pub fn start_at(&mut self, id: JobId, t: Time) {
        self.actions.push(Action::StartAt(id, t));
    }

    /// Requests an [`OnlineScheduler::on_wakeup`] callback at time `t`
    /// (`>= now`) carrying `token`.
    pub fn wake_at(&mut self, t: Time, token: u64) {
        self.actions.push(Action::WakeAt(t, token));
    }

    /// Ids of jobs that have arrived but not started, ascending.
    pub fn pending(&self) -> impl Iterator<Item = JobId> + '_ {
        self.world.pending()
    }

    /// Ids of currently running jobs, ascending.
    pub fn running(&self) -> impl Iterator<Item = JobId> + '_ {
        self.world.running()
    }

    /// Number of running jobs.
    pub fn num_running(&self) -> usize {
        self.world.num_running()
    }

    /// Number of pending jobs.
    pub fn num_pending(&self) -> usize {
        self.world.num_pending()
    }

    /// Whether a job is pending.
    pub fn is_pending(&self, id: JobId) -> bool {
        self.world.is_pending(id)
    }

    /// Arrival time of a released job.
    pub fn arrival_of(&self, id: JobId) -> Time {
        self.world.arrival_of(id)
    }

    /// Starting deadline of a released job.
    pub fn deadline_of(&self, id: JobId) -> Time {
        self.world.deadline_of(id)
    }

    /// Start time of a job, if it has started.
    pub fn start_of(&self, id: JobId) -> Option<Time> {
        self.world.start_of(id)
    }

    /// Processing length as visible to the scheduler: known for completed
    /// jobs always, and for released jobs iff the run is clairvoyant.
    pub fn length_of(&self, id: JobId) -> Option<Dur> {
        let len = self.world.length_of(id); // panics on unreleased ids, like job()
        if self.world.is_clairvoyant() || self.world.is_completed(id) {
            len
        } else {
            None
        }
    }
}

/// An online scheduler for flexible job scheduling.
///
/// Contract: every job must be started (via [`Ctx::start`] or
/// [`Ctx::start_at`]) no later than its starting deadline. The engine calls
/// [`OnlineScheduler::on_deadline`] as a last-chance notification at `d(J)`
/// for each still-pending job; failing to start the job in that callback is
/// recorded as a feasibility violation (and the engine force-starts the job
/// to keep the run meaningful).
///
/// Everything a scheduler does is observable after the run: the engine
/// counts delivered callbacks, applied and rejected actions, and deadline
/// force-starts in [`RunStats`](crate::sim::RunStats), returned on every
/// [`SimOutcome`](crate::sim::SimOutcome).
///
/// Schedulers are `Send`: a served session may be applied on the
/// dispatcher's thread or on its worker's (see
/// [`SessionPool`](crate::service::SessionPool)).
pub trait OnlineScheduler: Send {
    /// Human-readable name (used in reports).
    fn name(&self) -> String;

    /// A job has arrived.
    fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>);

    /// A *pending* job has reached its starting deadline `d(J)`; it must be
    /// started now.
    fn on_deadline(&mut self, id: JobId, ctx: &mut Ctx<'_>);

    /// A job completed; its length is now revealed.
    fn on_completion(&mut self, id: JobId, length: Dur, ctx: &mut Ctx<'_>) {
        let _ = (id, length, ctx);
    }

    /// A wakeup requested via [`Ctx::wake_at`] fired.
    fn on_wakeup(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let _ = (token, ctx);
    }
}

impl<S: OnlineScheduler + ?Sized> OnlineScheduler for &mut S {
    fn name(&self) -> String {
        (**self).name()
    }
    fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
        (**self).on_arrival(job, ctx)
    }
    fn on_deadline(&mut self, id: JobId, ctx: &mut Ctx<'_>) {
        (**self).on_deadline(id, ctx)
    }
    fn on_completion(&mut self, id: JobId, length: Dur, ctx: &mut Ctx<'_>) {
        (**self).on_completion(id, length, ctx)
    }
    fn on_wakeup(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        (**self).on_wakeup(token, ctx)
    }
}

impl<S: OnlineScheduler + ?Sized> OnlineScheduler for Box<S> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
        (**self).on_arrival(job, ctx)
    }
    fn on_deadline(&mut self, id: JobId, ctx: &mut Ctx<'_>) {
        (**self).on_deadline(id, ctx)
    }
    fn on_completion(&mut self, id: JobId, length: Dur, ctx: &mut Ctx<'_>) {
        (**self).on_completion(id, length, ctx)
    }
    fn on_wakeup(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        (**self).on_wakeup(token, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{dur, t};

    #[test]
    fn ctx_collects_actions_in_order() {
        let world = World::new(crate::sim::env::Clairvoyance::Clairvoyant);
        let mut ctx = Ctx::new(&world);
        ctx.start(JobId(1));
        ctx.start_at(JobId(2), t(5.0));
        ctx.wake_at(t(9.0), 42);
        assert_eq!(
            ctx.into_actions(),
            vec![
                Action::StartNow(JobId(1)),
                Action::StartAt(JobId(2), t(5.0)),
                Action::WakeAt(t(9.0), 42),
            ]
        );
    }

    #[test]
    fn length_masked_when_non_clairvoyant() {
        let mut world = World::new(crate::sim::env::Clairvoyance::NonClairvoyant);
        let id = world.release(t(0.0), t(1.0), Some(dur(3.0)));
        {
            let ctx = Ctx::new(&world);
            assert_eq!(ctx.length_of(id), None, "hidden while pending");
        }
        world.mark_started(id, t(0.0));
        world.advance_to(t(3.0));
        world.mark_completed(id);
        let ctx = Ctx::new(&world);
        assert_eq!(ctx.length_of(id), Some(dur(3.0)), "revealed at completion");
    }

    #[test]
    fn length_visible_when_clairvoyant() {
        let mut world = World::new(crate::sim::env::Clairvoyance::Clairvoyant);
        let id = world.release(t(0.0), t(1.0), Some(dur(3.0)));
        let ctx = Ctx::new(&world);
        assert_eq!(ctx.length_of(id), Some(dur(3.0)));
    }

    #[test]
    fn arrival_laxity() {
        let a = Arrival {
            id: JobId(0),
            arrival: t(1.0),
            deadline: t(4.0),
            length: None,
            length_class: None,
        };
        assert_eq!(a.laxity(), dur(3.0));
    }

    #[test]
    fn length_class_visibility() {
        use crate::sim::env::Clairvoyance;
        let mut world = World::new(Clairvoyance::ClassOnly);
        let id = world.release(t(0.0), t(1.0), Some(dur(3.0)));
        let ctx = Ctx::new(&world);
        assert_eq!(ctx.length_of(id), None, "exact length hidden");
        // What a class-only run reveals instead: the class ⌈log₂ 3⌉ = 2.
        assert!(Clairvoyance::ClassOnly.reveals_class());
        assert_eq!(crate::sim::env::geometric_class(dur(3.0), 2.0, 1.0), 2);
        assert!(
            !Clairvoyance::NonClairvoyant.reveals_class(),
            "hidden non-clairvoyantly"
        );
    }
}
