//! The observable simulation state.
//!
//! [`World`] is the single source of truth for job status during a run. The
//! engine mutates it; schedulers and environments read it (environments see
//! everything, schedulers go through [`crate::sim::Ctx`], which masks
//! lengths in non-clairvoyant runs).
//!
//! Storage is the flat structure-of-arrays `JobArena` (the crate-private
//! `sim::arena` module):
//! dense ids map to recycled slots through a front-compactable deque, the
//! pending/running sets are intrusive linked lists with O(1) removal, and
//! reads materialize a by-value [`JobRecord`] on demand.

use crate::job::{Instance, Job, JobId};
use crate::sim::arena::{JobArena, ListId, STATE_COMPLETED, STATE_PENDING, STATE_RUNNING};
use crate::sim::env::Clairvoyance;
use crate::time::{Dur, Time};

/// Lifecycle of a job inside a simulation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum JobStatus {
    /// Arrived, not yet started.
    Pending,
    /// Started at the given time, still running.
    Running {
        /// Start time chosen by the scheduler.
        start: Time,
    },
    /// Finished.
    Completed {
        /// Start time chosen by the scheduler.
        start: Time,
        /// Final processing length.
        length: Dur,
    },
}

/// Per-job record, materialized by value from the arena columns.
#[derive(Clone, Copy, Debug)]
pub struct JobRecord {
    pub(crate) arrival: Time,
    pub(crate) deadline: Time,
    /// Length as known to the *engine* (None while an adaptive length is
    /// still unruled).
    pub(crate) length: Option<Dur>,
    pub(crate) status: JobStatus,
    /// Start time the scheduler committed to via `start_at`, if any.
    pub(crate) ordered_start: Option<Time>,
}

impl JobRecord {
    /// Arrival time `a(J)`.
    pub fn arrival(&self) -> Time {
        self.arrival
    }

    /// Starting deadline `d(J)`.
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// The length, if decided (fixed at release, or ruled after start).
    pub fn length(&self) -> Option<Dur> {
        self.length
    }

    /// Current lifecycle status.
    pub fn status(&self) -> JobStatus {
        self.status
    }

    /// Start time, if the job has started.
    pub fn start(&self) -> Option<Time> {
        match self.status {
            JobStatus::Pending => None,
            JobStatus::Running { start } | JobStatus::Completed { start, .. } => Some(start),
        }
    }

    /// A future start committed via `Ctx::start_at`, if pending with one.
    pub fn ordered_start(&self) -> Option<Time> {
        self.ordered_start
    }
}

/// The full simulation state (see module docs).
#[derive(Clone, Debug)]
pub struct World {
    clairvoyance: Clairvoyance,
    now: Time,
    arena: JobArena,
}

impl World {
    /// Fresh world at time zero.
    pub fn new(clairvoyance: Clairvoyance) -> Self {
        World {
            clairvoyance,
            now: Time::ZERO,
            arena: JobArena::new(),
        }
    }

    /// Restores the pristine `new(clairvoyance)` state while keeping the
    /// arena's allocations (see [`JobArena::reset`]); the engine's scratch
    /// pool recycles worlds across runs through this.
    pub(crate) fn reset(&mut self, clairvoyance: Clairvoyance) {
        self.clairvoyance = clairvoyance;
        self.now = Time::ZERO;
        self.arena.reset();
    }

    /// Records of column capacity a recycled world keeps parked.
    pub(crate) fn capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// The information model of this run.
    pub fn clairvoyance(&self) -> Clairvoyance {
        self.clairvoyance
    }

    /// Whether this run reveals full lengths at arrival.
    pub fn is_clairvoyant(&self) -> bool {
        self.clairvoyance.is_clairvoyant()
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of jobs released so far (the next release gets this id).
    pub fn num_jobs(&self) -> usize {
        self.arena.num_jobs()
    }

    /// Number of job records still materialized (jobs released minus jobs
    /// compacted away). This is what bounds resident memory.
    pub fn num_retained(&self) -> usize {
        self.arena.num_retained()
    }

    /// High-water mark of [`World::num_retained`] over the run — the
    /// arena-resident memory gate reported in
    /// [`RunStats::peak_retained`](crate::sim::RunStats::peak_retained).
    pub fn peak_retained(&self) -> usize {
        self.arena.peak_retained()
    }

    /// Total arena slots ever allocated (recycled slots count once); the
    /// columns' memory footprint.
    pub fn arena_slots(&self) -> usize {
        self.arena.slots_allocated()
    }

    /// Number of leading completed records dropped by prefix compaction
    /// (`compact_completed_prefix`). Retained records cover ids
    /// `[compacted, num_jobs)`. Always 0 for batch-engine runs.
    pub fn compacted(&self) -> usize {
        self.arena.compacted()
    }

    /// The record for a job, materialized by value.
    ///
    /// # Panics
    /// Panics if the id has not been released, or if its record was
    /// compacted away.
    #[inline]
    #[track_caller]
    pub fn job(&self, id: JobId) -> JobRecord {
        self.record(self.arena.slot(id))
    }

    fn record(&self, slot: u32) -> JobRecord {
        let status = match self.arena.state(slot) {
            STATE_PENDING => JobStatus::Pending,
            STATE_RUNNING => match self.arena.start(slot) {
                Some(start) => JobStatus::Running { start },
                None => unreachable!("running job has a start"),
            },
            STATE_COMPLETED => match (self.arena.start(slot), self.arena.length(slot)) {
                (Some(start), Some(length)) => JobStatus::Completed { start, length },
                _ => unreachable!("completed job has a start and a ruled length"),
            },
            state => unreachable!("free slot {slot} (state {state}) reached via an id"),
        };
        JobRecord {
            arrival: self.arena.arrival(slot),
            deadline: self.arena.deadline(slot),
            length: self.arena.length(slot),
            status,
            ordered_start: self.arena.ordered_start(slot),
        }
    }

    /// All *retained* jobs as `(id, record)` in id (= release) order. For
    /// batch runs (no compaction) this is simply every released job.
    pub fn records(&self) -> impl Iterator<Item = (JobId, JobRecord)> + '_ {
        self.arena
            .retained()
            .map(|(id, slot)| (id, self.record(slot)))
    }

    /// `(id, start)` for every retained job, in id order — the lean column
    /// read behind end-of-run schedule assembly (`start` is `Some` iff the
    /// job started, exactly the Running/Completed statuses).
    pub(crate) fn starts(&self) -> impl Iterator<Item = (JobId, Option<Time>)> + '_ {
        self.arena
            .retained()
            .map(|(id, slot)| (id, self.arena.start(slot)))
    }

    /// Ids of jobs that have arrived but not started, ascending.
    pub fn pending(&self) -> impl Iterator<Item = JobId> + '_ {
        self.arena.list_ids(ListId::Pending)
    }

    /// Ids of currently running jobs, ascending.
    pub fn running(&self) -> impl Iterator<Item = JobId> + '_ {
        self.arena.list_ids(ListId::Running)
    }

    /// Number of pending jobs.
    pub fn num_pending(&self) -> usize {
        self.arena.num_pending()
    }

    /// Number of running jobs (the instantaneous *concurrency*).
    pub fn num_running(&self) -> usize {
        self.arena.num_running()
    }

    /// Whether the id refers to a pending job.
    pub fn is_pending(&self, id: JobId) -> bool {
        self.arena
            .try_slot(id)
            .is_some_and(|slot| self.arena.state(slot) == STATE_PENDING)
    }

    /// Whether the id refers to a completed job.
    pub fn is_completed(&self, id: JobId) -> bool {
        self.arena
            .try_slot(id)
            .is_some_and(|slot| self.arena.state(slot) == STATE_COMPLETED)
    }

    // ---- single-column accessors (hot paths) -------------------------
    //
    // These read one or two arena columns without materializing a full
    // [`JobRecord`]; the engine's per-event handlers rarely need more than
    // one field, and the record's three `Option` decodes plus the status
    // match are measurable at deck scale. Same panics as [`World::job`].

    /// Arrival time `a(J)` of a released job.
    #[inline]
    #[track_caller]
    pub fn arrival_of(&self, id: JobId) -> Time {
        self.arena.arrival(self.arena.slot(id))
    }

    /// Starting deadline `d(J)` of a released job.
    #[inline]
    #[track_caller]
    pub fn deadline_of(&self, id: JobId) -> Time {
        self.arena.deadline(self.arena.slot(id))
    }

    /// `(arrival, deadline)` of a released job with one id lookup.
    #[inline]
    #[track_caller]
    pub fn window_of(&self, id: JobId) -> (Time, Time) {
        let slot = self.arena.slot(id);
        (self.arena.arrival(slot), self.arena.deadline(slot))
    }

    /// The job's length as known to the *engine* (`None` while an adaptive
    /// length is unruled). Unlike `Ctx`, this does not mask clairvoyance.
    #[inline]
    #[track_caller]
    pub fn length_of(&self, id: JobId) -> Option<Dur> {
        self.arena.length(self.arena.slot(id))
    }

    /// Start time, if the job has started.
    #[inline]
    #[track_caller]
    pub fn start_of(&self, id: JobId) -> Option<Time> {
        self.arena.start(self.arena.slot(id))
    }

    /// A future start committed via `Ctx::start_at`, if any.
    #[inline]
    #[track_caller]
    pub fn ordered_start_of(&self, id: JobId) -> Option<Time> {
        self.arena.ordered_start(self.arena.slot(id))
    }

    // ---- engine-internal mutators ------------------------------------

    /// Pre-sizes the arena for `n` more releases (capacity hint only).
    pub(crate) fn reserve_jobs(&mut self, n: usize) {
        self.arena.reserve(n);
    }

    pub(crate) fn advance_to(&mut self, t: Time) {
        debug_assert!(t >= self.now, "time went backwards: {} -> {}", self.now, t);
        self.now = t;
    }

    pub(crate) fn release(&mut self, arrival: Time, deadline: Time, length: Option<Dur>) -> JobId {
        self.arena.release(arrival, deadline, length)
    }

    pub(crate) fn mark_started(&mut self, id: JobId, start: Time) {
        self.arena.mark_started(self.arena.slot(id), start);
    }

    pub(crate) fn set_length(&mut self, id: JobId, length: Dur) {
        self.arena.set_length(self.arena.slot(id), length);
    }

    pub(crate) fn set_ordered_start(&mut self, id: JobId, t: Time) {
        self.arena.set_ordered_start(self.arena.slot(id), t);
    }

    pub(crate) fn mark_completed(&mut self, id: JobId) {
        self.arena.mark_completed(self.arena.slot(id), id);
    }

    /// Drops the leading run of completed records so resident memory stays
    /// proportional to the jobs still in flight, returning how many records
    /// were dropped.
    ///
    /// Only compacts when the completed prefix is at least half of the
    /// retained records, so the cost amortizes to O(1) per job while memory
    /// stays within 2x of the live set; freed slots are recycled through the
    /// arena free list. Pending/running lists are unaffected: a completed
    /// job is in neither, and surviving ids keep their values.
    pub(crate) fn compact_completed_prefix(&mut self) -> usize {
        self.arena.compact_completed_prefix()
    }

    /// Materializes the state as a static [`Instance`] even when some
    /// adaptive lengths were never ruled (a run aborted by an event cap or
    /// an environment fault). Jobs without a ruled length get a placeholder:
    /// the time they have been observed running (for running jobs), or the
    /// smallest positive duration (for jobs that never started). The second
    /// return value lists the ids whose lengths are placeholders.
    ///
    /// Covers *retained* records only; after compaction (resident services)
    /// the instance holds the tail of the history and unresolved ids are
    /// world ids (offset by [`World::compacted`]).
    pub fn to_partial_instance(&self) -> (Instance, Vec<JobId>) {
        let mut unresolved = Vec::new();
        let inst = self
            .arena
            .retained()
            .map(|(id, slot)| {
                let length = match self.arena.length(slot) {
                    Some(p) => p,
                    None => {
                        unresolved.push(id);
                        let elapsed = match (self.arena.state(slot), self.arena.start(slot)) {
                            (STATE_RUNNING, Some(start)) => self.now - start,
                            _ => Dur::ZERO,
                        };
                        elapsed.max(Dur::new(f64::MIN_POSITIVE))
                    }
                };
                Job::new(self.arena.arrival(slot), self.arena.deadline(slot), length)
            })
            .collect();
        (inst, unresolved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{dur, t};

    #[test]
    fn lifecycle_bookkeeping() {
        let mut w = World::new(Clairvoyance::NonClairvoyant);
        assert_eq!(w.num_jobs(), 0);
        let a = w.release(t(0.0), t(2.0), Some(dur(1.0)));
        let b = w.release(t(0.0), t(3.0), None);
        assert_eq!((a, b), (JobId(0), JobId(1)));
        assert_eq!(w.num_pending(), 2);
        assert_eq!(w.num_running(), 0);
        assert!(w.is_pending(a));

        w.advance_to(t(1.0));
        w.mark_started(a, t(1.0));
        assert!(!w.is_pending(a));
        assert_eq!(w.num_running(), 1);
        assert_eq!(w.job(a).start(), Some(t(1.0)));

        w.advance_to(t(2.0));
        w.mark_completed(a);
        assert_eq!(w.num_running(), 0);
        assert_eq!(
            w.job(a).status(),
            JobStatus::Completed {
                start: t(1.0),
                length: dur(1.0)
            }
        );

        w.mark_started(b, t(2.0));
        w.set_length(b, dur(0.5));
        w.mark_completed(b);
        let (inst, unresolved) = w.to_partial_instance();
        assert!(unresolved.is_empty());
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.job(JobId(1)).length(), dur(0.5));
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn completing_pending_job_panics() {
        let mut w = World::new(Clairvoyance::NonClairvoyant);
        let a = w.release(t(0.0), t(2.0), Some(dur(1.0)));
        w.mark_completed(a);
    }

    #[test]
    fn partial_instance_substitutes_unruled_lengths() {
        let mut w = World::new(Clairvoyance::NonClairvoyant);
        let a = w.release(t(0.0), t(2.0), Some(dur(1.0)));
        let b = w.release(t(0.0), t(3.0), None); // adaptive, never ruled
        let c = w.release(t(0.0), t(9.0), None); // adaptive, started
        w.mark_started(a, t(0.0));
        w.mark_started(c, t(1.0));
        w.advance_to(t(4.0));
        let (inst, unresolved) = w.to_partial_instance();
        assert_eq!(inst.len(), 3);
        assert_eq!(unresolved, vec![b, c]);
        assert_eq!(inst.job(a).length(), dur(1.0));
        // Running job: observed elapsed time is the best lower bound.
        assert_eq!(inst.job(c).length(), dur(3.0));
        assert!(inst.job(b).length().is_positive());
    }

    #[test]
    fn compaction_retires_completed_prefix_and_preserves_ids() {
        let mut w = World::new(Clairvoyance::Clairvoyant);
        let ids: Vec<JobId> = (0..6)
            .map(|i| w.release(t(i as f64), t(i as f64 + 5.0), Some(dur(1.0))))
            .collect();
        // Complete the first four; the last two stay pending.
        for &id in &ids[..4] {
            w.mark_started(id, w.job(id).arrival());
            w.mark_completed(id);
        }
        assert_eq!(w.compact_completed_prefix(), 4);
        assert_eq!(w.compacted(), 4);
        assert_eq!(w.num_jobs(), 6, "released count is unchanged");
        assert_eq!(w.num_retained(), 2);
        // Surviving ids keep their values and records.
        assert_eq!(w.job(ids[4]).arrival(), t(4.0));
        assert!(w.is_pending(ids[5]));
        // New releases continue the global id sequence.
        let next = w.release(t(9.0), t(12.0), Some(dur(1.0)));
        assert_eq!(next, JobId(6));
        assert_eq!(w.job(next).deadline(), t(12.0));
    }

    #[test]
    fn compaction_waits_for_a_majority_prefix() {
        let mut w = World::new(Clairvoyance::Clairvoyant);
        let ids: Vec<JobId> = (0..5)
            .map(|_| w.release(t(0.0), t(9.0), Some(dur(1.0))))
            .collect();
        w.mark_started(ids[0], t(0.0));
        w.mark_completed(ids[0]);
        // 1 of 5 completed: below the half threshold, nothing moves.
        assert_eq!(w.compact_completed_prefix(), 0);
        assert_eq!(w.compacted(), 0);
        for &id in &ids[1..3] {
            w.mark_started(id, t(0.0));
            w.mark_completed(id);
        }
        // 3 of 5: compacts the whole completed prefix at once.
        assert_eq!(w.compact_completed_prefix(), 3);
        assert_eq!(w.num_retained(), 2);
    }

    #[test]
    #[should_panic(expected = "compacted away")]
    fn compacted_id_lookup_panics() {
        let mut w = World::new(Clairvoyance::Clairvoyant);
        let a = w.release(t(0.0), t(5.0), Some(dur(1.0)));
        let _b = w.release(t(0.0), t(5.0), Some(dur(1.0)));
        w.mark_started(a, t(0.0));
        w.mark_completed(a);
        w.compact_completed_prefix();
        let _ = w.job(a);
    }

    #[test]
    fn ordered_start_roundtrip() {
        let mut w = World::new(Clairvoyance::Clairvoyant);
        let a = w.release(t(0.0), t(5.0), Some(dur(1.0)));
        assert_eq!(w.job(a).ordered_start(), None);
        w.set_ordered_start(a, t(3.0));
        assert_eq!(w.job(a).ordered_start(), Some(t(3.0)));
        w.mark_started(a, t(3.0));
        assert_eq!(w.job(a).ordered_start(), None, "cleared on start");
    }

    #[test]
    fn memory_counters_expose_arena_state() {
        let mut w = World::new(Clairvoyance::Clairvoyant);
        let ids: Vec<JobId> = (0..4)
            .map(|_| w.release(t(0.0), t(9.0), Some(dur(1.0))))
            .collect();
        assert_eq!(w.peak_retained(), 4);
        assert_eq!(w.arena_slots(), 4);
        for &id in &ids {
            w.mark_started(id, t(0.0));
            w.mark_completed(id);
        }
        w.compact_completed_prefix();
        // Recycled slots: footprint does not grow on re-release.
        w.release(t(1.0), t(9.0), Some(dur(1.0)));
        assert_eq!(w.arena_slots(), 4);
        assert_eq!(w.peak_retained(), 4);
        assert_eq!(w.num_retained(), 1);
    }
}
