//! The **Batch+** scheduler (Section 3.2, Theorem 3.5) and its reusable
//! per-category state machine (shared with Classify-by-Duration Batch+).
//!
//! Batch+ refines Batch: in each iteration it elects a flag job `J` (the
//! pending job with the earliest starting deadline), starts all pending jobs
//! together with the flag at `d(J)`, and — unlike Batch — **also starts
//! every newly arriving job immediately** for as long as the flag job is
//! running. Only when the flag completes does it return to buffering.
//!
//! For Non-Clairvoyant FJS, Batch+ has a *tight* competitive ratio of
//! `μ + 1` (Theorem 3.5; experiment E3 reproduces the Figure 3 tightness
//! instance).

use fjs_core::job::JobId;
use fjs_core::sim::{Arrival, Ctx, OnlineScheduler};

use crate::flag_graph::FlagRecorder;

/// Phase of one Batch+ state machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    /// Waiting for a pending job to hit its starting deadline.
    Buffering,
    /// A flag job is running; arrivals start immediately.
    InIteration {
        /// The flag job whose completion ends the iteration.
        flag: JobId,
    },
}

/// The Batch+ iteration logic over a *subset* of jobs, reusable as the
/// per-category engine of Classify-by-Duration Batch+. The state machine
/// only tracks jobs explicitly fed to it, so several instances can coexist
/// on disjoint job classes.
#[derive(Clone, Debug)]
pub struct BatchPlusState {
    mode: Mode,
    /// Pending (buffered) jobs of this class, in arrival order.
    pending: Vec<JobId>,
    flags: Vec<JobId>,
}

impl Default for BatchPlusState {
    fn default() -> Self {
        BatchPlusState {
            mode: Mode::Buffering,
            pending: Vec::new(),
            flags: Vec::new(),
        }
    }
}

impl BatchPlusState {
    /// Fresh state machine (buffering, no pending jobs).
    pub fn new() -> Self {
        BatchPlusState::default()
    }

    /// Flag jobs elected so far, in iteration order.
    pub fn flags(&self) -> &[JobId] {
        &self.flags
    }

    /// Handles the arrival of a job belonging to this class.
    pub fn job_arrived(&mut self, id: JobId, ctx: &mut Ctx<'_>) {
        match self.mode {
            Mode::Buffering => self.pending.push(id),
            // During the flag's active interval, arrivals start immediately.
            Mode::InIteration { .. } => ctx.start(id),
        }
    }

    /// Handles a pending job of this class hitting its starting deadline.
    pub fn job_deadline(&mut self, id: JobId, ctx: &mut Ctx<'_>) {
        if matches!(self.mode, Mode::InIteration { .. }) {
            // Under honest operation every job of this class is started at
            // or before iteration start, so a pending job can only hit its
            // deadline mid-iteration if the action layer dropped or rewrote
            // our starts (fault injection). Degrade: start it now instead of
            // opening a nested iteration.
            self.pending.retain(|&j| j != id);
            ctx.start(id);
            return;
        }
        // `id` is the pending job with the earliest deadline → the flag.
        self.flags.push(id);
        self.mode = Mode::InIteration { flag: id };
        for j in self.pending.drain(..) {
            ctx.start(j);
        }
    }

    /// Handles the completion of a job of this class.
    pub fn job_completed(&mut self, id: JobId) {
        if let Mode::InIteration { flag } = self.mode {
            if flag == id {
                self.mode = Mode::Buffering;
            }
        }
    }
}

/// The Batch+ scheduler over the whole job set. Works in both information
/// models (it never looks at processing lengths).
///
/// ```
/// use fjs_core::prelude::*;
/// use fjs_schedulers::BatchPlus;
///
/// let inst = Instance::new(vec![
///     Job::adp(0.0, 5.0, 2.0),
///     Job::adp(1.0, 9.0, 1.0),
/// ]);
/// let out = run_static(&inst, Clairvoyance::NonClairvoyant, BatchPlus::new());
/// assert!(out.is_feasible());
/// // Both jobs start together at the earliest pending deadline (t = 5).
/// assert_eq!(out.span, dur(2.0));
/// ```
#[derive(Clone, Default, Debug)]
pub struct BatchPlus {
    state: BatchPlusState,
}

impl BatchPlus {
    /// Creates a Batch+ scheduler.
    pub fn new() -> Self {
        BatchPlus::default()
    }
}

impl FlagRecorder for BatchPlus {
    fn flag_jobs(&self) -> Vec<JobId> {
        self.state.flags().to_vec()
    }
}

impl OnlineScheduler for BatchPlus {
    fn name(&self) -> String {
        "Batch+".into()
    }

    fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
        self.state.job_arrived(job.id, ctx);
    }

    fn on_deadline(&mut self, id: JobId, ctx: &mut Ctx<'_>) {
        self.state.job_deadline(id, ctx);
    }

    fn on_completion(&mut self, id: JobId, _length: fjs_core::time::Dur, _ctx: &mut Ctx<'_>) {
        self.state.job_completed(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fjs_core::prelude::*;

    #[test]
    fn arrivals_start_immediately_during_iteration() {
        let inst = Instance::new(vec![
            Job::adp(0.0, 0.0, 10.0), // flag of iteration 1
            Job::adp(1.0, 20.0, 1.0), // arrives mid-iteration → starts at 1
            Job::adp(3.0, 50.0, 2.0), // arrives mid-iteration → starts at 3
        ]);
        let mut sched = BatchPlus::new();
        let out = run_static(&inst, Clairvoyance::NonClairvoyant, &mut sched);
        assert!(out.is_feasible());
        assert_eq!(out.schedule.start(JobId(0)), Some(t(0.0)));
        assert_eq!(out.schedule.start(JobId(1)), Some(t(1.0)));
        assert_eq!(out.schedule.start(JobId(2)), Some(t(3.0)));
        assert_eq!(out.span, dur(10.0));
        assert_eq!(sched.flag_jobs(), &[JobId(0)]);
    }

    #[test]
    fn buffering_resumes_when_flag_completes() {
        let inst = Instance::new(vec![
            Job::adp(0.0, 0.0, 2.0),  // flag, completes at 2
            Job::adp(2.0, 30.0, 1.0), // arrives exactly at flag completion → buffered
        ]);
        let mut sched = BatchPlus::new();
        let out = run_static(&inst, Clairvoyance::NonClairvoyant, &mut sched);
        assert!(out.is_feasible());
        assert_eq!(
            out.schedule.start(JobId(1)),
            Some(t(30.0)),
            "buffered job waits for its own deadline to flag iteration 2"
        );
        assert_eq!(sched.flag_jobs(), &[JobId(0), JobId(1)]);
    }

    #[test]
    fn flag_completion_vs_longer_jobs() {
        // A non-flag job outlives the flag; buffering must resume at the
        // *flag's* completion regardless.
        let inst = Instance::new(vec![
            Job::adp(0.0, 1.0, 1.0),  // flag (earliest deadline), runs [1,2)
            Job::adp(0.0, 5.0, 10.0), // started with flag, runs [1,11)
            Job::adp(3.0, 4.0, 1.0),  // arrives during [2,?]: buffered (flag done at 2)
        ]);
        let mut sched = BatchPlus::new();
        let out = run_static(&inst, Clairvoyance::NonClairvoyant, &mut sched);
        assert!(out.is_feasible());
        assert_eq!(out.schedule.start(JobId(0)), Some(t(1.0)));
        assert_eq!(out.schedule.start(JobId(1)), Some(t(1.0)));
        assert_eq!(
            out.schedule.start(JobId(2)),
            Some(t(4.0)),
            "J2 arrived after the flag completed, so it buffers to its deadline"
        );
        assert_eq!(sched.flag_jobs(), &[JobId(0), JobId(2)]);
        assert_eq!(out.span, dur(10.0));
    }

    #[test]
    fn pending_jobs_all_start_with_flag() {
        let inst = Instance::new(vec![
            Job::adp(0.0, 5.0, 1.0),
            Job::adp(1.0, 9.0, 1.0),
            Job::adp(2.0, 7.0, 1.0),
        ]);
        let mut sched = BatchPlus::new();
        let out = run_static(&inst, Clairvoyance::NonClairvoyant, &mut sched);
        assert!(out.is_feasible());
        for i in 0..3 {
            assert_eq!(out.schedule.start(JobId(i)), Some(t(5.0)));
        }
        assert_eq!(out.span, dur(1.0));
    }

    #[test]
    fn state_machine_invariants() {
        let s = BatchPlusState::new();
        assert!(s.flags().is_empty());
    }
}
