//! Extension schedulers beyond the paper, used for ablations (E11/E13):
//!
//! * [`RandomStart`] — starts each job at an independent uniformly random
//!   point of its window. A feasibility-preserving randomized baseline: it
//!   quantifies how much of Batch+/Profit's advantage is *coordination*
//!   rather than mere delay. (Seeded splitmix64; fully deterministic per
//!   seed, so experiments stay reproducible.)
//! * [`Threshold`] — starts all pending jobs whenever the pending count
//!   reaches `m` (and, for feasibility, whenever a pending job hits its
//!   starting deadline). The natural "batch by count, not by deadline"
//!   alternative; the paper's deadline-triggered batching wins because a
//!   count trigger has no relation to OPT's structure.

use fjs_core::job::JobId;
use fjs_core::sim::{Arrival, Ctx, OnlineScheduler};
use fjs_prng::splitmix64;

use crate::flag_graph::FlagRecorder;

/// Starts each job at a uniformly random feasible time (seeded).
#[derive(Clone, Copy, Debug)]
pub struct RandomStart {
    seed: u64,
}

impl RandomStart {
    /// Creates the randomized baseline with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomStart { seed }
    }

    fn unit(&self, id: JobId) -> f64 {
        let mut state = self.seed ^ u64::from(id.0).wrapping_mul(0xA24B_AED4_963E_E407);
        (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl OnlineScheduler for RandomStart {
    fn name(&self) -> String {
        format!("RandomStart(seed={})", self.seed)
    }

    fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
        let lax = job.deadline - job.arrival;
        let start = job.arrival + lax * self.unit(job.id);
        if start <= job.arrival {
            ctx.start(job.id);
        } else {
            ctx.start_at(job.id, start.min(job.deadline));
        }
    }

    fn on_deadline(&mut self, id: JobId, ctx: &mut Ctx<'_>) {
        // Only reachable if rounding pushed the committed start past the
        // alarm; the engine pre-empts via the ordered start, so just guard.
        if ctx.is_pending(id) {
            ctx.start(id);
        }
    }
}

/// Starts all pending jobs when `m` accumulate (or a deadline forces it).
#[derive(Clone, Debug)]
pub struct Threshold {
    m: usize,
    flags: Vec<JobId>,
}

impl Threshold {
    /// Creates a count-triggered batcher; `m >= 1`.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "threshold must be at least 1");
        Threshold {
            m,
            flags: Vec::new(),
        }
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        ctx.start_all_pending();
    }
}

impl FlagRecorder for Threshold {
    fn flag_jobs(&self) -> Vec<JobId> {
        self.flags.clone()
    }
}

impl OnlineScheduler for Threshold {
    fn name(&self) -> String {
        format!("Threshold(m={})", self.m)
    }

    fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
        // The arrived job is already in the pending view.
        if ctx.num_pending() >= self.m {
            self.flags.push(job.id);
            self.flush(ctx);
        }
    }

    fn on_deadline(&mut self, id: JobId, ctx: &mut Ctx<'_>) {
        self.flags.push(id);
        self.flush(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fjs_core::prelude::*;

    fn inst() -> Instance {
        Instance::new(vec![
            Job::adp(0.0, 10.0, 1.0),
            Job::adp(1.0, 10.0, 1.0),
            Job::adp(2.0, 10.0, 1.0),
            Job::adp(20.0, 21.0, 1.0),
        ])
    }

    #[test]
    fn random_start_is_feasible_and_seed_deterministic() {
        let a = run_static(&inst(), Clairvoyance::NonClairvoyant, RandomStart::new(7));
        let b = run_static(&inst(), Clairvoyance::NonClairvoyant, RandomStart::new(7));
        assert!(a.is_feasible());
        assert_eq!(a.schedule, b.schedule, "same seed, same schedule");
        let c = run_static(&inst(), Clairvoyance::NonClairvoyant, RandomStart::new(8));
        assert!(c.is_feasible());
        // Different seeds almost surely differ on a 4-job instance.
        assert_ne!(a.schedule, c.schedule);
    }

    #[test]
    fn random_start_respects_windows() {
        for seed in 0..20 {
            let out = run_static(
                &inst(),
                Clairvoyance::NonClairvoyant,
                RandomStart::new(seed),
            );
            assert!(out.is_feasible());
            assert!(out.schedule.validate(&out.instance).is_ok());
        }
    }

    #[test]
    fn threshold_batches_by_count() {
        let mut sched = Threshold::new(3);
        let out = run_static(&inst(), Clairvoyance::NonClairvoyant, &mut sched);
        assert!(out.is_feasible());
        // The third arrival (t=2) trips the threshold: first three start
        // together at t=2.
        for i in 0..3 {
            assert_eq!(out.schedule.start(JobId(i)), Some(t(2.0)));
        }
        // The fourth waits for its own deadline (count never reaches 3).
        assert_eq!(out.schedule.start(JobId(3)), Some(t(21.0)));
        assert_eq!(sched.flag_jobs().len(), 2);
    }

    #[test]
    fn threshold_one_is_eager() {
        let out = run_static(&inst(), Clairvoyance::NonClairvoyant, Threshold::new(1));
        assert!(out.is_feasible());
        for (id, job) in out.instance.iter() {
            assert_eq!(out.schedule.start(id), Some(job.arrival()));
        }
    }

    #[test]
    fn threshold_deadline_fallback_prevents_violations() {
        // Threshold larger than the job count: only deadlines trigger.
        let out = run_static(&inst(), Clairvoyance::NonClairvoyant, Threshold::new(100));
        assert!(out.is_feasible());
        assert_eq!(out.schedule.start(JobId(0)), Some(t(10.0)));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threshold_rejected() {
        let _ = Threshold::new(0);
    }
}
