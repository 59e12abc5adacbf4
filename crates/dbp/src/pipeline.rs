//! The generalized MinUsageTime DBP pipeline of Section 5: a span
//! scheduler chooses start times for flexible jobs, then a packing policy
//! assigns the resulting active intervals to unit-capacity bins.

use crate::packing::{pack, usage_lower_bound, verify_capacity, Item, Packer, Packing};
use fjs_core::job::Instance;
use fjs_core::schedule::Schedule;
use fjs_core::time::Dur;

/// Outcome of scheduling + packing one instance.
#[derive(Clone, Debug)]
pub struct PipelineOutcome {
    /// Span of the schedule (scheduler's objective).
    pub span: Dur,
    /// Total bin usage time (the DBP objective).
    pub total_usage: Dur,
    /// Number of bins (servers) opened.
    pub num_bins: usize,
    /// Certified lower bound on the usage of any packing *of this
    /// schedule's intervals* (max of span and time-accumulated demand).
    pub usage_lb: Dur,
}

/// Packs a schedule's active intervals with the given sizes.
///
/// # Panics
/// Panics if the schedule is incomplete/mismatched, `sizes` has the wrong
/// length, any size is outside `(0, 1]`, or the packing violates capacity
/// (which would indicate a packer bug).
pub fn pack_schedule(
    inst: &Instance,
    schedule: &Schedule,
    sizes: &[f64],
    packer: Packer,
) -> PipelineOutcome {
    assert_eq!(sizes.len(), inst.len(), "one size per job");
    let items: Vec<Item> = inst
        .iter()
        .map(|(id, job)| {
            let s = schedule.start(id).expect("schedule must be complete");
            Item::new(job.active_interval_at(s), sizes[id.index()])
        })
        .collect();
    let packing: Packing = pack(&items, packer);
    assert!(
        verify_capacity(&items, &packing).is_none(),
        "packer produced a capacity violation"
    );
    PipelineOutcome {
        span: schedule.span(inst),
        total_usage: packing.total_usage,
        num_bins: packing.num_bins(),
        usage_lb: usage_lower_bound(&items),
    }
}

/// Deterministic pseudo-random sizes in `[min, max]` (splitmix64-based; no
/// external RNG dependency so the crate stays `fjs-core`-only).
///
/// # Panics
/// Panics unless `0 < min <= max <= 1`.
pub fn deterministic_sizes(n: usize, min: f64, max: f64, seed: u64) -> Vec<f64> {
    assert!(
        min > 0.0 && min <= max && max <= 1.0,
        "need 0 < min <= max <= 1"
    );
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let u = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            min + u * (max - min)
        })
        .collect()
}

/// Convenience: start every job at its deadline ("all-lazy" reference
/// schedule) — used in tests and as a packing-only baseline where the span
/// scheduler is degenerate.
pub fn deadline_schedule(inst: &Instance) -> Schedule {
    Schedule::from_starts(inst.len(), inst.iter().map(|(id, j)| (id, j.deadline())))
}

/// Convenience: start every job at its arrival (the *rigid* reference —
/// what prior busy-time work assumes).
pub fn arrival_schedule(inst: &Instance) -> Schedule {
    Schedule::from_starts(inst.len(), inst.iter().map(|(id, j)| (id, j.arrival())))
}

/// Relabels a simulation outcome's schedule so it can be packed: the
/// engine's outcome instance is already in release order with a complete
/// schedule, so this is just a typed passthrough that revalidates.
pub fn outcome_items(outcome: &fjs_core::sim::SimOutcome, sizes: &[f64]) -> Vec<Item> {
    assert_eq!(sizes.len(), outcome.instance.len());
    outcome
        .instance
        .iter()
        .map(|(id, job)| {
            let s = outcome
                .schedule
                .start(id)
                .expect("outcome schedules are complete");
            Item::new(job.active_interval_at(s), sizes[id.index()])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fjs_core::job::Job;
    use fjs_core::time::dur;

    fn inst() -> Instance {
        Instance::new(vec![
            Job::adp(0.0, 5.0, 2.0),
            Job::adp(1.0, 5.0, 2.0),
            Job::adp(2.0, 5.0, 2.0),
        ])
    }

    #[test]
    fn stacked_schedule_minimizes_span_but_needs_more_bins() {
        let inst = inst();
        let sizes = vec![0.6, 0.6, 0.6];
        // All at deadline 5: span 2, but three bins (sizes don't share).
        let stacked = deadline_schedule(&inst);
        let out = pack_schedule(&inst, &stacked, &sizes, Packer::FirstFit);
        assert_eq!(out.span, dur(2.0));
        assert_eq!(out.num_bins, 3);
        assert_eq!(out.total_usage, dur(6.0));

        // Eager: span 4 ([0,4)), staggered enough that bins reuse…
        let eager = arrival_schedule(&inst);
        let out2 = pack_schedule(&inst, &eager, &sizes, Packer::FirstFit);
        assert_eq!(out2.span, dur(4.0));
        // [0,2), [1,3), [2,4): J0 and J2 share bin 0 (J0 departs at 2).
        assert_eq!(out2.num_bins, 2);
        assert_eq!(out2.total_usage, dur(4.0 + 2.0));
    }

    #[test]
    fn usage_lb_is_respected() {
        let inst = inst();
        let sizes = vec![1.0, 1.0, 1.0];
        let out = pack_schedule(&inst, &deadline_schedule(&inst), &sizes, Packer::FirstFit);
        assert!(out.total_usage >= out.usage_lb);
        // Full-size jobs: area = 6 = usage.
        assert_eq!(out.usage_lb, dur(6.0));
        assert_eq!(out.total_usage, dur(6.0));
    }

    #[test]
    fn deterministic_sizes_reproducible_and_bounded() {
        let a = deterministic_sizes(100, 0.1, 0.9, 7);
        let b = deterministic_sizes(100, 0.1, 0.9, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&s| (0.1..=0.9).contains(&s)));
        let c = deterministic_sizes(100, 0.1, 0.9, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn pipeline_with_simulated_scheduler() {
        use fjs_core::prelude::*;
        struct EagerTest;
        impl OnlineScheduler for EagerTest {
            fn name(&self) -> String {
                "eager".into()
            }
            fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
                ctx.start(job.id);
            }
            fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
        }
        let inst = inst();
        let out = run_static(&inst, Clairvoyance::NonClairvoyant, EagerTest);
        let sizes = deterministic_sizes(out.instance.len(), 0.3, 0.3, 1);
        let items = outcome_items(&out, &sizes);
        let p = pack(&items, Packer::FirstFit);
        assert_eq!(p.num_bins(), 1, "three 0.3-sized jobs share one bin");
        assert!(crate::packing::verify_capacity(&items, &p).is_none());
    }

    #[test]
    #[should_panic(expected = "one size per job")]
    fn size_arity_checked() {
        let inst = inst();
        let _ = pack_schedule(&inst, &deadline_schedule(&inst), &[0.5], Packer::FirstFit);
    }
}
