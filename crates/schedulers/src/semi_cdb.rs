//! **Semi-clairvoyant CDB** (extension): Classify-by-Duration Batch+ run
//! with only the geometric **length class** `⌈log₂ p⌉` revealed at arrival
//! ([`fjs_core::sim::Clairvoyance::ClassOnly`]).
//!
//! Observation: CDB never reads `p(J)` itself — only the category it falls
//! in. So the full clairvoyance of Section 4 is more information than CDB
//! needs: `O(log μ)` bits (the class index) suffice to run CDB with
//! `α = 2`, retaining a constant competitive ratio
//! `3·2 + 4 + 2/(2−1) = 12` (Theorem 4.4 at `α = 2`). The differential
//! test in this module pins the equivalence: `SemiCdb` under `ClassOnly`
//! produces bit-identical schedules to `ClassifyByDuration::new(2.0, 1.0)`
//! under full clairvoyance.

use std::collections::BTreeMap;

use fjs_core::job::JobId;
use fjs_core::sim::{Arrival, Ctx, OnlineScheduler};
use fjs_core::time::Dur;

use crate::batch_plus::BatchPlusState;
use crate::flag_graph::FlagRecorder;

/// CDB driven purely by revealed length classes (base-2 geometric).
/// Runs under [`fjs_core::sim::Clairvoyance::ClassOnly`] — or any stronger
/// model, since classes are also revealed there.
#[derive(Clone, Debug, Default)]
pub struct SemiCdb {
    categories: BTreeMap<i64, BatchPlusState>,
    job_category: Vec<i64>,
}

impl SemiCdb {
    /// Creates a semi-clairvoyant CDB scheduler.
    pub fn new() -> Self {
        SemiCdb::default()
    }

    /// Number of non-empty categories seen so far.
    pub fn num_categories(&self) -> usize {
        self.categories.len()
    }

    fn record_category(&mut self, id: JobId, cat: i64) {
        let idx = id.index();
        if self.job_category.len() <= idx {
            self.job_category.resize(idx + 1, i64::MIN);
        }
        self.job_category[idx] = cat;
    }
}

impl FlagRecorder for SemiCdb {
    fn flag_jobs(&self) -> Vec<JobId> {
        let mut all: Vec<JobId> = self
            .categories
            .values()
            .flat_map(|s| s.flags().iter().copied())
            .collect();
        all.sort();
        all
    }
}

impl OnlineScheduler for SemiCdb {
    fn name(&self) -> String {
        "SemiCDB(α=2)".into()
    }

    fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
        let cat = job.length_class.expect(
            "SemiCdb needs at least length classes: run it with \
             Clairvoyance::ClassOnly or Clairvoyance::Clairvoyant",
        );
        self.record_category(job.id, cat);
        self.categories
            .entry(cat)
            .or_default()
            .job_arrived(job.id, ctx);
    }

    fn on_deadline(&mut self, id: JobId, ctx: &mut Ctx<'_>) {
        let cat = self.job_category[id.index()];
        self.categories
            .entry(cat)
            .or_default()
            .job_deadline(id, ctx);
    }

    fn on_completion(&mut self, id: JobId, _length: Dur, _ctx: &mut Ctx<'_>) {
        let cat = self.job_category[id.index()];
        if let Some(state) = self.categories.get_mut(&cat) {
            state.job_completed(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdb::ClassifyByDuration;
    use fjs_core::prelude::*;

    fn workload(seed: u64, n: usize) -> Instance {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || fjs_prng::splitmix64(&mut state);
        let jobs: Vec<Job> = (0..n)
            .map(|_| {
                let a = (next() % 300) as f64 / 10.0;
                let lax = (next() % 200) as f64 / 10.0;
                let p = 0.5 + (next() % 100) as f64 / 10.0;
                Job::adp(a, a + lax, p)
            })
            .collect();
        Instance::new(jobs)
    }

    #[test]
    fn class_only_runs_feasibly() {
        let inst = workload(1, 80);
        let out = run_static(&inst, Clairvoyance::ClassOnly, SemiCdb::new());
        assert!(out.is_feasible());
        assert!(out.schedule.validate(&out.instance).is_ok());
    }

    #[test]
    fn equivalent_to_full_cdb_at_alpha_two() {
        // The headline differential: classes are ALL the information CDB
        // consumes, so SemiCdb (ClassOnly) ≡ CDB(α=2, b=1) (Clairvoyant).
        for seed in 0..20u64 {
            let inst = workload(seed, 120);
            let semi = run_static(&inst, Clairvoyance::ClassOnly, SemiCdb::new());
            let full = run_static(
                &inst,
                Clairvoyance::Clairvoyant,
                ClassifyByDuration::new(2.0, 1.0),
            );
            assert!(semi.is_feasible() && full.is_feasible());
            assert_eq!(
                semi.schedule, full.schedule,
                "seed {seed}: schedules diverge"
            );
            assert_eq!(semi.span, full.span);
        }
    }

    #[test]
    fn works_under_full_clairvoyance_too() {
        let inst = workload(3, 60);
        let a = run_static(&inst, Clairvoyance::ClassOnly, SemiCdb::new());
        let b = run_static(&inst, Clairvoyance::Clairvoyant, SemiCdb::new());
        assert_eq!(a.schedule, b.schedule, "extra information is ignored");
    }

    #[test]
    #[should_panic(expected = "length classes")]
    fn non_clairvoyant_run_panics() {
        let inst = Instance::new(vec![Job::adp(0.0, 0.0, 1.0)]);
        let _ = run_static(&inst, Clairvoyance::NonClairvoyant, SemiCdb::new());
    }
}
