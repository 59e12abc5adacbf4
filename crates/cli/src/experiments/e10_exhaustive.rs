//! **E10 — small-instance validation against exact optimal.** Samples
//! hundreds of small integer instances, computes the exact optimal span
//! (`fjs-opt`), runs every scheduler and reports the **maximum observed
//! per-instance ratio** next to the paper's per-instance bound:
//!
//! * Batch: `2μ(I) + 1` (Theorem 3.4),
//! * Batch+: `μ(I) + 1` (Theorem 3.5),
//! * CDB: `3α + 4 + 2/(α−1)` (Theorem 4.4),
//! * Profit: `2k + 2 + 1/(k−1)` (Theorem 4.11),
//!
//! where `μ(I)` is the instance's own max/min length ratio. A single
//! violation would falsify the implementation (or the theorem); the table
//! shows the margin instead.

use super::Profile;
use fjs_analysis::{f3, parallel_map, Table};
use fjs_core::job::{Instance, Job};
use fjs_opt::cached_optimal_span_dp;
use fjs_prng::splitmix64;
use fjs_schedulers::{cdb_bound, optimal_alpha, profit_bound, SchedulerKind, OPTIMAL_K};

/// Samples a random small integer instance: `2..=jobs_max` jobs, arrivals
/// in `0..8`, laxities in `0..=5`, lengths in `1..=4`.
pub fn sample_instance(seed: u64, jobs_max: usize) -> Instance {
    let mut state = seed;
    let mut below = |n: u64| splitmix64(&mut state) % n;
    let n = 2 + below(jobs_max as u64 - 1) as usize;
    let jobs: Vec<Job> = (0..n)
        .map(|_| {
            let a = below(8) as f64;
            let lax = below(6) as f64;
            let p = 1.0 + below(4) as f64;
            Job::adp(a, a + lax, p)
        })
        .collect();
    Instance::new(jobs)
}

/// Per-scheduler worst case over the sampled instances.
pub struct WorstCase {
    /// Scheduler label.
    pub scheduler: String,
    /// Max observed `span / OPT`.
    pub max_ratio: f64,
    /// Minimum margin `bound(I) − ratio(I)` over instances (≥ 0 required).
    pub min_margin: f64,
    /// Instances evaluated.
    pub instances: usize,
}

fn per_instance_bound(kind: SchedulerKind, mu: f64) -> f64 {
    match kind {
        SchedulerKind::Batch => 2.0 * mu + 1.0,
        SchedulerKind::BatchPlus => mu + 1.0,
        SchedulerKind::Cdb { alpha, .. } => cdb_bound(alpha),
        SchedulerKind::Profit { k } => profit_bound(k),
        // Eager/Lazy/Doubler carry no proved bound; report ∞ margin.
        _ => f64::INFINITY,
    }
}

/// Validates one scheduler over `count` sampled instances.
pub fn validate(kind: SchedulerKind, count: usize, jobs_max: usize) -> WorstCase {
    let seeds: Vec<u64> = (0..count as u64).collect();
    let per_instance = parallel_map(&seeds, |&seed| {
        let inst = sample_instance(seed, jobs_max);
        let opt = cached_optimal_span_dp(&inst)
            .expect("small integer instance")
            .get();
        let out = kind.run_on(&inst);
        assert!(out.is_feasible(), "{} violated feasibility", kind.label());
        let ratio = out.span.get() / opt;
        let mu = inst.mu().expect("non-empty");
        (ratio, per_instance_bound(kind, mu) - ratio)
    });
    let max_ratio = per_instance.iter().map(|r| r.0).fold(0.0, f64::max);
    let min_margin = per_instance
        .iter()
        .map(|r| r.1)
        .fold(f64::INFINITY, f64::min);
    WorstCase {
        scheduler: kind.label(),
        max_ratio,
        min_margin,
        instances: count,
    }
}

/// Enumerates **every** instance on a small grid: `n` jobs, arrivals in
/// `0..arrival_max`, laxities in `0..=lax_max`, lengths in `1..=p_max`
/// (ordered tuples; `(arrival_max·(lax_max+1)·p_max)^n` instances).
pub fn enumerate_instances(n: usize, arrival_max: u64, lax_max: u64, p_max: u64) -> Vec<Instance> {
    let per_job: Vec<(f64, f64, f64)> = (0..arrival_max)
        .flat_map(|a| {
            (0..=lax_max)
                .flat_map(move |lax| (1..=p_max).map(move |p| (a as f64, lax as f64, p as f64)))
        })
        .collect();
    let mut out = Vec::new();
    let mut idx = vec![0usize; n];
    loop {
        out.push(Instance::new(
            idx.iter()
                .map(|&i| {
                    let (a, lax, p) = per_job[i];
                    Job::adp(a, a + lax, p)
                })
                .collect(),
        ));
        // Odometer increment.
        let mut k = 0;
        loop {
            idx[k] += 1;
            if idx[k] < per_job.len() {
                break;
            }
            idx[k] = 0;
            k += 1;
            if k == n {
                return out;
            }
        }
    }
}

/// Validates one scheduler over a list of instances (exact OPT each).
pub fn validate_on(kind: SchedulerKind, instances: &[Instance]) -> WorstCase {
    let per_instance = parallel_map(instances, |inst| {
        let opt = cached_optimal_span_dp(inst)
            .expect("small integer instance")
            .get();
        let out = kind.run_on(inst);
        assert!(out.is_feasible(), "{} violated feasibility", kind.label());
        let ratio = out.span.get() / opt;
        let mu = inst.mu().expect("non-empty");
        (ratio, per_instance_bound(kind, mu) - ratio)
    });
    let max_ratio = per_instance.iter().map(|r| r.0).fold(0.0, f64::max);
    let min_margin = per_instance
        .iter()
        .map(|r| r.1)
        .fold(f64::INFINITY, f64::min);
    WorstCase {
        scheduler: kind.label(),
        max_ratio,
        min_margin,
        instances: instances.len(),
    }
}

/// The scheduler kinds E10 validates, in table order.
pub fn kinds() -> [SchedulerKind; 7] {
    [
        SchedulerKind::Batch,
        SchedulerKind::BatchPlus,
        SchedulerKind::Cdb {
            alpha: optimal_alpha(),
            base: 1.0,
        },
        SchedulerKind::Profit { k: OPTIMAL_K },
        SchedulerKind::Doubler { c: 1.0 },
        SchedulerKind::Eager,
        SchedulerKind::Lazy,
    ]
}

/// Experiment runner.
pub fn run(profile: Profile) -> Vec<Table> {
    let count = profile.pick(60, 500);
    let jobs_max = 6;
    let kinds = kinds();

    let mut t = Table::new(
        format!(
            "E10a: max observed span/OPT over {count} random small integer instances (exact OPT)"
        ),
        &[
            "scheduler",
            "instances",
            "max ratio",
            "min bound margin",
            "bound violated?",
        ],
    );
    for &kind in &kinds {
        let w = validate(kind, count, jobs_max);
        t.push_row(vec![
            w.scheduler.clone(),
            format!("{}", w.instances),
            f3(w.max_ratio),
            if w.min_margin.is_finite() {
                f3(w.min_margin)
            } else {
                "n/a".into()
            },
            if w.min_margin < -1e-9 {
                "YES (bug!)".into()
            } else {
                "no".into()
            },
        ]);
    }

    // Part 2: truly exhaustive — EVERY ordered 2-job (quick) or 3-job
    // (full) instance on a small grid.
    let (n, amax, lmax, pmax) =
        profile.pick((2usize, 3u64, 2u64, 2u64), (3usize, 3u64, 2u64, 2u64));
    let grid = enumerate_instances(n, amax, lmax, pmax);
    let mut t2 = Table::new(
        format!(
            "E10b: exhaustive validation over ALL {} ordered {n}-job instances (arrivals 0..{amax}, laxities 0..={lmax}, lengths 1..={pmax})",
            grid.len()
        ),
        &["scheduler", "instances", "max ratio", "min bound margin", "bound violated?"],
    );
    for &kind in &kinds {
        let w = validate_on(kind, &grid);
        t2.push_row(vec![
            w.scheduler.clone(),
            format!("{}", w.instances),
            f3(w.max_ratio),
            if w.min_margin.is_finite() {
                f3(w.min_margin)
            } else {
                "n/a".into()
            },
            if w.min_margin < -1e-9 {
                "YES (bug!)".into()
            } else {
                "no".into()
            },
        ]);
    }
    vec![t, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_counts_match_the_grid() {
        // 2 jobs over 3·2·2 = 12 options each → 144 ordered instances.
        let grid = enumerate_instances(2, 3, 1, 2);
        assert_eq!(grid.len(), 144);
        assert!(grid.iter().all(|i| i.len() == 2));
    }

    #[test]
    fn exhaustive_grid_never_violates_batch_plus_bound() {
        let grid = enumerate_instances(2, 3, 2, 2);
        let w = validate_on(SchedulerKind::BatchPlus, &grid);
        assert!(w.min_margin >= -1e-9, "margin {}", w.min_margin);
    }

    #[test]
    fn sampled_instances_are_small_and_integral() {
        for seed in 0..50 {
            let inst = sample_instance(seed, 6);
            assert!(inst.len() >= 2 && inst.len() <= 6);
            assert!(cached_optimal_span_dp(&inst).is_ok());
        }
    }

    #[test]
    fn batch_plus_never_violates_mu_plus_one() {
        let w = validate(SchedulerKind::BatchPlus, 120, 5);
        assert!(
            w.min_margin >= -1e-9,
            "Batch+ violated μ+1 on some instance: margin {}",
            w.min_margin
        );
        assert!(w.max_ratio >= 1.0);
    }

    #[test]
    fn batch_never_violates_two_mu_plus_one() {
        let w = validate(SchedulerKind::Batch, 120, 5);
        assert!(w.min_margin >= -1e-9, "margin {}", w.min_margin);
    }

    #[test]
    fn clairvoyant_schedulers_respect_their_constants() {
        for kind in [
            SchedulerKind::Cdb {
                alpha: optimal_alpha(),
                base: 1.0,
            },
            SchedulerKind::Profit { k: OPTIMAL_K },
        ] {
            let w = validate(kind, 120, 5);
            assert!(
                w.min_margin >= -1e-9,
                "{}: margin {}",
                w.scheduler,
                w.min_margin
            );
        }
    }
}
