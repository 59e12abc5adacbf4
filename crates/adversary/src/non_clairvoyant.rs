//! The **Theorem 3.3 adversary**: an adaptive environment forcing every
//! deterministic non-clairvoyant scheduler towards ratio `μ`.
//!
//! The construction (Figure 1) proceeds in iterations. Iteration `i`
//! releases `n_i` jobs at time `T_i` with exponentially increasing laxities
//! `α^1, α^2, …`. Every job is *adaptive*: its length is assigned **one
//! time unit after it starts** (at which point the shortest admissible
//! length, 1, would complete it immediately). As long as the iteration's
//! *concurrency* — the number of its jobs running simultaneously — stays at
//! most a threshold `c_i`, every job is assigned length 1; the iteration's
//! span is then at least `n_i / c_i` (Lemma 3.1) while OPT could have run
//! everything together. The moment concurrency exceeds `c_i`, the running
//! job with the **largest laxity** is *earmarked* to receive length `μ`,
//! every other job gets length 1, and iteration `i+1` is released exactly at
//! the earmark's completion. Earmarked jobs from all iterations remain
//! startable at the final release time (Lemma 3.2 — asserted at runtime
//! here, see the scaling note), so OPT stacks them into a single `μ` window
//! while the online scheduler paid `μ` per iteration.
//!
//! # Scaling substitution (see DESIGN.md §7)
//!
//! The paper's counts `n_i = 2^(2^(2k−i+1))` are astronomically large; they
//! exist to make *every* early-termination branch of the case analysis
//! yield a huge ratio simultaneously. This implementation keeps the
//! adversary's full decision logic but takes the per-iteration counts,
//! thresholds and the laxity base as parameters, and *verifies* (rather
//! than derives from magnitude) the property Lemma 3.2 needs: that every
//! earmarked job's starting deadline is at least the final release time.
//! [`NcAdversary::prescribed_schedule`] then realizes the paper's optimal
//! counter-schedule on the materialized instance.

use fjs_core::job::{Instance, JobId};
use fjs_core::schedule::Schedule;
use fjs_core::sim::{Clairvoyance, Environment, JobSpec, LengthRuling, World};
use fjs_core::time::{Dur, Time};

/// Parameters of the scaled Theorem 3.3 construction.
#[derive(Clone, Debug)]
pub struct NcAdversaryParams {
    /// Target max/min length ratio `μ > 1` (the earmark length; all other
    /// jobs have length 1).
    pub mu: f64,
    /// Number of earmarking iterations `k` (the final `(k+1)`-th iteration
    /// releases fixed length-1 jobs).
    pub iterations: usize,
    /// Jobs released per iteration `n_i` (`iterations + 1` entries; the
    /// paper uses doubly-exponentially decreasing counts).
    pub counts: Vec<usize>,
    /// Concurrency thresholds `c_i` (one per earmarking iteration; the
    /// paper uses `√n_i`).
    pub thresholds: Vec<usize>,
    /// Laxity base `α > μ + 1`; job `j` of an iteration has laxity `α^j`
    /// for `j ≤ laxity_cap_exp` and `α^cap + 2(j − cap)` beyond (strictly
    /// increasing, but bounded so that all event times stay well inside
    /// `f64` integer resolution — `t + 1` must remain representable).
    pub alpha: f64,
    /// Exponent cap keeping laxities ≲ 10¹² (the paper's unbounded
    /// exponents only serve Lemma 3.2, which we assert at runtime instead).
    pub laxity_cap_exp: u32,
}

impl NcAdversaryParams {
    /// A balanced configuration: `k` iterations of `n` jobs each with
    /// threshold `√n`, `α = μ + 2`.
    ///
    /// # Panics
    /// Panics unless `mu > 1`, `k ≥ 1` and `n ≥ 4`.
    pub fn uniform(mu: f64, k: usize, n: usize) -> Self {
        assert!(mu > 1.0, "μ must exceed 1, got {mu}");
        assert!(k >= 1, "need at least one iteration");
        assert!(n >= 4, "need at least 4 jobs per iteration");
        let threshold = (n as f64).sqrt().floor() as usize;
        NcAdversaryParams {
            mu,
            iterations: k,
            counts: vec![n; k + 1],
            thresholds: vec![threshold.max(1); k],
            alpha: mu + 2.0,
            laxity_cap_exp: cap_for(mu + 2.0),
        }
    }

    /// The paper's literal doubly-exponential counts
    /// `n_i = 2^(2^(2k−i+1))`, feasible only for `k = 1`
    /// (`k = 1` → counts `[16, 4]`, threshold `[4]`).
    ///
    /// # Panics
    /// Panics if `k > 1` (counts overflow anything reasonable) or `mu <= 1`.
    pub fn literal(mu: f64, k: usize) -> Self {
        assert!(mu > 1.0, "μ must exceed 1, got {mu}");
        assert!(
            k == 1,
            "the literal construction is only materializable for k = 1"
        );
        let counts: Vec<usize> = (1..=k + 1)
            .map(|i| 1usize << (1usize << (2 * k - i + 1)))
            .collect();
        let thresholds: Vec<usize> = counts[..k]
            .iter()
            .map(|&n| (n as f64).sqrt() as usize)
            .collect();
        NcAdversaryParams {
            mu,
            iterations: k,
            counts,
            thresholds,
            alpha: mu + 2.0,
            laxity_cap_exp: cap_for(mu + 2.0),
        }
    }

    fn validate(&self) {
        assert!(self.mu > 1.0, "μ must exceed 1");
        assert!(
            self.alpha > self.mu + 1.0,
            "need α > μ + 1 (paper requirement)"
        );
        assert_eq!(
            self.counts.len(),
            self.iterations + 1,
            "counts: one per iteration plus final"
        );
        assert_eq!(
            self.thresholds.len(),
            self.iterations,
            "thresholds: one per earmarking iteration"
        );
        assert!(
            self.counts.iter().all(|&n| n >= 2),
            "each iteration needs ≥ 2 jobs"
        );
        assert!(
            self.thresholds
                .iter()
                .zip(&self.counts)
                .all(|(&c, &n)| c >= 1 && c < n),
            "thresholds must satisfy 1 ≤ c_i < n_i"
        );
    }
}

/// Largest exponent keeping `alpha^cap` at or below ~10¹².
fn cap_for(alpha: f64) -> u32 {
    ((12.0 * std::f64::consts::LN_10) / alpha.ln())
        .floor()
        .max(2.0) as u32
}

/// Progress of one adversary iteration.
#[derive(Clone, Debug)]
struct IterationState {
    /// Release time `T_i`.
    release_time: Time,
    /// Ids of this iteration's jobs (contiguous, release order).
    first_id: u32,
    count: u32,
    /// Whether concurrency has exceeded the threshold.
    crossed: bool,
    /// The earmarked job, once designated.
    earmark: Option<JobId>,
}

/// The adaptive adversary. Implements [`Environment`]; run any
/// non-clairvoyant [`fjs_core::sim::OnlineScheduler`] against it with
/// [`fjs_core::sim::run`].
#[derive(Clone, Debug)]
pub struct NcAdversary {
    params: NcAdversaryParams,
    iters: Vec<IterationState>,
    /// Release time of the next iteration, once known.
    next_release: Option<Time>,
    /// Index (0-based) of the next iteration to release.
    next_iter: usize,
}

impl NcAdversary {
    /// Creates the adversary.
    ///
    /// # Panics
    /// Panics if the parameters are inconsistent (see
    /// [`NcAdversaryParams`] field docs).
    pub fn new(params: NcAdversaryParams) -> Self {
        params.validate();
        NcAdversary {
            params,
            iters: Vec::new(),
            next_release: Some(Time::ZERO),
            next_iter: 0,
        }
    }

    /// The parameters.
    pub fn params(&self) -> &NcAdversaryParams {
        &self.params
    }

    /// Iteration index (0-based) a job id belongs to, if released.
    fn iteration_of(&self, id: JobId) -> Option<usize> {
        self.iters
            .iter()
            .position(|it| id.0 >= it.first_id && id.0 < it.first_id + it.count)
    }

    /// The laxity of job `j` (1-based within its iteration): `α^j`, capped
    /// with a linear (gap-2) extension so laxities stay strictly increasing
    /// while all event times remain far below `f64` integer resolution.
    fn laxity(&self, j: u32) -> Dur {
        let cap = self.params.laxity_cap_exp;
        if j <= cap {
            Dur::new(self.params.alpha.powi(j as i32))
        } else {
            Dur::new(self.params.alpha.powi(cap as i32) + 2.0 * f64::from(j - cap))
        }
    }

    /// Number of currently running jobs belonging to iteration `it`.
    fn concurrency(&self, it: usize, world: &World) -> usize {
        let iter = &self.iters[it];
        world
            .running()
            .filter(|id| id.0 >= iter.first_id && id.0 < iter.first_id + iter.count)
            .count()
    }

    /// All earmarked jobs designated so far (iteration order).
    pub fn earmarks(&self) -> Vec<JobId> {
        self.iters.iter().filter_map(|it| it.earmark).collect()
    }

    /// Number of iterations actually released.
    pub fn iterations_released(&self) -> usize {
        self.iters.len()
    }

    /// The paper's counter-schedule for the materialized instance: every
    /// earmarked job and every job of the final released iteration starts
    /// at the final release time; every other job starts at its arrival.
    ///
    /// Returns `Err` with the offending job if an earmark is no longer
    /// startable at the final release time (possible only if the scheduler
    /// delayed starts beyond the capped laxities — the Lemma 3.2 runtime
    /// check described in the module docs).
    pub fn prescribed_schedule(&self, instance: &Instance) -> Result<Schedule, JobId> {
        let last = self.iters.last().expect("at least one iteration released");
        let t_last = last.release_time;
        let earmarks = self.earmarks();
        let mut schedule = Schedule::with_len(instance.len());
        for (id, job) in instance.iter() {
            let in_last_iter = id.0 >= last.first_id && id.0 < last.first_id + last.count;
            let stacked = in_last_iter || earmarks.contains(&id);
            if stacked {
                if !(job.arrival() <= t_last && t_last <= job.deadline()) {
                    return Err(id);
                }
                schedule.set_start(id, t_last);
            } else {
                schedule.set_start(id, job.arrival());
            }
        }
        Ok(schedule)
    }
}

impl Environment for NcAdversary {
    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::NonClairvoyant
    }

    fn next_release_time(&mut self, _world: &World) -> Option<Time> {
        self.next_release
    }

    fn release_at(&mut self, now: Time, world: &World) -> Vec<JobSpec> {
        debug_assert_eq!(Some(now), self.next_release);
        let idx = self.next_iter;
        let count = self.params.counts[idx];
        let first_id = world.num_jobs() as u32;
        self.iters.push(IterationState {
            release_time: now,
            first_id,
            count: count as u32,
            crossed: false,
            earmark: None,
        });
        self.next_iter += 1;
        self.next_release = None; // decided when/if this iteration crosses

        let final_iteration = idx == self.params.iterations;
        (1..=count as u32)
            .map(|j| {
                let deadline = now + self.laxity(j);
                if final_iteration {
                    // Paper: the (k+1)-th iteration's jobs are directly
                    // assigned length 1.
                    JobSpec::fixed(deadline, Dur::new(1.0))
                } else {
                    JobSpec::adaptive(deadline)
                }
            })
            .collect()
    }

    fn rule_length(
        &mut self,
        id: JobId,
        started_at: Time,
        now: Time,
        world: &World,
    ) -> LengthRuling {
        let it_idx = self.iteration_of(id).expect("ruling on a job we released");

        if now == started_at {
            // First call: the job just started. This is where the adversary
            // watches the iteration's concurrency (concurrency only
            // increases at starts).
            let iter = &self.iters[it_idx];
            if !iter.crossed
                && self.iters[it_idx].earmark.is_none()
                && it_idx < self.params.iterations
                && self.concurrency(it_idx, world) > self.params.thresholds[it_idx]
            {
                // Concurrency first exceeded the threshold: earmark the
                // running job of this iteration with the largest laxity
                // (= largest id, laxities being nondecreasing in j). Jobs
                // whose length is already committed (possible only in the
                // degenerate float regime below) are not candidates.
                let iter = &self.iters[it_idx];
                let earmark = world
                    .running()
                    .filter(|jid| jid.0 >= iter.first_id && jid.0 < iter.first_id + iter.count)
                    .filter(|jid| world.job(*jid).length().is_none())
                    .max()
                    .expect("the just-started job is always a candidate");
                let em_start = world.job(earmark).start().expect("earmark is running");
                let iter = &mut self.iters[it_idx];
                iter.crossed = true;
                iter.earmark = Some(earmark);
                // Next iteration is released exactly at the earmark's
                // completion.
                if self.next_iter <= self.params.iterations {
                    self.next_release = Some(em_start + Dur::new(self.params.mu));
                }
            }
            // Lengths are assigned one time unit after the start. If the
            // start time is so large that `start + 1` is not representable
            // as a strictly later f64 (sub-ulp regime — only reachable by
            // schedulers that sit on the huge capped laxities), rule
            // immediately: the earmark decision for this job has already
            // been taken above if it was ever going to be.
            let probe = started_at + Dur::new(1.0);
            if probe > started_at {
                return LengthRuling::AskAgainAt(probe);
            }
        }

        // Second call (start + 1): assign the length.
        if self.iters[it_idx].earmark == Some(id) {
            LengthRuling::Assign(Dur::new(self.params.mu))
        } else {
            LengthRuling::Assign(Dur::new(1.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fjs_core::prelude::*;
    use fjs_core::sim::run;

    /// Starts everything the moment it arrives (max concurrency).
    struct EagerTest;
    impl OnlineScheduler for EagerTest {
        fn name(&self) -> String {
            "eager-test".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            ctx.start(job.id);
        }
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
    }

    /// Starts jobs only at their deadlines (concurrency 1 here).
    struct LazyTest;
    impl OnlineScheduler for LazyTest {
        fn name(&self) -> String {
            "lazy-test".into()
        }
        fn on_arrival(&mut self, _job: Arrival, _ctx: &mut Ctx<'_>) {}
        fn on_deadline(&mut self, id: JobId, ctx: &mut Ctx<'_>) {
            ctx.start(id);
        }
    }

    #[test]
    fn eager_scheduler_gets_earmarked_every_iteration() {
        let params = NcAdversaryParams::uniform(4.0, 2, 16);
        let mut adv = NcAdversary::new(params);
        let out = run(&mut adv, EagerTest);
        assert!(out.is_feasible());
        // Eager blasts concurrency past √16 = 4 instantly in each
        // iteration, so both earmarking iterations fire, plus the final one.
        assert_eq!(adv.iterations_released(), 3);
        assert_eq!(adv.earmarks().len(), 2);
        // Earmarks have length μ, everything else length 1.
        for em in adv.earmarks() {
            assert_eq!(out.instance.job(em).length(), dur(4.0));
        }
        let ones = out
            .instance
            .jobs()
            .iter()
            .filter(|j| j.length() == dur(1.0))
            .count();
        assert_eq!(ones, out.instance.len() - 2);
        // Prescribed counter-schedule is feasible and far cheaper.
        let presc = adv.prescribed_schedule(&out.instance).expect("feasible");
        assert!(presc.validate(&out.instance).is_ok());
        let ratio = out.span.ratio(presc.span(&out.instance));
        assert!(
            ratio > 1.0,
            "adversary must beat the eager scheduler, ratio {ratio}"
        );
    }

    #[test]
    fn low_concurrency_scheduler_stops_after_first_iteration() {
        let params = NcAdversaryParams::uniform(4.0, 2, 16);
        let mut adv = NcAdversary::new(params);
        let out = run(&mut adv, LazyTest);
        assert!(out.is_feasible());
        // Lazy runs one job at a time (laxities are all distinct), so the
        // threshold is never crossed and no further iteration is released.
        assert_eq!(adv.iterations_released(), 1);
        assert!(adv.earmarks().is_empty());
        // All 16 jobs ran for length 1, sequentially: span = 16 ≥ n/c = 4.
        assert_eq!(out.span, dur(16.0));
    }

    #[test]
    fn lemma_3_1_span_bound_without_earmark() {
        // Any scheduler that never crosses c jobs of one iteration must
        // induce span ≥ n/c for that iteration's unit jobs.
        let params = NcAdversaryParams::uniform(2.0, 1, 16);
        let mut adv = NcAdversary::new(params);
        let out = run(&mut adv, LazyTest);
        let threshold = adv.params().thresholds[0] as f64;
        let n = adv.params().counts[0] as f64;
        assert!(out.span.get() >= n / threshold - 1e-9);
    }

    #[test]
    fn literal_k1_construction() {
        let params = NcAdversaryParams::literal(3.0, 1);
        assert_eq!(params.counts, vec![16, 4]);
        assert_eq!(params.thresholds, vec![4]);
        let mut adv = NcAdversary::new(params);
        let out = run(&mut adv, EagerTest);
        assert!(out.is_feasible());
        assert_eq!(adv.iterations_released(), 2);
        assert_eq!(out.instance.len(), 20);
    }

    #[test]
    fn release_times_follow_earmark_completions() {
        let params = NcAdversaryParams::uniform(4.0, 2, 16);
        let mut adv = NcAdversary::new(params);
        let out = run(&mut adv, EagerTest);
        // Iteration i's jobs all arrive at its release time T_i.
        let mut times: Vec<Time> = out.instance.jobs().iter().map(|j| j.arrival()).collect();
        times.dedup();
        assert_eq!(times[0], Time::ZERO);
        // Eager starts everything at T_i; earmark starts at T_i and runs μ.
        assert_eq!(times[1], t(4.0));
        assert_eq!(times[2], t(8.0));
    }

    #[test]
    #[should_panic(expected = "α > μ + 1")]
    fn alpha_validation() {
        let mut p = NcAdversaryParams::uniform(4.0, 1, 16);
        p.alpha = 4.5; // ≤ μ + 1
        let _ = NcAdversary::new(p);
    }
}
