//! Lemma-level verification: the *internal* steps of the paper's proofs,
//! checked on real scheduler executions over randomized workloads.
//!
//! * Theorem 3.5's key step — consecutive Batch+ flag jobs can never
//!   overlap (`a(J_{i+1}) > d(J_i) + p(J_i)`).
//! * Lemma 4.2 — CDB's span is at most `(α+1)` times the span of its flag
//!   jobs.
//! * Lemma 4.5 — Profit's span is at most `k` times the span of its flag
//!   jobs.
//! * Lemma 4.6 — among Profit flags, earlier deadline ⟹ earlier completion.
//! * Batch+ flag structure: every job started in an iteration starts inside
//!   `[d(flag), d(flag) + p(flag))` (the proof's containment argument).

use fjs_core::interval::IntervalSet;
use fjs_core::prelude::*;
use fjs_schedulers::{BatchPlus, ClassifyByDuration, FlagRecorder, Profit, OPTIMAL_K};

/// Deterministic mixed workload used across the lemma checks.
fn workload(seed: u64, n: usize) -> Instance {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || fjs_prng::splitmix64(&mut state);
    let jobs: Vec<Job> = (0..n)
        .map(|_| {
            let a = (next() % 4000) as f64 / 10.0;
            let lax = (next() % 600) as f64 / 10.0;
            let p = 1.0 + (next() % 150) as f64 / 10.0;
            Job::adp(a, a + lax, p)
        })
        .collect();
    Instance::new(jobs)
}

/// Span of a set of flags under "start at deadline" (their actual starts in
/// Batch+/CDB/Profit schedules).
fn flag_span(inst: &Instance, flags: &[JobId]) -> Dur {
    flags
        .iter()
        .map(|&id| {
            let j = inst.job(id);
            j.active_interval_at(j.deadline())
        })
        .collect::<IntervalSet>()
        .measure()
}

#[test]
fn batch_plus_flags_never_overlappable() {
    for seed in 0..25u64 {
        let inst = workload(seed, 150);
        let mut sched = BatchPlus::new();
        let out = run_static(&inst, Clairvoyance::NonClairvoyant, &mut sched);
        assert!(out.is_feasible());
        let flags = sched.flag_jobs();
        // Theorem 3.5: the next flag arrives strictly after the previous
        // flag's latest completion, so their intervals can never overlap
        // under ANY scheduler.
        for w in flags.windows(2) {
            let prev = out.instance.job(w[0]);
            let next = out.instance.job(w[1]);
            assert!(
                next.arrival() > prev.latest_completion()
                    || next.arrival() == prev.latest_completion(),
                "seed {seed}: flag {} (a={}) overlaps window of flag {} (d+p={})",
                w[1],
                next.arrival(),
                w[0],
                prev.latest_completion()
            );
            assert!(
                prev.never_overlaps(next),
                "seed {seed}: consecutive flags overlappable"
            );
        }
    }
}

#[test]
fn batch_plus_iteration_containment() {
    // Every job started in iteration i has its active interval inside
    // [d(flag_i), d(flag_i) + (μ+1)·p(flag_i)) — the Theorem 3.5 span
    // argument. We check the sharper per-iteration containment with μ from
    // the instance.
    for seed in 0..25u64 {
        let inst = workload(seed, 120);
        let mu = inst.mu().unwrap();
        let mut sched = BatchPlus::new();
        let out = run_static(&inst, Clairvoyance::NonClairvoyant, &mut sched);
        let flags = sched.flag_jobs();
        // Assign each job to its iteration: the last flag whose deadline is
        // <= the job's start.
        let mut flag_starts: Vec<(Time, JobId)> = flags
            .iter()
            .map(|&f| (out.instance.job(f).deadline(), f))
            .collect();
        flag_starts.sort();
        for (id, job) in out.instance.iter() {
            let s = out.schedule.start(id).unwrap();
            let idx = flag_starts.partition_point(|&(d, _)| d <= s);
            assert!(idx > 0, "job started before the first flag?!");
            let (fd, f) = flag_starts[idx - 1];
            let fp = out.instance.job(f).length();
            let iteration_window =
                fjs_core::interval::Interval::new(fd, fd + fp * (mu + 1.0) + dur(1e-9));
            assert!(
                iteration_window.contains_interval(&job.active_interval_at(s)),
                "seed {seed}: {id} runs {} outside its iteration window {}",
                job.active_interval_at(s),
                iteration_window
            );
        }
    }
}

#[test]
fn lemma_4_2_cdb_span_at_most_alpha_plus_one_times_flag_span() {
    for seed in 0..25u64 {
        let inst = workload(seed, 150);
        let alpha = 1.9;
        let mut sched = ClassifyByDuration::new(alpha, 1.0);
        let out = run_static(&inst, Clairvoyance::Clairvoyant, &mut sched);
        assert!(out.is_feasible());
        let fs = flag_span(&out.instance, &sched.flag_jobs());
        assert!(
            out.span.get() <= (alpha + 1.0) * fs.get() + 1e-9,
            "seed {seed}: span {} > (α+1)·flag-span {}",
            out.span,
            (alpha + 1.0) * fs.get()
        );
    }
}

#[test]
fn lemma_4_5_profit_span_at_most_k_times_flag_span() {
    for seed in 0..25u64 {
        let inst = workload(seed, 150);
        for k in [1.3, OPTIMAL_K, 2.5] {
            let mut sched = Profit::new(k);
            let out = run_static(&inst, Clairvoyance::Clairvoyant, &mut sched);
            assert!(out.is_feasible());
            let fs = flag_span(&out.instance, &sched.flag_jobs());
            assert!(
                out.span.get() <= k * fs.get() + 1e-9,
                "seed {seed}, k {k}: span {} > k·flag-span {}",
                out.span,
                k * fs.get()
            );
        }
    }
}

#[test]
fn lemma_4_6_profit_flag_completions_ordered_by_deadline() {
    for seed in 0..25u64 {
        let inst = workload(seed, 150);
        let mut sched = Profit::new(OPTIMAL_K);
        let out = run_static(&inst, Clairvoyance::Clairvoyant, &mut sched);
        let mut flags = sched.flag_jobs();
        flags.sort_by_key(|&f| out.instance.job(f).deadline());
        for w in flags.windows(2) {
            let a = out.instance.job(w[0]);
            let b = out.instance.job(w[1]);
            assert!(
                a.latest_completion() <= b.latest_completion() + dur(1e-12),
                "seed {seed}: Lemma 4.6 violated between {} and {}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn profit_flags_start_at_their_deadlines() {
    // Flags are, by construction, jobs that hit their starting deadlines.
    for seed in 0..10u64 {
        let inst = workload(seed, 100);
        let mut sched = Profit::new(OPTIMAL_K);
        let out = run_static(&inst, Clairvoyance::Clairvoyant, &mut sched);
        for f in sched.flag_jobs() {
            assert_eq!(
                out.schedule.start(f),
                Some(out.instance.job(f).deadline()),
                "seed {seed}: flag {f} not started at its deadline"
            );
        }
    }
}

#[test]
fn profit_non_flags_are_profitable_when_started() {
    // Every non-flag job must satisfy one of the two admission rules
    // relative to SOME flag — the defining property of the Profit schedule.
    for seed in 0..10u64 {
        let inst = workload(seed, 100);
        let k = OPTIMAL_K;
        let mut sched = Profit::new(k);
        let out = run_static(&inst, Clairvoyance::Clairvoyant, &mut sched);
        let flags = sched.flag_jobs();
        for (id, job) in out.instance.iter() {
            if flags.contains(&id) {
                continue;
            }
            let s = out.schedule.start(id).unwrap();
            let p = job.length();
            let admitted = flags.iter().any(|&f| {
                let fj = out.instance.job(f);
                let f_start = fj.deadline();
                let f_end = fj.latest_completion();
                // Rule 1: started exactly at a flag's deadline with
                // p ≤ k·p(flag).
                let rule1 = s == f_start && p.get() <= k * fj.length().get() + 1e-9;
                // Rule 2: started at its own arrival during the flag's run
                // with p ≤ k·(end − a).
                let rule2 = s == job.arrival()
                    && s >= f_start
                    && s < f_end
                    && p.get() <= k * (f_end - job.arrival()).get() + 1e-9;
                rule1 || rule2
            });
            assert!(
                admitted,
                "seed {seed}: {id} started at {s} without a justifying flag"
            );
        }
    }
}
