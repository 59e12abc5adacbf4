//! Cross-registry session equivalence: a [`Session`] fed a trace job by
//! job, in arrival order, must make the batch engine's decisions.
//!
//! Every registered scheduler, under its declared information model, runs
//! each instance twice — once through `run_static` and once offered one job
//! at a time to a session — and the two must agree on every start, on the
//! span bits (`Session::span` and the last decision's running span), and on
//! every counter `Session::stats` documents as matching. Release *events*
//! and the event total are excluded: a batch run counts one release per
//! arrival instant, a session one per offer.
//!
//! Instances: the seeded μ×slack×load integer family grid of
//! `engine_equivalence.rs`, plus seeded decimal (non-dyadic) chains of
//! rigid jobs, each arriving exactly when the one before it completes, so
//! consecutive busy intervals touch at inexact `f64` sums.

use fjs::schedulers::SchedulerKind;
use fjs::workloads::{IntFamily, LoadRegime, SlackRegime};
use fjs_core::job::{Instance, Job, JobId};
use fjs_core::service::{DecisionKind, JobOffer, Session};
use fjs_core::sim::{run_static, RunStats};
use fjs_core::supervise::Verdict;
use fjs_core::time::{dur, t, Time};
use fjs_prng::check::{case_seed, forall_seeded};

/// The counters a session shares with the batch run of the same trace.
fn matching_counters(s: &RunStats) -> [(&'static str, usize); 8] {
    [
        ("jobs_released", s.jobs_released),
        ("completions", s.completions),
        ("ordered_starts", s.ordered_starts),
        ("deadline_alarms", s.deadline_alarms),
        ("wakeups", s.wakeups),
        ("actions_applied", s.actions_applied),
        ("actions_rejected", s.actions_rejected),
        ("force_starts", s.force_starts),
    ]
}

/// Runs `kind` on `inst` both ways and asserts the session matches.
fn assert_session_matches_batch(kind: SchedulerKind, inst: &Instance, label: &str) {
    let model = kind.information_model();
    let batch = run_static(inst, model, kind.build());
    assert!(batch.termination.is_completed(), "{label}: batch completed");

    // Offer in the batch engine's release order, (arrival, source index),
    // so session ids are batch ids.
    let mut jobs: Vec<Job> = inst.iter().map(|(_, j)| *j).collect();
    jobs.sort_by_key(|j| j.arrival());
    let mut session = Session::new(kind.build(), model);
    let mut decisions = Vec::new();
    for job in &jobs {
        session
            .offer(JobOffer {
                arrival: job.arrival(),
                deadline: job.deadline(),
                length: job.length(),
            })
            .unwrap_or_else(|e| panic!("{label}: offer refused: {e}"));
        decisions.extend(session.take_decisions());
    }
    assert_eq!(session.close(), Verdict::Completed, "{label}");
    decisions.extend(session.take_decisions());

    let starts: Vec<(JobId, Time)> = decisions
        .iter()
        .filter(|d| d.kind == DecisionKind::Start)
        .map(|d| (d.id, d.at))
        .collect();
    assert_eq!(starts.len(), jobs.len(), "{label}: every job started once");
    for (id, at) in starts {
        assert_eq!(
            batch.schedule.start(id).map(|s| s.get().to_bits()),
            Some(at.get().to_bits()),
            "{label}: start of {id}"
        );
    }
    let bits = batch.span.get().to_bits();
    assert_eq!(
        session.span().get().to_bits(),
        bits,
        "{label}: span {} vs batch {}",
        session.span(),
        batch.span
    );
    assert_eq!(
        decisions.last().map(|d| d.span.get().to_bits()),
        Some(bits),
        "{label}: last decision's span"
    );
    assert_eq!(
        matching_counters(session.stats()),
        matching_counters(&batch.stats),
        "{label}: counters"
    );
}

#[test]
fn registry_sessions_match_batch_on_family_grid() {
    let mut cases = 0usize;
    for kind in SchedulerKind::registered_set() {
        for &mu in &[1u64, 2, 4] {
            for &slack in &[
                SlackRegime::Rigid,
                SlackRegime::Tight,
                SlackRegime::Proportional,
                SlackRegime::Generous,
            ] {
                for &load in &[LoadRegime::Burst, LoadRegime::Moderate, LoadRegime::Sparse] {
                    let fam = IntFamily {
                        n: 6,
                        mu,
                        slack,
                        load,
                    };
                    for rep in 0..2 {
                        let inst = fam.generate(case_seed(0x5e55, cases));
                        let label = format!("{} / {} rep {rep}", kind.label(), fam.label());
                        assert_session_matches_batch(kind, &inst, &label);
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(cases >= 700, "grid covers the registry ({cases} runs)");
}

/// Chains of rigid jobs at two-decimal times: each job arrives when the
/// previous one completes (its `f64` completion, bit for bit), with an
/// occasional gap, so the busy intervals touch at sums like
/// `4.15 + 0.89` that no binary fraction represents exactly.
#[test]
fn registry_sessions_match_batch_on_touching_decimal_chains() {
    let cents = |x: f64| (x * 100.0).round() / 100.0;
    let mut cases = 0usize;
    forall_seeded(0x70c4, 48, |rng| {
        let n = 2 + rng.u64_below(10) as usize;
        let mut at = cents(rng.f64_range(0.0, 10.0));
        let mut jobs = Vec::with_capacity(n);
        for _ in 0..n {
            let p = cents(rng.f64_range(0.01, 9.0)).max(0.01);
            jobs.push(Job::new(t(at), t(at), dur(p)));
            at += p;
            if rng.bool_with(0.2) {
                at = cents(at + rng.f64_range(0.01, 3.0));
            }
        }
        let inst = Instance::new(jobs);
        for kind in SchedulerKind::registered_set() {
            let label = format!("{} / decimal chain {cases}", kind.label());
            assert_session_matches_batch(kind, &inst, &label);
        }
        cases += 1;
    });
}

/// The pinned pair: a span that retired `[4.15, 5.04)` before the touching
/// start summed to `9.05`; the batch union sums to `9.049999999999999`.
#[test]
fn touching_rigid_pair_spans_the_batch_bits() {
    let inst = Instance::new(vec![
        Job::new(t(4.15), t(4.15), dur(0.89)),
        Job::new(t(5.04), t(5.04), dur(8.16)),
    ]);
    for kind in SchedulerKind::registered_set() {
        assert_session_matches_batch(kind, &inst, &format!("{} / pinned pair", kind.label()));
    }
    let batch = run_static(
        &inst,
        SchedulerKind::Eager.information_model(),
        SchedulerKind::Eager.build(),
    );
    assert_eq!(batch.span.to_string(), "9.049999999999999");
}
