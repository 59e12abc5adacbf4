//! Schedule **audits**: independent, post-hoc verification that a finished
//! run obeys a scheduler's defining rules from the paper. An audit takes
//! only the materialized instance, the schedule and the designated flag
//! jobs — not the scheduler's internal state — so it can certify runs
//! produced by any implementation (or catch a broken one).
//!
//! Audits check the *start-time characterization* of each algorithm:
//!
//! * [`audit_batch`] — every start happens at some flag's deadline, flags
//!   start at their own deadlines, and no arrived job is left pending
//!   across a flag instant (Batch starts *all* pending jobs).
//! * [`audit_batch_plus`] — every job starts either at a flag's deadline
//!   or immediately at its own arrival inside a flag's active interval;
//!   consecutive flags are never-overlappable (the Theorem 3.5 invariant).
//! * [`audit_profit`] — every non-flag start is justified by one of the
//!   two profitability rules for some flag (Section 4.3).

use fjs_core::job::{Instance, JobId};
use fjs_core::schedule::Schedule;
use std::fmt;

/// Why an audit rejected a schedule.
#[derive(Clone, Debug, PartialEq)]
pub enum AuditError {
    /// A designated flag is not a job of the instance at all.
    UnknownFlag {
        /// The unknown id.
        flag: JobId,
    },
    /// A designated flag job does not start at its own deadline.
    FlagNotAtDeadline {
        /// The flag.
        flag: JobId,
    },
    /// A job's start is not explained by any of the algorithm's rules.
    UnjustifiedStart {
        /// The job.
        id: JobId,
        /// Human-readable explanation of what was expected.
        detail: String,
    },
    /// Batch left a pending job unstarted across a flag instant.
    PendingSkipped {
        /// The job that should have started.
        id: JobId,
        /// The flag whose instant it skipped.
        flag: JobId,
    },
    /// Two consecutive Batch+ flags could overlap under some scheduler
    /// (violates the Theorem 3.5 structure).
    OverlappableFlags {
        /// Earlier flag.
        first: JobId,
        /// Later flag.
        second: JobId,
    },
    /// The schedule is not even feasible for the instance.
    Infeasible(fjs_core::schedule::ScheduleError),
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::UnknownFlag { flag } => {
                write!(f, "flag {flag} is not a job of the instance")
            }
            AuditError::FlagNotAtDeadline { flag } => {
                write!(f, "flag {flag} does not start at its deadline")
            }
            AuditError::UnjustifiedStart { id, detail } => {
                write!(f, "start of {id} unjustified: {detail}")
            }
            AuditError::PendingSkipped { id, flag } => {
                write!(
                    f,
                    "{id} was pending at flag {flag}'s instant but not started"
                )
            }
            AuditError::OverlappableFlags { first, second } => {
                write!(f, "flags {first} and {second} could overlap")
            }
            AuditError::Infeasible(e) => write!(f, "infeasible schedule: {e}"),
        }
    }
}

impl std::error::Error for AuditError {}

fn check_basics(inst: &Instance, schedule: &Schedule, flags: &[JobId]) -> Result<(), AuditError> {
    schedule.validate(inst).map_err(AuditError::Infeasible)?;
    for &flag in flags {
        // Reject ids outside the instance before any indexed access, so
        // audits degrade to a typed error on corrupt flag lists instead of
        // panicking.
        if flag.index() >= inst.len() {
            return Err(AuditError::UnknownFlag { flag });
        }
        if schedule.start(flag) != Some(inst.job(flag).deadline()) {
            return Err(AuditError::FlagNotAtDeadline { flag });
        }
    }
    Ok(())
}

/// Audits a schedule against the **Batch** rules.
pub fn audit_batch(
    inst: &Instance,
    schedule: &Schedule,
    flags: &[JobId],
) -> Result<(), AuditError> {
    check_basics(inst, schedule, flags)?;
    let flag_times: Vec<_> = flags.iter().map(|&fl| inst.job(fl).deadline()).collect();
    for (id, job) in inst.iter() {
        let s = schedule.start(id).expect("validated complete");
        // Rule: every start coincides with some flag instant.
        if !flag_times.contains(&s) {
            return Err(AuditError::UnjustifiedStart {
                id,
                detail: format!("start {s} is not a flag instant"),
            });
        }
        // Rule: a job never stays pending across a flag instant.
        for (&fl, &ft) in flags.iter().zip(&flag_times) {
            if job.arrival() <= ft && s > ft {
                return Err(AuditError::PendingSkipped { id, flag: fl });
            }
        }
    }
    Ok(())
}

/// Audits a schedule against the **Batch+** rules.
pub fn audit_batch_plus(
    inst: &Instance,
    schedule: &Schedule,
    flags: &[JobId],
) -> Result<(), AuditError> {
    check_basics(inst, schedule, flags)?;
    // Consecutive flags never-overlappable (Theorem 3.5).
    for w in flags.windows(2) {
        let a = inst.job(w[0]);
        let b = inst.job(w[1]);
        if !a.never_overlaps(b) {
            return Err(AuditError::OverlappableFlags {
                first: w[0],
                second: w[1],
            });
        }
    }
    for (id, job) in inst.iter() {
        if flags.contains(&id) {
            continue;
        }
        let s = schedule.start(id).expect("validated complete");
        let justified = flags.iter().any(|&fl| {
            let fj = inst.job(fl);
            let f_start = fj.deadline();
            let f_end = fj.latest_completion();
            // Started with the batch at the flag instant…
            let rule_batch = s == f_start && job.arrival() <= f_start;
            // …or immediately at arrival during the flag's run.
            let rule_immediate = s == job.arrival() && s >= f_start && s < f_end;
            rule_batch || rule_immediate
        });
        if !justified {
            return Err(AuditError::UnjustifiedStart {
                id,
                detail: format!(
                    "start {s} is neither a flag instant for an already-arrived job \
                     nor an immediate start inside a flag's active interval"
                ),
            });
        }
    }
    Ok(())
}

/// Audits a schedule against the **Profit** rules with parameter `k`.
pub fn audit_profit(
    inst: &Instance,
    schedule: &Schedule,
    flags: &[JobId],
    k: f64,
) -> Result<(), AuditError> {
    assert!(k > 1.0, "Profit requires k > 1");
    check_basics(inst, schedule, flags)?;
    for (id, job) in inst.iter() {
        if flags.contains(&id) {
            continue;
        }
        let s = schedule.start(id).expect("validated complete");
        let p = job.length();
        let justified = flags.iter().any(|&fl| {
            let fj = inst.job(fl);
            let f_start = fj.deadline();
            let f_end = fj.latest_completion();
            // Rule 1: pending at the flag instant with p ≤ k·p(flag).
            let rule1 =
                s == f_start && job.arrival() <= f_start && p.get() <= k * fj.length().get() + 1e-9;
            // Rule 2: immediate start at arrival inside the flag's run with
            // p ≤ k·(end − a).
            let rule2 = s == job.arrival()
                && s >= f_start
                && s < f_end
                && p.get() <= k * (f_end - job.arrival()).get() + 1e-9;
            rule1 || rule2
        });
        if !justified {
            return Err(AuditError::UnjustifiedStart {
                id,
                detail: "no flag renders this start profitable".into(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flag_graph::FlagRecorder;
    use crate::{Batch, BatchPlus, Profit, OPTIMAL_K};
    use fjs_core::prelude::*;

    fn workload(seed: u64, n: usize) -> Instance {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || fjs_prng::splitmix64(&mut state);
        let jobs: Vec<Job> = (0..n)
            .map(|_| {
                let a = (next() % 200) as f64 / 10.0;
                let lax = (next() % 150) as f64 / 10.0;
                let p = 1.0 + (next() % 80) as f64 / 10.0;
                Job::adp(a, a + lax, p)
            })
            .collect();
        Instance::new(jobs)
    }

    #[test]
    fn real_batch_runs_pass_the_audit() {
        for seed in 0..15u64 {
            let inst = workload(seed, 60);
            let mut sched = Batch::new();
            let out = run_static(&inst, Clairvoyance::NonClairvoyant, &mut sched);
            audit_batch(&out.instance, &out.schedule, &sched.flag_jobs())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn real_batch_plus_runs_pass_the_audit() {
        for seed in 0..15u64 {
            let inst = workload(seed, 60);
            let mut sched = BatchPlus::new();
            let out = run_static(&inst, Clairvoyance::NonClairvoyant, &mut sched);
            audit_batch_plus(&out.instance, &out.schedule, &sched.flag_jobs())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn real_profit_runs_pass_the_audit() {
        for seed in 0..15u64 {
            let inst = workload(seed, 60);
            for k in [1.3, OPTIMAL_K, 2.5] {
                let mut sched = Profit::new(k);
                let out = run_static(&inst, Clairvoyance::Clairvoyant, &mut sched);
                audit_profit(&out.instance, &out.schedule, &sched.flag_jobs(), k)
                    .unwrap_or_else(|e| panic!("seed {seed}, k {k}: {e}"));
            }
        }
    }

    #[test]
    fn audits_reject_foreign_schedules() {
        // An Eager schedule should fail the Batch audit (starts at
        // arrivals, not flag instants) on any instance with laxity.
        let inst = Instance::new(vec![Job::adp(0.0, 5.0, 1.0), Job::adp(1.0, 7.0, 2.0)]);
        let eager = Schedule::from_starts(2, inst.iter().map(|(id, j)| (id, j.arrival())));
        // Pretend the first job was a flag.
        let err = audit_batch(&inst, &eager, &[JobId(0)]).unwrap_err();
        assert!(matches!(err, AuditError::FlagNotAtDeadline { .. }));

        // A lazy schedule fails the Profit audit: non-flag starts are not
        // justified by any flag.
        let lazy = Schedule::from_starts(2, inst.iter().map(|(id, j)| (id, j.deadline())));
        let err = audit_profit(&inst, &lazy, &[JobId(0)], 1.1).unwrap_err();
        assert!(matches!(err, AuditError::UnjustifiedStart { .. }), "{err}");
    }

    #[test]
    fn audit_detects_overlappable_flags() {
        // Hand-build a "Batch+ run" whose flags could overlap.
        let inst = Instance::new(vec![
            Job::adp(0.0, 1.0, 10.0), // flag 1: latest completion 11
            Job::adp(5.0, 6.0, 1.0),  // "flag 2" arrives inside flag 1's window
        ]);
        let sched = Schedule::from_starts(2, [(JobId(0), t(1.0)), (JobId(1), t(6.0))]);
        let err = audit_batch_plus(&inst, &sched, &[JobId(0), JobId(1)]).unwrap_err();
        assert!(matches!(err, AuditError::OverlappableFlags { .. }));
    }

    #[test]
    fn audit_rejects_infeasible_schedules() {
        let inst = Instance::new(vec![Job::adp(0.0, 1.0, 1.0)]);
        let bad = Schedule::from_starts(1, [(JobId(0), t(2.0))]); // after deadline
        let err = audit_batch(&inst, &bad, &[]).unwrap_err();
        assert!(matches!(err, AuditError::Infeasible(_)));
    }

    #[test]
    fn error_messages_name_the_job() {
        let e = AuditError::PendingSkipped {
            id: JobId(3),
            flag: JobId(1),
        };
        assert!(e.to_string().contains("J3"));
        assert!(e.to_string().contains("J1"));
    }
}
