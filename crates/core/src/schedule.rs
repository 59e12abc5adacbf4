//! Schedules: assignments of start times to jobs, span computation, and
//! independent feasibility validation.

use crate::interval::{Interval, IntervalSet};
use crate::job::{Instance, JobId};
use crate::time::{Dur, Time};
use std::fmt;

/// A (possibly partial) assignment of start times to the jobs of an
/// [`Instance`]. Produced by the simulation engine or constructed directly
/// (e.g. the paper's prescribed near-optimal schedules).
#[derive(Clone, Default, PartialEq, Debug)]
pub struct Schedule {
    starts: Vec<Option<Time>>,
}

impl Schedule {
    /// An empty schedule for `n` jobs.
    pub fn with_len(n: usize) -> Self {
        Schedule {
            starts: vec![None; n],
        }
    }

    /// Builds a schedule from explicit `(JobId, start)` pairs for an
    /// instance of `n` jobs.
    ///
    /// # Panics
    /// Panics on out-of-range ids or duplicate assignments.
    #[track_caller]
    pub fn from_starts(n: usize, pairs: impl IntoIterator<Item = (JobId, Time)>) -> Self {
        let mut s = Schedule::with_len(n);
        for (id, start) in pairs {
            s.set_start(id, start);
        }
        s
    }

    /// Number of job slots.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether there are no job slots.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Assigns a start time.
    ///
    /// # Panics
    /// Panics if the job already has a start time (starts are immutable:
    /// jobs run non-preemptively) or the id is out of range.
    #[track_caller]
    pub fn set_start(&mut self, id: JobId, start: Time) {
        let slot = &mut self.starts[id.index()];
        assert!(slot.is_none(), "job {id} started twice");
        *slot = Some(start);
    }

    /// The start time of a job, if assigned.
    pub fn start(&self, id: JobId) -> Option<Time> {
        self.starts[id.index()]
    }

    /// Whether every job has a start time.
    pub fn is_complete(&self) -> bool {
        self.starts.iter().all(|s| s.is_some())
    }

    /// Active interval of a job under this schedule (requires the instance
    /// for the length), if started.
    pub fn active_interval(&self, inst: &Instance, id: JobId) -> Option<Interval> {
        self.start(id).map(|s| inst.job(id).active_interval_at(s))
    }

    /// The union of all active intervals.
    pub fn busy_set(&self, inst: &Instance) -> IntervalSet {
        assert_eq!(
            self.starts.len(),
            inst.len(),
            "schedule/instance size mismatch"
        );
        inst.iter()
            .filter_map(|(id, job)| self.start(id).map(|s| job.active_interval_at(s)))
            .collect()
    }

    /// The span: total measure of the union of active intervals.
    pub fn span(&self, inst: &Instance) -> Dur {
        self.busy_set(inst).measure()
    }

    /// Validates the schedule against the instance. A *valid* schedule
    /// starts every job within its `[a(J), d(J)]` window.
    pub fn validate(&self, inst: &Instance) -> Result<(), ScheduleError> {
        if self.starts.len() != inst.len() {
            return Err(ScheduleError::SizeMismatch {
                schedule: self.starts.len(),
                instance: inst.len(),
            });
        }
        for (id, job) in inst.iter() {
            match self.start(id) {
                None => return Err(ScheduleError::Unstarted(id)),
                Some(s) if s < job.arrival() => {
                    return Err(ScheduleError::StartedBeforeArrival { id, start: s })
                }
                Some(s) if s > job.deadline() => {
                    return Err(ScheduleError::MissedDeadline { id, start: s })
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// Why a schedule is infeasible for an instance.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ScheduleError {
    /// Schedule and instance disagree on the number of jobs.
    SizeMismatch {
        /// Slots in the schedule.
        schedule: usize,
        /// Jobs in the instance.
        instance: usize,
    },
    /// A job was never started.
    Unstarted(JobId),
    /// A job was started before its arrival.
    StartedBeforeArrival {
        /// The offending job.
        id: JobId,
        /// Its assigned start.
        start: Time,
    },
    /// A job was started after its starting deadline.
    MissedDeadline {
        /// The offending job.
        id: JobId,
        /// Its assigned start.
        start: Time,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::SizeMismatch { schedule, instance } => {
                write!(
                    f,
                    "schedule has {schedule} slots but instance has {instance} jobs"
                )
            }
            ScheduleError::Unstarted(id) => write!(f, "job {id} was never started"),
            ScheduleError::StartedBeforeArrival { id, start } => {
                write!(f, "job {id} started at {start}, before its arrival")
            }
            ScheduleError::MissedDeadline { id, start } => {
                write!(
                    f,
                    "job {id} started at {start}, after its starting deadline"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::time::{dur, t};

    fn inst3() -> Instance {
        Instance::new(vec![
            Job::adp(0.0, 2.0, 1.0),
            Job::adp(0.0, 5.0, 2.0),
            Job::adp(4.0, 8.0, 1.0),
        ])
    }

    #[test]
    fn span_of_overlapping_schedule() {
        let inst = inst3();
        // Start J0 at 1, J1 at 1, J2 at 4: union = [1,3) ∪ [4,5) → span 3.
        let s = Schedule::from_starts(
            3,
            [(JobId(0), t(1.0)), (JobId(1), t(1.0)), (JobId(2), t(4.0))],
        );
        assert_eq!(s.span(&inst), dur(3.0));
        assert!(s.validate(&inst).is_ok());
        assert!(s.is_complete());
    }

    #[test]
    fn span_counts_gaps_correctly() {
        let inst = inst3();
        let s = Schedule::from_starts(
            3,
            [(JobId(0), t(0.0)), (JobId(1), t(2.0)), (JobId(2), t(8.0))],
        );
        // [0,1) ∪ [2,4) ∪ [8,9) → 4.
        assert_eq!(s.span(&inst), dur(4.0));
        assert_eq!(s.busy_set(&inst).num_segments(), 3);
    }

    #[test]
    fn partial_schedule_span_ignores_unstarted() {
        let inst = inst3();
        let mut s = Schedule::with_len(3);
        s.set_start(JobId(1), t(0.0));
        assert_eq!(s.span(&inst), dur(2.0));
        assert_eq!(s.start(JobId(1)), Some(t(0.0)));
        assert!(!s.is_complete());
        assert_eq!(s.validate(&inst), Err(ScheduleError::Unstarted(JobId(0))));
    }

    #[test]
    fn validation_catches_early_start() {
        let inst = inst3();
        let s = Schedule::from_starts(
            3,
            [(JobId(0), t(0.0)), (JobId(1), t(0.0)), (JobId(2), t(3.0))],
        );
        assert_eq!(
            s.validate(&inst),
            Err(ScheduleError::StartedBeforeArrival {
                id: JobId(2),
                start: t(3.0)
            })
        );
    }

    #[test]
    fn validation_catches_missed_deadline() {
        let inst = inst3();
        let s = Schedule::from_starts(
            3,
            [(JobId(0), t(2.5)), (JobId(1), t(0.0)), (JobId(2), t(4.0))],
        );
        assert_eq!(
            s.validate(&inst),
            Err(ScheduleError::MissedDeadline {
                id: JobId(0),
                start: t(2.5)
            })
        );
    }

    #[test]
    fn validation_catches_size_mismatch() {
        let inst = inst3();
        let s = Schedule::with_len(2);
        assert_eq!(
            s.validate(&inst),
            Err(ScheduleError::SizeMismatch {
                schedule: 2,
                instance: 3
            })
        );
    }

    #[test]
    #[should_panic(expected = "started twice")]
    fn double_start_panics() {
        let mut s = Schedule::with_len(1);
        s.set_start(JobId(0), t(0.0));
        s.set_start(JobId(0), t(1.0));
    }

    #[test]
    fn active_interval_lookup() {
        let inst = inst3();
        let s = Schedule::from_starts(3, [(JobId(1), t(3.0))]);
        assert_eq!(
            s.active_interval(&inst, JobId(1)),
            Some(Interval::new(t(3.0), t(5.0)))
        );
        assert_eq!(s.active_interval(&inst, JobId(0)), None);
    }

    #[test]
    fn error_display_messages() {
        let e = ScheduleError::MissedDeadline {
            id: JobId(3),
            start: t(9.0),
        };
        assert!(e.to_string().contains("J3"));
        assert!(e.to_string().contains("starting deadline"));
    }
}
