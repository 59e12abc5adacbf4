//! Jobs and problem instances.
//!
//! Following the paper's notation, a job `J` has an arrival time `a(J)`, a
//! *starting deadline* `d(J)` (the latest allowed start, not a completion
//! deadline) and a processing length `p(J)`. `d(J) − a(J)` is the *laxity*.

use crate::interval::Interval;
use crate::time::{Dur, Time};
use std::fmt;

/// Why a job's parameters are invalid (the error side of [`Job::try_new`]).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum JobError {
    /// A parameter is NaN or infinite.
    NonFinite {
        /// Which parameter (`"arrival"`, `"deadline"` or `"length"`).
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The starting deadline precedes the arrival.
    DeadlineBeforeArrival {
        /// Arrival time.
        arrival: f64,
        /// Starting deadline.
        deadline: f64,
    },
    /// The processing length is zero or negative.
    NonPositiveLength {
        /// The offending length.
        length: f64,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::NonFinite { what, value } => {
                write!(f, "{what} must be finite, got {value}")
            }
            JobError::DeadlineBeforeArrival { arrival, deadline } => {
                write!(f, "starting deadline {deadline} precedes arrival {arrival}")
            }
            JobError::NonPositiveLength { length } => {
                write!(f, "processing length must be positive, got {length}")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// A [`JobError`] located at a job index (the error side of
/// [`Instance::try_new`]).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct InstanceError {
    /// Index of the offending job in the input sequence.
    pub index: usize,
    /// What was wrong with it.
    pub error: JobError,
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {}: {}", self.index, self.error)
    }
}

impl std::error::Error for InstanceError {}

/// Dense job identifier: index into an [`Instance`] (or, during simulation,
/// release order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobId(pub u32);

impl JobId {
    /// The identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J{}", self.0)
    }
}

/// A fully specified job (length known to the *instance*, though not
/// necessarily to the scheduler).
///
/// ```
/// use fjs_core::job::Job;
/// use fjs_core::time::{t, dur};
///
/// let j = Job::adp(1.0, 4.0, 2.0); // arrives at 1, must start by 4, runs 2
/// assert_eq!(j.laxity(), dur(3.0));
/// assert_eq!(j.latest_completion(), t(6.0));
/// assert!(j.can_start_at(t(4.0)) && !j.can_start_at(t(4.5)));
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Job {
    arrival: Time,
    deadline: Time,
    length: Dur,
}

impl Job {
    /// Creates a job.
    ///
    /// # Panics
    /// Panics unless `arrival <= deadline` and `length > 0`.
    #[track_caller]
    pub fn new(arrival: Time, deadline: Time, length: Dur) -> Self {
        assert!(
            arrival <= deadline,
            "starting deadline {deadline} precedes arrival {arrival}"
        );
        assert!(
            length.is_positive(),
            "processing length must be positive, got {length}"
        );
        Job {
            arrival,
            deadline,
            length,
        }
    }

    /// Fallible constructor: like [`Job::new`] but returns a typed error
    /// instead of panicking, for jobs built from untrusted data (trace
    /// files, network input, fault injectors).
    pub fn try_new(arrival: Time, deadline: Time, length: Dur) -> Result<Self, JobError> {
        if deadline < arrival {
            return Err(JobError::DeadlineBeforeArrival {
                arrival: arrival.get(),
                deadline: deadline.get(),
            });
        }
        if !length.is_positive() {
            return Err(JobError::NonPositiveLength {
                length: length.get(),
            });
        }
        Ok(Job {
            arrival,
            deadline,
            length,
        })
    }

    /// Convenience constructor from raw `f64`s: `(a, d, p)`.
    #[track_caller]
    pub fn adp(arrival: f64, deadline: f64, length: f64) -> Self {
        Job::new(Time::new(arrival), Time::new(deadline), Dur::new(length))
    }

    /// Fallible twin of [`Job::adp`]: validates finiteness *before*
    /// constructing [`Time`]/[`Dur`] values, so NaN or infinite fields from
    /// untrusted sources surface as a [`JobError`] rather than a panic.
    pub fn try_adp(arrival: f64, deadline: f64, length: f64) -> Result<Self, JobError> {
        for (what, v) in [
            ("arrival", arrival),
            ("deadline", deadline),
            ("length", length),
        ] {
            if !v.is_finite() {
                return Err(JobError::NonFinite { what, value: v });
            }
        }
        Job::try_new(Time::new(arrival), Time::new(deadline), Dur::new(length))
    }

    /// A *rigid* job (zero laxity: must start at its arrival).
    #[track_caller]
    pub fn rigid(arrival: Time, length: Dur) -> Self {
        Job::new(arrival, arrival, length)
    }

    /// Arrival time `a(J)`.
    #[inline]
    pub fn arrival(&self) -> Time {
        self.arrival
    }

    /// Starting deadline `d(J)` (latest allowed start).
    #[inline]
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// Processing length `p(J)`.
    #[inline]
    pub fn length(&self) -> Dur {
        self.length
    }

    /// Laxity `d(J) − a(J)`.
    #[inline]
    pub fn laxity(&self) -> Dur {
        self.deadline - self.arrival
    }

    /// The window of feasible start times `[a(J), d(J)]`.
    #[inline]
    pub fn start_window(&self) -> (Time, Time) {
        (self.arrival, self.deadline)
    }

    /// Whether `s` is a feasible start time for this job.
    #[inline]
    pub fn can_start_at(&self, s: Time) -> bool {
        self.arrival <= s && s <= self.deadline
    }

    /// Latest possible completion time `d(J) + p(J)`.
    #[inline]
    pub fn latest_completion(&self) -> Time {
        self.deadline + self.length
    }

    /// The *mandatory part* of the job: the interval covered by every
    /// feasible placement, `[d(J), a(J)+p(J))` (empty when the laxity is at
    /// least `p(J)`).
    pub fn mandatory_part(&self) -> Option<Interval> {
        let lo = self.deadline;
        let hi = self.arrival + self.length;
        (lo < hi).then(|| Interval::new(lo, hi))
    }

    /// Active interval when started at `s`.
    #[track_caller]
    pub fn active_interval_at(&self, s: Time) -> Interval {
        Interval::active(s, self.length)
    }

    /// Whether the active intervals of `self` and `other` can never overlap
    /// under *any* scheduler: `other` arrives no earlier than the latest
    /// possible completion of `self`, or vice versa. This is the
    /// non-overlappability relation that powers every optimal-span lower
    /// bound in the paper.
    pub fn never_overlaps(&self, other: &Job) -> bool {
        other.arrival >= self.latest_completion() || self.arrival >= other.latest_completion()
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(a={}, d={}, p={})",
            self.arrival, self.deadline, self.length
        )
    }
}

/// A static problem instance: a finite set of jobs with known lengths.
///
/// Jobs need not be sorted; [`Instance::new`] keeps the given order so that
/// `JobId(i)` always refers to the `i`-th job, but iteration helpers provide
/// arrival order where needed.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct Instance {
    jobs: Vec<Job>,
}

impl Instance {
    /// Creates an instance from a list of jobs.
    pub fn new(jobs: Vec<Job>) -> Self {
        Instance { jobs }
    }

    /// The empty instance.
    pub fn empty() -> Self {
        Instance::default()
    }

    /// Fallible constructor from raw `(arrival, deadline, length)` triples,
    /// rejecting NaN/infinite fields, non-positive lengths and deadlines
    /// before arrivals with the index of the first offending job. This is
    /// the entry point for instances built from untrusted data.
    pub fn try_new<I>(triples: I) -> Result<Self, InstanceError>
    where
        I: IntoIterator<Item = (f64, f64, f64)>,
    {
        let mut jobs = Vec::new();
        for (index, (a, d, p)) in triples.into_iter().enumerate() {
            jobs.push(Job::try_adp(a, d, p).map_err(|error| InstanceError { index, error })?);
        }
        Ok(Instance { jobs })
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the instance has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The job with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    #[track_caller]
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.index()]
    }

    /// All jobs, in id order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// `(id, job)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &Job)> {
        self.jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (JobId(i as u32), j))
    }

    /// Appends a job and returns its id.
    pub fn push(&mut self, job: Job) -> JobId {
        let id = JobId(self.jobs.len() as u32);
        self.jobs.push(job);
        id
    }

    /// The max/min processing-length ratio `μ` of the instance.
    ///
    /// Returns `None` for an empty instance; `Some(1.0)` for uniform lengths.
    pub fn mu(&self) -> Option<f64> {
        let max = self.jobs.iter().map(|j| j.length()).max()?;
        let min = self.jobs.iter().map(|j| j.length()).min()?;
        // Lengths are strictly positive by construction, so the checked
        // ratio only falls back for degenerate float underflow.
        max.checked_ratio(min)
    }

    /// Total processing length `Σ p(J)`.
    pub fn total_work(&self) -> Dur {
        self.jobs.iter().map(|j| j.length()).sum()
    }

    /// Maximum processing length.
    pub fn max_length(&self) -> Option<Dur> {
        self.jobs.iter().map(|j| j.length()).max()
    }

    /// The common processing length of a **uniform** instance (all jobs the
    /// same length), or `None` for an empty or mixed-length instance. This
    /// is the regime of the uniform-jobs successor paper (Liu, Khuller &
    /// Tang), where `μ = 1` and every length-dependent bound of the seed
    /// paper degenerates.
    pub fn uniform_length(&self) -> Option<Dur> {
        let first = self.jobs.first()?.length();
        self.jobs
            .iter()
            .all(|j| j.length() == first)
            .then_some(first)
    }

    /// Whether every job has the same processing length (nonempty).
    pub fn is_uniform(&self) -> bool {
        self.uniform_length().is_some()
    }

    /// Maximum laxity `max_J d(J) − a(J)` over the instance.
    pub fn max_laxity(&self) -> Option<Dur> {
        self.jobs.iter().map(|j| j.laxity()).max()
    }

    /// The **normalized laxity** `λ = max_J laxity(J) / p` of a uniform
    /// instance: how many job lengths the most flexible job may be delayed.
    /// `None` when the instance is empty or mixed-length. Scale-invariant
    /// (both numerator and denominator scale together), which is what makes
    /// the uniform family's `1 + λ` guarantees survive the scaling
    /// metamorphic oracle.
    pub fn uniform_laxity_ratio(&self) -> Option<f64> {
        let p = self.uniform_length()?;
        self.max_laxity()?.checked_ratio(p)
    }

    /// Earliest arrival.
    pub fn first_arrival(&self) -> Option<Time> {
        self.jobs.iter().map(|j| j.arrival()).min()
    }

    /// Latest possible completion over all jobs (`max d(J)+p(J)`), i.e. an
    /// upper bound on the time horizon any feasible schedule can touch.
    pub fn horizon(&self) -> Option<Time> {
        self.jobs.iter().map(|j| j.latest_completion()).max()
    }
}

impl FromIterator<Job> for Instance {
    fn from_iter<I: IntoIterator<Item = Job>>(iter: I) -> Self {
        Instance::new(iter.into_iter().collect())
    }
}

impl std::ops::Index<JobId> for Instance {
    type Output = Job;
    fn index(&self, id: JobId) -> &Job {
        self.job(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{dur, t};

    #[test]
    fn job_accessors() {
        let j = Job::adp(1.0, 4.0, 2.0);
        assert_eq!(j.arrival(), t(1.0));
        assert_eq!(j.deadline(), t(4.0));
        assert_eq!(j.length(), dur(2.0));
        assert_eq!(j.laxity(), dur(3.0));
        assert_eq!(j.latest_completion(), t(6.0));
        assert!(j.can_start_at(t(1.0)));
        assert!(j.can_start_at(t(4.0)));
        assert!(!j.can_start_at(t(4.5)));
        assert!(!j.can_start_at(t(0.5)));
    }

    #[test]
    fn completion_deadline_conversion() {
        // Busy-time convention: finish by 10, length 3 → may start until 7.
        let j = Job::new(t(2.0), t(10.0) - dur(3.0), dur(3.0));
        assert_eq!(j.deadline(), t(7.0));
        assert_eq!(j.latest_completion(), t(10.0));
        // Tight window: must start immediately.
        let tight = Job::new(t(2.0), t(5.0) - dur(3.0), dur(3.0));
        assert_eq!(tight.laxity(), Dur::ZERO);
    }

    #[test]
    #[should_panic(expected = "precedes arrival")]
    fn completion_deadline_too_tight_rejected() {
        let _ = Job::new(t(2.0), t(4.0) - dur(3.0), dur(3.0));
    }

    #[test]
    fn rigid_job_has_zero_laxity() {
        let j = Job::rigid(t(2.0), dur(5.0));
        assert_eq!(j.laxity(), Dur::ZERO);
        assert_eq!(j.deadline(), t(2.0));
    }

    #[test]
    #[should_panic(expected = "precedes arrival")]
    fn deadline_before_arrival_rejected() {
        let _ = Job::adp(2.0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_length_rejected() {
        let _ = Job::adp(0.0, 1.0, 0.0);
    }

    #[test]
    fn try_constructors_reject_invalid_jobs() {
        assert!(Job::try_adp(1.0, 4.0, 2.0).is_ok());
        assert!(matches!(
            Job::try_adp(f64::NAN, 4.0, 2.0),
            Err(JobError::NonFinite {
                what: "arrival",
                ..
            })
        ));
        assert!(matches!(
            Job::try_adp(0.0, f64::INFINITY, 1.0),
            Err(JobError::NonFinite {
                what: "deadline",
                ..
            })
        ));
        assert_eq!(
            Job::try_adp(2.0, 1.0, 1.0),
            Err(JobError::DeadlineBeforeArrival {
                arrival: 2.0,
                deadline: 1.0
            })
        );
        assert_eq!(
            Job::try_adp(0.0, 1.0, 0.0),
            Err(JobError::NonPositiveLength { length: 0.0 })
        );
        assert_eq!(
            Job::try_new(t(0.0), t(1.0), dur(-3.0)),
            Err(JobError::NonPositiveLength { length: -3.0 })
        );
    }

    #[test]
    fn instance_try_new_locates_the_bad_job() {
        let ok = Instance::try_new([(0.0, 2.0, 1.0), (1.0, 5.0, 2.0)]).unwrap();
        assert_eq!(ok.len(), 2);
        let err = Instance::try_new([(0.0, 2.0, 1.0), (3.0, 1.0, 1.0)]).unwrap_err();
        assert_eq!(err.index, 1);
        assert!(matches!(err.error, JobError::DeadlineBeforeArrival { .. }));
        assert!(err.to_string().contains("job 1"));
    }

    #[test]
    fn mandatory_part() {
        // Laxity 1 < p = 3 → mandatory part [d, a+p) = [1, 3).
        let j = Job::adp(0.0, 1.0, 3.0);
        assert_eq!(j.mandatory_part(), Some(Interval::new(t(1.0), t(3.0))));
        // Laxity 5 >= p = 3 → no mandatory part.
        let j2 = Job::adp(0.0, 5.0, 3.0);
        assert_eq!(j2.mandatory_part(), None);
        // Laxity exactly p → empty mandatory part.
        let j3 = Job::adp(0.0, 3.0, 3.0);
        assert_eq!(j3.mandatory_part(), None);
    }

    #[test]
    fn never_overlaps_relation() {
        let early = Job::adp(0.0, 1.0, 2.0); // latest completion 3
        let late = Job::adp(3.0, 10.0, 1.0);
        assert!(early.never_overlaps(&late));
        assert!(late.never_overlaps(&early), "relation is symmetric");
        let mid = Job::adp(2.5, 10.0, 1.0);
        assert!(
            !early.never_overlaps(&mid),
            "arrives before latest completion"
        );
    }

    #[test]
    fn instance_stats() {
        let inst = Instance::new(vec![
            Job::adp(0.0, 0.0, 1.0),
            Job::adp(1.0, 5.0, 4.0),
            Job::adp(2.0, 3.0, 2.0),
        ]);
        assert_eq!(inst.len(), 3);
        assert_eq!(inst.mu(), Some(4.0));
        assert_eq!(inst.total_work(), dur(7.0));
        assert_eq!(inst.max_length(), Some(dur(4.0)));
        assert_eq!(inst.first_arrival(), Some(t(0.0)));
        assert_eq!(inst.horizon(), Some(t(9.0)));
        assert_eq!(inst[JobId(1)].length(), dur(4.0));
    }

    #[test]
    fn uniform_helpers() {
        let uniform = Instance::new(vec![
            Job::adp(0.0, 0.0, 2.0),
            Job::adp(1.0, 7.0, 2.0),
            Job::adp(3.0, 5.0, 2.0),
        ]);
        assert!(uniform.is_uniform());
        assert_eq!(uniform.uniform_length(), Some(dur(2.0)));
        assert_eq!(uniform.max_laxity(), Some(dur(6.0)));
        // λ = 6 / 2.
        assert_eq!(uniform.uniform_laxity_ratio(), Some(3.0));

        let mixed = Instance::new(vec![Job::adp(0.0, 1.0, 1.0), Job::adp(0.0, 1.0, 2.0)]);
        assert!(!mixed.is_uniform());
        assert_eq!(mixed.uniform_length(), None);
        assert_eq!(mixed.uniform_laxity_ratio(), None);
        assert_eq!(mixed.max_laxity(), Some(dur(1.0)));

        assert_eq!(Instance::empty().uniform_length(), None);
        assert_eq!(Instance::empty().uniform_laxity_ratio(), None);
    }

    #[test]
    fn empty_instance_stats() {
        let inst = Instance::empty();
        assert!(inst.is_empty());
        assert_eq!(inst.mu(), None);
        assert_eq!(inst.horizon(), None);
        assert_eq!(inst.total_work(), Dur::ZERO);
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut inst = Instance::empty();
        assert_eq!(inst.push(Job::adp(0.0, 1.0, 1.0)), JobId(0));
        assert_eq!(inst.push(Job::adp(1.0, 2.0, 1.0)), JobId(1));
        assert_eq!(inst.len(), 2);
    }
}
