//! # fjs-core
//!
//! Core model for the **Flexible Job Scheduling** (FJS) problem of
//! Ren & Tang, *Online Flexible Job Scheduling for Minimum Span*, SPAA 2017.
//!
//! A job `J` has an arrival `a(J)`, a starting deadline `d(J)` and a
//! processing length `p(J)`; a scheduler picks a start in `[a(J), d(J)]`,
//! after which the job runs non-preemptively for `p(J)`. The objective is to
//! minimize the **span**: the measure of the union of all active intervals
//! `[s(J), s(J)+p(J))`.
//!
//! This crate provides:
//!
//! * exact time/interval algebra ([`time`], [`interval`]);
//! * jobs, instances and schedules with independent feasibility validation
//!   ([`job`], [`schedule`]);
//! * a deterministic event-driven simulation engine for online schedulers,
//!   expressive enough for the paper's *adaptive adversaries* — job sources
//!   that react to the scheduler and length oracles that defer their
//!   decisions ([`sim`]);
//! * a supervision layer for long-running sweeps — watchdog event budgets
//!   with panic isolation, deterministic retry with exponential backoff,
//!   and a crash-safe checkpoint journal ([`supervise`]);
//! * a resident-service layer for `fjs serve` — isolated long-lived
//!   scheduling sessions with O(pending) memory, incremental span
//!   accounting and crash-safe checkpointing ([`service`]);
//! * the one JSON codec every journal and machine-readable record goes
//!   through ([`json`]).
//!
//! Schedulers themselves live in the `fjs-schedulers` crate; adversarial
//! constructions in `fjs-adversary`; optimal baselines in `fjs-opt`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Shipped code degrades through typed errors, never through unwrap/expect;
// tests are free to assert with them.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod faults;
pub mod interval;
pub mod job;
pub mod json;
pub mod metrics;
pub mod schedule;
pub mod service;
pub mod sim;
pub mod supervise;
pub mod time;

/// Convenience re-exports of the types used by virtually every consumer.
pub mod prelude {
    pub use crate::interval::{Interval, IntervalSet};
    pub use crate::job::{Instance, InstanceError, Job, JobError, JobId};
    pub use crate::metrics::{
        concurrency_at, concurrency_profile, schedule_metrics, ScheduleMetrics,
    };
    pub use crate::schedule::{Schedule, ScheduleError};
    pub use crate::sim::{
        geometric_class, run, run_static, ActionFault, Arrival, Clairvoyance, Ctx, EnvFault,
        Environment, JobSpec, LengthRuling, LengthSpec, OnlineScheduler, RejectedAction,
        SimOutcome, StaticEnv, Termination, World,
    };
    pub use crate::time::{dur, t, Dur, Time};
}
