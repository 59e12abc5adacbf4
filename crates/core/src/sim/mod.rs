//! Event-driven online scheduling simulation.
//!
//! See [`engine`] for the run loop and event-ordering contract, [`mod@env`] for
//! job sources (including adaptive adversaries), [`sched`] for the scheduler
//! interface, [`world`] for the observable state, and [`mod@stats`] for the
//! [`RunStats`] counters every run accumulates.

pub(crate) mod arena;
pub mod engine;
pub mod env;
pub mod sched;
pub mod stats;
pub mod trace;
pub mod world;

pub use engine::{
    run, run_static, run_with_config, ActionFault, EnvFault, RejectedAction, SimConfig, SimOutcome,
    Termination, Violation,
};
pub use env::{
    geometric_class, Clairvoyance, Environment, JobSpec, LengthRuling, LengthSpec, StaticEnv,
};
pub use sched::{Arrival, Ctx, OnlineScheduler};
pub use stats::RunStats;
pub use trace::{render_trace, TraceEvent, TraceKind, TraceMode};
pub use world::{JobRecord, JobStatus, World};
