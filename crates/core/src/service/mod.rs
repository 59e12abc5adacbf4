//! The resident-service layer behind `fjs serve`.
//!
//! Batch runs ([`crate::sim::run_static`]) materialize a whole trace, run
//! it, and report once. A *service* instead holds many concurrent
//! [`Session`]s — one scheduler instance each — that consume unbounded
//! arrival streams with O(pending) memory, emit decisions incrementally,
//! and fail independently:
//!
//! * [`session`] — one scheduler on a resident batch engine
//!   ([`crate::sim::engine`]), fed one offer at a time: the engine's own
//!   event order, action validation and
//!   [`RunningSpan`](crate::interval::RunningSpan), run in session mode
//!   (start/finish decisions, completed-record compaction, no per-job
//!   history), plus panic containment
//!   ([`Verdict`](crate::supervise::Verdict)) and a cumulative watchdog
//!   budget;
//! * [`checkpoint`] — the crash-safe [`ServeJournal`] that makes a killed
//!   daemon resumable to a byte-identical decision log;
//! * [`pool`] — the multi-core worker pool: sessions sharded across
//!   resident threads by stable *tenant* hash (so per-tenant state stays
//!   on one worker), replies tagged with global sequence numbers so the
//!   dispatcher can merge decision-log and journal lines
//!   deterministically at any worker count;
//! * [`governor`] — overload/abuse containment: tenant identity, per-
//!   tenant admission quotas, and the deterministic circuit-breaker
//!   state machine that refuses `open`s from tenants whose sessions keep
//!   failing.
//!
//! The protocol frontend (line parsing, admission control, sockets,
//! signals) lives in the `fjs` CLI; this module is deliberately free of
//! any I/O beyond the journal so it can be driven in-process by tests and
//! benches.

pub mod checkpoint;
pub mod governor;
pub mod pool;
pub mod session;

pub use checkpoint::{ServeEvent, ServeJournal, DEFAULT_SYNC_EVERY, SERVE_JOURNAL_VERSION};
pub use governor::{
    tenant_of, BreakerConfig, OpenDecision, TenantBreakers, TenantQuotas, TenantShedCause,
};
pub use pool::{
    fnv1a, stable_shard, PoolReply, PoolRequest, SessionFactory, SessionPool, SessionSnapshot,
    Waker, WorkerReport,
};
pub use session::{Decision, DecisionKind, JobOffer, Session, SessionError};
