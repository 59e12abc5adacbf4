//! # fjs-testkit
//!
//! Conformance testkit for the FJS workspace: the paper's theorems and the
//! engine's contracts, wired into a systematic falsification loop.
//!
//! * [`target`] — what gets tested: registered schedulers, or schedulers
//!   deliberately wrapped in `ChaosScheduler` to self-test the harness;
//! * [`oracles`] — the per-scheduler **guarantee table**: structural
//!   invariants (clean runs, window-respecting starts, span = interval
//!   union measure), competitive-ratio contracts against the exact DP
//!   optimum, and metamorphic invariances (translation, scaling,
//!   permutation, masked lengths);
//! * [`mod@shrink`] — a delta-debugging shrinker minimizing violating
//!   instances while preserving the failing oracle;
//! * [`corpus`] — counterexamples persisted as annotated CSV traces under
//!   `tests/corpus/` and replayed by unit tests;
//! * [`conform`] — the seeded conformance loop (`fjs conform`), fanning
//!   deck cases out through the deterministic `fjs_analysis::sharded_map`
//!   executor and sharing exact optima via the `fjs_opt::cache` memo.
//!
//! The deck cases come from [`fjs_workloads::families`]: integer instance
//! families parameterized by `μ`, deadline slack and load, plus a
//! uniform-lengths family, so exact optima and metamorphic comparisons are
//! exact by construction.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod conform;
pub mod corpus;
pub mod oracles;
pub mod shrink;
pub mod target;

pub use conform::{
    all_targets, run_conformance, run_conformance_with, uniform_targets, ConformConfig,
    ConformHooks, ConformReport, DeckKind, Failure,
};
pub use corpus::{
    entry_filename, load_dir, parse_entry, render_entry, replay, save_entry, CorpusEntry,
    CorpusError, Expectation,
};
pub use oracles::{
    applicable, check_all, exact_opt, row, still_fails, OracleKind, OracleViolation,
};
pub use shrink::{shrink, ShrinkStats, DEFAULT_SHRINK_BUDGET};
pub use target::{set_watchdog_events, watchdog_events, Target};
