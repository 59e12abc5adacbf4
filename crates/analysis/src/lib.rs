//! # fjs-analysis
//!
//! The experiment harness: per-instance scheduler evaluation with OPT
//! bracketing ([`evaluate()`]), thread-parallel parameter sweeps
//! ([`sweep`]), summary statistics ([`stats`]), text/CSV table rendering
//! ([`table`]) and the machine-readable benchmark record schema
//! ([`benchjson`]). The `fjs-cli` crate composes these into the experiments
//! E1–E11 documented in DESIGN.md.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod benchjson;
pub mod evaluate;
pub mod fit;
pub mod gantt;
pub mod stats;
pub mod sweep;
pub mod table;
pub mod timing;

pub use benchjson::{diff_reports, BenchDiff, BenchReport, BenchSample, CaseDelta};
pub use evaluate::{evaluate, Evaluation};
pub use fit::{convergence_limit, fit_affine, AffineFit};
pub use gantt::{render_busy_strip, render_gantt, GanttOptions};
pub use stats::Summary;
pub use sweep::{grid2, parallel_map, sharded_map, ShardPlan};
pub use table::{f2, f3, Table};
pub use timing::time_case;
