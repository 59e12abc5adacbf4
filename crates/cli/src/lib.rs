//! # fjs-cli
//!
//! Experiment implementations (E1–E11) and the `fjs` binary that runs them.
//! Each experiment regenerates one figure/theorem of Ren & Tang (SPAA 2017)
//! as a table; `fjs all --full > EXPERIMENTS-raw.md` reproduces the data
//! behind EXPERIMENTS.md. The [`mod@bench`] module is the `fjs bench` timing
//! suite. The [`soak`] module is the engine behind
//! `fjs soak`: supervised long-running sweeps with a crash-safe checkpoint
//! journal and `SIGINT`-graceful shutdown.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bench;
pub mod experiments;
pub mod fuzz;
pub mod loadgen;
pub mod serve;
pub mod soak;

pub use experiments::{all, by_id, Experiment, Profile};
pub use loadgen::{drive, emit_script, DriveReport, DriveTarget, LatencyHistogram, LoadgenOptions};
pub use serve::{run_script, ScriptOutcome, ServeOptions, ServeSummary, Server};
pub use soak::{run_soak, SoakOptions, SoakSummary};
