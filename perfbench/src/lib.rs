//! End-to-end and per-layer benchmark of DimBoost training and scoring.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run it.

pub mod output;
pub mod replay;
pub mod run;
pub mod spans;
pub mod workload;
