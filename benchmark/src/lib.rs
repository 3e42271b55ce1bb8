//! End-to-end and per-layer benchmark of the microbank simulator on the
//! configurations the paper's figures are made of. See `README.md` in this
//! directory for the workloads, the metrics and how to run it.

pub mod golden;
pub mod metrics;
pub mod runner;
pub mod traced;
