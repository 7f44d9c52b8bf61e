//! The repository benchmark: four seeded workloads (`train`,
//! `serve_scan`, `serve_ann`, `serve_churn`) driven through the public
//! API of the SARN crates, with an untraced mode that measures the
//! end-to-end metrics and a traced mode that replays the same calls
//! layer by layer. See `README.md` next to this crate for the metric
//! map and how to run it.

pub mod data;
pub mod host;
pub mod loadgen;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod train;
