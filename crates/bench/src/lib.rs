//! # sarn-bench
//!
//! Experiment harness regenerating every table and figure of the SARN
//! evaluation (paper §5). Each `table*`/`fig*` binary prints the same rows
//! or series the paper reports; absolute numbers differ (synthetic data,
//! CPU training at reduced scale) but the comparisons — who wins, by
//! roughly what factor, where crossovers fall — are the reproduction
//! target (see EXPERIMENTS.md).
//!
//! Scale is controlled by environment variables so the same binaries serve
//! quick smoke runs and larger reproductions:
//!
//! - `SARN_NET_SCALE` — lattice scale factor (default 0.45; 1.0 ≈ 2.2–4.9k
//!   segments per city);
//! - `SARN_SEEDS` — repeated runs per cell (default 2; paper uses 5);
//! - `SARN_EPOCHS` — self-supervised training epochs (default 15).
//!
//! Long runs can be made restartable with the checkpoint knobs (see
//! `sarn_core::checkpoint`): `SARN_CKPT_DIR` turns on periodic training
//! checkpoints into that directory, `SARN_CKPT_EVERY` sets the epoch period
//! (default 5), `SARN_CKPT_KEEP` the rolling retention (default 3), and
//! `SARN_RESUME=1` resumes each training run from its newest compatible
//! checkpoint — every city/seed/variant is fingerprinted separately, so one
//! directory serves an entire interrupted table sweep.

#![warn(missing_docs)]

pub mod harness;
pub mod methods;
pub mod report;
pub mod scale;

pub use harness::{ensure, fail, leg_enabled, peak_rss_mb, percentile};
pub use methods::{
    eval_road_property, eval_road_property_frozen, eval_spd, eval_spd_frozen, eval_traj_sim,
    eval_traj_sim_frozen, memory_budget, train_embeddings, EmbedOutcome, Method,
};
pub use report::{fmt_cell, Table};
pub use scale::ExperimentScale;
