//! Kernel and spatial-join benchmark (ROADMAP items 6 and 7).
//!
//! Measures what the execution-strategy knobs actually buy, at the
//! current `SARN_*` scale:
//!
//! 1. **`A^s` build time** — the spatial self-join per `SARN_SPATIAL_JOIN`
//!    mode (`grid` bucketed vs `reference` all-pairs): segments, edges,
//!    wall-clock, and the process peak-RSS high-water mark after each
//!    build. The grid join runs first so its RSS bound is read before the
//!    `O(n^2)` oracle can raise the water mark.
//! 2. **Training epoch time** — one full `train` run per reduction mode;
//!    the table reports total wall-clock and seconds per epoch for
//!    `reference` (bit-exact scalar kernels) vs `fast` (blocked /
//!    lane-accumulator kernels).
//! 3. **Serve k-NN latency** — exact k-NN p50/p99 against the same
//!    published artifact, per mode; the cosine scorer dispatches on the
//!    knob at query time.
//!
//! `SARN_KERNEL_BENCH_LEGS` (comma list of `join`, `train`, `knn`;
//! default all) restricts the run — CI uses `join` alone for the
//! scale-2.0 crossover row, where a full training run would dominate the
//! gate's wall-clock.
//!
//! Emits machine-readable rows through the bench report machinery: run
//! with `SARN_REPORT_JSONL=BENCH_7.json` to produce the committed CI
//! artifact. The process-global knob is restored to `reference` on exit.
//!
//! Every epoch row carries the segment count and the host stamp (`nproc`,
//! `git describe --always --dirty`, build profile). When the report file
//! already holds epoch rows from other network sizes, the train leg also
//! emits a `kernel_epoch_fit` row per mode: the least-squares growth
//! exponent of seconds per epoch in segments, over every size recorded so
//! far, next to the exponent of the whole-graph trainer's epochs. Running
//! the train leg at `SARN_NET_SCALE` 1, 2 and 4 into one file yields the
//! scaling artifact:
//!
//! ```sh
//! for s in 1.0 2.0 4.0; do
//!   SARN_NET_SCALE=$s SARN_EPOCHS=2 SARN_KERNEL_BENCH_LEGS=train \
//!     SARN_REPORT_JSONL=BENCH_12.json cargo run --release -p sarn-bench --bin kernel_bench
//! done
//! ```

use std::time::Instant;

use sarn_bench::{leg_enabled, peak_rss_mb, percentile, ExperimentScale, Table};
use sarn_core::{train, ReductionOrder, SpatialJoin, SpatialSimilarity};
use sarn_roadnet::City;
use sarn_serve::{Deadline, EmbeddingStore, ServeConfig};

const KNN_REPS: usize = 200;
const KNN_K: usize = 10;
/// Which legs run: a comma list of leg names; unset or empty means all.
const LEGS_VAR: &str = "SARN_KERNEL_BENCH_LEGS";

fn time_knn(mut run: impl FnMut(usize)) -> (f64, f64) {
    let mut samples = Vec::with_capacity(KNN_REPS);
    for i in 0..KNN_REPS {
        let t0 = Instant::now();
        run(i);
        samples.push(t0.elapsed());
    }
    samples.sort();
    (
        percentile(&samples, 0.50).as_secs_f64() * 1e6,
        percentile(&samples, 0.99).as_secs_f64() * 1e6,
    )
}

/// Seconds per epoch of the whole-graph trainer (every batch encoded
/// over all nodes on both branches), single-thread Fast mode on a 2-core
/// host, by segment count: the baseline the fitted exponent is read
/// against.
const WHOLE_GRAPH_EPOCHS: [(f64, f64); 3] = [(800.0, 0.67), (3100.0, 8.7), (8900.0, 80.0)];

/// Least-squares slope of `ln y` on `ln x`.
fn growth_exponent(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let (mx, my) = (
        logs.iter().map(|p| p.0).sum::<f64>() / n,
        logs.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let sxy: f64 = logs.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = logs.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

/// `(segments, s_per_epoch)` of every `kernel_epoch` row of `mode` in the
/// JSONL report file, earlier runs' rows included.
fn recorded_epochs(path: &str, mode: &str) -> Vec<(f64, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let cell = |line: &str, key: &str| -> Option<String> {
        let tag = format!("\"{key}\":\"");
        let start = line.find(&tag)? + tag.len();
        Some(line[start..].split('"').next()?.to_string())
    };
    text.lines()
        .filter(|l| l.contains("\"table\":\"kernel_epoch\""))
        .filter(|l| cell(l, "mode").as_deref() == Some(mode))
        .filter_map(|l| {
            Some((
                cell(l, "segments")?.parse().ok()?,
                cell(l, "s_per_epoch")?.parse().ok()?,
            ))
        })
        .collect()
}

/// `nproc`, `git describe --always --dirty` (or `none`), and the build
/// profile, stamped on every epoch row.
fn host_stamp() -> [String; 3] {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    [nproc.to_string(), commit, profile.to_string()]
}

fn main() {
    let scale = ExperimentScale::from_env();
    let net = scale.network(City::Chengdu);
    let modes = [ReductionOrder::Reference, ReductionOrder::Fast];

    // Leg 0: the A^s spatial self-join, grid first so its peak-RSS row is
    // read before the all-pairs oracle can raise the high-water mark.
    if leg_enabled(LEGS_VAR, "join") {
        let mut join_table = Table::new(
            "spatial_join",
            &["mode", "segments", "edges", "build_ms", "peak_rss_mb"],
        );
        for join in [SpatialJoin::Grid, SpatialJoin::Reference] {
            let cfg = scale.sarn_config_for(&net, 1).with_spatial_join(join);
            eprintln!(
                "[kernel_bench] building A^s over {} segments, join={}",
                net.num_segments(),
                join.label()
            );
            let t0 = Instant::now();
            let sim = SpatialSimilarity::build(&net, &cfg.similarity);
            let build_ms = t0.elapsed().as_secs_f64() * 1e3;
            join_table.row(vec![
                join.label().to_string(),
                net.num_segments().to_string(),
                sim.num_edges().to_string(),
                format!("{build_ms:.2}"),
                peak_rss_mb(),
            ]);
        }
        join_table.print();
    }

    // Leg 1: full training run per mode.
    let mut artifact = None;
    if leg_enabled(LEGS_VAR, "train") {
        let mut epoch_table = Table::new(
            "kernel_epoch",
            &[
                "mode",
                "segments",
                "threads",
                "epochs",
                "total_s",
                "s_per_epoch",
                "nproc",
                "commit",
                "profile",
            ],
        );
        let [nproc, commit, profile] = host_stamp();
        for mode in modes {
            let mut cfg = scale.sarn_config_for(&net, 1).with_reduction_order(mode);
            cfg.patience = u32::MAX; // time every epoch, no early stop
            eprintln!(
                "[kernel_bench] training {} segments, {} epochs, mode={}",
                net.num_segments(),
                cfg.max_epochs,
                mode.label()
            );
            let t0 = Instant::now();
            let trained = train(&net, &cfg);
            let total = t0.elapsed().as_secs_f64();
            let epochs = trained.epochs_run.max(1);
            epoch_table.row(vec![
                mode.label().to_string(),
                net.num_segments().to_string(),
                cfg.num_threads.to_string(),
                epochs.to_string(),
                format!("{total:.3}"),
                format!("{:.4}", total / epochs as f64),
                nproc.clone(),
                commit.clone(),
                profile.clone(),
            ]);
            if mode == ReductionOrder::Reference {
                artifact = Some(trained.embeddings);
            }
        }
        epoch_table.print();
        if let Ok(path) = std::env::var("SARN_REPORT_JSONL") {
            let mut fit_table = Table::new(
                "kernel_epoch_fit",
                &[
                    "mode",
                    "sizes",
                    "segments",
                    "exponent",
                    "whole_graph_exponent",
                ],
            );
            let mut fitted = false;
            for mode in modes {
                let points = recorded_epochs(&path, mode.label());
                let mut sizes: Vec<u64> = points.iter().map(|p| p.0 as u64).collect();
                sizes.sort_unstable();
                sizes.dedup();
                if sizes.len() < 2 {
                    continue;
                }
                fit_table.row(vec![
                    mode.label().to_string(),
                    sizes.len().to_string(),
                    sizes
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join("/"),
                    format!("{:.2}", growth_exponent(&points)),
                    format!("{:.2}", growth_exponent(&WHOLE_GRAPH_EPOCHS)),
                ]);
                fitted = true;
            }
            if fitted {
                fit_table.print();
            }
        }
    }

    if !leg_enabled(LEGS_VAR, "knn") {
        return;
    }

    // Leg 2: serve k-NN latency per mode, against one published artifact
    // (trained here if the train leg was skipped).
    let embeddings =
        artifact.unwrap_or_else(|| train(&net, &scale.sarn_config_for(&net, 1)).embeddings);
    let dir = std::env::temp_dir().join(format!("sarn_kernel_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating the artifact directory");
    let path = dir.join("embeddings.emb");
    embeddings.save(&path).expect("saving the artifact");
    let serve_cfg = ServeConfig::from_env().expect("SARN_SERVE_* knobs");
    let store = EmbeddingStore::for_network(&net, embeddings.cols(), serve_cfg)
        .expect("building the store");
    store.reload(&path).expect("publishing the artifact");
    let n = net.num_segments();

    let mut knn_table = Table::new("kernel_knn", &["mode", "exact_p50_us", "exact_p99_us"]);
    for mode in modes {
        sarn_par::set_reduction_order(mode);
        let (exact_p50, exact_p99) = time_knn(|i| {
            store
                .knn(i % n, KNN_K, Deadline::unbounded())
                .expect("exact knn");
        });
        knn_table.row(vec![
            mode.label().to_string(),
            format!("{exact_p50:.1}"),
            format!("{exact_p99:.1}"),
        ]);
    }
    sarn_par::set_reduction_order(ReductionOrder::Reference);
    knn_table.print();

    let _ = std::fs::remove_dir_all(&dir);
}
