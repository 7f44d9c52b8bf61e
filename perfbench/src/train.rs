//! The `train` workload: `sarn_core::train` on the synthetic Chengdu
//! network at scale 1.0, then a publish of the trained artifact.
//!
//! Untraced, `train()` is a black box: epoch times come from the
//! checkpoint it writes after every epoch (`CheckpointMeta` records the
//! cumulative training seconds). Traced, the run replays the same
//! training through the public API with the same RNG stream, timing
//! each layer call, and checks that every epoch's loss equals
//! `train()`'s bit for bit.

use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use sarn_core::checkpoint::{self, Checkpoint};
use sarn_core::{Augmenter, CellQueues, SarnConfig, SarnModel, SarnTrained, SpatialSimilarity};
use sarn_roadnet::RoadNetwork;
use sarn_serve::{RouterConfig, ServeConfig, ShardedStore};
use sarn_tensor::layers::EdgeIndex;
use sarn_tensor::optim::{Adam, CosineAnnealing};
use sarn_tensor::{Graph, Tensor, TensorExpectation};

use crate::host::process_user_cpu_s;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Spans;

/// Network scale (`SARN_NET_SCALE`): 2,190 segments at the default seed.
pub const SCALE: f64 = 1.0;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 31;
/// Publish repetitions whose median is `republish_s`.
const PUBLISH_REPS: usize = 201;
/// Every this many of those also refreshes the artifact first, so the
/// refreshes spread over the publish loop; the median refresh sets the
/// `refresh_s` and `embed_per_s` figures.
const REFRESH_EVERY: usize = 5;
/// Refreshes timed.
const REFRESH_REPS: usize = PUBLISH_REPS.div_ceil(REFRESH_EVERY);

/// Epochs a run trains for: one warm-up epoch plus one per started
/// five seconds of the run. A fixed function of `--seconds`, never of
/// measured speed, so both sides of a comparison do the same work.
pub fn epochs_for(seconds: u64) -> usize {
    1 + seconds.div_ceil(5).max(2) as usize
}

/// The workload's training configuration: the experiment harness's
/// `SarnConfig::small()` (3 GAT layers, 4 heads, d = 64, K = 1000) with
/// the negative-sampling grid matched to the network's extent, Fast
/// reduction order on `threads` threads, no early stop, and a
/// checkpoint every epoch into `ckpt_dir`.
pub fn config(
    net: &RoadNetwork,
    seed: u64,
    epochs: usize,
    threads: usize,
    ckpt_dir: &Path,
) -> SarnConfig {
    let mut cfg = SarnConfig::small()
        .with_seed(seed)
        .with_num_threads(threads)
        .with_reduction_order(sarn_par::ReductionOrder::Fast)
        .with_checkpointing(ckpt_dir, 1);
    cfg.max_epochs = epochs;
    cfg.patience = u32::MAX;
    cfg.checkpoint_keep = epochs;
    let extent = net.bbox().width_m().max(net.bbox().height_m());
    cfg.clen_m = (0.105 * extent).max(50.0);
    cfg
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, traced: bool, threads: usize, tmp: &Path) -> Outcome {
    let mut out = Outcome::default();
    let net = crate::data::network(SCALE, seed);
    let n = net.num_segments();
    let epochs = epochs_for(seconds);
    let ckpt_dir = tmp.join("ckpt");
    let cfg = config(&net, seed, epochs, threads, &ckpt_dir);
    sarn_par::set_num_threads(cfg.num_threads);
    sarn_par::set_reduction_order(cfg.reduction_order);

    // Set-up: the public constructors `train()` runs before epoch 0.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut setup_cpu = Vec::with_capacity(SETUP_REPS);
    let mut similarity_ms = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let c0 = process_user_cpu_s();
        let t0 = Instant::now();
        let sim = SpatialSimilarity::build(&net, &cfg.similarity);
        similarity_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let aug = Augmenter::new(
            n,
            net.topo_edges().to_vec(),
            sim.edges().to_vec(),
            cfg.augment,
        );
        let full = aug.full_view().edge_index();
        let model = SarnModel::new(&net, &cfg);
        let queues = CellQueues::with_readout(&net, cfg.clen_m, cfg.total_k, cfg.d_z, cfg.readout);
        setup.push(t0.elapsed().as_secs_f64());
        setup_cpu.push(process_user_cpu_s() - c0);
        std::hint::black_box((full, model, queues));
    }

    let c0 = process_user_cpu_s();
    let t0 = Instant::now();
    let mut trained = match sarn_core::try_train(&net, &cfg) {
        Ok(t) => t,
        Err(e) => {
            out.attempted = epochs as u64;
            out.failed = epochs as u64;
            out.check(format!("train() failed: {e}"), false);
            return out;
        }
    };
    let train_wall = t0.elapsed().as_secs_f64();
    // User CPU per training step: train()'s CPU time less its set-up (the
    // same constructors, timed above), over the batches run. Per step,
    // not per epoch, because the batch count jumps with the seeded
    // network's size (17 or 18 batches of 128 at scale 1.0).
    let steps = epochs * n.div_ceil(cfg.batch_size);
    let step_cpu_s = (process_user_cpu_s() - c0 - median(&mut setup_cpu)) / steps as f64;
    out.attempted = epochs as u64;

    // Cumulative training seconds at each epoch's checkpoint; epoch `i`
    // (i >= 1) took ts[i] - ts[i-1], its predecessor's checkpoint write
    // included. Epoch 0 also holds train()'s own set-up, so it is left
    // out of the epoch statistics.
    let ckpts = checkpoint::list_checkpoints(&ckpt_dir, Some(cfg.fingerprint()));
    let stamps: Vec<f64> = ckpts
        .iter()
        .filter_map(|(_, p)| Checkpoint::probe_header(p).ok().map(|m| m.train_seconds))
        .collect();
    let mut epoch_s: Vec<f64> = stamps.windows(2).map(|w| w[1] - w[0]).collect();
    out.check(
        format!("one checkpoint per epoch ({} of {epochs})", stamps.len()),
        stamps.len() == epochs,
    );
    out.check(
        format!("{} epochs run of {epochs}", trained.epochs_run),
        trained.epochs_run == epochs && trained.loss_history.len() == epochs,
    );
    out.check(
        "loss history finite",
        trained.loss_history.iter().all(|l| l.is_finite()),
    );
    out.check("trained embeddings finite", trained.embeddings.all_finite());
    let final_loss = trained.loss_history.last().copied().unwrap_or(f32::NAN);

    // Publish the trained model's artifact the way pipeline stage 5 does.
    let (publish, refresh) = publish_trained(&net, &mut trained, tmp, &mut out);

    let p50 = median(&mut epoch_s);
    out.e2e("setup_s", median(&mut setup), SETUP_REPS);
    out.e2e("cpu_ms_per_op", step_cpu_s * 1e3, steps);
    out.e2e("republish_s", publish, PUBLISH_REPS);
    out.figure("segments", n as f64, "count", 1);
    out.figure("epoch_s", p50, "s", epoch_s.len());
    out.figure("embed_per_s", n as f64 / refresh, "1/s", REFRESH_REPS);
    out.figure("final_loss", f64::from(final_loss), "nats", 1);
    out.figure("train_wall_s", train_wall, "s", 1);
    out.figure("refresh_s", refresh, "s", REFRESH_REPS);

    if traced {
        traced_replay(&net, &cfg, &trained.loss_history, &ckpts, tmp, &mut out);
        out.layer(
            "similarity.build_ms",
            median(&mut similarity_ms),
            SETUP_REPS,
        );
    }
    out
}

/// `PUBLISH_REPS` times: primes a sharded store with a different
/// generation, then publishes the trained model's artifact. Every
/// `REFRESH_EVERY`-th time it first remakes the artifact with
/// `SarnTrained::refresh_embeddings` (the full-graph forward), timed on
/// its own. The export is untimed, as on the serving workloads; the
/// publish time is `Tensor::load_validated` + `admit_changed` + the wait
/// until no shard has an index pending. Returns the median seconds of
/// the publish and of the refresh.
fn publish_trained(
    net: &RoadNetwork,
    trained: &mut SarnTrained,
    tmp: &Path,
    out: &mut Outcome,
) -> (f64, f64) {
    let path = tmp.join("trained.emb");
    let original = trained.embeddings.clone();
    let sharded = match ShardedStore::for_network(
        net,
        original.cols(),
        ServeConfig::default(),
        RouterConfig::default().num_shards,
    ) {
        Ok(s) => s,
        Err(e) => {
            out.check(format!("build sharded store: {e}"), false);
            return (f64::NAN, f64::NAN);
        }
    };
    let expect = TensorExpectation {
        rows: Some(original.rows()),
        cols: Some(original.cols()),
        finite: true,
    };
    let mut times = Vec::with_capacity(PUBLISH_REPS);
    let mut refresh = Vec::with_capacity(PUBLISH_REPS);
    for rep in 0..PUBLISH_REPS {
        out.attempted += 1;
        let primed = sharded.admit(&crate::data::perturbed(&original, 1e-3, rep as u64));
        if rep % REFRESH_EVERY == 0 {
            let t0 = Instant::now();
            trained.refresh_embeddings();
            refresh.push(t0.elapsed().as_secs_f64());
        }
        let exported = trained.embeddings.save(&path);
        let t0 = Instant::now();
        let published = exported
            .and_then(|()| Tensor::load_validated(&path, &expect))
            .map_err(|e| e.to_string())
            .and_then(|t| sharded.admit_changed(&t).map_err(|e| e.to_string()));
        match (primed, published) {
            (Ok(_), Ok(swapped)) if swapped.len() == sharded.num_shards() => {
                crate::serve::wait_no_index_pending(&sharded);
                times.push(t0.elapsed().as_secs_f64());
            }
            (p, r) => {
                out.failed += 1;
                out.check(format!("publish {rep}: prime {p:?}, publish {r:?}"), false);
            }
        }
    }
    out.check(
        "refreshed artifact equals train()'s embeddings bit for bit",
        trained
            .embeddings
            .data()
            .iter()
            .zip(original.data())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
    );
    (median(&mut times), median(&mut refresh))
}

/// In-place row L2 normalization, as `train()` applies it to the
/// momentum projections (same shared kernel, same operation order).
fn normalize_rows(t: &mut Tensor) {
    for i in 0..t.rows() {
        let row = t.row_slice_mut(i);
        let norm = sarn_tensor::kernels::squared_norm(row).sqrt().max(1e-12);
        for v in row.iter_mut() {
            *v /= norm;
        }
    }
}

/// In-neighbour lists of an edge index (`center <- neighbor`).
fn in_neighbours(edges: &EdgeIndex) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); edges.n];
    for (&c, &nb) in edges.center.iter().zip(edges.neighbor.iter()) {
        adj[c].push(nb);
    }
    adj
}

/// Node-layer rows a `layers`-layer encoder needs for `batch` (layer
/// `l` needs the nodes within `layers - l` hops of the batch) — the
/// useful part of the `layers * n` rows a full-graph pass evaluates.
fn receptive_rows(
    adj: &[Vec<usize>],
    batch: &[usize],
    layers: usize,
    stamp: &mut [u32],
    epoch: &mut u32,
) -> usize {
    *epoch += 1;
    let mark = *epoch;
    let mut frontier: Vec<usize> = Vec::new();
    for &b in batch {
        if stamp[b] != mark {
            stamp[b] = mark;
            frontier.push(b);
        }
    }
    let mut reached = frontier.len();
    let mut rows = reached;
    for _ in 1..layers {
        let mut next = Vec::new();
        for &t in &frontier {
            for &s in &adj[t] {
                if stamp[s] != mark {
                    stamp[s] = mark;
                    next.push(s);
                }
            }
        }
        reached += next.len();
        rows += reached;
        frontier = next;
    }
    rows
}

/// Replays `train()` through the public API (same RNG stream, same
/// calls, same order) with a span around every layer call, checks the
/// per-epoch losses against `train()`'s, and times checkpoint I/O.
fn traced_replay(
    net: &RoadNetwork,
    cfg: &SarnConfig,
    expected: &[f32],
    ckpts: &[(usize, std::path::PathBuf)],
    tmp: &Path,
    out: &mut Outcome,
) {
    let mut spans = Spans::default();
    let mut analysis = Duration::ZERO;
    let (mut useful_rows, mut evaluated_rows) = (0usize, 0usize);
    let t_wall = Instant::now();

    sarn_par::set_num_threads(cfg.num_threads);
    sarn_par::set_reduction_order(cfg.reduction_order);
    let n = net.num_segments();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5A4E);
    let (augmenter, mut model, mut queues) = spans.time("setup.constructors", || {
        let sim = SpatialSimilarity::build(net, &cfg.similarity);
        let aug = Augmenter::new(
            n,
            net.topo_edges().to_vec(),
            sim.edges().to_vec(),
            cfg.augment,
        );
        let model = SarnModel::new(net, cfg);
        let queues = CellQueues::with_readout(net, cfg.clen_m, cfg.total_k, cfg.d_z, cfg.readout);
        (aug, model, queues)
    });
    let mut opt = Adam::new(cfg.lr).with_clip_norm(cfg.clip_norm);
    let schedule = CosineAnnealing::new(cfg.lr, cfg.lr * 0.01, cfg.schedule_horizon() as u64);
    let mut order: Vec<usize> = (0..n).collect();
    let mut losses = Vec::with_capacity(cfg.max_epochs);
    let mut stamp = vec![0u32; n];
    let mut stamp_epoch = 0u32;

    for epoch in 0..cfg.max_epochs {
        opt.set_lr(schedule.lr_at(epoch as u64) * 1.0);
        let (seed1, seed2) = (rng.next_u64(), rng.next_u64());
        let (view1, view2) = spans.time("augment.views", || {
            sarn_par::join(
                || augmenter.corrupt_with_seed(seed1),
                || augmenter.corrupt_with_seed(seed2),
            )
        });
        let (view1, view2) = spans.time("augment.edge_index", || {
            (view1.edge_index(), view2.edge_index())
        });
        order.shuffle(&mut rng);
        let t_an = Instant::now();
        let adj = [in_neighbours(&view1), in_neighbours(&view2)];
        analysis += t_an.elapsed();

        let (mut epoch_loss, mut batches) = (0.0f32, 0usize);
        for batch in order.chunks(cfg.batch_size) {
            let t_an = Instant::now();
            for a in &adj {
                useful_rows += receptive_rows(a, batch, cfg.n_layers, &mut stamp, &mut stamp_epoch);
                evaluated_rows += cfg.n_layers * n;
            }
            analysis += t_an.elapsed();

            let z_prime_full = spans.time("model.momentum_forward", || {
                let mut z = model.embed_projected_detached(&model.store_momentum, &view2);
                normalize_rows(&mut z);
                z
            });
            let z_prime: Vec<&[f32]> = batch.iter().map(|&i| z_prime_full.row_slice(i)).collect();
            spans.time("model.zero_grads", || model.store.zero_grads());
            let g = Graph::new();
            let h = spans.time("model.encode", || model.encode(&g, &model.store, &view1));
            let z = spans.time("model.project", || {
                let h_batch = g.gather_rows(h, batch);
                let z = model.project(&g, &model.store, h_batch);
                g.l2_normalize_rows(z)
            });
            let (local, global) = spans.time("queues.candidates", || {
                let local: Vec<Tensor> = batch
                    .iter()
                    .zip(&z_prime)
                    .map(|(&i, zp)| queues.local_candidates(i, zp))
                    .collect();
                let readouts = queues.all_readouts();
                let global: Vec<Tensor> = batch
                    .iter()
                    .zip(&z_prime)
                    .map(|(&i, zp)| queues.global_candidates_from(&readouts, i, zp))
                    .collect();
                (local, global)
            });
            let (loss, loss_value) = spans.time("autograd.loss", || {
                let l_local = g.info_nce(z, local, cfg.tau);
                let l_global = g.info_nce(z, global, cfg.tau);
                let loss = g.add(
                    g.scale(l_local, cfg.lambda),
                    g.scale(l_global, 1.0 - cfg.lambda),
                );
                (loss, g.value(loss).item())
            });
            spans.time("autograd.backward", || {
                g.backward(loss);
                g.accumulate_grads(&mut model.store);
            });
            spans.time("optim.adam", || opt.step(&mut model.store));
            spans.time("model.momentum_update", || {
                model.momentum_update(cfg.momentum)
            });
            spans.time("queues.push", || {
                for (&i, zp) in batch.iter().zip(&z_prime) {
                    queues.push(i, zp);
                }
            });
            epoch_loss += loss_value;
            batches += 1;
        }
        losses.push(epoch_loss / batches.max(1) as f32);
    }
    let wall = t_wall.elapsed().saturating_sub(analysis);

    let same = losses.len() == expected.len()
        && losses
            .iter()
            .zip(expected)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    out.check(
        format!("replayed epoch losses equal train() bit for bit ({losses:?} vs {expected:?})"),
        same,
    );

    let batches = spans.count("optim.adam").max(1) as f64;
    let epochs = spans.count("augment.views").max(1) as f64;
    let per_batch = |name: &str| spans.total(name).as_secs_f64() * 1e3 / batches;
    let b = batches as usize;
    out.layer(
        "augment.views_ms",
        spans.total("augment.views").as_secs_f64() * 1e3 / epochs,
        epochs as usize,
    );
    for (metric, span) in [
        ("model.momentum_forward_ms", "model.momentum_forward"),
        ("model.encode_ms", "model.encode"),
        ("model.project_ms", "model.project"),
        ("queues.candidates_ms", "queues.candidates"),
        ("queues.push_ms", "queues.push"),
        ("autograd.loss_ms", "autograd.loss"),
        ("autograd.backward_ms", "autograd.backward"),
        ("optim.adam_ms", "optim.adam"),
        ("model.momentum_update_ms", "model.momentum_update"),
    ] {
        out.layer(metric, per_batch(span), b);
    }
    out.layer(
        "encoder.useful_node_share",
        useful_rows as f64 / evaluated_rows.max(1) as f64,
        2 * b,
    );
    out.layer(
        "replay.coverage",
        spans.sum().as_secs_f64() / wall.as_secs_f64(),
        1,
    );

    // Checkpoint I/O on the newest checkpoint train() wrote.
    if let Some((_, newest)) = ckpts.last() {
        let mut load_ms = Vec::new();
        let mut save_ms = Vec::new();
        let copy = tmp.join("replay.sarnckpt");
        for _ in 0..3 {
            let t0 = Instant::now();
            let loaded = Checkpoint::load(newest);
            load_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let Ok(ckpt) = loaded else {
                out.check("reload train()'s newest checkpoint", false);
                return;
            };
            let t0 = Instant::now();
            let saved = ckpt.save(&copy);
            save_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.check("save a checkpoint copy", saved.is_ok());
        }
        let bytes = std::fs::metadata(newest).map_or(0, |m| m.len());
        out.layer("checkpoint.load_ms", median(&mut load_ms), 3);
        out.layer("checkpoint.save_ms", median(&mut save_ms), 3);
        out.layer("checkpoint.bytes", bytes as f64, 1);
    }
    for line in spans.lines() {
        eprintln!("[perfbench] {line}");
    }
}
