//! Receptive-field training equivalence.
//!
//! `train()` encodes each batch over its layer-wise receptive field: layer
//! `l` of `L` evaluates only the nodes within `L - l` hops of the batch and
//! their in-edges, the feature lookup covers only the `L`-hop ball, and the
//! momentum branch projects only the batch rows. The pruned node and edge
//! lists are order-preserving subsequences of the full ones, so every sum
//! visits the same nonzero terms in the same order and drops only exact
//! zeros. This suite pins the consequence: one `train_step` equals a
//! whole-graph oracle written here (the pre-pruning step, through the
//! full-graph public API) bit for bit — the loss, every query-branch
//! gradient, and the post-Adam parameters of both stores, plus the queue
//! entries the step pushes — in both reduction orders, at 1 and 4 threads,
//! for 2- and 3-layer encoders.
//!
//! The reduction-order knob and the thread count are process globals, so
//! the tests serialize on a mutex and restore the defaults on drop.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sarn_core::{
    train_step, Augmenter, CellQueues, LossSimilarity, ReductionOrder, SarnConfig, SarnModel,
    SarnVariant, SpatialSimilarity,
};
use sarn_roadnet::{City, RoadNetwork, SynthConfig};
use sarn_tensor::layers::{EdgeIndex, InAdjacency};
use sarn_tensor::optim::Adam;
use sarn_tensor::{Graph, ParamStore, Tensor};

static KNOB: Mutex<()> = Mutex::new(());

struct ResetOnDrop;
impl Drop for ResetOnDrop {
    fn drop(&mut self) {
        sarn_par::set_reduction_order(ReductionOrder::Reference);
        sarn_par::set_num_threads(1);
    }
}

fn net() -> RoadNetwork {
    SynthConfig::city(City::Chengdu).scaled(0.45).generate()
}

/// The tiny test configuration with small batches, whose fields leave
/// out much of the graph.
fn config(variant: SarnVariant, n_layers: usize) -> SarnConfig {
    let mut cfg = SarnConfig::tiny().with_variant(variant);
    cfg.n_layers = n_layers;
    cfg.batch_size = 16;
    cfg
}

/// The full (uncorrupted) edge index and two corrupted training views.
fn views(net: &RoadNetwork, cfg: &SarnConfig, seed: u64) -> (EdgeIndex, EdgeIndex, EdgeIndex) {
    let spatial = if cfg.variant.uses_spatial_matrix() {
        SpatialSimilarity::build(net, &cfg.similarity)
            .edges()
            .to_vec()
    } else {
        Vec::new()
    };
    let aug = Augmenter::new(
        net.num_segments(),
        net.topo_edges().to_vec(),
        spatial,
        cfg.augment,
    );
    (
        aug.full_view().edge_index(),
        aug.corrupt_with_seed(seed).edge_index(),
        aug.corrupt_with_seed(seed ^ 0x9E37).edge_index(),
    )
}

/// One side of the comparison: a model, its optimizer and its queues.
struct Side {
    model: SarnModel,
    opt: Adam,
    queues: Option<CellQueues>,
}

impl Side {
    /// A fresh model; the queues are primed with seeded unit vectors, so
    /// the first step already has negatives and a nonzero gradient.
    fn new(net: &RoadNetwork, cfg: &SarnConfig) -> Self {
        let queues = cfg.variant.uses_grid_negatives().then(|| {
            let mut q =
                CellQueues::with_readout(net, cfg.clen_m, cfg.total_k, cfg.d_z, cfg.readout);
            let mut rng = StdRng::seed_from_u64(99);
            for seg in 0..net.num_segments() {
                let mut e = Tensor::from_vec(
                    1,
                    cfg.d_z,
                    (0..cfg.d_z).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                );
                normalize_rows(&mut e);
                q.push(seg, e.data());
            }
            q
        });
        Self {
            model: SarnModel::new(net, cfg),
            opt: Adam::new(cfg.lr).with_clip_norm(cfg.clip_norm),
            queues,
        }
    }
}

fn normalize_rows(t: &mut Tensor) {
    for i in 0..t.rows() {
        let row = t.row_slice_mut(i);
        let n = sarn_tensor::kernels::squared_norm(row).sqrt().max(1e-12);
        for v in row.iter_mut() {
            *v /= n;
        }
    }
}

/// The whole-graph oracle: both encoders over every node, the momentum
/// projection over every row, then the batch rows are kept.
fn oracle_step(
    side: &mut Side,
    cfg: &SarnConfig,
    view1: &EdgeIndex,
    view2: &EdgeIndex,
    batch: &[usize],
) -> f32 {
    let model = &mut side.model;
    let cosine = cfg.loss_similarity == LossSimilarity::Cosine;
    let mut z_prime_full = model.embed_projected_detached(&model.store_momentum, view2);
    if cosine {
        normalize_rows(&mut z_prime_full);
    }
    let z_prime: Vec<&[f32]> = batch.iter().map(|&i| z_prime_full.row_slice(i)).collect();

    model.store.zero_grads();
    let g = Graph::new();
    let h = model.encode(&g, &model.store, view1);
    let h_batch = g.gather_rows(h, batch);
    let z = model.project(&g, &model.store, h_batch);
    let z = if cosine { g.l2_normalize_rows(z) } else { z };
    let loss = match side.queues.as_ref() {
        Some(q) => {
            let local: Vec<Tensor> = batch
                .iter()
                .zip(&z_prime)
                .map(|(&i, zp)| q.local_candidates(i, zp))
                .collect();
            let readouts = q.all_readouts();
            let global: Vec<Tensor> = batch
                .iter()
                .zip(&z_prime)
                .map(|(&i, zp)| q.global_candidates_from(&readouts, i, zp))
                .collect();
            let l_local = g.info_nce(z, local, cfg.tau);
            let l_global = g.info_nce(z, global, cfg.tau);
            g.add(
                g.scale(l_local, cfg.lambda),
                g.scale(l_global, 1.0 - cfg.lambda),
            )
        }
        None => {
            let cands: Vec<Tensor> = (0..batch.len())
                .map(|a| {
                    let mut rows = Vec::with_capacity(batch.len() * cfg.d_z);
                    rows.extend_from_slice(z_prime[a]);
                    for (b, zp) in z_prime.iter().enumerate() {
                        if b != a {
                            rows.extend_from_slice(zp);
                        }
                    }
                    Tensor::from_vec(batch.len(), cfg.d_z, rows)
                })
                .collect();
            g.info_nce(z, cands, cfg.tau)
        }
    };
    let loss_value = g.value(loss).item();
    g.backward(loss);
    g.accumulate_grads(&mut model.store);
    side.opt.step(&mut model.store);
    model.momentum_update(cfg.momentum);
    if let Some(q) = side.queues.as_mut() {
        for (&i, zp) in batch.iter().zip(&z_prime) {
            q.push(i, zp);
        }
    }
    loss_value
}

fn assert_bits(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (k, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{k}]: pruned {x:e} vs oracle {y:e}"
        );
    }
}

fn assert_stores(pruned: &ParamStore, oracle: &ParamStore, grads: bool, tag: &str) {
    for id in oracle.ids() {
        let name = oracle.name(id);
        assert_bits(
            pruned.value(id),
            oracle.value(id),
            &format!("{tag} {name} value"),
        );
        if grads {
            assert_bits(
                pruned.grad(id),
                oracle.grad(id),
                &format!("{tag} {name} grad"),
            );
        }
    }
}

fn assert_sides(pruned: &Side, oracle: &Side, tag: &str) {
    assert_stores(
        &pruned.model.store,
        &oracle.model.store,
        true,
        &format!("{tag} query"),
    );
    assert_stores(
        &pruned.model.store_momentum,
        &oracle.model.store_momentum,
        false,
        &format!("{tag} momentum"),
    );
    if let (Some(p), Some(o)) = (&pruned.queues, &oracle.queues) {
        let bits = |q: &CellQueues| -> Vec<Vec<(usize, Vec<u32>)>> {
            q.export_entries()
                .into_iter()
                .map(|cell| {
                    cell.into_iter()
                        .map(|(s, e)| (s, e.iter().map(|v| v.to_bits()).collect()))
                        .collect()
                })
                .collect()
        };
        assert!(bits(p) == bits(o), "{tag}: queue entries differ");
    }
}

/// Runs `batches` in order through both sides, comparing after each step.
#[allow(clippy::too_many_arguments)]
fn compare_steps(
    net: &RoadNetwork,
    cfg: &SarnConfig,
    view1: &EdgeIndex,
    view2: &EdgeIndex,
    batches: &[Vec<usize>],
    prepare: impl Fn(&mut SarnModel),
    check: impl Fn(&SarnModel),
    tag: &str,
) {
    let (mut pruned, mut oracle) = (Side::new(net, cfg), Side::new(net, cfg));
    prepare(&mut pruned.model);
    prepare(&mut oracle.model);
    let (adj1, adj2) = (InAdjacency::new(view1), InAdjacency::new(view2));
    for (b, batch) in batches.iter().enumerate() {
        let tag = format!("{tag} step {b}");
        let lp = train_step(
            &mut pruned.model,
            cfg,
            &adj1,
            &adj2,
            batch,
            &mut pruned.opt,
            pruned.queues.as_mut(),
        );
        let lo = oracle_step(&mut oracle, cfg, view1, view2, batch);
        assert!(lo.is_finite(), "{tag}: oracle loss {lo}");
        assert_eq!(lp.to_bits(), lo.to_bits(), "{tag}: loss {lp:e} vs {lo:e}");
        assert_sides(&pruned, &oracle, &tag);
        check(&pruned.model);
    }
}

/// Every query-branch parameter received a nonzero gradient: the step
/// compared real arithmetic, not a vanishing loss.
fn every_param_learns(m: &SarnModel) {
    for id in m.store.ids() {
        assert!(
            m.store.grad(id).data().iter().any(|&v| v != 0.0),
            "{} has an all-zero gradient",
            m.store.name(id)
        );
    }
}

/// Runs `case` under every (reduction order, threads, depth) combination.
fn for_every_setting(case: impl Fn(usize, &str)) {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = ResetOnDrop;
    for order in [ReductionOrder::Reference, ReductionOrder::Fast] {
        for threads in [1, 4] {
            for n_layers in [2, 3] {
                sarn_par::set_reduction_order(order);
                sarn_par::set_num_threads(threads);
                let tag = format!("{} threads={threads} layers={n_layers}", order.label());
                case(n_layers, &tag);
            }
        }
    }
}

fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order
}

#[test]
fn random_batches_match_the_whole_graph_oracle() {
    let net = net();
    for_every_setting(|n_layers, tag| {
        for variant in [SarnVariant::Full, SarnVariant::WithoutNL] {
            let cfg = config(variant, n_layers);
            let (_, view1, view2) = views(&net, &cfg, 11);
            let order = shuffled(net.num_segments(), 5);
            let batches: Vec<Vec<usize>> = order
                .chunks(cfg.batch_size)
                .take(3)
                .map(<[usize]>::to_vec)
                .collect();
            let field = InAdjacency::new(&view1).field(&batches[0], n_layers);
            assert!(
                field.input_nodes().len() < net.num_segments(),
                "{tag}: the field must leave nodes out"
            );
            compare_steps(
                &net,
                &cfg,
                &view1,
                &view2,
                &batches,
                |_| {},
                every_param_learns,
                &format!("{tag} {variant:?} random"),
            );
        }
    });
}

#[test]
fn a_batch_whose_field_is_the_whole_graph_matches() {
    let net = net();
    let n = net.num_segments();
    for_every_setting(|n_layers, tag| {
        let cfg = config(SarnVariant::Full, n_layers);
        let (_, view1, view2) = views(&net, &cfg, 23);
        let batch = shuffled(n, 7);
        let field = InAdjacency::new(&view1).field(&batch, n_layers);
        assert_eq!(
            field.input_nodes().len(),
            n,
            "{tag}: field must span the graph"
        );
        compare_steps(
            &net,
            &cfg,
            &view1,
            &view2,
            &[batch],
            |_| {},
            every_param_learns,
            &format!("{tag} whole-graph field"),
        );
    });
}

#[test]
fn a_batch_of_isolated_nodes_matches() {
    let net = net();
    let n = net.num_segments();
    for_every_setting(|n_layers, tag| {
        let cfg = config(SarnVariant::Full, n_layers);
        let (full, _, _) = views(&net, &cfg, 31);
        let batch: Vec<usize> = shuffled(n, 9).into_iter().take(cfg.batch_size).collect();
        let mut isolated = vec![false; n];
        for &b in &batch {
            isolated[b] = true;
        }
        // Every edge touching a batch node is cut: the batch keeps only
        // its self-loops, so its field is the batch itself at every layer.
        let pairs = full
            .center
            .iter()
            .zip(full.neighbor.iter())
            .filter(|&(&c, &nb)| c != nb && !isolated[c] && !isolated[nb])
            .map(|(&c, &nb)| (c, nb));
        let view = EdgeIndex::with_self_loops(n, pairs);
        let field = InAdjacency::new(&view).field(&batch, n_layers);
        for l in 0..=n_layers {
            let nodes = if l == 0 {
                field.input_nodes()
            } else {
                field.layer_nodes(l)
            };
            assert_eq!(nodes.len(), batch.len(), "{tag}: layer {l} rows");
        }
        compare_steps(
            &net,
            &cfg,
            &view,
            &view,
            &[batch],
            |_| {},
            // A lone self-loop's attention weight is exactly 1, so only the
            // attention vectors get no gradient.
            |m| {
                for id in m
                    .store
                    .ids()
                    .filter(|&id| !m.store.name(id).ends_with(".a"))
                {
                    let name = m.store.name(id);
                    let grad = m.store.grad(id).data();
                    assert!(grad.iter().any(|&v| v != 0.0), "{name}: all-zero gradient");
                }
            },
            &format!("{tag} isolated"),
        );
    });
}

/// With the last GAT layer's weights at zero, every gradient upstream of
/// it (the earlier layers and the feature tables) is a sum of exact zeros
/// of either sign. Those all-zero sums are where dropping terms could
/// flip a zero's sign; the bit comparison covers the sign.
#[test]
fn all_zero_gradients_keep_their_sign() {
    let net = net();
    for_every_setting(|n_layers, tag| {
        let cfg = config(SarnVariant::Full, n_layers);
        let (_, view1, view2) = views(&net, &cfg, 47);
        let batch: Vec<usize> = shuffled(net.num_segments(), 3)
            .into_iter()
            .take(cfg.batch_size)
            .collect();
        let last = format!("enc.gat{}.", n_layers - 1);
        let zero_last_weights = |m: &mut SarnModel| {
            for store in [&mut m.store, &mut m.store_momentum] {
                let ids: Vec<_> = store
                    .ids()
                    .filter(|&id| {
                        store.name(id).starts_with(&last) && store.name(id).ends_with(".w")
                    })
                    .collect();
                assert!(!ids.is_empty());
                for id in ids {
                    store.value_mut(id).scale_mut(0.0);
                }
            }
        };
        let upstream_is_zero = |m: &SarnModel| {
            let upstream: Vec<_> = m
                .store
                .ids()
                .filter(|&id| {
                    !m.store.name(id).starts_with("proj") && !m.store.name(id).starts_with(&last)
                })
                .collect();
            assert!(!upstream.is_empty());
            for id in upstream {
                assert!(
                    m.store.grad(id).data().iter().all(|&v| v == 0.0),
                    "{tag}: {} has a nonzero gradient",
                    m.store.name(id)
                );
            }
        };
        compare_steps(
            &net,
            &cfg,
            &view1,
            &view2,
            &[batch],
            zero_last_weights,
            upstream_is_zero,
            &format!("{tag} zero-grad"),
        );
    });
}
