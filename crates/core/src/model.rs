//! The SARN network: shared feature embedding, GAT encoder `F`, projection
//! head `P`, and a momentum branch `F'`, `P'` with the same layout
//! (paper §4.3, Fig. 2).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sarn_roadnet::RoadNetwork;
use sarn_tensor::layers::{Activation, EdgeIndex, Ffn, GatEncoder, InAdjacency};
use sarn_tensor::{Graph, ParamId, ParamStore, Tensor, Var};

use crate::config::SarnConfig;
use crate::features::{DiscretizedFeatures, FeatureEmbedding};

/// The SARN model: layer definitions plus the query (`F`, `P`) and momentum
/// (`F'`, `P'`) parameter stores. The two stores share one layout, so every
/// layer can run against either.
pub struct SarnModel {
    feats: DiscretizedFeatures,
    femb: FeatureEmbedding,
    encoder: GatEncoder,
    proj: Ffn,
    /// Query branch parameters (updated by gradient descent).
    pub store: ParamStore,
    /// Momentum branch parameters (updated by Eq. 12 EMA).
    pub store_momentum: ParamStore,
}

impl SarnModel {
    /// Builds the model for a road network, initializing both branches to
    /// identical weights.
    pub fn new(net: &RoadNetwork, cfg: &SarnConfig) -> Self {
        let feats = DiscretizedFeatures::from_network(net);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let femb = FeatureEmbedding::new(&mut store, &mut rng, "femb", &feats, cfg.d_per_feature);
        let encoder = GatEncoder::new(
            &mut store,
            &mut rng,
            "enc",
            femb.d_f(),
            cfg.d,
            cfg.n_layers,
            cfg.n_heads,
        );
        let proj = Ffn::new(
            &mut store,
            &mut rng,
            "proj",
            &[cfg.d, cfg.d, cfg.d_z],
            Activation::Relu,
        );
        let store_momentum = store.clone();
        Self {
            feats,
            femb,
            encoder,
            proj,
            store,
            store_momentum,
        }
    }

    /// Discretized features of the underlying network.
    pub fn features(&self) -> &DiscretizedFeatures {
        &self.feats
    }

    /// Records the encoder forward pass `H = F(X, view)` on a tape using the
    /// given parameter store (query or momentum branch).
    pub fn encode(&self, g: &Graph, store: &ParamStore, edges: &EdgeIndex) -> Var {
        let x = self.femb.forward(g, store, &self.feats);
        self.encoder.forward(g, store, x, edges)
    }

    /// Records the encoder forward pass for the `batch` rows of `H` only,
    /// in batch order: the encoder runs over the batch's layer-wise
    /// receptive field in `view` (see [`InAdjacency::field`]) and the
    /// feature lookup covers only its input ball. The rows, and every
    /// parameter gradient a loss on them produces, equal those of
    /// [`SarnModel::encode`] followed by a gather of `batch`, bit for bit.
    pub fn encode_batch(
        &self,
        g: &Graph,
        store: &ParamStore,
        view: &InAdjacency,
        batch: &[usize],
    ) -> Var {
        let field = view.field(batch, self.encoder.n_layers());
        let x = self
            .femb
            .forward_rows(g, store, &self.feats, field.input_nodes());
        let h = self.encoder.forward_field(g, store, x, &field);
        g.gather_rows(h, field.target_rows())
    }

    /// Records the projection `Z = P(H)` on a tape.
    pub fn project(&self, g: &Graph, store: &ParamStore, h: Var) -> Var {
        self.proj.forward(g, store, h)
    }

    /// Runs a full, gradient-free forward pass and returns the `n x d`
    /// embedding matrix (used after training and by the momentum branch).
    pub fn embed_detached(&self, store: &ParamStore, edges: &EdgeIndex) -> Tensor {
        let g = Graph::new();
        let h = self.encode(&g, store, edges);
        g.value(h)
    }

    /// Runs a gradient-free forward + projection and returns `n x d_z`.
    pub fn embed_projected_detached(&self, store: &ParamStore, edges: &EdgeIndex) -> Tensor {
        let g = Graph::new();
        let h = self.encode(&g, store, edges);
        let z = self.project(&g, store, h);
        g.value(z)
    }

    /// Applies the Eq. 12 momentum update `W' = m W' + (1-m) W`.
    pub fn momentum_update(&mut self, m: f32) {
        self.store_momentum.momentum_update_from(&self.store, m);
    }

    /// Parameter ids of the final GAT layer (the part SARN* fine-tunes).
    pub fn last_gat_layer_ids(&self) -> Vec<ParamId> {
        self.encoder.last_layer_param_ids()
    }

    /// All parameter ids of the query branch.
    pub fn all_param_ids(&self) -> Vec<ParamId> {
        self.store.ids().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::GraphView;
    use sarn_roadnet::{City, SynthConfig};

    fn setup() -> (RoadNetwork, SarnModel, EdgeIndex) {
        let net = SynthConfig::city(City::Chengdu).scaled(0.25).generate();
        let cfg = SarnConfig::tiny();
        let model = SarnModel::new(&net, &cfg);
        let view = GraphView::full(
            net.num_segments(),
            net.topo_edges().iter().map(|&(i, j, _)| (i, j)),
            std::iter::empty(),
        );
        let idx = view.edge_index();
        (net, model, idx)
    }

    #[test]
    fn branches_start_identical() {
        let (net, model, idx) = setup();
        let hq = model.embed_detached(&model.store, &idx);
        let hm = model.embed_detached(&model.store_momentum, &idx);
        assert_eq!(hq.shape(), (net.num_segments(), SarnConfig::tiny().d));
        for (a, b) in hq.data().iter().zip(hm.data().iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn momentum_update_moves_momentum_toward_query() {
        let (_, mut model, idx) = setup();
        // Perturb the query branch.
        for id in model.all_param_ids() {
            model
                .store
                .value_mut(id)
                .data_mut()
                .iter_mut()
                .for_each(|v| *v += 0.1);
        }
        let before = model.embed_detached(&model.store_momentum, &idx);
        model.momentum_update(0.5);
        let after = model.embed_detached(&model.store_momentum, &idx);
        let query = model.embed_detached(&model.store, &idx);
        // After the EMA step the momentum output moves toward the query's.
        let d_before: f32 = before
            .data()
            .iter()
            .zip(query.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        let d_after: f32 = after
            .data()
            .iter()
            .zip(query.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(d_after < d_before);
    }

    #[test]
    fn projection_reduces_dimension() {
        let (net, model, idx) = setup();
        let z = model.embed_projected_detached(&model.store, &idx);
        let cfg = SarnConfig::tiny();
        assert_eq!(z.shape(), (net.num_segments(), cfg.d_z));
        assert!(cfg.d_z < cfg.d);
        assert!(z.all_finite());
    }
}
