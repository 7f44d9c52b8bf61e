//! Graph attention network (GAT) layers (Velickovic et al., ICLR 2018),
//! implemented sparsely over an edge list so memory scales with the number
//! of edges rather than `n^2`.
//!
//! A layer runs either over a whole [`EdgeIndex`] (every node in, every
//! node out) or over one layer of a [`ReceptiveField`]: the rows and edges
//! an `L`-layer encoder needs to produce a set of target nodes. Layer `l`
//! of such a plan evaluates only the nodes within `L - l` hops of the
//! targets, and only their in-edges. Every pruned node list is ascending
//! and every pruned edge list is the full list filtered in its own order,
//! so each output row and each backward sum visits the same nonzero terms
//! in the same order as the whole-graph pass; the terms it drops are
//! exact zeros (DESIGN.md §17).

use std::rc::Rc;

use rand::Rng;

use crate::autograd::{Graph, Var};
use crate::init::xavier_uniform;
use crate::params::{ParamId, ParamStore};

/// Negative slope of the LeakyReLU applied to raw attention scores (Eq. 10).
const ATTN_LEAKY_SLOPE: f32 = 0.2;

/// Edge list describing the neighborhood structure a GAT layer attends over.
///
/// Edge `e` sends a message from node `neighbor[e]` into node `center[e]`;
/// attention is normalized per center node. Construct with
/// [`EdgeIndex::with_self_loops`] so every node receives at least its own
/// message even after aggressive graph corruption.
#[derive(Clone, Debug)]
pub struct EdgeIndex {
    /// Per-edge anchor (destination) node, i.e. `i` in `alpha_ij`.
    pub center: Rc<Vec<usize>>,
    /// Per-edge message source node, i.e. `j` in `alpha_ij`.
    pub neighbor: Rc<Vec<usize>>,
    /// Number of nodes.
    pub n: usize,
}

impl EdgeIndex {
    /// Builds an edge index from `(center, neighbor)` pairs, appending one
    /// self-loop per node.
    pub fn with_self_loops(n: usize, pairs: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut center = Vec::new();
        let mut neighbor = Vec::new();
        for (c, nb) in pairs {
            debug_assert!(c < n && nb < n, "edge endpoint out of range");
            center.push(c);
            neighbor.push(nb);
        }
        for i in 0..n {
            center.push(i);
            neighbor.push(i);
        }
        Self {
            center: Rc::new(center),
            neighbor: Rc::new(neighbor),
            n,
        }
    }

    /// Number of edges (including self-loops).
    pub fn num_edges(&self) -> usize {
        self.center.len()
    }
}

/// The in-edges of every node of an [`EdgeIndex`], each node's edge ids
/// ascending. Built once per graph view; [`InAdjacency::field`] then plans
/// a batch's receptive field without scanning the whole edge list.
#[derive(Debug)]
pub struct InAdjacency {
    edges: EdgeIndex,
    /// `edge_ids[start[c]..start[c + 1]]` are the edges into node `c`.
    start: Vec<usize>,
    edge_ids: Vec<usize>,
}

impl InAdjacency {
    /// Groups the edges of `edges` by center node (a stable counting sort,
    /// so each node's edge ids stay ascending).
    pub fn new(edges: &EdgeIndex) -> Self {
        let mut start = vec![0usize; edges.n + 1];
        for &c in edges.center.iter() {
            start[c + 1] += 1;
        }
        for c in 0..edges.n {
            start[c + 1] += start[c];
        }
        let mut fill = start.clone();
        let mut edge_ids = vec![0usize; edges.num_edges()];
        for (e, &c) in edges.center.iter().enumerate() {
            edge_ids[fill[c]] = e;
            fill[c] += 1;
        }
        Self {
            edges: edges.clone(),
            start,
            edge_ids,
        }
    }

    fn in_edges(&self, c: usize) -> &[usize] {
        &self.edge_ids[self.start[c]..self.start[c + 1]]
    }

    /// Plans the rows and edges each of `n_layers` layers must evaluate so
    /// that the last layer yields the rows of `targets` (any order,
    /// repeats allowed).
    pub fn field(&self, targets: &[usize], n_layers: usize) -> ReceptiveField {
        // nodes[l] holds layer l's output rows; nodes[0] is the input ball.
        let mut nodes = vec![sorted_unique(targets.to_vec())];
        for _ in 0..n_layers {
            let outer = &nodes[nodes.len() - 1];
            let mut ball = outer.clone();
            for &c in outer {
                ball.extend(self.in_edges(c).iter().map(|&e| self.edges.neighbor[e]));
            }
            nodes.push(sorted_unique(ball));
        }
        nodes.reverse();
        let layers = nodes
            .windows(2)
            .map(|w| {
                let (inputs, outputs) = (&w[0], &w[1]);
                // The full edge list filtered in its own order (not in
                // grouped-by-center order), which keeps every scatter's
                // accumulation order.
                let mut ids: Vec<usize> = outputs
                    .iter()
                    .flat_map(|&c| self.in_edges(c).iter().copied())
                    .collect();
                ids.sort_unstable();
                let rows_in = |nodes: &[usize], of: &[usize]| -> Vec<usize> {
                    ids.iter().map(|&e| row_of(nodes, of[e])).collect()
                };
                LayerEdges {
                    center: Rc::new(rows_in(inputs, &self.edges.center)),
                    neighbor: Rc::new(rows_in(inputs, &self.edges.neighbor)),
                    seg: Rc::new(rows_in(outputs, &self.edges.center)),
                    n_out: outputs.len(),
                }
            })
            .collect();
        let target_rows = targets
            .iter()
            .map(|&t| row_of(&nodes[n_layers], t))
            .collect();
        ReceptiveField {
            nodes,
            layers,
            target_rows,
        }
    }
}

fn sorted_unique(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Position of `id` in the ascending list `nodes`, which holds it by
/// construction of the plan.
fn row_of(nodes: &[usize], id: usize) -> usize {
    nodes
        .binary_search(&id)
        .expect("receptive-field plan: every referenced node is in its layer's row set")
}

/// The edges one GAT layer evaluates, with endpoints as row numbers: the
/// center and neighbor of edge `e` index the layer's input rows, `seg[e]`
/// its output rows. Over a whole [`EdgeIndex`] both row sets are all nodes.
struct LayerEdges {
    center: Rc<Vec<usize>>,
    neighbor: Rc<Vec<usize>>,
    seg: Rc<Vec<usize>>,
    n_out: usize,
}

/// The layer-wise receptive field of a set of target nodes under an
/// `L`-layer encoder (see [`InAdjacency::field`]).
pub struct ReceptiveField {
    nodes: Vec<Vec<usize>>,
    layers: Vec<LayerEdges>,
    target_rows: Vec<usize>,
}

impl ReceptiveField {
    /// Ascending node ids whose input features the first layer reads (the
    /// `L`-hop ball around the targets).
    pub fn input_nodes(&self) -> &[usize] {
        &self.nodes[0]
    }

    /// Ascending node ids of layer `l`'s output rows (`l` in `1..=L`).
    pub fn layer_nodes(&self, l: usize) -> &[usize] {
        &self.nodes[l]
    }

    /// For each requested target, in request order, its row in the last
    /// layer's output.
    pub fn target_rows(&self) -> &[usize] {
        &self.target_rows
    }
}

struct Head {
    w: ParamId,
    a: ParamId,
}

/// One multi-head GAT layer (Eq. 8–10 of the SARN paper).
pub struct GatLayer {
    heads: Vec<Head>,
    d_in: usize,
    d_head: usize,
    /// Concatenate head outputs (hidden layers) or average them (final layer).
    concat: bool,
}

impl GatLayer {
    /// Registers a GAT layer with `n_heads` heads of width `d_head`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_in: usize,
        d_head: usize,
        n_heads: usize,
        concat: bool,
    ) -> Self {
        assert!(n_heads >= 1, "a GAT layer needs at least one head");
        let heads = (0..n_heads)
            .map(|h| Head {
                w: store.add(format!("{name}.h{h}.w"), xavier_uniform(rng, d_in, d_head)),
                a: store.add(format!("{name}.h{h}.a"), xavier_uniform(rng, 2 * d_head, 1)),
            })
            .collect();
        Self {
            heads,
            d_in,
            d_head,
            concat,
        }
    }

    /// Input width.
    pub fn d_in(&self) -> usize {
        self.d_in
    }

    /// Output width (`n_heads * d_head` when concatenating, `d_head` when
    /// averaging).
    pub fn d_out(&self) -> usize {
        if self.concat {
            self.heads.len() * self.d_head
        } else {
            self.d_head
        }
    }

    /// All parameter ids of this layer.
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.heads.iter().flat_map(|h| [h.w, h.a]).collect()
    }

    /// Records one attention layer on the tape: per head,
    /// `e_ij = LeakyReLU(a^T [W x_i || W x_j])`, softmax over each node's
    /// in-neighborhood, then the attention-weighted message sum.
    pub fn forward(&self, g: &Graph, store: &ParamStore, x: Var, edges: &EdgeIndex) -> Var {
        self.forward_activated(g, store, x, edges, None)
    }

    /// [`GatLayer::forward`] with an optional ELU (parameter `elu_alpha`)
    /// applied to the layer output. For concatenating (hidden) layers the
    /// ELU is fused into each head's scatter
    /// ([`Graph::segment_weighted_sum_elu`]); because ELU is elementwise and
    /// head concatenation only rearranges columns, this is bit-identical to
    /// `elu(forward(..))` while saving a tape node and an extra pass over
    /// the `n x d` hidden matrix.
    pub fn forward_activated(
        &self,
        g: &Graph,
        store: &ParamStore,
        x: Var,
        edges: &EdgeIndex,
        elu_alpha: Option<f32>,
    ) -> Var {
        let whole = LayerEdges {
            center: Rc::clone(&edges.center),
            neighbor: Rc::clone(&edges.neighbor),
            seg: Rc::clone(&edges.center),
            n_out: edges.n,
        };
        self.forward_on(g, store, x, &whole, elu_alpha)
    }

    /// The layer over an explicit edge set: `x` holds the input rows the
    /// edges' endpoints index, the result the `edges.n_out` output rows.
    fn forward_on(
        &self,
        g: &Graph,
        store: &ParamStore,
        x: Var,
        edges: &LayerEdges,
        elu_alpha: Option<f32>,
    ) -> Var {
        let (seg, n_out) = (&edges.seg, edges.n_out);
        let mut outs = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            let w = g.param(store, head.w);
            let a = g.param(store, head.a);
            let wx = g.matmul(x, w);
            let hc = g.gather_rows(wx, &edges.center);
            let hn = g.gather_rows(wx, &edges.neighbor);
            let cat = g.concat_cols(&[hc, hn]);
            let scores = g.matmul(cat, a);
            let scores = g.leaky_relu(scores, ATTN_LEAKY_SLOPE);
            let alpha = g.segment_softmax(scores, Rc::clone(seg), n_out);
            let msg = match (self.concat, elu_alpha) {
                (true, Some(al)) => {
                    g.segment_weighted_sum_elu(alpha, hn, Rc::clone(seg), n_out, al)
                }
                _ => g.segment_weighted_sum(alpha, hn, Rc::clone(seg), n_out),
            };
            outs.push(msg);
        }
        if self.concat {
            g.concat_cols(&outs)
        } else {
            let mut acc = outs[0];
            for &o in &outs[1..] {
                acc = g.add(acc, o);
            }
            let avg = g.scale(acc, 1.0 / outs.len() as f32);
            // Averaging mixes head outputs, so the ELU cannot be fused into
            // the per-head scatters; apply it on the averaged output.
            match elu_alpha {
                Some(al) => g.elu(avg, al),
                None => avg,
            }
        }
    }
}

/// A stack of GAT layers with ELU activations between layers; the final
/// layer averages its heads (the paper uses 3 layers with L = 4 heads).
pub struct GatEncoder {
    layers: Vec<GatLayer>,
}

impl GatEncoder {
    /// Builds an encoder mapping `d_in -> d_out` through `n_layers` layers of
    /// `n_heads` heads each. Hidden layers concatenate heads and keep an
    /// output width of `d_out` (so `d_out` must be divisible by `n_heads`);
    /// the final layer averages heads of width `d_out`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_in: usize,
        d_out: usize,
        n_layers: usize,
        n_heads: usize,
    ) -> Self {
        assert!(n_layers >= 1, "encoder needs at least one layer");
        assert_eq!(
            d_out % n_heads,
            0,
            "d_out ({d_out}) must be divisible by n_heads ({n_heads})"
        );
        let mut layers = Vec::with_capacity(n_layers);
        let mut width = d_in;
        for l in 0..n_layers {
            let last = l + 1 == n_layers;
            let layer = if last {
                GatLayer::new(
                    store,
                    rng,
                    &format!("{name}.gat{l}"),
                    width,
                    d_out,
                    n_heads,
                    false,
                )
            } else {
                GatLayer::new(
                    store,
                    rng,
                    &format!("{name}.gat{l}"),
                    width,
                    d_out / n_heads,
                    n_heads,
                    true,
                )
            };
            width = layer.d_out();
            layers.push(layer);
        }
        Self { layers }
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Output width.
    pub fn d_out(&self) -> usize {
        self.layers
            .last()
            .expect("encoder has at least one layer")
            .d_out()
    }

    /// All parameter ids across layers.
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.layers.iter().flat_map(GatLayer::param_ids).collect()
    }

    /// Parameter ids of the final layer only (fine-tuned by SARN*).
    pub fn last_layer_param_ids(&self) -> Vec<ParamId> {
        self.layers
            .last()
            .expect("encoder has at least one layer")
            .param_ids()
    }

    /// Records the full encoder on the tape. Hidden layers fuse their ELU
    /// into the attention scatter (bit-identical to the separate
    /// `elu(layer(..))` form — see [`GatLayer::forward_activated`]).
    pub fn forward(&self, g: &Graph, store: &ParamStore, x: Var, edges: &EdgeIndex) -> Var {
        let mut h = x;
        for (l, layer) in self.layers.iter().enumerate() {
            let hidden = l + 1 < self.layers.len();
            h = layer.forward_activated(g, store, h, edges, hidden.then_some(1.0));
        }
        h
    }

    /// Records the encoder over a receptive field planned for this
    /// encoder's depth: `x` holds the features of
    /// [`ReceptiveField::input_nodes`], and the result the rows of
    /// [`ReceptiveField::layer_nodes`] at the last layer. Each of those
    /// rows, and every parameter gradient a loss on them produces, equals
    /// the whole-graph [`GatEncoder::forward`] bit for bit.
    pub fn forward_field(
        &self,
        g: &Graph,
        store: &ParamStore,
        x: Var,
        field: &ReceptiveField,
    ) -> Var {
        assert_eq!(
            field.layers.len(),
            self.layers.len(),
            "receptive field planned for a different depth"
        );
        let mut h = x;
        for (l, (layer, edges)) in self.layers.iter().zip(&field.layers).enumerate() {
            let hidden = l + 1 < self.layers.len();
            h = layer.forward_on(g, store, h, edges, hidden.then_some(1.0));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line_graph(n: usize) -> EdgeIndex {
        // 0 <-> 1 <-> 2 ... both directions
        let mut pairs = Vec::new();
        for i in 0..n - 1 {
            pairs.push((i, i + 1));
            pairs.push((i + 1, i));
        }
        EdgeIndex::with_self_loops(n, pairs)
    }

    #[test]
    fn edge_index_adds_self_loops() {
        let e = line_graph(4);
        assert_eq!(e.num_edges(), 6 + 4);
    }

    #[test]
    fn layer_output_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = GatLayer::new(&mut store, &mut rng, "g", 6, 4, 3, true);
        assert_eq!(layer.d_out(), 12);
        let g = Graph::new();
        let x = g.input(Tensor::ones(5, 6));
        let y = layer.forward(&g, &store, x, &line_graph(5));
        assert_eq!(g.shape(y), (5, 12));
    }

    #[test]
    fn encoder_stacks_and_averages_final_heads() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let enc = GatEncoder::new(&mut store, &mut rng, "enc", 6, 8, 3, 4);
        assert_eq!(enc.n_layers(), 3);
        assert_eq!(enc.d_out(), 8);
        let g = Graph::new();
        let x = g.input(Tensor::ones(5, 6));
        let y = enc.forward(&g, &store, x, &line_graph(5));
        assert_eq!(g.shape(y), (5, 8));
        assert!(g.value(y).all_finite());
    }

    #[test]
    fn attention_weights_sum_to_one_per_node() {
        // With a single head and identity-ish input, the segment softmax must
        // produce a convex combination: output of a node whose neighbors all
        // carry the same feature row equals that row transformed by W.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let layer = GatLayer::new(&mut store, &mut rng, "g", 3, 3, 1, true);
        let g = Graph::new();
        let x = g.input(Tensor::from_vec(4, 3, [[1.0f32, 2.0, 3.0]; 4].concat()));
        let y = layer.forward(&g, &store, x, &line_graph(4));
        let wx = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]).matmul(store.value(layer.heads[0].w));
        let out = g.value(y);
        for i in 0..4 {
            for c in 0..3 {
                assert!((out.at(i, c) - wx.at(0, c)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn field_prunes_by_hops_and_matches_the_whole_graph_rows() {
        let edges = line_graph(7);
        let field = InAdjacency::new(&edges).field(&[3, 2, 3], 2);
        assert_eq!(field.input_nodes(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(field.layer_nodes(1), &[1, 2, 3, 4]);
        assert_eq!(field.layer_nodes(2), &[2, 3]);
        assert_eq!(field.target_rows(), &[1, 0, 1]);

        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let enc = GatEncoder::new(&mut store, &mut rng, "enc", 3, 4, 2, 2);
        let x = crate::init::normal(&mut rng, 7, 3, 1.0);
        let g = Graph::new();
        let whole = g.value(enc.forward(&g, &store, g.input(x.clone()), &edges));
        let xs = g.input(x.gather_rows(field.input_nodes()));
        let pruned = g.value(enc.forward_field(&g, &store, xs, &field));
        for (r, &node) in field.layer_nodes(2).iter().enumerate() {
            for (a, b) in pruned.row_slice(r).iter().zip(whole.row_slice(node)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn gradients_reach_every_gat_parameter() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let enc = GatEncoder::new(&mut store, &mut rng, "enc", 4, 4, 2, 2);
        let g = Graph::new();
        let x = g.input(crate::init::normal(&mut rng, 5, 4, 1.0));
        let y = enc.forward(&g, &store, x, &line_graph(5));
        let loss = g.mean_all(g.sqr(y));
        g.backward(loss);
        g.accumulate_grads(&mut store);
        for id in enc.param_ids() {
            assert!(
                store.grad(id).norm_sq() > 0.0,
                "no grad for {}",
                store.name(id)
            );
        }
    }
}
