//! Seeded inputs: road networks and serving rows.
//!
//! Serving rows are *calibrated* to look like trained SARN embeddings:
//! spatially smooth (a segment's row is mostly a smooth function of
//! where it is) and of low intrinsic dimension (a random 128-d image of
//! a 24-feature code: 16 smooth positional features plus 8 per-segment
//! features, so no two rows coincide). Uniform-random 128-d rows are the opposite on both counts
//! and make HNSW recall a property of the data rather than of the code;
//! `README.md` records the calibration against a trained artifact.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sarn_geo::Point;
use sarn_roadnet::{City, RoadNetwork, SynthConfig};
use sarn_tensor::Tensor;

/// Smooth positional features behind every serving row.
const POSITIONAL: usize = 16;
/// Per-segment features behind every serving row.
const PER_SEGMENT: usize = 8;
/// Scale of the per-segment features against the positional ones
/// (which are cosines, RMS ~0.71). Set so the mean top-10 cosine
/// similarity matches a trained artifact's; see `README.md`.
const SEGMENT_SPREAD: f32 = 0.3;
const LATENT: usize = POSITIONAL + PER_SEGMENT;

/// The synthetic Chengdu network at `scale`, its layout seeded from the
/// workload seed.
pub fn network(scale: f64, seed: u64) -> RoadNetwork {
    SynthConfig::city(City::Chengdu)
        .scaled(scale)
        .with_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC4D0)
        .generate()
}

/// Segment midpoints of a network, indexed by segment id.
pub fn midpoints(net: &RoadNetwork) -> Vec<Point> {
    net.segments().iter().map(|s| s.midpoint()).collect()
}

/// Standard normal draw (Box–Muller).
fn normal(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

/// `dim`-wide serving rows for the segments at `midpoints`: spatially
/// smooth, intrinsic dimension [`LATENT`], seeded.
pub fn serving_rows(midpoints: &[Point], dim: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4F_1A7E);
    // Random Fourier features with wavelengths of 1-8 km.
    let waves: Vec<(f64, f64, f64)> = (0..POSITIONAL)
        .map(|_| {
            let wavelength_m = 1000.0 * 8f64.powf(rng.gen_range(0.0..1.0));
            let angle: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let k = std::f64::consts::TAU / wavelength_m;
            (
                k * angle.cos(),
                k * angle.sin(),
                rng.gen_range(0.0..std::f64::consts::TAU),
            )
        })
        .collect();
    let scale = 1.0 / (LATENT as f32).sqrt();
    let w: Vec<f32> = (0..dim * LATENT)
        .map(|_| normal(&mut rng) * scale)
        .collect();
    let origin = midpoints.first().copied().unwrap_or(Point::new(0.0, 0.0));
    let m_per_deg_lon = 111_320.0 * origin.lat.to_radians().cos();
    let mut data = Vec::with_capacity(midpoints.len() * dim);
    let mut code = [0f32; LATENT];
    for p in midpoints {
        let x = (p.lon - origin.lon) * m_per_deg_lon;
        let y = (p.lat - origin.lat) * 110_540.0;
        for (c, &(kx, ky, phase)) in code.iter_mut().zip(&waves) {
            *c = (kx * x + ky * y + phase).cos() as f32;
        }
        for c in &mut code[POSITIONAL..] {
            *c = SEGMENT_SPREAD * normal(&mut rng);
        }
        for r in 0..dim {
            let wr = &w[r * LATENT..(r + 1) * LATENT];
            data.push(wr.iter().zip(&code).map(|(a, b)| a * b).sum());
        }
    }
    Tensor::from_vec(midpoints.len(), dim, data)
}

/// `rows` with every entry perturbed by `amount` times seeded normal
/// noise: what a warm-start retrain republishes.
pub fn perturbed(rows: &Tensor, amount: f32, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E27_A5B1);
    let data = rows
        .data()
        .iter()
        .map(|v| v + amount * normal(&mut rng))
        .collect();
    Tensor::from_vec(rows.rows(), rows.cols(), data)
}

/// Uniform-random rows in `[-1, 1)`, the uncalibrated baseline.
pub fn uniform_rows(n: usize, dim: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    Tensor::from_vec(n, dim, data)
}

/// HNSW recall@10 (default serving index parameters, exact-score ties
/// counted as hits) and mean top-10 cosine similarity of `rows`, over
/// `queries` evenly spaced query rows.
pub fn hnsw_recall_and_top10(rows: &Tensor, queries: usize) -> (f64, f64) {
    let k = 10;
    let n = rows.rows();
    let cfg = sarn_serve::ServeConfig::default();
    let cos =
        |a: usize, b: usize| sarn_tensor::kernels::cosine(rows.row_slice(a), rows.row_slice(b));
    let index = sarn_ann::HnswIndex::build(
        sarn_ann::HnswConfig {
            m: cfg.ann_m,
            ef_construction: cfg.ann_ef_construction,
            seed: cfg.ann_seed,
        },
        rows.cols(),
        0,
        n,
        &mut |a, b| cos(a, b),
    );
    let (mut hits, mut want, mut top_sim, mut top_n) = (0usize, 0usize, 0f64, 0usize);
    for q in (0..queries).map(|i| i * n / queries.max(1)) {
        let mut exact: Vec<(usize, f32)> =
            (0..n).filter(|&j| j != q).map(|j| (j, cos(q, j))).collect();
        exact.sort_by(|a, b| b.1.total_cmp(&a.1));
        exact.truncate(k);
        let Some(&(_, kth)) = exact.last() else {
            continue;
        };
        let approx = index
            .search_with_deadline(
                &mut |j| cos(q, j),
                k + 1,
                cfg.ann_ef_search.max(k + 1),
                None,
            )
            .expect("an unbounded search cannot expire");
        want += exact.len();
        hits += approx
            .iter()
            .filter(|&&(j, s)| j != q && s >= kth)
            .count()
            .min(exact.len());
        top_sim += exact.iter().map(|&(_, s)| f64::from(s)).sum::<f64>();
        top_n += exact.len();
    }
    (
        hits as f64 / want.max(1) as f64,
        top_sim / top_n.max(1) as f64,
    )
}
