//! The serving workloads: an open loop through `Router::knn` on the
//! default `ServeConfig`/`RouterConfig` (hedging on, telemetry off).
//!
//! - `serve_scan`: ~12k rows, 4 shards of ~3k — under the default
//!   4096-row ANN threshold, so every leg is the exact scan.
//! - `serve_ann`: ~32.7k rows, 4 shards of ~8k — over it, so every leg
//!   goes through HNSW.
//! - `serve_churn`: the `serve_ann` rows read by one lane while one
//!   writer republishes a perturbed full artifact back to back
//!   (`Tensor::load_validated` + `ShardedStore::admit_changed`, as
//!   pipeline stage 5 does).
//!
//! Each runs a fixed-rate phase at a fifth of its one-lane capacity.
//! `serve_scan` and `serve_ann` first time a closed loop in user CPU
//! time, and search for that capacity after the phase; `serve_churn`
//! reads at the fixed rate for the whole run and times the writer's
//! republishes in user CPU time.
//!
//! The traced run replays requests through the router's public parts
//! (locate, owner snapshot, one `EmbeddingStore::knn_vector` per shard,
//! merge) and checks the merged answer equals `Router::knn`'s bit for
//! bit.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sarn_geo::Point;
use sarn_serve::{IndexState, RoutedKnn, Router, RouterConfig, ServeConfig, ShardedStore};
use sarn_tensor::{Tensor, TensorExpectation};

use crate::host::process_user_cpu_s;
use crate::loadgen::{open_loop, Sample};
use crate::report::Outcome;
use crate::stats::{mean, median, quantile, scaled};
use crate::trace::Spans;

/// Neighbours per query.
pub const K: usize = 10;
/// Served embedding width (the paper's `d`).
pub const DIM: usize = 128;
/// Load lanes of the read loops (the churn writer is one more thread).
/// One lane: with two, throughput swings between one and two cores'
/// worth from run to run, depending on where the scheduler puts the
/// router's per-leg threads.
pub const LANES: usize = 1;

/// Which serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Exact scan legs (shards under the ANN threshold).
    Scan,
    /// HNSW legs (shards over the ANN threshold).
    Ann,
    /// HNSW legs read while a writer republishes.
    Churn,
}

/// A serving workload's fixed parameters.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Network scale: the segment count grows with its square.
    pub scale: f64,
    /// Offered rate of the fixed-rate phase, requests per second.
    pub rate: f64,
    /// Share of `--seconds` the fixed-rate phase takes.
    pub phase_share: f64,
    /// Blocks the fixed-rate phase is cut into; latency percentiles are
    /// the median over blocks, so one burst of host noise moves one
    /// block, not the result.
    pub blocks: usize,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
    /// Republishes whose median is `republish_s` (scan and ANN; the churn
    /// writer republishes back to back for the whole run).
    pub publish_reps: usize,
}

/// The p99 latency limit every serving workload is held to, ms: the
/// capacity search's limit.
const LIMIT_MS: f64 = 100.0;

/// Share of `--seconds` the closed-loop CPU phase takes on `serve_scan`
/// and `serve_ann` (on churn the CPU figure is the writer's, and the
/// fixed-rate phase takes the whole run); the capacity search takes
/// about what the two phases leave.
const CPU_PHASE_SHARE: f64 = 0.3;

/// Utilisation of the fixed-rate phase: its offered rate is this share
/// of the workload's one-lane capacity (`knn_max_qps`, the median of a
/// ten-seed set on the reference host; see `README.md`). At a fifth of
/// capacity the p50 is the service time plus little queueing, and a 2x
/// slower read path still leaves the queue stable.
const UTILISATION: f64 = 0.2;

/// One-lane capacities on the reference host (2-vCPU VM), requests per
/// second, from which the fixed rates are set: `UTILISATION` times each,
/// to two significant figures.
const SCAN_CAPACITY: f64 = 600.0;
const ANN_CAPACITY: f64 = 1800.0;
const CHURN_CAPACITY: f64 = 70.0;

impl Spec {
    /// The parameters of `kind`.
    pub fn of(kind: Kind) -> Self {
        let rate = |capacity: f64| {
            let r = UTILISATION * capacity;
            let unit = 10f64.powf(r.log10().floor() - 1.0);
            (r / unit).round() * unit
        };
        match kind {
            Kind::Scan => Spec {
                kind,
                scale: 2.34,
                rate: rate(SCAN_CAPACITY),
                phase_share: 0.3,
                blocks: 5,
                setup_reps: 61,
                publish_reps: 25,
            },
            Kind::Ann => Spec {
                kind,
                scale: 3.82,
                rate: rate(ANN_CAPACITY),
                phase_share: 0.3,
                blocks: 5,
                setup_reps: 3,
                publish_reps: 3,
            },
            Kind::Churn => Spec {
                kind,
                scale: 3.82,
                rate: rate(CHURN_CAPACITY),
                phase_share: 1.0,
                blocks: 3,
                setup_reps: 3,
                publish_reps: 0,
            },
        }
    }
}

/// A built, ready router plus what building it cost.
struct Built {
    router: Router,
    setup_s: f64,
    build_ms: u64,
}

/// Store build + admit + router + every shard done building its index.
fn build(mids: &[Point], rows: &Tensor) -> Result<Built, String> {
    let mids = mids.to_vec();
    let t0 = Instant::now();
    let sharded = ShardedStore::new(
        mids,
        DIM,
        ServeConfig::default(),
        RouterConfig::default().num_shards,
    )
    .map_err(|e| format!("build sharded store: {e}"))?;
    sharded.admit(rows).map_err(|e| format!("admit: {e}"))?;
    let router = Router::new(sharded, RouterConfig::default());
    wait_no_index_pending(router.sharded());
    let setup_s = t0.elapsed().as_secs_f64();
    let build_ms = match router.health().index {
        IndexState::Ready { build_ms } => build_ms,
        IndexState::None => 0,
        other => return Err(format!("index ended {other:?} after a clean build")),
    };
    Ok(Built {
        router,
        setup_s,
        build_ms,
    })
}

/// Waits until no shard of `sharded` is still building an index.
pub fn wait_no_index_pending(sharded: &ShardedStore) {
    while sharded
        .shards()
        .iter()
        .any(|s| s.store.index_state() == IndexState::Building)
    {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Whether a routed answer is complete and well formed for `segment`.
fn valid(answer: &RoutedKnn, segment: usize) -> bool {
    answer.coverage.complete()
        && answer.neighbors.len() == K
        && answer
            .neighbors
            .iter()
            .all(|&(id, s)| id != segment && s.is_finite())
        && answer.neighbors.windows(2).all(|w| w[0].1 >= w[1].1)
}

/// One routed request; `true` when it succeeded with a valid answer.
fn request(router: &Router, segment: usize) -> bool {
    router
        .knn(segment, K, router.deadline())
        .is_ok_and(|a| valid(&a, segment))
}

/// `(score desc, id asc)` top-k: the order `Router::knn` merges in.
fn top_k(mut scored: Vec<(usize, f32)>, k: usize) -> Vec<(usize, f32)> {
    scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// The query row of `segment` and its norm, read from its owner shard.
fn query_row(sharded: &ShardedStore, segment: usize) -> Option<(Vec<f32>, f32)> {
    let (owner, local) = sharded.locate(segment).ok()?;
    let gen = sharded.shard(owner).store.snapshot()?;
    Some((
        gen.embeddings().row_slice(local).to_vec(),
        gen.row_norm(local),
    ))
}

/// The similarity of `query` to the row of segment `id`, scored by the
/// stores' own similarity function on its owner shard.
fn score_of(sharded: &ShardedStore, query: &[f32], norm: f32, id: usize) -> Option<f32> {
    let (owner, local) = sharded.locate(id).ok()?;
    let gen = sharded.shard(owner).store.snapshot()?;
    Some(gen.similarity_to_vector(query, norm, local))
}

/// Exact top-k over every shard's live rows, scored by the stores' own
/// similarity function: the oracle for scan exactness and ANN recall.
fn exact_knn(
    sharded: &ShardedStore,
    segment: usize,
    query: &[f32],
    norm: f32,
) -> Option<Vec<(usize, f32)>> {
    let mut scored = Vec::with_capacity(sharded.num_segments());
    for shard in sharded.shards() {
        let gen = shard.store.snapshot()?;
        for (j, &g) in shard.globals.iter().enumerate() {
            if g != segment {
                scored.push((g, gen.similarity_to_vector(query, norm, j)));
            }
        }
    }
    Some(top_k(scored, K))
}

/// Latency percentile `q` of the samples, µs.
fn percentile_us(samples: &[Sample], q: f64) -> f64 {
    let mut v = scaled(&samples.iter().map(|s| s.latency).collect::<Vec<_>>(), 1e6);
    quantile(&mut v, q)
}

/// Median over `blocks` contiguous blocks of each block's `(p50, p90)`
/// latency, µs.
fn blocked_latency_us(samples: &[Sample], blocks: usize) -> (f64, f64) {
    let size = samples.len().div_ceil(blocks.max(1)).max(1);
    let (mut p50, mut p90): (Vec<f64>, Vec<f64>) = samples
        .chunks(size)
        .map(|c| (percentile_us(c, 0.5), percentile_us(c, 0.9)))
        .unzip();
    (median(&mut p50), median(&mut p90))
}

/// Seeded query segments, uniform over all segments. No query log of a
/// road network is available, and every request fans out to every
/// shard whichever segment it names, so the segment only picks the
/// query row; the paper's evaluation likewise weighs every segment
/// equally.
fn query_segments(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0FE7_C4ED);
    (0..count).map(|_| rng.gen_range(0..n)).collect()
}

/// What a capacity measurement found.
struct Search {
    /// The highest passing rate, requests per second.
    rate: f64,
    /// Rates tried.
    steps: usize,
    /// Requests sent, and how many of them failed.
    attempted: u64,
    failed: u64,
}

/// The highest offered rate (within 3%) whose p99 stays within
/// [`LIMIT_MS`] with every request answered and no growing backlog.
/// Each step offers `step_s` seconds of requests, cut into four blocks:
/// the step passes when the median block's p99 and the last block's
/// median are within the limit, so one burst of host noise does not
/// fail it while a growing backlog does. A rate that fails is tried
/// once more and fails only if that trial fails too, so a stall of the
/// host does not end the search early while a rate over capacity fails
/// both. The search starts from `start` and brackets by 25% before
/// bisecting.
fn max_rate(router: &Router, queries: &[usize], start: f64, step_s: f64) -> Result<Search, String> {
    let limit_us = LIMIT_MS * 1e3;
    let mut found = Search {
        rate: 0.0,
        steps: 0,
        attempted: 0,
        failed: 0,
    };
    let mut offset = 0usize;
    let mut trial = |rate: f64| -> Result<bool, String> {
        let base = offset;
        let count = (rate * step_s).round().max(4.0) as usize;
        offset += count;
        let samples = open_loop(rate, count, LANES, |i| {
            request(router, queries[(base + i) % queries.len()])
        })?;
        found.attempted += samples.len() as u64;
        found.failed += samples.iter().filter(|s| !s.ok).count() as u64;
        let blocks: Vec<&[Sample]> = samples.chunks(count.div_ceil(4)).collect();
        let mut p99: Vec<f64> = blocks.iter().map(|b| percentile_us(b, 0.99)).collect();
        let last = blocks
            .last()
            .map_or(f64::INFINITY, |b| percentile_us(b, 0.5));
        Ok(samples.iter().all(|s| s.ok) && median(&mut p99) <= limit_us && last <= limit_us)
    };
    let mut steps = 0usize;
    let mut passes = |rate: f64| -> Result<bool, String> {
        steps += 1;
        Ok(trial(rate)? || trial(rate)?)
    };
    let (mut lo, mut hi) = (start, start);
    if passes(start)? {
        loop {
            hi = lo * 1.25;
            if !passes(hi)? {
                break;
            }
            lo = hi;
        }
    } else {
        loop {
            lo = hi / 1.25;
            if passes(lo)? || lo < 1.0 {
                break;
            }
            hi = lo;
        }
    }
    while hi / lo > 1.03 {
        let mid = (lo * hi).sqrt();
        if passes(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    found.rate = lo;
    found.steps = steps;
    Ok(found)
}

/// Whether every shard of the router is building its index.
fn all_building(router: &Router) -> bool {
    router
        .sharded()
        .shards()
        .iter()
        .all(|s| s.store.index_state() == IndexState::Building)
}

/// Sends requests back to back from the lane for `secs` and returns the
/// user CPU time per request, ms (see
/// [`crate::host::process_user_cpu_s`]: it leaves out the time the
/// hypervisor gave to other guests), and the number of requests sent.
fn closed_loop_cpu_ms(
    router: &Router,
    queries: &[usize],
    offset: usize,
    secs: f64,
    out: &mut Outcome,
) -> (f64, usize) {
    let c0 = process_user_cpu_s();
    let t0 = Instant::now();
    let mut sent = 0usize;
    while t0.elapsed().as_secs_f64() < secs {
        out.attempted += 1;
        if !request(router, queries[(offset + sent) % queries.len()]) {
            out.failed += 1;
        }
        sent += 1;
    }
    ((process_user_cpu_s() - c0) * 1e3 / sent.max(1) as f64, sent)
}

/// Runs a serving workload.
pub fn run(kind: Kind, seed: u64, seconds: u64, traced: bool, tmp: &Path) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(Spec::of(kind), seed, seconds, traced, tmp, &mut out) {
        out.check(e, false);
    }
    out
}

fn run_inner(
    spec: Spec,
    seed: u64,
    seconds: u64,
    traced: bool,
    tmp: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    crate::host::check_load_threads(LANES)?;
    let net = crate::data::network(spec.scale, seed);
    let mids = crate::data::midpoints(&net);
    drop(net);
    let n = mids.len();
    let rows = crate::data::serving_rows(&mids, DIM, seed);
    let queries = query_segments(n, 1 << 16, seed);

    // Set-up, repeated; the last build serves the run.
    let mut setup = Vec::with_capacity(spec.setup_reps);
    let mut build_ms = Vec::with_capacity(spec.setup_reps);
    let mut built = None;
    for _ in 0..spec.setup_reps {
        drop(built.take());
        let b = build(&mids, &rows)?;
        setup.push(b.setup_s);
        build_ms.push(b.build_ms as f64);
        built = Some(b);
    }
    let router = built.map(|b| b.router).ok_or("no set-up repetitions")?;
    let shard_rows: Vec<usize> = router
        .sharded()
        .shards()
        .iter()
        .map(|s| s.globals.len())
        .collect();
    out.figure("segments", n as f64, "count", 1);
    out.figure("shards", shard_rows.len() as f64, "count", 1);
    out.figure(
        "min_shard_rows",
        *shard_rows.iter().min().unwrap_or(&0) as f64,
        "count",
        1,
    );
    out.figure(
        "max_shard_rows",
        *shard_rows.iter().max().unwrap_or(&0) as f64,
        "count",
        1,
    );

    // Warm-up: fills caches and arms the router's hedging estimator.
    let warm = 400;
    for &q in queries.iter().take(warm) {
        out.attempted += 1;
        if !request(&router, q) {
            out.failed += 1;
        }
    }

    // Untraced scan and ANN: the closed-loop CPU phase. The traced run
    // reports per-layer metrics instead.
    let churn = spec.kind == Kind::Churn;
    let mut offset = warm;
    let cpu_per_request = if traced || churn {
        None
    } else {
        let (ms, sent) = closed_loop_cpu_ms(
            &router,
            &queries,
            offset,
            seconds as f64 * CPU_PHASE_SHARE,
            out,
        );
        offset += sent;
        Some((ms, sent))
    };

    // The fixed-rate phase; on serve_churn the writer republishes beside
    // it for the whole run.
    let count = (spec.rate * seconds as f64 * spec.phase_share)
        .round()
        .max(1.0) as usize;
    // Under churn, whether every shard was rebuilding when each read was
    // sent.
    let rebuilding: Vec<AtomicBool> = (0..count).map(|_| AtomicBool::new(false)).collect();
    let (samples, publishes) = beside_writer(churn, &router, &rows, seed, 1, tmp, || {
        open_loop(spec.rate, count, LANES, |i| {
            rebuilding[i].store(churn && all_building(&router), AtomicOrdering::Relaxed);
            request(&router, queries[(offset + i) % queries.len()])
        })
    })?;
    out.attempted += samples.len() as u64;
    out.failed += samples.iter().filter(|s| !s.ok).count() as u64;
    let (p50, p90) = blocked_latency_us(&samples, spec.blocks);
    if churn {
        let during: Vec<Sample> = samples
            .iter()
            .zip(&rebuilding)
            .filter(|(_, b)| b.load(AtomicOrdering::Relaxed))
            .map(|(s, _)| *s)
            .collect();
        if during.is_empty() {
            return Err("no read was sent while every shard rebuilt".into());
        }
        let share = during.len() as f64 / samples.len() as f64;
        out.figure("rebuild_read_share", share, "share", samples.len());
        let p50 = blocked_latency_us(&during, spec.blocks).0;
        out.figure("knn_p50_rebuild_us", p50, "us", during.len());
    }
    let p99 = percentile_us(&samples, 0.99);
    let mut late = scaled(&samples.iter().map(|s| s.late).collect::<Vec<_>>(), 1e6);
    out.figure("knn_p50_us", p50, "us", samples.len());
    out.figure("knn_p90_us", p90, "us", samples.len());
    out.figure("knn_p99_us", p99, "us", samples.len());
    out.figure("offered_rate", spec.rate, "1/s", samples.len());

    // Untraced scan and ANN: the capacity search from the same lane,
    // starting at the rate the phase's p50 allows.
    if !traced && !churn {
        let search = max_rate(&router, &queries, LANES as f64 / (p50 / 1e6), 1.0)?;
        out.attempted += search.attempted;
        out.failed += search.failed;
        out.figure("knn_max_qps", search.rate, "1/s", search.steps);
        out.figure(
            "utilisation",
            spec.rate / search.rate,
            "share",
            samples.len(),
        );
    }

    // Republish cost: the writer's on churn, a one-off elsewhere.
    let publishes = if churn {
        if publishes.is_empty() {
            return Err("the churn writer never republished; lengthen --seconds".into());
        }
        publishes
    } else {
        let mut v = Vec::new();
        for rep in 0..spec.publish_reps as u64 {
            v.push(publish(
                &router,
                &crate::data::perturbed(&rows, 0.01, seed ^ (100 + rep)),
                tmp,
            )?);
        }
        v
    };
    out.attempted += publishes.len() as u64;
    let mut total: Vec<f64> = publishes.iter().map(|p| p.total_s()).collect();
    let mut admit: Vec<f64> = publishes.iter().map(|p| p.admit_s).collect();
    let mut ready: Vec<f64> = publishes.iter().map(|p| p.ready_s).collect();
    let mut load: Vec<f64> = publishes.iter().map(|p| p.load_s).collect();
    let mut rebuild: Vec<f64> = publishes.iter().map(|p| p.build_ms as f64).collect();
    out.figure("publish_s", median(&mut admit), "s", publishes.len());
    out.figure("index_ready_s", median(&mut ready), "s", publishes.len());

    // Output checks: every returned (id, score) is re-scored, then the
    // answers are compared with the exact oracle: bit for bit on the
    // scan, by recall on HNSW.
    wait_no_index_pending(router.sharded());
    let sharded = router.sharded();
    let probes = if spec.kind == Kind::Scan { 100 } else { 200 };
    let (mut hits, mut want, mut exact_same, mut misscored) = (0usize, 0usize, 0usize, 0usize);
    for &q in queries.iter().rev().take(probes) {
        let (query, norm) = query_row(sharded, q).ok_or("oracle could not read the query row")?;
        let exact =
            exact_knn(sharded, q, &query, norm).ok_or("oracle could not snapshot a shard")?;
        let routed = router
            .knn(q, K, router.deadline())
            .map_err(|e| format!("oracle probe: {e}"))?;
        let mut ids: Vec<usize> = routed.neighbors.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut scored_right = ids.len() == routed.neighbors.len();
        for &(id, s) in &routed.neighbors {
            scored_right &=
                score_of(sharded, &query, norm, id).is_some_and(|t| t.to_bits() == s.to_bits());
        }
        if !scored_right {
            misscored += 1;
            continue;
        }
        let kth = exact.last().map_or(f32::INFINITY, |&(_, s)| s);
        want += exact.len();
        hits += routed
            .neighbors
            .iter()
            .filter(|&&(_, s)| s >= kth)
            .count()
            .min(exact.len());
        exact_same += usize::from(
            routed.neighbors.len() == exact.len()
                && routed
                    .neighbors
                    .iter()
                    .zip(&exact)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()),
        );
    }
    out.check(
        format!("every routed neighbour is distinct and re-scores to its reported score bit for bit ({misscored}/{probes} answers failed)"),
        misscored == 0,
    );
    let recall = hits as f64 / want.max(1) as f64;
    out.figure("recall_at_10", recall, "share", probes);
    match spec.kind {
        Kind::Scan => out.check(
            format!("scan answers equal the exact oracle bit for bit ({exact_same}/{probes})"),
            exact_same == probes,
        ),
        _ => out.check(
            format!("HNSW recall@10 {recall:.4} >= 0.95"),
            recall >= 0.95,
        ),
    }
    let error_share = out.failed as f64 / out.attempted.max(1) as f64;
    out.figure("error_share", error_share, "share", out.attempted as usize);

    out.e2e("setup_s", median(&mut setup), spec.setup_reps);
    if churn {
        let mut cpu: Vec<f64> = publishes.iter().map(|p| p.cpu_s * 1e3).collect();
        out.e2e("cpu_ms_per_op", median(&mut cpu), publishes.len());
    } else if let Some((ms, sent)) = cpu_per_request {
        out.e2e("cpu_ms_per_op", ms, sent);
    }
    out.e2e("republish_s", median(&mut total), publishes.len());

    if traced {
        out.layer("loadgen.late_us", quantile(&mut late, 0.99), late.len());
        out.layer("io.load_ms", median(&mut load) * 1e3, publishes.len());
        out.layer("shard.admit_ms", median(&mut admit) * 1e3, publishes.len());
        let ann_build = if churn {
            median(&mut rebuild)
        } else {
            median(&mut build_ms)
        };
        out.layer("ann.build_ms", ann_build, publishes.len());
        replay(&router, &rows, &queries, spec, seed, tmp, out)?;
    }
    Ok(())
}

/// One republish's timings.
#[derive(Clone, Copy, Debug)]
struct Publish {
    load_s: f64,
    admit_s: f64,
    ready_s: f64,
    build_ms: u64,
    /// User CPU seconds of the process from the load to every shard
    /// `Ready`: the load, the admit and every index build, plus whatever
    /// reads ran beside them.
    cpu_s: f64,
}

impl Publish {
    fn total_s(&self) -> f64 {
        self.load_s + self.admit_s + self.ready_s
    }
}

/// Exports `next` (untimed, as the trainer would), then times
/// `Tensor::load_validated`, `ShardedStore::admit_changed`, and the
/// wait until no shard is still building its index.
fn publish(router: &Router, next: &Tensor, tmp: &Path) -> Result<Publish, String> {
    let path = tmp.join("serving.emb");
    next.save(&path)
        .map_err(|e| format!("export artifact: {e}"))?;
    let expect = TensorExpectation {
        rows: Some(next.rows()),
        cols: Some(next.cols()),
        finite: true,
    };
    let c0 = process_user_cpu_s();
    let t0 = Instant::now();
    let loaded =
        Tensor::load_validated(&path, &expect).map_err(|e| format!("load artifact: {e}"))?;
    let t1 = Instant::now();
    let swapped = router
        .sharded()
        .admit_changed(&loaded)
        .map_err(|e| format!("admit_changed: {e}"))?;
    let t2 = Instant::now();
    if swapped.len() != router.sharded().num_shards() {
        return Err(format!("a full republish swapped {} shards", swapped.len()));
    }
    wait_no_index_pending(router.sharded());
    let t3 = Instant::now();
    let cpu_s = process_user_cpu_s() - c0;
    let build_ms = match router.health().index {
        IndexState::Ready { build_ms } => build_ms,
        _ => 0,
    };
    Ok(Publish {
        load_s: (t1 - t0).as_secs_f64(),
        admit_s: (t2 - t1).as_secs_f64(),
        ready_s: (t3 - t2).as_secs_f64(),
        build_ms,
        cpu_s,
    })
}

/// Runs `body`; on serve_churn (`churn`) one writer thread republishes
/// a perturbed full artifact beside it, back to back, until `body`
/// returns. Back to back is the heaviest republish load a store meets
/// (a new artifact as soon as the last is served), and it keeps an index
/// rebuilding under nearly every read, so churn's reads are all of one
/// kind; reads with no rebuild are `serve_ann`'s. Returns `body`'s
/// result and the writer's republishes; perturbation seeds start at
/// `seed ^ first_rep`.
fn beside_writer<T>(
    churn: bool,
    router: &Router,
    rows: &Tensor,
    seed: u64,
    first_rep: u64,
    tmp: &Path,
    body: impl FnOnce() -> Result<T, String>,
) -> Result<(T, Vec<Publish>), String> {
    if !churn {
        return Ok((body()?, Vec::new()));
    }
    crate::host::check_load_threads(LANES + 1)?;
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = s.spawn(|| -> Result<Vec<Publish>, String> {
            let mut publishes = Vec::new();
            let mut rep = first_rep;
            while !done.load(AtomicOrdering::SeqCst) {
                let next = crate::data::perturbed(rows, 0.01, seed ^ rep);
                publishes.push(publish(router, &next, tmp)?);
                rep += 1;
            }
            Ok(publishes)
        });
        let result = body();
        done.store(true, AtomicOrdering::SeqCst);
        let publishes = writer
            .join()
            .map_err(|_| "the churn writer panicked".to_string())?;
        Ok((result?, publishes?))
    })
}

/// Traced replay: per request, time `Router::knn`, then replay it
/// through the public parts it is made of and compare answers.
fn replay(
    router: &Router,
    rows: &Tensor,
    queries: &[usize],
    spec: Spec,
    seed: u64,
    tmp: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let sharded = router.sharded();
    let count = 2000usize;
    let mut spans = Spans::default();
    let (mut routed_us, mut snapshot_us, mut legs_us, mut max_leg_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut legs, mut ann_legs, mut fallback_legs) = (0usize, 0usize, 0usize);
    let (mut compared, mut equal) = (0usize, 0usize);

    // Churn: keep republishing beside the replay so legs meet rebuilds.
    let churn = spec.kind == Kind::Churn;
    beside_writer(churn, router, rows, seed, 1 << 20, tmp, || {
        let mut failure = None;
        for &q in queries.iter().take(count) {
            let before: Vec<(Option<u64>, IndexState)> = sharded
                .shards()
                .iter()
                .map(|s| (s.store.generation(), s.store.index_state()))
                .collect();
            let t0 = Instant::now();
            let routed = router.knn(q, K, router.deadline());
            let routed_d = t0.elapsed();
            spans.add("router.knn", routed_d);
            let routed = match routed {
                Ok(r) => r,
                Err(e) => {
                    failure = Some(format!("replay routed request: {e}"));
                    break;
                }
            };

            let t0 = Instant::now();
            let Ok((owner, local)) = sharded.locate(q) else {
                failure = Some("replay locate".into());
                break;
            };
            let Some(owner_gen) = sharded.shard(owner).store.snapshot() else {
                failure = Some("replay owner snapshot".into());
                break;
            };
            let query = owner_gen.embeddings().row_slice(local).to_vec();
            let norm = owner_gen.row_norm(local);
            drop(owner_gen);
            let snap_d = t0.elapsed();

            let mut merged = Vec::with_capacity(K * sharded.num_shards());
            let (mut sum_leg, mut max_leg) = (Duration::ZERO, Duration::ZERO);
            for (si, shard) in sharded.shards().iter().enumerate() {
                let building = shard.store.index_state() == IndexState::Building;
                let exclude = (si == owner).then_some(local);
                let t0 = Instant::now();
                let leg = shard
                    .store
                    .knn_vector(&query, norm, exclude, K, router.deadline());
                let d = t0.elapsed();
                let Ok(knn) = leg else {
                    failure = Some(format!("replay leg on shard {si} failed"));
                    break;
                };
                legs += 1;
                ann_legs += usize::from(knn.ann);
                fallback_legs += usize::from(!knn.ann && building);
                sum_leg += d;
                max_leg = max_leg.max(d);
                merged.extend(knn.neighbors.iter().map(|&(l, s)| (shard.globals[l], s)));
            }
            if failure.is_some() {
                break;
            }
            let replayed = top_k(merged, K);
            spans.add("store.snapshot", snap_d);
            spans.add("store.legs", sum_leg);
            routed_us.push(routed_d.as_secs_f64() * 1e6);
            snapshot_us.push(snap_d.as_secs_f64() * 1e6);
            legs_us.push(sum_leg.as_secs_f64() * 1e6);
            max_leg_us.push(max_leg.as_secs_f64() * 1e6);

            // Compare only when no shard changed generation or index
            // state across the two calls (a churn republish in between
            // legitimately changes the answer).
            let after: Vec<(Option<u64>, IndexState)> = sharded
                .shards()
                .iter()
                .map(|s| (s.store.generation(), s.store.index_state()))
                .collect();
            if before == after && !after.iter().any(|(_, st)| *st == IndexState::Building) {
                compared += 1;
                equal += usize::from(
                    replayed.len() == routed.neighbors.len()
                        && replayed
                            .iter()
                            .zip(&routed.neighbors)
                            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()),
                );
            }
        }
        match failure {
            Some(f) => Err(f),
            None => Ok(()),
        }
    })?;

    out.check(
        format!("replayed fan-out equals Router::knn bit for bit ({equal}/{compared} compared)"),
        compared > 0 && equal == compared,
    );
    let routed_sum: f64 = routed_us.iter().sum();
    let legs_sum: f64 = legs_us.iter().sum();
    let snap_sum: f64 = snapshot_us.iter().sum();
    let r = routed_us.len();
    out.layer("store.snapshot_us", median(&mut snapshot_us), r);
    out.layer("store.leg_us", legs_sum / legs.max(1) as f64, legs);
    out.layer("store.leg_max_us", median(&mut max_leg_us), r);
    out.layer(
        "router.self_us",
        (routed_sum - snap_sum - legs_sum) / r.max(1) as f64,
        r,
    );
    out.layer("router.serial_share", legs_sum / routed_sum, r);
    out.layer(
        "store.ann_share",
        ann_legs as f64 / legs.max(1) as f64,
        legs,
    );
    out.layer(
        "store.fallback_share",
        fallback_legs as f64 / legs.max(1) as f64,
        legs,
    );
    // Coverage: the share of the routed time the replayed layers
    // explain, (snapshot + Σ legs) / routed, i.e. 1 - self / routed.
    out.layer("replay.coverage", (snap_sum + legs_sum) / routed_sum, r);
    out.figure("replay_routed_us", mean(&routed_us), "us", r);

    // The per-query registry lookup an ANN-served leg pays.
    let lookups = 20_000u32;
    let t0 = Instant::now();
    for _ in 0..lookups {
        std::hint::black_box(sarn_obs::counter("sarn_serve_knn_ann_total"));
    }
    out.layer(
        "obs.lookup_ns",
        t0.elapsed().as_secs_f64() * 1e9 / f64::from(lookups),
        lookups as usize,
    );
    for line in spans.lines() {
        eprintln!("[perfbench] {line}");
    }
    Ok(())
}
