//! Sharded-router chaos smoke + latency benchmark, for CI (DESIGN.md §15).
//!
//! Four legs, all exiting non-zero on any contract breach or panic:
//!
//! 1. **Identity** — a healthy [`Router`] over a geo-partitioned
//!    [`ShardedStore`] must answer exact k-NN bitwise identically to one
//!    combined [`EmbeddingStore`], at 1 and at 4 concurrent reader
//!    threads.
//! 2. **Chaos** — kill K of N shards with sticky injected faults while a
//!    4-thread query storm runs against per-shard generation churn. The
//!    router must never panic or serve a torn row: every answer is
//!    full-coverage, typed-partial, or a typed `PartialCoverage` shed.
//!    Clearing the faults must recover to full coverage through the
//!    breakers' probed half-open path.
//! 3. **Hedge** — p50/p99 of routed k-NN with a per-query injected slow
//!    shard, hedging off vs on. The hedged tail must beat the unhedged
//!    tail (the slow primary is cancelled by a duplicate on a healthy
//!    generation) and at least one hedge must actually fire.
//! 4. **Batch** — `knn_batch` must match per-query `knn` answers exactly
//!    while amortizing admission and deadline checks.
//!
//! Emits machine-readable rows through the bench report machinery: run
//! with `SARN_REPORT_JSONL=BENCH_9.json` to produce the committed CI
//! artifact, with the process peak-RSS high-water mark on every row.
//! Scale comes from the usual `SARN_*` knobs; router knobs from
//! `SARN_SERVE_*`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sarn_bench::{ensure, fail, peak_rss_mb, percentile, ExperimentScale, Table};
use sarn_roadnet::{City, RoadNetwork};
use sarn_serve::{
    BreakerConfig, BreakerState, Deadline, EmbeddingStore, Router, RouterConfig, ServeConfig,
    ServeError, ShardFault, ShardedStore,
};
use sarn_tensor::Tensor;

/// Embedding width for the synthetic artifact (no training run: the
/// router contract is independent of how the rows were produced).
const DIM: usize = 32;
/// Queries per thread in the storm legs.
const STORM_QUERIES: usize = 200;
/// Identity probes are capped so huge `SARN_SCALE` settings stay cheap.
const MAX_IDENTITY_PROBES: usize = 512;

/// Deterministic, row-distinguishable, finite embeddings; `salt` varies
/// the generation so churned admits actually change rows.
fn synthetic_embeddings(n: usize, salt: u32) -> Tensor {
    let data = (0..n * DIM)
        .map(|p| {
            let (r, c) = (p / DIM, p % DIM);
            let h = (r * 31 + c * 7 + salt as usize * 13) % 97;
            0.1 + h as f32 / 97.0
        })
        .collect();
    Tensor::from_vec(n, DIM, data)
}

fn serve_cfg() -> ServeConfig {
    ServeConfig::from_env().unwrap_or_else(|e| fail(&format!("bad serve knob: {e}")))
}

fn build_router(net: &RoadNetwork, rcfg: RouterConfig) -> Router {
    let sharded = ShardedStore::for_network(net, DIM, serve_cfg(), rcfg.num_shards)
        .unwrap_or_else(|e| fail(&format!("building sharded store: {e}")));
    ensure(
        sharded.num_shards() > 1,
        "geo partition collapsed to one shard; the smoke needs a real fan-out",
    );
    sharded
        .admit(&synthetic_embeddings(net.num_segments(), 0))
        .unwrap_or_else(|e| fail(&format!("admitting generation 1: {e}")));
    Router::new(sharded, rcfg)
}

/// Leg 1: bitwise identity against the combined store at 1 and 4 readers.
fn identity_leg(net: &RoadNetwork, rcfg: &RouterConfig, table: &mut Table) {
    let n = net.num_segments();
    let router = build_router(
        net,
        RouterConfig {
            hedge: false,
            ..*rcfg
        },
    );
    let single = EmbeddingStore::for_network(net, DIM, serve_cfg())
        .unwrap_or_else(|e| fail(&format!("building combined store: {e}")));
    single
        .admit(synthetic_embeddings(n, 0))
        .unwrap_or_else(|e| fail(&format!("admitting combined store: {e}")));

    let stride = n.div_ceil(MAX_IDENTITY_PROBES).max(1);
    for threads in [1usize, 4] {
        let checked = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (router, single, checked) = (&router, &single, &checked);
                s.spawn(move || {
                    for segment in (0..n).step_by(stride).skip(t).step_by(threads.max(1)) {
                        for k in [1usize, 10] {
                            let ours = router
                                .knn(segment, k, Deadline::unbounded())
                                .unwrap_or_else(|e| fail(&format!("routed knn: {e}")));
                            ensure(ours.coverage.complete(), "healthy fan-out lost coverage");
                            let theirs = single
                                .knn(segment, k, Deadline::unbounded())
                                .unwrap_or_else(|e| fail(&format!("combined knn: {e}")));
                            ensure(
                                ours.neighbors.len() == theirs.neighbors.len(),
                                "routed k-NN width diverged from the combined store",
                            );
                            for (a, b) in ours.neighbors.iter().zip(&theirs.neighbors) {
                                ensure(
                                    a.0 == b.0 && a.1.to_bits() == b.1.to_bits(),
                                    "routed k-NN diverged bitwise from the combined store",
                                );
                            }
                        }
                        checked.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        table.row(vec![
            "identity".to_string(),
            format!("threads={threads}"),
            checked.load(Ordering::Relaxed).to_string(),
            "bitwise==combined".to_string(),
            "-".to_string(),
            "-".to_string(),
            peak_rss_mb(),
        ]);
    }
}

/// Leg 2: kill K of N shards under churn, then recover.
fn chaos_leg(net: &RoadNetwork, rcfg: &RouterConfig, table: &mut Table) {
    let n = net.num_segments();
    let router = build_router(
        net,
        RouterConfig {
            hedge: false,
            shard_retries: 1,
            shard_backoff: Duration::from_millis(1),
            breaker: BreakerConfig {
                failure_threshold: 3,
                open_cooldown: Duration::from_millis(10),
            },
            ..*rcfg
        },
    );
    let shards = router.sharded().num_shards();
    let kill = (shards / 2).max(1);
    for victim in 0..kill {
        router.inject_shard_fault(
            victim,
            Some(ShardFault {
                fail_queries: 1,
                sticky: true,
                ..ShardFault::default()
            }),
        );
    }
    eprintln!("[router_chaos_smoke] chaos: killing {kill}/{shards} shards under churn");

    let ok = AtomicU64::new(0);
    let partial = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let churned = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Churn thread: per-shard generation swaps while the storm runs.
        // `admit_changed` flips only the shards whose rows differ, so
        // readers race real pointer swaps, not a quiesced store.
        s.spawn(|| {
            for round in 1..=8u32 {
                let next = synthetic_embeddings(n, round % 2);
                if router.sharded().admit_changed(&next).is_ok() {
                    churned.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        for t in 0..4usize {
            let (ok, partial, shed) = (&ok, &partial, &shed);
            let router = &router;
            s.spawn(move || {
                for i in 0..STORM_QUERIES {
                    let segment = (i * 4 + t) % n;
                    match router.knn(segment, 5, Deadline::unbounded()) {
                        Ok(answer) => {
                            // Torn-generation detector: merged rows must
                            // be finite, in range, and every answered
                            // shard must report a published generation.
                            for &(id, score) in &answer.neighbors {
                                ensure(id < n && score.is_finite(), "torn answer served");
                            }
                            for sc in &answer.coverage.shards {
                                if sc.generation == Some(0) {
                                    fail("answered shard reported an unpublished generation");
                                }
                            }
                            if answer.coverage.complete() {
                                ok.fetch_add(1, Ordering::Relaxed);
                            } else {
                                partial.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(ServeError::PartialCoverage { .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::Overloaded { .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => fail(&format!("untyped chaos failure: {e}")),
                    }
                }
            });
        }
    });
    let (ok_n, partial_n, shed_n) = (
        ok.load(Ordering::Relaxed),
        partial.load(Ordering::Relaxed),
        shed.load(Ordering::Relaxed),
    );
    ensure(
        churned.load(Ordering::Relaxed) > 0,
        "churn thread never swapped a generation",
    );
    ensure(
        partial_n + shed_n > 0,
        "killing shards produced no degradation at all: faults did not land",
    );
    table.row(vec![
        "chaos".to_string(),
        format!("kill {kill}/{shards}"),
        (4 * STORM_QUERIES).to_string(),
        format!("ok={ok_n} partial={partial_n} shed={shed_n}"),
        "-".to_string(),
        "-".to_string(),
        peak_rss_mb(),
    ]);

    // Recovery: clear the faults and let the breakers probe half-open.
    for victim in 0..kill {
        router.inject_shard_fault(victim, None);
    }
    let t0 = Instant::now();
    let recovered = loop {
        std::thread::sleep(Duration::from_millis(5));
        let answer = router
            .knn(0, 5, Deadline::unbounded())
            .unwrap_or_else(|e| fail(&format!("query during recovery: {e}")));
        if answer.coverage.complete()
            && (0..shards).all(|i| router.breaker_state(i) == BreakerState::Closed)
        {
            break t0.elapsed();
        }
        if t0.elapsed() > Duration::from_secs(10) {
            fail("router did not recover to full coverage within 10s of faults clearing");
        }
    };
    table.row(vec![
        "chaos".to_string(),
        "recovered".to_string(),
        "-".to_string(),
        format!("full coverage in {:.0} ms", recovered.as_secs_f64() * 1e3),
        "-".to_string(),
        "-".to_string(),
        peak_rss_mb(),
    ]);
}

/// Leg 3: hedged vs unhedged tail latency against a slow shard.
fn hedge_leg(net: &RoadNetwork, rcfg: &RouterConfig, table: &mut Table) {
    let n = net.num_segments();
    let delay_ms = 25u64;
    let mut tails = Vec::new();
    for hedge in [false, true] {
        let router = build_router(
            net,
            RouterConfig {
                hedge,
                hedge_factor: 2.0,
                ..*rcfg
            },
        );
        let slow = router.sharded().num_shards() - 1;
        // Warm the per-shard p99 estimators so hedging can arm.
        for i in 0..64 {
            router
                .knn(i % n, 5, Deadline::unbounded())
                .unwrap_or_else(|e| fail(&format!("warmup query: {e}")));
        }
        let mut samples = Vec::with_capacity(STORM_QUERIES);
        for i in 0..STORM_QUERIES {
            // One delayed attempt per query: the primary leg on `slow`
            // stalls, the retry (or the hedge) lands on a clean slot.
            router.inject_shard_fault(
                slow,
                Some(ShardFault {
                    delay_ms,
                    delay_queries: 1,
                    ..ShardFault::default()
                }),
            );
            let t0 = Instant::now();
            let answer = router
                .knn(i % n, 5, Deadline::unbounded())
                .unwrap_or_else(|e| fail(&format!("hedge-leg query: {e}")));
            samples.push(t0.elapsed());
            ensure(answer.coverage.complete(), "slow shard cost coverage");
        }
        samples.sort();
        let (p50, p99) = (percentile(&samples, 0.50), percentile(&samples, 0.99));
        if hedge {
            ensure(
                router.hedges_fired() > 0,
                "hedging on but no hedge ever fired",
            );
        }
        tails.push(p99);
        table.row(vec![
            "hedge".to_string(),
            format!(
                "hedge={} slow_shard={delay_ms}ms",
                if hedge { "on" } else { "off" }
            ),
            STORM_QUERIES.to_string(),
            format!("hedges={}", router.hedges_fired()),
            format!("{:.0}", p50.as_secs_f64() * 1e6),
            format!("{:.0}", p99.as_secs_f64() * 1e6),
            peak_rss_mb(),
        ]);
    }
    ensure(
        tails[1] < tails[0],
        "hedged p99 did not beat the unhedged p99 against a slow shard",
    );
}

/// Leg 4: batched queries match per-query answers.
fn batch_leg(net: &RoadNetwork, rcfg: &RouterConfig, table: &mut Table) {
    let n = net.num_segments();
    let router = build_router(
        net,
        RouterConfig {
            hedge: false,
            ..*rcfg
        },
    );
    let ids: Vec<usize> = (0..STORM_QUERIES.min(n)).collect();
    let t0 = Instant::now();
    let batched = router
        .knn_batch(&ids, 5, Deadline::unbounded())
        .unwrap_or_else(|e| fail(&format!("knn_batch: {e}")));
    let batch_elapsed = t0.elapsed();
    let t1 = Instant::now();
    for (i, &segment) in ids.iter().enumerate() {
        let single = router
            .knn(segment, 5, Deadline::unbounded())
            .unwrap_or_else(|e| fail(&format!("per-query knn: {e}")));
        let b = match &batched[i] {
            Ok(b) => b,
            Err(e) => fail(&format!("batched slot {i} failed on a healthy router: {e}")),
        };
        let same = b.neighbors.len() == single.neighbors.len()
            && b.neighbors
                .iter()
                .zip(&single.neighbors)
                .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits());
        ensure(same, "knn_batch diverged from per-query knn");
    }
    let single_elapsed = t1.elapsed();
    let per = |d: Duration| format!("{:.0}", d.as_secs_f64() * 1e6 / ids.len() as f64);
    table.row(vec![
        "batch".to_string(),
        format!("batch_of_{}", ids.len()),
        ids.len().to_string(),
        "bitwise==per-query".to_string(),
        per(batch_elapsed),
        per(single_elapsed),
        peak_rss_mb(),
    ]);
}

fn main() {
    let scale = ExperimentScale::from_env();
    let net = scale.network(City::Chengdu);
    let rcfg = RouterConfig::from_env().unwrap_or_else(|e| fail(&format!("bad router knob: {e}")));
    eprintln!(
        "[router_chaos_smoke] {} segments, {} shards requested",
        net.num_segments(),
        rcfg.num_shards
    );
    let mut table = Table::new(
        "router_chaos_smoke",
        &[
            "leg",
            "config",
            "queries",
            "outcome",
            "p50_us",
            "p99_us",
            "peak_rss_mb",
        ],
    );
    identity_leg(&net, &rcfg, &mut table);
    chaos_leg(&net, &rcfg, &mut table);
    hedge_leg(&net, &rcfg, &mut table);
    batch_leg(&net, &rcfg, &mut table);
    table.print();
    eprintln!("[router_chaos_smoke] ok");
}
