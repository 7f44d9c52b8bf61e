//! The fault-isolating shard router: breakers, budgets, hedges, and
//! typed partial-coverage answers over a [`ShardedStore`].
//!
//! Every fan-out query runs the same per-shard pipeline:
//!
//! 1. **Breaker gate** — the shard's [`CircuitBreaker`] admits, rejects
//!    (quarantine: the router routes around the shard and says so in the
//!    [`Coverage`] report), or grants the half-open probe slot.
//! 2. **Budgeted attempt** — the request [`Deadline`] is carved with
//!    [`Deadline::split`] so one slow shard can burn only its slice of
//!    the budget, with bounded doubling-backoff retries on typed
//!    failures.
//! 3. **Hedge** — when hedging is on and the shard's tracked p99 is
//!    warm, an attempt that outlives `p99 × hedge_factor` gets a
//!    duplicate fired against the same shard; first answer wins, the
//!    straggler is abandoned (its send fails harmlessly).
//! 4. **Degrade** — a shard whose exact leg exhausts retries gets one
//!    rescue: its *ANN* leg (the shard's HNSW index, when one is ready —
//!    approximate neighbors at full candidate coverage), reported as
//!    degraded coverage. A shard without a ready index fails.
//!
//! Shards that still fail are dropped from the answer rather than
//! failing it: the response carries a typed [`Coverage`] report
//! (answered / degraded / quarantined / failed per shard) and only falls
//! to a typed [`ServeError::PartialCoverage`] when fewer than
//! `min_shards` contributed. Every breaker transition, hedge, quarantine
//! boundary, and partial answer is journaled and counted through
//! `sarn-obs`.
//!
//! With all shards healthy the merged answer is **bitwise identical** to
//! a single combined [`crate::EmbeddingStore`]: shard rows hold the same
//! bytes, scoring runs the same kernel in the same operand order, and
//! the shared `top_k` comparator is a strict total order over unique
//! ids, so per-shard top-k union merges to exactly the single-store
//! neighbor list (see `tests/sys/tests/router_sharded.rs`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::breaker::{Admission, BreakerState, CircuitBreaker, Transition};
use crate::config::{LoadFault, RouterConfig};
use crate::deadline::Deadline;
use crate::error::ServeError;
use crate::shard::ShardedStore;
use crate::store::{
    lock_recovering, top_k, EmbeddingStore, HealthReport, IndexState, Knn, ServeState, ShardHealth,
};

/// Deterministic, test-only sabotage of one shard's *query* path — the
/// serving analogue of [`LoadFault`], driving the chaos tests: latency
/// inflation, transient or sticky typed errors, forced staleness.
/// Installed with [`Router::inject_shard_fault`]; reload corruption is
/// injected separately through the shard store's own [`LoadFault`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardFault {
    /// The next this many query attempts fail with an injected typed
    /// error (each attempt decrements, so retry/hedge duplicates consume
    /// the fault and can land on a healthy slot).
    pub fail_queries: u32,
    /// When set, `fail_queries` never decrements: the shard fails every
    /// attempt until the fault is cleared — the breaker-exhaustion case.
    pub sticky: bool,
    /// Sleep injected into the next `delay_queries` attempts.
    pub delay_ms: u64,
    /// How many attempts `delay_ms` applies to (`u32::MAX` ≈ all).
    pub delay_queries: u32,
    /// Health reports this shard as [`ServeState::Stale`] regardless of
    /// its generation's real age.
    pub force_stale: bool,
}

/// How one shard contributed to a fan-out answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardOutcome {
    /// Contributed its exact leg.
    Answered,
    /// Its exact leg failed; contributed its ready HNSW index's
    /// approximate neighbors instead (the degrade ladder's one rescue).
    DegradedAnn,
    /// Breaker open: routed around, not consulted.
    Quarantined,
    /// Consulted but every attempt failed; its rows are missing.
    Failed,
}

/// One shard's line in a [`Coverage`] report.
#[derive(Clone, Debug)]
pub struct ShardCoverage {
    /// The shard.
    pub shard: usize,
    /// What it contributed.
    pub outcome: ShardOutcome,
    /// Generation it answered with (its last known one when skipped).
    pub generation: Option<u64>,
    /// The typed error that cost this shard its exact leg, rendered
    /// (`None` unless the outcome is degraded or failed).
    pub error: Option<String>,
}

/// The typed partial-result report carried by every routed answer
/// instead of an error: which shards answered, which degraded to the
/// ANN leg, which were quarantined or failed outright.
#[derive(Clone, Debug)]
pub struct Coverage {
    /// Shards in the fan-out (full coverage = this many answered).
    pub total: usize,
    /// Shards that contributed rows (exact or degraded).
    pub answered: usize,
    /// Of the answered, how many degraded to the ANN leg.
    pub degraded: usize,
    /// Per-shard outcomes, shard-id ascending.
    pub shards: Vec<ShardCoverage>,
}

impl Coverage {
    /// `true` when every shard answered its exact leg.
    pub fn complete(&self) -> bool {
        self.answered == self.total && self.degraded == 0
    }
}

/// A routed k-NN answer: globally-merged neighbors plus the coverage
/// report describing which shards stand behind them.
#[derive(Clone, Debug)]
pub struct RoutedKnn {
    /// `(global segment id, cosine similarity)`, most similar first,
    /// ties on ascending id — the single store's exact ordering.
    pub neighbors: Vec<(usize, f32)>,
    /// Which shards contributed.
    pub coverage: Coverage,
}

/// Bucketed p99 latency estimate for one shard, feeding the hedge
/// trigger: the standard log-spaced latency buckets
/// ([`sarn_obs::latency_boundaries`]) with lock-free atomic counts, read
/// through the shared [`sarn_obs::quantile_from_buckets`] estimator (the
/// same cumulative-bucket walk the exported histograms use — and, unlike
/// [`sarn_obs::Histogram`], recording here is *not* gated on the
/// telemetry flag: hedging must work with telemetry off). Stays `None`
/// (hedging disarmed) until enough samples make a p99 meaningful.
#[derive(Debug)]
struct LatencyTracker {
    boundaries: Vec<f64>,
    counts: Vec<AtomicU64>,
    total: AtomicU64,
}

impl Default for LatencyTracker {
    fn default() -> Self {
        let boundaries = sarn_obs::latency_boundaries();
        let counts = (0..=boundaries.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            boundaries,
            counts,
            total: AtomicU64::new(0),
        }
    }
}

impl LatencyTracker {
    const MIN_SAMPLES: u64 = 16;

    fn record(&self, seconds: f64) {
        let idx = sarn_obs::bucket_index(&self.boundaries, seconds);
        self.counts[idx].fetch_add(1, AtomicOrdering::Relaxed);
        self.total.fetch_add(1, AtomicOrdering::Relaxed);
    }

    fn p99(&self) -> Option<Duration> {
        if self.total.load(AtomicOrdering::Relaxed) < Self::MIN_SAMPLES {
            return None;
        }
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(AtomicOrdering::Relaxed))
            .collect();
        sarn_obs::quantile_from_buckets(&self.boundaries, &counts, 0.99)
            .map(|s| Duration::from_secs_f64(s.max(0.0)))
    }
}

/// Everything the router keeps per shard.
struct ShardRuntime {
    index: usize,
    store: Arc<EmbeddingStore>,
    globals: Arc<Vec<usize>>,
    breaker: CircuitBreaker,
    fault: Mutex<Option<ShardFault>>,
    latency: LatencyTracker,
}

impl ShardRuntime {
    /// Consumes one attempt's worth of injected fault: returns the typed
    /// error to fail with, after applying any injected delay.
    fn apply_fault(&self) -> Result<(), ServeError> {
        let (delay_ms, fail) = {
            let mut guard = lock_recovering(&self.fault);
            match guard.as_mut() {
                None => (0, false),
                Some(f) => {
                    let delay = if f.delay_queries > 0 {
                        f.delay_queries = f.delay_queries.saturating_sub(1);
                        f.delay_ms
                    } else {
                        0
                    };
                    let fail = f.fail_queries > 0;
                    if fail && !f.sticky {
                        f.fail_queries -= 1;
                    }
                    (delay, fail)
                }
            }
        };
        if delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(delay_ms));
        }
        if fail {
            return Err(ServeError::Load(sarn_tensor::IoError::Io(
                std::io::Error::other("injected shard fault"),
            )));
        }
        Ok(())
    }

    fn forced_stale(&self) -> bool {
        lock_recovering(&self.fault).is_some_and(|f| f.force_stale)
    }

    /// A leg's answer with local row ids mapped back to global ids.
    fn partial(&self, knn: Knn) -> ShardPartial {
        ShardPartial {
            pairs: knn
                .neighbors
                .iter()
                .map(|&(l, s)| (self.globals[l], s))
                .collect(),
            generation: knn.generation,
        }
    }
}

/// What one shard's query leg produced: `(global id, score)` pairs plus
/// the generation they came from.
struct ShardPartial {
    pairs: Vec<(usize, f32)>,
    generation: u64,
}

/// A per-shard attempt, cloneable into hedge threads.
type AttemptFn = Arc<dyn Fn() -> Result<ShardPartial, ServeError> + Send + Sync>;

enum ShardResult {
    Answered(ShardPartial),
    Quarantined,
    Failed(ServeError),
}

/// RAII router admission slot (on top of the per-shard store ceilings).
struct RouterTicket<'a> {
    inflight: &'a AtomicUsize,
}

impl Drop for RouterTicket<'_> {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, AtomicOrdering::AcqRel);
    }
}

/// The shard router: fronts a [`ShardedStore`] with per-shard circuit
/// breakers, deadline-budget fan-out, hedged retries, and typed
/// partial-coverage degradation. See the module docs for the pipeline.
pub struct Router {
    sharded: ShardedStore,
    rcfg: RouterConfig,
    runtimes: Vec<Arc<ShardRuntime>>,
    inflight: AtomicUsize,
    served: AtomicU64,
    shed: AtomicU64,
    partial: AtomicU64,
    hedges: AtomicU64,
    started: Instant,
}

impl Router {
    /// Fronts an already-partitioned store. `cfg.num_shards` is not
    /// consulted here — the partition count was fixed when `sharded` was
    /// built; `min_shards` larger than the actual shard count is clamped
    /// to it (otherwise no answer could ever satisfy it).
    pub fn new(sharded: ShardedStore, cfg: RouterConfig) -> Self {
        let runtimes = sharded
            .shards()
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                Arc::new(ShardRuntime {
                    index,
                    store: shard.store.clone(),
                    globals: shard.globals.clone(),
                    breaker: CircuitBreaker::new(cfg.breaker),
                    fault: Mutex::new(None),
                    latency: LatencyTracker::default(),
                })
            })
            .collect();
        Self {
            sharded,
            rcfg: cfg,
            runtimes,
            inflight: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            partial: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// The partitioned store behind this router.
    pub fn sharded(&self) -> &ShardedStore {
        &self.sharded
    }

    /// The router's knobs.
    pub fn config(&self) -> &RouterConfig {
        &self.rcfg
    }

    /// A fresh deadline carrying the store's configured default budget.
    pub fn deadline(&self) -> Deadline {
        Deadline::from_budget(self.sharded.config().default_deadline)
    }

    /// One shard's breaker state (test/operator introspection).
    pub fn breaker_state(&self, shard: usize) -> BreakerState {
        self.runtimes[shard].breaker.state()
    }

    /// Hedged duplicates fired over the router's lifetime.
    pub fn hedges_fired(&self) -> u64 {
        self.hedges.load(AtomicOrdering::Relaxed)
    }

    /// Answers that shipped with incomplete coverage.
    pub fn partial_total(&self) -> u64 {
        self.partial.load(AtomicOrdering::Relaxed)
    }

    /// Installs (or clears) a query-path fault on one shard.
    pub fn inject_shard_fault(&self, shard: usize, fault: Option<ShardFault>) {
        *lock_recovering(&self.runtimes[shard].fault) = fault;
    }

    /// Installs (or clears) a reload-path fault on one shard's store.
    pub fn inject_shard_load_fault(&self, shard: usize, fault: Option<LoadFault>) {
        self.runtimes[shard].store.inject_fault(fault);
    }

    fn try_ticket(&self) -> Result<RouterTicket<'_>, ServeError> {
        let mut cur = self.inflight.load(AtomicOrdering::Acquire);
        loop {
            if cur >= self.rcfg.router_max_inflight {
                self.shed.fetch_add(1, AtomicOrdering::Relaxed);
                sarn_obs::counter("sarn_serve_router_shed_total").inc();
                return Err(ServeError::Overloaded {
                    inflight: cur,
                    max_inflight: self.rcfg.router_max_inflight,
                });
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                AtomicOrdering::AcqRel,
                AtomicOrdering::Acquire,
            ) {
                Ok(_) => {
                    return Ok(RouterTicket {
                        inflight: &self.inflight,
                    })
                }
                Err(actual) => cur = actual,
            }
        }
    }

    // ---- per-shard machinery --------------------------------------------

    fn journal_transition(&self, rt: &ShardRuntime, (from, to): Transition) {
        let consecutive_failures = rt.breaker.consecutive_failures();
        sarn_obs::counter("sarn_serve_breaker_transitions_total").inc();
        sarn_obs::record(sarn_obs::Event::BreakerTransition {
            shard: rt.index,
            from: from.name().to_string(),
            to: to.name().to_string(),
            consecutive_failures,
        });
        match (from, to) {
            (BreakerState::Closed, BreakerState::Open) => {
                sarn_obs::counter("sarn_serve_quarantine_total").inc();
                sarn_obs::record(sarn_obs::Event::QuarantineEnter {
                    shard: rt.index,
                    consecutive_failures,
                });
            }
            (BreakerState::HalfOpen, BreakerState::Closed) => {
                sarn_obs::record(sarn_obs::Event::QuarantineExit { shard: rt.index });
            }
            // Open → half-open (probe granted) and half-open → open
            // (probe failed) stay inside quarantine: no boundary event.
            _ => {}
        }
    }

    /// One attempt, hedged: inline when hedging is off or the latency
    /// estimate is cold; otherwise the primary runs on a worker thread
    /// and a duplicate fires after `p99 × hedge_factor`, first answer
    /// winning. Stragglers are detached — their send to the dropped
    /// channel fails harmlessly — so a slow primary cannot hold the
    /// request hostage, which is the whole point of hedging.
    ///
    /// Returns the outcome plus whether a hedge fired. Hedged calls are
    /// excluded from the latency estimator: their measured wait is the
    /// hedge threshold itself, and feeding it back would double the
    /// threshold on every hedge until hedging disarmed against the very
    /// shard it is protecting the tail from.
    fn run_hedged(
        &self,
        rt: &Arc<ShardRuntime>,
        attempt: &AttemptFn,
        deadline: &Deadline,
    ) -> (Result<ShardPartial, ServeError>, bool) {
        let threshold = if self.rcfg.hedge {
            rt.latency
                .p99()
                .map(|p| p.mul_f64(self.rcfg.hedge_factor.max(1.0)))
        } else {
            None
        };
        let Some(threshold) = threshold else {
            return (attempt(), false);
        };
        let threshold = threshold.max(Duration::from_micros(50));
        let (tx, rx) = mpsc::channel();
        let primary = attempt.clone();
        let tx1 = tx.clone();
        std::thread::spawn(move || {
            let _ = tx1.send(primary());
        });
        match rx.recv_timeout(threshold) {
            Ok(res) => (res, false),
            Err(RecvTimeoutError::Timeout) => {
                self.hedges.fetch_add(1, AtomicOrdering::Relaxed);
                sarn_obs::counter("sarn_serve_hedge_total").inc();
                sarn_obs::record(sarn_obs::Event::HedgeFired {
                    shard: rt.index,
                    after_ms: threshold.as_secs_f64() * 1e3,
                });
                let hedge = attempt.clone();
                std::thread::spawn(move || {
                    let _ = tx.send(hedge());
                });
                // Wait out the rest of this shard's budget slice for
                // whichever copy lands first (unbounded budgets get a
                // generous cap so a doubly-stuck shard cannot wedge us).
                let wait = deadline
                    .remaining()
                    .unwrap_or(Duration::from_secs(5))
                    .max(threshold);
                let res = match rx.recv_timeout(wait) {
                    Ok(res) => res,
                    Err(_) => Err(ServeError::DeadlineExceeded {
                        elapsed: deadline.elapsed(),
                        budget: deadline.budget().unwrap_or_default(),
                    }),
                };
                (res, true)
            }
            Err(RecvTimeoutError::Disconnected) => (
                Err(ServeError::DeadlineExceeded {
                    elapsed: deadline.elapsed(),
                    budget: deadline.budget().unwrap_or_default(),
                }),
                false,
            ),
        }
    }

    /// Bounded retry with doubling backoff around [`Router::run_hedged`].
    /// Deadline and unknown-segment failures are terminal (the budget is
    /// gone / the request can never succeed); everything else retries up
    /// to `shard_retries` times.
    fn call_shard(
        &self,
        rt: &Arc<ShardRuntime>,
        attempt: &AttemptFn,
        deadline: &Deadline,
    ) -> Result<ShardPartial, ServeError> {
        let mut backoff = self.rcfg.shard_backoff;
        let mut tries = 0usize;
        loop {
            let t0 = Instant::now();
            let (res, hedged) = self.run_hedged(rt, attempt, deadline);
            match res {
                Ok(p) => {
                    // Only un-hedged successes feed the p99 estimator —
                    // see the pollution argument on [`Router::run_hedged`].
                    if !hedged {
                        rt.latency.record(t0.elapsed().as_secs_f64());
                    }
                    return Ok(p);
                }
                Err(e) => {
                    let terminal = matches!(
                        e,
                        ServeError::DeadlineExceeded { .. } | ServeError::UnknownSegment { .. }
                    );
                    if terminal || tries >= self.rcfg.shard_retries {
                        return Err(e);
                    }
                    tries += 1;
                    // Never sleep past the shard's remaining slice.
                    let nap = match deadline.remaining() {
                        Some(rem) => backoff.min(rem),
                        None => backoff,
                    };
                    if !nap.is_zero() {
                        std::thread::sleep(nap);
                    }
                    backoff = backoff.saturating_mul(2);
                }
            }
        }
    }

    /// The full per-shard pipeline: breaker gate, budgeted hedged
    /// attempts, outcome recording. Exactly one journal entry per breaker
    /// state change (the CAS winner inside the breaker reports it here).
    fn query_shard(
        &self,
        rt: &Arc<ShardRuntime>,
        attempt: &AttemptFn,
        deadline: &Deadline,
    ) -> ShardResult {
        let (admission, transition) = rt.breaker.try_admit();
        if let Some(t) = transition {
            self.journal_transition(rt, t);
        }
        if admission == Admission::Reject {
            return ShardResult::Quarantined;
        }
        let probe = admission == Admission::Probe;
        match self.call_shard(rt, attempt, deadline) {
            Ok(partial) => {
                if probe {
                    if let Some(t) = rt.breaker.record_probe(true) {
                        self.journal_transition(rt, t);
                    }
                } else {
                    rt.breaker.record_success();
                }
                ShardResult::Answered(partial)
            }
            Err(e) => {
                if probe {
                    if let Some(t) = rt.breaker.record_probe(false) {
                        self.journal_transition(rt, t);
                    }
                } else if let Some(t) = rt.breaker.record_failure() {
                    self.journal_transition(rt, t);
                }
                ShardResult::Failed(e)
            }
        }
    }

    // ---- queries ---------------------------------------------------------

    /// Exact k-NN fan-out across every shard: bitwise identical to
    /// [`EmbeddingStore::knn`] on a combined store when all shards are
    /// healthy, partial (with typed [`Coverage`]) when they are not.
    pub fn knn(
        &self,
        segment: usize,
        k: usize,
        deadline: Deadline,
    ) -> Result<RoutedKnn, ServeError> {
        let _ticket = self.try_ticket()?;
        self.knn_fanout(segment, k, deadline)
    }

    /// Batched fan-out, amortizing the per-request admission work: one
    /// router ticket covers the whole batch, and request `i` of `m` gets
    /// a [`Deadline::split`] slice of whatever budget the earlier
    /// requests left (early finishers donate their surplus). Per-request
    /// failures stay per-request — one bad segment id does not fail its
    /// batch-mates.
    pub fn knn_batch(
        &self,
        segments: &[usize],
        k: usize,
        deadline: Deadline,
    ) -> Result<Vec<Result<RoutedKnn, ServeError>>, ServeError> {
        let _ticket = self.try_ticket()?;
        let m = segments.len();
        let mut answers = Vec::with_capacity(m);
        for (i, &segment) in segments.iter().enumerate() {
            let slice = deadline.split(m - i);
            answers.push(self.knn_fanout(segment, k, slice));
        }
        Ok(answers)
    }

    fn knn_fanout(
        &self,
        segment: usize,
        k: usize,
        deadline: Deadline,
    ) -> Result<RoutedKnn, ServeError> {
        let _latency = sarn_obs::span!("sarn_serve_router_knn_seconds");
        deadline.check()?;
        let (owner, local) = self.sharded.locate(segment)?;
        // The query row's bytes and norm come from the owner shard's
        // generation — the same bytes (and therefore the same norm f32)
        // the combined store would use. Read via a raw snapshot, not the
        // query path: fault injection sabotages *serving* legs, but a
        // router that cannot even read the query row has nothing to fan
        // out, so that is the one genuinely fatal dependency.
        let owner_gen = self.runtimes[owner]
            .store
            .snapshot()
            .ok_or(ServeError::NotReady)?;
        let query: Arc<Vec<f32>> = Arc::new(owner_gen.embeddings().row_slice(local).to_vec());
        let query_norm = owner_gen.row_norm(local);
        drop(owner_gen);

        let total = self.runtimes.len();
        let mut merged: Vec<(usize, f32)> = Vec::new();
        let mut shards_cov: Vec<ShardCoverage> = Vec::with_capacity(total);
        let (mut answered, mut degraded) = (0usize, 0usize);
        for (i, rt) in self.runtimes.iter().enumerate() {
            // Divide what is left of the budget among the shards still
            // waiting: early fast shards donate surplus to later ones.
            let slice = deadline.split(total - i);
            let exclude = (rt.index == owner).then_some(local);
            let attempt = self.make_attempt(rt, &query, query_norm, exclude, k, slice);
            match self.query_shard(rt, &attempt, &slice) {
                ShardResult::Answered(p) => {
                    merged.extend(p.pairs);
                    answered += 1;
                    shards_cov.push(ShardCoverage {
                        shard: rt.index,
                        outcome: ShardOutcome::Answered,
                        generation: Some(p.generation),
                        error: None,
                    });
                }
                ShardResult::Quarantined => shards_cov.push(ShardCoverage {
                    shard: rt.index,
                    outcome: ShardOutcome::Quarantined,
                    generation: rt.store.generation(),
                    error: None,
                }),
                ShardResult::Failed(e) => {
                    // Degrade ladder: rescue this shard's contribution
                    // with its ready ANN index (full candidate coverage,
                    // approximate ranking) before giving up on it.
                    sarn_obs::counter("sarn_serve_shard_failed_total").inc();
                    match self.ann_leg(rt, &query, query_norm, exclude, k, &deadline) {
                        Some(p) => {
                            merged.extend(p.pairs);
                            answered += 1;
                            degraded += 1;
                            sarn_obs::counter("sarn_serve_router_ann_rescue_total").inc();
                            shards_cov.push(ShardCoverage {
                                shard: rt.index,
                                outcome: ShardOutcome::DegradedAnn,
                                generation: Some(p.generation),
                                error: Some(e.to_string()),
                            });
                        }
                        None => shards_cov.push(ShardCoverage {
                            shard: rt.index,
                            outcome: ShardOutcome::Failed,
                            generation: rt.store.generation(),
                            error: Some(e.to_string()),
                        }),
                    }
                }
            }
        }

        let min_shards = self.rcfg.min_shards.min(total.max(1));
        if answered < min_shards {
            sarn_obs::counter("sarn_serve_router_refused_total").inc();
            return Err(ServeError::PartialCoverage {
                answered,
                total,
                min_shards,
            });
        }
        let coverage = Coverage {
            total,
            answered,
            degraded,
            shards: shards_cov,
        };
        if !coverage.complete() {
            self.partial.fetch_add(1, AtomicOrdering::Relaxed);
            sarn_obs::counter("sarn_serve_partial_total").inc();
            sarn_obs::record(sarn_obs::Event::PartialCoverage { answered, total });
        }
        self.served.fetch_add(1, AtomicOrdering::Relaxed);
        Ok(RoutedKnn {
            neighbors: top_k(merged, k),
            coverage,
        })
    }

    /// Builds the cloneable per-shard attempt closure: consume one
    /// fault-injection step, run the shard's k-NN leg, map local ids back
    /// to global.
    fn make_attempt(
        &self,
        rt: &Arc<ShardRuntime>,
        query: &Arc<Vec<f32>>,
        query_norm: f32,
        exclude: Option<usize>,
        k: usize,
        slice: Deadline,
    ) -> AttemptFn {
        let rt = rt.clone();
        let query = query.clone();
        Arc::new(move || {
            rt.apply_fault()?;
            let knn = rt.store.knn_vector(&query, query_norm, exclude, k, slice)?;
            Ok(rt.partial(knn))
        })
    }

    /// The ANN rescue leg: answer from this shard's HNSW index when one
    /// is ready (`None` otherwise — absent, building, or fell back),
    /// outside the breaker (it already recorded the exact leg's failure)
    /// and with one slice of whatever budget remains.
    fn ann_leg(
        &self,
        rt: &Arc<ShardRuntime>,
        query: &Arc<Vec<f32>>,
        query_norm: f32,
        exclude: Option<usize>,
        k: usize,
        deadline: &Deadline,
    ) -> Option<ShardPartial> {
        let slice = deadline.split(1);
        rt.apply_fault().ok()?;
        let knn = rt
            .store
            .knn_vector_ann(query, query_norm, exclude, k, slice)
            .ok()?;
        Some(rt.partial(knn))
    }

    // ---- health ----------------------------------------------------------

    /// Shard-aware health: the aggregate `state` is the *worst* shard's
    /// (an open breaker counts as degraded even while the shard's own
    /// store is nominally serving), and `shards` lists every shard's
    /// generation, age, and breaker position — the staleness SLO fires
    /// per shard.
    pub fn health(&self) -> HealthReport {
        fn severity(state: &ServeState) -> u8 {
            match state {
                ServeState::Serving { .. } => 0,
                ServeState::Stale { .. } => 1,
                ServeState::Degraded { .. } => 2,
                ServeState::Shedding { .. } => 3,
                ServeState::Loading => 4,
            }
        }
        let mut shards = Vec::with_capacity(self.runtimes.len());
        let mut worst: Option<ServeState> = None;
        let (mut reloads_ok, mut reloads_failed) = (0u64, 0u64);
        let (mut shed_total, mut served_total) = (0u64, 0u64);
        let mut consecutive_reload_failures = 0u32;
        let mut last_reload_error = None;
        let mut inflight = 0usize;
        let mut generations = Vec::with_capacity(self.runtimes.len());
        let mut oldest_age: Option<Duration> = None;
        let mut index_states = Vec::with_capacity(self.runtimes.len());
        for rt in &self.runtimes {
            let h = rt.store.health();
            let breaker = rt.breaker.state();
            let index = rt.store.index_state();
            index_states.push(index);
            // Effective shard state: forced staleness and an open breaker
            // both degrade a nominally-serving shard.
            let state = if rt.forced_stale() {
                ServeState::Stale {
                    generation: h.generation.unwrap_or(0),
                    age: h.generation_age.unwrap_or_default(),
                }
            } else if breaker != BreakerState::Closed
                && severity(&h.state)
                    < severity(&ServeState::Degraded {
                        generation: 0,
                        consecutive_failures: 0,
                    })
            {
                ServeState::Degraded {
                    generation: h.generation.unwrap_or(0),
                    consecutive_failures: rt.breaker.consecutive_failures().max(1),
                }
            } else {
                h.state
            };
            if worst
                .as_ref()
                .is_none_or(|w| severity(&state) > severity(w))
            {
                worst = Some(state);
            }
            reloads_ok += h.reloads_ok;
            reloads_failed += h.reloads_failed;
            shed_total += h.shed_total;
            served_total += h.served_total;
            inflight += h.inflight;
            consecutive_reload_failures =
                consecutive_reload_failures.max(h.consecutive_reload_failures);
            if last_reload_error.is_none() {
                last_reload_error = h.last_reload_error.clone();
            }
            generations.push(h.generation);
            if let Some(age) = h.generation_age {
                oldest_age = Some(oldest_age.map_or(age, |o| o.max(age)));
            }
            shards.push(ShardHealth {
                shard: rt.index,
                state,
                generation: h.generation,
                generation_age: h.generation_age,
                breaker,
                consecutive_failures: rt.breaker.consecutive_failures(),
                segments: rt.globals.len(),
                index,
            });
        }
        // Pessimistic aggregate: any shard serving without its index
        // (FellBack) dominates, then any still building; Ready only when
        // every shard is, reporting the slowest build.
        let index = if index_states
            .iter()
            .any(|s| matches!(s, IndexState::FellBack))
        {
            IndexState::FellBack
        } else if index_states
            .iter()
            .any(|s| matches!(s, IndexState::Building))
        {
            IndexState::Building
        } else {
            let builds: Vec<u64> = index_states
                .iter()
                .filter_map(|s| match s {
                    IndexState::Ready { build_ms } => Some(*build_ms),
                    _ => None,
                })
                .collect();
            if !index_states.is_empty() && builds.len() == index_states.len() {
                IndexState::Ready {
                    build_ms: builds.into_iter().max().unwrap_or(0),
                }
            } else {
                IndexState::None
            }
        };
        // The aggregate generation is only meaningful when every shard
        // serves the same one (per-shard swaps legitimately diverge).
        let generation = match generations.first().copied().flatten() {
            Some(g) if generations.iter().all(|&x| x == Some(g)) => Some(g),
            _ => None,
        };
        HealthReport {
            state: worst.unwrap_or(ServeState::Loading),
            generation,
            consecutive_reload_failures,
            reloads_ok,
            reloads_failed,
            last_reload_error,
            inflight: inflight + self.inflight.load(AtomicOrdering::Acquire),
            shed_total: shed_total + self.shed.load(AtomicOrdering::Relaxed),
            served_total: served_total.max(self.served.load(AtomicOrdering::Relaxed)),
            uptime: self.started.elapsed(),
            generation_age: oldest_age,
            metrics: sarn_obs::enabled().then(|| sarn_obs::Registry::global().snapshot()),
            index,
            shards,
        }
    }
}
