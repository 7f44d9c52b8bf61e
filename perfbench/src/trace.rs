//! In-memory spans for the traced mode.
//!
//! The traced run wraps each call into a layer's public function in a
//! span. Spans are kept in memory, aggregated per name when the run
//! ends, and never touch the program under test: its own telemetry
//! stays off.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Busy time and call count per span name.
#[derive(Default, Debug)]
pub struct Spans {
    totals: BTreeMap<&'static str, (Duration, u64)>,
}

impl Spans {
    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed());
        out
    }

    /// Records a span measured elsewhere.
    pub fn add(&mut self, name: &'static str, d: Duration) {
        let e = self.totals.entry(name).or_default();
        e.0 += d;
        e.1 += 1;
    }

    /// Total busy time under `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.totals.get(name).map_or(Duration::ZERO, |e| e.0)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |e| e.1)
    }

    /// Sum of every span's busy time.
    pub fn sum(&self) -> Duration {
        self.totals.values().map(|e| e.0).sum()
    }

    /// Every span name with its total and count, for the run's log.
    pub fn lines(&self) -> Vec<String> {
        self.totals
            .iter()
            .map(|(name, (d, n))| {
                format!(
                    "span {name} total_ms={:.3} count={n}",
                    d.as_secs_f64() * 1e3
                )
            })
            .collect()
    }
}
