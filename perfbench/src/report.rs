//! The result line the benchmark prints, and the metric catalogue.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`: every workload reports every one.
/// What each means on each workload is in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_ms_per_op", "ms"),
    ("republish_s", "s"),
];

/// Per-layer metrics `(name, unit)` of the traced run. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("similarity.build_ms", "ms"),
    ("augment.views_ms", "ms"),
    ("model.momentum_forward_ms", "ms"),
    ("model.encode_ms", "ms"),
    ("model.project_ms", "ms"),
    ("queues.candidates_ms", "ms"),
    ("queues.push_ms", "ms"),
    ("autograd.loss_ms", "ms"),
    ("autograd.backward_ms", "ms"),
    ("optim.adam_ms", "ms"),
    ("model.momentum_update_ms", "ms"),
    ("encoder.useful_node_share", "share"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("store.snapshot_us", "us"),
    ("store.leg_us", "us"),
    ("store.leg_max_us", "us"),
    ("router.self_us", "us"),
    ("router.serial_share", "share"),
    ("store.ann_share", "share"),
    ("store.fallback_share", "share"),
    ("obs.lookup_ns", "ns"),
    ("io.load_ms", "ms"),
    ("shard.admit_ms", "ms"),
    ("ann.build_ms", "ms"),
    ("loadgen.late_us", "us"),
    ("replay.coverage", "share"),
];

/// A metric value with the number of samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    /// The measured value.
    pub value: f64,
    /// Samples it summarizes.
    pub samples: usize,
}

/// What one workload run produced.
#[derive(Default, Debug)]
pub struct Outcome {
    /// End-to-end metrics by catalogue name.
    pub e2e: BTreeMap<&'static str, Value>,
    /// Per-layer metrics by catalogue name (traced run only).
    pub layers: BTreeMap<&'static str, Value>,
    /// Workload-specific figures, printed by the name the workload gives
    /// them (`epoch_s`, `knn_p50_us`, …) with unit and sample count.
    pub figures: Vec<(String, f64, &'static str, usize)>,
    /// Output checks `(what, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Requests or steps attempted.
    pub attempted: u64,
    /// Requests or steps that failed or were refused.
    pub failed: u64,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        self.e2e.insert(name, Value { value, samples });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        self.layers.insert(name, Value { value, samples });
    }

    /// Records a workload figure for the human-readable report.
    pub fn figure(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.figures.push((name.into(), value, unit, samples));
    }

    /// Records an output check.
    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.checks.push((what.into(), passed));
    }

    /// The catalogue a run prints and the values recorded for it.
    fn selected(
        &self,
        traced: bool,
    ) -> (
        &'static [(&'static str, &'static str)],
        &BTreeMap<&'static str, Value>,
    ) {
        if traced {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        }
    }

    /// Human-readable lines: figures, metrics and checks.
    pub fn lines(&self, traced: bool) -> Vec<String> {
        let mut out = Vec::new();
        for (name, value, unit, n) in &self.figures {
            out.push(format!("figure {name} = {value:.6} {unit} (n={n})"));
        }
        let (catalogue, metrics) = self.selected(traced);
        for (name, unit) in catalogue {
            let v = metrics.get(name).copied().unwrap_or(Value {
                value: 0.0,
                samples: 0,
            });
            out.push(format!(
                "metric {name} = {:.6} {unit} (n={})",
                v.value, v.samples
            ));
        }
        for (what, ok) in &self.checks {
            out.push(format!(
                "check {} {what}",
                if *ok { "ok  " } else { "FAIL" }
            ));
        }
        out
    }

    /// The final JSON result line and whether the run was correct: every
    /// check passed, no request failed and every value is finite. An
    /// end-to-end metric the workload did not record is a benchmark bug
    /// and fails the run; an idle layer reports 0.
    pub fn json(&self, traced: bool) -> (String, bool) {
        let (catalogue, metrics) = self.selected(traced);
        let mut correct =
            self.checks.iter().all(|(_, ok)| *ok) && self.failed == 0 && self.attempted > 0;
        let mut body = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match metrics.get(name) {
                Some(v) if v.value.is_finite() => v.value,
                Some(_) => {
                    correct = false;
                    0.0
                }
                None => {
                    correct &= traced;
                    0.0
                }
            };
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted.max(1),
            self.failed
        );
        (line, correct)
    }
}
