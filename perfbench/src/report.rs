//! Metric declarations and the result line.

use crate::trace::Layers;
use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("points_per_s", "points/s"),
    ("point_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The metrics a run prints.
pub fn declared(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("scenario.parse_us", "us"),
    ("scenario.hash_us", "us"),
    ("scenario.model_us", "us"),
    ("engine.overhead_ms", "ms"),
    ("engine.warm_hit_ratio", "ratio"),
    ("core.fp_iterations", "count"),
    ("core.class_solves", "count"),
    ("core.unconverged", "count"),
    ("core.vacation_us", "us"),
    ("core.generator_us", "us"),
    ("core.effective_us", "us"),
    ("core.measures_us", "us"),
    ("core.generator_share", "ratio"),
    ("qbd.solve_warm_us", "us"),
    ("qbd.solve_cold_us", "us"),
    ("qbd.solve_r_us", "us"),
    ("qbd.drift_us", "us"),
    ("qbd.r_iterations", "count"),
    ("qbd.warm_fallbacks", "count"),
    ("qbd.truncation_level_max", "level"),
    ("qbd.certified_tail_max", "probability"),
    ("linalg.matmul_flops", "flop"),
    ("linalg.lu_flops", "flop"),
    ("linalg.triangular_flops", "flop"),
    ("linalg.lu_us", "us"),
    ("service.hit_ratio", "ratio"),
    ("service.hit_rtt_p50_ms", "ms"),
    ("service.queue_wait_p95_ms", "ms"),
    ("service.solve_p50_ms", "ms"),
    ("service.coalesced", "count"),
    ("service.shed", "count"),
    ("service.gen_lag_max_ms", "ms"),
    ("obs.recorder_overhead", "ratio"),
    ("obs.traced_wall_ms", "ms"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: timed sweep points or requests, plus every
    /// answer a correctness check re-derived.
    pub attempted: u64,
    /// Failed operations, by name.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// `failed / attempted`.
    pub fn fail_ratio(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// Fold a traced run's layers in: the per-layer metrics become this
    /// run's metrics, each replay mismatch a failure, and the span file and
    /// per-layer report are written.
    pub fn with_layers(mut self, workload: &str, seed: u64, layers: &Layers) -> Outcome {
        let metrics = layers.metrics();
        self.attempted += layers.replay.classes_replayed;
        for m in &layers.replay.mismatches {
            self.fail(format!("replay mismatch: {m}"));
        }
        layers.write(workload, seed, &metrics);
        self.metrics = metrics;
        self
    }

    /// The final JSON line. Fails when the metric names differ from the
    /// `declared` set or a value is not a finite number.
    pub fn result_line(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        let names: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
        let have: Vec<&str> = self.metrics.keys().copied().collect();
        let mut want = names.clone();
        want.sort_unstable();
        if have != want {
            return Err(format!(
                "metrics {have:?} differ from the declared {want:?}"
            ));
        }
        if let Some((name, v)) = self.metrics.iter().find(|(_, v)| !v.is_finite()) {
            return Err(format!("metric {name} is not a finite number: {v}"));
        }
        let body: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                format!(
                    r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                    self.metrics[name]
                )
            })
            .collect();
        Ok(format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            body.join(", ")
        ))
    }
}
