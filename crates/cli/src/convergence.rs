//! Convergence analysis over a diagnostics snapshot.
//!
//! Both `gsched profile` and `gsched doctor --convergence` read the same
//! raw material — the `qbd.rmatrix.solve` events (one per `R` solve, each
//! carrying its per-iteration residual series) and the fixed-point counters
//! from `gsched-core` — and distill it into per-class iteration counts,
//! residual decay rates, and stagnation warnings. Classes are recovered
//! from the span path each event was emitted under: an `R` solve inside
//! `core.solve/core.class1/qbd.solve/qbd.solve_r` belongs to class 1.

use gsched_obs::{EventSnapshot, Snapshot};
use serde::Serialize;

/// Residual series stop counting as "decaying" above this per-iteration
/// contraction rate.
const STAGNATION_RATE: f64 = 0.95;
/// A slow series shorter than this is noise, not stagnation.
const STAGNATION_MIN_ITERATIONS: usize = 10;

/// Convergence behaviour of one class's `R` solves.
#[derive(Debug, Serialize)]
pub struct ClassConvergence {
    /// Class index, or `None` when the event's span path carried no
    /// `core.class<p>` segment (e.g. a bare `solve_r` call).
    pub class: Option<u64>,
    /// `R` solves attributed to this class.
    pub r_solves: u64,
    /// Total inner iterations across those solves.
    pub r_iterations: u64,
    /// Geometric mean contraction per iteration of the longest residual
    /// series: `(r_last / r_first)^(1/(n-1))`. `None` when no series had
    /// at least two finite, positive entries.
    pub decay_rate: Option<f64>,
    /// Length of the series behind `decay_rate`.
    pub longest_series: u64,
    /// True when the longest series is both long and slow — the solver is
    /// grinding, not converging.
    pub stagnation: bool,
}

/// Snapshot-wide convergence report.
#[derive(Debug, Serialize)]
pub struct ConvergenceReport {
    /// Outer fixed-point iterations (`core.solver.fp_iterations`).
    pub fp_iterations: u64,
    /// Final fixed-point change of the last solve, when recorded.
    pub final_change: Option<f64>,
    /// Per-class rows, sorted by class (unattributed rows last).
    pub classes: Vec<ClassConvergence>,
    /// Human-readable stagnation findings.
    pub warnings: Vec<String>,
}

/// Class index from an event's span path: the digits of the first
/// `core.class<p>` segment, if any.
fn class_of_span(span: &str) -> Option<u64> {
    span.split('/')
        .find_map(|seg| seg.strip_prefix("core.class"))
        .filter(|digits| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|digits| digits.parse().ok())
}

fn field_u64(ev: &EventSnapshot, key: &str) -> Option<u64> {
    ev.fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_u64())
}

fn field_series(ev: &EventSnapshot, key: &str) -> Vec<f64> {
    ev.fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_array())
        .map(|xs| xs.iter().filter_map(|x| x.as_f64()).collect())
        .unwrap_or_default()
}

/// Geometric mean contraction per iteration over a residual series, when
/// the endpoints are finite and positive.
fn decay_rate(series: &[f64]) -> Option<f64> {
    let (first, last) = (*series.first()?, *series.last()?);
    if series.len() < 2 || !(first > 0.0 && last > 0.0) || !first.is_finite() {
        return None;
    }
    Some((last / first).powf(1.0 / (series.len() - 1) as f64))
}

/// Distill the `R`-solve events and fixed-point counters of `snap` into a
/// per-class convergence report.
pub fn analyze(snap: &Snapshot) -> ConvergenceReport {
    let mut classes: Vec<ClassConvergence> = Vec::new();
    // Per entry: the longest residual series so far.
    let mut longest: Vec<Vec<f64>> = Vec::new();
    for ev in snap.events_named("qbd.rmatrix.solve") {
        let class = class_of_span(&ev.span);
        let idx = match classes.iter().position(|c| c.class == class) {
            Some(i) => i,
            None => {
                classes.push(ClassConvergence {
                    class,
                    r_solves: 0,
                    r_iterations: 0,
                    decay_rate: None,
                    longest_series: 0,
                    stagnation: false,
                });
                longest.push(Vec::new());
                classes.len() - 1
            }
        };
        classes[idx].r_solves += 1;
        classes[idx].r_iterations += field_u64(ev, "iterations").unwrap_or(0);
        let series = field_series(ev, "residuals");
        if series.len() > longest[idx].len() {
            longest[idx] = series;
        }
    }
    for (row, series) in classes.iter_mut().zip(&longest) {
        row.decay_rate = decay_rate(series);
        row.longest_series = series.len() as u64;
        row.stagnation = row.decay_rate.is_some_and(|r| r > STAGNATION_RATE)
            && series.len() >= STAGNATION_MIN_ITERATIONS;
    }
    // Attributed classes in order, unattributed rows last.
    classes.sort_by_key(|c| (c.class.is_none(), c.class));
    let warnings = classes
        .iter()
        .filter(|c| c.stagnation)
        .map(|c| {
            let who = match c.class {
                Some(p) => format!("class {p}"),
                None => "unattributed solves".to_string(),
            };
            format!(
                "{who}: R residuals contract by only {:.3}x per iteration over {} iterations — \
                 near-stagnant convergence (drift margin likely small)",
                c.decay_rate.unwrap_or(f64::NAN),
                c.longest_series
            )
        })
        .collect();
    ConvergenceReport {
        fp_iterations: snap.counter("core.solver.fp_iterations").unwrap_or(0),
        final_change: snap.gauge("core.solver.final_change"),
        classes,
        warnings,
    }
}

impl ConvergenceReport {
    /// Render the human-readable convergence section (`gsched doctor
    /// --convergence`, `gsched profile`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fixed point: {} iteration(s), final change {}\n",
            self.fp_iterations,
            self.final_change
                .map(|c| format!("{c:.3e}"))
                .unwrap_or_else(|| "-".to_string())
        ));
        out.push_str(&format!(
            "{:>7} {:>9} {:>9} {:>11} {:>9}\n",
            "class", "R solves", "R iters", "decay/iter", "longest"
        ));
        for c in &self.classes {
            out.push_str(&format!(
                "{:>7} {:>9} {:>9} {:>11} {:>9}\n",
                c.class
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                c.r_solves,
                c.r_iterations,
                c.decay_rate
                    .map(|r| format!("{r:.4}"))
                    .unwrap_or_else(|| "-".to_string()),
                c.longest_series,
            ));
        }
        for w in &self.warnings {
            out.push_str(&format!("WARN {w}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsched_obs as obs;

    #[test]
    fn class_extraction_from_span_paths() {
        assert_eq!(
            class_of_span("core.solve/core.class1/qbd.solve/qbd.solve_r"),
            Some(1)
        );
        assert_eq!(class_of_span("core.solve/core.class12/qbd.solve"), Some(12));
        assert_eq!(class_of_span("qbd.solve_r"), None);
        assert_eq!(class_of_span("core.solve/core.classless"), None);
    }

    #[test]
    fn decay_rate_basics() {
        // 1e-1 -> 1e-9 over 5 iterations: rate = (1e-8)^(1/4) = 1e-2.
        let rate = decay_rate(&[1e-1, 1e-3, 1e-5, 1e-7, 1e-9]).unwrap();
        assert!((rate - 1e-2).abs() < 1e-12, "{rate}");
        assert_eq!(decay_rate(&[1e-3]), None);
        assert_eq!(decay_rate(&[0.0, 1e-4]), None);
        assert_eq!(decay_rate(&[]), None);
    }

    fn solve_event(span: &str, residuals: Vec<f64>) -> obs::EventSnapshot {
        obs::EventSnapshot {
            name: "qbd.rmatrix.solve".to_string(),
            span: span.to_string(),
            fields: vec![
                (
                    "iterations".to_string(),
                    serde_json::Value::Number(residuals.len() as f64),
                ),
                (
                    "residuals".to_string(),
                    serde_json::Value::Array(
                        residuals
                            .into_iter()
                            .map(serde_json::Value::Number)
                            .collect(),
                    ),
                ),
            ],
        }
    }

    fn snapshot_with(events: Vec<obs::EventSnapshot>) -> Snapshot {
        Snapshot {
            counters: vec![gsched_obs::MetricU64 {
                name: "core.solver.fp_iterations".to_string(),
                value: 7,
            }],
            gauges: Vec::new(),
            histograms: Vec::new(),
            spans: Vec::new(),
            span_intervals: Vec::new(),
            span_intervals_dropped: 0,
            events,
            events_dropped: 0,
        }
    }

    #[test]
    fn analyze_groups_by_class_and_flags_stagnation() {
        let healthy: Vec<f64> = (0..5).map(|i| 10f64.powi(-1 - 2 * i)).collect();
        let stagnant: Vec<f64> = (0..40).map(|i| 0.1 * 0.99f64.powi(i)).collect();
        let snap = snapshot_with(vec![
            solve_event(
                "core.solve/core.class0/qbd.solve/qbd.solve_r",
                healthy.clone(),
            ),
            solve_event("core.solve/core.class0/qbd.solve/qbd.solve_r", healthy),
            solve_event("core.solve/core.class1/qbd.solve/qbd.solve_r", stagnant),
        ]);
        let rep = analyze(&snap);
        assert_eq!(rep.fp_iterations, 7);
        assert_eq!(rep.classes.len(), 2);
        let c0 = &rep.classes[0];
        assert_eq!(c0.class, Some(0));
        assert_eq!(c0.r_solves, 2);
        assert_eq!(c0.r_iterations, 10);
        assert!(!c0.stagnation);
        let c1 = &rep.classes[1];
        assert!(c1.stagnation, "{c1:?}");
        assert!(c1.decay_rate.unwrap() > STAGNATION_RATE);
        assert_eq!(rep.warnings.len(), 1);
        assert!(rep.warnings[0].contains("class 1"), "{:?}", rep.warnings);
        let text = rep.render();
        assert!(text.contains("decay/iter"), "{text}");
        assert!(text.contains("WARN"), "{text}");
    }
}
