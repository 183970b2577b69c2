//! Bench history (`results/bench_history.ndjson`) and trend gating.
//!
//! Every `gsched bench` and `gsched loadtest` run appends one NDJSON row —
//! label, git revision, timestamp, and the full [`BenchReport`] — via the
//! atomic append in `gsched-obs`, building a machine-readable work history
//! inside the repository. `gsched bench trend` reads that history back,
//! compares the newest row against the median of a trailing window of
//! comparable rows (same `quick` flag), and with `--gate` exits non-zero
//! when any tracked metric regressed beyond the threshold — the CI gate.
//!
//! Every tracked metric is a deterministic work counter (iteration, flop,
//! event and request counts): counts are bit-stable across runs and
//! machines, so a regression means the code does more work, not that the
//! runner was noisy. A `--gate` run that finds nothing to compare fails,
//! since a gate that compares nothing would pass any change.

use crate::bench::{BenchReport, ScenarioResult, BENCH_SCHEMA_VERSION};
use gsched_obs as obs;
use serde::{Deserialize, Serialize};

/// Version of one history row's envelope. Bump on incompatible changes.
pub const HISTORY_SCHEMA_VERSION: u64 = 1;

/// Default history location, relative to the repository root.
pub const DEFAULT_HISTORY_PATH: &str = "results/bench_history.ndjson";

/// One appended line of the bench history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryRow {
    /// Envelope version ([`HISTORY_SCHEMA_VERSION`]).
    pub history_schema_version: u64,
    /// Run label (duplicated from the report for cheap scanning).
    pub label: String,
    /// Short git revision at run time, or `"unknown"` outside a checkout.
    pub git_rev: String,
    /// Seconds since the Unix epoch at run time.
    pub unix_time_secs: u64,
    /// The full benchmark report.
    pub report: BenchReport,
}

/// `git rev-parse --short HEAD`, or `"unknown"` when git is unavailable.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Append `report` as one history row to `path`, creating the parent
/// directory on first use.
pub fn append_history(path: &str, report: &BenchReport) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    }
    let row = HistoryRow {
        history_schema_version: HISTORY_SCHEMA_VERSION,
        label: report.label.clone(),
        git_rev: git_rev(),
        unix_time_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        report: report.clone(),
    };
    let line = serde_json::to_string(&row).expect("history row serializes");
    obs::append_line_atomic(path, &line).map_err(|e| format!("cannot append `{path}`: {e}"))
}

/// Parse the history file. Rows with an unknown envelope version or an
/// incompatible report schema are skipped (counted in `skipped`), so an
/// old history keeps the file useful instead of poisoning the gate.
pub fn load_history(path: &str) -> Result<(Vec<HistoryRow>, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut rows = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match serde_json::from_str::<HistoryRow>(line) {
            Ok(row)
                if row.history_schema_version == HISTORY_SCHEMA_VERSION
                    && row.report.schema_version == BENCH_SCHEMA_VERSION =>
            {
                rows.push(row)
            }
            _ => skipped += 1,
        }
    }
    Ok((rows, skipped))
}

/// Metrics `trend` can track, extracted per scenario. The last three are
/// non-zero on `gsched loadtest` rows only.
pub const METRICS: &[&str] = &[
    "fp_iterations",
    "rmatrix_solves",
    "rmatrix_iterations",
    "matmul_flops",
    "lu_flops",
    "triangular_flops",
    "sim_events",
    "requests",
    "request_errors",
    "shed",
];

/// The metric's value in one scenario row. Unknown metric names are
/// caught by [`analyze`] against [`METRICS`].
fn metric_value(s: &ScenarioResult, metric: &str) -> Option<f64> {
    match metric {
        "fp_iterations" => Some(s.fp_iterations as f64),
        "rmatrix_solves" => Some(s.rmatrix_solves as f64),
        "rmatrix_iterations" => Some(s.rmatrix_iterations as f64),
        "matmul_flops" => Some(s.matmul_flops as f64),
        "lu_flops" => Some(s.lu_flops as f64),
        "triangular_flops" => Some(s.triangular_flops as f64),
        "sim_events" => Some(s.sim_events as f64),
        "requests" => Some(s.requests as f64),
        "request_errors" => Some(s.request_errors as f64),
        "shed" => Some(s.shed as f64),
        _ => None,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite metric values"));
    xs[xs.len() / 2]
}

/// One (scenario, metric) comparison of the latest row against its
/// trailing window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrendLine {
    /// Scenario name.
    pub scenario: String,
    /// Tracked metric name.
    pub metric: String,
    /// Latest run's value.
    pub latest: f64,
    /// Median of the trailing window (previous comparable rows).
    pub baseline: f64,
    /// `latest / baseline - 1`, or `0` when the baseline is zero.
    pub delta: f64,
    /// Prior rows the baseline was computed from.
    pub window: u64,
    /// True when `delta` exceeded the threshold.
    pub regressed: bool,
}

/// Outcome of a trend analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrendReport {
    /// Rows inspected (after filtering to the latest row's `quick` flag).
    pub comparable_rows: u64,
    /// Malformed or schema-incompatible history lines skipped.
    pub skipped_rows: u64,
    /// Per-(scenario, metric) comparisons.
    pub lines: Vec<TrendLine>,
    /// Summaries of the regressed lines.
    pub regressions: Vec<String>,
}

/// Compare the newest of `rows` against the median of up to `window`
/// preceding rows with the same `quick` flag. A metric regresses when the
/// latest value exceeds the baseline median by more than `threshold`
/// (fractional, e.g. `0.25`).
pub fn analyze(
    rows: &[HistoryRow],
    metrics: &[String],
    window: usize,
    threshold: f64,
) -> Result<TrendReport, String> {
    let latest = rows.last().ok_or("history is empty")?;
    let prior: Vec<&HistoryRow> = rows[..rows.len() - 1]
        .iter()
        .filter(|r| r.report.quick == latest.report.quick)
        .collect();
    let tail: Vec<&HistoryRow> = prior.iter().rev().take(window).copied().collect();
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for metric in metrics {
        if !METRICS.contains(&metric.as_str()) {
            return Err(format!(
                "unknown metric `{metric}` (known: {})",
                METRICS.join(", ")
            ));
        }
    }
    for cur in &latest.report.scenarios {
        for metric in metrics {
            let Some(latest_v) = metric_value(cur, metric) else {
                continue;
            };
            let history: Vec<f64> = tail
                .iter()
                .filter_map(|r| r.report.scenarios.iter().find(|s| s.name == cur.name))
                .filter_map(|s| metric_value(s, metric))
                .collect();
            if history.is_empty() {
                continue;
            }
            let baseline = median(history.clone());
            let delta = if baseline > 0.0 {
                latest_v / baseline - 1.0
            } else {
                0.0
            };
            let regressed = delta > threshold;
            if regressed {
                regressions.push(format!(
                    "{}/{}: {} -> {} ({:+.1}% > {:.1}% allowed over {} prior run(s))",
                    cur.name,
                    metric,
                    baseline,
                    latest_v,
                    delta * 100.0,
                    threshold * 100.0,
                    history.len()
                ));
            }
            lines.push(TrendLine {
                scenario: cur.name.clone(),
                metric: metric.clone(),
                latest: latest_v,
                baseline,
                delta,
                window: history.len() as u64,
                regressed,
            });
        }
    }
    Ok(TrendReport {
        comparable_rows: (prior.len() + 1) as u64,
        skipped_rows: 0,
        lines,
        regressions,
    })
}

/// The `--gate` verdict on `report`: an error when a metric regressed or
/// when nothing was compared, otherwise the pass line. `path` and `label`
/// (the latest row's) name what was missing in the empty case.
pub fn gate(
    report: &TrendReport,
    path: &str,
    label: &str,
    threshold: f64,
) -> Result<String, String> {
    if !report.regressions.is_empty() {
        return Err(format!(
            "{} metric(s) regressed beyond the {:.0}% trend threshold",
            report.regressions.len(),
            threshold * 100.0
        ));
    }
    if report.lines.is_empty() {
        return Err(format!(
            "trend gate compared nothing: no earlier row of `{path}` with the same --quick \
             setting records a scenario of the latest row `{label}`"
        ));
    }
    Ok(format!(
        "trend gate passed ({} comparison(s))",
        report.lines.len()
    ))
}

/// Entry point for `gsched bench trend`.
pub fn run(args: &[String]) -> Result<(), String> {
    let (pos, flags) = crate::parse_flags("bench trend", args)?;
    if !pos.is_empty() {
        return Err(format!("bench trend: unexpected argument `{}`", pos[0]));
    }
    let path = flags
        .get("history")
        .map(String::as_str)
        .unwrap_or(DEFAULT_HISTORY_PATH);
    let metrics: Vec<String> = flags
        .get("metric")
        .map(String::as_str)
        .unwrap_or("fp_iterations,rmatrix_iterations,matmul_flops")
        .split(',')
        .map(|m| m.trim().to_string())
        .filter(|m| !m.is_empty())
        .collect();
    let window = crate::flag_count(&flags, "window", 5)?;
    if window == 0 {
        return Err("--window must be at least 1".to_string());
    }
    let threshold = crate::flag_f64(&flags, "threshold", 0.25)?;
    let (rows, skipped) = load_history(path)?;
    if rows.is_empty() {
        return Err(format!("`{path}` has no parseable history rows"));
    }
    let mut report = analyze(&rows, &metrics, window, threshold)?;
    report.skipped_rows = skipped as u64;
    if flags.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("trend report serializes")
        );
    } else {
        println!(
            "trend over {path}: {} comparable row(s), {} skipped, window {}, threshold {:.0}%",
            report.comparable_rows,
            report.skipped_rows,
            window,
            threshold * 100.0
        );
        if report.lines.is_empty() {
            println!("no prior comparable rows yet — nothing to compare");
        } else {
            println!(
                "{:<28} {:<20} {:>14} {:>14} {:>8} {:>7}  status",
                "scenario", "metric", "baseline", "latest", "delta", "window"
            );
            for l in &report.lines {
                println!(
                    "{:<28} {:<20} {:>14.2} {:>14.2} {:>+7.1}% {:>7}  {}",
                    l.scenario,
                    l.metric,
                    l.baseline,
                    l.latest,
                    l.delta * 100.0,
                    l.window,
                    if l.regressed { "REGRESSED" } else { "ok" }
                );
            }
        }
    }
    for r in &report.regressions {
        eprintln!("regression: {r}");
    }
    if flags.contains_key("gate") {
        let label = &rows.last().expect("rows is non-empty").label;
        println!("{}", gate(&report, path, label, threshold)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(fp: u64, quick: bool) -> HistoryRow {
        let fig2 = ScenarioResult {
            name: "fig2".to_string(),
            kind: "solver".to_string(),
            points: 3,
            fp_iterations: fp,
            rmatrix_solves: 10,
            rmatrix_iterations: 500,
            matmul_calls: 100,
            matmul_flops: 1_000_000,
            lu_factorizations: 5,
            lu_flops: 10_000,
            triangular_solves: 50,
            triangular_flops: 2_000,
            ..ScenarioResult::default()
        };
        HistoryRow {
            history_schema_version: HISTORY_SCHEMA_VERSION,
            label: "t".to_string(),
            git_rev: "abc1234".to_string(),
            unix_time_secs: 1,
            report: BenchReport::new("t", quick, vec![fig2]),
        }
    }

    fn metrics(names: &[&str]) -> Vec<String> {
        names.iter().map(|m| m.to_string()).collect()
    }

    #[test]
    fn stable_history_passes() {
        let rows = vec![row(40, true), row(40, true), row(40, true)];
        let rep = analyze(&rows, &metrics(&["matmul_flops", "fp_iterations"]), 5, 0.25).unwrap();
        assert!(rep.regressions.is_empty(), "{:?}", rep.regressions);
        assert_eq!(rep.lines.len(), 2);
        assert_eq!(rep.lines[0].window, 2);
        assert!(gate(&rep, "h.ndjson", "t", 0.25).is_ok());
    }

    #[test]
    fn work_regression_is_flagged() {
        let rows = vec![row(40, true), row(40, true), row(80, true)];
        let rep = analyze(&rows, &metrics(&["fp_iterations"]), 5, 0.25).unwrap();
        assert_eq!(rep.regressions.len(), 1, "{:?}", rep.regressions);
        assert!(rep.regressions[0].contains("fig2/fp_iterations"));
        assert!(rep.lines[0].regressed);
        let err = gate(&rep, "h.ndjson", "t", 0.25).unwrap_err();
        assert!(err.contains("1 metric(s) regressed"), "{err}");
    }

    #[test]
    fn quick_and_full_rows_never_mix() {
        // Latest is quick; the heavier full row must not poison the baseline.
        let rows = vec![row(400, false), row(40, true), row(40, true)];
        let rep = analyze(&rows, &metrics(&["fp_iterations"]), 5, 0.25).unwrap();
        assert_eq!(rep.comparable_rows, 2);
        assert!(rep.regressions.is_empty(), "{:?}", rep.regressions);
        assert_eq!(rep.lines[0].baseline, 40.0);
    }

    #[test]
    fn first_row_has_nothing_to_compare() {
        let rows = vec![row(40, true)];
        let rep = analyze(&rows, &metrics(&["fp_iterations"]), 5, 0.25).unwrap();
        assert!(rep.lines.is_empty());
        assert!(rep.regressions.is_empty());
    }

    #[test]
    fn gate_fails_when_nothing_was_compared() {
        // A first row, and a latest row whose scenarios no earlier row
        // records: both compare nothing, so the gate must not pass.
        let mut other = row(40, true);
        other.label = "scaling-ci".to_string();
        other.report.scenarios[0].name = "scaling_p0008".to_string();
        for rows in [vec![row(40, true)], vec![row(40, true), other]] {
            let rep = analyze(&rows, &metrics(&["fp_iterations"]), 5, 0.25).unwrap();
            assert!(rep.lines.is_empty());
            let label = &rows.last().unwrap().label;
            let err = gate(&rep, "results/h.ndjson", label, 0.25).unwrap_err();
            assert!(err.contains("compared nothing"), "{err}");
            assert!(err.contains("`results/h.ndjson`"), "{err}");
            assert!(err.contains(&format!("`{label}`")), "{err}");
        }
    }

    #[test]
    fn unknown_metric_is_an_error() {
        let rows = vec![row(40, true), row(40, true)];
        for gone in ["warp_factor", "wall_ms", "p99_ms"] {
            let err = analyze(&rows, &metrics(&[gone]), 5, 0.25).unwrap_err();
            assert!(err.contains("unknown metric"), "{err}");
        }
    }

    fn load_row(requests: u64, shed: u64) -> HistoryRow {
        let mut r = row(40, true);
        let s = &mut r.report.scenarios[0];
        s.name = "loadtest_mixed".to_string();
        s.kind = "loadtest".to_string();
        s.requests = requests;
        s.shed = shed;
        r
    }

    #[test]
    fn loadtest_counters_gate_like_work_metrics() {
        let rows = vec![load_row(18, 2), load_row(18, 2), load_row(18, 5)];
        let rep = analyze(&rows, &metrics(&["requests", "shed"]), 5, 0.25).unwrap();
        assert_eq!(rep.lines.len(), 2);
        assert_eq!(rep.regressions.len(), 1, "{:?}", rep.regressions);
        assert!(rep.regressions[0].contains("loadtest_mixed/shed"));
    }

    #[test]
    fn history_rows_round_trip_through_ndjson() {
        let dir = std::env::temp_dir().join(format!("gsched-trend-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.ndjson");
        let path_s = path.to_str().unwrap();
        let _ = std::fs::remove_file(&path);
        append_history(path_s, &row(40, true).report).unwrap();
        append_history(path_s, &row(41, true).report).unwrap();
        // A malformed line and a wrong-version row are skipped, not fatal.
        let mut old = row(42, true);
        old.history_schema_version = 99;
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| {
                use std::io::Write;
                writeln!(f, "not json")?;
                writeln!(f, "{}", serde_json::to_string(&old).unwrap())
            })
            .unwrap();
        let (rows, skipped) = load_history(path_s).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(skipped, 2);
        assert_eq!(rows[1].report.scenarios[0].fp_iterations, 41);
        assert!(rows[0].git_rev.len() >= 4 || rows[0].git_rev == "unknown");
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        // A row of an earlier report schema, still carrying its wall-time
        // fields, is skipped by the version check.
        let dir = std::env::temp_dir().join(format!("gsched-trend-v-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.ndjson");
        let mut old = serde_json::to_string(&row(40, true))
            .unwrap()
            .replacen("\"quick\"", "\"reps\":1,\"jobs\":1,\"quick\"", 1)
            .replacen("\"points\"", "\"wall_ms\":12.5,\"points\"", 1);
        let v = format!("\"schema_version\":{BENCH_SCHEMA_VERSION}");
        assert!(old.contains(&v), "{old}");
        old = old.replacen(
            &v,
            &format!("\"schema_version\":{}", BENCH_SCHEMA_VERSION - 1),
            1,
        );
        std::fs::write(&path, format!("{old}\n")).unwrap();
        let (rows, skipped) = load_history(path.to_str().unwrap()).unwrap();
        assert_eq!((rows.len(), skipped), (0, 1));
    }
}
