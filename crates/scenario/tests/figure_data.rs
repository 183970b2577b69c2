//! The committed figure data reproduces exactly.
//!
//! Sweeps the registry `fig2` and `fig4` paper grids sequentially and
//! requires every class's mean number of jobs to equal the value recorded in
//! `results/fig2.json` / `results/fig4.json` bit for bit. Any change to the
//! floating-point path of the solver shows up here. The records are read as
//! plain JSON, so this oracle shares no code with the record writer.

use gsched_engine::{run_sweep, SweepOptions};
use gsched_scenario::registry;
use serde_json::Value;

/// A JSON array of numbers; `null` (an unstable point) reads as `NaN`.
fn numbers(value: &Value, what: &str) -> Vec<f64> {
    value
        .as_array()
        .unwrap_or_else(|| panic!("{what}: not an array"))
        .iter()
        .map(|v| {
            if v.is_null() {
                f64::NAN
            } else {
                v.as_f64().unwrap_or_else(|| panic!("{what}: {v:?}"))
            }
        })
        .collect()
}

fn check_figure(id: &str) {
    let path = format!("{}/../../results/{id}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let record: Value = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(record.get("id").and_then(Value::as_str), Some(id));
    let series = record
        .get("series")
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{path}: no series array"));
    let scenario = registry::lookup(id).expect("registry scenario");
    let request = scenario.sweep_request(false).expect("registry grid");
    let report = run_sweep(&request, &SweepOptions::default().with_jobs(1));
    let classes = scenario.machine.classes.len();
    assert_eq!(series.len(), classes, "{id}: one series per class");
    for (k, series) in series.iter().enumerate() {
        let label = series.get("label").and_then(Value::as_str);
        assert_eq!(label, Some(format!("class {k}").as_str()));
        let xs = numbers(&series["x"], "x");
        let ys = numbers(&series["y"], "y");
        assert_eq!(xs.len(), report.points.len(), "{id}: grid size");
        assert_eq!(ys.len(), xs.len(), "{id}: one y per x");
        for ((&x, &want), pt) in xs.iter().zip(&ys).zip(&report.points) {
            assert_eq!(pt.x.to_bits(), x.to_bits(), "{id}: grid point");
            let sol = pt
                .solution
                .as_ref()
                .unwrap_or_else(|| panic!("{id}@x={x}: {:?}", pt.error));
            let got = sol.classes[k].mean_jobs;
            // The record stores an unstable class's infinite mean as null.
            let same = if want.is_nan() {
                got.is_infinite()
            } else {
                got.to_bits() == want.to_bits()
            };
            assert!(same, "{id}/class {k}@x={x}: got {got:?}, recorded {want:?}");
        }
    }
}

#[test]
fn fig2_matches_committed_data() {
    check_figure("fig2");
}

#[test]
fn fig4_matches_committed_data() {
    check_figure("fig4");
}
