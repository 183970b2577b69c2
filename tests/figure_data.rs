//! The committed figure data reproduces exactly.
//!
//! Sweeps the registry `fig2` and `fig4` paper grids sequentially and
//! requires every class's mean number of jobs to equal the value recorded in
//! `results/fig2.json` / `results/fig4.json` bit for bit. Any change to the
//! floating-point path of the solver shows up here.

use gang_scheduling::scenario::registry;
use gang_scheduling::workload::spec::ExperimentRecord;
use gsched_engine::{run_sweep, SweepOptions};

fn check_figure(id: &str) {
    let path = format!("{}/results/{id}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let record: ExperimentRecord =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let scenario = registry::lookup(id).expect("registry scenario");
    let request = scenario.sweep_request(false).expect("registry grid");
    let report = run_sweep(&request, &SweepOptions::default().with_jobs(1));
    let classes = scenario.machine.classes.len();
    assert_eq!(record.series.len(), classes, "{id}: one series per class");
    for (k, series) in record.series.iter().enumerate() {
        assert_eq!(series.label, format!("class {k}"));
        assert_eq!(series.x.len(), report.points.len(), "{id}: grid size");
        for ((&x, &want), pt) in series.x.iter().zip(&series.y).zip(&report.points) {
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
