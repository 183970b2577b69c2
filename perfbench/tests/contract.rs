//! The benchmark's own contract: seeded inputs, declared metric names, and
//! failure accounting.

use gsched_engine::{run_sweep, SweepOptions};
use gsched_perfbench::inputs::{self, Traffic};
use gsched_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use gsched_perfbench::sweeps::{answers_agree, compare_series, COLD_REL_TOL};
use gsched_perfbench::trace::Layers;
use gsched_scenario::registry;
use serde_json::Value;

fn arrivals(seed: u64, n: usize) -> Vec<inputs::Arrival> {
    let docs = inputs::service_docs(seed);
    let mut traffic = Traffic::new(seed, &docs);
    (0..n).map(|_| traffic.next_arrival()).collect()
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for round in [0, 3] {
        assert_eq!(inputs::figs_round(7, round), inputs::figs_round(7, round));
        assert_eq!(
            inputs::large_p_round(7, round),
            inputs::large_p_round(7, round)
        );
    }
    assert_eq!(inputs::service_docs(7), inputs::service_docs(7));
    assert_eq!(arrivals(7, 500), arrivals(7, 500));
}

#[test]
fn different_seeds_give_different_grids_and_traffic() {
    assert_ne!(inputs::figs_round(7, 0), inputs::figs_round(8, 0));
    assert_ne!(inputs::large_p_round(7, 0), inputs::large_p_round(8, 0));
    assert_ne!(inputs::figs_round(7, 0), inputs::figs_round(7, 1));
    assert_ne!(inputs::service_docs(7), inputs::service_docs(8));
    let (a, b) = (arrivals(7, 200), arrivals(8, 200));
    assert_ne!(
        a.iter().map(|x| x.key).collect::<Vec<_>>(),
        b.iter().map(|x| x.key).collect::<Vec<_>>()
    );
}

#[test]
fn generated_grids_stay_inside_the_paper_ranges() {
    for doc in inputs::figs_round(3, 0) {
        let sc = gsched_scenario::Scenario::from_json(&doc.json).expect("valid document");
        let paper = registry::lookup(if doc.label.starts_with("fig5") {
            "fig5"
        } else {
            &doc.label
        })
        .expect("registry family");
        let (lo, hi) = (paper.grid(false)[0], *paper.grid(false).last().unwrap());
        for &x in sc.grid(false) {
            assert!(
                (lo..=hi).contains(&x),
                "{}: {x} outside [{lo}, {hi}]",
                doc.label
            );
        }
    }
    let sc = gsched_scenario::Scenario::from_json(&inputs::large_p_round(3, 0).json).unwrap();
    let grid = sc.grid(false);
    assert_eq!(grid.last(), Some(&4096.0));
    assert!(grid.iter().all(|&p| (8.0..=4096.0).contains(&p)));
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(|v| v.as_array())
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(|v| v.as_str())
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn printed_metric_names_equal_the_declared_ones() {
    assert_eq!(declared("end_to_end"), own(&END_TO_END));
    assert_eq!(declared("per_layer"), own(&PER_LAYER));

    // A traced run prints exactly what the layers compute.
    let mut traced = Outcome {
        attempted: 1,
        metrics: Layers::default().metrics(),
        ..Outcome::default()
    };
    for v in traced.metrics.values_mut() {
        *v = 1.0; // an empty run computes NaN, which the line refuses
    }
    let line = traced
        .result_line(&PER_LAYER)
        .expect("every per-layer metric present");
    let parsed: Value = serde_json::from_str(&line).unwrap();
    let names: Vec<&str> = parsed
        .get("metrics")
        .and_then(|m| m.as_object())
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(names, PER_LAYER.iter().map(|(n, _)| *n).collect::<Vec<_>>());

    // An untraced run missing a declared metric is refused.
    let mut partial = Outcome::default();
    partial.metric("p50_ms", 1.0);
    assert!(partial.result_line(&END_TO_END).is_err());
}

#[test]
fn injected_wrong_answer_raises_fail_ratio() {
    let sc = registry::lookup("fig4").unwrap();
    let req = sc.sweep_request(true).unwrap();
    let report = run_sweep(&req, &SweepOptions::default().with_jobs(1));
    let truth: Vec<(f64, Option<f64>)> = report
        .points
        .iter()
        .map(|p| (p.x, p.solution.as_ref().map(|s| s.classes[1].mean_jobs)))
        .collect();

    let mut clean = Outcome::default();
    compare_series("fig4", &report, 1, &truth, &mut clean);
    assert_eq!(clean.fail_ratio(), 0.0);

    let mut wrong = truth.clone();
    wrong[1].1 = wrong[1].1.map(|y| y * (1.0 + 1e-12));
    let mut out = Outcome::default();
    compare_series("fig4", &report, 1, &wrong, &mut out);
    assert_eq!(out.failures.len(), 1);
    assert!(out.fail_ratio() > 0.0);

    // A cold answer nudged past the tolerance no longer agrees.
    let sol = report.points[0].solution.clone().unwrap();
    let mut off = sol.clone();
    off.classes[0].mean_jobs *= 1.0 + 1e-4;
    assert!(answers_agree(&sol, &sol, COLD_REL_TOL));
    assert!(!answers_agree(&off, &sol, COLD_REL_TOL));
}
