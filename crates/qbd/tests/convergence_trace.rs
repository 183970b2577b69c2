//! The `R` solves, cold and warm, publish a per-iteration residual trace
//! on their `qbd.rmatrix.solve` event whenever a recorder is installed —
//! the raw material for `gsched doctor --convergence`.

use gsched_linalg::Matrix;
use gsched_obs as obs;
use gsched_qbd::rmatrix::{solve_r, solve_r_warm, RSolverMethod};

fn mm1_blocks(lambda: f64, mu: f64) -> (Matrix, Matrix, Matrix) {
    (
        Matrix::from_rows(&[&[lambda]]),
        Matrix::from_rows(&[&[-(lambda + mu)]]),
        Matrix::from_rows(&[&[mu]]),
    )
}

fn residual_series(ev: &obs::EventSnapshot) -> Vec<f64> {
    let (_, value) = ev
        .fields
        .iter()
        .find(|(k, _)| k == "residuals")
        .expect("residuals field present");
    value
        .as_array()
        .expect("residuals is an array")
        .iter()
        .map(|v| v.as_f64().expect("finite residual"))
        .collect()
}

#[test]
fn r_solvers_emit_per_iteration_residual_series() {
    let recorder = obs::install_memory();
    let (a0, a1, a2) = mm1_blocks(0.6, 1.0);
    let tol = 1e-12;
    // Substitution from zero, then the cold logarithmic reduction.
    solve_r_warm(&a0, &a1, &a2, &Matrix::zeros(1, 1), tol, 100_000, 1e-8).unwrap();
    solve_r(&a0, &a1, &a2, RSolverMethod::LogarithmicReduction, tol, 200).unwrap();
    obs::uninstall();
    let snap = recorder.snapshot();

    let events: Vec<&obs::EventSnapshot> = snap.events_named("qbd.rmatrix.solve").collect();
    assert_eq!(events.len(), 2, "one event per solve");
    for ev in &events {
        let iterations = ev
            .fields
            .iter()
            .find(|(k, _)| k == "iterations")
            .and_then(|(_, v)| v.as_u64())
            .expect("iterations field");
        let series = residual_series(ev);
        assert_eq!(
            series.len() as u64,
            iterations,
            "one residual per iteration"
        );
        assert!(!series.is_empty());
        assert!(
            *series.last().unwrap() <= tol,
            "converged trace ends at or below tol: {series:?}"
        );
        assert!(
            series.last().unwrap() <= series.first().unwrap(),
            "residuals decay overall: {series:?}"
        );
    }
    // The two solves are distinguishable in the trace.
    let methods: Vec<&str> = events
        .iter()
        .map(|ev| {
            ev.fields
                .iter()
                .find(|(k, _)| k == "method")
                .and_then(|(_, v)| v.as_str())
                .expect("method field")
        })
        .collect();
    assert!(methods.contains(&"warm_substitution"), "{methods:?}");
    assert!(methods.contains(&"logarithmic_reduction"), "{methods:?}");
    // Logarithmic reduction converges quadratically: far fewer iterations.
    let ss = residual_series(events[0]).len();
    let lr = residual_series(events[1]).len();
    assert!(lr < ss, "logred {lr} iters should beat substitution {ss}");
}
