//! The `R` solves, cold and warm, publish one `qbd.rmatrix.solve` event per
//! solve whenever a recorder is installed, naming the method that ran and
//! its iteration count.

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

fn iterations(ev: &obs::EventSnapshot) -> u64 {
    ev.fields
        .iter()
        .find(|(k, _)| k == "iterations")
        .and_then(|(_, v)| v.as_u64())
        .expect("iterations field")
}

fn method(ev: &obs::EventSnapshot) -> &str {
    ev.fields
        .iter()
        .find(|(k, _)| k == "method")
        .and_then(|(_, v)| v.as_str())
        .expect("method field")
}

#[test]
fn r_solvers_emit_one_event_per_solve() {
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
        let keys: Vec<&str> = ev.fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["method", "dim", "iterations", "residual"]);
    }
    // The two solves are distinguishable in the trace.
    let methods: Vec<&str> = events.iter().map(|ev| method(ev)).collect();
    assert_eq!(methods, ["warm_substitution", "logarithmic_reduction"]);
    // Logarithmic reduction converges quadratically: far fewer iterations.
    let (ss, lr) = (iterations(events[0]), iterations(events[1]));
    assert!(lr < ss, "logred {lr} iters should beat substitution {ss}");
}
