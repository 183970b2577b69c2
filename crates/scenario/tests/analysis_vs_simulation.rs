//! Integration tests: the analytic fixed point against the discrete-event
//! simulator on the paper's configuration.
//!
//! The analysis approximates each class's vacation as *independent* of the
//! class's own state (the paper defers the exact conditional treatment to an
//! extended version, §4.3 footnote); the simulator implements the true
//! coupled policy. The approximation is measurably optimistic — about
//! 10–25% low on mean populations at ρ = 0.4 (see `gsched xval fig2` and
//! EXPERIMENTS.md) — while preserving every qualitative shape,
//! so these tests check agreement within that documented margin.

use gsched_core::solver::{solve, SolverOptions};
use gsched_scenario::registry::paper_machine;
use gsched_sim::{simulate, Policy, SimConfig};

fn sim_cfg(seed: u64) -> SimConfig {
    SimConfig {
        horizon: 150_000.0,
        warmup: 15_000.0,
        seed,
        batches: 15,
    }
}

fn compare(lambda: f64, quantum: f64, tolerance: f64) {
    let model = paper_machine(lambda, quantum, 2)
        .build()
        .expect("paper parameters are valid");
    let ana = solve(&model, &SolverOptions::default()).expect("analysis solves");
    assert!(ana.all_stable, "analysis says unstable at rho={lambda}");
    let sim = simulate(&model, Policy::Gang, sim_cfg(1234));
    for p in 0..4 {
        let a = ana.classes[p].mean_jobs;
        let s = sim.classes[p].mean_jobs;
        let ci = sim.classes[p].mean_jobs_ci95;
        let gap = (a - s).abs();
        let tol = tolerance * s.max(0.05) + 3.0 * ci;
        assert!(
            gap <= tol,
            "rho={lambda} q={quantum} class {p}: analytic {a:.3} vs sim {s:.3} ± {ci:.3}"
        );
    }
}

#[test]
fn paper_config_moderate_load_short_quantum() {
    compare(0.4, 0.5, 0.30);
}

#[test]
fn paper_config_moderate_load_long_quantum() {
    compare(0.4, 3.0, 0.30);
}

#[test]
fn paper_config_light_load() {
    compare(0.2, 1.0, 0.30);
}

#[test]
fn simulation_sees_u_shape_too() {
    // The qualitative Figure-2 shape is a property of the policy, not the
    // analysis: the simulator must show it as well.
    let totals: Vec<f64> = [0.05, 1.0, 6.0]
        .iter()
        .map(|&q| {
            let model = paper_machine(0.5, q, 2)
                .build()
                .expect("paper parameters are valid");
            let sim = simulate(&model, Policy::Gang, sim_cfg(777));
            sim.classes.iter().map(|c| c.mean_jobs).sum()
        })
        .collect();
    assert!(
        totals[1] < totals[0],
        "moderate quantum {} should beat tiny quantum {}",
        totals[1],
        totals[0]
    );
    assert!(
        totals[1] < totals[2],
        "moderate quantum {} should beat huge quantum {}",
        totals[1],
        totals[2]
    );
}

#[test]
fn littles_law_in_simulation() {
    let model = paper_machine(0.4, 1.0, 2)
        .build()
        .expect("paper parameters are valid");
    let sim = simulate(&model, Policy::Gang, sim_cfg(31415));
    for p in 0..4 {
        let gap = sim.littles_law_gap(p);
        assert!(gap < 0.12, "class {p}: Little's-law gap {gap}");
    }
}
