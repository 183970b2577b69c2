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

use gang_scheduling::scenario::registry::paper_machine;
use gang_scheduling::scenario::{cross_validate, registry, XvalOptions};
use gang_scheduling::sim::{GangPolicy, GangSim, SimConfig};
use gang_scheduling::solver::{solve, SolverOptions};

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
    let sim = GangSim::new(&model, GangPolicy::SystemWide, sim_cfg(1234)).run();
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
            let sim = GangSim::new(&model, GangPolicy::SystemWide, sim_cfg(777)).run();
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
fn every_registry_scenario_cross_validates() {
    // The acceptance bar for the scenario layer: for every named scenario
    // whose policy the analysis models (gang and its lending variant), the
    // analytic mean response agrees with simulation within the tolerance
    // the scenario itself declares. One representative grid point per
    // scenario keeps the debug-mode runtime bounded; `gsched xval all`
    // covers more points.
    let opts = XvalOptions {
        solver: SolverOptions::default(),
        max_points: 1,
        quick: true,
        horizon_scale: 1.0,
    };
    let mut failed = Vec::new();
    for scenario in registry::all() {
        if !scenario.policy.analysis_comparable() {
            continue;
        }
        let name = scenario.name.clone();
        let report = cross_validate(&scenario, &opts)
            .unwrap_or_else(|e| panic!("{name}: cross-validation errored: {e}"));
        assert!(
            report.compared_points() > 0,
            "{name}: no stable grid point was compared"
        );
        if !report.passed() {
            for row in report.failures() {
                eprintln!(
                    "{name} class {}: analytic {:.3} vs sim {:.3} (gap {:.3} > tol {:.3})",
                    row.class, row.analytic, row.simulated, row.gap, row.tolerance
                );
            }
            failed.push(name);
        }
    }
    assert!(
        failed.is_empty(),
        "scenarios outside their declared tolerance: {failed:?}"
    );
}

#[test]
fn littles_law_in_simulation() {
    let model = paper_machine(0.4, 1.0, 2)
        .build()
        .expect("paper parameters are valid");
    let sim = GangSim::new(&model, GangPolicy::SystemWide, sim_cfg(31415)).run();
    for p in 0..4 {
        let gap = sim.littles_law_gap(p);
        assert!(gap < 0.12, "class {p}: Little's-law gap {gap}");
    }
}
