//! Registry-wide cross-validation smoke: every sweep-capable registry
//! scenario (gang/lend policies) is cross-validated analysis-vs-simulation
//! at its quick grid, and the large-P scaling scenario is additionally held
//! to its declared truncation and asymptotic tolerances.

use gsched_core::{solve, solve_asymptotic, SolverOptions};
use gsched_scenario::{cross_validate, registry, Scenario, XvalOptions};

/// The options every surface solves `sc` under (certified level truncation
/// on the processors axis).
fn scenario_solver(sc: &Scenario) -> SolverOptions {
    sc.solver_options(&SolverOptions::default())
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
fn p_sweep_spans_8_to_4096_with_certified_truncation() {
    let sc = registry::lookup("p_sweep").unwrap();
    let certified_ceiling = sc
        .tolerance
        .certified_tail
        .expect("p_sweep declares a certified-tail ceiling");
    let opts = scenario_solver(&sc);
    let mut saw_truncated = false;
    for &x in sc.grid(true) {
        let model = sc.model_at(x).unwrap();
        let sol = solve(&model, &opts).unwrap_or_else(|e| panic!("P = {x}: {e}"));
        assert!(sol.all_stable, "P = {x} should be stable");
        // Full solves carry no certificate; truncated solves must stay
        // within the scenario's declared ceiling.
        for (p, cert) in sol.classes.iter().enumerate() {
            if let Some(cert) = cert.truncation {
                assert!(
                    cert.tail_mass <= certified_ceiling,
                    "P = {x}, class {p}: certified tail {:.3e} above ceiling {certified_ceiling:.3e}",
                    cert.tail_mass
                );
                saw_truncated = true;
            }
        }
    }
    assert!(
        saw_truncated,
        "the large-P end of the grid should engage level truncation"
    );
}

#[test]
fn p_sweep_converges_to_the_zero_queueing_limit() {
    let sc = registry::lookup("p_sweep").unwrap();
    let tol = sc
        .tolerance
        .asymptotic_rel
        .expect("p_sweep declares an asymptotic tolerance");
    let opts = scenario_solver(&sc);

    let rel_gap = |p_value: f64| {
        let model = sc.model_at(p_value).unwrap();
        let asym = solve_asymptotic(&model).unwrap();
        assert!(asym.all_stable, "P = {p_value}: limit should be stable");
        let sol = solve(&model, &opts).unwrap();
        sol.classes
            .iter()
            .zip(asym.classes.iter())
            .map(|(full, lim)| (full.mean_response - lim.mean_response).abs() / lim.mean_response)
            .fold(0.0_f64, f64::max)
    };

    let first = *sc.grid(true).first().unwrap();
    let largest = *sc.grid(true).last().unwrap();
    let gap_small = rel_gap(first);
    let gap_large = rel_gap(largest);
    assert!(
        gap_large <= tol,
        "P = {largest}: worst relative gap to the asymptotic limit {gap_large:.4} > {tol}"
    );
    // The finite-P solve approaches the limit from above as P grows.
    assert!(
        gap_large < gap_small,
        "gap should shrink with P: {gap_small:.4} at P = {first} vs {gap_large:.4} at P = {largest}"
    );
}
