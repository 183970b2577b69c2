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
fn registry_quick_grids_cross_validate() {
    // One xval point per scenario keeps this suite debug-buildable; the
    // endpoints get dedicated coverage below and in CI's scaling-smoke job.
    for sc in registry::all() {
        if !sc.policy.analysis_comparable() {
            continue;
        }
        // near_instability sits on purpose next to the Theorem 4.4 edge,
        // where a smoke-length simulation is noise-dominated — it needs the
        // dedicated long-horizon validation run, not this suite.
        if sc.name == "near_instability" {
            continue;
        }
        let opts = XvalOptions {
            max_points: 1,
            quick: true,
            // Trimmed horizons keep the whole registry debug-runnable; the
            // tolerance band widens with the simulation CI, so shorter runs
            // stay comparable.
            horizon_scale: 0.2,
            solver: SolverOptions::default(),
        };
        let report = cross_validate(&sc, &opts)
            .unwrap_or_else(|e| panic!("{}: cross-validation errored: {e}", sc.name));
        assert!(
            report.compared_points() > 0,
            "{}: no point was compared",
            sc.name
        );
        let failures: Vec<String> = report
            .failures()
            .iter()
            .map(|row| {
                format!(
                    "{}: class {} analytic {:.4} vs sim {:.4} (gap {:.4} > tol {:.4})",
                    sc.name, row.class, row.analytic, row.simulated, row.gap, row.tolerance
                )
            })
            .collect();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
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
