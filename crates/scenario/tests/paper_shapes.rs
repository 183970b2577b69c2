//! Integration tests: the qualitative shapes of the paper's Figures 2–5 on
//! coarse grids (the full grids run in `gsched figure`).

use gsched_core::solver::{solve, SolverOptions};
use gsched_engine::SweepPoint;
use gsched_scenario::{registry, Scenario};

fn points(scenario: Scenario) -> Vec<SweepPoint> {
    scenario.sweep_request(false).expect("grid is valid").points
}

fn quantum_points(lambda: f64, grid: &[f64]) -> Vec<SweepPoint> {
    points(registry::quantum_scenario(
        "quantum",
        lambda,
        2,
        grid.to_vec(),
        None,
    ))
}

fn n_of(model: &gsched_core::model::GangModel, class: usize) -> f64 {
    solve(model, &SolverOptions::default()).unwrap().classes[class].mean_jobs
}

#[test]
fn fig2_shape_u_curve_at_rho_04() {
    // Coarse probe: tiny, moderate, huge quantum. Classes 1-3 show the
    // paper's U; class 0 (the wide, slow class) descends to a plateau —
    // behaviour confirmed by the exact-policy simulator (see
    // tests/analysis_vs_simulation.rs and EXPERIMENTS.md).
    // The knee sits further left for the light narrow classes (class 3's
    // minimum is near q = 0.2), so probe two moderate quanta.
    let pts = quantum_points(0.4, &[0.05, 0.2, 0.75, 6.0]);
    for class in 0..4 {
        let n: Vec<f64> = pts.iter().map(|pt| n_of(&pt.model, class)).collect();
        let knee = n[1].min(n[2]);
        assert!(
            n[0] > knee * 1.1,
            "class {class}: tiny quantum ({}) should be penalized vs knee ({knee})",
            n[0]
        );
        if class == 0 {
            // Plateau/decline: the wide slow class keeps benefiting from
            // long uninterrupted quanta (confirmed by simulation).
            assert!(
                n[3] <= knee * 1.1,
                "class 0 should plateau: knee {knee} vs huge {}",
                n[3]
            );
        } else {
            assert!(
                n[3] > knee * 1.05,
                "class {class}: huge quantum ({}) should be worse than knee ({knee})",
                n[3]
            );
        }
    }
}

#[test]
fn fig2_class_ordering() {
    // With service ratios 0.5:1:2:4, class 0 dominates at every quantum.
    let pts = quantum_points(0.4, &[0.5, 2.0]);
    for pt in &pts {
        let sol = solve(&pt.model, &SolverOptions::default()).unwrap();
        for p in 0..3 {
            assert!(
                sol.classes[p].mean_jobs > sol.classes[p + 1].mean_jobs,
                "q={}: N{p} should exceed N{}",
                pt.x,
                p + 1
            );
        }
    }
}

#[test]
fn fig3_heavier_load_amplifies_everything() {
    // Compare classes 1-3 (stable at both loads) between rho=0.4 and 0.9:
    // heavy load dominates pointwise, and the long-quantum penalty is
    // steeper. Class 0 at rho=0.9 is saturated at short quanta (it needs
    // ~68% of the machine) — checked separately below.
    let quanta = [0.75, 4.0];
    let light = quantum_points(0.4, &quanta);
    let heavy = quantum_points(0.9, &quanta);
    let n_of_pt = |pt: &SweepPoint, class: usize| -> f64 {
        solve(&pt.model, &SolverOptions::default()).unwrap().classes[class].mean_jobs
    };
    for class in 1..4 {
        let l0 = n_of_pt(&light[0], class);
        let l1 = n_of_pt(&light[1], class);
        let h0 = n_of_pt(&heavy[0], class);
        let h1 = n_of_pt(&heavy[1], class);
        assert!(
            h0 > l0 && h1 > l1,
            "class {class}: heavy load must dominate ({h0} vs {l0}, {h1} vs {l1})"
        );
        assert!(
            h1 / h0 > l1 / l0 * 0.95,
            "class {class}: long-quantum penalty should not soften at rho=0.9"
        );
    }
}

#[test]
fn fig3_class0_saturation_crossover() {
    // At rho = 0.9 class 0 is unstable at short quanta and recovers at
    // long ones — the "worst-case quantum length" the paper's model is
    // meant to compute (§6).
    let pts = quantum_points(0.9, &[1.0, 6.0]);
    let short = solve(&pts[0].model, &SolverOptions::default()).unwrap();
    assert!(
        !short.classes[0].stable,
        "class 0 should saturate at quantum 1 under rho=0.9"
    );
    assert!(short.classes[1].stable, "class 1 stays stable");
    let long = solve(&pts[1].model, &SolverOptions::default()).unwrap();
    assert!(
        long.classes[0].stable,
        "class 0 should recover at quantum 6"
    );
    assert!(long.classes[0].mean_jobs.is_finite());
}

#[test]
fn fig4_service_rate_diminishing_returns() {
    let pts = points(registry::service_rate_scenario(
        "service",
        2,
        vec![2.0, 4.0, 10.0, 20.0],
        None,
    ));
    for class in 0..4 {
        let n: Vec<f64> = pts.iter().map(|pt| n_of(&pt.model, class)).collect();
        // Monotone decreasing…
        for w in n.windows(2) {
            assert!(w[1] <= w[0] * 1.01, "class {class}: {:?}", n);
        }
        // …with the early improvement dominating the late one.
        let early = n[0] - n[1];
        let late = n[2] - n[3];
        assert!(
            early > late,
            "class {class}: early drop {early} should exceed late drop {late}"
        );
    }
}

#[test]
fn fig5_own_fraction_monotone() {
    for class in [0usize, 3] {
        let pts = points(registry::cycle_fraction_scenario(
            "fraction",
            class,
            4.0,
            2,
            vec![0.2, 0.5, 0.8],
            None,
        ));
        let n: Vec<f64> = pts.iter().map(|pt| n_of(&pt.model, class)).collect();
        for w in n.windows(2) {
            assert!(
                w[1] <= w[0] * 1.02,
                "class {class}: N should fall with its own fraction: {:?}",
                n
            );
        }
    }
}
