//! The Anderson-accelerated Theorem 4.3 fixed point against the plain
//! damped iteration it replaced (`solve_damped`, the oracle): on every
//! registry scenario's base machine it lands next to the damped fixed point
//! run to a tight tolerance, in well under half the damped passes.

use gsched_core::solver::{solve_damped, solve_warm, SolverOptions, VacationMode};
use gsched_core::{GangModel, GangSolution};
use gsched_scenario::registry;

/// The largest relative gap in mean jobs between two solutions of the same
/// model; infinite when a class is stable in one and unstable in the other.
fn worst_gap(got: &GangSolution, want: &GangSolution) -> f64 {
    got.classes
        .iter()
        .zip(&want.classes)
        .map(|(a, b)| match (a.stable, b.stable) {
            (true, true) => (a.mean_jobs - b.mean_jobs).abs() / b.mean_jobs.abs(),
            (false, false) => 0.0,
            _ => f64::INFINITY,
        })
        .fold(0.0, f64::max)
}

fn with_moments(base: &SolverOptions, moments: u8) -> SolverOptions {
    SolverOptions {
        mode: VacationMode::MomentMatched { moments },
        ..base.clone()
    }
}

/// Measured worst gap (class mean jobs, relative) between the accelerated
/// default-tolerance answer and the damped iteration run to `fp_tol =
/// 1e-12`, over the base points below: 3.5e-6 (`high_class_count`, `m2`).
/// The damped iteration itself, at the default tolerance, is up to 1.0e-5
/// away (`fig3_heavy`).
const ORACLE_GAP: f64 = 1e-5;

#[test]
fn accelerated_fixed_point_matches_the_damped_oracle_in_fewer_passes() {
    let (mut accelerated_passes, mut damped_passes) = (0, 0);
    let mut worst = (0.0, String::new());
    for sc in registry::all() {
        let model = sc.build_model().expect("registry scenarios build");
        for moments in [2u8, 3] {
            let opts = with_moments(&sc.solver_options(&SolverOptions::default()), moments);
            let tight = SolverOptions {
                fp_tol: 1e-12,
                ..opts.clone()
            };
            let got = solve_warm(&model, &opts, None, None).unwrap().solution;
            let damped = solve_damped(&model, &opts).unwrap().solution;
            let oracle = solve_damped(&model, &tight).unwrap().solution;
            assert!(got.converged && oracle.converged, "{} m{moments}", sc.name);
            let gap = worst_gap(&got, &oracle);
            eprintln!(
                "{:<18} m{moments}: {:>3} passes (damped {:>3}), gap {gap:.2e} (damped {:.2e})",
                sc.name,
                got.iterations,
                damped.iterations,
                worst_gap(&damped, &oracle)
            );
            if gap > worst.0 {
                worst = (gap, format!("{} m{moments}", sc.name));
            }
            accelerated_passes += got.iterations;
            damped_passes += damped.iterations;
        }
    }
    assert!(
        worst.0 <= ORACLE_GAP,
        "{}: {:.3e} from the damped oracle",
        worst.1,
        worst.0
    );
    assert!(
        2 * accelerated_passes <= damped_passes,
        "{accelerated_passes} accelerated passes against {damped_passes} damped"
    );
}

/// The accelerated and damped solves' effective-quantum orders at the end.
fn final_orders(model: &GangModel, opts: &SolverOptions, accelerated: bool) -> (usize, Vec<usize>) {
    let out = match accelerated {
        true => solve_warm(model, opts, None, None),
        false => solve_damped(model, opts),
    }
    .unwrap();
    let quanta = out.warm.quanta.expect("the fixed point exports its quanta");
    (
        out.solution.iterations,
        quanta.iter().map(|q| q.order()).collect(),
    )
}

#[test]
fn fig4_at_x14_takes_no_more_passes_and_keeps_the_quantum_orders() {
    // A light-load point whose effective quanta are short mixed Erlangs:
    // the order guard keeps extrapolated fits from raising their order.
    let sc = registry::lookup("fig4").unwrap();
    let model = sc.model_at(14.0).unwrap();
    let opts = sc.solver_options(&SolverOptions::default());
    let (passes, orders) = final_orders(&model, &opts, true);
    let (damped_passes, damped_orders) = final_orders(&model, &opts, false);
    assert!(passes <= damped_passes, "{passes} > {damped_passes}");
    assert_eq!(orders, damped_orders);
}
