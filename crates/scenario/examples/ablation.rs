//! Ablation study over the solver's design choices (documented in
//! DESIGN.md), run on the registry scenario `ablation` (λ = 0.5,
//! quantum mean 1):
//!
//! 1. **Vacation mode** — heavy-traffic only (Thm 4.1) vs the fixed point
//!    (Thm 4.3) with 2-moment vs 3-moment effective quanta. Shows how much
//!    the fixed point matters and how little the compression order does.
//! 2. **Erlang stage count K** of the quantum distribution — the paper's
//!    figures leave K unspecified; this quantifies the sensitivity.
//! 3. **Fixed-point tolerance** — iterations vs accuracy, the error measured
//!    against a `1e-11` solve.
//!
//! Run: `cargo run --release --example ablation`

use gsched_core::solver::{solve, SolverOptions, VacationMode};
use gsched_scenario::{registry, DistSpec};

fn main() {
    let scenario = registry::lookup("ablation").expect("ablation is registered");
    let model = scenario.build_model().expect("ablation scenario builds");

    println!("# Ablation 1: vacation mode (lambda=0.5, quantum=1)");
    println!("mode,N0,N1,N2,N3,iterations");
    let modes: Vec<(&str, VacationMode)> = vec![
        ("heavy-traffic", VacationMode::HeavyTraffic),
        ("moment-2", VacationMode::MomentMatched { moments: 2 }),
        ("moment-3", VacationMode::MomentMatched { moments: 3 }),
    ];
    for (name, mode) in modes {
        let opts = SolverOptions {
            mode,
            ..SolverOptions::default()
        };
        match solve(&model, &opts) {
            Ok(sol) => {
                let ns: Vec<String> = sol
                    .classes
                    .iter()
                    .map(|c| format!("{:.4}", c.mean_jobs))
                    .collect();
                println!("{name},{},{}", ns.join(","), sol.iterations);
            }
            Err(e) => println!("{name},error: {e}"),
        }
    }

    println!("\n# Ablation 2: quantum Erlang stage count K (lambda=0.5, quantum=1)");
    println!("K,N0,N1,N2,N3");
    for k in [1usize, 2, 4, 8] {
        // `DistSpec::Erlang { stages, rate }` has overall mean 1/rate, so
        // rate 1 keeps the quantum mean at 1 while varying the stage count.
        let mut spec = scenario.machine.clone();
        for class in &mut spec.classes {
            class.quantum = DistSpec::Erlang {
                stages: k,
                rate: 1.0,
            };
        }
        let model = spec.build().expect("stage-count variant builds");
        match solve(&model, &SolverOptions::default()) {
            Ok(sol) => {
                let ns: Vec<String> = sol
                    .classes
                    .iter()
                    .map(|c| format!("{:.4}", c.mean_jobs))
                    .collect();
                println!("{k},{}", ns.join(","));
            }
            Err(e) => println!("{k},error: {e}"),
        }
    }

    println!("\n# Ablation 3: fixed-point tolerance (lambda=0.5, quantum=1)");
    println!("tol,N0,iterations,max_rel_error");
    let solve_to = |fp_tol: f64| {
        let opts = SolverOptions {
            fp_tol,
            ..SolverOptions::default()
        };
        solve(&model, &opts)
    };
    let reference = match solve_to(1e-11) {
        Ok(sol) => sol,
        Err(e) => {
            println!("1e-11,error: {e}");
            return;
        }
    };
    for tol in [1e-2, 1e-4, 1e-6, 1e-8] {
        match solve_to(tol) {
            Ok(sol) => {
                // Largest relative error in any class's mean jobs.
                let error = sol
                    .classes
                    .iter()
                    .zip(&reference.classes)
                    .map(|(c, r)| (c.mean_jobs - r.mean_jobs).abs() / r.mean_jobs)
                    .fold(0.0, f64::max);
                println!(
                    "{tol:.0e},{:.6},{},{error:.1e}",
                    sol.classes[0].mean_jobs, sol.iterations
                );
            }
            Err(e) => println!("{tol:.0e},error: {e}"),
        }
    }
}
