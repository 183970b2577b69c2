//! Scheduler tuning — the paper's motivating use case.
//!
//! The authors built this model to *tune* the gang scheduler being developed
//! for IBM's SP2: choose the timeplexing-cycle quantum lengths that minimize
//! mean population / response time for a given workload mix. This example
//! performs exactly that exercise on the paper's 8-processor configuration:
//! it sweeps the common quantum length, locates the knee of the U-shaped
//! curve, and reports the recommended operating point, then checks the
//! recommendation against the simulator.
//!
//! Run: `cargo run --release --example sp2_tuning`

use gsched_core::solver::{solve, SolverOptions};
use gsched_scenario::registry::paper_machine;
use gsched_sim::{simulate, Policy, SimConfig};

fn main() {
    let lambda = 0.5; // workload intensity (rho = lambda)
    let grid: Vec<f64> = [0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0].to_vec();

    println!("tuning quantum length for rho = {lambda} (8 processors, 4 classes)\n");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "quantum", "N0", "N1", "N2", "N3", "total"
    );

    let mut best = (f64::NAN, f64::INFINITY);
    let mut table = Vec::new();
    for &q in &grid {
        let model = paper_machine(lambda, q, 2)
            .build()
            .expect("paper parameters are valid");
        let sol = solve(&model, &SolverOptions::default()).expect("solves");
        let ns: Vec<f64> = sol.classes.iter().map(|c| c.mean_jobs).collect();
        let total: f64 = ns.iter().sum();
        println!(
            "{q:>8.2} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {total:>10.4}",
            ns[0], ns[1], ns[2], ns[3]
        );
        if total < best.1 {
            best = (q, total);
        }
        table.push((q, total));
    }

    println!(
        "\nrecommended quantum ≈ {:.2} (total mean population {:.4})",
        best.0, best.1
    );
    // The paper's qualitative guidance: too-short quanta drown in context
    // switches, too-long quanta behave like exhaustive service.
    let first = table.first().unwrap().1;
    let last = table.last().unwrap().1;
    println!(
        "shortest quantum costs {:.1}% more, longest {:.1}% more than the knee",
        100.0 * (first / best.1 - 1.0),
        100.0 * (last / best.1 - 1.0)
    );

    // ---- Validate the recommendation by simulation ----
    println!("\nvalidating the knee by simulation…");
    for &q in &[grid[0], best.0, *grid.last().unwrap()] {
        let model = paper_machine(lambda, q, 2)
            .build()
            .expect("paper parameters are valid");
        let sim = simulate(
            &model,
            Policy::Gang,
            SimConfig {
                horizon: 150_000.0,
                warmup: 15_000.0,
                seed: 2024,
                batches: 15,
            },
        );
        let total: f64 = sim.classes.iter().map(|c| c.mean_jobs).sum();
        println!("quantum {q:>5.2}: simulated total population {total:.3}");
    }
    println!("\nThe knee quantum should simulate best of the three.");
}
