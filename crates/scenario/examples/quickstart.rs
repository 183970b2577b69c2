//! Quickstart: build a small gang-scheduled machine, solve it analytically,
//! and cross-check with the discrete-event simulator.
//!
//! Run: `cargo run --release --example quickstart`

use gsched_core::model::{ClassParams, GangModel};
use gsched_core::solver::{solve, SolverOptions};
use gsched_phase::{erlang, exponential};
use gsched_sim::{simulate, Policy, SimConfig};

fn main() {
    // A 4-processor machine with two job classes:
    //  - "parallel" jobs need all 4 processors (g = 4, one partition);
    //  - "sequential" jobs need 1 processor (g = 1, four partitions).
    // Classes time-share via a timeplexing cycle with mean quantum 1 and a
    // 1% context-switch overhead.
    let model = GangModel::new(
        4,
        vec![
            ClassParams {
                partition_size: 4,
                arrival: exponential(0.20),
                service: exponential(1.0),
                quantum: erlang(2, 1.0),
                switch_overhead: exponential(100.0),
            },
            ClassParams {
                partition_size: 1,
                arrival: exponential(1.0),
                service: exponential(1.5),
                quantum: erlang(2, 1.0),
                switch_overhead: exponential(100.0),
            },
        ],
    )
    .expect("valid model");

    println!(
        "machine: P = {}, classes = {}",
        model.processors(),
        model.num_classes()
    );
    println!(
        "offered utilization rho = {:.3}\n",
        model.total_utilization()
    );

    // ---- Analytic solution (matrix-geometric fixed point, paper §4) ----
    let solution = solve(&model, &SolverOptions::default()).expect("solver succeeds");
    println!(
        "analytic fixed point converged in {} iterations",
        solution.iterations
    );
    for (p, class) in solution.classes.iter().enumerate() {
        println!(
            "class {p}: N = {:.4}  T = {:.4}  P(skip turn) = {:.3}  eff. quantum = {:.3}",
            class.mean_jobs,
            class.mean_response,
            class.skip_probability,
            class.effective_quantum_mean,
        );
    }

    // ---- Simulation cross-check (exact policy, paper §3.1) ----
    println!("\nsimulating the same system…");
    let sim = simulate(
        &model,
        Policy::Gang,
        SimConfig {
            horizon: 200_000.0,
            warmup: 20_000.0,
            seed: 7,
            batches: 20,
        },
    );
    for (p, stats) in sim.classes.iter().enumerate() {
        let analytic = solution.classes[p].mean_jobs;
        println!(
            "class {p}: sim N = {:.4} ± {:.4}  (analytic {:.4}, gap {:.1}%)",
            stats.mean_jobs,
            stats.mean_jobs_ci95,
            analytic,
            100.0 * (stats.mean_jobs - analytic).abs() / analytic.max(1e-9),
        );
    }
    println!(
        "processor utilization: {:.3}, switch overhead fraction: {:.4}",
        sim.processor_utilization, sim.switch_overhead_fraction
    );
    println!(
        "\nnote: the analysis treats each class's vacation as independent of its own\n\
         backlog (the paper's §4.3 simplification), which makes it 10–40% optimistic\n\
         on mean populations depending on the configuration; shapes and orderings\n\
         are preserved (see EXPERIMENTS.md)."
    );
}
