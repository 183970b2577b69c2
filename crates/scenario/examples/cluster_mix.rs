//! A workstation-cluster scenario — the paper's second target platform.
//!
//! The paper's scheduler was being developed "for IBM's SP2 parallel system
//! and for clusters of workstations" [27, 11]. This example models an
//! 8-node cluster shared by three communities:
//!
//! * **MPI jobs** spanning the full cluster (fine-grain synchronization is
//!   exactly why they need gang scheduling — all 8 ranks must run
//!   together);
//! * **mid-size parallel jobs** on 2-node partitions, with Erlang (low
//!   variability) service;
//! * **single-node interactive work** with bursty, high-variability service
//!   (fitted as a hyperexponential).
//!
//! The example solves the model, prints per-class populations, response
//! times, analytic response percentiles, and the effective-cycle breakdown,
//! then uses the tuning module to pick quantum lengths per objective.
//!
//! Run: `cargo run --release --example cluster_mix`

use gsched_core::model::{ClassParams, GangModel};
use gsched_core::solver::{solve, SolverOptions};
use gsched_core::tuning::{optimize_common_quantum, Objective};
use gsched_phase::{erlang, exponential, hyperexponential};

fn main() {
    let model = GangModel::new(
        8,
        vec![
            ClassParams {
                partition_size: 8, // full-cluster MPI jobs
                arrival: exponential(0.05),
                service: exponential(0.5), // mean 2
                quantum: erlang(2, 1.0),
                switch_overhead: exponential(50.0), // 0.02: cluster-wide switch
            },
            ClassParams {
                partition_size: 2, // four 2-node partitions
                arrival: exponential(0.5),
                service: erlang(2, 1.0),
                quantum: erlang(2, 1.0),
                switch_overhead: exponential(50.0),
            },
            ClassParams {
                partition_size: 1, // eight single nodes
                arrival: exponential(2.0),
                service: hyperexponential(&[0.85, 0.15], &[6.0, 0.5]).unwrap(),
                quantum: erlang(2, 1.0),
                switch_overhead: exponential(50.0),
            },
        ],
    )
    .expect("valid model");

    println!(
        "8-node cluster, 3 classes, offered utilization rho = {:.3}\n",
        model.total_utilization()
    );

    let opts = SolverOptions {
        response_quantiles: true,
        ..SolverOptions::default()
    };
    let sol = solve(&model, &opts).expect("solver succeeds");
    println!(
        "fixed point: {} iterations; effective cycle {:.3} (nominal {:.3})\n",
        sol.iterations,
        sol.mean_cycle,
        model.full_cycle_mean()
    );
    println!(
        "{:<12} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "class", "N", "T", "T p50", "T p95", "T p99", "P(skip)"
    );
    let names = ["MPI(8)", "parallel(2)", "serial(1)"];
    for (p, c) in sol.classes.iter().enumerate() {
        let (p50, _, p95, p99) = c.response_quantiles.unwrap();
        println!(
            "{:<12} {:>8.3} {:>8.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            names[p], c.mean_jobs, c.mean_response, p50, p95, p99, c.skip_probability
        );
    }

    // Tune for two different objectives and compare the recommendations.
    println!("\ntuning the common quantum:");
    for (name, obj) in [
        ("total population", Objective::TotalMeanJobs),
        ("worst response  ", Objective::MaxResponse),
    ] {
        // Tuning only needs ~3 digits: loosen the fixed-point tolerance.
        let tune_opts = SolverOptions {
            fp_tol: 1e-4,
            ..SolverOptions::default()
        };
        let res = optimize_common_quantum(&model, 0.1, 8.0, 7, &obj, &tune_opts)
            .expect("tuning succeeds");
        println!(
            "  minimize {name}: quantum ≈ {:.3} (objective {:.4})",
            res.quantum, res.objective_value
        );
    }
    println!(
        "\nInterpretation: interactive work prefers shorter quanta (faster cycle\n\
         rotation), the MPI class prefers longer ones; the max-response objective\n\
         lands on a compromise protecting the slowest class."
    );
}
