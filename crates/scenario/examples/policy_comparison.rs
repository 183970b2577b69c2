//! Policy comparison — gang scheduling vs the introduction's alternatives.
//!
//! The paper motivates gang scheduling as combining time-sharing (short
//! response times for interactive jobs) with space-sharing (high
//! throughput). This example simulates an interactive/batch mix under four
//! policies:
//!
//! * gang scheduling (system-wide, the analyzed policy);
//! * gang scheduling with the §6 per-partition lending variant;
//! * pure time-sharing (whole machine round-robins over jobs, one at a
//!   time — narrow jobs waste processors);
//! * pure space-sharing (FCFS run-to-completion — short jobs wait behind
//!   long ones).
//!
//! Expected outcome, mirroring the paper's narrative: pure space sharing
//! makes short interactive jobs wait behind long batch jobs; pure time
//! sharing drowns because every narrow job monopolizes the machine; gang
//! scheduling gets both right.
//!
//! Run: `cargo run --release --example policy_comparison`

use gsched_core::model::{ClassParams, GangModel};
use gsched_phase::{erlang, exponential, hyperexponential};
use gsched_sim::{simulate, Policy, SimConfig};

fn main() {
    // 8 processors. Class 0: long-running batch jobs on half the machine
    // (g = 4, so two batch partitions — during a batch quantum with a single
    // job, half the machine is idle and the §6 variant can lend it).
    // Class 1: short interactive jobs needing one processor, highly variable
    // service (hyperexponential).
    let model = GangModel::new(
        8,
        vec![
            ClassParams {
                partition_size: 4,
                arrival: exponential(0.10),
                service: exponential(0.2), // mean 5: long batch work
                quantum: erlang(2, 1.0),
                switch_overhead: exponential(100.0),
            },
            ClassParams {
                partition_size: 1,
                arrival: exponential(2.0),
                service: hyperexponential(&[0.9, 0.1], &[8.0, 0.8]).unwrap(), // mean ~0.24
                quantum: erlang(2, 1.0),
                switch_overhead: exponential(100.0),
            },
        ],
    )
    .expect("valid model");

    let cfg = SimConfig {
        horizon: 300_000.0,
        warmup: 30_000.0,
        seed: 99,
        batches: 20,
    };

    println!(
        "interactive/batch mix on 8 processors (gang-offered rho = {:.2})\n",
        model.total_utilization()
    );
    println!(
        "{:<28} {:>10} {:>11} {:>11} {:>11} {:>11}",
        "policy", "batch T", "interact T", "int T p95", "interact N", "utilization"
    );

    let report = |name: &str, r: &gsched_sim::SimResult| {
        let (_, _, p95, _) = r.classes[1].response_quantiles;
        println!(
            "{name:<28} {:>10.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3}",
            r.classes[0].mean_response,
            r.classes[1].mean_response,
            p95,
            r.classes[1].mean_jobs,
            r.processor_utilization
        );
    };

    let gang_sw = simulate(&model, Policy::Gang, cfg.clone());
    report("gang (system-wide)", &gang_sw);

    let gang_pp = simulate(&model, Policy::Lend, cfg.clone());
    report("gang (per-partition, §6)", &gang_pp);

    let ts = simulate(&model, Policy::RoundRobin, cfg.clone());
    report("pure time-sharing (RR)", &ts);

    let ss = simulate(&model, Policy::Fcfs, cfg);
    report("pure space-sharing (FCFS)", &ss);

    println!();
    // Pure time-sharing must serialize everything through the whole machine:
    // its effective load is lambda_b*E[S_b] + lambda_i*E[S_i] per unit time.
    let rr_load = 0.10 * 5.0 + 2.0 * model.class(1).service.mean();
    println!(
        "pure time-sharing serializes the machine: effective load {rr_load:.2} \
         (vs {:.2} under gang scheduling's space sharing)",
        model.total_utilization()
    );
    let gang_interactive = gang_sw.classes[1].mean_response;
    let fcfs_interactive = ss.classes[1].mean_response;
    println!(
        "gang serves interactive jobs {:.1}x faster than FCFS space sharing \
         ({:.2} vs {:.2})",
        fcfs_interactive / gang_interactive,
        gang_interactive,
        fcfs_interactive
    );
    let batch_gain = gang_sw.classes[0].mean_response / gang_pp.classes[0].mean_response;
    let int_gain = gang_sw.classes[1].mean_response / gang_pp.classes[1].mean_response;
    println!(
        "the §6 per-partition variant reclaims idle batch partitions: batch response \
         {batch_gain:.2}x, interactive response {int_gain:.2}x of the system-wide policy"
    );
}
