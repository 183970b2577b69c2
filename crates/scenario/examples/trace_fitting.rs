//! From measured traces to a tuned scheduler — the full workflow.
//!
//! The paper argues phase-type parameters are practical because PH
//! distributions can be fitted to empirical data (§3.2). This example walks
//! the whole pipeline a system operator would follow:
//!
//! 1. collect "measured" job traces (here: synthetic samples from a ground
//!    truth the fitter does not see);
//! 2. fit phase-type distributions to the interarrival and service samples;
//! 3. build the gang-scheduling model from the fits;
//! 4. tune the quantum length analytically;
//! 5. confirm the tuned operating point by simulation.
//!
//! Run: `cargo run --release --example trace_fitting`

use gsched_core::model::{ClassParams, GangModel};
use gsched_core::solver::SolverOptions;
use gsched_core::tuning::{optimize_common_quantum, Objective};
use gsched_phase::{erlang, exponential, fit_from_samples, hyperexponential, PhaseType};
use gsched_sim::{simulate, Policy, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(20260705);

    // ---- 1. "Measured" traces (ground truth hidden from the fitter) ----
    let true_arrival = exponential(0.35);
    let true_service = hyperexponential(&[0.8, 0.2], &[2.0, 0.25]).unwrap(); // bursty
    let arrival_trace = true_arrival.sample_n(&mut rng, 50_000);
    let service_trace = true_service.sample_n(&mut rng, 50_000);
    println!(
        "collected {} interarrival and {} service observations",
        arrival_trace.len(),
        service_trace.len()
    );

    // ---- 2. Fit PH distributions ----
    let arrival_fit = fit_from_samples(&arrival_trace).expect("arrival fit");
    let service_fit = fit_from_samples(&service_trace).expect("service fit");
    let describe = |name: &str, fit: &gsched_phase::EmpiricalFit, truth: &PhaseType| {
        println!(
            "{name}: fitted order-{} PH matching {} moments — mean {:.4} (true {:.4}), \
             SCV {:.3} (true {:.3})",
            fit.distribution.order(),
            fit.matched_moments,
            fit.distribution.mean(),
            truth.mean(),
            fit.distribution.scv(),
            truth.scv(),
        );
    };
    describe("interarrival", &arrival_fit, &true_arrival);
    describe("service     ", &service_fit, &true_service);

    // ---- 3. Build the model: fitted batch class + a known system class ----
    let model = GangModel::new(
        8,
        vec![
            ClassParams {
                partition_size: 4,
                arrival: arrival_fit.distribution.clone(),
                service: service_fit.distribution.clone(),
                quantum: erlang(2, 1.0), // placeholder, tuned next
                switch_overhead: exponential(100.0),
            },
            ClassParams {
                partition_size: 1,
                arrival: exponential(1.0),
                service: exponential(2.0),
                quantum: erlang(2, 1.0),
                switch_overhead: exponential(100.0),
            },
        ],
    )
    .expect("valid model");
    println!(
        "\nmodel built: offered utilization rho = {:.3}",
        model.total_utilization()
    );

    // ---- 4. Tune the quantum analytically ----
    let opts = SolverOptions::default();
    let tuned = optimize_common_quantum(&model, 0.05, 20.0, 11, &Objective::TotalMeanJobs, &opts)
        .expect("tuning succeeds");
    println!(
        "tuned common quantum = {:.3} (total mean jobs {:.4}, {} solves)",
        tuned.quantum, tuned.objective_value, tuned.evaluations
    );

    // ---- 5. Confirm by simulation, with the TRUE distributions ----
    // The real system follows the ground truth, not the fit: simulating the
    // truth at the tuned quantum checks that tuning on fitted parameters
    // transfers.
    let mut truth_model = model.clone();
    let mut c0 = truth_model.class(0).clone();
    c0.arrival = true_arrival;
    c0.service = true_service;
    c0.quantum = c0.quantum.with_mean(tuned.quantum);
    truth_model = truth_model.with_class(0, c0);
    let mut c1 = truth_model.class(1).clone();
    c1.quantum = c1.quantum.with_mean(tuned.quantum);
    truth_model = truth_model.with_class(1, c1);

    for q in [tuned.quantum / 10.0, tuned.quantum, tuned.quantum * 10.0] {
        let mut m = truth_model.clone();
        for p in 0..2 {
            let mut c = m.class(p).clone();
            c.quantum = c.quantum.with_mean(q);
            m = m.with_class(p, c);
        }
        let sim = simulate(
            &m,
            Policy::Gang,
            SimConfig {
                horizon: 200_000.0,
                warmup: 20_000.0,
                seed: 5,
                batches: 20,
            },
        );
        let total: f64 = sim.classes.iter().map(|c| c.mean_jobs).sum();
        let marker = if (q - tuned.quantum).abs() < 1e-9 {
            "  <- tuned"
        } else {
            ""
        };
        println!("simulated true system at quantum {q:>7.3}: total N = {total:.3}{marker}");
    }
    println!("\nThe tuned quantum should beat both the 10x shorter and 10x longer settings.");
}
