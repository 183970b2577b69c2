//! Stress and failure-injection tests for the simulators: extreme
//! variability, near-saturation load, near-deterministic overheads — the
//! invariants must survive all of it.

use gsched_core::model::{ClassParams, GangModel};
use gsched_phase::{deterministic_approx, erlang, exponential, hyperexponential};
use gsched_sim::{simulate, Policy, SimConfig};

fn cfg(seed: u64, horizon: f64) -> SimConfig {
    SimConfig {
        horizon,
        warmup: horizon / 10.0,
        seed,
        batches: 10,
    }
}

#[test]
fn heavy_tailed_service_keeps_invariants() {
    // SCV ≈ 20 service: a few huge jobs among many tiny ones.
    let service = hyperexponential(&[0.95, 0.05], &[10.0, 0.11]).unwrap();
    assert!(service.scv() > 5.0, "setup: scv = {}", service.scv());
    let m = GangModel::new(
        4,
        vec![
            ClassParams {
                partition_size: 2,
                arrival: exponential(0.4),
                service: service.clone(),
                quantum: erlang(2, 1.0),
                switch_overhead: exponential(100.0),
            },
            ClassParams {
                partition_size: 1,
                arrival: exponential(0.5),
                service: exponential(1.0),
                quantum: erlang(2, 1.0),
                switch_overhead: exponential(100.0),
            },
        ],
    )
    .unwrap();
    let r = simulate(&m, Policy::Gang, cfg(3, 60_000.0));
    for p in 0..2 {
        assert!(
            r.littles_law_gap(p) < 0.25,
            "class {p}: {}",
            r.littles_law_gap(p)
        );
        let c = &r.classes[p];
        assert!(c.completions > 0);
        let (p50, p90, p95, p99) = c.response_quantiles;
        assert!(
            p50 <= p90 && p90 <= p95 && p95 <= p99,
            "class {p} quantiles"
        );
        // With heavy tails the p99 dwarfs the median for class 0.
        if p == 0 {
            assert!(p99 > 3.0 * p50, "p99 {p99} vs p50 {p50}");
        }
    }
}

#[test]
fn near_saturation_does_not_violate_conservation() {
    // Load close to the class capacity: long queues, but arrivals ==
    // completions + in-system must still hold exactly.
    let m = GangModel::new(
        2,
        vec![ClassParams {
            partition_size: 2,
            arrival: exponential(0.9),
            service: exponential(1.0),
            quantum: erlang(2, 0.5),
            switch_overhead: exponential(1000.0),
        }],
    )
    .unwrap();
    let r = simulate(&m, Policy::Gang, cfg(17, 50_000.0));
    let c = &r.classes[0];
    // Not a strict identity over the warmup boundary, but close.
    let in_flight_bound = c.mean_jobs * 5.0 + 100.0;
    assert!(
        (c.arrivals as f64 - c.completions as f64).abs() < in_flight_bound,
        "arrivals {} vs completions {}",
        c.arrivals,
        c.completions
    );
    assert!(r.processor_utilization > 0.8);
}

#[test]
fn deterministic_overhead_and_quantum() {
    // Erlang-32 approximations of constants: scheduler behaves periodically.
    let m = GangModel::new(
        4,
        vec![
            ClassParams {
                partition_size: 4,
                arrival: exponential(0.3),
                service: exponential(1.0),
                quantum: deterministic_approx(1.0, 32),
                switch_overhead: deterministic_approx(0.01, 8),
            },
            ClassParams {
                partition_size: 2,
                arrival: exponential(0.3),
                service: exponential(2.0),
                quantum: deterministic_approx(1.0, 32),
                switch_overhead: deterministic_approx(0.01, 8),
            },
        ],
    )
    .unwrap();
    let r = simulate(&m, Policy::Gang, cfg(23, 40_000.0));
    for p in 0..2 {
        assert!(r.classes[p].completions > 500, "class {p}");
        assert!(r.littles_law_gap(p) < 0.2);
    }
}

#[test]
fn all_policies_agree_on_light_load_throughput() {
    // At very light load every policy completes (essentially) every job.
    let m = GangModel::new(
        4,
        vec![ClassParams {
            partition_size: 1,
            arrival: exponential(0.2),
            service: exponential(4.0),
            quantum: erlang(2, 1.0),
            switch_overhead: exponential(100.0),
        }],
    )
    .unwrap();
    let c = cfg(29, 50_000.0);
    let thr = |r: &gsched_sim::SimResult| r.classes[0].completions as f64 / r.measured_time;
    let gang = thr(&simulate(&m, Policy::Gang, c.clone()));
    let lend = thr(&simulate(&m, Policy::Lend, c.clone()));
    let rr = thr(&simulate(&m, Policy::RoundRobin, c.clone()));
    let fcfs = thr(&simulate(&m, Policy::Fcfs, c));
    for (name, t) in [("gang", gang), ("lend", lend), ("rr", rr), ("fcfs", fcfs)] {
        assert!(
            (t - 0.2).abs() < 0.02,
            "{name}: throughput {t} should match arrival rate 0.2"
        );
    }
}

#[test]
fn seed_sensitivity_is_statistical_not_structural() {
    // Different seeds must give results within a few CI widths.
    let m = GangModel::new(
        4,
        vec![ClassParams {
            partition_size: 2,
            arrival: exponential(0.4),
            service: exponential(1.0),
            quantum: erlang(2, 1.0),
            switch_overhead: exponential(100.0),
        }],
    )
    .unwrap();
    let a = simulate(&m, Policy::Gang, cfg(1, 80_000.0));
    let b = simulate(&m, Policy::Gang, cfg(2, 80_000.0));
    let gap = (a.classes[0].mean_jobs - b.classes[0].mean_jobs).abs();
    let tol = 4.0 * (a.classes[0].mean_jobs_ci95 + b.classes[0].mean_jobs_ci95) + 0.02;
    assert!(gap < tol, "seed gap {gap} vs tol {tol}");
}

#[test]
fn zero_work_class_is_harmless() {
    // A class that (almost) never receives jobs must not disturb the others
    // beyond its overhead cost.
    let m = GangModel::new(
        4,
        vec![
            ClassParams {
                partition_size: 2,
                arrival: exponential(0.4),
                service: exponential(1.0),
                quantum: erlang(2, 1.0),
                switch_overhead: exponential(1000.0),
            },
            ClassParams {
                partition_size: 4,
                arrival: exponential(1e-5), // essentially never
                service: exponential(1.0),
                quantum: erlang(2, 1.0),
                switch_overhead: exponential(1000.0),
            },
        ],
    )
    .unwrap();
    let r = simulate(&m, Policy::Gang, cfg(31, 60_000.0));
    // Class 0 behaves nearly like it owns the machine (M/M/2-ish at 0.2).
    assert!(r.classes[0].mean_jobs < 1.0);
    assert!(r.classes[1].arrivals < 10);
}
