//! Integration test: the analytic response-time *distribution* (tagged-job
//! chain) against the simulator's streaming percentile estimates.

use gsched_core::generator::build_class_chain;
use gsched_core::model::{ClassParams, GangModel};
use gsched_core::response::response_time_distribution;
use gsched_core::vacation::heavy_traffic_vacation;
use gsched_phase::{erlang, exponential};
use gsched_sim::{simulate, Policy, SimConfig};

/// A single-class system where the heavy-traffic vacation is exact (there is
/// only the class's own overhead), so the analytic tagged-job distribution
/// should match the simulator closely.
fn single_class(lam: f64) -> GangModel {
    GangModel::new(
        2,
        vec![ClassParams {
            partition_size: 1,
            arrival: exponential(lam),
            service: exponential(1.0),
            quantum: erlang(2, 0.5),
            switch_overhead: exponential(50.0),
        }],
    )
    .unwrap()
}

#[test]
fn quantiles_match_simulation_single_class() {
    let m = single_class(0.8); // two partitions: M/M/2-ish with tiny vacations
    let vac = heavy_traffic_vacation(&m, 0);
    let chain = build_class_chain(&m, 0, &vac).unwrap();
    let sol = chain.qbd.solve(&Default::default()).unwrap();
    let rt = response_time_distribution(&chain, &sol, 1e-8, 100).unwrap();

    let sim = simulate(
        &m,
        Policy::Gang,
        SimConfig {
            horizon: 300_000.0,
            warmup: 30_000.0,
            seed: 77,
            batches: 20,
        },
    );
    let (s50, s90, s95, _s99) = sim.classes[0].response_quantiles;

    for (p, sim_q) in [(0.5, s50), (0.9, s90), (0.95, s95)] {
        let ana_q = rt.distribution.quantile(p);
        let gap = (ana_q - sim_q).abs() / sim_q;
        assert!(
            gap < 0.08,
            "p{}: analytic {ana_q:.4} vs simulated {sim_q:.4} (gap {gap:.3})",
            (p * 100.0) as u32
        );
    }
    // Means agree with both Little's law and the simulator.
    let little = sol.mean_level() / 0.8;
    assert!((rt.distribution.mean() - little).abs() / little < 0.01);
    let sim_mean = sim.classes[0].mean_response;
    assert!(
        (rt.distribution.mean() - sim_mean).abs() / sim_mean < 0.05,
        "analytic mean {} vs sim {sim_mean}",
        rt.distribution.mean()
    );
}

#[test]
fn multi_class_distribution_brackets_simulation() {
    // With competing classes the analysis carries the vacation-independence
    // approximation; quantiles should still land within the documented
    // optimistic margin.
    let mk = |g: usize, lam: f64, mu: f64| ClassParams {
        partition_size: g,
        arrival: exponential(lam),
        service: exponential(mu),
        quantum: erlang(2, 1.0),
        switch_overhead: exponential(100.0),
    };
    let m = GangModel::new(4, vec![mk(4, 0.15, 1.0), mk(1, 0.6, 1.5)]).unwrap();
    // Use the fixed point's converged vacations for the tagged-job analysis.
    let full = gsched_core::solver::solve(&m, &Default::default()).unwrap();
    let sim = simulate(
        &m,
        Policy::Gang,
        SimConfig {
            horizon: 200_000.0,
            warmup: 20_000.0,
            seed: 13,
            batches: 20,
        },
    );
    for p in 0..2 {
        // Rebuild the class chain at the heavy-traffic vacation as a bound
        // check: analytic p95 (optimistic fixed point) should be below the
        // simulated p95 times a generous factor, and above a fraction of it.
        let vac = heavy_traffic_vacation(&m, p);
        let chain = build_class_chain(&m, p, &vac).unwrap();
        let sol = chain.qbd.solve(&Default::default()).unwrap();
        let rt = response_time_distribution(&chain, &sol, 1e-8, 80).unwrap();
        let ana95 = rt.distribution.quantile(0.95);
        let (_, _, sim95, _) = sim.classes[p].response_quantiles;
        assert!(
            ana95 > 0.3 * sim95 && ana95 < 3.0 * sim95,
            "class {p}: analytic p95 {ana95} vs sim {sim95}"
        );
        let _ = &full;
    }
}
