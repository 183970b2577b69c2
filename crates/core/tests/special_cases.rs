//! Integration tests: the gang-scheduling solver against closed-form
//! queueing limits.
//!
//! When the machine is effectively dedicated to one class (huge quantum,
//! negligible overhead) the model collapses to classical queues with known
//! answers: M/M/1, M/M/c, and M/Er/1. These tests drive the *full* public
//! pipeline — model → vacations → QBD → fixed point → measures.

use gsched_core::model::{ClassParams, GangModel};
use gsched_core::solver::{solve, SolverOptions};
use gsched_phase::{erlang, exponential};

fn dedicated(arrival: f64, service: gsched_phase::PhaseType, g: usize, p: usize) -> GangModel {
    GangModel::new(
        p,
        vec![ClassParams {
            partition_size: g,
            arrival: exponential(arrival),
            service,
            quantum: exponential(1e-4), // mean 10^4: essentially always running
            switch_overhead: exponential(1e5), // mean 10^-5: negligible
        }],
    )
    .unwrap()
}

fn factorial(n: usize) -> f64 {
    (1..=n).map(|i| i as f64).product::<f64>().max(1.0)
}

/// Erlang-C mean number in system for M/M/c.
fn mmc_mean(lambda: f64, mu: f64, c: usize) -> f64 {
    let a = lambda / mu;
    let rho = a / c as f64;
    let mut p0_inv = 0.0;
    for k in 0..c {
        p0_inv += a.powi(k as i32) / factorial(k);
    }
    p0_inv += a.powi(c as i32) / (factorial(c) * (1.0 - rho));
    let p0 = 1.0 / p0_inv;
    let erlc = a.powi(c as i32) / (factorial(c) * (1.0 - rho)) * p0;
    erlc * rho / (1.0 - rho) + a
}

#[test]
fn mm1_limit() {
    for &rho in &[0.2, 0.5, 0.8] {
        let m = dedicated(rho, exponential(1.0), 4, 4);
        let sol = solve(&m, &SolverOptions::default()).unwrap();
        let want = rho / (1.0 - rho);
        let got = sol.classes[0].mean_jobs;
        assert!(
            (got - want).abs() / want < 0.02,
            "rho={rho}: N = {got}, M/M/1 = {want}"
        );
        // Little's law: T = N / lambda.
        assert!((sol.classes[0].mean_response - got / rho).abs() < 1e-9);
    }
}

#[test]
fn mmc_limit() {
    for &(lambda, c) in &[(1.0f64, 2usize), (2.0, 4), (4.0, 8)] {
        let m = dedicated(lambda, exponential(1.0), 8 / c, 8);
        let sol = solve(&m, &SolverOptions::default()).unwrap();
        let want = mmc_mean(lambda, 1.0, c);
        let got = sol.classes[0].mean_jobs;
        assert!(
            (got - want).abs() / want < 0.02,
            "lambda={lambda}, c={c}: N = {got}, M/M/{c} = {want}"
        );
    }
}

#[test]
fn m_er2_1_limit_pollaczek_khinchine() {
    // M/Er2/1: P-K mean N = rho + rho^2 (1 + scv) / (2 (1 - rho)).
    let rho: f64 = 0.6;
    let m = dedicated(rho, erlang(2, 1.0), 4, 4);
    let sol = solve(&m, &SolverOptions::default()).unwrap();
    let scv = 0.5;
    let want = rho + rho * rho * (1.0 + scv) / (2.0 * (1.0 - rho));
    let got = sol.classes[0].mean_jobs;
    assert!((got - want).abs() / want < 0.02, "N = {got}, P-K = {want}");
}

#[test]
fn overload_is_flagged_not_mangled() {
    let m = dedicated(1.5, exponential(1.0), 4, 4);
    let sol = solve(&m, &SolverOptions::default()).unwrap();
    assert!(!sol.classes[0].stable);
    assert!(sol.classes[0].mean_jobs.is_infinite());
}

#[test]
fn two_symmetric_classes_halve_capacity() {
    // Two identical whole-machine classes with equal quanta: each sees
    // roughly half the machine, so saturation sits near rho_class = 0.5.
    let mk = |lambda: f64| {
        GangModel::new(
            4,
            vec![
                ClassParams {
                    partition_size: 4,
                    arrival: exponential(lambda),
                    service: exponential(1.0),
                    quantum: erlang(2, 1.0),
                    switch_overhead: exponential(1000.0),
                },
                ClassParams {
                    partition_size: 4,
                    arrival: exponential(lambda),
                    service: exponential(1.0),
                    quantum: erlang(2, 1.0),
                    switch_overhead: exponential(1000.0),
                },
            ],
        )
        .unwrap()
    };
    let below = solve(&mk(0.42), &SolverOptions::default()).unwrap();
    assert!(below.all_stable, "rho=0.42 per class should be stable");
    let above = solve(&mk(0.55), &SolverOptions::default()).unwrap();
    assert!(
        !above.all_stable,
        "rho=0.55 per class cannot fit in half the machine"
    );
}

#[test]
fn response_time_grows_with_load() {
    let mut last = 0.0;
    for &rho in &[0.2, 0.4, 0.6, 0.8] {
        let m = dedicated(rho, exponential(1.0), 4, 4);
        let sol = solve(&m, &SolverOptions::default()).unwrap();
        let t = sol.classes[0].mean_response;
        assert!(t > last, "T({rho}) = {t} should exceed {last}");
        last = t;
    }
}
