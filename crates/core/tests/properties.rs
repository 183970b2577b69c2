//! Property-based tests spanning the workspace crates.
//!
//! These exercise the algebraic invariants the analysis relies on:
//! phase-type closure properties, QBD stability ↔ spectral radius, GTH
//! correctness, and solver consistency (Little's law, mass conservation).

use gsched_core::model::{ClassParams, GangModel};
use gsched_core::solver::{solve, SolverOptions};
use gsched_linalg::{spectral_radius, Matrix};
use gsched_markov::Ctmc;
use gsched_phase::{convolve, erlang, exponential, hyperexponential, minimum, PhaseType};
use gsched_qbd::{drift_condition, solve_r, QbdProcess, RSolverMethod};
use proptest::prelude::*;

fn small_rate() -> impl Strategy<Value = f64> {
    (0.1f64..8.0).prop_map(|r| (r * 1000.0).round() / 1000.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn convolution_adds_means_and_variances(a in small_rate(), b in small_rate(), k in 1usize..5) {
        let f = exponential(a);
        let g = erlang(k, b);
        let c = convolve(&f, &g);
        prop_assert!((c.mean() - (f.mean() + g.mean())).abs() < 1e-9);
        prop_assert!((c.variance() - (f.variance() + g.variance())).abs() < 1e-8);
    }

    #[test]
    fn minimum_of_exponentials_is_exponential(a in small_rate(), b in small_rate()) {
        let m = minimum(&exponential(a), &exponential(b));
        prop_assert!((m.mean() - 1.0 / (a + b)).abs() < 1e-9);
        prop_assert!((m.scv() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ph_cdf_is_monotone(rate in small_rate(), k in 1usize..4) {
        let ph = erlang(k, rate);
        let mut last = 0.0;
        for i in 0..20 {
            let t = i as f64 * 0.3;
            let f = ph.cdf(t);
            prop_assert!(f >= last - 1e-9, "CDF dropped at t={t}");
            prop_assert!((0.0..=1.0 + 1e-9).contains(&f));
            last = f;
        }
    }

    #[test]
    fn ph_moments_match_samples(p in 0.1f64..0.9, r1 in small_rate(), r2 in small_rate()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let ph = hyperexponential(&[p, 1.0 - p], &[r1, r2]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 60_000;
        let mean: f64 = ph.sample_n(&mut rng, n).iter().sum::<f64>() / n as f64;
        // 5 sigma tolerance on the sample mean.
        let tol = 5.0 * (ph.variance() / n as f64).sqrt() + 1e-3;
        prop_assert!((mean - ph.mean()).abs() < tol, "sample {mean} vs {} (tol {tol})", ph.mean());
    }

    #[test]
    fn qbd_stability_iff_spectral_radius(lambda in 0.05f64..1.9, mu in 1.0f64..1.00001) {
        prop_assume!((lambda - mu).abs() > 0.05);
        let a0 = Matrix::from_rows(&[&[lambda]]);
        let a1 = Matrix::from_rows(&[&[-(lambda + mu)]]);
        let a2 = Matrix::from_rows(&[&[mu]]);
        let drift = drift_condition(&a0, &a1, &a2).unwrap();
        if drift.is_stable() {
            let r = solve_r(&a0, &a1, &a2, RSolverMethod::LogarithmicReduction, 1e-12, 500).unwrap();
            let sp = spectral_radius(&r, 1e-12, 100_000).unwrap();
            prop_assert!(sp < 1.0, "stable drift but sp(R) = {sp}");
            prop_assert!((sp - lambda / mu).abs() < 1e-6);
        } else {
            prop_assert!(lambda >= mu);
        }
    }

    #[test]
    fn gth_solves_balance_equations(seed in 0u64..500, n in 2usize..7) {
        // Pseudo-random dense irreducible generator.
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            0.05 + (s % 1000) as f64 / 1000.0
        };
        let mut rates = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    rates[(i, j)] = next();
                }
            }
        }
        let c = Ctmc::from_rates(&rates).unwrap();
        let pi = c.stationary_gth().unwrap();
        let res = c.generator().transpose().mul_vec(&pi).unwrap();
        for r in res {
            prop_assert!(r.abs() < 1e-10);
        }
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mm1_qbd_mean_matches_formula(rho in 0.05f64..0.9) {
        let q = QbdProcess::new(
            vec![],
            vec![Matrix::from_rows(&[&[-rho]])],
            vec![],
            Matrix::from_rows(&[&[rho]]),
            Matrix::from_rows(&[&[-(rho + 1.0)]]),
            Matrix::from_rows(&[&[1.0]]),
        ).unwrap();
        let sol = q.solve(&Default::default()).unwrap();
        prop_assert!((sol.mean_level() - rho / (1.0 - rho)).abs() < 1e-7);
        prop_assert!((sol.total_mass() - 1.0).abs() < 1e-8);
    }
}

proptest! {
    // The full solver is heavier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn solver_invariants_hold(lambda in 0.05f64..0.35, q in 0.3f64..3.0) {
        let mk = || ClassParams {
            partition_size: 2,
            arrival: exponential(lambda),
            service: exponential(1.0),
            quantum: erlang(2, 1.0 / q),
            switch_overhead: exponential(100.0),
        };
        let model = GangModel::new(2, vec![mk(), mk()]).unwrap();
        let sol = solve(&model, &SolverOptions::default()).unwrap();
        prop_assert!(sol.converged);
        for c in &sol.classes {
            prop_assert!(c.stable);
            prop_assert!(c.mean_jobs > 0.0 && c.mean_jobs.is_finite());
            // Little's law by construction, but via the public surface:
            let meas = c.measures.as_ref().unwrap();
            prop_assert!((c.mean_response * meas.arrival_rate - c.mean_jobs).abs() < 1e-9);
            // Effective quantum cannot exceed the parameter quantum mean.
            prop_assert!(c.effective_quantum_mean <= q * (1.0 + 1e-6));
            prop_assert!((0.0..=1.0).contains(&c.skip_probability));
            // Sanity on probabilities.
            prop_assert!((0.0..=1.0 + 1e-9).contains(&meas.prob_empty));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&meas.service_fraction));
        }
        // Symmetric classes → symmetric results.
        prop_assert!((sol.classes[0].mean_jobs - sol.classes[1].mean_jobs).abs() < 1e-5);
    }

    #[test]
    fn effective_quantum_shrinks_with_load(q in 0.5f64..2.0) {
        let mk = |lambda: f64| {
            let c = ClassParams {
                partition_size: 2,
                arrival: exponential(lambda),
                service: exponential(1.0),
                quantum: erlang(2, 1.0 / q),
                switch_overhead: exponential(100.0),
            };
            GangModel::new(2, vec![c.clone(), c]).unwrap()
        };
        let light = solve(&mk(0.05), &SolverOptions::default()).unwrap();
        let heavy = solve(&mk(0.35), &SolverOptions::default()).unwrap();
        prop_assert!(
            light.classes[0].effective_quantum_mean < heavy.classes[0].effective_quantum_mean
        );
        prop_assert!(light.classes[0].skip_probability > heavy.classes[0].skip_probability);
    }
}

#[test]
fn zero_phase_type_is_identity_for_convolution() {
    let e = exponential(1.0);
    assert_eq!(convolve(&PhaseType::zero(), &e), e);
}
