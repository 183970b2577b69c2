//! Monte-Carlo validation of the Markov-chain machinery: simulate raw
//! trajectories with an independent little simulator and compare against
//! the analytic answers.

use gsched_linalg::Matrix;
use gsched_markov::{AbsorbingCtmc, Ctmc};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// Simulate a CTMC trajectory for `horizon` time and return per-state
/// occupancy fractions.
fn simulate_occupancy(q: &Matrix, start: usize, horizon: f64, rng: &mut StdRng) -> Vec<f64> {
    let n = q.rows();
    let mut occ = vec![0.0; n];
    let mut state = start;
    let mut t = 0.0;
    while t < horizon {
        let rate = -q[(state, state)];
        let dwell = if rate <= 0.0 {
            horizon - t
        } else {
            -(1.0 - rng.random::<f64>()).ln() / rate
        };
        let dwell = dwell.min(horizon - t);
        occ[state] += dwell;
        t += dwell;
        if t >= horizon {
            break;
        }
        // Jump.
        let mut u = rng.random::<f64>() * rate;
        let mut next = state;
        for j in 0..n {
            if j == state {
                continue;
            }
            if u < q[(state, j)] {
                next = j;
                break;
            }
            u -= q[(state, j)];
        }
        state = next;
    }
    for o in &mut occ {
        *o /= horizon;
    }
    occ
}

#[test]
fn gth_stationary_matches_simulation() {
    let q = Matrix::from_rows(&[&[-2.0, 1.5, 0.5], &[0.3, -1.0, 0.7], &[1.2, 0.8, -2.0]]);
    let chain = Ctmc::new(q.clone()).unwrap();
    let pi = chain.stationary_gth().unwrap();
    let mut rng = StdRng::seed_from_u64(4242);
    let occ = simulate_occupancy(&q, 0, 300_000.0, &mut rng);
    for (s, (&want, &got)) in pi.iter().zip(occ.iter()).enumerate() {
        assert!(
            (want - got).abs() < 0.01,
            "state {s}: stationary {want} vs simulated {got}"
        );
    }
}

#[test]
fn absorption_time_matches_simulation() {
    // Two transient states, one absorbing.
    let t = Matrix::from_rows(&[&[-3.0, 1.0], &[0.5, -1.5]]);
    let a = AbsorbingCtmc::from_sub_generator(t.clone()).unwrap();
    let analytic = a.mean_absorption_time(&[1.0, 0.0]).unwrap();

    // Simulate: full generator with absorbing state 2.
    let q = Matrix::from_rows(&[&[-3.0, 1.0, 2.0], &[0.5, -1.5, 1.0], &[0.0, 0.0, 0.0]]);
    let mut rng = StdRng::seed_from_u64(99);
    let n_runs = 200_000;
    let mut total = 0.0;
    for _ in 0..n_runs {
        let mut state = 0usize;
        let mut t_abs = 0.0;
        while state != 2 {
            let rate = -q[(state, state)];
            t_abs += -(1.0 - rng.random::<f64>()).ln() / rate;
            let mut u = rng.random::<f64>() * rate;
            let mut next = state;
            for j in 0..3 {
                if j == state {
                    continue;
                }
                if u < q[(state, j)] {
                    next = j;
                    break;
                }
                u -= q[(state, j)];
            }
            state = next;
        }
        total += t_abs;
    }
    let simulated = total / n_runs as f64;
    assert!(
        (analytic - simulated).abs() < 0.01,
        "analytic {analytic} vs simulated {simulated}"
    );
}

#[test]
fn uniformized_chain_reaches_same_longrun_behaviour() {
    let q = Matrix::from_rows(&[&[-0.7, 0.7], &[2.0, -2.0]]);
    let c = Ctmc::new(q.clone()).unwrap();
    // Uniformize (paper §2.4): P = I + Q/r with r = 1.25 × the largest exit
    // rate, so the chain is aperiodic.
    let mut p = q.scaled(1.0 / (1.25 * 2.0));
    for i in 0..2 {
        p[(i, i)] += 1.0;
    }
    // Run the DTMC many steps from a point mass; compare with CTMC
    // stationary distribution.
    let mut v = vec![1.0, 0.0];
    for _ in 0..10_000 {
        v = p.left_mul_vec(&v).unwrap();
    }
    let pi = c.stationary_gth().unwrap();
    for (a, b) in v.iter().zip(pi.iter()) {
        assert!((a - b).abs() < 1e-10);
    }
}
