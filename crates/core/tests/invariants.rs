//! Invariant sweeps over a grid of model configurations: whatever the
//! parameters, the structural properties of the analysis must hold.

use gsched_core::generator::build_class_chain;
use gsched_core::model::{ClassParams, GangModel};
use gsched_core::qbd::QbdProcess;
use gsched_core::solver::{solve, SolverOptions};
use gsched_core::vacation::{compose_vacation, heavy_traffic_vacation};
use gsched_phase::{erlang, exponential, hyperexponential, PhaseType};

fn grid_models() -> Vec<GangModel> {
    let mut out = Vec::new();
    for &(p, gs) in &[(4usize, [4usize, 1]), (8, [8, 2]), (8, [4, 1])] {
        for &lam in &[0.1, 0.3] {
            for &q in &[0.5, 2.0] {
                let mk = |g: usize| ClassParams {
                    partition_size: g,
                    arrival: exponential(lam),
                    service: exponential(1.0),
                    quantum: erlang(2, 1.0 / q),
                    switch_overhead: exponential(100.0),
                };
                out.push(GangModel::new(p, vec![mk(gs[0]), mk(gs[1])]).unwrap());
            }
        }
    }
    out
}

/// §4.4 by Tarjan's components, independently of the solver: the positive
/// off-diagonal rates of the chain truncated at level `c + 2` form one
/// strongly connected component.
fn irreducible(q: &QbdProcess) -> bool {
    let t = q.truncated_generator(q.c() + 2).unwrap();
    let adj: Vec<Vec<usize>> = (0..t.rows())
        .map(|i| {
            (0..t.cols())
                .filter(|&j| j != i && t[(i, j)] > 0.0)
                .collect()
        })
        .collect();
    gsched_markov::tarjan_scc(&adj).len() == 1
}

#[test]
fn chains_are_generators_and_irreducible_across_grid() {
    for (i, m) in grid_models().iter().enumerate() {
        for p in 0..m.num_classes() {
            let vac = heavy_traffic_vacation(m, p);
            let chain = build_class_chain(m, p, &vac)
                .unwrap_or_else(|e| panic!("grid model {i}, class {p}: {e}"));
            assert!(irreducible(&chain.qbd), "grid model {i}, class {p}");
            // Truncated generator rows sum to zero.
            let t = chain.qbd.truncated_generator(chain.qbd.c() + 3).unwrap();
            for (r, rs) in t.row_sums().iter().enumerate() {
                assert!(
                    rs.abs() < 1e-8,
                    "grid model {i}, class {p}: row {r} sums to {rs}"
                );
            }
        }
    }
}

#[test]
fn solutions_satisfy_global_invariants_across_grid() {
    for (i, m) in grid_models().iter().enumerate() {
        let sol =
            solve(m, &SolverOptions::default()).unwrap_or_else(|e| panic!("grid model {i}: {e}"));
        assert!(sol.converged, "grid model {i}");
        for (p, c) in sol.classes.iter().enumerate() {
            assert!(c.stable, "grid model {i}, class {p}");
            let meas = c.measures.as_ref().unwrap();
            // Probabilities in range.
            assert!((0.0..=1.0 + 1e-9).contains(&meas.prob_empty));
            assert!((0.0..=1.0 + 1e-9).contains(&meas.service_fraction));
            assert!((0.0..=1.0).contains(&c.skip_probability));
            // Service fraction must at least cover the work brought in:
            // lambda_p * E[B_p] jobs-worth of service per unit time spread
            // over c_p partitions.
            let cp = m.partitions(p) as f64;
            let needed = meas.arrival_rate * m.class(p).service.mean() / cp;
            assert!(
                meas.service_fraction > needed * 0.98,
                "grid model {i}, class {p}: service fraction {} below workload {}",
                meas.service_fraction,
                needed
            );
            // Effective quantum below the nominal quantum.
            assert!(c.effective_quantum_mean <= m.class(p).quantum.mean() * (1.0 + 1e-9));
            // Vacation equals the composition over the other classes.
            assert!(c.vacation_mean > 0.0);
        }
        // Cycle accounting: mean cycle equals the sum of effective quanta
        // and overheads.
        let manual: f64 = sol
            .classes
            .iter()
            .enumerate()
            .map(|(p, c)| c.effective_quantum_mean + m.class(p).switch_overhead.mean())
            .sum();
        assert!((sol.mean_cycle - manual).abs() < 1e-12);
    }
}

#[test]
fn vacation_composition_is_consistent() {
    let m = grid_models().pop().unwrap();
    // Arbitrary effective quanta: vacation mean must equal the sum of the
    // other classes' quanta plus ALL overheads.
    let quanta = vec![
        hyperexponential(&[0.5, 0.5], &[2.0, 8.0]).unwrap(),
        erlang(3, 4.0),
    ];
    for p in 0..2 {
        let z = compose_vacation(&m, p, &quanta);
        let want: f64 = (0..2)
            .map(|n| {
                let oh = m.class(n).switch_overhead.mean();
                if n == p {
                    oh
                } else {
                    oh + quanta[n].mean()
                }
            })
            .sum();
        assert!(
            (z.mean() - want).abs() < 1e-10,
            "class {p}: {} vs {want}",
            z.mean()
        );
    }
}

#[test]
fn zero_order_effective_quantum_handled() {
    // A class whose turn is always skipped contributes only overheads.
    let m = grid_models().remove(0);
    let quanta = vec![PhaseType::zero(), erlang(2, 1.0)];
    let z = compose_vacation(&m, 1, &quanta);
    let want = m.class(0).switch_overhead.mean() + m.class(1).switch_overhead.mean();
    assert!((z.mean() - want).abs() < 1e-12);
}

#[test]
fn response_time_dominates_service_time() {
    // E[R] >= E[B]: a job cannot finish faster than its own service.
    for (i, m) in grid_models().iter().enumerate().take(4) {
        let sol = solve(m, &SolverOptions::default()).unwrap();
        for (p, c) in sol.classes.iter().enumerate() {
            let service_mean = m.class(p).service.mean();
            assert!(
                c.mean_response >= service_mean * 0.999,
                "grid model {i}, class {p}: T {} below service mean {service_mean}",
                c.mean_response
            );
        }
    }
}
