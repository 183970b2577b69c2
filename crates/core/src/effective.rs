//! Effective-quantum extraction (paper §4.3, Theorem 4.3).
//!
//! The quantum class `p` *actually* uses differs from the parameter `G_p`:
//! it ends early when the queue empties, and it is skipped entirely (length
//! zero) when the class has no work at its turn. The paper captures this by
//! constructing an absorbed chain `X_b` from the solved class process:
//! restrict to the *service* states `Ω_p^s` (cycle phase `k < M_p`), redirect
//! every transition that leaves the service period into an absorbing state,
//! and read the time to absorption — a phase-type distribution whose initial
//! vector `ξ_p` is the steady-state distribution of quantum-start states.
//!
//! The level coordinate is unbounded, so the chain is truncated at a level
//! cap chosen from the stationary tail mass; the truncation redirects
//! arrivals at the cap back into the cap level (reject) and is exact in the
//! limit.

use crate::generator::ClassChain;
use crate::{GangError, Result};
use gsched_linalg::Matrix;
use gsched_obs as obs;
use gsched_phase::{fit_three_moment, fit_two_moment, PhaseType};
use gsched_qbd::QbdSolution;

/// The effective-quantum distribution of a class, with diagnostics.
#[derive(Debug, Clone)]
pub struct EffectiveQuantum {
    /// The (possibly large) exact truncated representation. Its atom at zero
    /// is the probability that the class's turn is skipped entirely.
    pub distribution: PhaseType,
    /// Level cap used for the truncation.
    pub level_cap: usize,
    /// Stationary tail mass above the cap (truncation error indicator).
    pub truncated_mass: f64,
}

/// Extract the effective quantum of a solved class chain.
///
/// `tail_eps` controls the truncation: the cap is the smallest level `≥ c+1`
/// with stationary tail mass below `tail_eps`, clamped to `c + max_extra`.
pub fn effective_quantum(
    chain: &ClassChain,
    sol: &QbdSolution,
    tail_eps: f64,
    max_extra: usize,
) -> Result<EffectiveQuantum> {
    let sp = &chain.space;
    let d = &chain.dists;
    let c = sp.c;

    // Zero-queueing shortcut: when the chain essentially never empties
    // (large-P regime, every partition busy with overwhelming probability),
    // quanta are never cut short and never skipped — the effective quantum
    // *is* the parameter quantum. Skipping the absorbing-chain build here is
    // what makes solves at P in the thousands tractable.
    if sol.level_prob(0) + sol.level_prob(1) < 1e-10 {
        if obs::enabled() {
            obs::observe(obs::names::CORE_EFFECTIVE_LEVEL_CAP, 0.0);
            obs::observe(obs::names::CORE_EFFECTIVE_TRUNCATED_MASS, 0.0);
        }
        let distribution =
            PhaseType::new(d.gamma.clone(), d.sg.clone()).map_err(GangError::Phase)?;
        return Ok(EffectiveQuantum {
            distribution,
            level_cap: 0,
            truncated_mass: 0.0,
        });
    }

    // ---- One walk up the levels picks the cap from the stationary tail and
    // collects ξ, the stationary flow into quantum starts. A truncated
    // solution already certifies its own tail; never force the cap past its
    // boundary. Service states (i, a, cfg, k<m_q) are numbered level by
    // level in (a, cfg, k) order: level i's block ends at `ends[i]`.
    let mut ends = vec![0];
    let mut xi: Vec<f64> = Vec::new();
    let mut atom_flow = 0.0;
    let first_cap = c.min(sol.c()) + 1;
    let last_cap = first_cap + max_extra.max(1) - 1;
    let (cap, truncated_mass) = sol.walk_to_cap(first_cap, last_cap, tail_eps, |i, pi| {
        if i == 0 {
            // Vacation ends with an empty queue — the turn is skipped.
            for a in 0..sp.m_a {
                for v in 0..sp.m_v {
                    atom_flow += pi[sp.state_index(0, a, 0, v)] * d.s0v[v];
                }
            }
            return;
        }
        let (off, ncfg) = (xi.len(), sp.num_cfgs(i));
        xi.resize(off + sp.m_a * ncfg * sp.m_q, 0.0);
        ends.push(xi.len());
        for a in 0..sp.m_a {
            for ci in 0..ncfg {
                // Vacation completion with work, then quantum expiry followed
                // by a zero-length vacation: either way a quantum starts per γ.
                let at = |k: usize| pi[sp.state_index(i, a, ci, k)];
                let vac = (0..sp.m_v).map(|v| at(sp.m_q + v) * d.s0v[v]);
                let expiry = (0..sp.m_q)
                    .filter(|_| d.atom_v > 0.0)
                    .map(|k| at(k) * d.s0g[k] * d.atom_v);
                let starts = off + (a * ncfg + ci) * sp.m_q;
                for flow in vac.chain(expiry).filter(|&f| f > 0.0) {
                    for (k2, &g) in d.gamma.iter().enumerate() {
                        xi[starts + k2] += flow * g;
                    }
                }
            }
        }
    });
    if obs::enabled() {
        obs::observe(obs::names::CORE_EFFECTIVE_LEVEL_CAP, cap as f64);
        obs::observe(obs::names::CORE_EFFECTIVE_TRUNCATED_MASS, truncated_mass);
    }

    let index = |i: usize, a: usize, ci: usize, k: usize| {
        ends[i - 1] + (a * sp.num_cfgs(i) + ci) * sp.m_q + k
    };
    let ns = xi.len();
    let mut t = Matrix::zeros(ns, ns);
    // Absorption rate per state (quantum end events).
    let mut absorb = vec![0.0; ns];
    // Neighbouring service configuration, rebuilt in place per transition.
    let mut cfg2: Vec<u32> = Vec::with_capacity(sp.m_b);
    let mut i = 1;

    for src in 0..ns {
        if src == ends[i] {
            i += 1;
        }
        let (n, ncfg) = (sp.in_service(i), sp.num_cfgs(i));
        let local = (src - ends[i - 1]) / sp.m_q;
        let (a, ci, k) = (local / ncfg, local % ncfg, src % sp.m_q);
        let cfg = &sp.cfgs_for(n)[ci];
        let mut out_sum = 0.0;
        let add = |t: &mut Matrix, dst: usize, rate: f64, out_sum: &mut f64| {
            if rate <= 0.0 || dst == src {
                return; // self-loops are no-ops in continuous time
            }
            t[(src, dst)] += rate;
            *out_sum += rate;
        };

        // Arrival-phase internal.
        for a2 in 0..sp.m_a {
            if a2 != a {
                let r = d.sa[(a, a2)];
                add(&mut t, index(i, a2, ci, k), r, &mut out_sum);
            }
        }
        // Arrival completion.
        let ra = d.s0a[a];
        if ra > 0.0 {
            if i < cap {
                let enters = i < c;
                for (a2, &pa) in d.alpha_a.iter().enumerate() {
                    if pa == 0.0 {
                        continue;
                    }
                    if enters {
                        for (b, &pb) in d.beta.iter().enumerate() {
                            if pb == 0.0 {
                                continue;
                            }
                            cfg2.clone_from(cfg);
                            cfg2[b] += 1;
                            let ci2 = sp.cfg_index(n + 1, &cfg2);
                            add(&mut t, index(i + 1, a2, ci2, k), ra * pa * pb, &mut out_sum);
                        }
                    } else {
                        add(&mut t, index(i + 1, a2, ci, k), ra * pa, &mut out_sum);
                    }
                }
            } else {
                // At the cap: reject the arrival but let the arrival phase
                // restart (keeps the arrival process honest).
                for (a2, &pa) in d.alpha_a.iter().enumerate() {
                    add(&mut t, index(i, a2, ci, k), ra * pa, &mut out_sum);
                }
            }
        }
        // Quantum internal + expiry (absorbing).
        for k2 in 0..sp.m_q {
            if k2 != k {
                add(&mut t, index(i, a, ci, k2), d.sg[(k, k2)], &mut out_sum);
            }
        }
        absorb[src] += d.s0g[k];

        // Service internal.
        for b in 0..sp.m_b {
            let count = cfg[b] as f64;
            if count == 0.0 {
                continue;
            }
            for b2 in 0..sp.m_b {
                if b2 != b {
                    let r = count * d.sb[(b, b2)];
                    if r > 0.0 {
                        cfg2.clone_from(cfg);
                        cfg2[b] -= 1;
                        cfg2[b2] += 1;
                        let ci2 = sp.cfg_index(n, &cfg2);
                        add(&mut t, index(i, a, ci2, k), r, &mut out_sum);
                    }
                }
            }
            // Service completion.
            let rc = count * d.s0b[b];
            if rc > 0.0 {
                if i == 1 {
                    absorb[src] += rc; // queue empties: quantum ends
                } else if i > c {
                    for (b2, &pb) in d.beta.iter().enumerate() {
                        if pb == 0.0 {
                            continue;
                        }
                        cfg2.clone_from(cfg);
                        cfg2[b] -= 1;
                        cfg2[b2] += 1;
                        let ci2 = sp.cfg_index(n, &cfg2);
                        add(&mut t, index(i - 1, a, ci2, k), rc * pb, &mut out_sum);
                    }
                } else {
                    cfg2.clone_from(cfg);
                    cfg2[b] -= 1;
                    let ci2 = sp.cfg_index(n - 1, &cfg2);
                    add(&mut t, index(i - 1, a, ci2, k), rc, &mut out_sum);
                }
            }
        }
        t[(src, src)] = -(out_sum + absorb[src]);
    }

    let total: f64 = xi.iter().sum::<f64>() + atom_flow;
    if total <= 0.0 {
        return Err(GangError::from(gsched_qbd::QbdError::Shape(
            "no quantum-start flow found (degenerate chain)".to_string(),
        ))
        .with_class(chain.class));
    }
    for w in &mut xi {
        *w /= total;
    }

    let distribution = PhaseType::new(xi, t).map_err(GangError::Phase)?;
    Ok(EffectiveQuantum {
        distribution,
        level_cap: cap,
        truncated_mass,
    })
}

/// Compress a (possibly large, possibly defective) effective-quantum PH to a
/// small representation matching its first `moments` (2 or 3) conditional
/// moments, preserving the atom at zero exactly.
pub fn compress(ph: &PhaseType, moments: u8) -> PhaseType {
    let _span = obs::span("core.compress");
    let delta = ph.atom_at_zero();
    if delta >= 1.0 - 1e-12 || ph.order() == 0 {
        // Identically zero: the class is always skipped.
        return PhaseType::zero();
    }
    let scale = 1.0 - delta;
    let raw = ph.moments(if moments >= 3 { 3 } else { 2 });
    let m1 = raw[0] / scale;
    let m2 = raw[1] / scale;
    let fitted = if moments >= 3 {
        fit_three_moment(m1, m2, raw[2] / scale).0
    } else {
        let scv = ((m2 - m1 * m1) / (m1 * m1)).max(0.0);
        fit_two_moment(m1, scv)
    };
    // Prune zero-weight branches (a mixed-Erlang fit can land exactly on a
    // boundary) so downstream chains stay irreducible.
    let fitted = fitted.pruned();
    if delta <= 1e-15 {
        return fitted;
    }
    let alpha: Vec<f64> = fitted.alpha().iter().map(|&a| a * scale).collect();
    PhaseType::new(alpha, fitted.sub_generator())
        .expect("scaling a valid PH initial vector stays valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::build_class_chain;
    use crate::model::{ClassParams, GangModel};
    use crate::vacation::heavy_traffic_vacation;
    use gsched_phase::exponential;
    use gsched_qbd::solution::SolveOptions;

    fn two_class_model(lambda: f64) -> GangModel {
        let mk = || ClassParams {
            partition_size: 2,
            arrival: exponential(lambda),
            service: exponential(1.0),
            quantum: exponential(1.0),
            switch_overhead: exponential(100.0),
        };
        GangModel::new(2, vec![mk(), mk()]).unwrap()
    }

    fn solve_class(m: &GangModel, p: usize) -> (ClassChain, QbdSolution) {
        let vac = heavy_traffic_vacation(m, p);
        let chain = build_class_chain(m, p, &vac).unwrap();
        let sol = chain.qbd.solve(&SolveOptions::default()).unwrap();
        (chain, sol)
    }

    #[test]
    fn effective_quantum_mean_at_most_full() {
        let m = two_class_model(0.3);
        let (chain, sol) = solve_class(&m, 0);
        let eff = effective_quantum(&chain, &sol, 1e-9, 60).unwrap();
        let full = m.class(0).quantum.mean();
        assert!(
            eff.distribution.mean() <= full + 1e-9,
            "effective {} vs full {full}",
            eff.distribution.mean()
        );
        assert!(eff.distribution.mean() > 0.0);
        assert!(eff.truncated_mass < 1e-6);
    }

    #[test]
    fn light_load_mostly_skipped() {
        // Nearly no work: the class's turn is almost always skipped.
        let m = two_class_model(0.01);
        let (chain, sol) = solve_class(&m, 0);
        let eff = effective_quantum(&chain, &sol, 1e-10, 60).unwrap();
        assert!(
            eff.distribution.atom_at_zero() > 0.8,
            "atom = {}",
            eff.distribution.atom_at_zero()
        );
        assert!(eff.distribution.mean() < 0.2 * m.class(0).quantum.mean());
    }

    #[test]
    fn heavier_load_uses_more_quantum() {
        let light = {
            let m = two_class_model(0.1);
            let (chain, sol) = solve_class(&m, 0);
            effective_quantum(&chain, &sol, 1e-9, 60)
                .unwrap()
                .distribution
                .mean()
        };
        let heavy = {
            let m = two_class_model(0.4);
            let (chain, sol) = solve_class(&m, 0);
            effective_quantum(&chain, &sol, 1e-9, 60)
                .unwrap()
                .distribution
                .mean()
        };
        assert!(
            heavy > light * 1.5,
            "heavy {heavy} should exceed light {light}"
        );
    }

    #[test]
    fn compress_preserves_two_moments_and_atom() {
        let m = two_class_model(0.3);
        let (chain, sol) = solve_class(&m, 0);
        let eff = effective_quantum(&chain, &sol, 1e-9, 60)
            .unwrap()
            .distribution;
        let small = compress(&eff, 2);
        assert!(small.order() <= 130);
        assert!((small.atom_at_zero() - eff.atom_at_zero()).abs() < 1e-9);
        assert!(
            (small.mean() - eff.mean()).abs() < 1e-6 * eff.mean().max(1.0),
            "{} vs {}",
            small.mean(),
            eff.mean()
        );
        let rel2 = (small.moment(2) - eff.moment(2)).abs() / eff.moment(2).max(1e-12);
        assert!(rel2 < 1e-5, "second moment off by {rel2}");
    }

    #[test]
    fn compress_three_moments() {
        let m = two_class_model(0.35);
        let (chain, sol) = solve_class(&m, 0);
        let eff = effective_quantum(&chain, &sol, 1e-9, 60)
            .unwrap()
            .distribution;
        let small = compress(&eff, 3);
        assert!((small.mean() - eff.mean()).abs() / eff.mean() < 1e-5);
        let rel2 = (small.moment(2) - eff.moment(2)).abs() / eff.moment(2);
        assert!(rel2 < 1e-4);
    }

    #[test]
    fn compress_zero_is_zero() {
        assert_eq!(compress(&PhaseType::zero(), 2), PhaseType::zero());
    }
}
