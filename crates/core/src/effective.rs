//! Effective-quantum extraction (paper §4.3, Theorem 4.3).
//!
//! The quantum class `p` *actually* uses differs from the parameter `G_p`:
//! it ends early when the queue empties, and it is skipped entirely (length
//! zero) when the class has no work at its turn. The paper captures this by
//! constructing an absorbed chain `X_b` from the solved class process:
//! restrict to the *service* states `Ω_p^s` (cycle phase `k < M_p`), redirect
//! every transition that leaves the service period into an absorbing state,
//! and read the time to absorption — a phase-type distribution `PH(ξ_p, T)`
//! whose initial vector `ξ_p` is the steady-state distribution of
//! quantum-start states.
//!
//! The fixed point reads only that distribution's atom at zero (the skip
//! probability) and its first three moments `k!·ξ(−T)^{−k}e`, so those are
//! all this module computes ([`QuantumMoments`]). The level coordinate is
//! unbounded, so the chain is truncated at a level cap chosen from the
//! stationary tail mass; the truncation redirects arrivals at the cap back
//! into the cap level (reject) and is exact in the limit. Arrivals move one
//! level up and service completions one level down, so `−T` is
//! block-tridiagonal over the levels `1..=cap`: it is factored level by
//! level ([`BlockTridiagonalLu`]) in `O(cap·b³)` for blocks of order
//! `b = m_A · configurations · M_p`, and never formed as one matrix.
//! [`compress`] then fits a small PH to the moments.

use crate::generator::ClassChain;
use crate::{GangError, Result};
use gsched_linalg::{BlockTridiagonalLu, Matrix};
use gsched_obs as obs;
use gsched_phase::{fit_three_moment, fit_two_moment, PhaseType};
use gsched_qbd::{QbdError, QbdSolution};

/// What the fixed point reads of a quantum distribution: its atom at zero
/// and its first three moments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantumMoments {
    /// Probability of a zero-length quantum: the class's turn is skipped.
    pub skip: f64,
    /// `E[X^k]` for `k = 1, 2, 3`; the atom at zero contributes nothing.
    pub raw: [f64; 3],
}

impl QuantumMoments {
    /// The atom and moments of a PH distribution.
    pub fn of(ph: &PhaseType) -> QuantumMoments {
        let m = ph.moments(3);
        QuantumMoments {
            skip: ph.atom_at_zero(),
            raw: [m[0], m[1], m[2]],
        }
    }

    /// The mixture taking `self` with probability `w` and `other` otherwise:
    /// atoms and moments mix linearly.
    pub fn mix(&self, w: f64, other: &QuantumMoments) -> QuantumMoments {
        let lerp = |a: f64, b: f64| w * a + (1.0 - w) * b;
        QuantumMoments {
            skip: lerp(self.skip, other.skip),
            raw: [0, 1, 2].map(|k| lerp(self.raw[k], other.raw[k])),
        }
    }

    /// `E[X]`.
    pub fn mean(&self) -> f64 {
        self.raw[0]
    }
}

/// The effective quantum of a class, with diagnostics.
#[derive(Debug, Clone)]
pub struct EffectiveQuantum {
    /// The skip atom and the moments of the truncated absorption time.
    pub moments: QuantumMoments,
    /// Level cap used for the truncation.
    pub level_cap: usize,
    /// Stationary tail mass above the cap (truncation error indicator).
    pub truncated_mass: f64,
}

/// Extract the effective quantum of a solved class chain.
///
/// `tail_eps` controls the truncation: the cap is the smallest level `≥ c+1`
/// with stationary tail mass below `tail_eps`, clamped to `c + max_extra`.
/// A zero pivot in the elimination of `−T` is a [`GangError::Qbd`] naming
/// the class.
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
        let quantum = PhaseType::new(d.gamma.clone(), d.sg.clone()).map_err(GangError::Phase)?;
        return Ok(EffectiveQuantum {
            moments: QuantumMoments::of(&quantum),
            level_cap: 0,
            truncated_mass: 0.0,
        });
    }

    // ---- One walk up the levels picks the cap from the stationary tail and
    // collects ξ, the stationary flow into quantum starts. A truncated
    // solution already certifies its own tail; never force the cap past its
    // boundary. Service states (i, a, cfg, k<m_q) are numbered level by
    // level in (a, cfg, k) order.
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

    let total: f64 = xi.iter().sum::<f64>() + atom_flow;
    if total <= 0.0 {
        return Err(GangError::from(QbdError::Shape(
            "no quantum-start flow found (degenerate chain)".to_string(),
        ))
        .with_class(chain.class));
    }
    for w in &mut xi {
        *w /= total;
    }
    let skip = (1.0 - xi.iter().sum::<f64>()).max(0.0);

    // ---- y_k = y_{k−1}(−T)⁻¹ from y_0 = ξ, and E[X^k] = k!·y_k·e.
    let dims: Vec<usize> = (1..=cap)
        .map(|i| sp.m_a * sp.num_cfgs(i) * sp.m_q)
        .collect();
    chain
        .qbd
        .build_levels(cap)
        .map_err(|e| GangError::from(e).with_class(chain.class))?;
    let neg_t = BlockTridiagonalLu::new(&dims, |j, diag, down, up| {
        fill_level(chain, j + 1, cap, diag, down, up)
    })
    .map_err(|e| GangError::from(QbdError::Linalg(e)).with_class(chain.class))?;
    let mut y = xi;
    let mut raw = [0.0; 3];
    let mut fact = 1.0;
    for (k, m) in raw.iter_mut().enumerate() {
        neg_t.solve_left(&mut y);
        fact *= (k + 1) as f64;
        *m = fact * y.iter().sum::<f64>();
    }
    Ok(EffectiveQuantum {
        moments: QuantumMoments { skip, raw },
        level_cap: cap,
        truncated_mass,
    })
}

/// Write level `i`'s blocks of `−T` into `diag`, `down` (to level `i − 1`)
/// and `up` (to level `i + 1`). The class chain's levels `1..=min(i, c)`
/// must be built.
///
/// `X_b` is the class chain restricted to its service states, so each block
/// is the matching generator block with the vacation phases dropped: every
/// exit from service becomes absorption, and the diagonal (the total
/// outflow) stays. Two rates differ. A quantum expiry that the vacation's
/// atom turns straight into a new quantum is a transition of the class
/// chain but absorption here, and at the cap an arrival is rejected but its
/// phase restarts (keeps the arrival process honest).
fn fill_level(
    chain: &ClassChain,
    i: usize,
    cap: usize,
    diag: &mut [f64],
    down: &mut [f64],
    up: &mut [f64],
) {
    let (sp, d, q) = (&chain.space, &chain.dists, &chain.qbd);
    let (m_q, b) = (sp.m_q, sp.m_a * sp.num_cfgs(i) * sp.m_q);
    // Service state `s` of a level ≥ 1 in the class chain's numbering.
    let at = |s: usize| s / m_q * sp.num_k(1) + s % m_q;
    let negated_service_block = |dst: &mut [f64], src: &Matrix| {
        let width = dst.len() / b;
        for (r, row) in dst.chunks_exact_mut(width.max(1)).enumerate() {
            let from = src.row(at(r));
            row.iter_mut()
                .enumerate()
                .for_each(|(col, v)| *v = -from[at(col)]);
        }
    };
    negated_service_block(diag, q.local(i));
    negated_service_block(down, q.down(i));
    negated_service_block(up, q.up(i));
    let per_phase = b / sp.m_a;
    for (r, row) in diag.chunks_exact_mut(b).enumerate() {
        let k = r % m_q;
        let restart = d.s0g[k] * d.atom_v;
        if restart > 0.0 {
            let quanta = row[r - k..r - k + m_q].iter_mut();
            quanta.zip(&d.gamma).for_each(|(v, &g)| *v += restart * g);
        }
        if i == cap {
            let (a, rest) = (r / per_phase, r % per_phase);
            for (a2, &pa) in d.alpha_a.iter().enumerate() {
                row[a2 * per_phase + rest] -= d.s0a[a] * pa;
            }
        }
    }
}

/// Fit a small PH to an effective quantum's first `moments` (2 or 3)
/// conditional moments, preserving its atom at zero exactly.
pub fn compress(q: &QuantumMoments, moments: u8) -> PhaseType {
    let delta = q.skip;
    if delta >= 1.0 - 1e-12 {
        // Identically zero: the class is always skipped.
        return PhaseType::zero();
    }
    let scale = 1.0 - delta;
    let [m1, m2, m3] = q.raw.map(|m| m / scale);
    let fitted = if moments >= 3 {
        fit_three_moment(m1, m2, m3).0
    } else {
        let scv = ((m2 - m1 * m1) / (m1 * m1)).max(0.0);
        fit_two_moment(m1, scv)
    };
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
    use gsched_linalg::Matrix;
    use gsched_phase::{erlang, exponential, hyperexponential};
    use gsched_qbd::solution::SolveOptions;
    use gsched_qbd::LevelTruncation;

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
        solve_class_with(m, p, &SolveOptions::default())
    }

    fn solve_class_with(m: &GangModel, p: usize, opts: &SolveOptions) -> (ClassChain, QbdSolution) {
        let vac = heavy_traffic_vacation(m, p);
        let chain = build_class_chain(m, p, &vac).unwrap();
        let sol = chain.qbd.solve(opts).unwrap();
        (chain, sol)
    }

    /// The absorbed chain `X_b` as one dense `PH(ξ, T)`: the oracle the
    /// level-block elimination is checked against.
    fn dense_absorbed_chain(
        chain: &ClassChain,
        sol: &QbdSolution,
        tail_eps: f64,
        max_extra: usize,
    ) -> Result<PhaseType> {
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
            return PhaseType::new(d.gamma.clone(), d.sg.clone()).map_err(GangError::Phase);
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
        PhaseType::new(xi, t).map_err(GangError::Phase)
    }

    /// Check the eliminated atom and moments 1–3 against the dense PH's.
    fn assert_matches_dense(what: &str, chain: &ClassChain, sol: &QbdSolution) -> EffectiveQuantum {
        let eff = effective_quantum(chain, sol, 1e-9, 60).unwrap();
        let dense = dense_absorbed_chain(chain, sol, 1e-9, 60).unwrap();
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-300);
        let atom = dense.atom_at_zero();
        assert!(
            rel(eff.moments.skip, atom) <= 1e-10 || eff.moments.skip == atom,
            "{what}: atom {} vs {atom}",
            eff.moments.skip
        );
        for (k, want) in dense.moments(3).into_iter().enumerate() {
            let got = eff.moments.raw[k];
            assert!(
                rel(got, want) <= 1e-10,
                "{what}: moment {}: {got} vs {want}",
                k + 1
            );
        }
        eff
    }

    #[test]
    fn level_elimination_matches_the_dense_absorbed_chain() {
        let (chain, sol) = solve_class(&two_class_model(0.3), 0);
        assert_matches_dense("two-class exponential", &chain, &sol);

        let mut m = two_class_model(0.3);
        let mut c0 = m.class(0).clone();
        c0.arrival = erlang(3, 0.3);
        m = m.with_class(0, c0);
        let (chain, sol) = solve_class(&m, 0);
        assert!(chain.space.m_a > 1);
        assert_matches_dense("Erlang-3 arrivals", &chain, &sol);

        let hyper = || ClassParams {
            partition_size: 2,
            arrival: exponential(0.6),
            service: hyperexponential(&[0.3, 0.7], &[0.5, 2.0]).unwrap(),
            quantum: erlang(2, 1.0),
            switch_overhead: exponential(50.0),
        };
        let m = GangModel::new(6, vec![hyper(), hyper()]).unwrap();
        let (chain, sol) = solve_class(&m, 0);
        assert!(chain.space.c >= 2 && chain.space.num_cfgs(chain.space.c) > 1);
        let eff = assert_matches_dense("hyperexponential service, c = 3", &chain, &sol);
        assert!(eff.level_cap > chain.space.c, "cap {}", eff.level_cap);

        let wide = ClassParams {
            partition_size: 1,
            arrival: exponential(1.0),
            service: exponential(1.0),
            quantum: erlang(4, 1.0),
            switch_overhead: erlang(4, 40.0),
        };
        let m = GangModel::new(64, vec![wide.clone(), wide]).unwrap();
        let auto = SolveOptions {
            truncation: LevelTruncation::Auto {
                target_tail: 1e-10,
                min_levels: 4,
            },
            ..SolveOptions::default()
        };
        let (chain, sol) = solve_class_with(&m, 0, &auto);
        assert!(
            sol.truncation().is_some(),
            "the Auto solve must cut the chain"
        );
        assert_matches_dense("LevelTruncation::Auto", &chain, &sol);

        // Overheads and the other class's quantum with atoms at zero give the
        // vacation an atom: an expiring quantum can restart at once.
        let with_atom = |ph: PhaseType, atom: f64| {
            let alpha = ph.alpha().iter().map(|p| p * (1.0 - atom)).collect();
            PhaseType::new(alpha, ph.sub_generator()).unwrap()
        };
        let mut m = two_class_model(0.3);
        for p in 0..2 {
            let mut class = m.class(p).clone();
            class.switch_overhead = with_atom(exponential(100.0), 0.5);
            m = m.with_class(p, class);
        }
        let quanta = [erlang(2, 1.0), with_atom(erlang(2, 1.0), 0.6)];
        let vac = crate::vacation::compose_vacation(&m, 0, &quanta);
        let chain = build_class_chain(&m, 0, &vac).unwrap();
        assert!(chain.dists.atom_v > 0.1, "atom {}", chain.dists.atom_v);
        let sol = chain.qbd.solve(&SolveOptions::default()).unwrap();
        assert_matches_dense("vacation with an atom", &chain, &sol);
    }

    #[test]
    fn zero_queueing_shortcut_is_the_parameter_quantum() {
        let busy = ClassParams {
            partition_size: 1,
            arrival: exponential(32.0),
            service: exponential(1.0),
            quantum: erlang(3, 1.0),
            switch_overhead: exponential(100.0),
        };
        let m = GangModel::new(64, vec![busy]).unwrap();
        let (chain, sol) = solve_class(&m, 0);
        let eff = assert_matches_dense("zero-queueing", &chain, &sol);
        assert_eq!(eff.level_cap, 0, "the shortcut must be taken");
        assert_eq!(eff.moments, QuantumMoments::of(&m.class(0).quantum));
    }

    #[test]
    fn effective_quantum_mean_at_most_full() {
        let m = two_class_model(0.3);
        let (chain, sol) = solve_class(&m, 0);
        let eff = effective_quantum(&chain, &sol, 1e-9, 60).unwrap();
        let full = m.class(0).quantum.mean();
        assert!(
            eff.moments.mean() <= full + 1e-9,
            "effective {} vs full {full}",
            eff.moments.mean()
        );
        assert!(eff.moments.mean() > 0.0);
        assert!(eff.truncated_mass < 1e-6);
    }

    #[test]
    fn light_load_mostly_skipped() {
        // Nearly no work: the class's turn is almost always skipped.
        let m = two_class_model(0.01);
        let (chain, sol) = solve_class(&m, 0);
        let eff = effective_quantum(&chain, &sol, 1e-10, 60).unwrap();
        assert!(eff.moments.skip > 0.8, "atom = {}", eff.moments.skip);
        assert!(eff.moments.mean() < 0.2 * m.class(0).quantum.mean());
    }

    #[test]
    fn heavier_load_uses_more_quantum() {
        let mean_at = |lambda: f64| {
            let m = two_class_model(lambda);
            let (chain, sol) = solve_class(&m, 0);
            effective_quantum(&chain, &sol, 1e-9, 60)
                .unwrap()
                .moments
                .mean()
        };
        let (light, heavy) = (mean_at(0.1), mean_at(0.4));
        assert!(
            heavy > light * 1.5,
            "heavy {heavy} should exceed light {light}"
        );
    }

    #[test]
    fn compress_preserves_two_moments_and_atom() {
        let m = two_class_model(0.3);
        let (chain, sol) = solve_class(&m, 0);
        let eff = effective_quantum(&chain, &sol, 1e-9, 60).unwrap().moments;
        let small = compress(&eff, 2);
        assert!(small.order() <= 130);
        assert!((small.atom_at_zero() - eff.skip).abs() < 1e-9);
        assert!(
            (small.mean() - eff.mean()).abs() < 1e-6 * eff.mean().max(1.0),
            "{} vs {}",
            small.mean(),
            eff.mean()
        );
        let rel2 = (small.moment(2) - eff.raw[1]).abs() / eff.raw[1].max(1e-12);
        assert!(rel2 < 1e-5, "second moment off by {rel2}");
    }

    #[test]
    fn compress_three_moments() {
        let m = two_class_model(0.35);
        let (chain, sol) = solve_class(&m, 0);
        let eff = effective_quantum(&chain, &sol, 1e-9, 60).unwrap().moments;
        let small = compress(&eff, 3);
        assert!((small.mean() - eff.mean()).abs() / eff.mean() < 1e-5);
        let rel2 = (small.moment(2) - eff.raw[1]).abs() / eff.raw[1];
        assert!(rel2 < 1e-4);
    }

    #[test]
    fn compress_zero_is_zero() {
        let zero = QuantumMoments::of(&PhaseType::zero());
        assert_eq!(compress(&zero, 2), PhaseType::zero());
    }

    #[test]
    fn mixed_moments_are_the_mixture_moments() {
        let (a, b) = (
            erlang(2, 1.5),
            hyperexponential(&[0.4, 0.6], &[0.5, 3.0]).unwrap(),
        );
        let b = PhaseType::new(
            b.alpha().iter().map(|p| 0.8 * p).collect(),
            b.sub_generator(),
        )
        .unwrap();
        let want = QuantumMoments::of(
            &gsched_phase::mixture(&[0.7, 0.3], &[a.clone(), b.clone()]).unwrap(),
        );
        let got = QuantumMoments::of(&a).mix(0.7, &QuantumMoments::of(&b));
        assert!((got.skip - want.skip).abs() < 1e-15);
        for k in 0..3 {
            assert!(
                (got.raw[k] - want.raw[k]).abs() <= 1e-13 * want.raw[k],
                "moment {}",
                k + 1
            );
        }
    }
}
