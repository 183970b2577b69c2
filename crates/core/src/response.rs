//! Response-time *distributions* by tagged-job analysis.
//!
//! The paper computes mean response times via Little's law (§4.5). This
//! module goes further: the full response-time distribution of a class-`p`
//! job, as a phase-type distribution, by following a *tagged* arrival
//! through the solved chain.
//!
//! The construction exploits two structural facts of the policy:
//!
//! 1. **FCFS within the class**: jobs arriving after the tagged job can
//!    never displace it, occupy a partition it needs, or affect the cycle
//!    process while it is present (switch-on-empty cannot trigger with the
//!    tagged job in the system). The tagged job's future therefore depends
//!    only on the jobs *ahead* of it, the cycle phase, and the vacation
//!    distribution `F_p` — later arrivals can be ignored entirely, which
//!    also makes the tagged chain finite (the ahead-count only decreases).
//! 2. **State seen at arrival**: with phase-type interarrivals, the state
//!    an arrival finds is the stationary distribution weighted by the
//!    arrival-completion flow `π(s)·s⁰_A[a(s)]` (PASTA when arrivals are
//!    Poisson).
//!
//! Validation: the mean of the returned distribution reproduces
//! `T_p = N_p/λ_p` (Little's law) to numerical precision, and its quantiles
//! match the simulator's streaming percentile estimates (see
//! `crates/sim/tests/response_distribution.rs`).

use crate::generator::ClassChain;
use crate::{GangError, Result};
use gsched_linalg::Matrix;
use gsched_obs as obs;
use gsched_phase::PhaseType;
use gsched_qbd::QbdSolution;
use std::collections::HashMap;

/// The response-time distribution of one class, with diagnostics.
#[derive(Debug, Clone)]
pub struct ResponseTimeAnalysis {
    /// Phase-type response-time distribution of a tagged job.
    pub distribution: PhaseType,
    /// Cap on the ahead-count used when mapping the stationary state
    /// (initial-distribution truncation only — the chain itself is finite).
    pub ahead_cap: usize,
    /// Stationary mass above the cap, folded into the cap level.
    pub folded_mass: f64,
}

/// Tagged-job state: `h` jobs ahead; when `h < c` the tagged job is in
/// service with its own phase tracked separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Tagged {
    /// Waiting: `h ≥ c` jobs ahead, their service configuration, cycle phase.
    Waiting {
        /// Jobs ahead.
        h: usize,
        /// Configuration index of the `c` ahead jobs in service.
        cfg: usize,
        /// Cycle phase (`< m_q` quantum, else vacation).
        k: usize,
    },
    /// In service: `h < c` jobs ahead, their configuration, own phase, cycle
    /// phase.
    InService {
        /// Jobs ahead.
        h: usize,
        /// Configuration index of the `h` ahead jobs.
        cfg: usize,
        /// Tagged job's own service phase.
        own: usize,
        /// Cycle phase.
        k: usize,
    },
}

/// Compute the response-time distribution of class `p` from its solved
/// chain.
///
/// `tail_eps`/`max_extra` control where the stationary ahead-count is capped
/// when building the initial distribution (exactly as in the
/// effective-quantum extraction).
pub fn response_time_distribution(
    chain: &ClassChain,
    sol: &QbdSolution,
    tail_eps: f64,
    max_extra: usize,
) -> Result<ResponseTimeAnalysis> {
    let sp = &chain.space;
    let d = &chain.dists;
    let c = sp.c;
    let nk = sp.m_q + sp.m_v;

    // Ahead-count cap from the stationary tail, keeping the level vectors
    // up to it for the initial distribution.
    let mut levels: Vec<Vec<f64>> = Vec::new();
    let (cap, folded_mass) = sol.walk_to_cap(c + 1, c + max_extra.max(1), tail_eps, |_, pi| {
        levels.push(pi.to_vec())
    });
    if obs::enabled() {
        obs::observe(obs::names::CORE_RESPONSE_AHEAD_CAP, cap as f64);
        obs::observe(obs::names::CORE_RESPONSE_FOLDED_MASS, folded_mass);
    }

    // ---- Enumerate tagged states ----
    let mut states: Vec<Tagged> = Vec::new();
    let mut index: HashMap<Tagged, usize> = HashMap::new();
    for h in 0..c.min(cap + 1) {
        for cfg in 0..sp.cfgs_for(h).len() {
            for own in 0..sp.m_b {
                for k in 0..nk {
                    let s = Tagged::InService { h, cfg, own, k };
                    index.insert(s, states.len());
                    states.push(s);
                }
            }
        }
    }
    for h in c..=cap {
        for cfg in 0..sp.cfgs_for(c).len() {
            for k in 0..nk {
                let s = Tagged::Waiting { h, cfg, k };
                index.insert(s, states.len());
                states.push(s);
            }
        }
    }
    let ns = states.len();
    let mut t = Matrix::zeros(ns, ns);
    let mut absorb = vec![0.0; ns];

    // ---- Fill transitions ----
    for (src, &state) in states.iter().enumerate() {
        let mut out = 0.0;
        let add = |t: &mut Matrix,
                   dst: Tagged,
                   rate: f64,
                   out: &mut f64,
                   idx: &HashMap<Tagged, usize>| {
            if rate <= 0.0 {
                return;
            }
            let j = idx[&dst];
            if j == src {
                return;
            }
            t[(src, j)] += rate;
            *out += rate;
        };
        let (k, running) = match state {
            Tagged::Waiting { k, .. } | Tagged::InService { k, .. } => (k, sp.is_quantum_phase(k)),
        };

        // Cycle-phase dynamics (identical in both tagged modes).
        let with_k = |state: Tagged, k2: usize| -> Tagged {
            match state {
                Tagged::Waiting { h, cfg, .. } => Tagged::Waiting { h, cfg, k: k2 },
                Tagged::InService { h, cfg, own, .. } => Tagged::InService { h, cfg, own, k: k2 },
            }
        };
        if running {
            for k2 in 0..sp.m_q {
                if k2 != k {
                    add(&mut t, with_k(state, k2), d.sg[(k, k2)], &mut out, &index);
                }
            }
            let exp_rate = d.s0g[k];
            if exp_rate > 0.0 {
                for (v, &w) in d.alpha_v.iter().enumerate() {
                    add(
                        &mut t,
                        with_k(state, sp.m_q + v),
                        exp_rate * w,
                        &mut out,
                        &index,
                    );
                }
                if d.atom_v > 0.0 {
                    for (k2, &g) in d.gamma.iter().enumerate() {
                        if k2 != k {
                            add(
                                &mut t,
                                with_k(state, k2),
                                exp_rate * d.atom_v * g,
                                &mut out,
                                &index,
                            );
                        }
                    }
                }
            }
        } else {
            let v = k - sp.m_q;
            for v2 in 0..sp.m_v {
                if v2 != v {
                    add(
                        &mut t,
                        with_k(state, sp.m_q + v2),
                        d.sv[(v, v2)],
                        &mut out,
                        &index,
                    );
                }
            }
            let end = d.s0v[v];
            for (k2, &g) in d.gamma.iter().enumerate() {
                add(&mut t, with_k(state, k2), end * g, &mut out, &index);
            }
        }

        // Service dynamics only while the class holds the machine.
        if running {
            match state {
                Tagged::Waiting { h, cfg, k } => {
                    let cfg_vec = sp.cfg(c, cfg);
                    for b in 0..sp.m_b {
                        let count = cfg_vec[b] as f64;
                        if count == 0.0 {
                            continue;
                        }
                        // Internal moves of ahead jobs.
                        for b2 in 0..sp.m_b {
                            if b2 != b {
                                let r = count * d.sb[(b, b2)];
                                if r > 0.0 {
                                    let mut c2 = cfg_vec.to_vec();
                                    c2[b] -= 1;
                                    c2[b2] += 1;
                                    let ci2 = sp.cfg_index(c, &c2);
                                    add(
                                        &mut t,
                                        Tagged::Waiting { h, cfg: ci2, k },
                                        r,
                                        &mut out,
                                        &index,
                                    );
                                }
                            }
                        }
                        // Ahead completion.
                        let rc = count * d.s0b[b];
                        if rc > 0.0 {
                            if h > c {
                                // Another ahead job is promoted.
                                for (b2, &pb) in d.beta.iter().enumerate() {
                                    if pb == 0.0 {
                                        continue;
                                    }
                                    let mut c2 = cfg_vec.to_vec();
                                    c2[b] -= 1;
                                    c2[b2] += 1;
                                    let ci2 = sp.cfg_index(c, &c2);
                                    add(
                                        &mut t,
                                        Tagged::Waiting {
                                            h: h - 1,
                                            cfg: ci2,
                                            k,
                                        },
                                        rc * pb,
                                        &mut out,
                                        &index,
                                    );
                                }
                            } else {
                                // h == c: the tagged job finally enters
                                // service with a fresh phase ~ β.
                                let mut c2 = cfg_vec.to_vec();
                                c2[b] -= 1;
                                let ci2 = sp.cfg_index(c - 1, &c2);
                                for (b2, &pb) in d.beta.iter().enumerate() {
                                    if pb == 0.0 {
                                        continue;
                                    }
                                    add(
                                        &mut t,
                                        Tagged::InService {
                                            h: c - 1,
                                            cfg: ci2,
                                            own: b2,
                                            k,
                                        },
                                        rc * pb,
                                        &mut out,
                                        &index,
                                    );
                                }
                            }
                        }
                    }
                }
                Tagged::InService { h, cfg, own, k } => {
                    let cfg_vec = sp.cfg(h, cfg);
                    // Ahead jobs evolve.
                    for b in 0..sp.m_b {
                        let count = cfg_vec[b] as f64;
                        if count == 0.0 {
                            continue;
                        }
                        for b2 in 0..sp.m_b {
                            if b2 != b {
                                let r = count * d.sb[(b, b2)];
                                if r > 0.0 {
                                    let mut c2 = cfg_vec.to_vec();
                                    c2[b] -= 1;
                                    c2[b2] += 1;
                                    let ci2 = sp.cfg_index(h, &c2);
                                    add(
                                        &mut t,
                                        Tagged::InService {
                                            h,
                                            cfg: ci2,
                                            own,
                                            k,
                                        },
                                        r,
                                        &mut out,
                                        &index,
                                    );
                                }
                            }
                        }
                        let rc = count * d.s0b[b];
                        if rc > 0.0 && h >= 1 {
                            let mut c2 = cfg_vec.to_vec();
                            c2[b] -= 1;
                            let ci2 = sp.cfg_index(h - 1, &c2);
                            add(
                                &mut t,
                                Tagged::InService {
                                    h: h - 1,
                                    cfg: ci2,
                                    own,
                                    k,
                                },
                                rc,
                                &mut out,
                                &index,
                            );
                        }
                    }
                    // Tagged job's own service.
                    for b2 in 0..sp.m_b {
                        if b2 != own {
                            let r = d.sb[(own, b2)];
                            if r > 0.0 {
                                add(
                                    &mut t,
                                    Tagged::InService { h, cfg, own: b2, k },
                                    r,
                                    &mut out,
                                    &index,
                                );
                            }
                        }
                    }
                    absorb[src] += d.s0b[own]; // tagged completion
                }
            }
        }
        t[(src, src)] = -(out + absorb[src]);
    }

    // ---- Initial distribution: the state seen at a tagged arrival ----
    // Weight each stationary state by its arrival-completion flow
    // π(s)·s⁰_A[a]; the new job sees the *pre-arrival* state.
    let mut xi = vec![0.0; ns];
    for (i, pi) in levels.iter().enumerate() {
        let h = i.min(cap);
        let n_srv = sp.in_service(i);
        for (s_idx, &pi_s) in pi.iter().enumerate() {
            let (a, ci, k_raw) = sp.decode(i, s_idx);
            let w = pi_s * d.s0a[a];
            if w == 0.0 {
                continue;
            }
            // Map the chain's cycle phase to the tagged chain's (level 0
            // stores only vacation phases).
            let k = if i == 0 { sp.m_q + k_raw } else { k_raw };
            if h < c {
                // Tagged job enters service immediately with phase ~ β.
                for (b, &pb) in d.beta.iter().enumerate() {
                    if pb == 0.0 {
                        continue;
                    }
                    let s = Tagged::InService {
                        h,
                        cfg: ci,
                        own: b,
                        k,
                    };
                    xi[index[&s]] += w * pb;
                }
            } else {
                let s = Tagged::Waiting { h, cfg: ci, k };
                xi[index[&s]] += w;
            }
            let _ = n_srv;
        }
    }
    // Fold the stationary tail above the cap into the cap level: reuse the
    // aggregated tail phase vector when cap == c would double-count, so only
    // fold when the tail is non-negligible; the fold keeps the distribution
    // proper and errs slightly optimistic (documented).
    let total: f64 = xi.iter().sum();
    if total <= 0.0 {
        return Err(GangError::from(gsched_qbd::QbdError::Shape(
            "no arrival flow found for response-time analysis".to_string(),
        ))
        .with_class(chain.class));
    }
    for w in &mut xi {
        *w /= total;
    }

    let distribution = PhaseType::new(xi, t).map_err(GangError::Phase)?;
    Ok(ResponseTimeAnalysis {
        distribution,
        ahead_cap: cap,
        folded_mass,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::build_class_chain;
    use crate::model::{ClassParams, GangModel};
    use crate::vacation::heavy_traffic_vacation;
    use gsched_phase::{erlang, exponential};
    use gsched_qbd::solution::SolveOptions;

    fn solved(model: &GangModel, p: usize) -> (ClassChain, QbdSolution) {
        let vac = heavy_traffic_vacation(model, p);
        let chain = build_class_chain(model, p, &vac).unwrap();
        let sol = chain.qbd.solve(&SolveOptions::default()).unwrap();
        (chain, sol)
    }

    #[test]
    fn mean_matches_littles_law_mm1_limit() {
        // Dedicated machine: M/M/1; E[R] = 1/(mu - lambda).
        let (lam, mu) = (0.5, 1.0);
        let m = GangModel::new(
            4,
            vec![ClassParams {
                partition_size: 4,
                arrival: exponential(lam),
                service: exponential(mu),
                quantum: exponential(1e-3),
                switch_overhead: exponential(2e3),
            }],
        )
        .unwrap();
        let (chain, sol) = solved(&m, 0);
        let rt = response_time_distribution(&chain, &sol, 1e-8, 80).unwrap();
        let want_mean = 1.0 / (mu - lam);
        assert!(
            (rt.distribution.mean() - want_mean).abs() / want_mean < 0.03,
            "E[R] = {} vs M/M/1 {want_mean}",
            rt.distribution.mean()
        );
        // M/M/1 response time is Exp(mu - lambda): check a quantile.
        let want_p90 = -(1.0f64 - 0.9).ln() / (mu - lam);
        let got_p90 = rt.distribution.quantile(0.9);
        assert!(
            (got_p90 - want_p90).abs() / want_p90 < 0.06,
            "p90 {got_p90} vs {want_p90}"
        );
    }

    #[test]
    fn mean_matches_littles_law_in_general() {
        // Two-class gang system: E[R_p] must equal N_p/λ_p computed from the
        // same stationary solution.
        let mk = |g: usize, lam: f64, mu: f64| ClassParams {
            partition_size: g,
            arrival: exponential(lam),
            service: exponential(mu),
            quantum: erlang(2, 1.0),
            switch_overhead: exponential(100.0),
        };
        let m = GangModel::new(4, vec![mk(4, 0.15, 1.0), mk(1, 0.6, 1.5)]).unwrap();
        for p in 0..2 {
            let (chain, sol) = solved(&m, p);
            let rt = response_time_distribution(&chain, &sol, 1e-9, 120).unwrap();
            let little = sol.mean_level() / m.class(p).arrival_rate();
            let got = rt.distribution.mean();
            assert!(
                (got - little).abs() / little < 0.01,
                "class {p}: E[R] {got} vs Little {little} (folded {})",
                rt.folded_mass
            );
        }
    }

    #[test]
    fn quantiles_are_ordered_and_positive() {
        let m = GangModel::new(
            2,
            vec![
                ClassParams {
                    partition_size: 2,
                    arrival: exponential(0.3),
                    service: exponential(1.0),
                    quantum: erlang(2, 1.0),
                    switch_overhead: exponential(100.0),
                },
                ClassParams {
                    partition_size: 1,
                    arrival: exponential(0.4),
                    service: exponential(2.0),
                    quantum: erlang(2, 1.0),
                    switch_overhead: exponential(100.0),
                },
            ],
        )
        .unwrap();
        let (chain, sol) = solved(&m, 0);
        let rt = response_time_distribution(&chain, &sol, 1e-9, 120).unwrap();
        let p50 = rt.distribution.quantile(0.5);
        let p95 = rt.distribution.quantile(0.95);
        let p99 = rt.distribution.quantile(0.99);
        assert!(p50 > 0.0 && p50 < p95 && p95 < p99);
        // Response includes at least some service: median above a fraction
        // of the mean service time.
        assert!(p50 > 0.1 * m.class(0).service.mean());
    }

    #[test]
    fn phase_type_service_supported() {
        let m = GangModel::new(
            2,
            vec![ClassParams {
                partition_size: 1,
                arrival: exponential(0.5),
                service: erlang(2, 1.0),
                quantum: erlang(2, 0.8),
                switch_overhead: exponential(50.0),
            }],
        )
        .unwrap();
        let (chain, sol) = solved(&m, 0);
        let rt = response_time_distribution(&chain, &sol, 1e-9, 120).unwrap();
        let little = sol.mean_level() / 0.5;
        assert!(
            (rt.distribution.mean() - little).abs() / little < 0.01,
            "{} vs {little}",
            rt.distribution.mean()
        );
    }
}
