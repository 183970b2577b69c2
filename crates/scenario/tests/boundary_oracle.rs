//! The boundary solve against the dense elimination it replaced. The solve
//! factors each `S_i` once and solves only the rows of `T_i = D_{i+1}(−S_i)⁻¹`
//! that departures reach; the oracle here inverts `−S_i`, clamps the
//! inverse and forms `T_i` and `T_i U_i` by two dense products, as the
//! solver once did. Both answers must agree to 1e-12 relative on every
//! boundary vector and on the tail above the top level: on the registry's
//! first-pass class chains (multi-phase service, whose levels are not
//! square, included), on `p_sweep`'s certified frozen cuts and on an
//! M/M/2000 chain whose back-substitution needs the `2^512` rescaling.

use gsched_core::generator::build_class_chain;
use gsched_core::markov::Ctmc;
use gsched_core::qbd::{LevelTruncation, QbdError, QbdProcess, QbdSolution, SolveOptions};
use gsched_core::vacation::compose_vacation;
use gsched_core::{ClassParams, GangModel};
use gsched_linalg::{Lu, Matrix};
use gsched_phase::erlang;
use gsched_scenario::registry;

/// The rescaling step of the back-substitution, `2^512`.
const RESCALE: f64 = f64::from_bits((1023 + 512) << 52);

/// `(I − R)⁻¹ e`.
fn tail_weights(r: &Matrix) -> Vec<f64> {
    let i_minus_r = &Matrix::identity(r.rows()) - r;
    Lu::new(&i_minus_r).unwrap().inverse().unwrap().row_sums()
}

/// Clamp off-diagonal roundoff of `s` to zero and rebuild its diagonal from
/// `S e = −U e`.
fn conserve_mass(s: &mut Matrix, up: &Matrix) {
    for (i, out) in up.row_sums().into_iter().enumerate() {
        let mut off = 0.0;
        for j in 0..s.cols() {
            if j != i {
                let v = &mut s[(i, j)];
                *v = v.max(0.0);
                off += *v;
            }
        }
        s[(i, i)] = -(off + out);
    }
}

/// Tiny negative roundoff to zero; a larger negative fails the test.
fn clamp_nonneg(seg: &[f64], level: usize) -> Vec<f64> {
    let scale = seg.iter().fold(0.0_f64, |a, &v| a.max(v.abs())).max(1e-300);
    let thresh = 1e-9_f64.max(1e-12 * scale);
    let out: Vec<f64> = seg
        .iter()
        .map(|&v| if v < 0.0 && v > -thresh { 0.0 } else { v })
        .collect();
    assert!(
        out.iter().all(|&v| v >= 0.0),
        "negative pi at level {level}"
    );
    out
}

/// `π_0, …, π_c` of the chain made of levels `0..=c` of `q` with the blocks
/// out of level `c + 1` repeating above them (the whole chain at
/// `c = q.c()`, its frozen cut below that), by dense elimination with the
/// rate matrix `r` of that chain.
fn dense_boundary(q: &QbdProcess, c: usize, r: &Matrix) -> Vec<Vec<f64>> {
    q.build_levels(c + 1).unwrap();
    let mut s = q.local(0).clone();
    let mut ts = Vec::new();
    for i in 0..c {
        let mut neg_s_inv = Lu::new(&s.scaled(-1.0)).unwrap().inverse().unwrap();
        for v in neg_s_inv.as_mut_slice() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let t = q.down(i + 1).matmul(&neg_s_inv).unwrap();
        s = q.local(i + 1) + &t.matmul(q.up(i)).unwrap();
        conserve_mass(&mut s, q.up(i + 1));
        ts.push(t);
    }
    let mut rates = &s + &r.matmul(q.down(c + 1)).unwrap();
    for v in rates.as_mut_slice() {
        *v = v.max(0.0);
    }
    let pi_c = Ctmc::from_rates(&rates).unwrap().stationary_gth().unwrap();
    let mut shift = vec![0; c + 1];
    let mut boundary = vec![Vec::new(); c + 1];
    boundary[c] = clamp_nonneg(&pi_c, c);
    for i in (0..c).rev() {
        let mut v = clamp_nonneg(&ts[i].left_mul_vec(&boundary[i + 1]).unwrap(), i);
        shift[i] = shift[i + 1];
        if v.iter().any(|&x| x > RESCALE) {
            v.iter_mut().for_each(|x| *x /= RESCALE);
            shift[i] += 1;
        }
        boundary[i] = v;
    }
    if shift[0] > 0 {
        for (v, &s) in boundary.iter_mut().zip(&shift) {
            let f = RESCALE.powi(s - shift[0]);
            v.iter_mut().for_each(|x| *x *= f);
        }
    }
    let u = tail_weights(r);
    let below: f64 = boundary[..c].iter().map(|v| v.iter().sum::<f64>()).sum();
    let top: f64 = boundary[c].iter().zip(&u).map(|(a, b)| a * b).sum();
    let total = below + top;
    for v in &mut boundary {
        v.iter_mut().for_each(|x| *x /= total);
    }
    boundary
}

/// `P(level > c) = π_c R (I − R)⁻¹ e`.
fn tail_above(pi_c: &[f64], r: &Matrix) -> f64 {
    let v = r.left_mul_vec(pi_c).unwrap();
    v.iter().zip(tail_weights(r)).map(|(a, b)| a * b).sum()
}

/// `|got − want|_∞ / |want|_∞`, asserted to be at most 1e-12.
///
/// Relative to the vector, not entry by entry: on a multi-phase chain both
/// eliminations differ from a direct GTH solve of the truncated generator
/// by up to 1e-10 relative on entries nine orders below their level's
/// largest, so neither is the other's reference there.
fn assert_close(got: &[f64], want: &[f64], what: &str) -> f64 {
    assert_eq!(got.len(), want.len(), "{what}: size");
    let err = got
        .iter()
        .zip(want)
        .fold(0.0_f64, |e, (g, w)| e.max((g - w).abs()));
    let scale = want.iter().fold(0.0_f64, |s, w| s.max(w.abs()));
    let rel = if err == 0.0 { 0.0 } else { err / scale };
    assert!(
        rel <= 1e-12,
        "{what}: {got:?} vs {want:?} (relative {rel:e})"
    );
    rel
}

/// Compare `sol`, a solve of the cut of `q` at `sol.c()`, with the dense
/// elimination of the same cut; returns the largest relative difference.
fn check(q: &QbdProcess, sol: &QbdSolution, what: &str) -> f64 {
    let c = sol.c();
    let want = dense_boundary(q, c, sol.r());
    let mut worst = 0.0_f64;
    for (i, (g, w)) in sol.boundary().iter().zip(&want).enumerate() {
        worst = worst.max(assert_close(g, w, &format!("{what}: pi_{i}")));
    }
    let tail = tail_above(&want[c], sol.r());
    worst.max(assert_close(
        &[sol.tail_prob(c + 1)],
        &[tail],
        &format!("{what}: tail above level {c}"),
    ))
}

/// The class chains of the fixed point's first pass (parameter quanta).
fn first_pass_chains(model: &GangModel) -> Vec<QbdProcess> {
    let quanta: Vec<_> = (0..model.num_classes())
        .map(|p| model.class(p).quantum.clone())
        .collect();
    (0..model.num_classes())
        .map(|p| {
            build_class_chain(model, p, &compose_vacation(model, p, &quanta))
                .unwrap()
                .qbd
        })
        .collect()
}

fn solve(q: &QbdProcess, truncation: LevelTruncation) -> QbdSolution {
    q.solve(&SolveOptions {
        truncation,
        ..SolveOptions::default()
    })
    .unwrap()
}

/// `model` with every class's service replaced by an Erlang-2 of the same
/// mean.
fn erlang2_service(model: &GangModel) -> GangModel {
    (0..model.num_classes()).fold(model.clone(), |m, p| {
        let class = model.class(p);
        let service = erlang(2, class.service_rate());
        m.with_class(
            p,
            ClassParams {
                service,
                ..class.clone()
            },
        )
    })
}

#[test]
fn registry_chains_match_the_dense_elimination() {
    let (mut solved, mut non_square) = (0, 0);
    let mut models = Vec::new();
    for sc in registry::all() {
        let model = sc.build_model().unwrap();
        if registry::FIGURES.contains(&sc.name.as_str()) {
            models.push((
                format!("{}, Erlang-2 service", sc.name),
                erlang2_service(&model),
            ));
        }
        models.push((sc.name, model));
    }
    for (name, model) in models {
        for (p, q) in first_pass_chains(&model).iter().enumerate() {
            // A class can be overloaded under the parameter quanta of the
            // first pass; the fixed point moves on from there.
            let sol = match q.solve(&SolveOptions::default()) {
                Ok(sol) => sol,
                Err(QbdError::Unstable(_)) => continue,
                Err(e) => panic!("{name}, class {p}: {e}"),
            };
            solved += 1;
            // Level 0 holds vacation phases only; above it the levels keep
            // growing only with a multi-phase service.
            if (1..q.c()).any(|i| q.level_dim(i) != q.level_dim(i + 1)) {
                non_square += 1;
            }
            check(q, &sol, &format!("{name}, class {p}"));
        }
    }
    assert!(solved >= 20, "{solved} registry chains solved");
    assert!(non_square > 0, "no registry chain has multi-phase service");
}

#[test]
fn p_sweep_frozen_cuts_match_the_dense_elimination() {
    let sc = registry::lookup("p_sweep").unwrap();
    let auto = LevelTruncation::Auto {
        target_tail: 1e-8,
        min_levels: 4,
    };
    let mut cuts = 0;
    for p in [64.0, 1024.0] {
        for (class, q) in first_pass_chains(&sc.model_at(p).unwrap())
            .iter()
            .enumerate()
        {
            let sol = solve(q, auto);
            if let Some(cert) = sol.truncation() {
                cuts += 1;
                assert_eq!(sol.c(), cert.level);
            }
            check(q, &sol, &format!("P = {p}, class {class}"));
        }
    }
    assert!(cuts >= 2, "the large machine's chains must truncate");
}

#[test]
fn rescaled_mm2000_matches_the_dense_elimination() {
    // M/M/2000 at λ = 250: π_250 / π_2000 ≈ 1e1046, beyond the exponent
    // range of an f64, so the back-substitution rescales.
    let (lambda, servers) = (250.0, 2000);
    let rate = |x: f64| Matrix::from_rows(&[&[x]]);
    let local = |i: usize| rate(-(lambda + i as f64));
    let q = QbdProcess::new(
        vec![rate(lambda); servers],
        (0..=servers).map(local).collect(),
        (1..=servers).map(|i| rate(i as f64)).collect(),
        rate(lambda),
        local(servers),
        rate(servers as f64),
    )
    .unwrap();
    check(&q, &solve(&q, LevelTruncation::None), "M/M/2000, full");
    let cut = solve(
        &q,
        LevelTruncation::Auto {
            target_tail: 1e-8,
            min_levels: 4,
        },
    );
    assert!(cut.c() < servers);
    check(&q, &cut, "M/M/2000, certified cut");
}
