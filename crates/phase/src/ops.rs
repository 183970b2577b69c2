//! Closure operations on phase-type distributions.
//!
//! Theorem 2.5 of the paper gives the convolution construction used to build
//! the "vacation" distribution `Z_p = C_p * G_{p+1} * C_{p+1} * … * C_{p−1}`
//! (Theorems 4.1 and 4.3). Mixture, minimum and maximum are standard PH
//! closure results (Neuts 1981) provided for workload modelling.
//!
//! All operations handle *defective* representations, where `α·e < 1` leaves
//! an atom at zero — these arise naturally for effective quanta that can be
//! skipped entirely.

use crate::dist::{PhaseType, PhaseTypeError};
use gsched_linalg::Matrix;

/// Convolution `F * G` — the distribution of `X + Y` for independent
/// `X ~ F`, `Y ~ G` (Theorem 2.5).
///
/// The result has order `n_F + n_G`, sub-generator
/// `[[S_F, s⁰_F β], [0, S_G]]`, initial vector `[α, α₀ β]`, and atom
/// `α₀ β₀`.
pub fn convolve(f: &PhaseType, g: &PhaseType) -> PhaseType {
    let nf = f.order();
    let ng = g.order();
    if nf == 0 {
        // F is identically its atom: X + Y = Y scaled by the atom structure.
        // atom_F is 1, so F * G = G.
        return g.clone();
    }
    if ng == 0 {
        return f.clone();
    }
    let sf = f.sub_generator();
    let sg = g.sub_generator();
    let s0f = f.exit_vector();
    let beta = g.alpha();
    let alpha0 = f.atom_at_zero();

    let n = nf + ng;
    let mut s = Matrix::zeros(n, n);
    s.set_block(0, 0, &sf);
    s.set_block(nf, nf, &sg);
    for i in 0..nf {
        for (j, &b) in beta.iter().enumerate() {
            s[(i, nf + j)] = s0f[i] * b;
        }
    }
    let mut alpha = Vec::with_capacity(n);
    alpha.extend_from_slice(f.alpha());
    alpha.extend(beta.iter().map(|&b| alpha0 * b));
    PhaseType::new(alpha, s).expect("convolution of valid PH is valid")
}

/// Convolution of a sequence of distributions, in order.
///
/// Returns [`PhaseType::zero`] for an empty slice.
pub fn convolve_all(parts: &[PhaseType]) -> PhaseType {
    parts
        .iter()
        .fold(PhaseType::zero(), |acc, p| convolve(&acc, p))
}

/// Finite mixture `Σ wᵢ Fᵢ`.
///
/// # Errors
/// Fails if weights and components differ in number, any weight is negative,
/// or the weights do not sum to one (tolerance `1e-9`).
pub fn mixture(weights: &[f64], parts: &[PhaseType]) -> Result<PhaseType, PhaseTypeError> {
    if weights.len() != parts.len() || parts.is_empty() {
        return Err(PhaseTypeError::Shape {
            alpha_len: weights.len(),
            s_shape: (parts.len(), parts.len()),
        });
    }
    if weights.iter().any(|&w| w < 0.0) {
        return Err(PhaseTypeError::BadInitialVector(
            "mixture weights must be nonnegative".to_string(),
        ));
    }
    let total: f64 = weights.iter().sum();
    if (total - 1.0).abs() > 1e-9 {
        return Err(PhaseTypeError::BadInitialVector(format!(
            "mixture weights sum to {total}, expected 1"
        )));
    }
    let n: usize = parts.iter().map(|p| p.order()).sum();
    let mut s = Matrix::zeros(n, n);
    let mut alpha = Vec::with_capacity(n);
    let mut offset = 0;
    for (w, p) in weights.iter().zip(parts.iter()) {
        let order = p.order();
        if order > 0 {
            s.set_block(offset, offset, &p.sub_generator());
            alpha.extend(p.alpha().iter().map(|&a| w * a));
            offset += order;
        }
        // A zero-order part contributes only to the atom (deficit of alpha).
    }
    PhaseType::new(alpha, s)
}

/// Distribution of `min(X, Y)` for independent PH variables.
///
/// Transient space is the Kronecker product of the two phase spaces with
/// sub-generator `S_F ⊕ S_G`; absorption happens as soon as either component
/// absorbs. The atom at zero is `α₀ + β₀ − α₀β₀`.
pub fn minimum(f: &PhaseType, g: &PhaseType) -> PhaseType {
    if f.order() == 0 || g.order() == 0 {
        // One of them is identically 0, so the minimum is identically 0.
        return PhaseType::zero();
    }
    let s = kron_sum(&f.sub_generator(), &g.sub_generator());
    let alpha = kron_vec(f.alpha(), g.alpha());
    PhaseType::new(alpha, s).expect("minimum of valid PH is valid")
}

/// Distribution of `max(X, Y)` for independent PH variables.
///
/// State space: both alive (`n_F·n_G`), only `X` alive (`n_F`), only `Y`
/// alive (`n_G`). The atom at zero is `α₀β₀`.
pub fn maximum(f: &PhaseType, g: &PhaseType) -> PhaseType {
    let nf = f.order();
    let ng = g.order();
    if nf == 0 {
        return g.clone(); // max(0, Y) = Y
    }
    if ng == 0 {
        return f.clone();
    }
    let sf = f.sub_generator();
    let sg = g.sub_generator();
    let s0f = f.exit_vector();
    let s0g = g.exit_vector();
    let both = nf * ng;
    let n = both + nf + ng;
    let mut s = Matrix::zeros(n, n);
    s.set_block(0, 0, &kron_sum(&sf, &sg));
    // G absorbs while both alive -> X-only state with X's current phase.
    for i in 0..nf {
        for j in 0..ng {
            s[(i * ng + j, both + i)] = s0g[j];
        }
    }
    // F absorbs while both alive -> Y-only state with Y's current phase.
    for i in 0..nf {
        for j in 0..ng {
            s[(i * ng + j, both + nf + j)] = s0f[i];
        }
    }
    s.set_block(both, both, &sf);
    s.set_block(both + nf, both + nf, &sg);

    let a0 = f.atom_at_zero();
    let b0 = g.atom_at_zero();
    let mut alpha = kron_vec(f.alpha(), g.alpha());
    alpha.extend(f.alpha().iter().map(|&a| a * b0)); // Y = 0 instantly
    alpha.extend(g.alpha().iter().map(|&b| b * a0)); // X = 0 instantly
    PhaseType::new(alpha, s).expect("maximum of valid PH is valid")
}

/// Kronecker sum `a ⊕ b = a ⊗ I + I ⊗ b` of two square sub-generators: the
/// joint generator of two independent phase processes.
fn kron_sum(a: &Matrix, b: &Matrix) -> Matrix {
    let (na, nb) = (a.rows(), b.rows());
    let mut out = Matrix::zeros(na * nb, na * nb);
    for i in 0..na {
        for j in 0..na {
            let v = a[(i, j)];
            for k in 0..nb {
                for l in 0..nb {
                    // Entry of `a ⊗ I` plus entry of `I ⊗ b`, formed with the
                    // same operations as the sum of the two products (zero
                    // entries of `a` skipped), so signed zeros come out
                    // alike.
                    let left = if v == 0.0 {
                        0.0
                    } else {
                        v * if k == l { 1.0 } else { 0.0 }
                    };
                    let right = if i == j { b[(k, l)] } else { 0.0 };
                    out[(i * nb + k, j * nb + l)] = left + right;
                }
            }
        }
    }
    out
}

/// Kronecker product of two initial vectors: the joint process of two
/// independent phase processes starts in phase `(i, j)` with probability
/// `α_i β_j`.
fn kron_vec(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter()
        .flat_map(|&x| b.iter().map(move |&y| x * y))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{erlang, exponential, hyperexponential};
    use gsched_linalg::Matrix;

    #[test]
    fn convolution_of_exponentials_is_hypoexponential() {
        let a = exponential(1.0);
        let b = exponential(2.0);
        let c = convolve(&a, &b);
        assert_eq!(c.order(), 2);
        assert!((c.mean() - 1.5).abs() < 1e-12);
        // Variance adds for independent sums: 1 + 0.25.
        assert!((c.variance() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn convolution_of_equal_exponentials_is_erlang() {
        let e = exponential(3.0);
        let two = convolve(&e, &e);
        let erl = erlang(2, 1.5); // mean 2/3, same as sum of two mean-1/3
        assert!((two.mean() - erl.mean()).abs() < 1e-12);
        assert!((two.moment(2) - erl.moment(2)).abs() < 1e-12);
        assert!((two.moment(3) - erl.moment(3)).abs() < 1e-11);
        for &t in &[0.1, 0.5, 1.0, 2.0] {
            assert!((two.cdf(t) - erl.cdf(t)).abs() < 1e-10, "t={t}");
        }
    }

    #[test]
    fn convolution_means_add_for_chains() {
        let parts = vec![exponential(1.0), erlang(3, 2.0), exponential(5.0)];
        let total = convolve_all(&parts);
        let want: f64 = parts.iter().map(|p| p.mean()).sum();
        assert!((total.mean() - want).abs() < 1e-12);
        assert_eq!(total.order(), 5);
        // Variances add too (independence).
        let var_want: f64 = parts.iter().map(|p| p.variance()).sum();
        assert!((total.variance() - var_want).abs() < 1e-11);
    }

    #[test]
    fn convolution_with_zero_is_identity() {
        let e = erlang(2, 1.0);
        assert_eq!(convolve(&PhaseType::zero(), &e), e);
        assert_eq!(convolve(&e, &PhaseType::zero()), e);
        assert_eq!(convolve_all(&[]), PhaseType::zero());
    }

    #[test]
    fn convolution_with_atom() {
        // F = 0 w.p. 1/2, Exp(1) w.p. 1/2.  F*G mean = E[F] + E[G].
        let f = PhaseType::new(vec![0.5], Matrix::from_rows(&[&[-1.0]])).unwrap();
        let g = exponential(2.0);
        let c = convolve(&f, &g);
        assert!((c.mean() - (0.5 + 0.5)).abs() < 1e-12);
        assert_eq!(c.atom_at_zero(), 0.0); // G has no atom
        let both = convolve(&f, &f);
        assert!((both.atom_at_zero() - 0.25).abs() < 1e-12);
        assert!((both.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixture_mean_is_weighted() {
        let parts = [exponential(1.0), exponential(4.0)];
        let mix = mixture(&[0.3, 0.7], &parts).unwrap();
        assert!((mix.mean() - (0.3 + 0.7 * 0.25)).abs() < 1e-12);
        // Same as hyperexponential built directly.
        let hyper = hyperexponential(&[0.3, 0.7], &[1.0, 4.0]).unwrap();
        assert!((mix.moment(2) - hyper.moment(2)).abs() < 1e-12);
    }

    #[test]
    fn mixture_validation() {
        let e = exponential(1.0);
        assert!(mixture(&[0.5, 0.6], &[e.clone(), e.clone()]).is_err());
        assert!(mixture(&[0.5], &[e.clone(), e.clone()]).is_err());
        assert!(mixture(&[-0.1, 1.1], &[e.clone(), e.clone()]).is_err());
        assert!(mixture(&[], &[]).is_err());
    }

    #[test]
    fn minimum_of_exponentials() {
        // min(Exp(a), Exp(b)) = Exp(a+b).
        let m = minimum(&exponential(2.0), &exponential(3.0));
        assert!((m.mean() - 0.2).abs() < 1e-12);
        assert!((m.scv() - 1.0).abs() < 1e-10);
        for &t in &[0.1, 0.3, 1.0] {
            let want = 1.0 - (-5.0_f64 * t).exp();
            assert!((m.cdf(t) - want).abs() < 1e-10);
        }
    }

    #[test]
    fn maximum_of_exponentials() {
        // E[max(Exp(a),Exp(b))] = 1/a + 1/b − 1/(a+b).
        let m = maximum(&exponential(2.0), &exponential(3.0));
        let want = 0.5 + 1.0 / 3.0 - 0.2;
        assert!((m.mean() - want).abs() < 1e-12, "{} vs {want}", m.mean());
    }

    #[test]
    fn min_plus_max_equals_sum() {
        // X + Y = min + max in expectation (and in every moment sum of pairs).
        // The second pair has two phases on both sides, so both Kronecker
        // factors are nontrivial.
        let f = erlang(2, 1.0);
        for g in [
            exponential(0.7),
            hyperexponential(&[0.3, 0.7], &[0.5, 2.0]).unwrap(),
        ] {
            let mn = minimum(&f, &g);
            let mx = maximum(&f, &g);
            assert!((mn.mean() + mx.mean() - (f.mean() + g.mean())).abs() < 1e-10);
        }
    }

    #[test]
    fn extrema_with_zero() {
        let e = exponential(1.0);
        assert_eq!(minimum(&PhaseType::zero(), &e).mean(), 0.0);
        assert_eq!(maximum(&PhaseType::zero(), &e), e);
    }

    #[test]
    fn maximum_with_atoms() {
        let f = PhaseType::new(vec![0.5], Matrix::from_rows(&[&[-1.0]])).unwrap();
        let g = PhaseType::new(vec![0.25], Matrix::from_rows(&[&[-1.0]])).unwrap();
        let mx = maximum(&f, &g);
        assert!((mx.atom_at_zero() - 0.375).abs() < 1e-12); // 0.5 * 0.75
        let mn = minimum(&f, &g);
        // atom of min = 1 - 0.5*0.25 = 0.875
        assert!((mn.atom_at_zero() - 0.875).abs() < 1e-12);
    }
}
