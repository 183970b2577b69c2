//! The validated `PH(α, S)` representation, its moments and point evaluation.

use gsched_linalg::{lu::Lu, Matrix};
use rand::{Rng, RngExt as _};
use serde::Serialize;

/// Validation errors for phase-type parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseTypeError {
    /// `α` and `S` have inconsistent dimensions, or `S` is not square.
    Shape {
        /// Length of the initial vector.
        alpha_len: usize,
        /// Shape of the sub-generator.
        s_shape: (usize, usize),
    },
    /// `α` has a negative entry or sums to more than one.
    BadInitialVector(String),
    /// `S` is not a valid sub-generator (negative off-diagonal, positive
    /// diagonal, or positive row sum).
    BadSubGenerator(String),
    /// The representation is non-absorbing: some states can never reach the
    /// absorbing state, so the distribution has infinite mass at `+∞`.
    NotAbsorbing,
}

impl std::fmt::Display for PhaseTypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhaseTypeError::Shape { alpha_len, s_shape } => write!(
                f,
                "alpha has length {alpha_len} but S is {}x{}",
                s_shape.0, s_shape.1
            ),
            PhaseTypeError::BadInitialVector(msg) => write!(f, "bad initial vector: {msg}"),
            PhaseTypeError::BadSubGenerator(msg) => write!(f, "bad sub-generator: {msg}"),
            PhaseTypeError::NotAbsorbing => {
                write!(f, "sub-generator has states that cannot reach absorption")
            }
        }
    }
}

impl std::error::Error for PhaseTypeError {}

/// A phase-type distribution `PH(α, S)` of order `m`.
///
/// Invariants (enforced at construction):
/// * `α ≥ 0`, `Σα ≤ 1` (the deficit `1 − Σα` is an atom at zero);
/// * `S` has nonnegative off-diagonal entries, nonpositive diagonal, and
///   nonpositive row sums (`s⁰ = −S e ≥ 0`);
/// * every phase is reachable from `α`: [`PhaseType::new`] drops the
///   phases that `α` cannot reach, which defines the same distribution;
/// * every phase can reach absorption (finite mean).
///
/// Every value comes from [`PhaseType::new`] or from an operation that
/// keeps these invariants. The type is serialized but never deserialized,
/// so no decoded value can skip the checks.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseType {
    alpha: Vec<f64>,
    s: MatrixSerde,
}

/// Serde-friendly wrapper around `gsched_linalg::Matrix` (which is
/// dependency-free and does not implement serde traits itself).
#[derive(Debug, Clone, PartialEq, Serialize)]
struct MatrixSerde {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl From<&Matrix> for MatrixSerde {
    fn from(m: &Matrix) -> Self {
        MatrixSerde {
            rows: m.rows(),
            cols: m.cols(),
            data: m.as_slice().to_vec(),
        }
    }
}

impl MatrixSerde {
    fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data.clone())
    }
}

/// Numerical slack used during validation.
const VTOL: f64 = 1e-9;

impl PhaseType {
    /// Construct and validate a `PH(α, S)`, dropping the phases that `α`
    /// cannot reach.
    ///
    /// A mixture with a zero weight or a Coxian with a zero continuation
    /// probability carries such phases. They never hold probability, so the
    /// restricted representation defines the same distribution, and a
    /// Markov chain that embeds it has no states it can never enter.
    pub fn new(alpha: Vec<f64>, s: Matrix) -> Result<PhaseType, PhaseTypeError> {
        if !s.is_square() || alpha.len() != s.rows() {
            return Err(PhaseTypeError::Shape {
                alpha_len: alpha.len(),
                s_shape: s.shape(),
            });
        }
        let total: f64 = alpha.iter().sum();
        if alpha.iter().any(|&a| a < -VTOL) {
            return Err(PhaseTypeError::BadInitialVector(
                "negative entry".to_string(),
            ));
        }
        if total > 1.0 + VTOL {
            return Err(PhaseTypeError::BadInitialVector(format!(
                "entries sum to {total} > 1"
            )));
        }
        let m = s.rows();
        for i in 0..m {
            if s[(i, i)] > VTOL {
                return Err(PhaseTypeError::BadSubGenerator(format!(
                    "positive diagonal entry at {i}"
                )));
            }
            let mut row_sum = 0.0;
            for j in 0..m {
                if i != j && s[(i, j)] < -VTOL {
                    return Err(PhaseTypeError::BadSubGenerator(format!(
                        "negative off-diagonal entry at ({i},{j})"
                    )));
                }
                row_sum += s[(i, j)];
            }
            if row_sum > VTOL {
                return Err(PhaseTypeError::BadSubGenerator(format!(
                    "row {i} sums to {row_sum} > 0"
                )));
            }
        }
        let ph = PhaseType {
            alpha,
            s: MatrixSerde::from(&s),
        };
        // Keep the phases reachable from alpha; with none left the
        // distribution is the atom at zero, of order 0.
        let reach = ph.reachable_states();
        let ph = if reach.len() < m {
            ph.restrict(&reach)
        } else {
            ph
        };
        // Absorbing check: every kept phase must reach absorption, i.e. −S
        // is nonsingular; Lu::new errors on exact singularity.
        if ph.order() > 0 && Lu::new(&ph.sub_generator().scaled(-1.0)).is_err() {
            return Err(PhaseTypeError::NotAbsorbing);
        }
        Ok(ph)
    }

    /// The degenerate distribution that is identically zero (order 0).
    pub fn zero() -> PhaseType {
        PhaseType {
            alpha: Vec::new(),
            s: MatrixSerde::from(&Matrix::zeros(0, 0)),
        }
    }

    /// Order `m` of the representation.
    pub fn order(&self) -> usize {
        self.alpha.len()
    }

    /// Initial probability vector `α` over the transient phases.
    pub fn alpha(&self) -> &[f64] {
        &self.alpha
    }

    /// Atom at zero, `α₀ = 1 − Σα`.
    pub fn atom_at_zero(&self) -> f64 {
        (1.0 - self.alpha.iter().sum::<f64>()).max(0.0)
    }

    /// Sub-generator `S`.
    pub fn sub_generator(&self) -> Matrix {
        self.s.to_matrix()
    }

    /// Exit-rate vector `s⁰ = −S·e`.
    pub fn exit_vector(&self) -> Vec<f64> {
        let s = self.s.to_matrix();
        s.row_sums().iter().map(|&r| (-r).max(0.0)).collect()
    }

    /// Indices of phases reachable from the support of `α`.
    fn reachable_states(&self) -> Vec<usize> {
        let m = self.order();
        let s = self.s.to_matrix();
        let mut seen = vec![false; m];
        let mut stack: Vec<usize> = (0..m).filter(|&i| self.alpha[i] > 0.0).collect();
        for &i in &stack {
            seen[i] = true;
        }
        while let Some(i) = stack.pop() {
            for j in 0..m {
                if i != j && s[(i, j)] > 0.0 && !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        (0..m).filter(|&i| seen[i]).collect()
    }

    /// Restrict the representation to the given phase subset (renormalizing
    /// nothing — probability leaving the subset becomes exit mass).
    fn restrict(&self, keep: &[usize]) -> PhaseType {
        let s = self.s.to_matrix();
        let k = keep.len();
        let mut sub = Matrix::zeros(k, k);
        for (a, &i) in keep.iter().enumerate() {
            for (b, &j) in keep.iter().enumerate() {
                sub[(a, b)] = s[(i, j)];
            }
        }
        let alpha = keep.iter().map(|&i| self.alpha[i]).collect();
        PhaseType {
            alpha,
            s: MatrixSerde::from(&sub),
        }
    }

    /// `k`-th raw moment `E[Xᵏ] = k! · α (−S)^{−k} e` (the atom contributes 0).
    pub fn moment(&self, k: u32) -> f64 {
        match k {
            0 => 1.0,
            _ => self.moments(k)[k as usize - 1],
        }
    }

    /// The first `k` raw moments `[E[X], …, E[Xᵏ]]` from one LU
    /// factorization of `−S`, shared by all `k` of them.
    pub fn moments(&self, k: u32) -> Vec<f64> {
        if self.order() == 0 {
            return vec![0.0; k as usize];
        }
        let neg_s = self.s.to_matrix().scaled(-1.0);
        let lu = Lu::new(&neg_s).expect("validated PH has invertible -S");
        // x_1 = α (−S)^{-1}; x_{j+1} = x_j (−S)^{-1}
        let mut out = Vec::with_capacity(k as usize);
        let mut x = self.alpha.clone();
        let mut fact = 1.0;
        for j in 1..=k {
            x = lu
                .solve_left_vec(&x)
                .expect("dimension checked at construction");
            fact *= j as f64;
            out.push(fact * x.iter().sum::<f64>());
        }
        out
    }

    /// Mean `E[X] = α(−S)^{-1}e` (paper §2.5).
    pub fn mean(&self) -> f64 {
        self.moment(1)
    }

    /// Variance.
    pub fn variance(&self) -> f64 {
        let m = self.moments(2);
        (m[1] - m[0] * m[0]).max(0.0)
    }

    /// Squared coefficient of variation `Var/Mean²` (1 for exponential).
    pub fn scv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.variance() / (m * m)
        }
    }

    /// Survival function `P(X > t) = α · exp(S t) · e`, evaluated by
    /// uniformization (paper §2.4): with `q ≥ max |S_ii|` and
    /// `P = I + S/q`, `exp(St) e = Σ_k e^{−qt}(qt)^k/k! · Pᵏ e`.
    pub fn survival(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 1.0;
        }
        if self.order() == 0 {
            return 0.0;
        }
        if t == 0.0 {
            return self.alpha.iter().sum();
        }
        let s = self.s.to_matrix();
        let m = self.order();
        let q = (0..m)
            .map(|i| -s[(i, i)])
            .fold(0.0_f64, f64::max)
            .max(1e-300);
        let p = {
            let mut p = s.scaled(1.0 / q);
            for i in 0..m {
                p[(i, i)] += 1.0;
            }
            p
        };
        // v_k = α P^k; survival = Σ poisson(k; qt) * v_k · e
        let qt = q * t;
        let kmax = poisson_truncation(qt, 1e-14);
        let mut v = self.alpha.clone();
        let mut total = 0.0;
        // Poisson weights computed iteratively in log-safe fashion.
        let mut w = (-qt).exp(); // may underflow for large qt; handle below
        if w == 0.0 {
            // Large qt: start the recursion at the mode using Stirling.
            return self.survival_large_qt(&p, qt, kmax);
        }
        for k in 0..=kmax {
            total += w * v.iter().sum::<f64>();
            v = p.left_mul_vec(&v).expect("dimensions fixed");
            w *= qt / (k as f64 + 1.0);
        }
        total.clamp(0.0, 1.0)
    }

    /// Survival evaluation when `e^{−qt}` underflows: weights are computed in
    /// log space around the Poisson mode.
    fn survival_large_qt(&self, p: &Matrix, qt: f64, kmax: usize) -> f64 {
        let mut v = self.alpha.clone();
        let mut total = 0.0;
        for k in 0..=kmax {
            let logw = -qt + k as f64 * qt.ln() - ln_factorial(k);
            if logw > -745.0 {
                total += logw.exp() * v.iter().sum::<f64>();
            }
            v = p.left_mul_vec(&v).expect("dimensions fixed");
        }
        total.clamp(0.0, 1.0)
    }

    /// CDF `F(t) = 1 − survival(t)`.
    pub fn cdf(&self, t: f64) -> f64 {
        1.0 - self.survival(t)
    }

    /// Density `f(t) = α · exp(S t) · s⁰` for `t > 0` (excludes the atom).
    pub fn pdf(&self, t: f64) -> f64 {
        if t < 0.0 || self.order() == 0 {
            return 0.0;
        }
        let s = self.s.to_matrix();
        let m = self.order();
        let s0 = self.exit_vector();
        let q = (0..m)
            .map(|i| -s[(i, i)])
            .fold(0.0_f64, f64::max)
            .max(1e-300);
        let p = {
            let mut p = s.scaled(1.0 / q);
            for i in 0..m {
                p[(i, i)] += 1.0;
            }
            p
        };
        let qt = q * t;
        let kmax = poisson_truncation(qt, 1e-14);
        let mut v = self.alpha.clone();
        let mut total = 0.0;
        for k in 0..=kmax {
            let logw = -qt + if k > 0 { k as f64 * qt.ln() } else { 0.0 } - ln_factorial(k);
            if logw > -745.0 {
                let vd: f64 = v.iter().zip(s0.iter()).map(|(a, b)| a * b).sum();
                total += logw.exp() * vd;
            }
            v = p.left_mul_vec(&v).expect("dimensions fixed");
        }
        total.max(0.0)
    }

    /// `p`-quantile `inf{t : F(t) ≥ p}`, computed by bracketing and
    /// bisection on the CDF.
    ///
    /// For several quantiles of the same distribution prefer
    /// [`PhaseType::quantiles`], which shares one uniformization sweep.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        self.quantiles(&[p])[0]
    }

    /// Batch quantile computation sharing a single uniformization sweep.
    ///
    /// The survival function is `S(t) = Σ_k e^{−qt}(qt)^k/k! · s_k` with
    /// `s_k = α Pᵏ e` independent of `t`; the `s_k` sequence is computed
    /// once (extended on demand) and every bisection step costs only a
    /// Poisson-weighted scalar sum.
    ///
    /// # Panics
    /// Panics if any `p` is outside `[0, 1)`.
    pub fn quantiles(&self, ps: &[f64]) -> Vec<f64> {
        for &p in ps {
            assert!(
                (0.0..1.0).contains(&p),
                "quantile requires p in [0,1), got {p}"
            );
        }
        if self.order() == 0 {
            return vec![0.0; ps.len()];
        }
        let m = self.order();
        let s = self.s.to_matrix();
        let q = (0..m)
            .map(|i| -s[(i, i)])
            .fold(0.0_f64, f64::max)
            .max(1e-300);
        let p_mat = {
            let mut p = s.scaled(1.0 / q);
            for i in 0..m {
                p[(i, i)] += 1.0;
            }
            p
        };
        // Cached s_k = alpha P^k e, extended on demand.
        let mut sk: Vec<f64> = Vec::new();
        let mut v = self.alpha.clone();
        sk.push(v.iter().sum());
        let extend_to = |sk: &mut Vec<f64>, v: &mut Vec<f64>, k: usize| {
            while sk.len() <= k {
                *v = p_mat.left_mul_vec(v).expect("dimensions fixed");
                sk.push(v.iter().sum());
            }
        };
        let survival = |sk: &mut Vec<f64>, v: &mut Vec<f64>, t: f64| -> f64 {
            if t <= 0.0 {
                return sk[0];
            }
            let qt = q * t;
            let kmax = poisson_truncation(qt, 1e-13);
            extend_to(sk, v, kmax);
            let mut total = 0.0;
            // Log-space Poisson weights (robust for large qt).
            for (k, &sv) in sk.iter().enumerate().take(kmax + 1) {
                if sv <= 0.0 {
                    continue;
                }
                let logw = -qt + if k > 0 { k as f64 * qt.ln() } else { 0.0 } - ln_factorial(k);
                if logw > -745.0 {
                    total += logw.exp() * sv;
                }
            }
            total.clamp(0.0, 1.0)
        };

        let atom = self.atom_at_zero();
        let mean = self.mean().max(1e-12);
        ps.iter()
            .map(|&p| {
                if p <= atom {
                    return 0.0;
                }
                let mut hi = mean;
                let mut iters = 0;
                while survival(&mut sk, &mut v, hi) > 1.0 - p {
                    hi *= 2.0;
                    iters += 1;
                    if iters > 120 {
                        return f64::INFINITY;
                    }
                }
                let mut lo = 0.0;
                for _ in 0..70 {
                    let mid = 0.5 * (lo + hi);
                    if survival(&mut sk, &mut v, mid) > 1.0 - p {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                    if hi - lo < 1e-10 * hi.max(1.0) {
                        break;
                    }
                }
                0.5 * (lo + hi)
            })
            .collect()
    }

    /// Draw one sample by simulating the absorbing chain.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let m = self.order();
        if m == 0 {
            return 0.0;
        }
        let s = self.s.to_matrix();
        let s0 = self.exit_vector();
        // Choose initial phase (or instant absorption via the atom).
        let mut u: f64 = rng.random();
        let mut phase = usize::MAX;
        for (i, &a) in self.alpha.iter().enumerate() {
            if u < a {
                phase = i;
                break;
            }
            u -= a;
        }
        if phase == usize::MAX {
            return 0.0; // atom at zero
        }
        let mut t = 0.0;
        loop {
            let rate = -s[(phase, phase)];
            if rate <= 0.0 {
                // Defensive: validated representations cannot trap, but avoid
                // an infinite loop if numerics degenerate.
                return t;
            }
            let u: f64 = rng.random();
            t += -(1.0 - u).ln() / rate;
            // Choose next transition: exit with prob s0/rate, else jump.
            let mut v: f64 = rng.random::<f64>() * rate;
            if v < s0[phase] {
                return t;
            }
            v -= s0[phase];
            let mut next = phase;
            for j in 0..m {
                if j == phase {
                    continue;
                }
                let r = s[(phase, j)];
                if v < r {
                    next = j;
                    break;
                }
                v -= r;
            }
            phase = next;
        }
    }

    /// Draw `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Rescale time so the mean becomes `new_mean` (shape-preserving).
    ///
    /// # Panics
    /// Panics if the current mean is zero while `new_mean > 0`, or if
    /// `new_mean <= 0`.
    pub fn with_mean(&self, new_mean: f64) -> PhaseType {
        assert!(new_mean > 0.0, "with_mean: target mean must be positive");
        let m = self.mean();
        assert!(
            m > 0.0,
            "with_mean: cannot rescale a zero-mean distribution"
        );
        let factor = m / new_mean; // rates scale by factor
        PhaseType {
            alpha: self.alpha.clone(),
            s: MatrixSerde::from(&self.s.to_matrix().scaled(factor)),
        }
    }
}

/// Truncation point for a Poisson(λ) tail below `tol`: mean plus a generous
/// number of standard deviations (Chernoff-style), floor 32.
pub(crate) fn poisson_truncation(lambda: f64, tol: f64) -> usize {
    let k = lambda + 10.0 * lambda.sqrt().max(1.0) + (-tol.ln()).max(1.0);
    (k.ceil() as usize).max(32)
}

/// `ln(k!)` via Stirling's series for large `k`, exact accumulation for small.
pub(crate) fn ln_factorial(k: usize) -> f64 {
    if k < 2 {
        return 0.0;
    }
    if k < 64 {
        return (2..=k).map(|i| (i as f64).ln()).sum();
    }
    let n = k as f64;
    n * n.ln() - n + 0.5 * (2.0 * std::f64::consts::PI * n).ln() + 1.0 / (12.0 * n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{erlang, exponential, hyperexponential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments_match_moment_bitwise() {
        // A defective PH (atom at zero) exercises the α-sum path too.
        let defective = PhaseType::new(
            vec![0.3, 0.2],
            Matrix::from_rows(&[&[-2.0, 1.5], &[0.25, -0.75]]),
        )
        .unwrap();
        for ph in [
            exponential(2.0),
            erlang(3, 1.7),
            hyperexponential(&[0.25, 0.75], &[0.5, 4.0]).unwrap(),
            defective,
            PhaseType::zero(),
        ] {
            let got = ph.moments(3);
            assert_eq!(got.len(), 3);
            for k in 1..=3u32 {
                let want = ph.moment(k);
                assert_eq!(got[k as usize - 1].to_bits(), want.to_bits(), "k={k}");
                if ph.order() > 0 {
                    // One fresh LU per moment, as `k! · α(−S)^{−k}e` reads.
                    let lu = Lu::new(&ph.sub_generator().scaled(-1.0)).unwrap();
                    let mut x = lu.solve_left_vec(ph.alpha()).unwrap();
                    let mut fact = 1.0;
                    for j in 2..=k {
                        x = lu.solve_left_vec(&x).unwrap();
                        fact *= j as f64;
                    }
                    let fresh = fact * x.iter().sum::<f64>();
                    assert_eq!(want.to_bits(), fresh.to_bits(), "k={k}");
                }
            }
        }
    }

    #[test]
    fn exponential_moments() {
        let ph = exponential(2.0);
        assert!((ph.mean() - 0.5).abs() < 1e-12);
        assert!((ph.moment(2) - 2.0 * 0.25).abs() < 1e-12);
        assert!((ph.scv() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn erlang_moments() {
        let ph = erlang(4, 1.0); // 4 stages, overall mean 1, var 1/4
        assert!((ph.mean() - 1.0).abs() < 1e-12);
        assert!((ph.variance() - 0.25).abs() < 1e-12);
        assert!((ph.scv() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn exponential_cdf_matches_closed_form() {
        let ph = exponential(1.5);
        for &t in &[0.0, 0.1, 0.5, 1.0, 3.0, 10.0] {
            let want = 1.0 - (-1.5_f64 * t).exp();
            assert!(
                (ph.cdf(t) - want).abs() < 1e-10,
                "t={t}: {} vs {want}",
                ph.cdf(t)
            );
        }
    }

    #[test]
    fn erlang_pdf_positive_and_integrates() {
        let ph = erlang(3, 3.0);
        // Crude trapezoid integral of the density should be close to 1.
        let mut acc = 0.0;
        let dt = 0.001;
        let mut t = 0.0;
        while t < 20.0 {
            acc += ph.pdf(t) * dt;
            t += dt;
        }
        assert!((acc - 1.0).abs() < 1e-3, "integral {acc}");
    }

    #[test]
    fn survival_large_t_underflow_path() {
        // q*t = 800 makes e^{-qt} underflow f64; the log-space branch must
        // still return a sane (tiny, nonnegative) value.
        let ph = exponential(1.0);
        let s = ph.survival(800.0);
        assert!((0.0..=1e-100).contains(&s), "survival(800) = {s}");
        // And survival stays monotone across the branch switch.
        assert!(ph.survival(1.0) > ph.survival(5.0));
        assert!(ph.survival(5.0) > ph.survival(50.0));
    }

    #[test]
    fn atom_at_zero_detected() {
        let ph = PhaseType::new(vec![0.5], Matrix::from_rows(&[&[-1.0]])).unwrap();
        assert!((ph.atom_at_zero() - 0.5).abs() < 1e-12);
        assert!((ph.mean() - 0.5).abs() < 1e-12);
        assert!((ph.cdf(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_distribution() {
        let z = PhaseType::zero();
        assert_eq!(z.order(), 0);
        assert_eq!(z.mean(), 0.0);
        assert_eq!(z.cdf(0.0), 1.0);
        assert_eq!(z.atom_at_zero(), 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(z.sample(&mut rng), 0.0);
    }

    #[test]
    fn validation_rejects_bad_alpha() {
        let s = Matrix::from_rows(&[&[-1.0]]);
        assert!(matches!(
            PhaseType::new(vec![1.5], s.clone()),
            Err(PhaseTypeError::BadInitialVector(_))
        ));
        assert!(matches!(
            PhaseType::new(vec![-0.1], s),
            Err(PhaseTypeError::BadInitialVector(_))
        ));
    }

    #[test]
    fn validation_rejects_bad_generator() {
        assert!(matches!(
            PhaseType::new(vec![1.0], Matrix::from_rows(&[&[1.0]])),
            Err(PhaseTypeError::BadSubGenerator(_))
        ));
        let s = Matrix::from_rows(&[&[-1.0, 2.0], &[0.0, -1.0]]);
        assert!(matches!(
            PhaseType::new(vec![0.5, 0.5], s),
            Err(PhaseTypeError::BadSubGenerator(_))
        ));
    }

    #[test]
    fn validation_rejects_non_absorbing() {
        // Two states cycling with no exit: never absorbs.
        let s = Matrix::from_rows(&[&[-1.0, 1.0], &[1.0, -1.0]]);
        assert!(matches!(
            PhaseType::new(vec![1.0, 0.0], s),
            Err(PhaseTypeError::NotAbsorbing)
        ));
    }

    #[test]
    fn unreachable_phases_are_pruned() {
        use crate::builders::coxian;
        // Phase 3 feeds phase 1 but α never reaches it. Phases 0–2 stay, in
        // order: Exp(2) then Exp(4) w.p. 1/2, Exp(3) w.p. 1/4, atom 1/4.
        let pruned = PhaseType::new(
            vec![0.5, 0.0, 0.25, 0.0],
            Matrix::from_rows(&[
                &[-2.0, 2.0, 0.0, 0.0],
                &[0.0, -4.0, 0.0, 0.0],
                &[0.0, 0.0, -3.0, 0.0],
                &[0.0, 5.0, 0.0, -5.0],
            ]),
        )
        .unwrap();
        assert_eq!(pruned.order(), 3);
        assert!((pruned.atom_at_zero() - 0.25).abs() < 1e-15);
        assert!((pruned.mean() - (0.5 * (0.5 + 0.25) + 0.25 / 3.0)).abs() < 1e-15);
        for t in [0.0_f64, 0.1, 0.5, 1.0, 3.0] {
            let tail = 0.5 * (2.0 * (-2.0 * t).exp() - (-4.0 * t).exp()) + 0.25 * (-3.0 * t).exp();
            assert!((pruned.cdf(t) - (1.0 - tail)).abs() < 1e-12, "t={t}");
        }
        let kept = PhaseType::new(
            vec![0.5, 0.0, 0.25],
            Matrix::from_rows(&[&[-2.0, 2.0, 0.0], &[0.0, -4.0, 0.0], &[0.0, 0.0, -3.0]]),
        )
        .unwrap();
        for (got, want) in [
            (pruned, kept),
            // A zero continuation probability and a zero mixture weight.
            (
                coxian(&[1.328125, 3.0], &[0.0]).unwrap(),
                exponential(1.328125),
            ),
            (
                hyperexponential(&[1.0, 0.0], &[100.0, 50.0]).unwrap(),
                exponential(100.0),
            ),
        ] {
            // Bit for bit the representation without the unreachable phases.
            assert_eq!(got, want);
            assert_eq!(got.moments(3), want.moments(3));
        }
        // With nothing reachable only the atom at zero is left, even when
        // the unreachable phases could never absorb.
        let atom = PhaseType::new(
            vec![0.0, 0.0],
            Matrix::from_rows(&[&[-1.0, 1.0], &[1.0, -1.0]]),
        )
        .unwrap();
        assert_eq!(atom, PhaseType::zero());
    }

    #[test]
    fn shape_mismatch_rejected() {
        assert!(matches!(
            PhaseType::new(vec![1.0, 0.0], Matrix::from_rows(&[&[-1.0]])),
            Err(PhaseTypeError::Shape { .. })
        ));
    }

    #[test]
    fn sampling_mean_close() {
        let ph = hyperexponential(&[0.4, 0.6], &[1.0, 5.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let xs = ph.sample_n(&mut rng, 200_000);
        let emp: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(
            (emp - ph.mean()).abs() < 0.01,
            "empirical {emp} vs {}",
            ph.mean()
        );
    }

    #[test]
    fn with_mean_rescales() {
        let ph = erlang(3, 1.0).with_mean(2.0);
        assert!((ph.mean() - 2.0).abs() < 1e-12);
        assert!((ph.scv() - 1.0 / 3.0).abs() < 1e-12); // shape preserved
    }

    #[test]
    fn quantile_inverts_exponential_cdf() {
        let ph = exponential(2.0);
        for &p in &[0.1, 0.5, 0.9, 0.99] {
            let want = -(1.0f64 - p).ln() / 2.0;
            let got = ph.quantile(p);
            assert!((got - want).abs() < 1e-6, "p={p}: {got} vs {want}");
        }
    }

    #[test]
    fn quantile_respects_atom() {
        let ph = PhaseType::new(vec![0.4], Matrix::from_rows(&[&[-1.0]])).unwrap();
        assert_eq!(ph.quantile(0.3), 0.0); // inside the atom
        assert!(ph.quantile(0.9) > 0.0);
        assert_eq!(PhaseType::zero().quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_monotone() {
        let ph = erlang(3, 1.0);
        let q1 = ph.quantile(0.25);
        let q2 = ph.quantile(0.5);
        let q3 = ph.quantile(0.95);
        assert!(q1 < q2 && q2 < q3);
        // Median of Erlang-3 with mean 1 is around 0.89.
        assert!((q2 - 0.8913).abs() < 0.01, "median {q2}");
    }

    #[test]
    fn ln_factorial_consistent() {
        // Boundary between exact and Stirling branches.
        let exact: f64 = (2..=70).map(|i| (i as f64).ln()).sum();
        assert!((ln_factorial(70) - exact).abs() < 1e-6);
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
    }

    #[test]
    fn clone_eq_roundtrip() {
        // Full JSON round-trips are exercised in the workload crate, which
        // depends on serde_json; here we check structural equality semantics.
        let ph = erlang(2, 3.0);
        let copy = ph.clone();
        assert_eq!(copy, ph);
    }
}
