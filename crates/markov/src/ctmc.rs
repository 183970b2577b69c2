//! Continuous-time Markov chains: generators and their stationary solution
//! by GTH elimination.

use crate::scc::is_strongly_connected;
use crate::{MarkovError, Result};
use gsched_linalg::Matrix;

/// Numerical slack for generator validation.
const VTOL: f64 = 1e-8;

/// A continuous-time Markov chain given by its infinitesimal generator `Q`
/// (paper §2.2, eqs. (5)–(6)): nonnegative off-diagonal rates, each diagonal
/// entry the negated row sum.
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmc {
    q: Matrix,
}

impl Ctmc {
    /// Validate and wrap a generator matrix.
    pub fn new(q: Matrix) -> Result<Ctmc> {
        if !q.is_square() {
            return Err(MarkovError::Invalid(format!(
                "generator must be square, got {}x{}",
                q.rows(),
                q.cols()
            )));
        }
        let n = q.rows();
        for i in 0..n {
            let mut sum = 0.0;
            for j in 0..n {
                let v = q[(i, j)];
                if i != j && v < -VTOL {
                    return Err(MarkovError::Invalid(format!(
                        "negative off-diagonal rate at ({i},{j}): {v}"
                    )));
                }
                sum += v;
            }
            if sum.abs() > VTOL * (1.0 + q.row(i).iter().map(|v| v.abs()).sum::<f64>()) {
                return Err(MarkovError::Invalid(format!(
                    "row {i} sums to {sum}, expected 0"
                )));
            }
        }
        Ok(Ctmc { q })
    }

    /// Build a generator from off-diagonal rates, filling the diagonal with
    /// the negated row sums (the diagonal of `rates` is ignored).
    pub fn from_rates(rates: &Matrix) -> Result<Ctmc> {
        if !rates.is_square() {
            return Err(MarkovError::Invalid("rates must be square".to_string()));
        }
        let n = rates.rows();
        let mut q = rates.clone();
        for i in 0..n {
            q[(i, i)] = 0.0;
            let s: f64 = q.row(i).iter().sum();
            q[(i, i)] = -s;
        }
        Ctmc::new(q)
    }

    /// Number of states.
    pub fn dim(&self) -> usize {
        self.q.rows()
    }

    /// Borrow the generator.
    pub fn generator(&self) -> &Matrix {
        &self.q
    }

    /// True if the positive-rate digraph is strongly connected.
    pub fn is_irreducible(&self) -> bool {
        let n = self.dim();
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|i| (0..n).filter(|&j| j != i && self.q[(i, j)] > 0.0).collect())
            .collect();
        is_strongly_connected(&adj)
    }

    /// Stationary distribution via the Grassmann–Taksar–Heyman elimination —
    /// subtraction-free, hence numerically stable even for stiff generators.
    ///
    /// # Errors
    /// [`MarkovError::NotIrreducible`] if the chain is reducible.
    pub fn stationary_gth(&self) -> Result<Vec<f64>> {
        if !self.is_irreducible() {
            return Err(MarkovError::NotIrreducible);
        }
        Ok(gth_stationary(&self.q))
    }
}

/// GTH elimination for the stationary vector of an irreducible generator.
///
/// Works on the off-diagonal rates only; never subtracts, so it is immune to
/// the cancellation that plagues direct Gaussian elimination on singular
/// systems.
pub fn gth_stationary(q: &Matrix) -> Vec<f64> {
    let n = q.rows();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![1.0];
    }
    gth_stationary_impl(q).expect("GTH requires an irreducible generator")
}

/// GTH elimination proper, storing the per-step normalizers `s_k` so that the
/// back-substitution `x_k = Σ_{i<k} x_i a_{ik} / s_k` is exact. Returns
/// `None` when some censored state cannot reach the lower states (reducible
/// input).
fn gth_stationary_impl(q: &Matrix) -> Option<Vec<f64>> {
    let n = q.rows();
    let mut a = q.clone();
    for i in 0..n {
        a[(i, i)] = 0.0;
    }
    let mut denom = vec![1.0; n];
    for k in (1..n).rev() {
        let s: f64 = (0..k).map(|j| a[(k, j)]).sum();
        // Reject non-positive and NaN normalizers alike.
        if s.is_nan() || s <= 0.0 {
            return None;
        }
        denom[k] = s;
        for i in 0..k {
            let f = a[(i, k)] / s;
            if f == 0.0 {
                continue;
            }
            for j in 0..k {
                if j != i {
                    a[(i, j)] += f * a[(k, j)];
                }
            }
        }
    }
    let mut x = vec![0.0; n];
    x[0] = 1.0;
    for k in 1..n {
        let mut s = 0.0;
        for i in 0..k {
            s += x[i] * a[(i, k)];
        }
        x[k] = s / denom[k];
    }
    let total: f64 = x.iter().sum();
    for v in &mut x {
        *v /= total;
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsched_linalg::Lu;

    /// The LU oracle: `x Q = 0`, `Σ x = 1`, solved as `x Q' = e_n` where `Q'`
    /// is `Q` with its last column replaced by ones (valid for an
    /// irreducible chain, whose left nullspace is one-dimensional).
    fn solve_stationary_lu(q: &Matrix) -> Vec<f64> {
        let n = q.rows();
        let mut sys = q.clone();
        for i in 0..n {
            sys[(i, n - 1)] = 1.0;
        }
        let mut rhs = vec![0.0; n];
        rhs[n - 1] = 1.0;
        Lu::new(&sys).unwrap().solve_left_vec(&rhs).unwrap()
    }

    fn two_state(a: f64, b: f64) -> Ctmc {
        Ctmc::new(Matrix::from_rows(&[&[-a, a], &[b, -b]])).unwrap()
    }

    #[test]
    fn validation_rejects_bad_generators() {
        assert!(Ctmc::new(Matrix::from_rows(&[&[-1.0, 0.5], &[1.0, -1.0]])).is_err());
        assert!(Ctmc::new(Matrix::from_rows(&[&[-1.0, 2.0], &[-1.0, 1.0]])).is_err());
        assert!(Ctmc::new(Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn from_rates_fills_diagonal() {
        let rates = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 0.0]]);
        let c = Ctmc::from_rates(&rates).unwrap();
        assert_eq!(c.generator()[(0, 0)], -2.0);
        assert_eq!(c.generator()[(1, 1)], -3.0);
    }

    #[test]
    fn gth_matches_closed_form_two_state() {
        let c = two_state(2.0, 3.0);
        let pi = c.stationary_gth().unwrap();
        assert!((pi[0] - 0.6).abs() < 1e-14);
        assert!((pi[1] - 0.4).abs() < 1e-14);
    }

    #[test]
    fn gth_matches_lu_random_chain() {
        // Deterministic pseudo-random irreducible generator.
        let mut seed = 12345u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64)
        };
        for n in 2..10 {
            let mut rates = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        rates[(i, j)] = 0.05 + next();
                    }
                }
            }
            let c = Ctmc::from_rates(&rates).unwrap();
            let gth = c.stationary_gth().unwrap();
            let lu = solve_stationary_lu(c.generator());
            for (a, b) in gth.iter().zip(lu.iter()) {
                assert!((a - b).abs() < 1e-10, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn gth_handles_stiff_generator() {
        // Rates spanning 10 orders of magnitude.
        let rates = Matrix::from_rows(&[&[0.0, 1e-6, 0.0], &[1e4, 0.0, 1e4], &[0.0, 1e-6, 0.0]]);
        let c = Ctmc::from_rates(&rates).unwrap();
        let pi = c.stationary_gth().unwrap();
        let res = c.generator().transpose().mul_vec(&pi).unwrap();
        for r in res {
            assert!(r.abs() < 1e-9, "residual {r}");
        }
        let s: f64 = pi.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reducible_chain_detected() {
        // State 1 is absorbing => not irreducible.
        let q = Matrix::from_rows(&[&[-1.0, 1.0], &[0.0, 0.0]]);
        let c = Ctmc::new(q).unwrap();
        assert!(!c.is_irreducible());
        assert!(matches!(
            c.stationary_gth(),
            Err(MarkovError::NotIrreducible)
        ));
    }

    #[test]
    fn single_state_chain() {
        let c = Ctmc::new(Matrix::zeros(1, 1)).unwrap();
        assert_eq!(c.stationary_gth().unwrap(), vec![1.0]);
        assert!(c.is_irreducible());
    }
}
