//! Absorbing continuous-time Markov chains.
//!
//! The paper's §4.3 constructs a chain `X_b` whose time to absorption is the
//! *effective quantum* distribution of a class — the quantum ends either by
//! expiry or because the queue empties. The time to absorption of a CTMC
//! started in its transient states is exactly a phase-type distribution, so
//! this module provides the fundamental-matrix analysis that turns such a
//! chain into PH parameters and moments.

use crate::{MarkovError, Result};
use gsched_linalg::{Lu, Matrix};

/// An absorbing CTMC in the partitioned form of the paper's eq. (12):
///
/// ```text
///        ⎡ T   t ⎤
///    Q = ⎣ 0   0 ⎦
/// ```
///
/// `T` (`m × m`) governs the transient states, and `t_cols` (`m × k`) are
/// exit-rate columns into each of `k` absorbing states.
#[derive(Debug, Clone)]
pub struct AbsorbingCtmc {
    t: Matrix,
    exits: Matrix,
}

impl AbsorbingCtmc {
    /// Build from the transient sub-generator and exit-rate columns.
    ///
    /// Validates that off-diagonals of `T` and all exit rates are
    /// nonnegative and that each row of `[T | exits]` sums to zero.
    pub fn new(t: Matrix, exits: Matrix) -> Result<AbsorbingCtmc> {
        if !t.is_square() || t.rows() != exits.rows() {
            return Err(MarkovError::Invalid(format!(
                "shape mismatch: T is {}x{}, exits is {}x{}",
                t.rows(),
                t.cols(),
                exits.rows(),
                exits.cols()
            )));
        }
        let m = t.rows();
        const VTOL: f64 = 1e-8;
        for i in 0..m {
            let mut sum = 0.0;
            for j in 0..m {
                if i != j && t[(i, j)] < -VTOL {
                    return Err(MarkovError::Invalid(format!(
                        "negative off-diagonal T({i},{j})"
                    )));
                }
                sum += t[(i, j)];
            }
            for j in 0..exits.cols() {
                if exits[(i, j)] < -VTOL {
                    return Err(MarkovError::Invalid(format!(
                        "negative exit rate at ({i},{j})"
                    )));
                }
                sum += exits[(i, j)];
            }
            if sum.abs() > VTOL * (1.0 + t.row(i).iter().map(|v| v.abs()).sum::<f64>()) {
                return Err(MarkovError::Invalid(format!(
                    "row {i} of [T|exits] sums to {sum}, expected 0"
                )));
            }
        }
        Ok(AbsorbingCtmc { t, exits })
    }

    /// Convenience constructor for a single absorbing state: exits are the
    /// negated row sums of `T`.
    pub fn from_sub_generator(t: Matrix) -> Result<AbsorbingCtmc> {
        let m = t.rows();
        let mut exits = Matrix::zeros(m, 1);
        for (i, rs) in t.row_sums().iter().enumerate() {
            exits[(i, 0)] = (-rs).max(0.0);
        }
        AbsorbingCtmc::new(t, exits)
    }

    /// Borrow the transient sub-generator `T`.
    pub fn sub_generator(&self) -> &Matrix {
        &self.t
    }

    /// Fundamental matrix `M = (−T)^{-1}`: `M[(i,j)]` is the expected total
    /// time spent in transient state `j` before absorption when starting
    /// in state `i`.
    pub fn fundamental_matrix(&self) -> Result<Matrix> {
        let neg_t = self.t.scaled(-1.0);
        Ok(Lu::new(&neg_t)?.inverse()?)
    }

    /// Expected time to absorption from each transient state.
    pub fn expected_absorption_times(&self) -> Result<Vec<f64>> {
        Ok(self.fundamental_matrix()?.row_sums())
    }

    /// Mean time to absorption from an initial distribution `alpha` over the
    /// transient states (mass `1 − Σα` is treated as instant absorption).
    pub fn mean_absorption_time(&self, alpha: &[f64]) -> Result<f64> {
        let times = self.expected_absorption_times()?;
        if alpha.len() != times.len() {
            return Err(MarkovError::Invalid(format!(
                "alpha has length {}, expected {}",
                alpha.len(),
                times.len()
            )));
        }
        Ok(alpha.iter().zip(times.iter()).map(|(a, t)| a * t).sum())
    }

    /// Raw moments of the absorption time: `E[Xᵏ] = k! · α M^k e`.
    pub fn absorption_moment(&self, alpha: &[f64], k: u32) -> Result<f64> {
        if k == 0 {
            return Ok(1.0);
        }
        let neg_t = self.t.scaled(-1.0);
        let lu = Lu::new(&neg_t)?;
        let mut x = lu.solve_left_vec(alpha)?;
        let mut fact = 1.0;
        for j in 2..=k {
            x = lu.solve_left_vec(&x)?;
            fact *= j as f64;
        }
        Ok(fact * x.iter().sum::<f64>())
    }

    /// Probability of being absorbed into each absorbing state, per starting
    /// transient state: `B = M · exits` (`m × k`, rows sum to 1).
    pub fn absorption_probabilities(&self) -> Result<Matrix> {
        Ok(self.fundamental_matrix()?.matmul(&self.exits)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_exponential_stage() {
        let t = Matrix::from_rows(&[&[-2.0]]);
        let a = AbsorbingCtmc::from_sub_generator(t).unwrap();
        assert_eq!(a.expected_absorption_times().unwrap(), vec![0.5]);
        assert!((a.mean_absorption_time(&[1.0]).unwrap() - 0.5).abs() < 1e-15);
        assert!((a.absorption_moment(&[1.0], 2).unwrap() - 0.5).abs() < 1e-12); // 2/λ² = 0.5
    }

    #[test]
    fn erlang_two_stages() {
        let t = Matrix::from_rows(&[&[-3.0, 3.0], &[0.0, -3.0]]);
        let a = AbsorbingCtmc::from_sub_generator(t).unwrap();
        let times = a.expected_absorption_times().unwrap();
        assert!((times[0] - 2.0 / 3.0).abs() < 1e-14);
        assert!((times[1] - 1.0 / 3.0).abs() < 1e-14);
    }

    #[test]
    fn two_absorbing_states_probabilities() {
        // One transient state exiting to A at rate 1 and B at rate 3.
        let t = Matrix::from_rows(&[&[-4.0]]);
        let exits = Matrix::from_rows(&[&[1.0, 3.0]]);
        let a = AbsorbingCtmc::new(t, exits).unwrap();
        let b = a.absorption_probabilities().unwrap();
        assert!((b[(0, 0)] - 0.25).abs() < 1e-14);
        assert!((b[(0, 1)] - 0.75).abs() < 1e-14);
    }

    #[test]
    fn absorption_probabilities_rows_sum_to_one() {
        let t = Matrix::from_rows(&[&[-5.0, 2.0], &[1.0, -4.0]]);
        let exits = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 3.0]]);
        let a = AbsorbingCtmc::new(t, exits).unwrap();
        for rs in a.absorption_probabilities().unwrap().row_sums() {
            assert!((rs - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn defective_alpha_shortens_mean() {
        let t = Matrix::from_rows(&[&[-1.0]]);
        let a = AbsorbingCtmc::from_sub_generator(t).unwrap();
        assert!((a.mean_absorption_time(&[0.5]).unwrap() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn validation_rejects_leaky_rows() {
        let t = Matrix::from_rows(&[&[-1.0]]);
        let exits = Matrix::from_rows(&[&[2.0]]); // row sums to +1
        assert!(AbsorbingCtmc::new(t, exits).is_err());
    }

    #[test]
    fn validation_rejects_negative_rates() {
        let t = Matrix::from_rows(&[&[-1.0, -0.5], &[0.0, -1.0]]);
        let exits = Matrix::from_rows(&[&[1.5], &[1.0]]);
        assert!(AbsorbingCtmc::new(t, exits).is_err());
    }

    #[test]
    fn moments_match_phase_type_algebra() {
        // Hyperexponential-ish transient structure; cross-check moment
        // identity E[X²] = 2 α M² e against explicit inversion.
        let t = Matrix::from_rows(&[&[-2.0, 1.0], &[0.5, -1.5]]);
        let a = AbsorbingCtmc::from_sub_generator(t.clone()).unwrap();
        let alpha = [0.6, 0.4];
        let m = a.fundamental_matrix().unwrap();
        let m2 = m.matmul(&m).unwrap();
        let want: f64 = 2.0
            * alpha
                .iter()
                .enumerate()
                .map(|(i, &ai)| ai * m2.row(i).iter().sum::<f64>())
                .sum::<f64>();
        let got = a.absorption_moment(&alpha, 2).unwrap();
        assert!((got - want).abs() < 1e-12);
    }
}
