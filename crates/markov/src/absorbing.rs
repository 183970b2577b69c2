//! Absorbing continuous-time Markov chains.
//!
//! The paper's §4.3 constructs a chain `X_b` whose time to absorption is the
//! *effective quantum* distribution of a class — the quantum ends either by
//! expiry or because the queue empties. The time to absorption of a CTMC
//! started in its transient states is exactly a phase-type distribution;
//! this module provides the fundamental-matrix analysis of its mean.

use crate::{MarkovError, Result};
use gsched_linalg::{Lu, Matrix};

/// An absorbing CTMC in the partitioned form of the paper's eq. (12):
///
/// ```text
///        ⎡ T   t ⎤
///    Q = ⎣ 0   0 ⎦
/// ```
///
/// `T` (`m × m`) governs the transient states. Only `T` is kept: the exit
/// column `t = −T e` is implied by the zero row sums of the whole generator,
/// and the analyses here need nothing else.
#[derive(Debug, Clone)]
pub struct AbsorbingCtmc {
    t: Matrix,
}

impl AbsorbingCtmc {
    /// Build from the transient sub-generator `T`.
    ///
    /// Validates that `T` is square, that its off-diagonal entries are
    /// nonnegative and that its row sums are at most zero (the implied exit
    /// rates `−T e` are nonnegative), each within a small tolerance.
    pub fn new(t: Matrix) -> Result<AbsorbingCtmc> {
        if !t.is_square() {
            return Err(MarkovError::Invalid(format!(
                "T must be square, got {}x{}",
                t.rows(),
                t.cols()
            )));
        }
        const VTOL: f64 = 1e-8;
        for i in 0..t.rows() {
            let row = t.row(i);
            if let Some(j) = (0..row.len()).find(|&j| j != i && row[j] < -VTOL) {
                return Err(MarkovError::Invalid(format!(
                    "negative off-diagonal T({i},{j})"
                )));
            }
            let sum: f64 = row.iter().sum();
            if sum > VTOL * (1.0 + row.iter().map(|v| v.abs()).sum::<f64>()) {
                return Err(MarkovError::Invalid(format!(
                    "row {i} of T sums to {sum}, expected at most 0"
                )));
            }
        }
        Ok(AbsorbingCtmc { t })
    }

    /// The chain with a single absorbing state entered at rates `−T e`;
    /// the same validation as [`AbsorbingCtmc::new`].
    pub fn from_sub_generator(t: Matrix) -> Result<AbsorbingCtmc> {
        AbsorbingCtmc::new(t)
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
    fn defective_alpha_shortens_mean() {
        let t = Matrix::from_rows(&[&[-1.0]]);
        let a = AbsorbingCtmc::from_sub_generator(t).unwrap();
        assert!((a.mean_absorption_time(&[0.5]).unwrap() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn validation_rejects_leaky_rows() {
        // Row 0 sums to +1: a negative exit rate.
        let t = Matrix::from_rows(&[&[-1.0, 2.0], &[0.0, -1.0]]);
        assert!(AbsorbingCtmc::new(t).is_err());
        assert!(AbsorbingCtmc::new(Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn validation_rejects_negative_rates() {
        let t = Matrix::from_rows(&[&[-1.0, -0.5], &[0.0, -1.0]]);
        assert!(AbsorbingCtmc::new(t).is_err());
    }
}
