//! LU decomposition with partial pivoting, linear solves and inverses.

use crate::{LinalgError, Matrix, Result};

/// LU decomposition of a square matrix with partial (row) pivoting.
///
/// Stores the combined `L\U` factors in a single matrix plus the pivot
/// permutation, in the usual LAPACK-style packed form. Construction is
/// `O(n³)`; each subsequent solve is `O(n²)`, which matters because the QBD
/// boundary solver and the logarithmic reduction for `R` apply one
/// factorization to several right-hand (or left-hand) sides.
#[derive(Clone, Debug)]
pub struct Lu {
    lu: Matrix,
    /// `piv[k]` is the row swapped into position `k` at step `k`.
    piv: Vec<usize>,
    /// Sign of the permutation (for determinants).
    sign: f64,
}

impl Lu {
    /// Factor `a` as `P·a = L·U`.
    ///
    /// Returns [`LinalgError::Singular`] if a pivot is exactly zero or not
    /// finite. Near-singular matrices are *not* rejected — callers that care
    /// should inspect [`Lu::min_pivot`].
    pub fn new(a: &Matrix) -> Result<Lu> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                op: "lu",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut piv = vec![0usize; n];
        let sign = factor_in_place(lu.as_mut_slice(), &mut piv)?;
        Ok(Lu { lu, piv, sign })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Smallest absolute pivot — a cheap conditioning indicator.
    pub fn min_pivot(&self) -> f64 {
        (0..self.dim())
            .map(|k| self.lu[(k, k)].abs())
            .fold(f64::INFINITY, f64::min)
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        (0..self.dim()).fold(self.sign, |d, k| d * self.lu[(k, k)])
    }

    /// Solve `a x = b` for a column vector `b` (in place on a copy).
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "solve_vec",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        crate::counters::record_triangular_solve(n);
        let mut x = b.to_vec();
        // Apply permutation.
        for k in 0..n {
            let p = self.piv[k];
            if p != k {
                x.swap(k, p);
            }
        }
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let s: f64 = (0..i).map(|j| self.lu[(i, j)] * x[j]).sum();
            x[i] -= s;
        }
        // Backward substitution.
        for i in (0..n).rev() {
            let s: f64 = ((i + 1)..n).map(|j| self.lu[(i, j)] * x[j]).sum();
            x[i] = (x[i] - s) / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Solve `a X = B` column by column.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = b.col(j);
            let x = self.solve_vec(&col)?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Solve `x a = b` for a row vector `b`, i.e. `aᵀ xᵀ = bᵀ`.
    pub fn solve_left_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "solve_left_vec",
                lhs: (1, b.len()),
                rhs: (n, n),
            });
        }
        let mut y = b.to_vec();
        solve_left_in_place(self.lu.as_slice(), &self.piv, &mut y);
        Ok(y)
    }

    /// Solve `X a = B` row by row.
    pub fn solve_left_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "solve_left_matrix",
                lhs: b.shape(),
                rhs: (n, n),
            });
        }
        let mut out = Matrix::zeros(b.rows(), n);
        for i in 0..b.rows() {
            let x = self.solve_left_vec(b.row(i))?;
            out.row_mut(i).copy_from_slice(&x);
        }
        Ok(out)
    }

    /// Inverse of the factored matrix.
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

/// Factor the row-major `n × n` matrix `lu` in place as `P·a = L·U`
/// ([`Lu::new`]'s packed form), writing the pivots to `piv` (length `n`);
/// returns the sign of the permutation.
pub(crate) fn factor_in_place(lu: &mut [f64], piv: &mut [usize]) -> Result<f64> {
    let n = piv.len();
    let mut sign = 1.0;
    for k in 0..n {
        // Find pivot: largest |entry| in column k at or below row k.
        let mut p = k;
        let mut pmax = lu[k * n + k].abs();
        for i in (k + 1)..n {
            let v = lu[i * n + k].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        piv[k] = p;
        if p != k {
            for j in 0..n {
                lu.swap(k * n + j, p * n + j);
            }
            sign = -sign;
        }
        let pivot = lu[k * n + k];
        if pivot == 0.0 || !pivot.is_finite() {
            return Err(LinalgError::Singular);
        }
        for i in (k + 1)..n {
            let f = lu[i * n + k] / pivot;
            lu[i * n + k] = f;
            if f == 0.0 {
                continue;
            }
            for j in (k + 1)..n {
                let v = lu[k * n + j];
                lu[i * n + j] -= f * v;
            }
        }
    }
    crate::counters::record_lu_factorization(n);
    Ok(sign)
}

/// Overwrite the row vector `y` with `y a⁻¹`, for `a` factored by
/// [`factor_in_place`] into `lu` and `piv`.
pub(crate) fn solve_left_in_place(lu: &[f64], piv: &[usize], y: &mut [f64]) {
    let n = piv.len();
    crate::counters::record_triangular_solve(n);
    // Solve Uᵀ y = b (forward, Uᵀ lower-triangular with diag of U)...
    for i in 0..n {
        let s: f64 = (0..i).map(|j| lu[j * n + i] * y[j]).sum();
        y[i] = (y[i] - s) / lu[i * n + i];
    }
    // ...then Lᵀ z = y (backward, unit diagonal).
    for i in (0..n).rev() {
        let s: f64 = ((i + 1)..n).map(|j| lu[j * n + i] * y[j]).sum();
        y[i] -= s;
    }
    // Undo the permutation: x = z Pᵀ, i.e. apply swaps in reverse.
    for k in (0..n).rev() {
        let p = piv[k];
        if p != k {
            y.swap(k, p);
        }
    }
}

/// Convenience: invert `a` directly.
pub fn inverse(a: &Matrix) -> Result<Matrix> {
    Lu::new(a)?.inverse()
}

/// Convenience: solve `a x = b` directly.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    Lu::new(a)?.solve_vec(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &Matrix, b: &Matrix, tol: f64) -> bool {
        a.max_abs_diff(b) < tol
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(Lu::new(&a), Err(LinalgError::Singular)));
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_rows(&[&[4.0, 7.0, 2.0], &[3.0, 6.0, 1.0], &[2.0, 5.0, 3.0]]);
        let inv = inverse(&a).unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(approx(&prod, &Matrix::identity(3), 1e-12));
        let prod2 = inv.matmul(&a).unwrap();
        assert!(approx(&prod2, &Matrix::identity(3), 1e-12));
    }

    #[test]
    fn determinant() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lu = Lu::new(&a).unwrap();
        assert!((lu.det() + 2.0).abs() < 1e-12);
        let i = Lu::new(&Matrix::identity(4)).unwrap();
        assert!((i.det() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn left_solve_matches_transpose_solve() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.0], &[2.0, 5.0, 1.0], &[0.5, 1.0, 3.0]]);
        let b = [1.0, 2.0, 3.0];
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve_left_vec(&b).unwrap();
        // Verify x * a == b.
        let xa = a.left_mul_vec(&x).unwrap();
        for (got, want) in xa.iter().zip(b.iter()) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[9.0, 5.0], &[8.0, 5.0]]);
        let x = Lu::new(&a).unwrap().solve_matrix(&b).unwrap();
        assert!(approx(&a.matmul(&x).unwrap(), &b, 1e-12));
    }

    #[test]
    fn solve_left_matrix_rows() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 2.0]]);
        let x = Lu::new(&a).unwrap().solve_left_matrix(&b).unwrap();
        assert!(approx(&x.matmul(&a).unwrap(), &b, 1e-12));
    }

    #[test]
    fn min_pivot_reflects_conditioning() {
        let nice = Lu::new(&Matrix::identity(3)).unwrap();
        assert_eq!(nice.min_pivot(), 1.0);
        let skew = Lu::new(&Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1e-9]])).unwrap();
        assert!(skew.min_pivot() < 1e-8);
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(Lu::new(&a).is_err());
    }

    #[test]
    fn random_roundtrip_various_sizes() {
        // Deterministic pseudo-random fill; checks A * A^{-1} = I for n up to 12.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        for n in 1..=12 {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = next();
                }
                a[(i, i)] += n as f64; // diagonal dominance => well-conditioned
            }
            let inv = inverse(&a).unwrap();
            assert!(
                approx(&a.matmul(&inv).unwrap(), &Matrix::identity(n), 1e-10),
                "failed at n={n}"
            );
        }
    }
}
