//! LU decomposition with partial pivoting, linear solves and inverses.
//!
//! The kernels work on whole rows of contiguous row-major slices: the
//! factorization swaps and updates rows, and a matrix solve substitutes
//! all right-hand sides at once, row by row. Every entry still gets the
//! textbook column-at-a-time arithmetic in the same order, so the results
//! are bit-identical to it (the `oracle` tests keep that textbook code and
//! compare bits).

use crate::{LinalgError, Matrix, Result};

#[cfg(test)]
mod oracle;

/// LU decomposition of a square matrix with partial (row) pivoting.
///
/// Stores the combined `L\U` factors in a single matrix plus the pivot
/// permutation, in the usual LAPACK-style packed form. Construction is
/// `O(n³)`; each subsequent solve is `O(n²)`, which matters because the QBD
/// boundary solver and the logarithmic reduction for `R` apply one
/// factorization to several right-hand (or left-hand) sides. The default
/// value is the factorization of the `0 × 0` matrix, a buffer for
/// [`Lu::refactor`].
#[derive(Clone, Debug)]
pub struct Lu {
    lu: Matrix,
    /// `piv[k]` is the row swapped into position `k` at step `k`.
    piv: Vec<usize>,
    /// Sign of the permutation (for determinants).
    sign: f64,
}

impl Default for Lu {
    fn default() -> Lu {
        Lu {
            lu: Matrix::zeros(0, 0),
            piv: Vec::new(),
            sign: 1.0,
        }
    }
}

impl Lu {
    /// Factor `a` as `P·a = L·U`.
    ///
    /// Returns [`LinalgError::Singular`] if a pivot is exactly zero or not
    /// finite. Near-singular matrices are *not* rejected — callers that care
    /// should inspect [`Lu::min_pivot`].
    pub fn new(a: &Matrix) -> Result<Lu> {
        let mut lu = Lu::default();
        lu.refactor(a)?;
        Ok(lu)
    }

    /// Factor `a` into `self`, reusing its buffers: the factorization
    /// [`Lu::new`] makes, charged to the work counters the same way, with
    /// no allocation when `a` has the dimension last factored here. On an
    /// error `self` holds no usable factorization.
    pub fn refactor(&mut self, a: &Matrix) -> Result<()> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                op: "lu",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        if self.lu.shape() == a.shape() {
            self.lu.as_mut_slice().copy_from_slice(a.as_slice());
        } else {
            self.lu = a.clone();
        }
        self.piv.resize(a.rows(), 0);
        self.sign = factor_in_place(self.lu.as_mut_slice(), &mut self.piv)?;
        Ok(())
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
        let mut x = b.to_vec();
        self.solve_in_place(&mut x, 1);
        Ok(x)
    }

    /// Solve `a X = B` for every column of `B` at once.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut x = b.clone();
        self.solve_in_place(x.as_mut_slice(), b.cols());
        Ok(x)
    }

    /// Overwrite the row-major `n × m` block `x` with `a⁻¹ x`.
    ///
    /// The substitutions run over whole rows of `x`, but every entry sees
    /// the textbook column solve's arithmetic: `x_i − Σ_{j<i} l_ij x_j`
    /// forward and `(x_i − Σ_{j>i} u_ij x_j) / u_ii` backward, each sum
    /// accumulated in ascending `j` from `−0.0` as `Iterator::sum` does.
    fn solve_in_place(&self, x: &mut [f64], m: usize) {
        let n = self.dim();
        crate::counters::record_triangular_solves(n, m);
        if m == 0 {
            return; // nothing to solve, and rows of width 0 cannot be chunked
        }
        let lu = self.lu.as_slice();
        // Apply the row swaps.
        for (k, &p) in self.piv.iter().enumerate() {
            if p != k {
                let (upper, lower) = x.split_at_mut(p * m);
                upper[k * m..(k + 1) * m].swap_with_slice(&mut lower[..m]);
            }
        }
        let mut s = vec![0.0; m];
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let (solved, rest) = x.split_at_mut(i * m);
            weighted_row_sum(&mut s, &lu[i * n..i * n + i], solved);
            for (v, &s) in rest[..m].iter_mut().zip(&s) {
                *v -= s;
            }
        }
        // Backward substitution.
        for i in (0..n).rev() {
            let (rest, solved) = x.split_at_mut((i + 1) * m);
            weighted_row_sum(&mut s, &lu[i * n + i + 1..(i + 1) * n], solved);
            let d = lu[i * n + i];
            for (v, &s) in rest[i * m..].iter_mut().zip(&s) {
                *v = (*v - s) / d;
            }
        }
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

    /// Solve `X a = B` row by row, each row in place.
    pub fn solve_left_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "solve_left_matrix",
                lhs: b.shape(),
                rhs: (n, n),
            });
        }
        let mut x = b.clone();
        self.solve_left_rows(x.as_mut_slice())?;
        Ok(x)
    }

    /// Overwrite each row `b` of the row-major block `rows` (rows of length
    /// `n`, the factored dimension) with the solution `x` of `x a = b`:
    /// [`Lu::solve_left_vec`] on every row, in place, charging one
    /// substitution pair per row.
    pub fn solve_left_rows(&self, rows: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if rows.is_empty() {
            return Ok(());
        }
        if n == 0 || !rows.len().is_multiple_of(n) {
            return Err(LinalgError::DimensionMismatch {
                op: "solve_left_rows",
                lhs: (1, rows.len()),
                rhs: (n, n),
            });
        }
        for row in rows.chunks_exact_mut(n) {
            solve_left_in_place(self.lu.as_slice(), &self.piv, row);
        }
        Ok(())
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
            let (upper, lower) = lu.split_at_mut(p * n);
            upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
            sign = -sign;
        }
        let (upper, lower) = lu.split_at_mut((k + 1) * n);
        let pivot_row = &upper[k * n..];
        let pivot = pivot_row[k];
        if pivot == 0.0 || !pivot.is_finite() {
            return Err(LinalgError::Singular);
        }
        for row in lower.chunks_exact_mut(n) {
            let f = row[k] / pivot;
            row[k] = f;
            if f == 0.0 {
                continue;
            }
            for (v, &u) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                *v -= f * u;
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
    crate::counters::record_triangular_solves(n, 1);
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

/// `s = Σ_j coef[j] · rows[j]` over the consecutive rows of `rows` (each
/// `s.len()` long), summed in ascending `j` from `−0.0` like `Iterator::sum`.
fn weighted_row_sum(s: &mut [f64], coef: &[f64], rows: &[f64]) {
    s.fill(-0.0);
    for (&c, row) in coef.iter().zip(rows.chunks_exact(s.len())) {
        for (s, &r) in s.iter_mut().zip(row) {
            *s += c * r;
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
    fn refactor_reuses_the_buffer_and_matches_new_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let a3 = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[3.0, 1.0, 0.5], &[1.0, 4.0, 3.0]]);
        let b3 = Matrix::from_rows(&[&[5.0, 1.0, 0.0], &[1.0, 6.0, 2.0], &[0.0, 2.0, 7.0]]);
        let a2 = Matrix::from_rows(&[&[0.0, 1.0], &[2.0, 3.0]]);
        let mut lu = Lu::default();
        assert_eq!(lu.dim(), 0);
        // Same dimension twice, then a smaller and a larger one.
        for a in [&a3, &b3, &a2, &a3] {
            lu.refactor(a).unwrap();
            let want = Lu::new(a).unwrap();
            assert_eq!(bits(lu.lu.as_slice()), bits(want.lu.as_slice()));
            assert_eq!(lu.piv, want.piv);
            assert_eq!(lu.det().to_bits(), want.det().to_bits());
        }
        assert!(matches!(
            lu.refactor(&Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]])),
            Err(LinalgError::Singular)
        ));
        assert!(lu.refactor(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn solve_left_rows_is_solve_left_vec_per_row() {
        let a = Matrix::from_rows(&[&[0.5, 2.0, 1.0], &[3.0, 1.0, 0.5], &[1.0, 4.0, 3.0]]);
        let lu = Lu::new(&a).unwrap();
        let b = [1.0, -2.0, 0.25, 0.0, 3.0, 1.5];
        let mut rows = b;
        lu.solve_left_rows(&mut rows).unwrap();
        for (got, want) in rows.chunks_exact(3).zip(b.chunks_exact(3)) {
            let want = lu.solve_left_vec(want).unwrap();
            assert_eq!(
                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
        lu.solve_left_rows(&mut []).unwrap();
        assert!(lu.solve_left_rows(&mut [1.0; 4]).is_err());
        assert!(Lu::default().solve_left_rows(&mut [1.0]).is_err());
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
