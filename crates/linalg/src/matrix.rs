//! Row-major dense matrix type and elementwise / algebraic operations.

use crate::{vecops, LinalgError, Result};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense, row-major `f64` matrix.
///
/// This is the workhorse type of the analytic solver. It is intentionally
/// simple: a shape plus a flat `Vec<f64>`. Rows of generator matrices are
/// contiguous, which makes the row-vector products that dominate the
/// matrix-geometric iteration cache-friendly.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Create a matrix from nested row slices.
    ///
    /// # Panics
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Create a square diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[f64]) -> Self {
        let n = entries.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in entries.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        crate::counters::record_matmul(self.rows, rhs.cols, self.cols);
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        if self.cols == 0 || rhs.cols == 0 {
            return Ok(out); // all zeros, and rows of width 0 cannot be chunked
        }
        // i-k-j loop order: streams through rhs rows, friendly to row-major.
        let a_rows = self.data.chunks_exact(self.cols);
        for (orow, arow) in out.data.chunks_exact_mut(rhs.cols).zip(a_rows) {
            for (&a, rrow) in arow.iter().zip(rhs.data.chunks_exact(rhs.cols)) {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Row-vector times matrix: returns `x * self` for a row vector `x`.
    pub fn left_mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "left_mul_vec",
                lhs: (1, x.len()),
                rhs: self.shape(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (o, &m) in out.iter_mut().zip(self.row(i).iter()) {
                *o += xi * m;
            }
        }
        Ok(out)
    }

    /// Matrix times column vector: returns `self * y` for a column vector `y`.
    pub fn mul_vec(&self, y: &[f64]) -> Result<Vec<f64>> {
        if y.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "mul_vec",
                lhs: self.shape(),
                rhs: (y.len(), 1),
            });
        }
        let out = (0..self.rows)
            .map(|i| self.row(i).iter().zip(y.iter()).map(|(&a, &b)| a * b).sum())
            .collect();
        Ok(out)
    }

    /// Row sums, i.e. `self * e` where `e` is the all-ones column vector.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).iter().sum()).collect()
    }

    /// Multiply every entry by `s` in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Return a scaled copy `s * self`.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// Maximum absolute entry (entrywise infinity norm); NaN when any entry
    /// is NaN.
    pub fn max_abs(&self) -> f64 {
        vecops::max_abs(&self.data)
    }

    /// Induced infinity norm (maximum absolute row sum); NaN when any entry
    /// is NaN.
    pub fn norm_inf(&self) -> f64 {
        vecops::max_abs_of((0..self.rows).map(|i| self.row(i).iter().map(|v| v.abs()).sum()))
    }

    /// Copy block `src` into `self` with its top-left corner at `(r, c)`.
    ///
    /// # Panics
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, r: usize, c: usize, src: &Matrix) {
        assert!(
            r + src.rows <= self.rows && c + src.cols <= self.cols,
            "set_block: block {}x{} at ({r},{c}) does not fit in {}x{}",
            src.rows,
            src.cols,
            self.rows,
            self.cols
        );
        for i in 0..src.rows {
            let dst = &mut self.data[(r + i) * self.cols + c..(r + i) * self.cols + c + src.cols];
            dst.copy_from_slice(src.row(i));
        }
    }

    /// Extract the `rows × cols` block with top-left corner at `(r, c)`.
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    pub fn block(&self, r: usize, c: usize, rows: usize, cols: usize) -> Matrix {
        assert!(
            r + rows <= self.rows && c + cols <= self.cols,
            "block: {}x{} at ({r},{c}) out of bounds for {}x{}",
            rows,
            cols,
            self.rows,
            self.cols
        );
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            out.row_mut(i)
                .copy_from_slice(&self.row(r + i)[c..c + cols]);
        }
        out
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// True if every entry is `>= -tol`.
    pub fn is_nonnegative(&self, tol: f64) -> bool {
        self.data.iter().all(|&v| v >= -tol)
    }

    /// Entrywise maximum absolute difference to `other`; NaN when any
    /// difference is NaN (including `inf − inf`).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        vecops::max_abs_diff(&self.data, &other.data)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "sub_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs).expect("mul: dimension mismatch")
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.row_sums(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn from_rows_and_index() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.5, 3.0], &[0.0, 4.0, 5.5]]);
        let i3 = Matrix::identity(3);
        assert_eq!(a.matmul(&i3).unwrap(), a);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn left_mul_vec_matches_matmul() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let x = vec![0.25, 0.75];
        let y = m.left_mul_vec(&x).unwrap();
        assert!((y[0] - (0.25 + 2.25)).abs() < 1e-15);
        assert!((y[1] - (0.5 + 3.0)).abs() < 1e-15);
    }

    #[test]
    fn mul_vec_matches_row_sums() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let ones = vec![1.0; 3];
        assert_eq!(m.mul_vec(&ones).unwrap(), m.row_sums());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn block_roundtrip() {
        let mut big = Matrix::zeros(4, 4);
        let small = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        big.set_block(1, 2, &small);
        assert_eq!(big.block(1, 2, 2, 2), small);
        assert_eq!(big[(0, 0)], 0.0);
        assert_eq!(big[(1, 2)], 1.0);
        assert_eq!(big[(2, 3)], 4.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, -4.0], &[0.0, 0.0]]);
        assert_eq!(m.norm_inf(), 7.0);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!((-&a)[(0, 1)], -2.0);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c, Matrix::from_rows(&[&[4.0, 7.0]]));
        c -= &b;
        assert_eq!(c, a);
    }

    #[test]
    fn diag_and_scale() {
        let d = Matrix::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(1, 0)], 0.0);
        let s = d.scaled(2.0);
        assert_eq!(s[(2, 2)], 6.0);
    }

    #[test]
    fn nonneg_and_finite_checks() {
        let m = Matrix::from_rows(&[&[0.0, 1.0], &[-1e-15, 2.0]]);
        assert!(m.is_nonnegative(1e-12));
        assert!(!m.is_nonnegative(0.0));
        assert!(m.is_finite());
        let mut bad = m.clone();
        bad[(0, 0)] = f64::NAN;
        assert!(!bad.is_finite());
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.5, 1.0]]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    /// A 2×2 matrix holding `v` at `at`: at `(0, 0)` it comes before the
    /// largest entry, at `(1, 1)` after it, so a fold that drops NaN in
    /// either position shows.
    fn with_entry(at: (usize, usize), v: f64) -> Matrix {
        let mut m = Matrix::from_rows(&[&[1.0, -5.0], &[2.0, 3.0]]);
        m[at] = v;
        m
    }

    #[test]
    fn max_abs_propagates_nan() {
        for at in [(0, 0), (1, 1)] {
            assert!(with_entry(at, f64::NAN).max_abs().is_nan(), "NaN at {at:?}");
        }
        assert_eq!(
            with_entry((0, 0), f64::NEG_INFINITY).max_abs(),
            f64::INFINITY
        );
        assert_eq!(Matrix::zeros(0, 0).max_abs(), 0.0);
    }

    #[test]
    fn norm_inf_propagates_nan() {
        for at in [(0, 0), (1, 1)] {
            assert!(
                with_entry(at, f64::NAN).norm_inf().is_nan(),
                "NaN at {at:?}"
            );
        }
        assert_eq!(
            with_entry((1, 1), f64::NEG_INFINITY).norm_inf(),
            f64::INFINITY
        );
        assert_eq!(with_entry((0, 0), 0.0).norm_inf(), 5.0);
    }

    #[test]
    fn max_abs_diff_propagates_nan() {
        let a = Matrix::from_rows(&[&[1.0, -5.0], &[2.0, 3.0]]);
        for at in [(0, 0), (1, 1)] {
            let b = with_entry(at, f64::NAN);
            assert!(a.max_abs_diff(&b).is_nan(), "NaN at {at:?}");
            assert!(b.max_abs_diff(&a).is_nan(), "NaN at {at:?}, swapped");
        }
        // `inf − inf` is NaN: two overflowed iterates never read as equal.
        let inf = with_entry((1, 1), f64::INFINITY);
        assert!(inf.max_abs_diff(&inf).is_nan());
    }
}
