//! The textbook kernels the row-oriented ones replaced, kept as bitwise
//! oracles: the column-at-a-time `solve_vec`/`solve_matrix`, the
//! row-at-a-time `solve_left_matrix` with a `Vec` per row, the indexed
//! `factor_in_place` and the indexed `i-k-j` `matmul`. Their bodies are the
//! originals minus the work-counter calls (and `Matrix::col`, inlined).

use super::Lu;
use crate::{LinalgError, Matrix, Result};

impl Lu {
    fn textbook_solve_vec(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
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
        x
    }

    fn textbook_solve_matrix(&self, b: &Matrix) -> Matrix {
        let n = self.dim();
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col: Vec<f64> = (0..b.rows()).map(|i| b[(i, j)]).collect();
            let x = self.textbook_solve_vec(&col);
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        out
    }

    fn textbook_solve_left_matrix(&self, b: &Matrix) -> Matrix {
        let n = self.dim();
        let mut out = Matrix::zeros(b.rows(), n);
        for i in 0..b.rows() {
            let x = self.solve_left_vec(b.row(i)).unwrap();
            out.row_mut(i).copy_from_slice(&x);
        }
        out
    }
}

fn textbook_factor_in_place(lu: &mut [f64], piv: &mut [usize]) -> Result<f64> {
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
    Ok(sign)
}

fn textbook_matmul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(lhs.rows(), rhs.cols());
    // i-k-j loop order: streams through rhs rows, friendly to row-major.
    for i in 0..lhs.rows() {
        for k in 0..lhs.cols() {
            let a = lhs[(i, k)];
            if a == 0.0 {
                continue;
            }
            let rrow = rhs.row(k);
            let orow = out.row_mut(i);
            for (o, &b) in orow.iter_mut().zip(rrow.iter()) {
                *o += a * b;
            }
        }
    }
    out
}

/// Seeded entries in `[−1, 1)`, with exact zeros of either sign.
struct Entries(u64);

impl Entries {
    fn bits(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.bits() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A `rows × cols` matrix whose entries are a signed zero with
    /// probability `zeros`.
    fn matrix(&mut self, rows: usize, cols: usize, zeros: f64) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| match self.unit() < zeros {
                true if self.bits() & 1 == 0 => 0.0,
                true => -0.0,
                false => 2.0 * self.unit() - 1.0,
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Like [`Entries::matrix`], with column 0 all signed zeros (if any).
    fn zero_led(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut m = self.matrix(rows, cols, 0.3);
        for i in (0..rows).filter(|_| cols > 0) {
            m[(i, 0)] = if self.bits() & 1 == 0 { 0.0 } else { -0.0 };
        }
        m
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Factor `a` with both kernels, check that they agree bit for bit (or
/// fail alike) and return the pivots.
fn factor_both(a: &Matrix) -> Result<Vec<usize>> {
    let n = a.rows();
    let (mut new, mut old) = (a.clone(), a.clone());
    let (mut new_piv, mut old_piv) = (vec![0; n], vec![0; n]);
    let sign = super::factor_in_place(new.as_mut_slice(), &mut new_piv);
    let want = textbook_factor_in_place(old.as_mut_slice(), &mut old_piv);
    assert_eq!(
        sign.clone().map(f64::to_bits),
        want.map(f64::to_bits),
        "n = {n}"
    );
    assert_eq!(bits(&new), bits(&old), "factor, n = {n}");
    assert_eq!(new_piv, old_piv, "pivots, n = {n}");
    sign.map(|_| new_piv)
}

#[test]
fn row_kernels_match_the_textbook_kernels_bit_for_bit() {
    let mut rng = Entries(0x2545_F491_4F6C_DD1D);
    for n in 1..=40 {
        // Off-diagonal signed zeros, a small diagonal and a zero corner:
        // the factorization swaps rows from its first step on.
        let a = loop {
            let mut a = rng.matrix(n, n, 0.2);
            for i in 0..n {
                a[(i, i)] = 1e-3 * (rng.unit() + 0.5);
            }
            if n > 1 {
                a[(0, 0)] = 0.0;
            }
            if let Ok(piv) = factor_both(&a) {
                assert!(n == 1 || piv[0] != 0, "n = {n}: no row swap");
                break a;
            }
        };
        let lu = Lu::new(&a).unwrap();
        for w in [0, 1, n, 2 * n + 1] {
            let b = rng.zero_led(n, w);
            let got = lu.solve_matrix(&b).unwrap();
            assert_eq!(
                bits(&got),
                bits(&lu.textbook_solve_matrix(&b)),
                "solve, n = {n}, m = {w}"
            );
            let b = rng.zero_led(w, n);
            let got = lu.solve_left_matrix(&b).unwrap();
            let want = lu.textbook_solve_left_matrix(&b);
            assert_eq!(bits(&got), bits(&want), "left solve, n = {n}, m = {w}");

            // An infinite `rhs` entry facing a zero `lhs` column: only the
            // skip keeps it out of the product.
            let lhs = rng.zero_led(w, n);
            let mut rhs = rng.matrix(n, w, 0.3);
            if w > 0 {
                rhs[(0, w - 1)] = f64::INFINITY;
            }
            for (l, r) in [(&lhs, &rhs), (&rhs, &lhs), (&a, &rhs)] {
                let got = l.matmul(r).unwrap();
                assert_eq!(
                    bits(&got),
                    bits(&textbook_matmul(l, r)),
                    "matmul, n = {n}, m = {w}"
                );
            }
            let (l, r) = (Matrix::zeros(w, 0), Matrix::zeros(0, n));
            assert_eq!(bits(&l.matmul(&r).unwrap()), bits(&textbook_matmul(&l, &r)));
        }
        let b = rng.zero_led(n, 1);
        let got = lu.solve_vec(b.as_slice()).unwrap();
        let want = lu.textbook_solve_vec(b.as_slice());
        let (got, want) = (Matrix::from_vec(n, 1, got), Matrix::from_vec(n, 1, want));
        assert_eq!(bits(&got), bits(&want), "solve_vec, n = {n}");
        let inverse = lu.inverse().unwrap();
        let want = lu.textbook_solve_matrix(&Matrix::identity(n));
        assert_eq!(bits(&inverse), bits(&want), "inverse, n = {n}");

        // A repeated row and a zero column are singular for both.
        let mut s = rng.matrix(n, n, 0.2);
        for j in 0..n {
            s[(n - 1, j)] = s[(0, j)];
        }
        let mut z = rng.matrix(n, n, 0.2);
        for i in 0..n {
            z[(i, n / 2)] = 0.0;
        }
        for m in [&s, &z].into_iter().skip(usize::from(n == 1)) {
            assert_eq!(factor_both(m), Err(LinalgError::Singular), "n = {n}");
        }
    }
}
