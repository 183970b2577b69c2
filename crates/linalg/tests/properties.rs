//! Property-based tests for the dense linear-algebra kernels.

use gsched_linalg::{lu, Lu, Matrix};
use proptest::prelude::*;

/// Strategy: a well-conditioned (diagonally dominant) square matrix.
fn dd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let mut m = Matrix::from_vec(n, n, data);
        for i in 0..n {
            m[(i, i)] += n as f64 + 1.0;
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inverse_roundtrip(n in 1usize..7, seed in 0u64..1000) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; (s % 2000) as f64 / 1000.0 - 1.0 };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += n as f64 + 1.0;
        }
        let inv = lu::inverse(&a).unwrap();
        let prod = a.matmul(&inv).unwrap();
        prop_assert!(prod.max_abs_diff(&Matrix::identity(n)) < 1e-9);
    }

    #[test]
    fn solve_matches_multiply(a in dd_matrix(4), b in proptest::collection::vec(-5.0f64..5.0, 4)) {
        let x = lu::solve(&a, &b).unwrap();
        let back = a.mul_vec(&x).unwrap();
        for (got, want) in back.iter().zip(b.iter()) {
            prop_assert!((got - want).abs() < 1e-8);
        }
    }

    #[test]
    fn left_solve_transpose_identity(a in dd_matrix(5), b in proptest::collection::vec(-3.0f64..3.0, 5)) {
        // Solving x·A = b must equal solving Aᵀ·xᵀ = bᵀ.
        let f = Lu::new(&a).unwrap();
        let x = f.solve_left_vec(&b).unwrap();
        let ft = Lu::new(&a.transpose()).unwrap();
        let y = ft.solve_vec(&b).unwrap();
        for (xi, yi) in x.iter().zip(y.iter()) {
            prop_assert!((xi - yi).abs() < 1e-8);
        }
    }

    #[test]
    fn determinant_multiplicative(a in dd_matrix(3), b in dd_matrix(3)) {
        let da = Lu::new(&a).unwrap().det();
        let db = Lu::new(&b).unwrap().det();
        let dab = Lu::new(&a.matmul(&b).unwrap()).unwrap().det();
        prop_assert!((dab - da * db).abs() < 1e-6 * dab.abs().max(1.0));
    }

    #[test]
    fn transpose_product_identity(a in dd_matrix(3), b in dd_matrix(3)) {
        // (AB)ᵀ = BᵀAᵀ
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    fn row_sums_linear(a in dd_matrix(4), s in -3.0f64..3.0) {
        let scaled = a.scaled(s);
        for (r1, r2) in a.row_sums().iter().zip(scaled.row_sums().iter()) {
            prop_assert!((r1 * s - r2).abs() < 1e-10);
        }
    }
}
