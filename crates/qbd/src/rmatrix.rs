//! Solvers for the rate matrix `R` (paper eq. 23).
//!
//! `R` is the minimal nonnegative solution of
//!
//! ```text
//!     A₀ + R·A₁ + R²·A₂ = 0
//! ```
//!
//! It is computed by **logarithmic reduction** (Latouche–Ramaswami 1993):
//! the first-passage matrix `G` (minimal solution of
//! `A₂ + A₁G + A₀G² = 0`) converges quadratically, and
//! `R = A₀ · (−(A₁ + A₀G))⁻¹` recovers `R` from it.
//!
//! It runs on the dense kernels of `gsched-linalg`: [`Matrix::matmul`] for
//! products and [`Lu`] for factorizations and solves. Every solver path
//! solves `R` cold; [`solve_r_warm`] runs only when a caller passes an
//! explicit `SolveOptions::initial_r`.

use crate::{QbdError, Result};
use gsched_linalg::{vecops, Lu, Matrix};
use gsched_obs as obs;

/// The algorithm for `R`: logarithmic reduction, the only one.
///
/// It stays only as the type of the `method` argument of [`solve_r`] and
/// of `SolveOptions::method`, which the benchmark harness
/// (`perfbench/src/trace.rs`) passes; it goes with the next change to that
/// harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RSolverMethod {
    /// Quadratically convergent logarithmic reduction.
    #[default]
    LogarithmicReduction,
}

/// Solve for `R` cold by logarithmic reduction.
pub fn solve_r(
    a0: &Matrix,
    a1: &Matrix,
    a2: &Matrix,
    method: RSolverMethod,
    tol: f64,
    max_iter: usize,
) -> Result<Matrix> {
    let RSolverMethod::LogarithmicReduction = method;
    let _span = obs::span("qbd.solve_r");
    let g = solve_g_logarithmic_reduction(a0, a1, a2, tol, max_iter)?;
    r_from_g(a0, a1, &g)
}

/// Emit the per-solve instrumentation shared by the cold and warm `R` solves.
fn record_r_solve(method: &'static str, dim: usize, iterations: usize, residual: f64) {
    if !obs::enabled() {
        return;
    }
    obs::counter_add(obs::names::QBD_RMATRIX_SOLVES, 1);
    obs::counter_add(obs::names::QBD_RMATRIX_ITERATIONS, iterations as u64);
    obs::observe(
        obs::names::QBD_RMATRIX_ITERATIONS_PER_SOLVE,
        iterations as f64,
    );
    obs::observe(obs::names::QBD_RMATRIX_RESIDUAL, residual);
    obs::event(
        "qbd.rmatrix.solve",
        &[
            ("method", obs::FieldValue::Str(method.to_string())),
            ("dim", obs::FieldValue::U64(dim as u64)),
            ("iterations", obs::FieldValue::U64(iterations as u64)),
            ("residual", obs::FieldValue::F64(residual)),
        ],
    );
}

/// The successive-substitution fixed point `R ← −(A₀ + R²A₂)·A₁⁻¹` from
/// `r`, run until two iterates differ by at most `tol`.
///
/// Returns `(R, iterations)`. A stall, or
/// a NaN step (which no later step recovers from), reports
/// [`NoConvergence`](gsched_linalg::LinalgError::NoConvergence) under
/// `solve_r_warm`.
fn substitute(
    a0: &Matrix,
    a1: &Matrix,
    a2: &Matrix,
    mut r: Matrix,
    tol: f64,
    max_iter: usize,
) -> Result<(Matrix, usize)> {
    let a1_f = Lu::new(a1)?;
    let mut last_diff = f64::INFINITY;
    let mut iterations = 0;
    for iteration in 1..=max_iter {
        iterations = iteration;
        // numerator = A0 + R^2 A2
        let r2 = r.matmul(&r)?;
        let mut num = r2.matmul(a2)?;
        num += a0;
        // next = -num * A1^{-1}  <=>  next * A1 = -num
        let next = a1_f.solve_left_matrix(&num.scaled(-1.0))?;
        last_diff = next.max_abs_diff(&r);
        r = next;
        if last_diff <= tol {
            return Ok((r, iteration));
        }
        if last_diff.is_nan() {
            break;
        }
    }
    Err(QbdError::Linalg(
        gsched_linalg::LinalgError::NoConvergence {
            method: "solve_r_warm",
            iterations,
            residual: last_diff,
        },
    ))
}

/// Warm-started `R` solve: run the successive-substitution fixed point
/// from a caller-supplied initial iterate. Logarithmic reduction iterates
/// on `G`-space cycle matrices, not on `R`, so it has no warm-startable
/// iterate of its own.
///
/// No solver path calls it: substitution from a nearby `R` converges
/// linearly at a rate near `sp(R)`, so a cold logarithmic reduction, which
/// converges quadratically, is faster even from a good seed. It runs only
/// for an explicit `SolveOptions::initial_r`, which the benchmark harness
/// (`perfbench/`) replays; deleting both waits for a change to that
/// harness.
///
/// Substitution converges monotonically only from `R = 0`; from an
/// arbitrary nonnegative iterate convergence is not guaranteed, so the
/// result is validated against the defining equation: `Err` is returned
/// when the iteration stalls or the final residual exceeds `residual_tol`,
/// and callers should fall back to a cold solve.
pub fn solve_r_warm(
    a0: &Matrix,
    a1: &Matrix,
    a2: &Matrix,
    initial: &Matrix,
    tol: f64,
    max_iter: usize,
    residual_tol: f64,
) -> Result<Matrix> {
    let d = a1.rows();
    if initial.rows() != d || initial.cols() != d {
        return Err(QbdError::Linalg(
            gsched_linalg::LinalgError::DimensionMismatch {
                op: "solve_r_warm initial iterate",
                lhs: (initial.rows(), initial.cols()),
                rhs: (d, d),
            },
        ));
    }
    let (r, iterations) = substitute(a0, a1, a2, initial.clone(), tol, max_iter)?;
    let residual = r_residual(a0, a1, a2, &r);
    // A diverging start overflows to `inf`, whose `inf − inf` step reads as
    // converged and whose NaN residual the max-norm drops: reject it here.
    if !r.is_finite() || residual > residual_tol || !r.is_nonnegative(1e-9) {
        return Err(QbdError::Linalg(
            gsched_linalg::LinalgError::NoConvergence {
                method: "solve_r_warm",
                iterations,
                residual,
            },
        ));
    }
    record_r_solve("warm_substitution", d, iterations, residual);
    Ok(r)
}

/// Logarithmic reduction for the first-passage matrix `G` (minimal solution
/// of `A₂ + A₁G + A₀G² = 0`).
pub fn solve_g_logarithmic_reduction(
    a0: &Matrix,
    a1: &Matrix,
    a2: &Matrix,
    tol: f64,
    max_iter: usize,
) -> Result<Matrix> {
    let d = a1.rows();
    let neg_a1_f = Lu::new(&a1.scaled(-1.0))?;
    // H = (−A1)⁻¹A0 (up step), L = (−A1)⁻¹A2 (down step).
    let mut h = neg_a1_f.solve_matrix(a0)?;
    let mut l = neg_a1_f.solve_matrix(a2)?;
    let mut g = l.clone();
    let mut t = h.clone();

    let mut residual = f64::INFINITY;
    for iteration in 1..=max_iter {
        // U = H·L + L·H ; H ← (I−U)⁻¹H² ; L ← (I−U)⁻¹L²
        let hl = h.matmul(&l)?;
        let lh = l.matmul(&h)?;
        let u = &hl + &lh;
        let i_minus_u = &Matrix::identity(d) - &u;
        let f = Lu::new(&i_minus_u)?;
        let h2 = h.matmul(&h)?;
        let l2 = l.matmul(&l)?;
        h = f.solve_matrix(&h2)?;
        l = f.solve_matrix(&l2)?;
        // G ← G + T·L ; T ← T·H
        let tl = t.matmul(&l)?;
        g += &tl;
        t = t.matmul(&h)?;

        // Convergence: for a positive recurrent QBD, G is stochastic; the
        // defect of the row sums bounds the error. Also stop when the
        // correction term vanishes (transient case: G substochastic).
        let defect = vecops::max_abs_of(g.row_sums().into_iter().map(|s| 1.0 - s));
        let correction = tl.max_abs();
        residual = defect.min(correction);
        if correction <= tol || defect <= tol {
            record_r_solve("logarithmic_reduction", d, iteration, residual);
            return Ok(g);
        }
    }
    Err(QbdError::Linalg(
        gsched_linalg::LinalgError::NoConvergence {
            method: "solve_g_logarithmic_reduction",
            iterations: max_iter,
            residual,
        },
    ))
}

/// Recover `R = A₀ · (−(A₁ + A₀G))⁻¹` from the first-passage matrix `G`.
pub fn r_from_g(a0: &Matrix, a1: &Matrix, g: &Matrix) -> Result<Matrix> {
    let a0g = a0.matmul(g)?;
    let u = &(a1.clone()) + &a0g; // U = A1 + A0 G
    let neg_u_f = Lu::new(&u.scaled(-1.0))?;
    // R (−U) = A0  =>  R = A0 (−U)^{-1}
    Ok(neg_u_f.solve_left_matrix(a0)?)
}

/// Residual `‖A₀ + R A₁ + R² A₂‖_∞` of a candidate `R` — used in tests and
/// as a post-hoc sanity check by callers.
pub fn r_residual(a0: &Matrix, a1: &Matrix, a2: &Matrix, r: &Matrix) -> f64 {
    let ra1 = r.matmul(a1).expect("square blocks");
    let r2a2 = r.matmul(r).and_then(|r2| r2.matmul(a2)).expect("square");
    let mut res = a0.clone();
    res += &ra1;
    res += &r2a2;
    res.norm_inf()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsched_linalg::spectral::spectral_radius_default;

    fn mm1_blocks(lambda: f64, mu: f64) -> (Matrix, Matrix, Matrix) {
        (
            Matrix::from_rows(&[&[lambda]]),
            Matrix::from_rows(&[&[-(lambda + mu)]]),
            Matrix::from_rows(&[&[mu]]),
        )
    }

    fn mmpp_blocks() -> (Matrix, Matrix, Matrix) {
        // Two-phase arrival-modulated M/M/1 (MMPP/M/1-like).
        let l1 = 0.4;
        let l2 = 1.2;
        let mu = 2.0;
        let s = 0.3; // phase switch rate
        let a0 = Matrix::from_rows(&[&[l1, 0.0], &[0.0, l2]]);
        let a2 = Matrix::from_rows(&[&[mu, 0.0], &[0.0, mu]]);
        let a1 = Matrix::from_rows(&[&[-(l1 + mu + s), s], &[s, -(l2 + mu + s)]]);
        (a0, a1, a2)
    }

    #[test]
    fn mm1_r_is_rho_all_methods() {
        let (a0, a1, a2) = mm1_blocks(0.6, 1.0);
        let r = solve_r(
            &a0,
            &a1,
            &a2,
            RSolverMethod::LogarithmicReduction,
            1e-14,
            100_000,
        )
        .unwrap();
        assert!((r[(0, 0)] - 0.6).abs() < 1e-10, "R = {}", r[(0, 0)]);
    }

    /// A solution of the quadratic that is nonnegative with `sp(R) < 1` is
    /// the minimal one.
    #[test]
    fn multiphase_r_is_the_minimal_solution() {
        let (a0, a1, a2) = mmpp_blocks();
        let r = solve_r(
            &a0,
            &a1,
            &a2,
            RSolverMethod::LogarithmicReduction,
            1e-13,
            200,
        )
        .unwrap();
        assert!(r_residual(&a0, &a1, &a2, &r) < 1e-10);
        assert!(r.is_nonnegative(1e-12));
        let sp = spectral_radius_default(&r).unwrap();
        assert!(sp < 1.0, "sp(R) = {sp}");
    }

    #[test]
    fn warm_start_from_solution_reproduces_it() {
        // Warm starting from the exact solution must succeed immediately
        // and reproduce it.
        let (a0, a1, a2) = mmpp_blocks();
        let r_star = solve_r(
            &a0,
            &a1,
            &a2,
            RSolverMethod::LogarithmicReduction,
            1e-13,
            200,
        )
        .unwrap();
        let warm = solve_r_warm(&a0, &a1, &a2, &r_star, 1e-12, 50, 1e-8).unwrap();
        assert!(
            warm.max_abs_diff(&r_star) < 1e-8,
            "diff = {}",
            warm.max_abs_diff(&r_star)
        );
    }

    #[test]
    fn non_finite_blocks_end_in_a_typed_error() {
        use gsched_linalg::LinalgError;
        let (a0, a1, a2) = mmpp_blocks();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (block, at) in [
                (0, (0, 0)),
                (0, (1, 1)),
                (1, (0, 1)),
                (1, (1, 1)),
                (2, (1, 0)),
            ] {
                let mut blocks = [a0.clone(), a1.clone(), a2.clone()];
                blocks[block][at] = bad;
                let [b0, b1, b2] = &blocks;
                let case = format!("{bad} in A{block} at {at:?}");
                // Logarithmic reduction meets the non-finite value in an LU
                // pivot and reports the factorization as singular.
                let lr = solve_r(b0, b1, b2, RSolverMethod::LogarithmicReduction, 1e-13, 200);
                assert!(
                    matches!(lr, Err(QbdError::Linalg(LinalgError::Singular))),
                    "lr, {case}: {lr:?}"
                );
                // Substitution from zero must not read an `inf − inf` step
                // as converged, and stops at the first NaN step instead of
                // spending its whole budget.
                let zero = Matrix::zeros(2, 2);
                let ss = solve_r_warm(b0, b1, b2, &zero, 1e-13, 10_000, 1e-8);
                match ss {
                    Err(QbdError::Linalg(LinalgError::Singular)) => {}
                    Err(QbdError::Linalg(LinalgError::NoConvergence { iterations, .. })) => {
                        assert!(iterations < 10, "ss, {case}: {iterations} iterations")
                    }
                    other => panic!("ss, {case}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn g_is_stochastic_when_stable() {
        let (a0, a1, a2) = mm1_blocks(0.5, 1.0);
        let g = solve_g_logarithmic_reduction(&a0, &a1, &a2, 1e-14, 100).unwrap();
        assert!((g[(0, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn heavy_load_still_converges() {
        // rho = 0.99, near instability: LR still needs only a few steps.
        let (a0, a1, a2) = mm1_blocks(0.99, 1.0);
        let r = solve_r(
            &a0,
            &a1,
            &a2,
            RSolverMethod::LogarithmicReduction,
            1e-13,
            200,
        )
        .unwrap();
        assert!((r[(0, 0)] - 0.99).abs() < 1e-9);
    }

    #[test]
    fn residual_of_solution_is_small() {
        let (a0, a1, a2) = mm1_blocks(0.3, 0.9);
        let r = solve_r(
            &a0,
            &a1,
            &a2,
            RSolverMethod::LogarithmicReduction,
            1e-14,
            100,
        )
        .unwrap();
        assert!(r_residual(&a0, &a1, &a2, &r) < 1e-12);
    }
}
