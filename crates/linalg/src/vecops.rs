//! Small helpers on `&[f64]` vectors used throughout the solver stack.

/// Dot product.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x` in place.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Largest absolute value in `values`: `0` when empty, NaN when any value
/// is NaN.
///
/// `f64::max` returns its other operand when one is NaN, so a plain
/// `fold(0.0, f64::max)` reads a NaN entry as no entry at all; a
/// convergence test built on it would pass on a NaN iterate.
pub fn max_abs_of(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0_f64, |m, v| {
        let v = v.abs();
        if m >= v || m.is_nan() {
            m
        } else {
            v
        }
    })
}

/// Maximum absolute entry (NaN when any entry is NaN).
pub fn max_abs(a: &[f64]) -> f64 {
    max_abs_of(a.iter().copied())
}

/// Maximum absolute difference between two equal-length vectors (NaN when
/// any difference is NaN).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    max_abs_of(a.iter().zip(b.iter()).map(|(&x, &y)| x - y))
}

/// True if all entries are finite.
pub fn is_finite(a: &[f64]) -> bool {
    a.iter().all(|v| v.is_finite())
}

/// True if all entries are `>= -tol`.
pub fn is_nonnegative(a: &[f64], tol: f64) -> bool {
    a.iter().all(|&v| v >= -tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_sum() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_updates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn diff_and_bounds() {
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[2.0, 3.0]), 2.0);
        assert_eq!(max_abs(&[-3.0, 2.0]), 3.0);
        assert!(max_abs(&[f64::NAN, 2.0]).is_nan());
        assert!(max_abs(&[2.0, f64::NAN]).is_nan());
        assert!(max_abs_diff(&[f64::INFINITY], &[f64::INFINITY]).is_nan());
        assert_eq!(max_abs_of(std::iter::empty()), 0.0);
        assert!(is_nonnegative(&[0.0, -1e-15], 1e-12));
        assert!(!is_nonnegative(&[-1.0], 1e-12));
        assert!(is_finite(&[1.0, 2.0]));
        assert!(!is_finite(&[f64::INFINITY]));
    }
}
