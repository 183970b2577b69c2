//! Moment-matching fits.
//!
//! The paper notes (§3.2) that steady-state means in this class of models
//! depend mostly on the first few moments of the parameter distributions
//! [Schassberger 1977/78; Walrand 1988]. The fixed-point iteration of
//! Theorem 4.3 produces *effective quantum* distributions whose exact PH
//! representation can be large; compressing them to a low-order PH that
//! matches two or three moments keeps the per-class state spaces small. The
//! fits here are the standard ones:
//!
//! * two moments — exponential (SCV = 1), balanced-means two-phase
//!   hyperexponential (SCV > 1), or mixed Erlang `E_{k−1}/E_k` (SCV < 1)
//!   [Tijms, *Stochastic Models*, §7];
//! * three moments — two-phase Coxian solved by a univariate root find, with
//!   graceful fallback to the two-moment fit outside the Coxian-2 feasible
//!   region.

use crate::builders::{coxian, exponential};
use crate::dist::PhaseType;
use gsched_linalg::Matrix;

/// Tolerance within which an SCV is treated as exactly 1 (exponential), or
/// `k·scv` as exactly 1 (Erlang-k).
const SCV_TOL: f64 = 1e-9;

/// Fit a PH distribution matching a `mean` and squared coefficient of
/// variation `scv`.
///
/// * `scv ≈ 1` → exponential;
/// * `scv > 1` → two-phase balanced-means hyperexponential;
/// * `scv ≈ 1/k` (`|k·scv − 1| ≤ 1e-9`) → Erlang-k;
/// * `scv < 1` otherwise → mixture of Erlang-(k−1) and Erlang-k with common
///   stage rate where `k = ⌈1/scv⌉` (exactly matches both moments).
///
/// # Panics
/// Panics if `mean <= 0` or `scv < 0`.
pub fn fit_two_moment(mean: f64, scv: f64) -> PhaseType {
    assert!(mean > 0.0, "fit_two_moment: mean must be positive");
    assert!(scv >= 0.0, "fit_two_moment: scv must be nonnegative");
    if (scv - 1.0).abs() <= SCV_TOL {
        return exponential(1.0 / mean);
    }
    if scv > 1.0 {
        // Balanced-means H2: p/λ1 = (1-p)/λ2 = m1/2.
        let p = 0.5 * (1.0 + ((scv - 1.0) / (scv + 1.0)).sqrt());
        let l1 = 2.0 * p / mean;
        let l2 = 2.0 * (1.0 - p) / mean;
        return crate::builders::hyperexponential(&[p, 1.0 - p], &[l1, l2])
            .expect("balanced-means H2 parameters are valid");
    }
    // scv < 1: mixed Erlang. Find k with 1/k <= scv <= 1/(k-1). The stage
    // count is capped at 128 (SCV resolution 1/128) so a near-deterministic
    // request cannot allocate an enormous dense representation.
    let scv = scv.max(1.0 / 128.0);
    // On a stage-count boundary the mixture degenerates to one Erlang, and
    // which side of it roundoff puts `scv` would otherwise decide between
    // order k and orders 2k ± 1.
    let nearest = (1.0 / scv).round();
    if (nearest * scv - 1.0).abs() <= SCV_TOL {
        return crate::builders::erlang(nearest as usize, 1.0 / mean);
    }
    let k = (1.0 / scv).ceil() as usize;
    let k = k.clamp(2, 128);
    let kf = k as f64;
    // Tijms: p chooses E_{k-1} (k-1 stages) with stage rate mu. The clamps
    // keep roundoff from pushing the root's argument below zero or p just
    // outside [0, 1].
    let root = (kf * (1.0 + scv) - kf * kf * scv).max(0.0).sqrt();
    let p = ((kf * scv - root) / (1.0 + scv)).clamp(0.0, 1.0);
    let mu = (kf - p) / mean; // per-stage rate
    mixed_erlang(k, p, mu)
}

/// `p·E_{k−1} + (1 − p)·E_k` with common stage rate `mu`, built as one PH.
/// Each branch's stage rate is computed as
/// [`erlang`](crate::builders::erlang) computes it for `erlang(k − 1,
/// mu/(k − 1))` and `erlang(k, mu/k)`, so the result is bitwise their
/// [`mixture`](crate::ops::mixture).
fn mixed_erlang(k: usize, p: f64, mu: f64) -> PhaseType {
    let n = 2 * k - 1;
    let mut s = Matrix::zeros(n, n);
    let mut alpha = vec![0.0; n];
    (alpha[0], alpha[k - 1]) = (p, 1.0 - p);
    for (start, stages) in [(0, k - 1), (k - 1, k)] {
        let rate = stages as f64 * (mu / stages as f64);
        for i in start..start + stages {
            s[(i, i)] = -rate;
            if i + 1 < start + stages {
                s[(i, i + 1)] = rate;
            }
        }
    }
    PhaseType::new(alpha, s).expect("mixed-Erlang parameters are valid")
}

/// Outcome of a three-moment fit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitQuality {
    /// All three moments matched exactly (up to numerics).
    ThreeExact,
    /// The target was outside the Coxian-2 feasible region; only the first
    /// two moments are matched.
    TwoFallback,
}

/// Fit a PH distribution matching raw moments `(m1, m2, m3)` when possible.
///
/// Attempts an exact two-phase Coxian: with `x = 1/μ₁`, `u = m₁ − x` and
/// `y(x) = (m₂/2 − m₁x)/(m₁ − x)`, the third-moment equation
/// `m₃/6 = m₁x² + (m₁−x)·y·(x+y)` is solved for `x` by bisection. If no
/// parameters with `μ₁, μ₂ > 0`, `a ∈ [0,1]` exist, falls back to
/// [`fit_two_moment`].
///
/// # Panics
/// Panics if `m1 <= 0` or `m2 <= m1²` is violated so badly that no
/// distribution exists (`m2 < m1²`).
pub fn fit_three_moment(m1: f64, m2: f64, m3: f64) -> (PhaseType, FitQuality) {
    assert!(m1 > 0.0, "fit_three_moment: m1 must be positive");
    assert!(
        m2 >= m1 * m1 * (1.0 - 1e-9),
        "fit_three_moment: m2 < m1^2 is infeasible (negative variance)"
    );
    let scv = (m2 - m1 * m1).max(0.0) / (m1 * m1);

    if let Some((mu1, mu2, a)) = solve_coxian2(m1, m2, m3) {
        if let Ok(ph) = coxian(&[mu1, mu2], &[a]) {
            // Accept only if the moments really match (root-finder sanity).
            let ok = (ph.moment(1) - m1).abs() < 1e-6 * m1.max(1.0)
                && (ph.moment(2) - m2).abs() < 1e-6 * m2.max(1.0)
                && (ph.moment(3) - m3).abs() < 1e-5 * m3.abs().max(1.0);
            if ok {
                return (ph, FitQuality::ThreeExact);
            }
        }
    }
    (fit_two_moment(m1, scv), FitQuality::TwoFallback)
}

/// Solve the Coxian-2 moment equations; returns `(μ1, μ2, a)` on success.
fn solve_coxian2(m1: f64, m2: f64, m3: f64) -> Option<(f64, f64, f64)> {
    // x = 1/mu1 ranges over (0, m1); u = a/mu2 = m1 - x must be > 0 when a>0;
    // y = 1/mu2 = (m2/2 - m1 x) / (m1 - x) must be > 0.
    let y_of = |x: f64| (m2 / 2.0 - m1 * x) / (m1 - x);
    let h = |x: f64| {
        let y = y_of(x);
        m1 * x * x + (m1 - x) * y * (x + y) - m3 / 6.0
    };
    // Valid x must keep y > 0: both numerator and denominator positive means
    // x < min(m1, m2/(2 m1)). (The other sign combination gives y>0 too but
    // then a = (m1-x)/y < 0.)
    let x_hi = (m2 / (2.0 * m1)).min(m1) * (1.0 - 1e-12);
    if x_hi <= 0.0 {
        return None;
    }
    // Scan for a sign change of h on (0, x_hi); h is smooth there.
    const N: usize = 2048;
    let mut prev_x = x_hi * 1e-9;
    let mut prev_h = h(prev_x);
    let mut bracket = None;
    for i in 1..=N {
        let x = x_hi * (i as f64) / (N as f64 + 1.0);
        let hx = h(x);
        if hx == 0.0 {
            bracket = Some((x, x));
            break;
        }
        if prev_h.is_finite() && hx.is_finite() && prev_h * hx < 0.0 {
            bracket = Some((prev_x, x));
            break;
        }
        prev_x = x;
        prev_h = hx;
    }
    let (mut lo, mut hi) = bracket?;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let hm = h(mid);
        if hm == 0.0 {
            lo = mid;
            hi = mid;
            break;
        }
        if h(lo) * hm < 0.0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let x = 0.5 * (lo + hi);
    let y = y_of(x);
    if !(x > 0.0 && y > 0.0) {
        return None;
    }
    let a = (m1 - x) / y;
    if !(0.0..=1.0 + 1e-9).contains(&a) {
        return None;
    }
    Some((1.0 / x, 1.0 / y, a.min(1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::erlang;

    #[test]
    fn two_moment_exponential_case() {
        let ph = fit_two_moment(2.0, 1.0);
        assert_eq!(ph.order(), 1);
        assert!((ph.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn two_moment_high_variability() {
        let ph = fit_two_moment(1.0, 4.0);
        assert!((ph.mean() - 1.0).abs() < 1e-10);
        assert!((ph.scv() - 4.0).abs() < 1e-8);
        assert_eq!(ph.order(), 2);
    }

    #[test]
    fn two_moment_low_variability() {
        for &scv in &[0.9, 0.5, 0.3, 0.21, 0.125] {
            let ph = fit_two_moment(3.0, scv);
            assert!((ph.mean() - 3.0).abs() < 1e-8, "scv={scv}");
            assert!((ph.scv() - scv).abs() < 1e-6, "scv={scv}: got {}", ph.scv());
        }
    }

    /// The mixed-Erlang branch as it was built before [`mixed_erlang`]: two
    /// Erlangs and their mixture, each validated. `None` where it could not
    /// build one (a weight outside [0, 1]).
    fn mixture_route(mean: f64, scv: f64) -> Option<PhaseType> {
        use crate::ops::mixture;
        let scv = scv.max(1.0 / 128.0);
        let k = (1.0 / scv).ceil() as usize;
        let k = k.clamp(2, 128);
        let kf = k as f64;
        let p = (kf * scv - (kf * (1.0 + scv) - kf * kf * scv).sqrt()) / (1.0 + scv);
        let mu = (kf - p) / mean;
        if !(0.0..=1.0).contains(&p) {
            return None;
        }
        let e_km1 = erlang(k - 1, mu / (kf - 1.0));
        let e_k = erlang(k, mu / kf);
        mixture(&[p, 1.0 - p], &[e_km1, e_k]).ok()
    }

    #[test]
    fn mixed_erlang_is_bitwise_the_mixture_of_two_erlangs() {
        let bits = |ph: &PhaseType| {
            let s = ph.sub_generator();
            let all = ph.alpha().iter().chain(s.as_slice());
            all.map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        // A fine grid over (1/128, 1), away from the stage-count boundaries.
        for i in 1..1000 {
            let scv = 1.0 / 128.0 + (1.0 - 1.0 / 128.0) * i as f64 / 1000.0;
            for mean in [0.37, 12.5] {
                let got = fit_two_moment(mean, scv);
                let want = mixture_route(mean, scv).expect("p lies in [0, 1]");
                assert_eq!(bits(&got), bits(&want), "scv {scv:e}, mean {mean}");
                assert!((got.mean() - mean).abs() <= 1e-9 * mean, "scv {scv:e}");
                assert!(
                    (got.scv() - scv).abs() <= 1e-6,
                    "scv {scv:e}: {}",
                    got.scv()
                );
            }
        }
        // Every stage-count boundary 1/k and its two neighbouring floats is
        // one Erlang-k, where the mixture's order used to follow roundoff
        // (k, 2k − 1 or 2k + 1).
        for k in 2..=128usize {
            let b = 1.0 / k as f64;
            for scv in [
                f64::from_bits(b.to_bits() - 1),
                b,
                f64::from_bits(b.to_bits() + 1),
            ] {
                for mean in [0.37, 12.5] {
                    let got = fit_two_moment(mean, scv);
                    assert_eq!(got.order(), k, "scv {scv:e}, mean {mean}");
                    assert!((got.mean() - mean).abs() <= 1e-12 * mean, "scv {scv:e}");
                    assert!((got.scv() - b).abs() <= 1e-9, "scv {scv:e}");
                }
            }
        }
    }

    #[test]
    fn two_moment_erlang_boundary() {
        // scv exactly 1/k lands on a pure Erlang.
        let ph = fit_two_moment(1.0, 0.25);
        assert!((ph.scv() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn three_moment_matches_erlang_target() {
        // Erlang-2's moments are inside the Coxian-2 region (it IS a Coxian-2).
        let target = erlang(2, 1.0);
        let (m1, m2, m3) = (target.moment(1), target.moment(2), target.moment(3));
        let (ph, q) = fit_three_moment(m1, m2, m3);
        assert_eq!(q, FitQuality::ThreeExact);
        assert!((ph.moment(1) - m1).abs() < 1e-8);
        assert!((ph.moment(2) - m2).abs() < 1e-8);
        assert!((ph.moment(3) - m3).abs() < 1e-6);
    }

    #[test]
    fn three_moment_matches_hyperexp_target() {
        let target = crate::builders::hyperexponential(&[0.3, 0.7], &[0.5, 3.0]).unwrap();
        let (m1, m2, m3) = (target.moment(1), target.moment(2), target.moment(3));
        let (ph, q) = fit_three_moment(m1, m2, m3);
        assert_eq!(q, FitQuality::ThreeExact);
        assert!((ph.moment(3) - m3).abs() / m3 < 1e-5);
    }

    #[test]
    fn three_moment_falls_back_outside_region() {
        // Erlang-5 has SCV 0.2 — below what Coxian-2 can reach (min 0.5).
        let target = erlang(5, 1.0);
        let (m1, m2, m3) = (target.moment(1), target.moment(2), target.moment(3));
        let (ph, q) = fit_three_moment(m1, m2, m3);
        assert_eq!(q, FitQuality::TwoFallback);
        // Two moments still match.
        assert!((ph.moment(1) - m1).abs() < 1e-8);
        assert!((ph.moment(2) - m2).abs() / m2 < 1e-5);
    }

    #[test]
    fn three_moment_exponential_is_exact() {
        let (ph, q) = fit_three_moment(1.0, 2.0, 6.0);
        // Exponential(1) has exactly these moments; Coxian-2 degenerates.
        assert!((ph.moment(1) - 1.0).abs() < 1e-8);
        assert!((ph.moment(2) - 2.0).abs() < 1e-7);
        assert!((ph.moment(3) - 6.0).abs() < 1e-5, "m3={}", ph.moment(3));
        assert_eq!(q, FitQuality::ThreeExact);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn negative_variance_rejected() {
        let _ = fit_three_moment(2.0, 1.0, 1.0);
    }

    #[test]
    fn two_moment_tiny_scv_does_not_explode() {
        // A deterministic request is clamped to SCV 1/128 (order <= 257).
        let ph = fit_two_moment(1.0, 0.0);
        assert!(ph.order() <= 257, "order {}", ph.order());
        assert!((ph.mean() - 1.0).abs() < 1e-6);
        assert!(ph.scv() <= 1.0 / 64.0);
    }
}
