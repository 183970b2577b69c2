//! Process-global work counters for the dense kernels.
//!
//! The profiler (`gsched profile`) attributes wall time to solver phases
//! via spans, but spans are far too expensive for kernels that run millions
//! of times per solve. Instead the three hot kernels — [`Matrix::matmul`],
//! [`Lu::new`], and the triangular substitution passes behind
//! [`Lu::solve_vec`]/[`Lu::solve_left_vec`] and their matrix forms — bump
//! relaxed process-global atomics counting calls and nominal floating-point
//! operations. The counters sit behind the same [`gsched_obs::enabled`]
//! guard as every other probe, so an uninstrumented run pays one relaxed
//! load per kernel call and nothing else.
//!
//! Flop counts are *nominal* (textbook) counts for the requested shapes:
//! `2·m·n·k` for an `m×k · k×n` product, `2n³/3` for an LU factorization,
//! and `2n²` for one forward+backward substitution pair. `matmul` skips
//! zero entries of the left operand, so the counted flops are an upper
//! bound on the arithmetic actually performed — which is the right measure
//! for a GFLOP/s denominator that should be comparable across sparsity
//! patterns.
//!
//! Debug-only checks (a `debug_assert!` that re-derives a residual, say)
//! run their kernels inside [`uncounted`], so the counted work of a run is
//! the same in every build profile.
//!
//! [`Matrix::matmul`]: crate::Matrix::matmul
//! [`Lu::new`]: crate::Lu::new
//! [`Lu::solve_vec`]: crate::Lu::solve_vec
//! [`Lu::solve_left_vec`]: crate::Lu::solve_left_vec

use std::sync::atomic::{AtomicU64, Ordering};

static MATMUL_CALLS: AtomicU64 = AtomicU64::new(0);
static MATMUL_FLOPS: AtomicU64 = AtomicU64::new(0);
static LU_FACTORIZATIONS: AtomicU64 = AtomicU64::new(0);
static LU_FLOPS: AtomicU64 = AtomicU64::new(0);
static TRIANGULAR_SOLVES: AtomicU64 = AtomicU64::new(0);
static TRIANGULAR_FLOPS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Nesting depth of [`uncounted`] on this thread (debug builds only).
    static PAUSED: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Whether a kernel call is charged: a recorder is installed and no
/// [`uncounted`] check is running on this thread.
#[inline]
fn recording() -> bool {
    gsched_obs::enabled() && (cfg!(not(debug_assertions)) || PAUSED.with(|p| p.get() == 0))
}

/// Run `check` without charging its kernels to the counters.
///
/// Meant for debug-only checks: it keeps the counted work of a debug build
/// equal to a release build's, which has no such checks. In release builds
/// it is a plain call.
pub fn uncounted<T>(check: impl FnOnce() -> T) -> T {
    if cfg!(not(debug_assertions)) {
        return check();
    }
    struct Resume;
    impl Drop for Resume {
        fn drop(&mut self) {
            PAUSED.with(|p| p.set(p.get() - 1));
        }
    }
    PAUSED.with(|p| p.set(p.get() + 1));
    let _resume = Resume;
    check()
}

/// Record an `m×k · k×n` matrix product (`2·m·n·k` nominal flops).
#[inline]
pub(crate) fn record_matmul(m: usize, n: usize, k: usize) {
    if !recording() {
        return;
    }
    MATMUL_CALLS.fetch_add(1, Ordering::Relaxed);
    MATMUL_FLOPS.fetch_add(2 * (m as u64) * (n as u64) * (k as u64), Ordering::Relaxed);
}

/// Record one `n×n` LU factorization (`2n³/3` nominal flops).
#[inline]
pub(crate) fn record_lu_factorization(n: usize) {
    if !recording() {
        return;
    }
    let n = n as u64;
    LU_FACTORIZATIONS.fetch_add(1, Ordering::Relaxed);
    LU_FLOPS.fetch_add(2 * n * n * n / 3, Ordering::Relaxed);
}

/// Record `rhs` forward+backward substitution pairs against an `n×n`
/// factor (`2n²` nominal flops each): matrix solves record one pair per
/// right-hand side.
#[inline]
pub(crate) fn record_triangular_solves(n: usize, rhs: usize) {
    if !recording() {
        return;
    }
    let (n, rhs) = (n as u64, rhs as u64);
    TRIANGULAR_SOLVES.fetch_add(rhs, Ordering::Relaxed);
    TRIANGULAR_FLOPS.fetch_add(2 * n * n * rhs, Ordering::Relaxed);
}

/// A consistent-enough view of the kernel work counters.
///
/// Values are read individually with relaxed ordering; in a multi-threaded
/// process a snapshot is approximate (each counter is exact, but they may
/// straddle an in-flight kernel). Single-threaded harnesses — `gsched
/// profile` and `gsched bench` both run their measured workloads on one
/// thread — get exact deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkCounters {
    /// Matrix products performed.
    pub matmul_calls: u64,
    /// Nominal flops across those products.
    pub matmul_flops: u64,
    /// LU factorizations performed.
    pub lu_factorizations: u64,
    /// Nominal flops across those factorizations.
    pub lu_flops: u64,
    /// Forward+backward substitution pairs performed.
    pub triangular_solves: u64,
    /// Nominal flops across those substitutions.
    pub triangular_flops: u64,
}

impl WorkCounters {
    /// Current totals since process start (or the last [`reset`]).
    pub fn snapshot() -> WorkCounters {
        WorkCounters {
            matmul_calls: MATMUL_CALLS.load(Ordering::Relaxed),
            matmul_flops: MATMUL_FLOPS.load(Ordering::Relaxed),
            lu_factorizations: LU_FACTORIZATIONS.load(Ordering::Relaxed),
            lu_flops: LU_FLOPS.load(Ordering::Relaxed),
            triangular_solves: TRIANGULAR_SOLVES.load(Ordering::Relaxed),
            triangular_flops: TRIANGULAR_FLOPS.load(Ordering::Relaxed),
        }
    }

    /// Work performed since `self` was snapshotted (saturating, so a
    /// concurrent [`reset`] yields zeros rather than wrapped garbage).
    pub fn delta_since(&self) -> WorkCounters {
        let now = WorkCounters::snapshot();
        WorkCounters {
            matmul_calls: now.matmul_calls.saturating_sub(self.matmul_calls),
            matmul_flops: now.matmul_flops.saturating_sub(self.matmul_flops),
            lu_factorizations: now.lu_factorizations.saturating_sub(self.lu_factorizations),
            lu_flops: now.lu_flops.saturating_sub(self.lu_flops),
            triangular_solves: now.triangular_solves.saturating_sub(self.triangular_solves),
            triangular_flops: now.triangular_flops.saturating_sub(self.triangular_flops),
        }
    }

    /// Total nominal flops across all kernel families.
    pub fn total_flops(&self) -> u64 {
        self.matmul_flops + self.lu_flops + self.triangular_flops
    }
}

/// Zero every counter. Intended for single-threaded measurement harnesses
/// that want totals scoped to one workload.
pub fn reset() {
    MATMUL_CALLS.store(0, Ordering::Relaxed);
    MATMUL_FLOPS.store(0, Ordering::Relaxed);
    LU_FACTORIZATIONS.store(0, Ordering::Relaxed);
    LU_FLOPS.store(0, Ordering::Relaxed);
    TRIANGULAR_SOLVES.store(0, Ordering::Relaxed);
    TRIANGULAR_FLOPS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lu, Matrix};

    // Counters only move while a recorder is installed. The recorder is
    // process-global, so the tests that install one are serialized behind
    // this lock (an uninstall in one test must not disable counting in the
    // other), and every assertion is a `>=` on a delta taken around our own
    // kernel calls.
    static RECORDER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn kernels_accumulate_nominal_flops() {
        let _lock = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _rec = gsched_obs::install_memory();
        let before = WorkCounters::snapshot();
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let _ = a.matmul(&b).unwrap();
        let lu = Lu::new(&a).unwrap();
        let _ = lu.solve_vec(&[1.0, 2.0]).unwrap();
        let _ = lu.solve_left_vec(&[1.0, 2.0]).unwrap();
        let d = before.delta_since();
        gsched_obs::uninstall();
        assert!(d.matmul_calls >= 1, "{d:?}");
        assert!(d.matmul_flops >= 2 * 2 * 2 * 2, "{d:?}");
        assert!(d.lu_factorizations >= 1, "{d:?}");
        assert!(d.lu_flops >= 2 * 8 / 3, "{d:?}");
        assert!(d.triangular_solves >= 2, "{d:?}");
        assert!(d.triangular_flops >= 2 * (2 * 4), "{d:?}");
        assert!(d.total_flops() >= d.matmul_flops);
    }

    #[test]
    fn kernels_charge_textbook_nominal_flops() {
        // One logical operation, one record: `Matrix::matmul` charges
        // `2n³`, `Lu::new` charges `2n³/3`, and each LU solve charges one
        // `2n²` substitution pair.
        let _lock = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _rec = gsched_obs::install_memory();
        let n = 10;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = ((i * 31 + j * 7) % 13) as f64 - 6.0;
            }
            a[(i, i)] += n as f64;
        }
        let b = Matrix::identity(n);
        let want = WorkCounters {
            matmul_calls: 1,
            matmul_flops: 2 * (n as u64).pow(3),
            lu_factorizations: 1,
            lu_flops: 2 * (n as u64).pow(3) / 3,
            triangular_solves: 2,
            triangular_flops: 2 * 2 * (n as u64).pow(2),
        };
        // Counters are process-global and the recorder-enabled flag turns
        // kernel recording on for every thread, so a concurrent test's
        // kernels can bleed into a delta. Retry until a quiet window gives
        // the exact textbook charge.
        let ok = (0..100).any(|_| {
            let before = WorkCounters::snapshot();
            let _ = a.matmul(&b).unwrap();
            let lu = Lu::new(&a).unwrap();
            let _ = lu.solve_vec(&vec![1.0; n]).unwrap();
            let _ = lu.solve_left_vec(&vec![1.0; n]).unwrap();
            before.delta_since() == want
        });
        gsched_obs::uninstall();
        assert!(
            ok,
            "the kernels never produced the textbook nominal charge {want:?} in 100 attempts"
        );
    }

    #[test]
    fn uncounted_kernels_are_charged_only_in_release_builds() {
        let _lock = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _rec = gsched_obs::install_memory();
        let a = Matrix::identity(3);
        let want = u64::from(!cfg!(debug_assertions));
        // A concurrent test's kernels can bleed into a delta; retry until a
        // quiet window shows the exact charge.
        let ok = (0..100).any(|_| {
            let before = WorkCounters::snapshot();
            let _ = uncounted(|| uncounted(|| a.matmul(&a).unwrap()).matmul(&a));
            let after_check = before.delta_since();
            let _ = a.matmul(&a).unwrap();
            let d = before.delta_since();
            after_check.matmul_calls == 2 * want && d.matmul_calls == 2 * want + 1
        });
        gsched_obs::uninstall();
        assert!(
            ok,
            "uncounted kernels were charged (or counting did not resume)"
        );
    }

    #[test]
    fn matrix_solves_count_one_pair_per_rhs() {
        // `n × m` right-hand sides cost `m` substitution pairs of `2n²`,
        // whichever side they are on; an inverse is `n` of them.
        let _lock = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _rec = gsched_obs::install_memory();
        let (n, m) = (3, 5);
        let a = Matrix::from_rows(&[&[3.0, 1.0, 0.0], &[1.0, 2.0, 1.0], &[0.0, 1.0, 4.0]]);
        let lu = Lu::new(&a).unwrap();
        let pairs = |count: usize| WorkCounters {
            triangular_solves: count as u64,
            triangular_flops: (count * 2 * n * n) as u64,
            ..WorkCounters::default()
        };
        let right = Matrix::zeros(n, m);
        let left = Matrix::zeros(m, n);
        // A concurrent test's kernels can bleed into a delta; retry until a
        // quiet window shows the exact charge of all three.
        let ok = (0..100).any(|_| {
            let before = WorkCounters::snapshot();
            let _ = lu.solve_matrix(&right).unwrap();
            let after_right = before.delta_since();
            let _ = lu.solve_left_matrix(&left).unwrap();
            let after_left = before.delta_since();
            let _ = lu.inverse().unwrap();
            let d = before.delta_since();
            after_right == pairs(m) && after_left == pairs(2 * m) && d == pairs(2 * m + n)
        });
        gsched_obs::uninstall();
        assert!(
            ok,
            "matrix solves never produced one 2n² pair per right-hand side in 100 attempts"
        );
    }
}
