//! How fast the host runs at the moment, from a fixed reference
//! computation of the benchmark's own.
//!
//! On a shared machine the speed the benchmark gets drifts by up to 1.6×
//! over minutes, as neighbours come and go: longer than one run, so no
//! estimator inside a run removes it. The reference computation is timed
//! between sweeps all through a run, and the run's timings are divided by
//! the median reference time over the run. The reference is this file's
//! code, not the program's, so a change to the program moves the sweeps and
//! leaves the reference alone; a slower or faster machine moves both.
//!
//! Measured on the 2-vCPU machine this benchmark was built on, over 17
//! windows of about 36 s in which the host slowed by 1.6× part-way
//! through: the median time of a `large_p` round spread by 0.55
//! (interquartile range over median) across windows, and by 0.04 once
//! divided by the window's median reference time; a `fig2` sweep spread by
//! 0.48 and 0.07.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Median milliseconds of one reference computation on the machine the
/// benchmark was built on, in its faster state. Timings divided by the
/// host factor read as milliseconds on that machine.
pub const REFERENCE_MS: f64 = 13.7;

/// Order of the reference LU factorization: its matrix (2 MiB) is about
/// one core's L2 cache, between the small chains of the figure sweeps and
/// the large boundary blocks of `large_p`.
const N: usize = 512;

thread_local! {
    /// The reference matrix's storage, allocated and touched once, so that
    /// no timed run pays for fresh pages.
    static MATRIX: RefCell<Vec<f64>> = RefCell::new(vec![0.0; N * N]);
}

/// Time one reference computation, in milliseconds. The first one after a
/// sweep runs on caches the sweep left behind and reads up to 2× slow, so
/// callers run one untimed first ([`warm_up`]).
fn reference_ms() -> f64 {
    MATRIX.with(|m| {
        let a = &mut m.borrow_mut();
        let t0 = Instant::now();
        black_box(reference(a));
        t0.elapsed().as_secs_f64() * 1e3
    })
}

/// Run the reference computation once, untimed.
fn warm_up() {
    MATRIX.with(|m| black_box(reference(&mut m.borrow_mut())));
}

/// Samples per second of timed work.
const PER_SECOND: f64 = 2.0;

/// The reference times of a run, in bursts taken between sweeps once a
/// second of sweeping has gone by: [`PER_SECOND`] samples a second, each
/// burst after one untimed warm-up run.
#[derive(Debug, Default)]
pub struct Sampler {
    bursts: Vec<Vec<f64>>,
    owed_s: f64,
}

impl Sampler {
    /// The burst that will scale the work about to be counted: the next one
    /// taken.
    pub fn next_burst(&self) -> usize {
        self.bursts.len()
    }

    /// Count `seconds` of timed work just finished, and take a burst once a
    /// second or more is owed.
    pub fn after(&mut self, seconds: f64) {
        self.owed_s += seconds;
        if self.owed_s >= 1.0 {
            self.burst();
        }
    }

    /// Take the last burst, for whatever work is still owed one.
    pub fn finish(&mut self) {
        if self.owed_s > 0.0 {
            self.burst();
        }
    }

    fn burst(&mut self) {
        warm_up();
        let n = ((self.owed_s * PER_SECOND).round() as usize).max(1);
        self.bursts.push((0..n).map(|_| reference_ms()).collect());
        self.owed_s = 0.0;
    }

    /// Host factor of burst `b`.
    pub fn burst_factor(&self, b: usize) -> f64 {
        factor(&self.bursts[b])
    }

    /// Every reference time of the run.
    pub fn times_ms(&self) -> Vec<f64> {
        self.bursts.concat()
    }
}

/// The host factor of a run: its median reference time over
/// [`REFERENCE_MS`]; above 1 when the host runs slower than the reference
/// machine's faster state.
pub fn factor(reference_ms: &[f64]) -> f64 {
    crate::stats::median(reference_ms) / REFERENCE_MS
}

/// The reference computation: a dense LU factorization with partial
/// pivoting, the kernel under the boundary solves, on a fixed diagonally
/// dominant matrix. Written here once and never changed. Returns the log
/// of the determinant's magnitude.
fn reference(a: &mut [f64]) -> f64 {
    let n = N;
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = ((i * 7 + j * 13) % 17) as f64 / 17.0 - 0.5;
        }
        a[i * n + i] += n as f64;
    }
    let mut log_det = 0.0;
    for k in 0..n {
        let p = (k..n)
            .max_by(|&x, &y| a[x * n + k].abs().total_cmp(&a[y * n + k].abs()))
            .expect("rows remain");
        if p != k {
            for j in 0..n {
                a.swap(k * n + j, p * n + j);
            }
        }
        let pivot = a[k * n + k];
        log_det += pivot.abs().ln();
        for i in (k + 1)..n {
            let f = a[i * n + k] / pivot;
            a[i * n + k] = f;
            for j in (k + 1)..n {
                a[i * n + j] -= f * a[k * n + j];
            }
        }
    }
    log_det
}

#[cfg(test)]
mod tests {
    #[test]
    fn bursts_follow_the_seconds_of_work() {
        let mut s = super::Sampler::default();
        s.after(0.4);
        assert_eq!(s.next_burst(), 0);
        s.after(0.7);
        assert_eq!(s.next_burst(), 1);
        assert_eq!(s.times_ms().len(), 2);
        s.finish();
        assert_eq!(s.next_burst(), 1);
        s.after(0.2);
        s.finish();
        assert_eq!(s.times_ms().len(), 3);
        assert!(s.burst_factor(1) > 0.0);
    }

    #[test]
    fn reference_is_deterministic() {
        let mut a = vec![0.0; super::N * super::N];
        let first = super::reference(&mut a);
        assert_eq!(first, super::reference(&mut a));
        assert!(first.is_finite());
    }
}
