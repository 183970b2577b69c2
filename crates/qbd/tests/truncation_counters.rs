//! The truncation search publishes deterministic work counters: attempts,
//! attempts skipped by the drift test, and censored levels eliminated — the
//! last once per level, however many attempts the search makes.

use gsched_linalg::Matrix;
use gsched_obs as obs;
use gsched_qbd::solution::{LevelTruncation, SolveOptions};
use gsched_qbd::QbdProcess;

/// M/M/c as a QBD with one state per level.
fn mmc(lambda: f64, mu: f64, c: usize) -> QbdProcess {
    let rate = |i: usize| Matrix::from_rows(&[&[i as f64 * mu]]);
    let local = |i: usize| Matrix::from_rows(&[&[-(lambda + i as f64 * mu)]]);
    let arrive = || Matrix::from_rows(&[&[lambda]]);
    QbdProcess::new(
        (0..c).map(|_| arrive()).collect(),
        (0..=c).map(local).collect(),
        (1..=c).map(rate).collect(),
        arrive(),
        local(c),
        rate(c),
    )
    .unwrap()
}

#[test]
fn search_counts_attempts_skips_and_each_level_once() {
    let q = mmc(8.0, 1.0, 64);
    let opts = SolveOptions {
        truncation: LevelTruncation::Auto {
            target_tail: 1e-9,
            min_levels: 4,
        },
        ..Default::default()
    };
    let recorder = obs::install_memory();
    let sol = q.solve(&opts).unwrap();
    obs::uninstall();
    let snap = recorder.snapshot();
    let counter = |name| snap.counter(name).unwrap_or(0);

    let m = sol.truncation().expect("certified").level as u64;
    let attempts = counter(obs::names::QBD_TRUNCATION_ATTEMPTS);
    let skips = counter(obs::names::QBD_TRUNCATION_UNSTABLE_SKIPS);
    // m = 4 freezes 5 servers against a load of 8: skipped on drift alone.
    assert!(skips >= 1, "skips {skips}");
    // At least two chains were solved, so the elimination resumed.
    assert!(attempts >= skips + 2, "attempts {attempts}, skips {skips}");
    let solved = snap.span("qbd.truncation/qbd.solve").map_or(0, |s| s.count);
    assert_eq!(solved, attempts - skips);
    assert_eq!(counter(obs::names::QBD_BOUNDARY_LEVELS_ELIMINATED), m);
}
