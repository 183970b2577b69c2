//! M/M/c against the Erlang-C closed form, which shares no code with the
//! QBD path: a lightly loaded chain with thousands of servers (where the
//! boundary elimination must stay stable across levels far above the load)
//! and a loaded one whose queueing term is not negligible.

use gsched_linalg::Matrix;
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

/// Mean number in an M/M/c system: `a + C(c, a)·a/(c − a)` with `a = λ/μ`,
/// the Erlang-C probability of waiting taken from the Erlang-B recursion
/// `B_k = a·B_{k−1} / (k + a·B_{k−1})`, which never overflows.
fn erlang_c_mean(lambda: f64, mu: f64, c: usize) -> f64 {
    let a = lambda / mu;
    let b = (1..=c).fold(1.0, |b, k| a * b / (k as f64 + a * b));
    let c = c as f64;
    let wait = c * b / (c - a * (1.0 - b));
    a + wait * a / (c - a)
}

fn assert_matches_erlang_c(lambda: f64, mu: f64, c: usize, truncation: LevelTruncation) {
    let sol = mmc(lambda, mu, c)
        .solve(&SolveOptions {
            truncation,
            ..Default::default()
        })
        .unwrap();
    let want = erlang_c_mean(lambda, mu, c);
    let got = sol.mean_level();
    assert!(
        ((got - want) / want).abs() < 1e-9,
        "M/M/{c} at λ = {lambda}, {truncation:?}: mean level {got} vs Erlang-C {want}"
    );
    assert!((sol.total_mass() - 1.0).abs() < 1e-9, "{truncation:?}");
}

#[test]
fn far_below_load_matches_erlang_c_and_certifies() {
    let (lambda, mu, c) = (250.0, 1.0, 2000);
    // The full solve back-substitutes across ~1e1046 of dynamic range.
    assert_matches_erlang_c(lambda, mu, c, LevelTruncation::None);
    assert_matches_erlang_c(lambda, mu, c, LevelTruncation::Fixed { level: 512 });
    let auto = LevelTruncation::Auto {
        target_tail: 1e-8,
        min_levels: 16,
    };
    assert_matches_erlang_c(lambda, mu, c, auto);
    let sol = mmc(lambda, mu, c)
        .solve(&SolveOptions {
            truncation: auto,
            ..Default::default()
        })
        .unwrap();
    let cert = sol.truncation().expect("Auto certifies below c");
    assert!(cert.level < c, "certified at {}", cert.level);
    assert!(cert.tail_mass <= 1e-8, "tail {}", cert.tail_mass);
}

#[test]
fn loaded_large_c_matches_erlang_c() {
    // ρ = 0.9375: the waiting probability is far from negligible.
    let (lambda, mu, c) = (240.0, 1.0, 256);
    assert!(erlang_c_mean(lambda, mu, c) - lambda / mu > 1.0);
    assert_matches_erlang_c(lambda, mu, c, LevelTruncation::None);
    assert_matches_erlang_c(
        lambda,
        mu,
        c,
        LevelTruncation::Auto {
            target_tail: 1e-8,
            min_levels: 16,
        },
    );
}
