//! How many boundary levels the large-P fixed point assembles. Each class
//! solve builds the levels its truncation search reads and no others:
//! levels `0..=m+1` of its last cut `m` (the frozen view at `m` reads the
//! blocks out of level `m + 1`). An eager build would assemble all `c + 1`.

use gsched_core::solve;
use gsched_obs as obs;
use gsched_scenario::registry;

#[test]
fn p_sweep_at_4096_builds_the_levels_below_each_certified_cut() {
    let sc = registry::lookup("p_sweep").unwrap();
    let opts = sc.solver_options(&Default::default());
    let model = sc.model_at(4096.0).unwrap();
    let recorder = obs::install_memory();
    let sol = solve(&model, &opts).unwrap();
    obs::uninstall();
    let snap = recorder.snapshot();
    let counter = |name| snap.counter(name).unwrap_or(0);
    let built = counter(obs::names::QBD_BOUNDARY_LEVELS_BUILT);
    let eliminated = counter(obs::names::QBD_BOUNDARY_LEVELS_ELIMINATED);

    // Two passes; every pass certifies class 0 (c = 1024) at m = 512 and
    // class 1 (c = 4096) at m = 2048.
    assert_eq!(sol.iterations, 2);
    let certs: Vec<_> = sol.classes.iter().map(|c| c.truncation.unwrap()).collect();
    assert_eq!(
        certs
            .iter()
            .map(|t| (t.level, t.full_c))
            .collect::<Vec<_>>(),
        [(512, 1024), (2048, 4096)]
    );
    // Σ over class solves of (m + 2): 2 × (514 + 2050). The elimination
    // reads levels 0..m, so it counts m per solve.
    let per_pass: u64 = certs.iter().map(|t| t.level as u64 + 2).sum();
    assert_eq!(built, 5128);
    assert_eq!(built, sol.iterations as u64 * per_pass);
    assert_eq!(eliminated, 5120);
    assert_eq!(built - eliminated, 2 * 2 * sol.iterations as u64);
    // An eager build assembles every level of both chains on every pass.
    let eager: u64 = certs.iter().map(|t| t.full_c as u64 + 1).sum();
    assert_eq!(sol.iterations as u64 * eager, 10244);
}
