//! The fixed point publishes one `core.solver.fp_iteration` event per pass,
//! naming how the pass's effective quanta were made, and counts its
//! Anderson history resets in `core.solver.fp_restarts`.

use gsched_core::model::{ClassParams, GangModel};
use gsched_core::solver::{solve, SolverOptions};
use gsched_obs as obs;
use gsched_phase::{erlang, exponential};

/// Two classes on the whole machine, Erlang-2 quanta of mean 1.
fn two_classes(lambda: [f64; 2]) -> GangModel {
    let class = |rate: f64| ClassParams {
        partition_size: 4,
        arrival: exponential(rate),
        service: exponential(1.0),
        quantum: erlang(2, 1.0),
        switch_overhead: exponential(100.0),
    };
    GangModel::new(4, lambda.map(class).to_vec()).unwrap()
}

#[test]
fn every_pass_names_its_step_and_every_reset_is_counted() {
    // Class 0 of the second model cannot keep up under the full-quantum
    // vacations it starts from, and becomes stable once class 1's
    // effective quantum shrinks: a stability flip, which resets the
    // history.
    let models = [two_classes([0.3, 0.3]), two_classes([0.6, 0.1])];
    let recorder = obs::install_memory();
    let iterations: Vec<usize> = models
        .iter()
        .map(|m| solve(m, &SolverOptions::default()).unwrap().iterations)
        .collect();
    obs::uninstall();
    let snap = recorder.snapshot();

    let steps: Vec<String> = snap
        .events_named("core.solver.fp_iteration")
        .map(|ev| {
            let step = ev.fields.iter().find(|(k, _)| k == "step");
            step.and_then(|(_, v)| v.as_str()).unwrap().to_string()
        })
        .collect();
    assert_eq!(steps.len(), iterations.iter().sum::<usize>());
    // Per solve: the parameter quanta, then the damped step (no history
    // yet), then one more damped step after each reset.
    let mut damped_after_reset = 0;
    let mut at = 0;
    for n in iterations {
        let solve_steps = &steps[at..at + n];
        at += n;
        assert_eq!(solve_steps[0], "initial");
        assert_eq!(solve_steps[1], "damped");
        for s in &solve_steps[2..] {
            assert!(
                ["damped", "accelerated", "guarded"].contains(&s.as_str()),
                "{s}"
            );
        }
        damped_after_reset += solve_steps[2..].iter().filter(|s| *s == "damped").count();
    }
    let restarts = snap.counter(obs::names::CORE_SOLVER_FP_RESTARTS).unwrap();
    assert!(restarts > 0);
    assert_eq!(restarts as usize, damped_after_reset);
}
