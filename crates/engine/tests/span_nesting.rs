//! A one-worker sweep runs on the calling thread, so its spans nest under
//! the caller's. Its own binary: it installs the process-global recorder.

use gsched_core::{ClassParams, GangModel};
use gsched_engine::{run_sweep, ScenarioBase, SweepAxis, SweepOptions, SweepPoint, SweepRequest};
use gsched_obs as obs;
use gsched_phase::{erlang, exponential};

fn model(quantum_mean: f64) -> GangModel {
    let class = || ClassParams {
        partition_size: 2,
        arrival: exponential(0.15),
        service: exponential(1.0),
        quantum: erlang(2, 2.0 / quantum_mean),
        switch_overhead: exponential(100.0),
    };
    GangModel::new(2, vec![class(), class()]).unwrap()
}

#[test]
fn one_worker_sweep_spans_nest_under_the_caller() {
    let points = (0..6)
        .map(|i| {
            let x = 0.5 + 0.25 * i as f64;
            SweepPoint { x, model: model(x) }
        })
        .collect();
    let req = SweepRequest::new(
        SweepAxis::QuantumMean,
        ScenarioBase::labeled("nest"),
        points,
    );
    let recorder = obs::install_memory();
    let report = {
        let _outer = obs::span("outer");
        run_sweep(&req, &SweepOptions::default().with_jobs(1))
    };
    obs::uninstall();
    assert_eq!(report.failures(), 0);
    assert_eq!(report.stats.jobs, 1);

    let snap = recorder.snapshot();
    let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
    for (chunk, point) in [(0, 0), (0, 3), (1, 4), (1, 5)] {
        let want = format!(
            "outer/engine.sweep.nest/engine.sweep.chunk{chunk}/engine.sweep.point{point}/core.solve"
        );
        assert!(paths.contains(&want.as_str()), "no {want} in {paths:?}");
    }
    // Nothing ran on another thread, so no span path starts elsewhere.
    assert!(
        paths.iter().all(|p| p.starts_with("outer")),
        "a span outside the caller's stack: {paths:?}"
    );
    // The one start event carries the layout.
    let starts: Vec<_> = snap.events_named("engine.sweep.start").collect();
    assert_eq!(starts.len(), 1);
    assert_eq!(starts[0].span, "outer/engine.sweep.nest");
}
