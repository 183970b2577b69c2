//! The simulator publishes its run metrics through the `gsched_obs`
//! recorder; they must be non-zero and agree with the returned statistics.

use gsched_core::model::{ClassParams, GangModel};
use gsched_phase::{erlang, exponential};
use gsched_sim::{simulate, Policy, SimConfig};
use std::sync::Mutex;

/// Both tests manipulate the process-global recorder; serialize them.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn two_class_model() -> GangModel {
    let mk = || ClassParams {
        partition_size: 2,
        arrival: exponential(0.2),
        service: exponential(1.0),
        quantum: erlang(2, 1.0),
        switch_overhead: exponential(100.0),
    };
    GangModel::new(4, vec![mk(), mk()]).unwrap()
}

#[test]
fn run_metrics_match_returned_stats() {
    let _guard = GLOBAL_LOCK.lock().unwrap();
    let model = two_class_model();
    let cfg = SimConfig {
        horizon: 20_000.0,
        warmup: 2_000.0,
        seed: 17,
        batches: 10,
    };

    let recorder = gsched_obs::install_memory();
    let result = simulate(&model, Policy::Gang, cfg);
    gsched_obs::uninstall();
    let snap = recorder.snapshot();

    // Counters present and non-zero.
    let events = snap
        .counter("sim.events_processed")
        .expect("events counter");
    let cycles = snap
        .counter("sim.cycles_completed")
        .expect("cycles counter");
    assert!(events > 0, "no events recorded");
    assert!(cycles > 0, "no cycles recorded");
    // Every completion is at least one event, and a two-class cycle needs at
    // least two events (two switch completions), so events must dominate.
    assert!(events > cycles * 2);

    // Completions counter agrees exactly with the returned statistics.
    let completions = snap
        .counter("sim.completions")
        .expect("completions counter");
    let returned: u64 = result.classes.iter().map(|c| c.completions).sum();
    assert_eq!(completions, returned);
    assert!(returned > 0);

    // Measured-time gauge matches the result.
    let measured = snap.gauge("sim.measured_time").expect("measured gauge");
    assert!((measured - result.measured_time).abs() < 1e-9);

    // Per-class queue-length histograms: recorded for each class, with a
    // mean in the same ballpark as the reported time-average population.
    for (p, class) in result.classes.iter().enumerate() {
        let h = snap
            .histogram(&format!("sim.class{p}.queue_len"))
            .unwrap_or_else(|| panic!("no queue-length histogram for class {p}"));
        assert!(h.count > 0, "class {p}: empty histogram");
        assert!(h.max >= class.mean_jobs, "class {p}: max below the mean");
        // The histogram is per-transition (not time-weighted), so only a
        // loose agreement with the time-average is expected.
        assert!(
            h.mean > 0.0 && h.mean < 20.0 * (class.mean_jobs + 1.0),
            "class {p}: histogram mean {} vs time-average {}",
            h.mean,
            class.mean_jobs
        );
    }

    // The run span exists and measured something.
    let span = snap.span("sim.run").expect("sim.run span");
    assert_eq!(span.count, 1);
    assert!(span.total_nanos > 0);

    // The event-rate gauge is positive.
    let rate = snap.gauge("sim.event_rate_per_sec").expect("rate gauge");
    assert!(rate > 0.0);
}

#[test]
fn no_recorder_means_no_overhead_paths() {
    // With no recorder installed the simulator must run fine and the probe
    // functions must be inert (smoke test for the disabled fast path).
    let _guard = GLOBAL_LOCK.lock().unwrap();
    gsched_obs::uninstall();
    assert!(!gsched_obs::enabled());
    let model = two_class_model();
    let cfg = SimConfig {
        horizon: 5_000.0,
        warmup: 500.0,
        seed: 3,
        batches: 5,
    };
    let result = simulate(&model, Policy::Gang, cfg);
    assert!(result.classes.iter().all(|c| c.completions > 0));
}
