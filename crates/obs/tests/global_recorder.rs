//! Tests of the global recorder: span nesting, elapsed aggregation, and
//! the JSON export. These install/uninstall the process-wide recorder, so
//! each test holds a lock to serialize against the others (the test harness
//! runs tests on multiple threads).

use std::sync::Mutex;
use std::time::Duration;

use gsched_obs as obs;

static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn with_global<R>(f: impl FnOnce() -> R) -> R {
    let _guard = GLOBAL_LOCK.lock().unwrap();
    obs::uninstall();
    let result = f();
    obs::uninstall();
    result
}

#[test]
fn span_nesting_builds_paths_and_aggregates_elapsed() {
    with_global(|| {
        let recorder = obs::install_memory();
        for _ in 0..3 {
            let _outer = obs::span("outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = obs::span("inner");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let snapshot = recorder.snapshot();
        let outer = snapshot.span("outer").expect("outer span recorded");
        let inner = snapshot.span("outer/inner").expect("nested path recorded");
        assert_eq!(outer.count, 3);
        assert_eq!(inner.count, 3);
        // The outer span wholly contains the inner one.
        assert!(outer.total_nanos >= inner.total_nanos);
        // Three 2 ms sleeps at least.
        assert!(inner.total_nanos >= 3 * 1_000_000);
        // No bare "inner" path: the inner span was always nested.
        assert!(snapshot.span("inner").is_none());
    });
}

#[test]
fn events_carry_the_open_span_path() {
    with_global(|| {
        let recorder = obs::install_memory();
        {
            let _outer = obs::span("core.solve");
            let _class = obs::span("core.class1");
            obs::event(
                "qbd.rmatrix.solve",
                &[
                    ("iterations", obs::FieldValue::U64(17)),
                    ("residual", obs::FieldValue::F64(1e-12)),
                    ("method", obs::FieldValue::Str("lr".to_string())),
                ],
            );
        }
        let snapshot = recorder.snapshot();
        let event = snapshot
            .events_named("qbd.rmatrix.solve")
            .next()
            .expect("event recorded");
        assert_eq!(event.span, "core.solve/core.class1");
        assert_eq!(event.fields[0].1.as_u64(), Some(17));
        assert_eq!(event.fields[2].1.as_str(), Some("lr"));
    });
}

#[test]
fn probes_are_noops_without_a_recorder() {
    with_global(|| {
        assert!(!obs::enabled());
        // None of these should panic or accumulate anywhere.
        let _span = obs::span("ignored");
        obs::counter_add("ignored", 1);
        obs::gauge_set("ignored", 1.0);
        obs::observe("ignored", 1.0);
        obs::event("ignored", &[]);
        drop(_span);
        // Installing afterwards starts from a clean slate.
        let recorder = obs::install_memory();
        let snapshot = recorder.snapshot();
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.spans.is_empty());
    });
}

#[test]
fn snapshot_round_trips_through_json() {
    with_global(|| {
        let recorder = obs::install_memory();
        {
            let _span = obs::span("sim.run");
            obs::counter_add("sim.events_processed", 1234);
            obs::gauge_set("sim.event_rate_per_sec", 5.5e6);
            for i in 1..=100 {
                obs::observe("sim.queue_length.class0", i as f64);
            }
            obs::event(
                "sim.batch",
                &[
                    ("index", obs::FieldValue::U64(0)),
                    ("means", obs::FieldValue::F64s(vec![1.0, 2.0])),
                ],
            );
        }
        let snapshot = recorder.snapshot();
        let json: serde_json::Value =
            serde_json::from_str(&snapshot.to_json()).expect("diag JSON parses");
        // Spot-check the schema: counters, gauges, quantiles, spans and
        // vector fields all reach the document.
        assert_eq!(
            json["counters"][0]["name"].as_str(),
            Some("sim.events_processed")
        );
        assert_eq!(json["counters"][0]["value"].as_u64(), Some(1234));
        assert_eq!(json["gauges"][0]["value"].as_f64(), Some(5.5e6));
        let hist = &json["histograms"][0];
        assert_eq!(hist["name"].as_str(), Some("sim.queue_length.class0"));
        assert_eq!(hist["count"].as_u64(), Some(100));
        let p50 = hist["p50"].as_f64().unwrap();
        assert!((p50 - 50.0).abs() / 50.0 < 0.045);
        assert_eq!(json["spans"][0]["path"].as_str(), Some("sim.run"));
        assert_eq!(json["span_intervals"][0]["ctx"].as_u64(), Some(0));
        let event = &json["events"][0];
        assert_eq!(event["name"].as_str(), Some("sim.batch"));
        assert_eq!(event["fields"][1][1][1].as_f64(), Some(2.0));
    });
}

#[test]
fn span_intervals_follow_the_span_tree() {
    with_global(|| {
        let recorder = obs::install_memory();
        {
            let _outer = obs::span("outer");
            std::thread::sleep(Duration::from_millis(1));
            let _inner = obs::span("inner");
            std::thread::sleep(Duration::from_millis(1));
        }
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.span_intervals.len(), 2);
        assert_eq!(snapshot.span_intervals_dropped, 0);
        // Completion order: inner drops first.
        let inner = &snapshot.span_intervals[0];
        let outer = &snapshot.span_intervals[1];
        assert_eq!(inner.path, "outer/inner");
        assert_eq!(outer.path, "outer");
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.start_nanos >= outer.start_nanos);
        assert!(
            inner.start_nanos + inner.dur_nanos <= outer.start_nanos + outer.dur_nanos + 1_000,
            "inner interval contained in outer (1µs slop)"
        );
        // The aggregate view agrees with the interval log.
        assert_eq!(snapshot.span("outer/inner").unwrap().count, 1);
    });
}

#[test]
fn install_replaces_and_uninstall_disables() {
    with_global(|| {
        let first = obs::install_memory();
        obs::counter_add("x", 1);
        let second = obs::install_memory();
        obs::counter_add("x", 10);
        assert_eq!(first.snapshot().counter("x"), Some(1));
        assert_eq!(second.snapshot().counter("x"), Some(10));
        obs::uninstall();
        assert!(!obs::enabled());
        obs::counter_add("x", 100);
        assert_eq!(second.snapshot().counter("x"), Some(10));
    });
}
