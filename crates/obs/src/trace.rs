//! Chrome Trace Event export — render recorded span intervals as a
//! `trace.json` loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.
//!
//! The exporter emits the JSON-object form of the Trace Event Format: a
//! `traceEvents` array of complete (`"ph": "X"`) events, one per recorded
//! span interval, plus process/thread metadata (`"ph": "M"`) events naming
//! the rows. Timestamps are microseconds from the process timing epoch;
//! nesting is reconstructed by the viewer from interval containment per
//! thread, which matches the per-thread span stack that produced them.

use serde_json::Value;

use crate::snapshot::Snapshot;

/// Leaf name of a slash-joined span path.
fn leaf(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Snapshot {
    /// Serialize the recorded span intervals as Chrome Trace Event JSON.
    ///
    /// Each interval becomes one complete event named after the innermost
    /// span, carrying the full nesting path in `args.path`. The result is
    /// always a valid trace, even when no intervals were recorded.
    pub fn to_chrome_trace(&self) -> String {
        let mut events: Vec<Value> = Vec::with_capacity(self.span_intervals.len() + 8);
        events.push(obj(vec![
            ("name", Value::String("process_name".to_string())),
            ("ph", Value::String("M".to_string())),
            ("pid", Value::Number(1.0)),
            ("tid", Value::Number(0.0)),
            (
                "args",
                obj(vec![("name", Value::String("gsched".to_string()))]),
            ),
        ]));
        let mut tids: Vec<u64> = self.span_intervals.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in &tids {
            events.push(obj(vec![
                ("name", Value::String("thread_name".to_string())),
                ("ph", Value::String("M".to_string())),
                ("pid", Value::Number(1.0)),
                ("tid", Value::Number(*tid as f64)),
                (
                    "args",
                    obj(vec![("name", Value::String(format!("thread {tid}")))]),
                ),
            ]));
        }
        for s in &self.span_intervals {
            let mut args = vec![("path", Value::String(s.path.clone()))];
            if s.ctx != 0 {
                args.push((
                    "request_id",
                    Value::String(crate::recorder::context_label(s.ctx)),
                ));
            }
            events.push(obj(vec![
                ("name", Value::String(leaf(&s.path).to_string())),
                ("cat", Value::String("span".to_string())),
                ("ph", Value::String("X".to_string())),
                ("ts", Value::Number(s.start_nanos as f64 / 1e3)),
                ("dur", Value::Number(s.dur_nanos as f64 / 1e3)),
                ("pid", Value::Number(1.0)),
                ("tid", Value::Number(s.tid as f64)),
                ("args", obj(args)),
            ]));
        }
        let top = obj(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::String("ms".to_string())),
            (
                "otherData",
                obj(vec![
                    (
                        "spans_dropped",
                        Value::Number(self.span_intervals_dropped as f64),
                    ),
                    ("exporter", Value::String("gsched-obs".to_string())),
                ]),
            ),
        ]);
        serde_json::to_string_pretty(&top).expect("trace serializes")
    }
}

#[cfg(test)]
mod tests {
    use crate::recorder::{install_memory, span, uninstall};
    use serde_json::Value;

    /// Record a real nested span tree through the global API and check the
    /// exported trace is valid Trace Event JSON whose intervals nest the
    /// same way the spans did.
    #[test]
    fn trace_export_is_valid_and_nested() {
        let _lock = crate::recorder::TEST_RECORDER_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let recorder = install_memory();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        uninstall();
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.span_intervals.len(), 2);
        let text = snapshot.to_chrome_trace();
        let parsed: Value = serde_json::from_str(&text).expect("valid JSON");
        let events = parsed["traceEvents"].as_array().unwrap();

        // Every event carries the required Trace Event keys.
        for ev in events {
            assert!(ev["name"].as_str().is_some());
            assert!(ev["ph"].as_str().is_some());
            assert!(ev["pid"].as_f64().is_some());
            assert!(ev["tid"].as_f64().is_some());
        }
        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        let find = |path: &str| -> &Value {
            complete
                .iter()
                .find(|e| e["args"]["path"].as_str() == Some(path))
                .unwrap_or_else(|| panic!("no event for path {path}"))
        };
        let outer = find("outer");
        let inner = find("outer/inner");
        assert_eq!(inner["name"].as_str(), Some("inner"));
        // The child interval is contained in the parent's.
        let (o_ts, o_dur) = (
            outer["ts"].as_f64().unwrap(),
            outer["dur"].as_f64().unwrap(),
        );
        let (i_ts, i_dur) = (
            inner["ts"].as_f64().unwrap(),
            inner["dur"].as_f64().unwrap(),
        );
        assert!(i_ts >= o_ts, "inner starts after outer: {i_ts} vs {o_ts}");
        assert!(
            i_ts + i_dur <= o_ts + o_dur + 1.0,
            "inner ends within outer (+1µs slop)"
        );
        // Same thread, so the viewer stacks them.
        assert_eq!(outer["tid"], inner["tid"]);
        // Thread metadata names the row.
        assert!(events
            .iter()
            .any(|e| e["ph"].as_str() == Some("M") && e["name"].as_str() == Some("thread_name")));
    }

    #[test]
    fn trace_events_carry_request_ids() {
        use crate::recorder::MemoryRecorder;
        let recorder = MemoryRecorder::new();
        recorder.span_interval("service.request/engine.sweep", 0, 1000, 1, 17);
        recorder.span_interval("service.idle", 2000, 500, 1, 0);
        let text = recorder.snapshot().to_chrome_trace();
        let parsed: Value = serde_json::from_str(&text).expect("valid JSON");
        let events = parsed["traceEvents"].as_array().unwrap();
        let tagged = events
            .iter()
            .find(|e| e["args"]["path"].as_str() == Some("service.request/engine.sweep"))
            .unwrap();
        assert_eq!(tagged["args"]["request_id"].as_str(), Some("r-17"));
        let untagged = events
            .iter()
            .find(|e| e["args"]["path"].as_str() == Some("service.idle"))
            .unwrap();
        assert!(untagged["args"]["request_id"].is_null());
    }

    #[test]
    fn empty_snapshot_exports_valid_trace() {
        let recorder = crate::recorder::MemoryRecorder::new();
        let text = recorder.snapshot().to_chrome_trace();
        let parsed: Value = serde_json::from_str(&text).expect("valid JSON");
        assert!(!parsed["traceEvents"].as_array().unwrap().is_empty());
        assert_eq!(parsed["displayTimeUnit"].as_str(), Some("ms"));
    }
}
