//! Exportable view of everything a recorder accumulated.

use serde::{Serialize, Value};

/// A named `u64` counter value.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricU64 {
    /// Metric name (`crate.component.operation`).
    pub name: String,
    /// Accumulated total.
    pub value: u64,
}

/// A named `f64` gauge value.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricF64 {
    /// Metric name.
    pub name: String,
    /// Last value set.
    pub value: f64,
}

/// Summary of one histogram: count, mean, extremes, and quantiles.
///
/// Serialization is hand-written so the NaN statistics of an *empty*
/// histogram (mean and quantiles of zero samples) appear as `null` on the
/// wire — the same convention `Series` uses for unstable sweep points.
/// JSON output never contains a bare `NaN` token.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (within ~4.4% relative resolution).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Non-finite statistics serialize as `null`, never `NaN`.
fn stat_to_value(v: f64) -> Value {
    if v.is_finite() {
        Value::Number(v)
    } else {
        Value::Null
    }
}

impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".to_string(), self.name.to_value()),
            ("count".to_string(), self.count.to_value()),
            ("mean".to_string(), stat_to_value(self.mean)),
            ("min".to_string(), stat_to_value(self.min)),
            ("max".to_string(), stat_to_value(self.max)),
            ("p50".to_string(), stat_to_value(self.p50)),
            ("p90".to_string(), stat_to_value(self.p90)),
            ("p99".to_string(), stat_to_value(self.p99)),
        ])
    }
}

/// Aggregate timing for one span path.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanSnapshot {
    /// Slash-joined nesting path, e.g. `core.solve/qbd.solve`.
    pub path: String,
    /// Number of times the span completed.
    pub count: u64,
    /// Total wall time across completions, in nanoseconds.
    pub total_nanos: u64,
}

/// One completed span occurrence with its timing interval — the raw
/// material for trace export (see [`Snapshot::to_chrome_trace`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanIntervalSnapshot {
    /// Slash-joined nesting path, e.g. `core.solve/qbd.solve`.
    pub path: String,
    /// Start offset from the process timing epoch, in nanoseconds.
    pub start_nanos: u64,
    /// Wall-clock duration, in nanoseconds.
    pub dur_nanos: u64,
    /// Dense per-thread label (1-based, first-use order).
    pub tid: u64,
    /// Request context active when the span opened; `0` means none.
    pub ctx: u64,
}

/// One structured event with its fields.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EventSnapshot {
    /// Event name.
    pub name: String,
    /// Span path that was open when the event fired.
    pub span: String,
    /// Field name/value pairs, values already in JSON form.
    pub fields: Vec<(String, serde_json::Value)>,
}

/// Complete diagnostics bundle; serializes to the `--diag` JSON schema.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<MetricU64>,
    /// All gauges, sorted by name.
    pub gauges: Vec<MetricF64>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// All span paths, sorted by path.
    pub spans: Vec<SpanSnapshot>,
    /// Raw span intervals in completion order.
    pub span_intervals: Vec<SpanIntervalSnapshot>,
    /// Span intervals discarded once the in-memory cap was reached.
    pub span_intervals_dropped: u64,
    /// Structured events in emission order.
    pub events: Vec<EventSnapshot>,
    /// Events discarded once the in-memory cap was reached.
    pub events_dropped: u64,
}

impl Snapshot {
    /// Value of counter `name`, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Value of gauge `name`, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Summary of histogram `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Aggregate for span `path`, if recorded.
    pub fn span(&self, path: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Events with the given name, in emission order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a EventSnapshot> {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Serialize as pretty-printed JSON (the `--diag` file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_histogram_snapshot() -> HistogramSnapshot {
        HistogramSnapshot {
            name: "empty.hist".to_string(),
            count: 0,
            mean: f64::NAN,
            min: 0.0,
            max: 0.0,
            p50: f64::NAN,
            p90: f64::NAN,
            p99: f64::NAN,
        }
    }

    #[test]
    fn empty_histogram_serializes_nan_as_null() {
        let text = serde_json::to_string(&empty_histogram_snapshot()).unwrap();
        assert!(!text.contains("NaN"), "no NaN token in wire output: {text}");
        assert!(text.contains("\"p99\":null"), "null quantiles: {text}");
        assert!(
            text.contains("\"min\":0"),
            "finite stats stay numbers: {text}"
        );
    }
}
