//! Human-readable rendering of a [`Snapshot`](crate::Snapshot).

use std::fmt::Write;

use crate::snapshot::Snapshot;

fn fmt_nanos(nanos: u64) -> String {
    let secs = nanos as f64 / 1e9;
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else {
        format!("{:.1} µs", secs * 1e6)
    }
}

impl Snapshot {
    /// Render the snapshot as an indented text report: the span tree with
    /// counts and total times, then counters, gauges, and histogram
    /// quantiles. Spans nest by their slash-joined paths.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            // Sorted paths put parents immediately before their children,
            // so indentation by path depth renders the tree.
            let mut spans: Vec<_> = self.spans.iter().collect();
            spans.sort_by(|a, b| a.path.cmp(&b.path));
            for span in spans {
                let depth = span.path.matches('/').count();
                let name = span.path.rsplit('/').next().unwrap_or(&span.path);
                let _ = writeln!(
                    out,
                    "{:indent$}{name:<32} {:>6}x  {:>12}",
                    "",
                    span.count,
                    fmt_nanos(span.total_nanos),
                    indent = 2 + 2 * depth,
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for metric in &self.counters {
                let _ = writeln!(out, "  {:<40} {:>12}", metric.name, metric.value);
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for metric in &self.gauges {
                let _ = writeln!(out, "  {:<40} {:>12.6}", metric.name, metric.value);
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<40} n={:<8} mean={:.4} p50={:.4} p90={:.4} p99={:.4} max={:.4}",
                    h.name, h.count, h.mean, h.p50, h.p90, h.p99, h.max
                );
            }
        }
        if self.events_dropped > 0 {
            let _ = writeln!(
                out,
                "events: {} recorded, {} dropped at cap",
                self.events.len(),
                self.events_dropped
            );
        } else if !self.events.is_empty() {
            let _ = writeln!(out, "events: {} recorded", self.events.len());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::recorder::{FieldValue, MemoryRecorder};

    #[test]
    fn render_shows_all_sections() {
        let recorder = MemoryRecorder::new();
        recorder.span_record("core.solve", 2_000_000);
        recorder.span_record("core.solve/qbd.solve", 1_500_000);
        recorder.counter_add("qbd.rmatrix.iterations", 42);
        recorder.gauge_set("core.solver.final_delta", 1e-9);
        recorder.observe("sim.queue_length.class0", 3.0);
        recorder.event(
            "core.solver.fp_iteration",
            "core.solve",
            &[("iteration", FieldValue::U64(1))],
        );
        let text = recorder.snapshot().render();
        assert!(text.contains("spans:"));
        assert!(text.contains("core.solve"));
        assert!(text.contains("qbd.solve"));
        assert!(text.contains("qbd.rmatrix.iterations"));
        assert!(text.contains("core.solver.final_delta"));
        assert!(text.contains("sim.queue_length.class0"));
        assert!(text.contains("events: 1 recorded"));
        // Child spans are indented deeper than parents.
        let parent_indent = text
            .lines()
            .find(|l| l.contains("core.solve") && !l.contains("qbd"))
            .map(|l| l.len() - l.trim_start().len())
            .unwrap();
        let child_indent = text
            .lines()
            .find(|l| l.contains("qbd.solve"))
            .map(|l| l.len() - l.trim_start().len())
            .unwrap();
        assert!(child_indent > parent_indent);
    }
}
