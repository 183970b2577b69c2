//! Live telemetry for the running server: per-op latency histograms and
//! the `stats` report built from them.
//!
//! The in-process [`gsched_obs`] probes only populate `--diag` snapshots
//! when a recorder is installed; a production server runs without one. So
//! the server keeps its own always-on [`Telemetry`]: cheap atomics plus
//! mutex-guarded [`LogHistogram`]s, read out by the `stats` verb.
//! Quantile statistics of empty histograms are NaN internally and `null`
//! on the wire — never a bare `NaN` token.

use crate::protocol::Op;
use crate::render::{json_f64, json_str};
use gsched_obs::LogHistogram;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Request classes tracked per-op: the four protocol verbs plus a bucket
/// for frames that never parsed far enough to have one.
pub(crate) const OP_LABELS: [&str; 5] = ["solve", "sweep", "stats", "shutdown", "invalid"];

/// Index into [`OP_LABELS`] for a parsed op.
pub(crate) fn op_index(op: Op) -> usize {
    match op {
        Op::Solve => 0,
        Op::Sweep => 1,
        Op::Stats => 2,
        Op::Shutdown => 3,
    }
}

/// Index into [`OP_LABELS`] for unparseable frames.
pub(crate) const INVALID_OP: usize = 4;

struct OpTelemetry {
    requests: AtomicU64,
    errors: AtomicU64,
    latency_ms: Mutex<LogHistogram>,
}

impl OpTelemetry {
    fn new() -> Self {
        OpTelemetry {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency_ms: Mutex::new(LogHistogram::new()),
        }
    }
}

/// Always-on server-side telemetry; one per [`crate::Server`].
pub(crate) struct Telemetry {
    started: Instant,
    ops: Vec<OpTelemetry>,
    queue_wait_ms: Mutex<LogHistogram>,
    solve_ms: Mutex<LogHistogram>,
    workers_busy: AtomicU64,
    connections: AtomicU64,
}

/// Counters owned by the server (not by [`Telemetry`]) that the stats
/// report also needs.
pub(crate) struct ExternalStats {
    pub workers: usize,
    pub queue_depth: u64,
    pub requests: u64,
    pub errors: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_entries: usize,
    pub cache_capacity: usize,
    /// Admission-control queue bound (0 = unbounded).
    pub queue_limit: usize,
    /// Requests shed because the queue was full.
    pub shed: u64,
    /// Requests coalesced onto an in-flight identical solve.
    pub coalesced: u64,
}

impl ExternalStats {
    fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            f64::NAN
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl Telemetry {
    pub(crate) fn new() -> Self {
        Telemetry {
            started: Instant::now(),
            ops: (0..OP_LABELS.len()).map(|_| OpTelemetry::new()).collect(),
            queue_wait_ms: Mutex::new(LogHistogram::new()),
            solve_ms: Mutex::new(LogHistogram::new()),
            workers_busy: AtomicU64::new(0),
            connections: AtomicU64::new(0),
        }
    }

    /// Milliseconds since the server started.
    pub(crate) fn uptime_ms(&self) -> u128 {
        self.started.elapsed().as_millis()
    }

    pub(crate) fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request of op class `op_idx` with its end-to-end latency;
    /// `errored` marks requests answered with an error frame.
    pub(crate) fn record_request(&self, op_idx: usize, latency_ms: f64, errored: bool) {
        let op = &self.ops[op_idx];
        op.requests.fetch_add(1, Ordering::Relaxed);
        if errored {
            op.errors.fetch_add(1, Ordering::Relaxed);
        }
        op.latency_ms.lock().record(latency_ms);
    }

    /// Record the time one job waited in the queue before a worker took it.
    pub(crate) fn record_queue_wait(&self, ms: f64) {
        self.queue_wait_ms.lock().record(ms);
    }

    /// Record the time a worker spent solving and rendering one job.
    pub(crate) fn record_solve(&self, ms: f64) {
        self.solve_ms.lock().record(ms);
    }

    /// RAII marker for a worker actively processing a job (the occupancy
    /// gauge counts live guards).
    pub(crate) fn worker_busy(&self) -> WorkerBusyGuard<'_> {
        self.workers_busy.fetch_add(1, Ordering::Relaxed);
        WorkerBusyGuard { telemetry: self }
    }

    fn workers_busy_now(&self) -> u64 {
        self.workers_busy.load(Ordering::Relaxed)
    }

    // ---- stats JSON ----

    /// The expanded `stats` result document. The flat top-level counters
    /// are a stable contract (CI and older clients grep them); everything
    /// added since lives alongside them.
    pub(crate) fn stats_json(&self, ext: &ExternalStats) -> String {
        let mut ops = String::new();
        for (i, label) in OP_LABELS.iter().enumerate() {
            let op = &self.ops[i];
            if i > 0 {
                ops.push(',');
            }
            ops.push_str(&format!(
                r#"{}:{{"requests":{},"errors":{},"latency_ms":{}}}"#,
                json_str(label),
                op.requests.load(Ordering::Relaxed),
                op.errors.load(Ordering::Relaxed),
                histogram_json(&op.latency_ms.lock()),
            ));
        }
        format!(
            concat!(
                r#"{{"workers":{},"queue_depth":{},"requests":{},"errors":{},"#,
                r#""cache_hits":{},"cache_misses":{},"cache_entries":{},"cache_capacity":{},"#,
                r#""queue_limit":{},"shed":{},"coalesced":{},"#,
                r#""uptime_ms":{},"#,
                r#""workers_busy":{},"connections":{},"cache_hit_ratio":{},"#,
                r#""queue_wait_ms":{},"solve_ms":{},"ops":{{{}}}}}"#
            ),
            ext.workers,
            ext.queue_depth,
            ext.requests,
            ext.errors,
            ext.cache_hits,
            ext.cache_misses,
            ext.cache_entries,
            ext.cache_capacity,
            ext.queue_limit,
            ext.shed,
            ext.coalesced,
            self.uptime_ms(),
            self.workers_busy_now(),
            self.connections.load(Ordering::Relaxed),
            json_f64(ext.cache_hit_ratio()),
            histogram_json(&self.queue_wait_ms.lock()),
            histogram_json(&self.solve_ms.lock()),
            ops,
        )
    }
}

/// Live marker that a worker is busy; see [`Telemetry::worker_busy`].
pub(crate) struct WorkerBusyGuard<'a> {
    telemetry: &'a Telemetry,
}

impl Drop for WorkerBusyGuard<'_> {
    fn drop(&mut self) {
        self.telemetry.workers_busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Histogram summary as a JSON object; empty-histogram statistics are
/// `null`, never `NaN`.
fn histogram_json(h: &LogHistogram) -> String {
    format!(
        r#"{{"count":{},"mean":{},"min":{},"max":{},"p50":{},"p90":{},"p95":{},"p99":{}}}"#,
        h.count(),
        json_f64(h.mean()),
        json_f64(h.min()),
        json_f64(h.max()),
        json_f64(h.quantile(0.5)),
        json_f64(h.quantile(0.9)),
        json_f64(h.quantile(0.95)),
        json_f64(h.quantile(0.99)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext() -> ExternalStats {
        ExternalStats {
            workers: 2,
            queue_depth: 0,
            requests: 0,
            errors: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_entries: 0,
            cache_capacity: 256,
            queue_limit: 0,
            shed: 0,
            coalesced: 0,
        }
    }

    #[test]
    fn fresh_stats_report_has_null_quantiles_not_nan() {
        let t = Telemetry::new();
        let text = t.stats_json(&ext());
        assert!(!text.contains("NaN"), "{text}");
        assert!(text.contains(r#""cache_hit_ratio":null"#), "{text}");
        assert!(text.contains(r#""p95":null"#), "{text}");
        // Still valid JSON.
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v["workers"].as_f64(), Some(2.0));
        assert!(v["ops"]["solve"]["latency_ms"]["p50"].is_null());
        assert_eq!(v["shed"].as_u64(), Some(0));
        assert_eq!(v["coalesced"].as_u64(), Some(0));
        assert_eq!(v["queue_limit"].as_u64(), Some(0));
        assert!(v.get("backend").is_none(), "{text}");
        assert!(v.get("r_solver").is_none(), "{text}");
    }

    #[test]
    fn recorded_latencies_surface_in_stats() {
        let t = Telemetry::new();
        for i in 0..100 {
            t.record_request(op_index(Op::Solve), 10.0 + i as f64, false);
        }
        t.record_request(op_index(Op::Sweep), 500.0, true);
        t.record_queue_wait(2.0);
        t.record_solve(40.0);
        let text = t.stats_json(&ext());
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v["ops"]["solve"]["requests"].as_f64(), Some(100.0));
        assert_eq!(v["ops"]["sweep"]["errors"].as_f64(), Some(1.0));
        let p50 = v["ops"]["solve"]["latency_ms"]["p50"].as_f64().unwrap();
        let p99 = v["ops"]["solve"]["latency_ms"]["p99"].as_f64().unwrap();
        assert!(p50 > 0.0 && p99 >= p50, "p50={p50} p99={p99}");
        assert_eq!(v["queue_wait_ms"]["count"].as_f64(), Some(1.0));
        assert_eq!(v["solve_ms"]["count"].as_f64(), Some(1.0));
    }

    #[test]
    fn worker_busy_guard_tracks_occupancy() {
        let t = Telemetry::new();
        assert_eq!(t.workers_busy_now(), 0);
        {
            let _a = t.worker_busy();
            let _b = t.worker_busy();
            assert_eq!(t.workers_busy_now(), 2);
        }
        assert_eq!(t.workers_busy_now(), 0);
    }
}
