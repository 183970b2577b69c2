//! Live telemetry for the running server: per-op latency histograms, the
//! expanded `stats` report, Prometheus text exposition, and the NDJSON
//! access-log record.
//!
//! The in-process [`gsched_obs`] probes only populate `--diag` snapshots
//! when a recorder is installed; a production server runs without one. So
//! the server keeps its own always-on [`Telemetry`]: cheap atomics plus
//! mutex-guarded [`LogHistogram`]s, read out by the `stats` verb and the
//! `--metrics-addr` scraper. Quantile statistics of empty histograms are
//! NaN internally and `null` (JSON) or omitted (Prometheus, which has no
//! null) on the wire — never a bare `NaN` token.

#[cfg(test)]
use crate::protocol::Op;
use crate::render::{json_f64, json_str};
use gsched_obs::{LogHistogram, WindowedHistogram};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Seconds covered by the "recent" latency window in `stats` reports.
const RECENT_WINDOW_SECS: f64 = 60.0;
/// Ring slots backing the recent window (rotation granularity).
const RECENT_WINDOWS: usize = 6;

/// Request classes tracked per-op: the four protocol verbs plus a bucket
/// for frames that never parsed far enough to have one.
pub(crate) const OP_LABELS: [&str; 5] = ["solve", "sweep", "stats", "shutdown", "invalid"];

/// Index into [`OP_LABELS`] for a parsed op.
#[cfg(test)]
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
    recent_latency_ms: Mutex<WindowedHistogram>,
}

impl OpTelemetry {
    fn new() -> Self {
        OpTelemetry {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency_ms: Mutex::new(LogHistogram::new()),
            recent_latency_ms: Mutex::new(WindowedHistogram::new(
                RECENT_WINDOW_SECS / RECENT_WINDOWS as f64,
                RECENT_WINDOWS,
            )),
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
/// report and the Prometheus exposition also need.
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
    /// Sweep jobs merged into engine batches behind a leader job.
    pub batch_merged: u64,
    /// Cache entries replayed from the persistent segment at startup.
    pub cache_replayed: u64,
    /// `R`-matrix algorithm the workers solve with (stable name).
    pub r_solver: &'static str,
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

    fn now_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
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
        op.recent_latency_ms
            .lock()
            .record(self.now_secs(), latency_ms);
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
            let recent = op.recent_latency_ms.lock().merged(self.now_secs());
            ops.push_str(&format!(
                r#"{}:{{"requests":{},"errors":{},"latency_ms":{},"recent_latency_ms":{}}}"#,
                json_str(label),
                op.requests.load(Ordering::Relaxed),
                op.errors.load(Ordering::Relaxed),
                histogram_json(&op.latency_ms.lock()),
                histogram_json(&recent),
            ));
        }
        format!(
            concat!(
                r#"{{"workers":{},"queue_depth":{},"requests":{},"errors":{},"#,
                r#""cache_hits":{},"cache_misses":{},"cache_entries":{},"cache_capacity":{},"#,
                r#""queue_limit":{},"shed":{},"coalesced":{},"batch_merged":{},"#,
                r#""cache_replayed":{},"r_solver":{},"uptime_ms":{},"#,
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
            ext.batch_merged,
            ext.cache_replayed,
            json_str(ext.r_solver),
            self.uptime_ms(),
            self.workers_busy_now(),
            self.connections.load(Ordering::Relaxed),
            json_f64(ext.cache_hit_ratio()),
            histogram_json(&self.queue_wait_ms.lock()),
            histogram_json(&self.solve_ms.lock()),
            ops,
        )
    }

    // ---- Prometheus text exposition (format 0.0.4) ----

    /// Render every metric family as Prometheus text exposition. Summary
    /// quantile samples are omitted while a histogram is empty (the format
    /// has no `null`); `_count`/`_sum` are always present.
    pub(crate) fn prometheus(&self, ext: &ExternalStats) -> String {
        let mut out = String::with_capacity(4096);
        gauge(
            &mut out,
            "gsched_uptime_seconds",
            "Seconds since the server started.",
            self.now_secs(),
        );
        gauge(
            &mut out,
            "gsched_workers",
            "Solver worker threads in the pool.",
            ext.workers as f64,
        );
        gauge(
            &mut out,
            "gsched_workers_busy",
            "Workers currently processing a job.",
            self.workers_busy_now() as f64,
        );
        gauge(
            &mut out,
            "gsched_queue_depth",
            "Jobs queued for the worker pool.",
            ext.queue_depth as f64,
        );
        gauge(
            &mut out,
            "gsched_queue_limit",
            "Admission-control queue bound (0 = unbounded).",
            ext.queue_limit as f64,
        );
        counter(
            &mut out,
            "gsched_shed_total",
            "Requests shed because the queue was full.",
            ext.shed,
        );
        counter(
            &mut out,
            "gsched_coalesced_total",
            "Requests coalesced onto an in-flight identical solve.",
            ext.coalesced,
        );
        counter(
            &mut out,
            "gsched_batch_merged_total",
            "Sweep jobs merged into engine batches behind a leader job.",
            ext.batch_merged,
        );
        counter(
            &mut out,
            "gsched_connections_total",
            "Connections accepted.",
            self.connections.load(Ordering::Relaxed),
        );
        header(
            &mut out,
            "gsched_requests_total",
            "Requests received, by op.",
            "counter",
        );
        for (i, label) in OP_LABELS.iter().enumerate() {
            sample(
                &mut out,
                "gsched_requests_total",
                &format!("op=\"{label}\""),
                self.ops[i].requests.load(Ordering::Relaxed) as f64,
            );
        }
        header(
            &mut out,
            "gsched_errors_total",
            "Error frames sent, by op.",
            "counter",
        );
        for (i, label) in OP_LABELS.iter().enumerate() {
            sample(
                &mut out,
                "gsched_errors_total",
                &format!("op=\"{label}\""),
                self.ops[i].errors.load(Ordering::Relaxed) as f64,
            );
        }
        counter(
            &mut out,
            "gsched_cache_hits_total",
            "Result-cache hits.",
            ext.cache_hits,
        );
        counter(
            &mut out,
            "gsched_cache_misses_total",
            "Result-cache misses.",
            ext.cache_misses,
        );
        gauge(
            &mut out,
            "gsched_cache_entries",
            "Result-cache entries resident.",
            ext.cache_entries as f64,
        );
        gauge(
            &mut out,
            "gsched_cache_capacity",
            "Result-cache capacity.",
            ext.cache_capacity as f64,
        );
        gauge(
            &mut out,
            "gsched_cache_replayed",
            "Cache entries replayed from the persistent segment at startup.",
            ext.cache_replayed as f64,
        );
        let ratio = ext.cache_hit_ratio();
        if ratio.is_finite() {
            gauge(
                &mut out,
                "gsched_cache_hit_ratio",
                "Cache hits over all cache lookups.",
                ratio,
            );
        } else {
            header(
                &mut out,
                "gsched_cache_hit_ratio",
                "Cache hits over all cache lookups.",
                "gauge",
            );
        }
        header(
            &mut out,
            "gsched_request_latency_ms",
            "End-to-end request latency in milliseconds, by op.",
            "summary",
        );
        for (i, label) in OP_LABELS.iter().enumerate() {
            summary_samples(
                &mut out,
                "gsched_request_latency_ms",
                Some(label),
                &self.ops[i].latency_ms.lock(),
            );
        }
        header(
            &mut out,
            "gsched_queue_wait_ms",
            "Queue wait before a worker picked the job up, in milliseconds.",
            "summary",
        );
        summary_samples(
            &mut out,
            "gsched_queue_wait_ms",
            None,
            &self.queue_wait_ms.lock(),
        );
        header(
            &mut out,
            "gsched_solve_ms",
            "Worker solve+render time in milliseconds.",
            "summary",
        );
        summary_samples(&mut out, "gsched_solve_ms", None, &self.solve_ms.lock());
        out
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

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

fn sample(out: &mut String, name: &str, labels: &str, value: f64) {
    if labels.is_empty() {
        out.push_str(&format!("{name} {}\n", prom_f64(value)));
    } else {
        out.push_str(&format!("{name}{{{labels}}} {}\n", prom_f64(value)));
    }
}

fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
    header(out, name, help, "gauge");
    sample(out, name, "", value);
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    header(out, name, help, "counter");
    sample(out, name, "", value as f64);
}

/// Quantile/sum/count samples for one summary family. Quantile lines are
/// emitted only when the histogram has samples; `_sum`/`_count` always.
fn summary_samples(out: &mut String, name: &str, op: Option<&str>, h: &LogHistogram) {
    let op_label = op.map(|o| format!("op=\"{o}\""));
    if h.count() > 0 {
        for (q, qs) in [(0.5, "0.5"), (0.9, "0.9"), (0.95, "0.95"), (0.99, "0.99")] {
            let labels = match &op_label {
                Some(ol) => format!("{ol},quantile=\"{qs}\""),
                None => format!("quantile=\"{qs}\""),
            };
            sample(out, name, &labels, h.quantile(q));
        }
    }
    let base = op_label.as_deref().unwrap_or("");
    sample(out, &format!("{name}_sum"), base, h.sum());
    sample(out, &format!("{name}_count"), base, h.count() as f64);
}

/// Prometheus sample values: plain decimal; non-finite values are the
/// format's `NaN`-free spellings only for infinities, and NaN must never
/// reach here (callers skip empty-histogram quantiles).
fn prom_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        debug_assert!(v.is_finite(), "NaN must not reach the exposition");
        format!("{v}")
    }
}

/// One access-log record, rendered to a single NDJSON line at the end of
/// the request.
pub(crate) struct AccessRecord {
    /// Trace context id; `r-<ctx>` links this line to the span tree.
    pub ctx: u64,
    /// Client-chosen correlation id, if any.
    pub client_id: Option<String>,
    /// Op label (one of [`OP_LABELS`]).
    pub op: &'static str,
    /// Registry name of the scenario, if it had one.
    pub scenario: Option<String>,
    /// Canonical content hash of the scenario, if resolved.
    pub scenario_hash: Option<u64>,
    /// Whether the reply came from the result cache.
    pub cached: bool,
    /// Queue wait in milliseconds (absent for cache hits and control ops).
    pub queue_wait_ms: Option<f64>,
    /// Worker solve time in milliseconds (ditto).
    pub solve_ms: Option<f64>,
    /// End-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// `"ok"`, `"error:<kind>"`, or `"dropped"` (client vanished).
    pub outcome: String,
}

impl AccessRecord {
    pub(crate) fn new(ctx: u64) -> Self {
        AccessRecord {
            ctx,
            client_id: None,
            op: OP_LABELS[INVALID_OP],
            scenario: None,
            scenario_hash: None,
            cached: false,
            queue_wait_ms: None,
            solve_ms: None,
            latency_ms: 0.0,
            outcome: "ok".to_string(),
        }
    }

    /// Index of `op` in [`OP_LABELS`].
    pub(crate) fn op_idx(&self) -> usize {
        OP_LABELS
            .iter()
            .position(|l| *l == self.op)
            .unwrap_or(INVALID_OP)
    }

    /// Render as one NDJSON line (no trailing newline).
    pub(crate) fn to_json(&self) -> String {
        let opt_str = |v: &Option<String>| match v {
            Some(s) => json_str(s),
            None => "null".to_string(),
        };
        let opt_ms = |v: &Option<f64>| match v {
            Some(x) => json_f64(*x),
            None => "null".to_string(),
        };
        format!(
            concat!(
                r#"{{"request_id":{},"id":{},"op":{},"scenario":{},"scenario_hash":{},"#,
                r#""cached":{},"queue_wait_ms":{},"solve_ms":{},"latency_ms":{},"outcome":{}}}"#
            ),
            json_str(&gsched_obs::context_label(self.ctx)),
            opt_str(&self.client_id),
            json_str(self.op),
            opt_str(&self.scenario),
            match self.scenario_hash {
                Some(h) => json_str(&format!("{h:016x}")),
                None => "null".to_string(),
            },
            self.cached,
            opt_ms(&self.queue_wait_ms),
            opt_ms(&self.solve_ms),
            json_f64(self.latency_ms),
            json_str(&self.outcome),
        )
    }
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
            batch_merged: 0,
            cache_replayed: 0,
            r_solver: "logarithmic_reduction",
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
        assert_eq!(v["batch_merged"].as_u64(), Some(0));
        assert_eq!(v["queue_limit"].as_u64(), Some(0));
        assert_eq!(v["cache_replayed"].as_u64(), Some(0));
        assert_eq!(v["r_solver"].as_str(), Some("logarithmic_reduction"));
        assert!(v.get("backend").is_none(), "{text}");
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
        // Recent window covers samples just recorded.
        assert!(v["ops"]["solve"]["recent_latency_ms"]["p50"]
            .as_f64()
            .is_some());
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let t = Telemetry::new();
        t.record_request(op_index(Op::Solve), 12.5, false);
        t.record_connection();
        let mut e = ext();
        e.cache_hits = 3;
        e.cache_misses = 1;
        let text = t.prometheus(&e);
        assert!(!text.contains("NaN"), "{text}");
        for family in [
            "gsched_uptime_seconds",
            "gsched_workers",
            "gsched_workers_busy",
            "gsched_queue_depth",
            "gsched_connections_total",
            "gsched_requests_total",
            "gsched_errors_total",
            "gsched_cache_hits_total",
            "gsched_cache_misses_total",
            "gsched_cache_hit_ratio",
            "gsched_cache_replayed",
            "gsched_queue_limit",
            "gsched_shed_total",
            "gsched_coalesced_total",
            "gsched_batch_merged_total",
            "gsched_request_latency_ms",
            "gsched_queue_wait_ms",
            "gsched_solve_ms",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "missing family {family}:\n{text}"
            );
        }
        assert!(
            text.contains(r#"gsched_requests_total{op="solve"} 1"#),
            "{text}"
        );
        assert!(
            text.contains(r#"gsched_request_latency_ms{op="solve",quantile="0.5"}"#),
            "{text}"
        );
        assert!(text.contains("gsched_cache_hit_ratio 0.75"), "{text}");
        // Empty summaries keep _count/_sum but emit no quantile samples.
        assert!(text.contains(r#"gsched_request_latency_ms_count{op="sweep"} 0"#));
        assert!(!text.contains(r#"gsched_request_latency_ms{op="sweep",quantile"#));
        // Every non-comment line is `name{labels} value` with a parseable value.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "-Inf",
                "bad sample value in {line:?}"
            );
        }
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

    #[test]
    fn access_record_renders_one_json_line() {
        let mut rec = AccessRecord::new(7);
        rec.client_id = Some("c1".to_string());
        rec.op = "solve";
        rec.scenario = Some("fig2".to_string());
        rec.scenario_hash = Some(0xDEAD_BEEF);
        rec.cached = true;
        rec.latency_ms = 0.42;
        let line = rec.to_json();
        assert!(!line.contains('\n'));
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["request_id"].as_str(), Some("r-7"));
        assert_eq!(v["op"].as_str(), Some("solve"));
        assert_eq!(v["scenario_hash"].as_str(), Some("00000000deadbeef"));
        assert_eq!(v["cached"].as_bool(), Some(true));
        assert!(v["queue_wait_ms"].is_null());
        assert_eq!(v["outcome"].as_str(), Some("ok"));

        let unparsed = AccessRecord::new(8);
        let v: serde_json::Value = serde_json::from_str(&unparsed.to_json()).unwrap();
        assert_eq!(v["op"].as_str(), Some("invalid"));
        assert_eq!(v["id"].as_str(), None);
    }
}
