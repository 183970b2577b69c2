//! The global recorder, probe functions, and the in-memory implementation.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use crate::histogram::LogHistogram;
use crate::snapshot::{
    EventSnapshot, HistogramSnapshot, MetricF64, MetricU64, Snapshot, SpanIntervalSnapshot,
    SpanSnapshot,
};

/// A field value attached to an [`event`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, iteration numbers).
    U64(u64),
    /// Floating-point scalar (residuals, deltas, means).
    F64(f64),
    /// Short string (method names, modes).
    Str(String),
    /// Vector of floats (per-class populations, effective quanta).
    F64s(Vec<f64>),
}

impl FieldValue {
    fn to_json(&self) -> serde_json::Value {
        match self {
            FieldValue::U64(x) => serde_json::Value::Number(*x as f64),
            FieldValue::F64(x) => serde_json::Value::Number(*x),
            FieldValue::Str(s) => serde_json::Value::String(s.clone()),
            FieldValue::F64s(v) => {
                serde_json::Value::Array(v.iter().map(|x| serde_json::Value::Number(*x)).collect())
            }
        }
    }
}

/// Process-wide timing epoch all span intervals are measured from. Anchored
/// lazily at the first [`install_memory`]/[`span`] call so trace timestamps
/// start near zero.
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonically increasing thread labels for trace rows; `ThreadId` has no
/// stable public integer form.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// A small dense label for the current thread (1-based, assigned in first-
/// use order). Stable for the thread's lifetime.
pub fn thread_label() -> u64 {
    TID.with(|t| *t)
}

/// Fast-path switch: probes return immediately while this is false, so an
/// uninstrumented run costs one relaxed atomic load per probe.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed recorder. `RwLock` so probes share read access.
static RECORDER: RwLock<Option<Arc<MemoryRecorder>>> = RwLock::new(None);

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };

    /// Request context active on this thread; `0` means "none".
    static CONTEXT: Cell<u64> = const { Cell::new(0) };
}

/// The request context currently active on this thread (`0` = none).
///
/// Capture this before handing work to another thread, then restore it
/// there with [`context_enter`], so spans recorded by pool workers stay
/// attributed to the request that spawned them.
pub fn current_context() -> u64 {
    CONTEXT.with(|c| c.get())
}

/// Human-readable label for a request context, as it appears in access
/// logs and Chrome-trace `args.request_id` (`r-17` for context `17`).
pub fn context_label(ctx: u64) -> String {
    format!("r-{ctx}")
}

/// Make `ctx` the active request context on this thread until the returned
/// guard drops, which restores the previous context. Entering context `0`
/// is a no-op guard (the ambient context is left untouched), so callers
/// can propagate [`current_context`] unconditionally.
pub fn context_enter(ctx: u64) -> ContextGuard {
    if ctx == 0 {
        return ContextGuard { prev: None };
    }
    let prev = CONTEXT.with(|c| c.replace(ctx));
    ContextGuard { prev: Some(prev) }
}

/// RAII guard restoring the previous request context; see [`context_enter`].
#[must_use = "the context stays active only until the guard drops"]
pub struct ContextGuard {
    /// Context to restore on drop; `None` for the inert guard.
    prev: Option<u64>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            CONTEXT.with(|c| c.set(prev));
        }
    }
}

/// Whether a recorder is installed (probes are live).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install a fresh [`MemoryRecorder`] as the global sink, replacing any
/// previous one, and return a handle to it.
pub fn install_memory() -> Arc<MemoryRecorder> {
    epoch(); // anchor the interval clock no later than installation
    let recorder = Arc::new(MemoryRecorder::new());
    *RECORDER.write() = Some(recorder.clone());
    ENABLED.store(true, Ordering::Release);
    recorder
}

/// Serializes tests that install/uninstall the process-global recorder, so
/// one test's `uninstall` cannot silence another test's probes mid-run.
#[cfg(test)]
pub(crate) static TEST_RECORDER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Remove the installed recorder; probes return to no-ops.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Release);
    *RECORDER.write() = None;
}

fn with_recorder(f: impl FnOnce(&MemoryRecorder)) {
    if !enabled() {
        return;
    }
    let guard = RECORDER.read();
    if let Some(recorder) = guard.as_ref() {
        f(recorder);
    }
}

/// Add `delta` to counter `name` (no-op when nothing is installed).
pub fn counter_add(name: &str, delta: u64) {
    with_recorder(|r| r.counter_add(name, delta));
}

/// Set gauge `name` to `value` (no-op when nothing is installed).
pub fn gauge_set(name: &str, value: f64) {
    with_recorder(|r| r.gauge_set(name, value));
}

/// Record `value` into histogram `name` (no-op when nothing is installed).
pub fn observe(name: &str, value: f64) {
    with_recorder(|r| r.observe(name, value));
}

/// Emit a structured event tagged with the current span path.
pub fn event(name: &str, fields: &[(&str, FieldValue)]) {
    if !enabled() {
        return;
    }
    let path = SPAN_STACK.with(|stack| stack.borrow().join("/"));
    with_recorder(|r| r.event(name, &path, fields));
}

/// Open a timed span. The returned guard closes the span on drop and
/// records its wall time under the slash-joined path of all spans open on
/// this thread. When no recorder is installed the guard is inert.
pub fn span(name: impl Into<String>) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            start: None,
            ctx: 0,
        };
    }
    SPAN_STACK.with(|stack| stack.borrow_mut().push(name.into()));
    let now = Instant::now();
    SpanGuard {
        start: Some((now, now.duration_since(epoch()).as_nanos() as u64)),
        ctx: current_context(),
    }
}

/// RAII guard for an open span; see [`span`].
#[must_use = "a span guard times the region until it is dropped"]
pub struct SpanGuard {
    /// `(start instant, start offset from the process epoch in ns)`.
    start: Option<(Instant, u64)>,
    /// Request context captured when the span opened (`0` = none).
    ctx: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((start, start_offset)) = self.start else {
            return;
        };
        let nanos = start.elapsed().as_nanos() as u64;
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        let tid = thread_label();
        with_recorder(|r| {
            r.span_record(&path, nanos);
            r.span_interval(&path, start_offset, nanos, tid, self.ctx);
        });
    }
}

#[derive(Debug, Clone, Default)]
struct SpanStat {
    count: u64,
    total_nanos: u64,
}

/// Everything a [`MemoryRecorder`] has accumulated.
#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
    spans: BTreeMap<String, SpanStat>,
    span_intervals: Vec<SpanIntervalSnapshot>,
    span_intervals_dropped: u64,
    events: Vec<EventSnapshot>,
    events_dropped: u64,
}

/// Cap on stored events so long runs cannot grow memory without bound;
/// drops past the cap are counted in `events_dropped`.
const MAX_EVENTS: usize = 100_000;

/// Cap on stored span intervals (the raw material for trace export). At 32
/// bytes + path each this bounds trace memory to a few tens of MB; drops
/// past the cap are counted in `span_intervals_dropped`.
const MAX_SPAN_INTERVALS: usize = 200_000;

/// The recorder: aggregates everything in memory behind a mutex, for
/// export via [`MemoryRecorder::snapshot`]. Thread-safe; probes may fire
/// concurrently from solver worker threads.
pub struct MemoryRecorder {
    registry: Mutex<Registry>,
}

impl MemoryRecorder {
    /// An empty recorder; [`install_memory`] makes the global one.
    pub(crate) fn new() -> Self {
        MemoryRecorder {
            registry: Mutex::new(Registry::default()),
        }
    }

    /// Snapshot the accumulated data for export.
    pub fn snapshot(&self) -> Snapshot {
        let registry = self.registry.lock();
        Snapshot {
            counters: registry
                .counters
                .iter()
                .map(|(name, &value)| MetricU64 {
                    name: name.clone(),
                    value,
                })
                .collect(),
            gauges: registry
                .gauges
                .iter()
                .map(|(name, &value)| MetricF64 {
                    name: name.clone(),
                    value,
                })
                .collect(),
            histograms: registry
                .histograms
                .iter()
                .map(|(name, h)| HistogramSnapshot {
                    name: name.clone(),
                    count: h.count(),
                    mean: h.mean(),
                    min: h.min(),
                    max: h.max(),
                    p50: h.quantile(0.5),
                    p90: h.quantile(0.9),
                    p99: h.quantile(0.99),
                })
                .collect(),
            spans: registry
                .spans
                .iter()
                .map(|(path, stat)| SpanSnapshot {
                    path: path.clone(),
                    count: stat.count,
                    total_nanos: stat.total_nanos,
                })
                .collect(),
            span_intervals: registry.span_intervals.clone(),
            span_intervals_dropped: registry.span_intervals_dropped,
            events: registry.events.clone(),
            events_dropped: registry.events_dropped,
        }
    }

    /// Add `delta` to the monotone counter `name`.
    pub(crate) fn counter_add(&self, name: &str, delta: u64) {
        let mut registry = self.registry.lock();
        match registry.counters.get_mut(name) {
            Some(total) => *total += delta,
            None => {
                registry.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Set gauge `name` to `value` (last write wins).
    pub(crate) fn gauge_set(&self, name: &str, value: f64) {
        let mut registry = self.registry.lock();
        match registry.gauges.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                registry.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Record `value` into histogram `name`.
    pub(crate) fn observe(&self, name: &str, value: f64) {
        let mut registry = self.registry.lock();
        match registry.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = LogHistogram::new();
                h.record(value);
                registry.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Record a completed span occurrence for `path` (slash-joined).
    pub(crate) fn span_record(&self, path: &str, nanos: u64) {
        let mut registry = self.registry.lock();
        let stat = match registry.spans.get_mut(path) {
            Some(stat) => stat,
            None => {
                registry.spans.insert(path.to_string(), SpanStat::default());
                registry.spans.get_mut(path).unwrap()
            }
        };
        stat.count += 1;
        stat.total_nanos += nanos;
    }

    /// Record one completed span *interval*: its start offset from the
    /// process timing epoch, duration, the recording thread, and the
    /// request context that was active when the span opened (`0` = none;
    /// see [`context_enter`]).
    pub(crate) fn span_interval(
        &self,
        path: &str,
        start_nanos: u64,
        dur_nanos: u64,
        tid: u64,
        ctx: u64,
    ) {
        let mut registry = self.registry.lock();
        if registry.span_intervals.len() >= MAX_SPAN_INTERVALS {
            registry.span_intervals_dropped += 1;
            return;
        }
        registry.span_intervals.push(SpanIntervalSnapshot {
            path: path.to_string(),
            start_nanos,
            dur_nanos,
            tid,
            ctx,
        });
    }

    /// Record a structured event, tagged with the emitting span `path`.
    pub(crate) fn event(&self, name: &str, span_path: &str, fields: &[(&str, FieldValue)]) {
        let mut registry = self.registry.lock();
        if registry.events.len() >= MAX_EVENTS {
            registry.events_dropped += 1;
            return;
        }
        registry.events.push(EventSnapshot {
            name: name.to_string(),
            span: span_path.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_recorder_aggregates_directly() {
        let recorder = MemoryRecorder::new();
        recorder.counter_add("a.count", 2);
        recorder.counter_add("a.count", 3);
        recorder.gauge_set("a.level", 1.5);
        recorder.gauge_set("a.level", 2.5);
        recorder.observe("a.hist", 10.0);
        recorder.span_record("outer/inner", 1000);
        recorder.span_record("outer/inner", 500);
        recorder.event("a.event", "outer", &[("k", FieldValue::U64(7))]);
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("a.count"), Some(5));
        assert_eq!(snapshot.gauge("a.level"), Some(2.5));
        assert_eq!(snapshot.histogram("a.hist").unwrap().count, 1);
        let span = snapshot.span("outer/inner").unwrap();
        assert_eq!(span.count, 2);
        assert_eq!(span.total_nanos, 1500);
        assert_eq!(snapshot.events.len(), 1);
        assert_eq!(snapshot.events[0].span, "outer");
    }

    #[test]
    fn concurrent_counter_increments_are_exact() {
        let recorder = Arc::new(MemoryRecorder::new());
        let threads = 8;
        let per_thread = 5000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let recorder = Arc::clone(&recorder);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        recorder.counter_add("shared.count", 1);
                        recorder.observe("shared.hist", 1.0);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("shared.count"), Some(threads * per_thread));
        assert_eq!(
            snapshot.histogram("shared.hist").unwrap().count,
            threads * per_thread
        );
    }

    #[test]
    fn context_enter_nests_and_restores() {
        assert_eq!(current_context(), 0);
        {
            let _a = context_enter(7);
            assert_eq!(current_context(), 7);
            {
                let _b = context_enter(9);
                assert_eq!(current_context(), 9);
                // Entering context 0 is inert — the ambient context stays.
                let _c = context_enter(0);
                assert_eq!(current_context(), 9);
            }
            assert_eq!(current_context(), 7);
        }
        assert_eq!(current_context(), 0);
        assert_eq!(context_label(17), "r-17");
    }

    #[test]
    fn span_intervals_carry_the_open_context() {
        let recorder = MemoryRecorder::new();
        {
            let _g = context_enter(42);
            span_on(&recorder, "ctx.work");
        }
        span_on(&recorder, "ctx.free");
        let snapshot = recorder.snapshot();
        let by_path = |p: &str| {
            snapshot
                .span_intervals
                .iter()
                .find(|s| s.path == p)
                .unwrap_or_else(|| panic!("no interval for {p}"))
        };
        assert_eq!(by_path("ctx.work").ctx, 42);
        assert_eq!(by_path("ctx.free").ctx, 0);
    }

    /// Record one closed span directly against `recorder`, bypassing the
    /// global installation (keeps parallel tests independent).
    fn span_on(recorder: &MemoryRecorder, path: &str) {
        recorder.span_record(path, 10);
        recorder.span_interval(path, 0, 10, thread_label(), current_context());
    }

    #[test]
    fn event_cap_counts_drops() {
        let recorder = MemoryRecorder::new();
        for _ in 0..(MAX_EVENTS + 10) {
            recorder.event("e", "", &[]);
        }
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.events.len(), MAX_EVENTS);
        assert_eq!(snapshot.events_dropped, 10);
    }
}
