//! Workspace-wide instrumentation: hierarchical timed spans, typed
//! counters/gauges, log-scale histograms, and structured event records,
//! exportable as JSON diagnostics or a human-readable report.
//!
//! # Architecture
//!
//! All instrumentation flows through one global [`MemoryRecorder`]. By
//! default none is installed and every probe is a single relaxed atomic
//! load — solver and simulator hot paths pay essentially nothing. Callers
//! that want diagnostics install one with [`install_memory`], run the
//! workload, then take a [`Snapshot`] for JSON export
//! ([`Snapshot::to_json`]), a tree report ([`Snapshot::render`]), or a
//! Chrome Trace Event timeline ([`Snapshot::to_chrome_trace`], viewable in
//! Perfetto). Sidecar files should be written with [`write_atomic`] so
//! concurrent readers never see a torn JSON document.
//!
//! Metric names use `crate.component.operation` form (for example
//! `qbd.rmatrix.iterations`). Span *paths* additionally join nested span
//! names with `/`, so time spent solving the class-2 QBD inside a full
//! solve shows up as `core.solve/core.class2/qbd.solve`.
//!
//! # Probes
//!
//! * [`span`] — RAII timer; nesting is tracked per thread.
//! * [`counter_add`] — monotone `u64` totals (events processed, iterations).
//! * [`gauge_set`] — last-write-wins `f64` level (convergence delta, rate).
//! * [`observe`] — log-scale histogram sample (queue lengths, times).
//! * [`event`] — structured record with fields, tagged with the emitting
//!   span path (fixed-point trajectories, per-class solve summaries).

//! # Request contexts
//!
//! Serving paths additionally tag spans with a *request context*: a `u64`
//! id entered with [`context_enter`] and carried across worker threads via
//! [`current_context`]. Span intervals remember the context that was active
//! when they opened, so the Chrome-trace export can label every span of one
//! service request with its `request_id` ([`context_label`]).

pub mod attribution;
mod fsio;
mod histogram;
pub mod names;
mod recorder;
mod report;
mod snapshot;
mod trace;

pub use attribution::{canonical_span_name, Attribution, AttributionRow};
pub use fsio::write_atomic;
pub use histogram::LogHistogram;
pub use recorder::{
    context_enter, context_label, counter_add, current_context, enabled, event, gauge_set,
    install_memory, observe, span, thread_label, uninstall, ContextGuard, FieldValue,
    MemoryRecorder, SpanGuard,
};
pub use snapshot::{
    EventSnapshot, HistogramSnapshot, MetricF64, MetricU64, Snapshot, SpanIntervalSnapshot,
    SpanSnapshot,
};
