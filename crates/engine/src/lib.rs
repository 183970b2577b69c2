//! Parallel warm-started evaluation of gang-scheduling scenario batches.
//!
//! Every figure in the paper (Figs. 2–5) is a *sweep*: the same model
//! solved at dozens of nearby parameter points. This crate turns such a
//! batch into a [`SweepRequest`] and evaluates it on a work-stealing pool
//! ([`run_batch`], with [`run_sweep`] as its one-request form). The
//! calling thread is one of the workers and scoped helper threads join
//! it, exploiting two independent levels of parallelism:
//!
//! 1. **across sweep points** — points are grouped into contiguous chunks
//!    of [`DEFAULT_CHUNK_SIZE`] along the sweep axis; workers steal whole
//!    chunks;
//! 2. **across classes** — the `L` per-class QBD solves inside one
//!    fixed-point pass are mutually independent and can run on their own
//!    threads ([`gsched_core::SolverOptions::parallel_classes`], enabled
//!    automatically when there are more workers than chunks).
//!
//! Several requests (the scenario server's queued sweeps) can share one
//! pool through [`run_batch`]; their chunks feed one work list.
//!
//! Within a chunk, points are solved left to right and each point
//! *warm-starts* from its neighbour's converged state: the converged
//! effective quanta seed the fixed point of Theorem 4.3. Each `R` (eq. 23)
//! is solved cold.
//! Vacation convolutions (Theorem 4.1) are memoized across the whole call
//! in a [`gsched_core::VacationCache`].
//!
//! # Cancellation
//!
//! Long sweeps can be abandoned cooperatively: attach a [`CancelToken`]
//! (optionally carrying a deadline) via [`SweepOptions::with_cancel`] and
//! the pool checks it *between* points — numerical code is never unwound
//! mid-solve. Cancelled points report [`CANCELLED_POINT_ERROR`] and break
//! the warm-start chain. The scenario server (`gsched-service`) uses this
//! to honour per-request deadlines and client disconnects.
//!
//! # Determinism
//!
//! A request's chunk layout depends only on its point count — never on
//! the worker count or on the requests batched with it — and warm-start
//! chaining never crosses a chunk boundary. Every memoized or
//! warm-started computation is a deterministic function of its inputs, so
//! a sweep's results are **bitwise identical** for any `jobs` value and
//! any batch; see `points_and_parity` and
//! `batched_requests_are_bitwise_identical_to_standalone` in the test
//! suite and `parallel_sweeps_match_sequential_bitwise` in
//! `gsched-scenario`'s.

mod cancel;
mod pool;
mod report;
mod request;

pub use cancel::{CancelToken, CANCELLED_POINT_ERROR};
pub use pool::{run_batch, run_sweep, BatchItem, SweepOptions, DEFAULT_CHUNK_SIZE};
pub use report::{PointReport, SweepReport, SweepStats};
pub use request::{ScenarioBase, SweepAxis, SweepPoint, SweepRequest};
