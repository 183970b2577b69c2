//! The work-stealing evaluation pool.
//!
//! [`run_batch`] evaluates one or more sweep requests on one pool of
//! workers. Each request's points are split into contiguous chunks of
//! [`DEFAULT_CHUNK_SIZE`] along its sweep axis, and the chunks of every
//! request form one work list that the workers take from a shared atomic
//! counter. A worker solves a chunk's points left to right, warm-starting
//! every point from its left neighbour's converged state, and one
//! [`VacationCache`] serves the whole call. [`run_sweep`] is a one-item
//! batch.
//!
//! The calling thread is always one of the workers; `jobs − 1` scoped
//! helpers join it. A one-worker sweep therefore starts no thread, and its
//! chunk and point spans nest under the caller's open spans.
//!
//! Because a request's chunk layout depends only on its point count —
//! never on the worker count or on the requests it is batched with — and
//! warm chains never cross a chunk boundary, every request's results are
//! bitwise identical for any `jobs` value and any batch.

use crate::cancel::{CancelToken, CANCELLED_POINT_ERROR};
use crate::report::{PointReport, SweepReport, SweepStats};
use crate::request::SweepRequest;
use gsched_core::{solve_warm, SolverOptions, VacationCache, WarmStart};
use gsched_obs as obs;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Points per work-stealing chunk. Four gives a ~75% warm-start rate on
/// the paper's figure grids while still exposing enough chunks for the
/// pool to balance.
pub const DEFAULT_CHUNK_SIZE: usize = 4;

/// Options for [`run_sweep`] and [`run_batch`].
///
/// `#[non_exhaustive]`: start from `SweepOptions::default()` and adjust via
/// the chainable `with_*` methods (or field assignment).
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SweepOptions {
    /// Worker threads; `0` (default) uses the machine's available
    /// parallelism. The answer is identical for every value — only the
    /// wall-clock time changes.
    pub jobs: usize,
    /// Options for each point's solve.
    pub solver: SolverOptions,
    /// Cooperative cancellation: workers poll this token between points
    /// and record every remaining point as a cancelled failure once it
    /// fires (see [`CancelToken`]). `None` (default) never cancels.
    pub cancel: Option<CancelToken>,
}

impl SweepOptions {
    /// Set the worker-thread count (`0` = auto).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Set the per-point solver options.
    #[must_use]
    pub fn with_solver(mut self, solver: SolverOptions) -> Self {
        self.solver = solver;
        self
    }

    /// Attach a cancellation token (deadline and/or explicit cancel).
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

fn effective_jobs(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// One request in a [`run_batch`] call: the sweep itself plus its private
/// cancellation token and observability context.
#[derive(Debug)]
pub struct BatchItem<'a> {
    /// The sweep to evaluate.
    pub request: &'a SweepRequest,
    /// Cancels only this item's remaining points; the batch-wide
    /// `SweepOptions::cancel` (if any) cancels every item.
    pub cancel: Option<CancelToken>,
    /// Request context (`gsched_obs::current_context`) to attribute this
    /// item's chunk and point spans to; `0` inherits the batch caller's.
    pub ctx: u64,
}

impl<'a> BatchItem<'a> {
    /// An item with no private cancellation and inherited context.
    pub fn new(request: &'a SweepRequest) -> Self {
        BatchItem {
            request,
            cancel: None,
            ctx: 0,
        }
    }

    /// Attach a private cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Attribute this item's spans to a request context.
    #[must_use]
    pub fn with_ctx(mut self, ctx: u64) -> Self {
        self.ctx = ctx;
        self
    }
}

/// One chunk of one item: points `lo..hi` of `items[item]`.
struct Task {
    item: usize,
    chunk: usize,
    lo: usize,
    hi: usize,
}

/// What the workers accumulate for one item.
struct ItemOutcome {
    points: Mutex<Vec<Option<PointReport>>>,
    warm_hits: AtomicU64,
    warm_misses: AtomicU64,
}

/// Everything a chunk solve shares with the other workers.
struct Pool<'a> {
    items: &'a [BatchItem<'a>],
    outcomes: Vec<ItemOutcome>,
    tasks: Vec<Task>,
    next: AtomicUsize,
    solver: SolverOptions,
    opts: &'a SweepOptions,
    cache: VacationCache,
    caller_ctx: u64,
}

impl Pool<'_> {
    /// One worker: take chunks off the shared counter until none are left.
    fn work(&self) {
        while let Some(task) = self.tasks.get(self.next.fetch_add(1, Ordering::Relaxed)) {
            let item = &self.items[task.item];
            // Chunk and point spans attribute to the item's own request,
            // not to whichever request the batch was started for.
            let ctx = if item.ctx != 0 {
                item.ctx
            } else {
                self.caller_ctx
            };
            let _ctx = obs::context_enter(ctx);
            let _chunk_span = obs::span(format!("engine.sweep.chunk{}", task.chunk));
            self.solve_chunk(task, item);
        }
    }

    fn cancelled(&self, item: &BatchItem<'_>) -> bool {
        [&self.opts.cancel, &item.cancel]
            .into_iter()
            .flatten()
            .any(CancelToken::is_cancelled)
    }

    /// Solve one chunk's points left to right, warm-chaining within it.
    /// Cancellation is polled before every point; once it fires, the
    /// remaining points are recorded as cancelled without solving.
    fn solve_chunk(&self, task: &Task, item: &BatchItem<'_>) {
        let outcome = &self.outcomes[task.item];
        let mut carry: Option<WarmStart> = None;
        for i in task.lo..task.hi {
            let pt = &item.request.points[i];
            if self.cancelled(item) {
                carry = None;
                obs::counter_add(obs::names::ENGINE_SWEEP_CANCELLED_POINTS, 1);
                outcome.points.lock()[i] = Some(PointReport {
                    x: pt.x,
                    solution: None,
                    error: Some(CANCELLED_POINT_ERROR.to_string()),
                    warm_started: false,
                    wall_ms: 0.0,
                });
                continue;
            }
            let t0 = Instant::now();
            let warm = carry.take();
            let warm_started = warm.is_some();
            let res = {
                let _pt_span = obs::span(format!("engine.sweep.point{i}"));
                solve_warm(&pt.model, &self.solver, warm.as_ref(), Some(&self.cache))
            };
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let report = match res {
                Ok(solved) => {
                    if warm_started {
                        outcome.warm_hits.fetch_add(1, Ordering::Relaxed);
                        obs::counter_add(obs::names::ENGINE_WARM_HITS, 1);
                    } else {
                        outcome.warm_misses.fetch_add(1, Ordering::Relaxed);
                        obs::counter_add(obs::names::ENGINE_WARM_MISSES, 1);
                    }
                    carry = Some(solved.warm);
                    PointReport {
                        x: pt.x,
                        solution: Some(solved.solution),
                        error: None,
                        warm_started,
                        wall_ms,
                    }
                }
                Err(e) => {
                    // A failure breaks the warm chain (`carry` is empty).
                    let msg = e.with_sweep_point(pt.x).to_string();
                    if obs::enabled() {
                        obs::event(
                            "engine.sweep.point_error",
                            &[
                                ("x", obs::FieldValue::F64(pt.x)),
                                ("error", obs::FieldValue::Str(msg.clone())),
                            ],
                        );
                    }
                    PointReport {
                        x: pt.x,
                        solution: None,
                        error: Some(msg),
                        warm_started,
                        wall_ms,
                    }
                }
            };
            outcome.points.lock()[i] = Some(report);
        }
    }
}

/// Evaluate every point of `req` and collect the outcomes: a one-item
/// [`run_batch`].
///
/// Per-point failures are recorded in the corresponding [`PointReport`]
/// (with class and sweep-point context in the message) and never abort the
/// rest of the sweep.
pub fn run_sweep(req: &SweepRequest, opts: &SweepOptions) -> SweepReport {
    run_batch(&[BatchItem::new(req)], opts)
        .pop()
        .expect("one report per item")
}

/// Evaluate several sweep requests on one shared worker pool.
///
/// Every request is chunked the same way whatever it shares the pool
/// with, so each report is **bitwise identical** to the request's
/// standalone [`run_sweep`] — the batch only shares the workers and one
/// [`VacationCache`], whose memoized constructions are
/// value-deterministic. Reports come back in item order. A cancelled item
/// never stops its batch-mates; per-item tokens compose with the
/// batch-wide `opts.cancel`.
///
/// `opts.jobs` sizes the pool (0 = auto), clamped to the total chunk
/// count; when more workers were asked for than there are chunks, the
/// spare cores go to per-class parallelism inside each solve, which is
/// numerics-neutral. Each report's `stats.jobs` records the pool size and
/// `stats.wall_ms` the whole call's wall time (items interleave on the
/// pool, so per-item wall is not meaningful).
pub fn run_batch(items: &[BatchItem<'_>], opts: &SweepOptions) -> Vec<SweepReport> {
    let start = Instant::now();
    if items.is_empty() {
        return Vec::new();
    }
    let labels: Vec<&str> = items
        .iter()
        .map(|b| b.request.base.label.as_str())
        .collect();
    let label = labels.join("+");
    let _span = obs::span(format!("engine.sweep.{label}"));
    let mut tasks = Vec::new();
    for (item, b) in items.iter().enumerate() {
        let n = b.request.points.len();
        for chunk in 0..n.div_ceil(DEFAULT_CHUNK_SIZE) {
            let lo = chunk * DEFAULT_CHUNK_SIZE;
            let hi = (lo + DEFAULT_CHUNK_SIZE).min(n);
            tasks.push(Task {
                item,
                chunk,
                lo,
                hi,
            });
        }
    }
    let requested = effective_jobs(opts.jobs);
    let jobs = requested.clamp(1, tasks.len().max(1));
    let mut solver = opts.solver.clone();
    solver.parallel_classes |= requested > tasks.len();

    let points: usize = items.iter().map(|b| b.request.points.len()).sum();
    if obs::enabled() {
        obs::event(
            "engine.sweep.start",
            &[
                ("label", obs::FieldValue::Str(label)),
                ("items", obs::FieldValue::U64(items.len() as u64)),
                ("points", obs::FieldValue::U64(points as u64)),
                ("chunks", obs::FieldValue::U64(tasks.len() as u64)),
                ("jobs", obs::FieldValue::U64(jobs as u64)),
            ],
        );
    }

    let pool = Pool {
        items,
        outcomes: items
            .iter()
            .map(|b| ItemOutcome {
                points: Mutex::new(vec![None; b.request.points.len()]),
                warm_hits: AtomicU64::new(0),
                warm_misses: AtomicU64::new(0),
            })
            .collect(),
        tasks,
        next: AtomicUsize::new(0),
        solver,
        opts,
        cache: VacationCache::new(),
        caller_ctx: obs::current_context(),
    };
    crossbeam::scope(|s| {
        for _ in 1..jobs {
            s.spawn(|_| pool.work());
        }
        pool.work();
    })
    .expect("sweep worker threads join cleanly");

    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let parallel_classes = pool.solver.parallel_classes;
    let reports: Vec<SweepReport> = pool
        .outcomes
        .into_iter()
        .zip(items)
        .map(|(outcome, b)| SweepReport {
            axis: b.request.axis.clone(),
            label: b.request.base.label.clone(),
            points: outcome
                .points
                .into_inner()
                .into_iter()
                .map(|p| p.expect("every sweep point is evaluated"))
                .collect(),
            stats: SweepStats {
                warm_hits: outcome.warm_hits.into_inner(),
                warm_misses: outcome.warm_misses.into_inner(),
                jobs,
                chunks: b.request.points.len().div_ceil(DEFAULT_CHUNK_SIZE),
                parallel_classes,
                wall_ms,
            },
        })
        .collect();
    if obs::enabled() {
        let total = SweepStats {
            warm_hits: reports.iter().map(|r| r.stats.warm_hits).sum(),
            warm_misses: reports.iter().map(|r| r.stats.warm_misses).sum(),
            ..SweepStats::default()
        };
        obs::gauge_set(
            obs::names::ENGINE_SWEEP_WARM_HIT_RATE,
            total.warm_hit_rate(),
        );
        obs::gauge_set(obs::names::ENGINE_SWEEP_JOBS, jobs as f64);
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ScenarioBase, SweepAxis, SweepPoint};
    use gsched_core::{ClassParams, GangModel, SolverOptions};
    use gsched_phase::{erlang, exponential};

    /// Tiny two-class model, cheap enough for many debug-mode solves.
    fn model(quantum_mean: f64, lambda: f64) -> GangModel {
        let mk = || ClassParams {
            partition_size: 2,
            arrival: exponential(lambda),
            service: exponential(1.0),
            quantum: erlang(2, 2.0 / quantum_mean),
            switch_overhead: exponential(100.0),
        };
        GangModel::new(2, vec![mk(), mk()]).unwrap()
    }

    fn request(n: usize, lambda: f64) -> SweepRequest {
        let points = (0..n)
            .map(|i| {
                let x = 0.5 + 0.25 * i as f64;
                SweepPoint {
                    x,
                    model: model(x, lambda),
                }
            })
            .collect();
        SweepRequest::new(
            SweepAxis::QuantumMean,
            ScenarioBase::labeled("test").with_param("lambda", lambda),
            points,
        )
    }

    fn response_bits(report: &SweepReport) -> Vec<Vec<u64>> {
        report
            .points
            .iter()
            .map(|p| p.mean_responses(2).into_iter().map(f64::to_bits).collect())
            .collect()
    }

    #[test]
    fn points_and_parity() {
        let req = request(10, 0.15);
        let seq = run_sweep(&req, &SweepOptions::default().with_jobs(1));
        let par = run_sweep(&req, &SweepOptions::default().with_jobs(3));
        assert_eq!(seq.points.len(), 10);
        assert_eq!(seq.failures(), 0);
        assert_eq!(response_bits(&seq), response_bits(&par));
        assert_eq!(seq.stats.chunks, 3);
        assert_eq!(par.stats.jobs, 3);
    }

    #[test]
    fn warm_hit_accounting() {
        let req = request(10, 0.15);
        let warm = run_sweep(&req, &SweepOptions::default().with_jobs(1));
        // 3 chunks of sizes 4+4+2: one cold point each, the rest warm.
        assert_eq!(warm.stats.warm_misses, 3);
        assert_eq!(warm.stats.warm_hits, 7);
        assert!(warm.stats.warm_hit_rate() > 0.5);
        // Warm points converge to the fixed point a cold per-point solve
        // finds; the chunk-leading (cold) points are that solve exactly.
        for (pt, w) in req.points.iter().zip(warm.points.iter()) {
            let cold = gsched_core::solve(&pt.model, &SolverOptions::default()).unwrap();
            let (wr, cr) = (
                w.solution.as_ref().unwrap().classes[0].mean_response,
                cold.classes[0].mean_response,
            );
            if w.warm_started {
                assert!((wr - cr).abs() / cr < 1e-4, "warm {wr} vs cold {cr}");
            } else {
                assert_eq!(wr.to_bits(), cr.to_bits(), "cold point x = {}", pt.x);
            }
        }
    }

    #[test]
    fn failed_points_are_isolated() {
        let mut req = request(6, 0.15);
        // Overload the middle point and make instability a hard error.
        req.points[2].model = model(1.0, 2.0);
        let opts = SweepOptions::default()
            .with_jobs(2)
            .with_solver(SolverOptions {
                require_stable: true,
                ..SolverOptions::default()
            });
        let report = run_sweep(&req, &opts);
        assert_eq!(report.failures(), 1);
        assert!(!report.points[2].is_ok());
        let err = report.first_error().unwrap();
        assert!(err.contains("unstable"), "{err}");
        assert!(report
            .points
            .iter()
            .enumerate()
            .all(|(i, p)| p.is_ok() || i == 2));
        assert!(report.points[2].mean_responses(2)[0].is_nan());
    }

    #[test]
    fn empty_request() {
        let req = SweepRequest::new(
            SweepAxis::Custom("empty".into()),
            ScenarioBase::labeled("empty"),
            Vec::new(),
        );
        let report = run_sweep(&req, &SweepOptions::default());
        assert!(report.points.is_empty());
        assert_eq!(report.stats.warm_hits + report.stats.warm_misses, 0);
    }

    #[test]
    fn pre_cancelled_sweep_solves_nothing() {
        let req = request(8, 0.15);
        let token = CancelToken::new();
        token.cancel();
        let report = run_sweep(
            &req,
            &SweepOptions::default().with_jobs(2).with_cancel(token),
        );
        assert_eq!(report.failures(), 8);
        assert!(report
            .points
            .iter()
            .all(|p| p.error.as_deref() == Some(CANCELLED_POINT_ERROR)));
        assert_eq!(report.stats.warm_hits + report.stats.warm_misses, 0);
    }

    #[test]
    fn expired_deadline_cancels_sweep() {
        let req = request(4, 0.15);
        let token = CancelToken::with_deadline(std::time::Instant::now());
        let report = run_sweep(
            &req,
            &SweepOptions::default().with_jobs(1).with_cancel(token),
        );
        assert_eq!(report.failures(), 4);
    }

    #[test]
    fn unfired_token_changes_nothing() {
        let req = request(6, 0.15);
        let plain = run_sweep(&req, &SweepOptions::default().with_jobs(1));
        let tokened = run_sweep(
            &req,
            &SweepOptions::default()
                .with_jobs(1)
                .with_cancel(CancelToken::new()),
        );
        assert_eq!(response_bits(&plain), response_bits(&tokened));
    }

    #[test]
    fn batched_requests_are_bitwise_identical_to_standalone() {
        let reqs = [request(10, 0.15), request(6, 0.25), request(3, 0.1)];
        let solo_opts = SweepOptions::default().with_jobs(1);
        let solos: Vec<SweepReport> = reqs.iter().map(|r| run_sweep(r, &solo_opts)).collect();
        let items: Vec<BatchItem> = reqs.iter().map(BatchItem::new).collect();
        let batched = run_batch(&items, &SweepOptions::default().with_jobs(3));
        assert_eq!(batched.len(), 3);
        for (solo, batch) in solos.iter().zip(batched.iter()) {
            assert_eq!(response_bits(solo), response_bits(batch));
            assert_eq!(solo.stats.warm_hits, batch.stats.warm_hits);
            assert_eq!(solo.stats.warm_misses, batch.stats.warm_misses);
            assert_eq!(solo.stats.chunks, batch.stats.chunks);
            assert_eq!(solo.label, batch.label);
        }
    }

    #[test]
    fn batch_cancellation_is_per_item() {
        let reqs = [request(4, 0.15), request(4, 0.15)];
        let token = CancelToken::new();
        token.cancel();
        let items = vec![
            BatchItem::new(&reqs[0]),
            BatchItem::new(&reqs[1]).with_cancel(token),
        ];
        let reports = run_batch(&items, &SweepOptions::default().with_jobs(1));
        assert_eq!(reports[0].failures(), 0, "uncancelled item completes");
        assert_eq!(reports[1].failures(), 4, "cancelled item solves nothing");
        assert!(reports[1]
            .points
            .iter()
            .all(|p| p.error.as_deref() == Some(CANCELLED_POINT_ERROR)));
    }

    #[test]
    fn empty_batch_returns_nothing() {
        assert!(run_batch(&[], &SweepOptions::default()).is_empty());
    }
}
