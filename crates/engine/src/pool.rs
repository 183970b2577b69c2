//! The work-stealing evaluation pool.
//!
//! [`run_sweep`] evaluates one sweep request on a pool of workers. The
//! request's points are split into contiguous chunks of
//! [`DEFAULT_CHUNK_SIZE`] along its sweep axis, and the workers take
//! chunks from a shared atomic counter. A worker solves a chunk's points
//! left to right, warm-starting every point from its left neighbour's
//! converged state, and one [`VacationCache`] serves the whole call.
//!
//! The calling thread is always one of the workers; `jobs − 1` scoped
//! helpers join it. A one-worker sweep therefore starts no thread, and its
//! chunk and point spans nest under the caller's open spans. Helper
//! threads re-enter the caller's request context, so every chunk and
//! point span attributes to the caller's request.
//!
//! Because the chunk layout depends only on the point count — never on
//! the worker count — and warm chains never cross a chunk boundary, the
//! results are bitwise identical for any `jobs` value.

use crate::cancel::{CancelToken, CANCELLED_POINT_ERROR};
use crate::report::{PointReport, SweepReport, SweepStats};
use crate::request::SweepRequest;
use gsched_core::{solve_warm, SolverOptions, VacationCache, WarmStart};
use gsched_obs as obs;
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Points per work-stealing chunk. Four gives a ~75% warm-start rate on
/// the paper's figure grids while still exposing enough chunks for the
/// pool to balance.
pub const DEFAULT_CHUNK_SIZE: usize = 4;

/// Options for [`run_sweep`].
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

/// Everything a chunk solve shares with the other workers.
struct Pool<'a> {
    req: &'a SweepRequest,
    points: Mutex<Vec<Option<PointReport>>>,
    warm_hits: AtomicU64,
    warm_misses: AtomicU64,
    /// The next chunk to hand out.
    next: AtomicUsize,
    solver: SolverOptions,
    cancel: Option<&'a CancelToken>,
    cache: VacationCache,
    caller_ctx: u64,
}

impl Pool<'_> {
    /// One worker: take chunks off the shared counter until none are left.
    fn work(&self) {
        // Helper threads start with no context; re-enter the caller's so
        // chunk and point spans attribute to its request.
        let _ctx = obs::context_enter(self.caller_ctx);
        let n = self.req.points.len();
        loop {
            let chunk = self.next.fetch_add(1, Ordering::Relaxed);
            let lo = chunk * DEFAULT_CHUNK_SIZE;
            if lo >= n {
                return;
            }
            let _chunk_span = obs::span(format!("engine.sweep.chunk{chunk}"));
            self.solve_chunk(lo..(lo + DEFAULT_CHUNK_SIZE).min(n));
        }
    }

    /// Solve one chunk's points left to right, warm-chaining within it.
    /// Cancellation is polled before every point; once it fires, the
    /// remaining points are recorded as cancelled without solving.
    fn solve_chunk(&self, points: Range<usize>) {
        let mut carry: Option<WarmStart> = None;
        for i in points {
            let pt = &self.req.points[i];
            if self.cancel.is_some_and(CancelToken::is_cancelled) {
                carry = None;
                obs::counter_add(obs::names::ENGINE_SWEEP_CANCELLED_POINTS, 1);
                self.points.lock()[i] = Some(PointReport {
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
                        self.warm_hits.fetch_add(1, Ordering::Relaxed);
                        obs::counter_add(obs::names::ENGINE_WARM_HITS, 1);
                    } else {
                        self.warm_misses.fetch_add(1, Ordering::Relaxed);
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
            self.points.lock()[i] = Some(report);
        }
    }
}

/// Evaluate every point of `req` and collect the outcomes.
///
/// Per-point failures are recorded in the corresponding [`PointReport`]
/// (with class and sweep-point context in the message) and never abort the
/// rest of the sweep.
///
/// `opts.jobs` sizes the pool (0 = auto), clamped to the chunk count;
/// when more workers were asked for than there are chunks, the spare
/// cores go to per-class parallelism inside each solve, which is
/// numerics-neutral. The report's `stats.jobs` records the pool size.
pub fn run_sweep(req: &SweepRequest, opts: &SweepOptions) -> SweepReport {
    let start = Instant::now();
    let label = req.base.label.as_str();
    let _span = obs::span(format!("engine.sweep.{label}"));
    let n = req.points.len();
    let chunks = n.div_ceil(DEFAULT_CHUNK_SIZE);
    let requested = effective_jobs(opts.jobs);
    let jobs = requested.clamp(1, chunks.max(1));
    let mut solver = opts.solver.clone();
    solver.parallel_classes |= requested > chunks;

    if obs::enabled() {
        obs::event(
            "engine.sweep.start",
            &[
                ("label", obs::FieldValue::Str(label.to_string())),
                ("points", obs::FieldValue::U64(n as u64)),
                ("chunks", obs::FieldValue::U64(chunks as u64)),
                ("jobs", obs::FieldValue::U64(jobs as u64)),
            ],
        );
    }

    let pool = Pool {
        req,
        points: Mutex::new(vec![None; n]),
        warm_hits: AtomicU64::new(0),
        warm_misses: AtomicU64::new(0),
        next: AtomicUsize::new(0),
        solver,
        cancel: opts.cancel.as_ref(),
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

    let stats = SweepStats {
        warm_hits: pool.warm_hits.into_inner(),
        warm_misses: pool.warm_misses.into_inner(),
        jobs,
        chunks,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    };
    if obs::enabled() {
        obs::gauge_set(
            obs::names::ENGINE_SWEEP_WARM_HIT_RATE,
            stats.warm_hit_rate(),
        );
        obs::gauge_set(obs::names::ENGINE_SWEEP_JOBS, jobs as f64);
    }
    SweepReport {
        axis: req.axis.clone(),
        label: req.base.label.clone(),
        points: pool
            .points
            .into_inner()
            .into_iter()
            .map(|p| p.expect("every sweep point is evaluated"))
            .collect(),
        stats,
    }
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
}
