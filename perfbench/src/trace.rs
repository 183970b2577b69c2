//! The traced run: the benchmark's own spans around every public call it
//! makes, a replay of each solve's final fixed-point pass through the
//! public class-chain functions, and the per-layer report built from both
//! plus the counters the program already keeps.

use crate::stats::{mean, median};
use gsched_core::generator::build_class_chain;
use gsched_core::measures::class_measures;
use gsched_core::vacation::compose_vacation;
use gsched_core::{effective::effective_quantum, solve_warm, GangModel, GangSolution};
use gsched_core::{SolverOptions, VacationCache, WarmStart};
use gsched_engine::{SweepReport, SweepRequest, DEFAULT_CHUNK_SIZE};
use gsched_linalg::{Lu, Matrix, WorkCounters};
use gsched_qbd::{drift_condition, solve_r, QbdError};
use gsched_service::render::{json_f64, json_str};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span: name, interval, the span that caused it, and the
/// trace (request or sweep) it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub trace: u64,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span store, written out once the run ends.
pub struct Spans {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    /// Allocate a span id (before its children run).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span over `[start, end]`.
    pub fn record(
        &self,
        id: u64,
        name: &str,
        parent: Option<u64>,
        trace: u64,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.lock().expect("span store lock").push(Span {
            id,
            parent,
            trace,
            name: name.to_string(),
            start_us: us(start),
            end_us: us(end),
        });
    }

    /// Run `f` inside a new span; `f` receives the span's id so that it
    /// can parent its own children.
    pub fn timed<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        trace: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        self.record(id, name, parent, trace, start, Instant::now());
        out
    }

    /// Mean duration (µs) of spans named `name`.
    pub fn mean_us(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span store lock");
        let durations: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect();
        mean(&durations)
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span store lock");
        let rows: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    r#"{{"id":{},"parent":{},"trace":{},"name":{},"start_us":{:.3},"end_us":{:.3}}}"#,
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.trace,
                    json_str(&s.name),
                    s.start_us,
                    s.end_us
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

/// Re-run `req` point by point exactly as `run_sweep` chains it (chunks of
/// [`DEFAULT_CHUNK_SIZE`], one vacation cache per sweep), keeping each
/// point's converged [`WarmStart`] for the replay. Points whose mirrored
/// answer differs from the engine's are returned by name.
pub fn mirror_sweep(
    label: &str,
    req: &SweepRequest,
    report: &SweepReport,
    solver: &SolverOptions,
) -> (Vec<Option<(GangSolution, WarmStart)>>, Vec<String>) {
    let cache = VacationCache::new();
    let mut out = Vec::with_capacity(req.points.len());
    let mut mismatches = Vec::new();
    let mut carry: Option<WarmStart> = None;
    for (i, pt) in req.points.iter().enumerate() {
        if i % DEFAULT_CHUNK_SIZE == 0 {
            carry = None;
        }
        let res = solve_warm(&pt.model, solver, carry.as_ref(), Some(&cache)).ok();
        carry = res.as_ref().map(|o| o.warm.clone());
        let same = match (&res, &report.points[i].solution) {
            (Some(o), Some(s)) => same_answer(&o.solution, s),
            (None, None) => true,
            _ => false,
        };
        if !same {
            mismatches.push(format!("mirror:{label}@x={}", pt.x));
        }
        out.push(res.map(|o| (o.solution, o.warm)));
    }
    (out, mismatches)
}

fn same_answer(a: &GangSolution, b: &GangSolution) -> bool {
    a.iterations == b.iterations
        && a.classes
            .iter()
            .zip(&b.classes)
            .all(|(x, y)| x.mean_jobs.to_bits() == y.mean_jobs.to_bits())
}

/// Per-call timings and counts gathered by the replay.
#[derive(Debug, Default)]
pub struct Replay {
    pub vacation_us: Vec<f64>,
    pub generator_us: Vec<f64>,
    pub drift_us: Vec<f64>,
    pub solve_r_us: Vec<f64>,
    pub solve_cold_us: Vec<f64>,
    pub solve_warm_us: Vec<f64>,
    pub effective_us: Vec<f64>,
    pub measures_us: Vec<f64>,
    pub truncation_level_max: f64,
    pub certified_tail_max: f64,
    /// `(repeating dimension, A1)` of the largest repeating block seen.
    pub largest_block: Option<(usize, Matrix)>,
    pub classes_replayed: u64,
    /// Replayed answers that disagree with the end-to-end answer, by name.
    pub mismatches: Vec<String>,
}

fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

impl Replay {
    /// Replay the final fixed-point pass of one solved point, class by
    /// class: `compose_vacation` → `build_class_chain` → `drift_condition`,
    /// `solve_r` → `QbdProcess::solve` cold and warm → `effective_quantum`
    /// → `class_measures`, and check that the replayed mean response equals
    /// `answer` to within the fixed-point tolerance.
    pub fn point(
        &mut self,
        name: &str,
        model: &GangModel,
        solver: &SolverOptions,
        answer: &GangSolution,
        warm: &WarmStart,
    ) {
        let Some(quanta) = warm.quanta.as_ref() else {
            return;
        };
        // The answer's own truncation certificates, when it carries them.
        for h in answer.health.iter().flat_map(|h| &h.classes) {
            if let Some(level) = h.truncation_level {
                self.truncation_level_max = self.truncation_level_max.max(level as f64);
            }
            if h.certified_tail.is_finite() {
                self.certified_tail_max = self.certified_tail_max.max(h.certified_tail);
            }
        }
        for (p, class) in answer.classes.iter().enumerate() {
            let tag = format!("{name}/class{p}");
            let (vac, us) = time_us(|| compose_vacation(model, p, quanta));
            self.vacation_us.push(us);
            let (chain, us) = time_us(|| build_class_chain(model, p, &vac));
            self.generator_us.push(us);
            let Ok(chain) = chain else {
                self.mismatches
                    .push(format!("{tag}: build_class_chain failed"));
                continue;
            };
            let q = &chain.qbd;
            let (drift, us) = time_us(|| drift_condition(&q.a0, &q.a1, &q.a2));
            self.drift_us.push(us);
            let dim = q.repeating_dim();
            if self.largest_block.as_ref().is_none_or(|(d, _)| dim > *d) {
                self.largest_block = Some((dim, q.a1.clone()));
            }
            let (cold, us) = time_us(|| q.solve(&solver.qbd));
            let sol = match cold {
                Ok(sol) => sol,
                Err(QbdError::Unstable(_)) => {
                    if class.stable {
                        self.mismatches.push(format!("{tag}: replay unstable"));
                    }
                    continue;
                }
                Err(e) => {
                    self.mismatches.push(format!("{tag}: replay failed: {e}"));
                    continue;
                }
            };
            self.solve_cold_us.push(us);
            self.classes_replayed += 1;
            if drift.is_ok_and(|d| d.is_stable()) {
                let opts = &solver.qbd;
                let (_, us) =
                    time_us(|| solve_r(&q.a0, &q.a1, &q.a2, opts.method, opts.tol, opts.max_iter));
                self.solve_r_us.push(us);
            }
            if let Some(r) = warm.r_matrices.get(p).and_then(Option::as_ref) {
                let mut opts = solver.qbd.clone();
                opts.initial_r = Some(r.clone());
                let (_, us) = time_us(|| q.solve(&opts));
                self.solve_warm_us.push(us);
            }
            let (eff, us) = time_us(|| {
                effective_quantum(&chain, &sol, solver.tail_eps, solver.max_extra_levels)
            });
            self.effective_us.push(us);
            if eff.is_err() {
                self.mismatches
                    .push(format!("{tag}: effective_quantum failed"));
            }
            let (meas, us) = time_us(|| class_measures(model, p, &chain, &sol));
            self.measures_us.push(us);
            let rel = (meas.mean_response - class.mean_response).abs()
                / class.mean_response.abs().max(1e-300);
            if !class.stable || rel.is_nan() || rel > solver.fp_tol {
                self.mismatches.push(format!(
                    "{tag}: replayed mean response {} vs answer {} (rel {rel:.2e})",
                    meas.mean_response, class.mean_response
                ));
            }
        }
    }

    /// Median µs of `Lu::new` on the largest repeating block replayed.
    pub fn lu_us(&self) -> f64 {
        let Some((_, a1)) = &self.largest_block else {
            return f64::NAN;
        };
        let times: Vec<f64> = (0..7)
            .map(|_| time_us(|| std::hint::black_box(Lu::new(std::hint::black_box(a1)))).1)
            .collect();
        median(&times)
    }
}

/// Everything the per-layer report is computed from.
#[derive(Default)]
pub struct Layers {
    pub spans: Spans,
    pub replay: Replay,
    /// Sweep wall time minus the sum of its point wall times, per sweep (ms).
    pub engine_overhead_ms: Vec<f64>,
    pub warm_hits: u64,
    pub warm_misses: u64,
    pub fp_iterations: u64,
    pub class_solves: u64,
    pub unconverged: u64,
    pub work: WorkCounters,
    pub r_iterations: u64,
    pub warm_fallbacks: u64,
    /// Wall time of the traced pass (ms), the denominator of layer shares.
    pub traced_wall_ms: f64,
    pub untraced_wall_ms: f64,
    pub service: ServiceLayer,
}

/// Service-layer numbers, read from the `stats` op and the client.
#[derive(Debug, Default, Clone)]
pub struct ServiceLayer {
    pub hit_ratio: f64,
    pub hit_rtt_p50_ms: f64,
    pub queue_wait_p95_ms: f64,
    pub solve_p50_ms: f64,
    pub coalesced: f64,
    pub shed: f64,
    pub gen_lag_max_ms: f64,
}

impl Layers {
    /// Count one solved answer into the `core` fixed-point counters.
    pub fn count_solution(&mut self, sol: &GangSolution) {
        self.fp_iterations += sol.iterations as u64;
        self.class_solves += (sol.iterations * sol.classes.len()) as u64;
        self.unconverged += u64::from(!sol.converged);
    }

    /// Count one engine sweep.
    pub fn count_sweep(&mut self, report: &SweepReport) {
        let points_ms: f64 = report.points.iter().map(|p| p.wall_ms).sum();
        self.engine_overhead_ms
            .push(report.stats.wall_ms - points_ms);
        self.warm_hits += report.stats.warm_hits;
        self.warm_misses += report.stats.warm_misses;
        for (_, sol) in report.solutions() {
            self.count_solution(sol);
        }
    }

    /// Read the program's own counters from the memory recorder.
    pub fn read_recorder(&mut self, recorder: &gsched_obs::MemoryRecorder) {
        let snap = recorder.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        self.r_iterations = counter(gsched_obs::names::QBD_RMATRIX_ITERATIONS);
        self.warm_fallbacks = counter(gsched_obs::names::QBD_RMATRIX_WARM_MISSES);
    }

    /// The per-layer metrics, by the names `BENCHMARK.json` declares.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let r = &self.replay;
        let s = &self.service;
        let warm_total = (self.warm_hits + self.warm_misses).max(1) as f64;
        let generator_us = mean(&r.generator_us);
        let mut m = BTreeMap::new();
        m.insert(
            "scenario.parse_us",
            self.spans.mean_us("scenario.from_json"),
        );
        m.insert(
            "scenario.hash_us",
            self.spans.mean_us("scenario.content_hash"),
        );
        m.insert("scenario.model_us", self.spans.mean_us("scenario.model_at"));
        m.insert("engine.overhead_ms", mean(&self.engine_overhead_ms));
        m.insert("engine.warm_hit_ratio", self.warm_hits as f64 / warm_total);
        m.insert("core.fp_iterations", self.fp_iterations as f64);
        m.insert("core.class_solves", self.class_solves as f64);
        m.insert("core.unconverged", self.unconverged as f64);
        m.insert("core.vacation_us", mean(&r.vacation_us));
        m.insert("core.generator_us", generator_us);
        m.insert("core.effective_us", mean(&r.effective_us));
        m.insert("core.measures_us", mean(&r.measures_us));
        m.insert(
            "core.generator_share",
            generator_us * self.class_solves as f64 / (self.traced_wall_ms * 1e3),
        );
        m.insert("qbd.solve_warm_us", mean(&r.solve_warm_us));
        m.insert("qbd.solve_cold_us", mean(&r.solve_cold_us));
        m.insert("qbd.solve_r_us", mean(&r.solve_r_us));
        m.insert("qbd.drift_us", mean(&r.drift_us));
        m.insert("qbd.r_iterations", self.r_iterations as f64);
        m.insert("qbd.warm_fallbacks", self.warm_fallbacks as f64);
        m.insert("qbd.truncation_level_max", r.truncation_level_max);
        m.insert("qbd.certified_tail_max", r.certified_tail_max);
        m.insert("linalg.matmul_flops", self.work.matmul_flops as f64);
        m.insert("linalg.lu_flops", self.work.lu_flops as f64);
        m.insert("linalg.triangular_flops", self.work.triangular_flops as f64);
        m.insert("linalg.lu_us", r.lu_us());
        m.insert("service.hit_ratio", s.hit_ratio);
        m.insert("service.hit_rtt_p50_ms", s.hit_rtt_p50_ms);
        m.insert("service.queue_wait_p95_ms", s.queue_wait_p95_ms);
        m.insert("service.solve_p50_ms", s.solve_p50_ms);
        m.insert("service.coalesced", s.coalesced);
        m.insert("service.shed", s.shed);
        m.insert("service.gen_lag_max_ms", s.gen_lag_max_ms);
        m.insert(
            "obs.recorder_overhead",
            self.traced_wall_ms / self.untraced_wall_ms - 1.0,
        );
        m.insert("obs.traced_wall_ms", self.traced_wall_ms);
        m
    }

    /// Write the span file and per-layer report under `.bench_out/`.
    pub fn write(&self, workload: &str, seed: u64, metrics: &BTreeMap<&str, f64>) {
        let dir = std::path::Path::new(".bench_out");
        let rows: Vec<String> = metrics
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_f64(*v)))
            .collect();
        let mismatches: Vec<String> = self.replay.mismatches.iter().map(|m| json_str(m)).collect();
        let doc = format!(
            "{{\"workload\":{},\"seed\":{seed},\"per_layer\":{{{}}},\"replay_mismatches\":[{}],\"spans\":{}}}\n",
            json_str(workload),
            rows.join(","),
            mismatches.join(","),
            self.spans.to_json()
        );
        let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => eprintln!("perfbench: wrote {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
}
