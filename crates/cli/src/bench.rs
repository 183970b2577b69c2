//! `gsched bench` — canonical benchmark scenarios with telemetry capture
//! and regression gating.
//!
//! Each scenario reruns a workload the repository treats as canonical: the
//! solver sweeps behind the paper's Figures 2–5 plus one simulator run. For
//! every scenario the harness records the median wall time over `reps`
//! repetitions together with the solver/simulator metrics published through
//! `gsched_obs` (R-matrix solves and iterations, residuals, spectral radii,
//! drift margins, fixed-point iterations, simulator event rate). The result
//! is a schema-versioned [`BenchReport`] written as `BENCH_<label>.json`;
//! `--compare <baseline.json>` turns the same run into a regression gate.
//!
//! `--kernels` swaps the scenario set for the kernel microbenchmark: the
//! canonical op mix (matrix products, LU factorizations, triangular
//! solves) timed on the dense kernels at a ladder of QBD-like block
//! sizes. The rows use the same schema, so the history and `bench trend`
//! gate cover kernel regressions too — on the deterministic nominal flop
//! counters, not wall time.

use gsched_core::model::GangModel;
use gsched_core::qbd::LevelTruncation;
use gsched_core::SolverOptions;
use gsched_engine::{run_sweep, ScenarioBase, SweepOptions, SweepRequest};
use gsched_linalg::{Lu, Matrix, WorkCounters};
use gsched_obs as obs;
use gsched_scenario::{registry, Scenario as ScenarioIr};
use gsched_sim::{simulate, Policy, SimConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Version of the `BENCH_*.json` schema. Bump on incompatible changes.
///
/// v2: solver scenarios run through the `gsched-engine` sweep pool; adds
/// the top-level `jobs` field and the per-scenario `warm_hits`,
/// `warm_misses`, and `parallel_speedup` fields.
///
/// v3: adds the per-scenario dense-kernel work counters (`matmul_calls`,
/// `matmul_flops`, `lu_factorizations`, `lu_flops`, `triangular_solves`,
/// `triangular_flops`) and the `phases` self-time breakdown. The new
/// fields default when absent so a v2 file parses far enough to be
/// rejected with a clean version message.
///
/// v3 also carries the optional `gsched loadtest` fields (`requests`,
/// `request_errors`, `shed`, `cached_hits`, `p50_ms`, `p99_ms`, `rps`);
/// they default when absent, so earlier v3 files keep parsing.
pub const BENCH_SCHEMA_VERSION: u64 = 3;

/// Self-time attribution for one canonical span name within a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Canonical span name (`core.class*`, `qbd.solve_r`, ...).
    pub span: String,
    /// Completed span occurrences.
    pub count: u64,
    /// Self time in milliseconds (cumulative minus direct children).
    pub self_ms: f64,
    /// Cumulative time in milliseconds.
    pub cum_ms: f64,
}

/// Telemetry for one benchmark scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Scenario identifier (stable across runs; the compare key).
    pub name: String,
    /// `"solver"` or `"sim"`.
    pub kind: String,
    /// Median wall time over the repetitions, in milliseconds.
    pub wall_ms: f64,
    /// Models solved (solver scenarios) or simulated runs (sim scenarios).
    pub points: u64,
    /// Fixed-point iterations across all solves.
    pub fp_iterations: u64,
    /// `R`-matrix solves across all solves.
    pub rmatrix_solves: u64,
    /// Total inner iterations across those `R` solves.
    pub rmatrix_iterations: u64,
    /// Largest `R` residual seen (`None` for sim scenarios).
    pub max_r_residual: Option<f64>,
    /// Largest `sp(R)` seen (`None` for sim scenarios).
    pub max_spectral_radius: Option<f64>,
    /// Smallest drift margin seen (`None` for sim scenarios).
    pub min_drift_margin: Option<f64>,
    /// Simulator events processed (`0` for solver scenarios).
    pub sim_events: u64,
    /// Simulator event rate, events per wall-clock second (`None` for
    /// solver scenarios).
    pub sim_event_rate: Option<f64>,
    /// Sweep points solved from a warm start (`0` for sim scenarios).
    pub warm_hits: u64,
    /// Sweep points solved cold (`0` for sim scenarios).
    pub warm_misses: u64,
    /// Sequential median wall time divided by the parallel median
    /// (`None` for sim scenarios or when the run is sequential-only).
    pub parallel_speedup: Option<f64>,
    /// Matrix products performed during the last sequential repetition.
    #[serde(default = "u64::default")]
    pub matmul_calls: u64,
    /// Nominal matmul flops (`2·m·n·k` per product).
    #[serde(default = "u64::default")]
    pub matmul_flops: u64,
    /// LU factorizations performed.
    #[serde(default = "u64::default")]
    pub lu_factorizations: u64,
    /// Nominal LU flops (`2n³/3` per factorization).
    #[serde(default = "u64::default")]
    pub lu_flops: u64,
    /// Forward+backward substitution pairs performed.
    #[serde(default = "u64::default")]
    pub triangular_solves: u64,
    /// Nominal substitution flops (`2n²` per pair).
    #[serde(default = "u64::default")]
    pub triangular_flops: u64,
    /// Self-time breakdown by canonical span name, sorted by descending
    /// self time (empty for sim scenarios, which record no solver spans).
    #[serde(default = "Vec::new")]
    pub phases: Vec<PhaseBreakdown>,
    /// Replies received during a `gsched loadtest` run (`0` elsewhere).
    #[serde(default = "u64::default")]
    pub requests: u64,
    /// Error replies during a load test, including the expected errors
    /// from cancel traffic (`0` elsewhere).
    #[serde(default = "u64::default")]
    pub request_errors: u64,
    /// `overloaded` (shed) replies during a load test (`0` elsewhere).
    #[serde(default = "u64::default")]
    pub shed: u64,
    /// Cache-hit replies (`"cached":true`) during a load test.
    #[serde(default = "u64::default")]
    pub cached_hits: u64,
    /// Median request latency over the load test (`None` outside one).
    #[serde(default = "Option::default")]
    pub p50_ms: Option<f64>,
    /// 99th-percentile request latency (`None` outside a load test).
    #[serde(default = "Option::default")]
    pub p99_ms: Option<f64>,
    /// Completed replies per wall-clock second (`None` outside a load
    /// test).
    #[serde(default = "Option::default")]
    pub rps: Option<f64>,
}

/// A full benchmark run: schema version, label, and per-scenario telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Run label (`--label`), embedded in the output filename.
    pub label: String,
    /// Wall-time repetitions per scenario.
    pub reps: u64,
    /// Whether the reduced `--quick` scenario set was used.
    pub quick: bool,
    /// Worker threads used for the parallel sweep pass.
    pub jobs: u64,
    /// Per-scenario results, in execution order.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchReport {
    /// Serialize as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench report serializes")
    }

    /// Parse a report back from its JSON form.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let report: BenchReport =
            serde_json::from_str(text).map_err(|e| format!("bad bench JSON: {e}"))?;
        if report.schema_version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "bench schema version {} (expected {})",
                report.schema_version, BENCH_SCHEMA_VERSION
            ));
        }
        Ok(report)
    }
}

/// What one scenario actually runs.
enum Workload {
    /// Evaluate a sweep on the engine pool (warm-started) with the given
    /// solver options (default for the figure sweeps; certified truncation
    /// for the large-P scaling rows).
    Sweep {
        req: SweepRequest,
        solver: SolverOptions,
    },
    /// One simulator run under `policy` to the given horizon.
    Sim {
        model: GangModel,
        policy: Policy,
        horizon: f64,
    },
}

struct Scenario {
    name: String,
    workload: Workload,
}

/// The canonical scenario set. `quick` shrinks every sweep to a few points
/// and the simulation horizon by 10× — used by CI smoke runs.
fn scenarios(quick: bool) -> Vec<Scenario> {
    let rows = [
        "fig2_quantum_sweep_rho04",
        "fig3_quantum_sweep_rho06",
        "fig4_service_rate_sweep",
        "fig5_cycle_fraction_sweep",
    ];
    let mut out: Vec<Scenario> = registry::FIGURES
        .iter()
        .zip(rows)
        .map(|(fig, row)| Scenario {
            name: row.to_string(),
            workload: Workload::Sweep {
                req: registry::lookup(fig)
                    .expect("figures are registered")
                    .sweep_request(quick)
                    .expect("figure grids are valid"),
                solver: SolverOptions::default(),
            },
        })
        .collect();
    out.push(Scenario {
        name: "sim_gang_rho06".to_string(),
        workload: Workload::Sim {
            model: registry::paper_machine(0.6, 1.0, 2)
                .build()
                .expect("paper parameters are valid"),
            policy: Policy::Gang,
            horizon: if quick { 2_000.0 } else { 20_000.0 },
        },
    });
    out
}

/// Bench workload for one scenario-IR entry (`--scenario`): its declared
/// sweep when it has one, otherwise a single simulator run under its
/// policy.
fn ir_scenario(sc: &ScenarioIr, quick: bool) -> Result<Scenario, String> {
    let workload = if sc.sweep.is_some() {
        Workload::Sweep {
            req: sc.sweep_request(quick).map_err(|e| e.to_string())?,
            solver: SolverOptions::default(),
        }
    } else {
        let model = sc.build_model().map_err(|e| e.to_string())?;
        let horizon = sc.sim_config(if quick { 0.1 } else { 1.0 }).horizon;
        Workload::Sim {
            model,
            policy: sc.policy,
            horizon,
        }
    };
    Ok(Scenario {
        name: sc.name.clone(),
        workload,
    })
}

/// `NaN`-free view of a histogram extreme for the JSON schema.
fn hist_max(snap: &obs::Snapshot, name: &str) -> Option<f64> {
    snap.histogram(name)
        .map(|h| h.max)
        .filter(|v| v.is_finite())
}

fn hist_min(snap: &obs::Snapshot, name: &str) -> Option<f64> {
    snap.histogram(name)
        .map(|h| h.min)
        .filter(|v| v.is_finite())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
    xs[xs.len() / 2]
}

/// Run one scenario `reps` times; wall time is the median, metrics come
/// from the last repetition's snapshot.
///
/// Sweep scenarios run sequentially (`jobs = 1`) for the recorded wall
/// time — keeping the regression gate comparable across machines — and,
/// when `jobs > 1`, once more in parallel to record the speedup. Both
/// passes warm-start and return bitwise-identical results, so the
/// telemetry describes the same numerical work.
fn run_scenario(sc: &Scenario, reps: u64, jobs: usize) -> ScenarioResult {
    let mut wall_ms = Vec::with_capacity(reps as usize);
    let mut last_snap = None;
    let mut work = WorkCounters::default();
    let mut points = 0u64;
    for _ in 0..reps {
        let recorder = obs::install_memory();
        let base = WorkCounters::snapshot();
        let start = Instant::now();
        points = 0;
        match &sc.workload {
            Workload::Sweep { req, solver } => {
                // Sweep endpoints may be unstable or non-convergent; the
                // engine records those per point, they are not errors.
                let opts = SweepOptions::default()
                    .with_jobs(1)
                    .with_solver(solver.clone());
                let report = run_sweep(req, &opts);
                points = report.points.len() as u64;
            }
            Workload::Sim {
                model,
                policy,
                horizon,
            } => {
                let cfg = SimConfig {
                    horizon: *horizon,
                    warmup: horizon / 10.0,
                    seed: 7,
                    batches: 20,
                };
                let _ = simulate(model, *policy, cfg);
                points += 1;
            }
        }
        wall_ms.push(start.elapsed().as_secs_f64() * 1e3);
        work = base.delta_since();
        obs::uninstall();
        last_snap = Some(recorder.snapshot());
    }
    let seq_ms = median(wall_ms);
    let mut parallel_speedup = None;
    if let Workload::Sweep { req, solver } = &sc.workload {
        if jobs > 1 {
            let par_opts = SweepOptions::default()
                .with_jobs(jobs)
                .with_solver(solver.clone());
            let mut par_ms = Vec::with_capacity(reps as usize);
            for _ in 0..reps {
                let start = Instant::now();
                let _ = run_sweep(req, &par_opts);
                par_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
            let par = median(par_ms);
            if par > 0.0 {
                parallel_speedup = Some(seq_ms / par);
            }
        }
    }
    let snap = last_snap.expect("reps >= 1");
    let kind = match sc.workload {
        Workload::Sweep { .. } => "solver",
        Workload::Sim { .. } => "sim",
    };
    ScenarioResult {
        name: sc.name.clone(),
        kind: kind.to_string(),
        wall_ms: seq_ms,
        points,
        fp_iterations: snap.counter("core.solver.fp_iterations").unwrap_or(0),
        rmatrix_solves: snap.counter("qbd.rmatrix.solves").unwrap_or(0),
        rmatrix_iterations: snap.counter("qbd.rmatrix.iterations").unwrap_or(0),
        max_r_residual: hist_max(&snap, "qbd.rmatrix.residual"),
        max_spectral_radius: hist_max(&snap, "qbd.spectral_radius"),
        min_drift_margin: hist_min(&snap, "qbd.drift_margin"),
        sim_events: snap.counter("sim.events_processed").unwrap_or(0),
        sim_event_rate: snap.gauge("sim.event_rate_per_sec"),
        warm_hits: snap.counter("engine.warm.hits").unwrap_or(0),
        warm_misses: snap.counter("engine.warm.misses").unwrap_or(0),
        parallel_speedup,
        matmul_calls: work.matmul_calls,
        matmul_flops: work.matmul_flops,
        lu_factorizations: work.lu_factorizations,
        lu_flops: work.lu_flops,
        triangular_solves: work.triangular_solves,
        triangular_flops: work.triangular_flops,
        phases: phase_breakdown(&snap),
        requests: 0,
        request_errors: 0,
        shed: 0,
        cached_hits: 0,
        p50_ms: None,
        p99_ms: None,
        rps: None,
    }
}

/// Collapse a snapshot's span tree into the per-canonical-name self-time
/// rows stored in the report (also the raw phase table of `gsched
/// profile`).
pub fn phase_breakdown(snap: &obs::Snapshot) -> Vec<PhaseBreakdown> {
    let att = snap.attribution();
    att.by_name()
        .into_iter()
        .map(|(span, count, self_nanos)| {
            let cum_nanos: u64 = att
                .rows
                .iter()
                .filter(|r| obs::canonical_span_name(&r.name) == span)
                .map(|r| r.cum_nanos)
                .sum();
            PhaseBreakdown {
                span,
                count,
                self_ms: self_nanos as f64 / 1e6,
                cum_ms: cum_nanos as f64 / 1e6,
            }
        })
        .collect()
}

/// Run the canonical scenario set, or just `only` when a `--scenario` was
/// given. `jobs = 0` picks `min(4, cores)` for the parallel sweep pass.
pub fn run_bench(
    label: &str,
    reps: u64,
    quick: bool,
    jobs: usize,
    only: Option<&ScenarioIr>,
) -> Result<BenchReport, String> {
    let reps = reps.max(1);
    let jobs = if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(1)
    } else {
        jobs
    };
    let set = match only {
        Some(sc) => vec![ir_scenario(sc, quick)?],
        None => scenarios(quick),
    };
    let mut results = Vec::new();
    for sc in set {
        eprintln!("bench: running {} ({} reps)...", sc.name, reps);
        results.push(run_scenario(&sc, reps, jobs));
    }
    Ok(BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        label: label.to_string(),
        reps,
        quick,
        jobs: jobs as u64,
        scenarios: results,
    })
}

/// Entry point for `gsched bench --scaling`: the `p_sweep` registry
/// scenario solved point by point under automatic certified level
/// truncation, one scenario row per machine size (`scaling_p0008` …
/// `scaling_p4096`). The rows share the solver-bench schema, so the
/// history and `bench trend` gate cover how solve cost — wall time and
/// the deterministic work counters — scales with `P`.
pub fn run_scaling_bench(label: &str, reps: u64, quick: bool) -> Result<BenchReport, String> {
    let reps = reps.max(1);
    let sc = registry::lookup("p_sweep").ok_or("registry scenario `p_sweep` is missing")?;
    let req = sc.sweep_request(quick).map_err(|e| e.to_string())?;
    let mut solver = SolverOptions::default();
    solver.qbd.truncation = LevelTruncation::Auto {
        target_tail: sc.tolerance.certified_tail.unwrap_or(1e-8),
        min_levels: 4,
    };
    let mut results = Vec::new();
    for point in req.points {
        let name = format!("scaling_p{:04}", point.x as u64);
        eprintln!("bench: running {name} ({reps} reps)...");
        let single = SweepRequest::new(
            req.axis.clone(),
            ScenarioBase::labeled(name.clone()),
            vec![point],
        );
        let row = Scenario {
            name,
            workload: Workload::Sweep {
                req: single,
                solver: solver.clone(),
            },
        };
        // Single-point rows have no parallel pass (jobs = 1): the scaling
        // curve compares machine sizes, not worker counts.
        results.push(run_scenario(&row, reps, 1));
    }
    Ok(BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        label: label.to_string(),
        reps,
        quick,
        jobs: 1,
        scenarios: results,
    })
}

/// Matrix products per kernel-microbenchmark repetition.
const KERNEL_MATMULS: usize = 6;
/// LU factorizations per repetition.
const KERNEL_FACTORS: usize = 4;
/// Forward+backward vector solves per repetition (against one factor).
const KERNEL_SOLVES: usize = 16;

/// Block sizes exercised by `gsched bench --kernels`. The quick ladder tops
/// out at the largest block a truncated multi-class QBD generator produces
/// in practice; the full set adds one cache-pressure point.
fn kernel_sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[16, 48, 96]
    } else {
        &[16, 48, 96, 192]
    }
}

/// Operand shapes the microbenchmark exercises: a fully dense block and a
/// QBD-like narrow band, `kl = ku = max(2, n/8)`. The two shapes bracket
/// the block profiles the solver actually produces.
const KERNEL_SHAPES: [(&str, bool); 2] = [("dense", false), ("band", true)];

/// Deterministic diagonally dominant operand with the requested bandwidth.
fn kernel_operand(n: usize, bw: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        let lo = i.saturating_sub(bw);
        let hi = (i + bw).min(n - 1);
        for j in lo..=hi {
            m[(i, j)] = next();
        }
        m[(i, i)] += 2.0 * bw as f64 + 2.0;
    }
    m
}

/// Time the canonical kernel op mix at one block size and operand shape.
/// Wall time is the median over `reps`; the flop counters come from the
/// last repetition and are deterministic, which is what `bench trend`
/// gates on.
fn run_kernel_case(n: usize, shape: (&str, bool), reps: u64) -> ScenarioResult {
    let (shape_name, banded) = shape;
    let bw = if banded { (n / 8).max(2) } else { n };
    let a = kernel_operand(n, bw, 0x5eed + n as u64);
    let b = kernel_operand(n, bw, 0xfeed + n as u64);
    let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 1.5).collect();
    let mut wall_ms = Vec::with_capacity(reps as usize);
    let mut work = WorkCounters::default();
    for _ in 0..reps {
        let _recorder = obs::install_memory();
        let base = WorkCounters::snapshot();
        let start = Instant::now();
        for _ in 0..KERNEL_MATMULS {
            let c = a.matmul(&b).expect("kernel operands conform");
            std::hint::black_box(&c);
        }
        for i in 0..KERNEL_FACTORS {
            let f = Lu::new(&a).expect("operand is diagonally dominant");
            if i == 0 {
                for _ in 0..KERNEL_SOLVES {
                    let x = f.solve_vec(&rhs).expect("factor solves");
                    std::hint::black_box(&x);
                }
            }
            std::hint::black_box(&f);
        }
        wall_ms.push(start.elapsed().as_secs_f64() * 1e3);
        work = base.delta_since();
        obs::uninstall();
    }
    ScenarioResult {
        // The `naive` tag keeps the row names of the history rows recorded
        // when several kernel sets were timed side by side, so the trend
        // gate still compares against them.
        name: format!("kernel_naive_{shape_name}_n{n:03}"),
        kind: "kernel".to_string(),
        wall_ms: median(wall_ms),
        points: (KERNEL_MATMULS + KERNEL_FACTORS + KERNEL_SOLVES) as u64,
        fp_iterations: 0,
        rmatrix_solves: 0,
        rmatrix_iterations: 0,
        max_r_residual: None,
        max_spectral_radius: None,
        min_drift_margin: None,
        sim_events: 0,
        sim_event_rate: None,
        warm_hits: 0,
        warm_misses: 0,
        parallel_speedup: None,
        matmul_calls: work.matmul_calls,
        matmul_flops: work.matmul_flops,
        lu_factorizations: work.lu_factorizations,
        lu_flops: work.lu_flops,
        triangular_solves: work.triangular_solves,
        triangular_flops: work.triangular_flops,
        phases: Vec::new(),
        requests: 0,
        request_errors: 0,
        shed: 0,
        cached_hits: 0,
        p50_ms: None,
        p99_ms: None,
        rps: None,
    }
}

/// Kernel rows at every size and shape.
fn kernel_rows(sizes: &[usize], reps: u64) -> Vec<ScenarioResult> {
    sizes
        .iter()
        .flat_map(|&n| KERNEL_SHAPES.map(|shape| run_kernel_case(n, shape, reps)))
        .collect()
}

/// Entry point for `gsched bench --kernels`: the kernel microbenchmark
/// set instead of the canonical scenarios, same report schema and history.
pub fn run_kernel_bench(label: &str, reps: u64, quick: bool) -> Result<BenchReport, String> {
    let reps = reps.max(1);
    eprintln!("bench: running kernel microbenchmarks ({reps} reps)...");
    Ok(BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        label: label.to_string(),
        reps,
        quick,
        jobs: 1,
        scenarios: kernel_rows(kernel_sizes(quick), reps),
    })
}

/// Outcome of comparing a run against a baseline.
pub struct CompareOutcome {
    /// Per-scenario delta table rows (aligned, human-readable).
    pub lines: Vec<String>,
    /// One entry per wall-time regression beyond the threshold.
    pub regressions: Vec<String>,
}

/// Compare `current` against `baseline`: wall-time deltas per scenario, a
/// regression recorded when a scenario slowed down by more than
/// `threshold` (a fraction, e.g. `0.25` = 25%). Scenarios present on only
/// one side are reported but never count as regressions.
pub fn compare_reports(
    baseline: &BenchReport,
    current: &BenchReport,
    threshold: f64,
) -> CompareOutcome {
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    lines.push(format!(
        "{:<28} {:>12} {:>12} {:>9}  status",
        "scenario", "base ms", "current ms", "delta"
    ));
    for cur in &current.scenarios {
        let Some(base) = baseline.scenarios.iter().find(|b| b.name == cur.name) else {
            lines.push(format!(
                "{:<28} {:>12} {:>12.2} {:>9}  new (no baseline)",
                cur.name, "-", cur.wall_ms, "-"
            ));
            continue;
        };
        let delta = if base.wall_ms > 0.0 {
            cur.wall_ms / base.wall_ms - 1.0
        } else {
            0.0
        };
        let status = if delta > threshold {
            regressions.push(format!(
                "{}: {:.2} ms -> {:.2} ms ({:+.1}% > {:.1}% allowed)",
                cur.name,
                base.wall_ms,
                cur.wall_ms,
                delta * 100.0,
                threshold * 100.0
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        lines.push(format!(
            "{:<28} {:>12.2} {:>12.2} {:>+8.1}%  {status}",
            cur.name,
            base.wall_ms,
            cur.wall_ms,
            delta * 100.0
        ));
    }
    for base in &baseline.scenarios {
        if !current.scenarios.iter().any(|c| c.name == base.name) {
            lines.push(format!(
                "{:<28} {:>12.2} {:>12} {:>9}  missing from current run",
                base.name, base.wall_ms, "-", "-"
            ));
        }
    }
    CompareOutcome { lines, regressions }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scenario(name: &str, wall_ms: f64) -> ScenarioResult {
        ScenarioResult {
            name: name.to_string(),
            kind: "solver".to_string(),
            wall_ms,
            points: 3,
            fp_iterations: 42,
            rmatrix_solves: 12,
            rmatrix_iterations: 900,
            max_r_residual: Some(3.2e-13),
            max_spectral_radius: Some(0.81),
            min_drift_margin: Some(0.12),
            sim_events: 0,
            sim_event_rate: None,
            warm_hits: 9,
            warm_misses: 3,
            parallel_speedup: Some(1.8),
            matmul_calls: 5_000,
            matmul_flops: 9_000_000,
            lu_factorizations: 40,
            lu_flops: 120_000,
            triangular_solves: 800,
            triangular_flops: 64_000,
            phases: vec![PhaseBreakdown {
                span: "qbd.solve_r".to_string(),
                count: 12,
                self_ms: 6.5,
                cum_ms: 6.5,
            }],
            requests: 0,
            request_errors: 0,
            shed: 0,
            cached_hits: 0,
            p50_ms: None,
            p99_ms: None,
            rps: None,
        }
    }

    fn sample_report(wall_ms: f64) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            label: "test".to_string(),
            reps: 3,
            quick: true,
            jobs: 4,
            scenarios: vec![
                sample_scenario("fig2", wall_ms),
                sample_scenario("sim", 5.0),
            ],
        }
    }

    #[test]
    fn report_json_round_trips() {
        let report = sample_report(10.0);
        let text = report.to_json();
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut report = sample_report(10.0);
        report.schema_version = BENCH_SCHEMA_VERSION + 1;
        let err = BenchReport::from_json(&report.to_json()).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
    }

    #[test]
    fn nullable_metrics_survive_round_trip() {
        let mut report = sample_report(10.0);
        report.scenarios[0].max_r_residual = None;
        report.scenarios[0].min_drift_margin = None;
        report.scenarios[0].parallel_speedup = None;
        let back = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.scenarios[0].max_r_residual, None);
        assert_eq!(back.scenarios[0].min_drift_margin, None);
        assert_eq!(back.scenarios[0].parallel_speedup, None);
        assert_eq!(back.scenarios[0].max_spectral_radius, Some(0.81));
    }

    #[test]
    fn v2_fields_round_trip() {
        let report = sample_report(10.0);
        let text = report.to_json();
        for field in [
            "\"jobs\"",
            "\"warm_hits\"",
            "\"warm_misses\"",
            "\"parallel_speedup\"",
        ] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back.jobs, 4);
        assert_eq!(back.scenarios[0].warm_hits, 9);
        assert_eq!(back.scenarios[0].warm_misses, 3);
        assert_eq!(back.scenarios[0].parallel_speedup, Some(1.8));
    }

    #[test]
    fn v3_work_counters_round_trip_and_default() {
        let report = sample_report(10.0);
        let text = report.to_json();
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back.scenarios[0].matmul_flops, 9_000_000);
        assert_eq!(back.scenarios[0].phases.len(), 1);
        assert_eq!(back.scenarios[0].phases[0].span, "qbd.solve_r");
        // A v2-shaped document (no work counters) still parses far enough
        // for the version check to reject it cleanly.
        let mut old = report.clone();
        old.schema_version = 2;
        let v2ish = old
            .to_json()
            .lines()
            .filter(|l| {
                !(l.contains("matmul")
                    || l.contains("lu_fact")
                    || l.contains("lu_flops")
                    || l.contains("triangular"))
            })
            .collect::<Vec<_>>()
            .join("\n");
        let err = BenchReport::from_json(&v2ish).unwrap_err();
        assert!(err.contains("schema version 2"), "{err}");
    }

    #[test]
    fn loadtest_fields_default_when_absent() {
        // A v3 file written before the loadtest fields existed still
        // parses, with the load metrics defaulting to zero/None.
        let report = sample_report(10.0);
        let mut v: serde_json::Value = serde_json::from_str(&report.to_json()).unwrap();
        let load_keys = [
            "requests",
            "request_errors",
            "shed",
            "cached_hits",
            "p50_ms",
            "p99_ms",
            "rps",
        ];
        let serde_json::Value::Object(top) = &mut v else {
            panic!("report is not an object");
        };
        let scenarios = &mut top
            .iter_mut()
            .find(|(k, _)| k == "scenarios")
            .expect("scenarios key")
            .1;
        let serde_json::Value::Array(rows) = scenarios else {
            panic!("scenarios is not an array");
        };
        for row in rows {
            let serde_json::Value::Object(fields) = row else {
                panic!("scenario row is not an object");
            };
            let before = fields.len();
            fields.retain(|(k, _)| !load_keys.contains(&k.as_str()));
            assert_eq!(before - fields.len(), load_keys.len());
        }
        let back = BenchReport::from_json(&v.to_string()).unwrap();
        assert_eq!(back.scenarios[0].requests, 0);
        assert_eq!(back.scenarios[0].shed, 0);
        assert_eq!(back.scenarios[0].p99_ms, None);
        assert_eq!(back.scenarios[0].rps, None);
    }

    #[test]
    fn compare_flags_regressions_beyond_threshold() {
        let base = sample_report(10.0);
        let cur = sample_report(14.0); // +40% on fig2, sim unchanged
        let out = compare_reports(&base, &cur, 0.25);
        assert_eq!(out.regressions.len(), 1, "{:?}", out.regressions);
        assert!(out.regressions[0].contains("fig2"));
        assert!(out.lines.iter().any(|l| l.contains("REGRESSED")));
        assert!(out.lines.iter().any(|l| l.contains("ok")));
    }

    #[test]
    fn compare_within_threshold_is_clean() {
        let base = sample_report(10.0);
        let cur = sample_report(11.0); // +10%
        let out = compare_reports(&base, &cur, 0.25);
        assert!(out.regressions.is_empty(), "{:?}", out.regressions);
    }

    #[test]
    fn compare_handles_scenario_set_drift() {
        let mut base = sample_report(10.0);
        base.scenarios.push(sample_scenario("retired", 3.0));
        let mut cur = sample_report(10.0);
        cur.scenarios.push(sample_scenario("brand_new", 2.0));
        let out = compare_reports(&base, &cur, 0.25);
        assert!(out.regressions.is_empty());
        assert!(out.lines.iter().any(|l| l.contains("new (no baseline)")));
        assert!(out
            .lines
            .iter()
            .any(|l| l.contains("missing from current run")));
    }

    #[test]
    fn kernel_rows_cover_every_shape_with_textbook_work() {
        let n = 12u64;
        let want = [
            (KERNEL_MATMULS as u64) * 2 * n.pow(3),
            (KERNEL_FACTORS as u64) * (2 * n.pow(3) / 3),
            (KERNEL_SOLVES as u64) * 2 * n.pow(2),
        ];
        // The flop counters are process-global and other tests in this
        // binary run solves concurrently; retry until a quiet window gives
        // the exact textbook charge on every row.
        let mut clean = None;
        'attempt: for _ in 0..100 {
            let rows = kernel_rows(&[n as usize], 1);
            for r in &rows {
                if [r.matmul_flops, r.lu_flops, r.triangular_flops] != want {
                    continue 'attempt;
                }
            }
            clean = Some(rows);
            break;
        }
        let rows = clean.expect("no quiet counter window in 100 attempts");
        assert_eq!(rows.len(), KERNEL_SHAPES.len());
        for (r, (shape, _)) in rows.iter().zip(KERNEL_SHAPES) {
            assert_eq!(r.name, format!("kernel_naive_{shape}_n012"));
            assert_eq!(r.kind, "kernel");
            assert!(r.wall_ms >= 0.0 && r.wall_ms.is_finite());
            assert_eq!(r.matmul_calls, KERNEL_MATMULS as u64);
            assert_eq!(r.lu_factorizations, KERNEL_FACTORS as u64);
            assert_eq!(r.triangular_solves, KERNEL_SOLVES as u64);
        }
    }

    #[test]
    fn kernel_size_ladder_is_quick_prefix_of_full() {
        let quick = kernel_sizes(true);
        let full = kernel_sizes(false);
        assert!(full.starts_with(quick));
        assert!(full.len() > quick.len());
        assert!(quick.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn quick_scenarios_cover_fig2_to_fig5_and_sim() {
        let set = scenarios(true);
        let names: Vec<&str> = set.iter().map(|s| s.name.as_str()).collect();
        for want in ["fig2", "fig3", "fig4", "fig5", "sim_"] {
            assert!(
                names.iter().any(|n| n.starts_with(want)),
                "missing scenario {want} in {names:?}"
            );
        }
    }
}
