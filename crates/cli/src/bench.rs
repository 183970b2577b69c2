//! `gsched bench` — deterministic work counters for the canonical
//! benchmark scenarios.
//!
//! Each scenario reruns a workload the repository treats as canonical: the
//! solver sweeps behind the paper's Figures 2–5 plus one simulator run, or
//! (`--scaling`) the large-P `p_sweep` curve one machine size per row. For
//! every scenario the harness records the work the run did, as published
//! through `gsched_obs` and the `gsched-linalg` kernel counters: fixed-point
//! and `R` iterations, `R` solves, kernel calls and nominal flops,
//! simulator events, warm-start hits, and the largest residual, spectral
//! radius and smallest drift margin seen. The result is a schema-versioned
//! [`BenchReport`] written as `BENCH_<label>.json` and appended to the
//! history that `gsched bench trend --gate` compares.
//!
//! The counters are identical from run to run, so a change in one means
//! the code does different work. `gsched bench` records no wall time: the
//! repository benchmark in `perfbench/` is the one program that times the
//! solver, with repeated runs, their spread, and the recorder off.

use gsched_core::model::GangModel;
use gsched_core::qbd::LevelTruncation;
use gsched_core::SolverOptions;
use gsched_engine::{run_sweep, ScenarioBase, SweepOptions, SweepRequest};
use gsched_linalg::WorkCounters;
use gsched_obs as obs;
use gsched_scenario::{registry, Scenario as ScenarioIr};
use gsched_sim::{simulate, Policy, SimConfig};
use serde::{Deserialize, Serialize};

/// Version of the `BENCH_*.json` schema. Bump on incompatible changes.
///
/// v4: work counters only. The wall-time fields (`wall_ms`,
/// `sim_event_rate`, `parallel_speedup`, the loadtest `p50_ms`/`p99_ms`/
/// `rps`), the `phases` breakdown and the top-level `reps`/`jobs` are gone.
pub const BENCH_SCHEMA_VERSION: u64 = 4;

/// Work counters for one benchmark scenario.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Scenario identifier (stable across runs; the trend key).
    pub name: String,
    /// `"solver"`, `"sim"` or `"loadtest"`.
    pub kind: String,
    /// Models solved (solver scenarios), simulated runs (sim scenarios) or
    /// successful replies (load tests).
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
    /// Sweep points solved from a warm start (`0` for sim scenarios).
    pub warm_hits: u64,
    /// Sweep points solved cold (`0` for sim scenarios).
    pub warm_misses: u64,
    /// Matrix products performed.
    pub matmul_calls: u64,
    /// Nominal matmul flops (`2·m·n·k` per product).
    pub matmul_flops: u64,
    /// LU factorizations performed.
    pub lu_factorizations: u64,
    /// Nominal LU flops (`2n³/3` per factorization).
    pub lu_flops: u64,
    /// Forward+backward substitution pairs performed.
    pub triangular_solves: u64,
    /// Nominal substitution flops (`2n²` per pair).
    pub triangular_flops: u64,
    /// Replies received during a `gsched loadtest` run (`0` elsewhere).
    pub requests: u64,
    /// Error replies during a load test, including the expected errors
    /// from cancel traffic (`0` elsewhere).
    pub request_errors: u64,
    /// `overloaded` (shed) replies during a load test (`0` elsewhere).
    pub shed: u64,
    /// Cache-hit replies (`"cached":true`) during a load test.
    pub cached_hits: u64,
}

/// A full benchmark run: schema version, label, and per-scenario counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Run label (`--label`), embedded in the output filename.
    pub label: String,
    /// Whether the reduced `--quick` scenario set was used.
    pub quick: bool,
    /// Per-scenario results, in execution order.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchReport {
    /// A report at the current schema version.
    pub fn new(label: &str, quick: bool, scenarios: Vec<ScenarioResult>) -> Self {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            label: label.to_string(),
            quick,
            scenarios,
        }
    }

    /// Serialize as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench report serializes")
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

/// Run one scenario once under a fresh recorder and read its counters.
///
/// The recorder is what publishes the solver counters, and the kernel
/// work counters count only while one is installed. Sweep scenarios run
/// sequentially (`jobs = 1`) with warm starting, so the counters describe
/// one fixed sequence of solves.
fn run_scenario(sc: &Scenario) -> ScenarioResult {
    let recorder = obs::install_memory();
    let base = WorkCounters::snapshot();
    let (kind, points) = match &sc.workload {
        Workload::Sweep { req, solver } => {
            // Sweep endpoints may be unstable or non-convergent; the
            // engine records those per point, they are not errors.
            let opts = SweepOptions::default()
                .with_jobs(1)
                .with_solver(solver.clone());
            ("solver", run_sweep(req, &opts).points.len() as u64)
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
            ("sim", 1)
        }
    };
    let work = base.delta_since();
    obs::uninstall();
    let snap = recorder.snapshot();
    ScenarioResult {
        name: sc.name.clone(),
        kind: kind.to_string(),
        points,
        fp_iterations: snap.counter("core.solver.fp_iterations").unwrap_or(0),
        rmatrix_solves: snap.counter("qbd.rmatrix.solves").unwrap_or(0),
        rmatrix_iterations: snap.counter("qbd.rmatrix.iterations").unwrap_or(0),
        max_r_residual: hist_max(&snap, "qbd.rmatrix.residual"),
        max_spectral_radius: hist_max(&snap, "qbd.spectral_radius"),
        min_drift_margin: hist_min(&snap, "qbd.drift_margin"),
        sim_events: snap.counter("sim.events_processed").unwrap_or(0),
        warm_hits: snap.counter("engine.warm.hits").unwrap_or(0),
        warm_misses: snap.counter("engine.warm.misses").unwrap_or(0),
        matmul_calls: work.matmul_calls,
        matmul_flops: work.matmul_flops,
        lu_factorizations: work.lu_factorizations,
        lu_flops: work.lu_flops,
        triangular_solves: work.triangular_solves,
        triangular_flops: work.triangular_flops,
        ..ScenarioResult::default()
    }
}

/// Run every scenario of `set`, in order, into one report.
fn run_set(label: &str, quick: bool, set: Vec<Scenario>) -> BenchReport {
    let scenarios = set
        .iter()
        .map(|sc| {
            eprintln!("bench: running {}...", sc.name);
            run_scenario(sc)
        })
        .collect();
    BenchReport::new(label, quick, scenarios)
}

/// Run the canonical scenario set, or just `only` when a `--scenario` was
/// given.
pub fn run_bench(
    label: &str,
    quick: bool,
    only: Option<&ScenarioIr>,
) -> Result<BenchReport, String> {
    let set = match only {
        Some(sc) => vec![ir_scenario(sc, quick)?],
        None => scenarios(quick),
    };
    Ok(run_set(label, quick, set))
}

/// Entry point for `gsched bench --scaling`: the `p_sweep` registry
/// scenario solved point by point under automatic certified level
/// truncation, one scenario row per machine size (`scaling_p0008` …
/// `scaling_p4096`). The rows share the solver-bench schema, so the
/// history and `bench trend` gate cover how solve work scales with `P`.
pub fn run_scaling_bench(label: &str, quick: bool) -> Result<BenchReport, String> {
    let sc = registry::lookup("p_sweep").ok_or("registry scenario `p_sweep` is missing")?;
    let req = sc.sweep_request(quick).map_err(|e| e.to_string())?;
    let mut solver = SolverOptions::default();
    solver.qbd.truncation = LevelTruncation::Auto {
        target_tail: sc.tolerance.certified_tail.unwrap_or(1e-8),
        min_levels: 4,
    };
    let set = req
        .points
        .into_iter()
        .map(|point| {
            let name = format!("scaling_p{:04}", point.x as u64);
            Scenario {
                workload: Workload::Sweep {
                    req: SweepRequest::new(
                        req.axis.clone(),
                        ScenarioBase::labeled(name.clone()),
                        vec![point],
                    ),
                    solver: solver.clone(),
                },
                name,
            }
        })
        .collect();
    Ok(run_set(label, quick, set))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        let fig2 = ScenarioResult {
            name: "fig2".to_string(),
            kind: "solver".to_string(),
            points: 3,
            fp_iterations: 42,
            rmatrix_solves: 12,
            rmatrix_iterations: 900,
            max_r_residual: Some(3.2e-13),
            max_spectral_radius: Some(0.81),
            min_drift_margin: Some(0.12),
            warm_hits: 9,
            warm_misses: 3,
            matmul_calls: 5_000,
            matmul_flops: 9_000_000,
            lu_factorizations: 40,
            lu_flops: 120_000,
            triangular_solves: 800,
            triangular_flops: 64_000,
            ..ScenarioResult::default()
        };
        let sim = ScenarioResult {
            name: "sim".to_string(),
            kind: "sim".to_string(),
            points: 1,
            sim_events: 12_345,
            ..ScenarioResult::default()
        };
        BenchReport::new("test", true, vec![fig2, sim])
    }

    #[test]
    fn report_json_round_trips() {
        let report = sample_report();
        let back: BenchReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.schema_version, BENCH_SCHEMA_VERSION);
    }

    #[test]
    fn nullable_metrics_survive_round_trip() {
        let mut report = sample_report();
        report.scenarios[0].max_r_residual = None;
        report.scenarios[0].min_drift_margin = None;
        let back: BenchReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back.scenarios[0].max_r_residual, None);
        assert_eq!(back.scenarios[0].min_drift_margin, None);
        assert_eq!(back.scenarios[0].max_spectral_radius, Some(0.81));
        assert_eq!(back.scenarios[1].max_spectral_radius, None);
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
