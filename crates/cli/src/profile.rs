//! `gsched profile` — where does a solve actually spend its time?
//!
//! Runs a scenario's workload through the same engine sweep `gsched
//! sweep` runs (`run_sweep`, chunked warm-start chains and all) with one
//! worker, which is the calling thread, so every span nests under the
//! command's own stack and self-time attribution partitions the measured
//! wall clock. On top of the span tree it reports the dense-kernel work
//! counters from `gsched-linalg` — calls, nominal flops, and achieved
//! GFLOP/s — and the iteration counts of the outer fixed point and the
//! `R` solves.
//!
//! The `--json` document is schema-versioned ([`PROFILE_SCHEMA_VERSION`])
//! and consumed by the CI `profile-smoke` job, which asserts the phase
//! table attributes at least 90% of wall time.

use gsched_core::solver::SolverOptions;
use gsched_engine::{run_sweep, ScenarioBase, SweepAxis, SweepOptions, SweepPoint, SweepRequest};
use gsched_linalg::WorkCounters;
use gsched_obs as obs;
use gsched_scenario::{registry, Scenario};
use serde::Serialize;
use std::collections::HashMap;
use std::time::Instant;

/// Version of the `gsched profile --json` document. Bump on incompatible
/// changes.
pub const PROFILE_SCHEMA_VERSION: u64 = 2;

/// One row of the phase table: a canonical span name with its self time.
#[derive(Debug, Serialize)]
pub struct PhaseRow {
    /// Canonical span name (`core.class*`, `qbd.solve_r`, ...).
    pub span: String,
    /// Human phase label (`R iteration`, `generator build`, ...).
    pub phase: String,
    /// Completed span occurrences.
    pub count: u64,
    /// Self time in milliseconds (cumulative minus direct children).
    pub self_ms: f64,
    /// Cumulative time in milliseconds.
    pub cum_ms: f64,
    /// `self_ms / wall_ms`.
    pub fraction: f64,
}

/// Work and achieved rate for one kernel family.
#[derive(Debug, Serialize)]
pub struct KernelRow {
    /// Kernel family (`matmul`, `lu_factorization`, `triangular_solve`).
    pub kernel: String,
    /// Kernel invocations.
    pub calls: u64,
    /// Nominal flops across those invocations.
    pub flops: u64,
    /// `flops / wall`, in GFLOP/s — the rate achieved over the whole run,
    /// not a per-kernel microbenchmark.
    pub gflops_per_sec: f64,
}

/// Iteration counters of the fixed point and the `R` solves.
#[derive(Debug, Serialize)]
pub struct ConvergenceCounters {
    /// Outer fixed-point iterations (`core.solver.fp_iterations`).
    pub fp_iterations: u64,
    /// Anderson history resets of the fixed point
    /// (`core.solver.fp_restarts`).
    pub fp_restarts: u64,
    /// Final fixed-point change of the last solve, when recorded
    /// (`core.solver.final_change`).
    pub final_change: Option<f64>,
    /// `R` solves (`qbd.rmatrix.solves`).
    pub r_solves: u64,
    /// Iterations across those solves (`qbd.rmatrix.iterations`).
    pub r_iterations: u64,
}

/// Deterministic work counters of the certified level-truncation search
/// (all zero when no solve truncates).
#[derive(Debug, Serialize)]
pub struct SearchCounters {
    /// Frozen-capacity truncations tried (`qbd.truncation.attempts`).
    pub truncation_attempts: u64,
    /// Attempts skipped by the drift test before any other work
    /// (`qbd.truncation.unstable_skips`).
    pub unstable_skips: u64,
    /// Levels eliminated by the boundary solves, each level once per
    /// class solve (`qbd.boundary.levels_eliminated`).
    pub levels_eliminated: u64,
    /// Boundary levels assembled, each level once per class chain, when a
    /// solve first reads it (`qbd.boundary.levels_built`).
    pub levels_built: u64,
}

/// The full `gsched profile` document.
#[derive(Debug, Serialize)]
pub struct ProfileReport {
    /// Document version ([`PROFILE_SCHEMA_VERSION`]).
    pub profile_schema_version: u64,
    /// Workload identifier (scenario or figure set).
    pub workload: String,
    /// Whether the reduced `--quick` point grids were used.
    pub quick: bool,
    /// Models solved.
    pub points: u64,
    /// Points that failed to solve (unstable/non-convergent ends of a
    /// sweep; counted, not fatal).
    pub failed_points: u64,
    /// Wall time of the measured loop, in milliseconds.
    pub wall_ms: f64,
    /// Total attributed self time, in milliseconds.
    pub attributed_ms: f64,
    /// `attributed_ms / wall_ms` — the CI invariant is `>= 0.9`.
    pub attributed_fraction: f64,
    /// Phase table, sorted by descending self time.
    pub phases: Vec<PhaseRow>,
    /// Kernel work counters with achieved rates.
    pub kernels: Vec<KernelRow>,
    /// Fixed-point and `R`-solve iteration counters.
    pub convergence: ConvergenceCounters,
    /// Truncation-search counters.
    pub search: SearchCounters,
}

/// Human phase label for a canonical span name.
fn phase_label(span: &str) -> &'static str {
    match span {
        "core.solve" => "fixed-point orchestration",
        "core.class*" => "class orchestration",
        "core.vacation" => "vacation analysis",
        "core.generator" => "generator build",
        "core.effective" => "effective quanta",
        "core.measures" => "stationary measures",
        "qbd.solve" => "QBD assembly",
        "qbd.truncation" => "truncation search",
        "qbd.drift" => "drift test",
        "qbd.solve_r" => "R iteration",
        "qbd.inverse" => "(I-R)^-1 stability gate",
        "qbd.boundary_solve" => "boundary solve",
        s if s.starts_with("engine.sweep.") => "sweep engine",
        _ => "other",
    }
}

/// Collapse a snapshot's span tree into one phase row per canonical span
/// name, sorted by descending self time.
fn phase_breakdown(snap: &obs::Snapshot, wall_ms: f64) -> Vec<PhaseRow> {
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
            let self_ms = self_nanos as f64 / 1e6;
            PhaseRow {
                phase: phase_label(&span).to_string(),
                span,
                count,
                self_ms,
                cum_ms: cum_nanos as f64 / 1e6,
                fraction: self_ms / wall_ms.max(1e-9),
            }
        })
        .collect()
}

/// One sweep a profile run evaluates.
struct Workload {
    req: SweepRequest,
    /// The scenario the request came from; it decides the solver, as in
    /// `gsched sweep`.
    scenario: Scenario,
}

/// A scenario's workload: its declared sweep when it has one, otherwise
/// a one-point request for its single model.
fn scenario_workload(sc: Scenario, quick: bool) -> Result<Workload, String> {
    let req = if sc.sweep.is_some() {
        sc.sweep_request(quick).map_err(|e| e.to_string())?
    } else {
        let model = sc.build_model().map_err(|e| e.to_string())?;
        SweepRequest::new(
            SweepAxis::Custom("point".to_string()),
            ScenarioBase::labeled(sc.name.clone()),
            vec![SweepPoint { x: 0.0, model }],
        )
    };
    Ok(Workload { req, scenario: sc })
}

/// Resolve the requested workload set: `--sweep fig2..fig5|all` takes the
/// paper-figure sweeps, otherwise the positional scenario (registry name
/// or file) supplies either its declared sweep or its single model.
fn workloads(
    pos: &[String],
    flags: &HashMap<String, String>,
    quick: bool,
) -> Result<Vec<Workload>, String> {
    if let Some(which) = flags.get("sweep") {
        if !pos.is_empty() {
            return Err("profile: give either a scenario or --sweep, not both".to_string());
        }
        let figures: Vec<&str> = match which.as_str() {
            "all" => registry::FIGURES.to_vec(),
            one if registry::FIGURES.contains(&one) => vec![one],
            _ => {
                return Err(format!(
                    "unknown --sweep `{which}` ({}|all)",
                    registry::FIGURES.join("|")
                ))
            }
        };
        return figures
            .into_iter()
            .map(|fig| {
                let sc = registry::lookup(fig).expect("figures are registered");
                scenario_workload(sc, quick)
            })
            .collect();
    }
    let arg = pos
        .first()
        .ok_or("profile: missing <scenario> (registry name or file.json; or --sweep)")?;
    Ok(vec![scenario_workload(crate::load_scenario(arg)?, quick)?])
}

/// Run the workloads under a fresh recorder, optionally export the Chrome
/// trace, and assemble the report — one instrumented run feeds everything.
fn measure(
    workloads: &[Workload],
    solver: &SolverOptions,
    quick: bool,
    trace_path: Option<&str>,
) -> Result<ProfileReport, String> {
    let recorder = obs::install_memory();
    let base = WorkCounters::snapshot();
    let start = Instant::now();
    let (mut points, mut failed) = (0, 0);
    for w in workloads {
        // One worker: the sweep runs on this thread, so its spans nest
        // under this stack and the engine leaves per-class parallelism off.
        let opts = SweepOptions::default()
            .with_jobs(1)
            .with_solver(w.scenario.solver_options(solver));
        let report = run_sweep(&w.req, &opts);
        points += report.points.len() as u64;
        failed += report.failures() as u64;
    }
    let wall = start.elapsed();
    let work = base.delta_since();
    obs::uninstall();
    let snap = recorder.snapshot();
    if let Some(path) = trace_path {
        obs::write_atomic(path, snap.to_chrome_trace().as_bytes())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }

    let wall_ms = wall.as_secs_f64() * 1e3;
    let attributed_ms = snap.attribution().total_self_nanos() as f64 / 1e6;
    let phases = phase_breakdown(&snap, wall_ms);
    let secs = wall.as_secs_f64().max(1e-12);
    let kernel = |name: &str, calls: u64, flops: u64| KernelRow {
        kernel: name.to_string(),
        calls,
        flops,
        gflops_per_sec: flops as f64 / secs / 1e9,
    };
    let names: Vec<&str> = workloads.iter().map(|w| w.scenario.name.as_str()).collect();
    Ok(ProfileReport {
        profile_schema_version: PROFILE_SCHEMA_VERSION,
        workload: names.join("+"),
        quick,
        points,
        failed_points: failed,
        wall_ms,
        attributed_ms,
        attributed_fraction: attributed_ms / wall_ms.max(1e-9),
        phases,
        kernels: vec![
            kernel("matmul", work.matmul_calls, work.matmul_flops),
            kernel("lu_factorization", work.lu_factorizations, work.lu_flops),
            kernel(
                "triangular_solve",
                work.triangular_solves,
                work.triangular_flops,
            ),
        ],
        convergence: ConvergenceCounters {
            fp_iterations: snap
                .counter(obs::names::CORE_SOLVER_FP_ITERATIONS)
                .unwrap_or(0),
            fp_restarts: snap
                .counter(obs::names::CORE_SOLVER_FP_RESTARTS)
                .unwrap_or(0),
            final_change: snap.gauge(obs::names::CORE_SOLVER_FINAL_CHANGE),
            r_solves: snap.counter(obs::names::QBD_RMATRIX_SOLVES).unwrap_or(0),
            r_iterations: snap
                .counter(obs::names::QBD_RMATRIX_ITERATIONS)
                .unwrap_or(0),
        },
        search: SearchCounters {
            truncation_attempts: snap
                .counter(obs::names::QBD_TRUNCATION_ATTEMPTS)
                .unwrap_or(0),
            unstable_skips: snap
                .counter(obs::names::QBD_TRUNCATION_UNSTABLE_SKIPS)
                .unwrap_or(0),
            levels_eliminated: snap
                .counter(obs::names::QBD_BOUNDARY_LEVELS_ELIMINATED)
                .unwrap_or(0),
            levels_built: snap
                .counter(obs::names::QBD_BOUNDARY_LEVELS_BUILT)
                .unwrap_or(0),
        },
    })
}

fn print_human(rep: &ProfileReport) {
    println!(
        "profile: {} — {} point(s) ({} failed), wall {:.2} ms, attributed {:.2} ms ({:.1}%)",
        rep.workload,
        rep.points,
        rep.failed_points,
        rep.wall_ms,
        rep.attributed_ms,
        rep.attributed_fraction * 100.0
    );
    println!(
        "{:<26} {:<24} {:>8} {:>10} {:>10} {:>7}",
        "phase", "span", "count", "self ms", "cum ms", "wall%"
    );
    for p in &rep.phases {
        println!(
            "{:<26} {:<24} {:>8} {:>10.2} {:>10.2} {:>6.1}%",
            p.phase,
            p.span,
            p.count,
            p.self_ms,
            p.cum_ms,
            p.fraction * 100.0
        );
    }
    println!(
        "{:<26} {:>12} {:>16} {:>10}",
        "kernel", "calls", "flops", "GFLOP/s"
    );
    for k in &rep.kernels {
        println!(
            "{:<26} {:>12} {:>16} {:>10.3}",
            k.kernel, k.calls, k.flops, k.gflops_per_sec
        );
    }
    println!(
        "truncation search: {} attempt(s), {} skipped as unstable, {} level(s) eliminated, {} level(s) built",
        rep.search.truncation_attempts,
        rep.search.unstable_skips,
        rep.search.levels_eliminated,
        rep.search.levels_built
    );
    let c = &rep.convergence;
    println!(
        "convergence: {} fixed-point iteration(s), {} restart(s), final change {}; {} R solve(s), {} R iteration(s)",
        c.fp_iterations,
        c.fp_restarts,
        c.final_change
            .map_or_else(|| "-".to_string(), |x| format!("{x:.3e}")),
        c.r_solves,
        c.r_iterations
    );
}

/// Entry point for `gsched profile`.
pub fn run(args: &[String]) -> Result<(), String> {
    let (pos, flags) = crate::parse_flags("profile", args)?;
    // Profile owns the recorder for the duration of the measured loop; a
    // second capture of the same run would race with it.
    crate::reject_flags(
        "profile",
        &flags,
        &["diag", "verbose"],
        "profile instruments itself; use --trace/--json",
    )?;
    let quick = flags.contains_key("quick");
    let workloads = workloads(&pos, &flags, quick)?;
    let solver = crate::solver_options(&flags)?;
    let rep = measure(
        &workloads,
        &solver,
        quick,
        flags.get("trace").map(String::as_str),
    )?;
    if flags.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&rep).expect("profile report serializes")
        );
    } else {
        print_human(&rep);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_cover_the_instrumented_spans() {
        for span in [
            "core.solve",
            "core.class*",
            "core.vacation",
            "core.generator",
            "core.effective",
            "core.measures",
            "qbd.solve",
            "qbd.truncation",
            "qbd.drift",
            "qbd.solve_r",
            "qbd.inverse",
            "qbd.boundary_solve",
        ] {
            assert_ne!(phase_label(span), "other", "no label for {span}");
        }
        assert_eq!(phase_label("engine.sweep.chunk*"), "sweep engine");
        assert_eq!(phase_label("service.request"), "other");
    }

    #[test]
    fn profile_report_encodes_every_field() {
        let rep = ProfileReport {
            profile_schema_version: PROFILE_SCHEMA_VERSION,
            workload: "fig2".to_string(),
            quick: true,
            points: 4,
            failed_points: 1,
            wall_ms: 12.5,
            attributed_ms: 12.0,
            attributed_fraction: 0.96,
            phases: vec![PhaseRow {
                span: "qbd.solve_r".to_string(),
                phase: "R iteration".to_string(),
                count: 40,
                self_ms: 8.0,
                cum_ms: 8.0,
                fraction: 0.64,
            }],
            kernels: vec![KernelRow {
                kernel: "matmul".to_string(),
                calls: 1000,
                flops: 2_000_000,
                gflops_per_sec: 0.16,
            }],
            convergence: ConvergenceCounters {
                fp_iterations: 9,
                fp_restarts: 2,
                final_change: Some(1e-9),
                r_solves: 36,
                r_iterations: 180,
            },
            search: SearchCounters {
                truncation_attempts: 12,
                unstable_skips: 8,
                levels_eliminated: 2048,
                levels_built: 2050,
            },
        };
        let v: serde_json::Value =
            serde_json::from_str(&serde_json::to_string_pretty(&rep).unwrap()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "profile_schema_version",
                "workload",
                "quick",
                "points",
                "failed_points",
                "wall_ms",
                "attributed_ms",
                "attributed_fraction",
                "phases",
                "kernels",
                "convergence",
                "search"
            ]
        );
        assert_eq!(
            v["profile_schema_version"].as_u64(),
            Some(PROFILE_SCHEMA_VERSION)
        );
        assert_eq!(v["workload"].as_str(), Some("fig2"));
        assert_eq!(v["quick"].as_bool(), Some(true));
        assert_eq!(v["points"].as_u64(), Some(4));
        assert_eq!(v["failed_points"].as_u64(), Some(1));
        assert_eq!(v["attributed_fraction"].as_f64(), Some(0.96));
        assert_eq!(v["phases"][0]["span"].as_str(), Some("qbd.solve_r"));
        assert_eq!(v["phases"][0]["phase"].as_str(), Some("R iteration"));
        assert_eq!(v["phases"][0]["count"].as_u64(), Some(40));
        assert_eq!(v["kernels"][0]["kernel"].as_str(), Some("matmul"));
        assert_eq!(v["kernels"][0]["flops"].as_u64(), Some(2_000_000));
        assert_eq!(v["convergence"]["fp_iterations"].as_u64(), Some(9));
        assert_eq!(v["convergence"]["fp_restarts"].as_u64(), Some(2));
        assert_eq!(v["convergence"]["final_change"].as_f64(), Some(1e-9));
        assert_eq!(v["convergence"]["r_solves"].as_u64(), Some(36));
        assert_eq!(v["convergence"]["r_iterations"].as_u64(), Some(180));
        assert_eq!(v["search"]["truncation_attempts"].as_u64(), Some(12));
        assert_eq!(v["search"]["unstable_skips"].as_u64(), Some(8));
        assert_eq!(v["search"]["levels_eliminated"].as_u64(), Some(2048));
        assert_eq!(v["search"]["levels_built"].as_u64(), Some(2050));
    }
}
