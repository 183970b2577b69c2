//! `gsched profile` — where does a solve actually spend its time?
//!
//! Runs a scenario's workload **single-threaded on the calling thread**
//! (a serial warm-started `solve_warm` loop over the sweep points, not the
//! engine pool) so that every span nests under the command's own stack and
//! self-time attribution partitions the measured wall clock. On top of the
//! span tree it reports the dense-kernel work counters from
//! `gsched-linalg` — calls, nominal flops, and achieved GFLOP/s — and the
//! convergence behaviour of the `R` solves and the outer fixed point.
//!
//! The `--json` document is schema-versioned ([`PROFILE_SCHEMA_VERSION`])
//! and consumed by the CI `profile-smoke` job, which asserts the phase
//! table attributes at least 90% of wall time.

use crate::convergence::{self, ConvergenceReport};
use gsched_core::model::GangModel;
use gsched_core::solver::{solve_warm, SolverOptions, WarmStart};
use gsched_core::vacation::VacationCache;
use gsched_linalg::WorkCounters;
use gsched_obs as obs;
use gsched_scenario::{registry, Scenario};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::Instant;

/// Version of the `gsched profile --json` document. Bump on incompatible
/// changes.
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

/// One row of the phase table: a canonical span name with its self time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Deterministic work counters of the certified level-truncation search
/// (all zero when no solve truncates).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchCounters {
    /// Frozen-capacity truncations tried (`qbd.truncation.attempts`).
    pub truncation_attempts: u64,
    /// Attempts skipped by the drift test before any other work
    /// (`qbd.truncation.unstable_skips`).
    pub unstable_skips: u64,
    /// Levels eliminated by the boundary solves, each level once per
    /// class solve (`qbd.boundary.levels_eliminated`).
    pub levels_eliminated: u64,
}

/// The full `gsched profile` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Document version ([`PROFILE_SCHEMA_VERSION`]).
    pub profile_schema_version: u64,
    /// Workload identifier (scenario or figure set).
    pub workload: String,
    /// Whether the reduced `--quick` point grids were used.
    pub quick: bool,
    /// R-solver method the run used (`logarithmic_reduction`,
    /// `successive_substitution`). Defaults when absent so documents
    /// written before the field existed keep parsing.
    #[serde(default = "String::default")]
    pub r_solver: String,
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
    /// Convergence behaviour of the run.
    pub convergence: ConvergenceReport,
    /// Truncation-search counters. Defaults when absent so documents
    /// written before the search was counted keep parsing.
    #[serde(default = "SearchCounters::default")]
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
        "core.compress" => "moment compression",
        "core.measures" => "stationary measures",
        "qbd.solve" => "QBD assembly",
        "qbd.truncation" => "truncation search",
        "qbd.irreducible" => "irreducibility check",
        "qbd.drift" => "drift test",
        "qbd.solve_r" => "R iteration",
        "qbd.inverse" => "(I-R)^-1 stability gate",
        "qbd.spectral_radius" => "sp(R) diagnostic",
        "qbd.boundary_solve" => "boundary solve",
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

/// The models a profile run solves, in order.
struct Workload {
    name: String,
    models: Vec<GangModel>,
    /// The scenario the models came from; it decides the solver, as in
    /// `gsched sweep`.
    scenario: Scenario,
}

/// A scenario's workload: its declared sweep when it has one, otherwise
/// its single model.
fn scenario_workload(sc: Scenario, quick: bool) -> Result<Workload, String> {
    let models = if sc.sweep.is_some() {
        sc.sweep_request(quick)
            .map_err(|e| e.to_string())?
            .points
            .into_iter()
            .map(|p| p.model)
            .collect()
    } else {
        vec![sc.build_model().map_err(|e| e.to_string())?]
    };
    Ok(Workload {
        name: sc.name.clone(),
        models,
        scenario: sc,
    })
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

/// Solve every model of every workload serially with warm starting — the
/// same numerical path the engine takes (including the solver `gsched
/// sweep` picks for the workload's scenario), confined to this thread so
/// the span tree nests under one stack.
fn run_workloads(workloads: &[Workload], solver: &SolverOptions) -> (u64, u64) {
    let (mut solved, mut failed) = (0u64, 0u64);
    for w in workloads {
        let solver = &crate::sweep_solver_options(solver, &w.scenario);
        let cache = VacationCache::new();
        let mut warm: Option<WarmStart> = None;
        for model in &w.models {
            match solve_warm(model, solver, warm.as_ref(), Some(&cache)) {
                Ok(out) => {
                    warm = Some(out.warm);
                    solved += 1;
                }
                Err(_) => {
                    // Unstable/non-convergent sweep ends: drop the warm
                    // state so the next point starts cold, keep profiling.
                    warm = None;
                    failed += 1;
                }
            }
        }
    }
    (solved, failed)
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
    let (solved, failed) = run_workloads(workloads, solver);
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
    let names: Vec<&str> = workloads.iter().map(|w| w.name.as_str()).collect();
    Ok(ProfileReport {
        profile_schema_version: PROFILE_SCHEMA_VERSION,
        workload: names.join("+"),
        quick,
        r_solver: solver.qbd.method.as_str().to_string(),
        points: solved + failed,
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
        convergence: convergence::analyze(&snap),
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
    println!("R solver = {}", rep.r_solver);
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
        "truncation search: {} attempt(s), {} skipped as unstable, {} level(s) eliminated",
        rep.search.truncation_attempts, rep.search.unstable_skips, rep.search.levels_eliminated
    );
    println!("convergence:");
    print!("{}", rep.convergence.render());
}

/// Entry point for `gsched profile`.
pub fn run(args: &[String]) -> Result<(), String> {
    let (pos, flags) = crate::parse_flags(args)?;
    if flags.contains_key("diag") || flags.contains_key("verbose") {
        // Profile owns the recorder for the duration of the measured loop;
        // a second capture of the same run would race with it.
        return Err(
            "profile: --diag/-v are not supported (profile instruments itself; use --trace/--json)"
                .to_string(),
        );
    }
    let quick = flags.contains_key("quick");
    let workloads = workloads(&pos, &flags, quick)?;
    let mut solver = crate::solver_options(&flags)?;
    // The measurement relies on every span nesting under this thread.
    solver.parallel_classes = false;
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
            "core.compress",
            "core.measures",
            "qbd.solve",
            "qbd.truncation",
            "qbd.irreducible",
            "qbd.drift",
            "qbd.solve_r",
            "qbd.inverse",
            "qbd.spectral_radius",
            "qbd.boundary_solve",
        ] {
            assert_ne!(phase_label(span), "other", "no label for {span}");
        }
        assert_eq!(phase_label("engine.sweep.chunk*"), "other");
    }

    #[test]
    fn profile_report_json_round_trips() {
        let rep = ProfileReport {
            profile_schema_version: PROFILE_SCHEMA_VERSION,
            workload: "fig2".to_string(),
            quick: true,
            r_solver: "logarithmic_reduction".to_string(),
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
            convergence: ConvergenceReport {
                fp_iterations: 9,
                final_change: Some(1e-9),
                classes: Vec::new(),
                warnings: Vec::new(),
            },
            search: SearchCounters {
                truncation_attempts: 12,
                unstable_skips: 8,
                levels_eliminated: 2048,
            },
        };
        let text = serde_json::to_string_pretty(&rep).unwrap();
        let back: ProfileReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, rep);

        // A document written before `r_solver` existed still parses
        // (schema version unchanged); the field defaults to empty.
        let pre_solver: String = text
            .lines()
            .filter(|l| !l.contains("\"r_solver\""))
            .collect::<Vec<_>>()
            .join("\n");
        let old: ProfileReport = serde_json::from_str(&pre_solver).unwrap();
        assert_eq!(old.profile_schema_version, PROFILE_SCHEMA_VERSION);
        assert!(old.r_solver.is_empty());

        // So does one that still carries the retired kernel `backend`
        // field; the unknown field is ignored.
        let with_backend = text.replacen("{", "{\n  \"backend\": \"naive\",", 1);
        let old: ProfileReport = serde_json::from_str(&with_backend).unwrap();
        assert_eq!(old, rep);

        // So does one written before the search counters existed.
        let cut = text
            .find(",\n  \"search\"")
            .expect("search is the last field");
        let pre_search = format!("{}\n}}", &text[..cut]);
        let old: ProfileReport = serde_json::from_str(&pre_search).unwrap();
        assert_eq!(old.search, SearchCounters::default());
    }
}
