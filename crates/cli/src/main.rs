//! `gsched` — solve, simulate, and tune gang-scheduled parallel machines.
//!
//! ```text
//! gsched solve     <model.json | --scenario S> [--mode ht|m2|m3]
//!                  [--percentiles] [--asymptotic] [--json]
//! gsched simulate  <model.json | --scenario S> [--policy gang|lend|rr|fcfs]
//!                               [--horizon T] [--warmup T] [--seed N] [--json]
//! gsched sweep     [fig2|fig3|fig4|fig5|all | <scenario> | --scenario S] [--jobs N] [--quick]
//!                  [--json]
//! gsched validate  [<scenario>...] [--json]
//! gsched xval      <scenario | all> [--points N] [--full]
//!                  [--horizon-scale F] [--json]
//! gsched tune      <model.json> [--lo Q] [--hi Q] [--objective total|max] [--json]
//! gsched stability <model.json> [--class P] [--lo Q] [--hi Q]
//! gsched doctor    <model.json | --scenario S> [--mode ht|m2|m3] [--json]
//! gsched profile   <scenario | --sweep fig2..fig5|all> [--quick]
//!                  [--json] [--trace PATH]
//! gsched bench     [--scenario S | --scaling] [--quick] [--out DIR]
//! gsched paper     [--rho R] [--quantum Q] [--json]
//! gsched figure    <fig1|fig2|fig3|fig4|fig5|all>
//! gsched serve     [--addr A] [--workers N] [--cache-cap N]
//!                  [--deadline-ms N] [--queue-limit N]
//! gsched request   [<scenario>] [--addr A] [--op solve|sweep|stats|shutdown]
//!                  [--quick] [--deadline-ms N] [--id ID] [--frame]
//! gsched loadtest  [--addr A] [--clients N] [--requests N] [--quick]
//!                  [--expect-no-shed] [--json]
//! gsched example-model
//! gsched example-scenario
//! ```
//!
//! A `--scenario S` (or a bare `<scenario>` argument to `validate`/`xval`)
//! is either a registry name (`fig2` … `near_instability`; see
//! `gsched-scenario`) or a path to a scenario JSON file. The same scenario
//! drives the analytic solver, the engine sweeps, and the simulator — one
//! description, every solver path. The scenario also decides how it is
//! solved (`Scenario::solver_options`): a processors-axis (large-P)
//! scenario solves under certified level truncation wherever it runs —
//! `solve`, `doctor`, `sweep`, `profile`, `bench`, `validate`, `xval` and
//! the server alike.
//!
//! Every QBD `R` matrix is solved cold by logarithmic reduction; there is
//! no solver choice to make. Each subcommand accepts only the flags it
//! reads plus the diagnostics flags below; any other flag, including one
//! another subcommand owns, is an error (`<subcommand>: unknown flag --X`),
//! never silently ignored.
//!
//! `gsched sweep` evaluates the paper's figure sweeps on the
//! `gsched-engine` work-stealing pool, each point warm-started from its
//! chunk neighbour: `--jobs N` sets the worker count (0 = all cores), and
//! the answers are bitwise identical for every value. A sweep-capable
//! registry scenario also works positionally (`gsched sweep p_sweep`). A
//! scenario that declares a certified-tail ceiling has every point's
//! certificate checked against it, and one that declares an asymptotic
//! tolerance has its largest point cross-checked against the zero-queueing
//! limit (`gsched solve --asymptotic`) — see `docs/LARGE_P.md`.
//!
//! `gsched validate` lints scenarios (schema, grids, solvability) and
//! reports per-class stability with drift margins; it exits non-zero when
//! any scenario has an error-level issue. With no arguments it validates
//! the whole registry. `gsched xval` cross-validates the analytic solver
//! against the discrete-event simulator from the same scenario and fails
//! when any class's mean response disagrees beyond the scenario's declared
//! tolerance.
//!
//! Every subcommand also accepts the diagnostics flags, except where one
//! would record nothing: `request` does no solver work and `bench`
//! records each scenario itself, so they reject all three by name, and
//! `profile` (which instruments itself) rejects `--diag` and `-v`:
//!
//! * `--diag <path>` — capture solver/simulator instrumentation through
//!   `gsched_obs` and write the JSON snapshot to `<path>`;
//! * `--trace <path>` — write the span tree as a Chrome Trace Event file,
//!   loadable in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`;
//! * `-v` — print the human-readable diagnostics report (span tree, metric
//!   tables) to stderr after the run; `-vv` additionally prints every
//!   structured event.
//!
//! `gsched serve` runs the long-lived solve server from `gsched-service`:
//! scenario requests arrive as newline-delimited JSON over TCP, repeated
//! questions are answered from a result cache, and SIGINT (or a
//! `shutdown` frame) stops it cleanly. Under concurrent traffic the
//! server coalesces identical in-flight requests (singleflight) and —
//! with `--queue-limit` — sheds overflow with `overloaded` errors.
//! `gsched request` is the matching client; it prints just the `result`
//! document, which is byte-identical to the
//! corresponding `gsched solve --json` output. See the `gsched-service`
//! crate docs for the wire protocol. `gsched loadtest` drives a server —
//! self-hosted, or a live one via `--addr` — with mixed concurrent
//! hit/miss/duplicate/cancel traffic, prints its reply counts, p50/p99
//! latency and throughput, and fails on an unexpected error reply, on a
//! missing reply, or (with `--expect-no-shed`) on any shed request.
//!
//! A running server has one live view: the `stats` verb (`gsched request
//! --op stats`) returns the full telemetry report (per-op latency
//! percentiles, queue/occupancy gauges, cache behaviour). `serve --diag`
//! and `--trace` record the server's spans and counters for its lifetime,
//! each span tagged with the request it served.
//!
//! `gsched doctor` solves the model and prints the fixed-point iteration
//! count and the per-class numerical-health table (drift slack, `sp(R)`,
//! `R` residual, truncated tail mass, truncation certificate) of the
//! solution's health report, with WARN lines when a class is close to
//! instability or under-resolved. The thresholds are fixed; doctor records
//! nothing beyond what the diagnostics flags ask for.
//!
//! `gsched profile` runs a scenario's workload through the same engine
//! sweep as `gsched sweep --jobs 1`, on the calling thread under the
//! instrumentation layer, and prints a phase table (self time per solver
//! phase, attributing ≥90% of wall time), the dense-kernel work counters
//! with achieved GFLOP/s, and the fixed-point and `R`-solve iteration
//! counts. `--trace PATH` also writes the Chrome Trace Event timeline of
//! the same run.
//!
//! `gsched bench` counts; it does not time. It runs the canonical Figure
//! 2–5 solver sweeps plus a simulator workload and writes their
//! deterministic work counters (fixed-point and `R` iterations, kernel
//! flops, simulator events) to a schema-versioned record whose name says
//! which scenarios ran: `results/bench/quick.json` for `--quick`
//! (`--out DIR` writes elsewhere). `gsched bench --scaling` swaps in the
//! large-P scaling curve: the `p_sweep` registry scenario solved point by
//! point (P = 8 … 4096) under certified truncation, one row per machine
//! size, into `scaling-quick.json` with `--quick`. The counters do not
//! vary between runs; the two quick records are committed, and CI
//! regenerates them and fails on any byte of difference.
//! Solver speed is measured by the repository benchmark in `perfbench/`,
//! the one program here that times anything.
//!
//! `gsched figure` regenerates the paper's figures: `fig1` prints the
//! class-chain state diagram as Graphviz DOT, and `fig2`…`fig5` run the
//! figure sweeps, print their CSV, check the paper's qualitative shapes,
//! and write `results/<id>.json` (see the `figure` module).
//!
//! Model files are JSON (see `gsched_scenario::ModelSpec`); `gsched
//! example-model` and `gsched example-scenario` print templates.

mod bench;
mod figure;
mod loadtest;
mod profile;

use gsched_core::model::GangModel;
use gsched_core::solver::{solve, GangSolution, SolverOptions, VacationMode};
use gsched_core::tuning::{optimize_common_quantum, stability_threshold_quantum, Objective};
use gsched_core::{solve_asymptotic, AsymptoticSolution};
use gsched_engine::{run_sweep, SweepOptions, SweepReport, SweepRequest};
use gsched_scenario::{
    cross_validate, registry, validate_report, LintLevel, ModelSpec, Policy, Scenario, XvalOptions,
    XvalReport,
};
use gsched_service::client::{control_frame_for, frame_for_name, frame_for_scenario, RequestSpec};
// The render module is the single implementation of the solve/sweep JSON
// documents, shared with the scenario server so served results are
// byte-identical to local `--json` output.
use gsched_service::render::{json_f64, json_str, solution_json, sweep_report_json};
use gsched_service::{
    error_frame, extract_result, frame_is_ok, Client, ErrorKind, Op, ServeConfig, Server,
    ServiceError,
};
use gsched_sim::{simulate, SimConfig, SimResult};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gsched: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Err("missing subcommand".to_string());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "solve" => cmd_solve(rest),
        "simulate" => cmd_simulate(rest),
        "sweep" => cmd_sweep(rest),
        "validate" => cmd_validate(rest),
        "xval" => cmd_xval(rest),
        "tune" => cmd_tune(rest),
        "stability" => cmd_stability(rest),
        "doctor" => cmd_doctor(rest),
        "profile" => profile::run(rest),
        "bench" => cmd_bench(rest),
        "paper" => cmd_paper(rest),
        "figure" => figure::run(rest),
        "serve" => cmd_serve(rest),
        "request" => cmd_request(rest),
        "loadtest" => loadtest::run(rest),
        "example-model" | "example-scenario" => {
            let (pos, flags) = parse_flags(cmd, rest)?;
            if let Some(arg) = pos.first() {
                return Err(format!("{cmd}: unexpected argument `{arg}`"));
            }
            reject_flags(
                cmd,
                &flags,
                &["diag", "trace", "verbose"],
                "it prints a template and solves nothing",
            )?;
            if cmd == "example-model" {
                println!("{}", example_model_json());
            } else {
                let sc = registry::lookup("fig2").expect("fig2 is registered");
                println!("{}", sc.to_json());
                // On stderr so stdout stays parseable JSON.
                eprintln!("field-by-field schema reference: docs/SCENARIO_SCHEMA.md");
            }
            Ok(())
        }
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(())
        }
        other => {
            print_usage();
            Err(format!("unknown subcommand `{other}`"))
        }
    }
}

fn print_usage() {
    eprintln!("{}", usage());
}

fn usage() -> String {
    format!(
        "usage:\n  gsched solve     <model.json | --scenario S> [--mode ht|m2|m3] [--percentiles] [--asymptotic] [--json]\n  \
         gsched simulate  <model.json | --scenario S> [--policy gang|lend|rr|fcfs] [--horizon T] [--warmup T] [--seed N] [--json]\n  \
         gsched sweep     [fig2|fig3|fig4|fig5|all | <scenario> | --scenario S] [--jobs N] [--quick] [--json]\n  \
         gsched validate  [<scenario>...] [--json]\n  \
         gsched xval      <scenario | all> [--points N] [--full] [--horizon-scale F] [--json]\n  \
         gsched tune      <model.json> [--lo Q] [--hi Q] [--objective total|max] [--json]\n  \
         gsched stability <model.json> [--class P] [--lo Q] [--hi Q]\n  \
         gsched doctor    <model.json | --scenario S> [--mode ht|m2|m3] [--json]\n  \
         gsched profile   <scenario | --sweep fig2..fig5|all> [--quick] [--json] [--trace PATH]\n  \
         gsched bench     [--scenario S | --scaling] [--quick] [--out DIR]\n  \
         gsched paper     [--rho R] [--quantum Q] [--json]\n  \
         gsched figure    <fig1|fig2|fig3|fig4|fig5|all>\n  \
         gsched serve     [--addr A] [--workers N] [--cache-cap N] [--deadline-ms N] [--queue-limit N]\n  \
         gsched request   [<scenario>] [--addr A] [--op solve|sweep|stats|shutdown] [--quick] [--deadline-ms N] [--id ID] [--frame]\n  \
         gsched loadtest  [--addr A] [--clients N] [--requests N] [--quick] [--expect-no-shed] [--json]\n  \
         gsched example-model\n  \
         gsched example-scenario\n\
         a scenario S is a registry name ({}) or a scenario JSON file.\n\
         diagnostics (every subcommand but request, bench and example-*): --diag <path> writes a JSON metrics \
         snapshot; --trace <path> writes a Chrome Trace Event file \
         (Perfetto); -v prints a report to stderr (-vv adds events)",
        registry::NAMES.join("|")
    )
}

/// Flags that take no value; every other flag takes one.
const BOOL_FLAGS: &[&str] = &[
    "json",
    "percentiles",
    "quick",
    "full",
    "frame",
    "expect-no-shed",
    "scaling",
    "asymptotic",
];

/// The diagnostics flags every subcommand accepts (`-v`/`-vv` too).
const DIAG_FLAGS: &[&str] = &["diag", "trace"];

/// The flags each subcommand reads (space-separated), besides
/// [`DIAG_FLAGS`]. A flag outside its subcommand's set is an error, never
/// silently ignored.
const COMMAND_FLAGS: &[(&str, &str)] = &[
    ("solve", "scenario mode percentiles asymptotic json"),
    ("simulate", "scenario policy horizon warmup seed json"),
    ("sweep", "scenario jobs quick mode percentiles json"),
    ("validate", "mode percentiles json"),
    ("xval", "points full horizon-scale mode percentiles json"),
    ("tune", "lo hi objective json"),
    ("stability", "class lo hi"),
    ("doctor", "scenario mode percentiles json"),
    ("profile", "sweep quick mode percentiles json"),
    ("bench", "scenario scaling quick out"),
    ("paper", "rho quantum json"),
    ("figure", ""),
    ("serve", "addr workers cache-cap deadline-ms queue-limit"),
    ("request", "addr op quick deadline-ms id frame"),
    (
        "loadtest",
        "addr clients requests workers queue-limit quick expect-no-shed json",
    ),
    ("example-model", ""),
    ("example-scenario", ""),
];

/// Whether subcommand `cmd` accepts `--name`.
fn accepts(cmd: &str, name: &str) -> bool {
    let (_, own) = COMMAND_FLAGS
        .iter()
        .find(|(c, _)| *c == cmd)
        .unwrap_or_else(|| panic!("no flag table for subcommand `{cmd}`"));
    own.split_whitespace().any(|f| f == name) || DIAG_FLAGS.contains(&name)
}

/// Split subcommand `cmd`'s positional arguments from its `--flag value`
/// options, rejecting any flag `cmd` does not read.
fn parse_flags(
    cmd: &str,
    args: &[String],
) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut pos = Vec::new();
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "-v" || a == "-vv" {
            let level = if a == "-vv" { "2" } else { "1" };
            flags.insert("verbose".to_string(), level.to_string());
            continue;
        }
        let Some(name) = a.strip_prefix("--") else {
            pos.push(a.clone());
            continue;
        };
        if !accepts(cmd, name) {
            return Err(format!("{cmd}: unknown flag --{name}"));
        }
        let val = if BOOL_FLAGS.contains(&name) {
            "true".to_string()
        } else {
            it.next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?
                .clone()
        };
        flags.insert(name.to_string(), val);
    }
    Ok((pos, flags))
}

fn flag_f64(flags: &HashMap<String, String>, name: &str, default: f64) -> Result<f64, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects a number, got `{v}`")),
    }
}

/// A count-valued flag (`--jobs`, `--class`, `--workers`, …): negative,
/// fractional and non-numeric values are errors, never coerced.
fn flag_count<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects a non-negative integer, got `{v}`")),
    }
}

/// Diagnostics capture requested via `--diag <path>`, `--trace <path>`, and
/// `-v`/`-vv`.
///
/// Installing the recorder is deferred to this struct so that commands only
/// pay for instrumentation when it was asked for.
struct Diagnostics {
    recorder: Option<std::sync::Arc<gsched_obs::MemoryRecorder>>,
    path: Option<String>,
    trace_path: Option<String>,
    verbosity: u8,
}

impl Diagnostics {
    fn from_flags(flags: &HashMap<String, String>) -> Self {
        let path = flags.get("diag").cloned();
        let trace_path = flags.get("trace").cloned();
        let verbosity: u8 = flags
            .get("verbose")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let recorder = if path.is_some() || trace_path.is_some() || verbosity > 0 {
            Some(gsched_obs::install_memory())
        } else {
            None
        };
        Diagnostics {
            recorder,
            path,
            trace_path,
            verbosity,
        }
    }

    /// Stop recording and emit the snapshot (JSON file, trace file, and/or
    /// stderr report).
    fn finish(self) -> Result<(), String> {
        let Some(recorder) = self.recorder else {
            return Ok(());
        };
        gsched_obs::uninstall();
        let snap = recorder.snapshot();
        if let Some(path) = &self.path {
            gsched_obs::write_atomic(path, snap.to_json().as_bytes())
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        }
        if let Some(path) = &self.trace_path {
            gsched_obs::write_atomic(path, snap.to_chrome_trace().as_bytes())
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        }
        if self.verbosity >= 1 {
            eprintln!("{}", snap.render());
        }
        if self.verbosity >= 2 {
            for ev in &snap.events {
                let fields: Vec<String> =
                    ev.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
                eprintln!("event {} [{}] {}", ev.name, ev.span, fields.join(" "));
            }
        }
        Ok(())
    }
}

fn load_model(path: &str) -> Result<GangModel, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    ModelSpec::from_json(&text)?.build()
}

/// Resolve a `--scenario` argument: an existing path (or anything ending
/// in `.json`) is parsed as a scenario file, anything else is looked up in
/// the registry.
fn load_scenario(arg: &str) -> Result<Scenario, String> {
    if arg.ends_with(".json") || std::path::Path::new(arg).exists() {
        let text = std::fs::read_to_string(arg).map_err(|e| format!("cannot read `{arg}`: {e}"))?;
        Scenario::from_json(&text).map_err(|e| format!("`{arg}`: {e}"))
    } else {
        registry::lookup(arg).ok_or_else(|| {
            format!(
                "unknown scenario `{arg}` (registry: {})",
                registry::NAMES.join(", ")
            )
        })
    }
}

/// A subcommand's model source — either a positional `<model.json>` or
/// `--scenario <name|file>`, never both — and the options it solves under:
/// the flags' options, adjusted by the scenario when there is one.
fn resolve_model(
    cmd: &str,
    pos: &[String],
    flags: &HashMap<String, String>,
) -> Result<(GangModel, SolverOptions), String> {
    let opts = solver_options(flags)?;
    match (flags.get("scenario"), pos.first()) {
        (Some(_), Some(_)) => Err(format!(
            "{cmd}: give either <model.json> or --scenario, not both"
        )),
        (Some(arg), None) => {
            let sc = load_scenario(arg)?;
            let model = sc.build_model().map_err(|e| e.to_string())?;
            Ok((model, sc.solver_options(&opts)))
        }
        (None, Some(path)) => Ok((load_model(path)?, opts)),
        (None, None) => Err(format!(
            "{cmd}: missing <model.json> (or --scenario <name|file>)"
        )),
    }
}

fn solver_options(flags: &HashMap<String, String>) -> Result<SolverOptions, String> {
    let mode = match flags.get("mode").map(|s| s.as_str()) {
        None | Some("m2") => VacationMode::MomentMatched { moments: 2 },
        Some("m3") => VacationMode::MomentMatched { moments: 3 },
        Some("ht") => VacationMode::HeavyTraffic,
        Some(other) => return Err(format!("unknown --mode `{other}`")),
    };
    Ok(SolverOptions {
        mode,
        response_quantiles: flags.contains_key("percentiles"),
        ..SolverOptions::default()
    })
}

fn print_solution_human(model: &GangModel, sol: &GangSolution) {
    println!(
        "machine: P = {}, L = {} classes, offered rho = {:.4}",
        model.processors(),
        model.num_classes(),
        model.total_utilization()
    );
    println!(
        "fixed point: {} iterations, converged = {}, all stable = {}",
        sol.iterations, sol.converged, sol.all_stable
    );
    println!(
        "{:>5} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "class", "stable", "N", "T", "P(empty)", "svc frac", "P(skip)"
    );
    for (p, c) in sol.classes.iter().enumerate() {
        let (pe, sf) = c
            .measures
            .as_ref()
            .map(|m| (m.prob_empty, m.service_fraction))
            .unwrap_or((f64::NAN, f64::NAN));
        println!(
            "{p:>5} {:>8} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            c.stable, c.mean_jobs, c.mean_response, pe, sf, c.skip_probability
        );
    }
    if sol.classes.iter().any(|c| c.response_quantiles.is_some()) {
        println!("response-time percentiles (tagged-job analysis):");
        println!(
            "{:>5} {:>10} {:>10} {:>10} {:>10}",
            "class", "p50", "p90", "p95", "p99"
        );
        for (p, c) in sol.classes.iter().enumerate() {
            if let Some((p50, p90, p95, p99)) = c.response_quantiles {
                println!("{p:>5} {p50:>10.4} {p90:>10.4} {p95:>10.4} {p99:>10.4}");
            }
        }
    }
}

fn print_asymptotic_human(model: &GangModel, asym: &AsymptoticSolution) {
    println!(
        "zero-queueing limit (P → ∞ at fixed rho; finite machine: P = {}): \
         mean cycle {:.4}, all stable = {}",
        model.processors(),
        asym.mean_cycle,
        asym.all_stable
    );
    println!(
        "{:>5} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "class", "stable", "duty f", "rho", "T_inf", "N_inf"
    );
    for c in &asym.classes {
        println!(
            "{:>5} {:>8} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            c.class, c.stable, c.duty_fraction, c.utilization, c.mean_response, c.mean_jobs
        );
    }
}

fn asymptotic_json(asym: &AsymptoticSolution) -> String {
    let classes: Vec<String> = asym
        .classes
        .iter()
        .map(|c| {
            format!(
                r#"{{"class":{},"stable":{},"duty_fraction":{},"utilization":{},"arrival_rate":{},"mean_response":{},"mean_jobs":{}}}"#,
                c.class,
                c.stable,
                json_f64(c.duty_fraction),
                json_f64(c.utilization),
                json_f64(c.arrival_rate),
                json_f64(c.mean_response),
                json_f64(c.mean_jobs)
            )
        })
        .collect();
    format!(
        r#"{{"asymptotic":true,"all_stable":{},"mean_cycle":{},"classes":[{}]}}"#,
        asym.all_stable,
        json_f64(asym.mean_cycle),
        classes.join(",")
    )
}

fn cmd_solve(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("solve", args)?;
    let (model, opts) = resolve_model("solve", &pos, &flags)?;
    let diag = Diagnostics::from_flags(&flags);
    // `--asymptotic` swaps the finite-P QBD solve for the zero-queueing
    // large-system limit — the anchor large-P solves are checked against.
    if flags.contains_key("asymptotic") {
        let asym = solve_asymptotic(&model).map_err(|e| e.to_string());
        diag.finish()?;
        let asym = asym?;
        if flags.contains_key("json") {
            println!("{}", asymptotic_json(&asym));
        } else {
            print_asymptotic_human(&model, &asym);
        }
        return Ok(());
    }
    let sol = solve(&model, &opts).map_err(|e| e.to_string());
    diag.finish()?;
    let sol = sol?;
    if flags.contains_key("json") {
        println!("{}", solution_json(&sol));
    } else {
        print_solution_human(&model, &sol);
    }
    Ok(())
}

fn print_sim_human(r: &SimResult) {
    println!(
        "measured {:.0} time units; utilization {:.4}, switch fraction {:.4}",
        r.measured_time, r.processor_utilization, r.switch_overhead_fraction
    );
    println!(
        "{:>5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "class", "N", "±95%", "T", "T p50", "T p95", "arrivals", "done"
    );
    for (p, c) in r.classes.iter().enumerate() {
        let (p50, _, p95, _) = c.response_quantiles;
        println!(
            "{p:>5} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10} {:>10}",
            c.mean_jobs, c.mean_jobs_ci95, c.mean_response, p50, p95, c.arrivals, c.completions
        );
    }
}

fn sim_json(r: &SimResult) -> String {
    let classes: Vec<String> = r
        .classes
        .iter()
        .map(|c| {
            format!(
                r#"{{"mean_jobs":{},"mean_jobs_ci95":{},"mean_response":{},"response_p50":{},"response_p90":{},"response_p95":{},"response_p99":{},"arrivals":{},"completions":{}}}"#,
                json_f64(c.mean_jobs),
                json_f64(c.mean_jobs_ci95),
                json_f64(c.mean_response),
                json_f64(c.response_quantiles.0),
                json_f64(c.response_quantiles.1),
                json_f64(c.response_quantiles.2),
                json_f64(c.response_quantiles.3),
                c.arrivals,
                c.completions
            )
        })
        .collect();
    format!(
        r#"{{"utilization":{},"switch_fraction":{},"classes":[{}]}}"#,
        json_f64(r.processor_utilization),
        json_f64(r.switch_overhead_fraction),
        classes.join(",")
    )
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("simulate", args)?;
    // A scenario supplies model, policy, and sim config in one place;
    // explicit flags still override its choices.
    let (model, mut cfg, mut policy) = match (flags.get("scenario"), pos.first()) {
        (Some(_), Some(_)) => {
            return Err("simulate: give either <model.json> or --scenario, not both".to_string())
        }
        (Some(arg), None) => {
            let sc = load_scenario(arg)?;
            let model = sc.build_model().map_err(|e| e.to_string())?;
            (model, sc.sim_config(1.0), sc.policy)
        }
        (None, Some(path)) => {
            let cfg = SimConfig {
                horizon: 200_000.0,
                warmup: 20_000.0,
                seed: 1,
                batches: 20,
            };
            (load_model(path)?, cfg, Policy::Gang)
        }
        (None, None) => {
            return Err("simulate: missing <model.json> (or --scenario <name|file>)".to_string())
        }
    };
    if let Some(name) = flags.get("policy") {
        policy = Policy::from_name(name)
            .ok_or_else(|| format!("unknown --policy `{name}` (gang|lend|rr|fcfs)"))?;
    }
    cfg.horizon = flag_f64(&flags, "horizon", cfg.horizon)?;
    let default_warmup = if flags.contains_key("horizon") {
        cfg.horizon / 10.0
    } else {
        cfg.warmup
    };
    cfg.warmup = flag_f64(&flags, "warmup", default_warmup)?;
    cfg.seed = flag_count(&flags, "seed", cfg.seed)?;
    let diag = Diagnostics::from_flags(&flags);
    let result = simulate(&model, policy, cfg);
    diag.finish()?;
    if flags.contains_key("json") {
        println!("{}", sim_json(&result));
    } else {
        print_sim_human(&result);
    }
    Ok(())
}

fn print_sweep_human(name: &str, report: &SweepReport, classes: usize) {
    println!(
        "{}: {} points, {} jobs, {} chunks, warm hit rate {:.0}%, {:.1} ms",
        name,
        report.points.len(),
        report.stats.jobs,
        report.stats.chunks,
        report.stats.warm_hit_rate() * 100.0,
        report.stats.wall_ms
    );
    let header: Vec<String> = (0..classes).map(|p| format!("N[{p}]")).collect();
    println!(
        "{:>10} {:>5} {}",
        "x",
        "warm",
        header
            .iter()
            .map(|h| format!("{h:>10}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for p in &report.points {
        match &p.solution {
            Some(sol) => {
                let cols: Vec<String> = sol
                    .classes
                    .iter()
                    .map(|c| format!("{:>10.4}", c.mean_jobs))
                    .collect();
                println!("{:>10.4} {:>5} {}", p.x, p.warm_started, cols.join(" "));
            }
            None => println!(
                "{:>10.4} {:>5} failed: {}",
                p.x,
                p.warm_started,
                p.error.as_deref().unwrap_or("unknown")
            ),
        }
    }
}

/// One sweep to run: the scenario (which carries the tolerance contract to
/// enforce) and its request.
struct SweepJob {
    req: SweepRequest,
    scenario: Scenario,
}

/// Enforce a scenario's large-P tolerance contract on a finished sweep
/// (each part only when the scenario declares it): every truncated point's
/// *certified* tail mass must stay under the scenario's ceiling, and the
/// largest solved point must agree with the zero-queueing asymptotic limit
/// within the declared relative tolerance. Returns human-readable check
/// lines; `Err` lists the violations.
fn check_large_p_contract(sc: &Scenario, report: &SweepReport) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    let mut violations = Vec::new();
    if let Some(ceiling) = sc.tolerance.certified_tail {
        let mut worst: f64 = 0.0;
        let mut checked = 0usize;
        for p in &report.points {
            let Some(sol) = &p.solution else {
                continue;
            };
            checked += 1;
            for (class, c) in sol.classes.iter().enumerate() {
                // A full (untruncated) solve misplaces no mass.
                let tail = c.truncation.map_or(0.0, |t| t.tail_mass);
                worst = worst.max(tail);
                if tail > ceiling {
                    violations.push(format!(
                        "{}: P = {}, class {class}: certified tail {tail:.3e} exceeds ceiling {ceiling:.3e}",
                        sc.name, p.x
                    ));
                }
            }
        }
        lines.push(format!(
            "{}: certified truncation tail <= {ceiling:.1e} held at {checked} point(s) (worst {worst:.3e})",
            sc.name
        ));
    }
    if let Some(tol) = sc.tolerance.asymptotic_rel {
        // The contract binds at the *largest* solved point, where the
        // finite machine is nearest the limit.
        if let Some(p) = report.points.iter().rev().find(|p| p.solution.is_some()) {
            let sol = p.solution.as_ref().expect("filtered on solution");
            let model = sc.model_at(p.x).map_err(|e| e.to_string())?;
            let asym = solve_asymptotic(&model).map_err(|e| e.to_string())?;
            let gap = sol
                .classes
                .iter()
                .zip(asym.classes.iter())
                .map(|(full, lim)| {
                    (full.mean_response - lim.mean_response).abs() / lim.mean_response
                })
                .fold(0.0_f64, f64::max);
            lines.push(format!(
                "{}: asymptotic cross-check at P = {}: worst class gap {:.2}% (tolerance {:.0}%)",
                sc.name,
                p.x,
                gap * 100.0,
                tol * 100.0
            ));
            if gap > tol {
                violations.push(format!(
                    "{}: P = {}: relative gap {gap:.4} to the zero-queueing limit exceeds {tol}",
                    sc.name, p.x
                ));
            }
        }
    }
    if violations.is_empty() {
        Ok(lines)
    } else {
        Err(violations.join("; "))
    }
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("sweep", args)?;
    let quick = flags.contains_key("quick");
    let scenario_job = |sc: Scenario| -> Result<SweepJob, String> {
        let req = sc.sweep_request(quick).map_err(|e| e.to_string())?;
        Ok(SweepJob { req, scenario: sc })
    };
    let jobs_list: Vec<SweepJob> = if let Some(arg) = flags.get("scenario") {
        if !pos.is_empty() {
            return Err("sweep: give either a figure name or --scenario, not both".to_string());
        }
        vec![scenario_job(load_scenario(arg)?)?]
    } else {
        // `all` is the paper's figure set; any other name is a
        // sweep-capable registry scenario (`fig2`, `p_sweep`, …) or a
        // scenario file.
        match pos.first().map(String::as_str).unwrap_or("all") {
            "all" => registry::FIGURES
                .iter()
                .map(|name| scenario_job(registry::lookup(name).expect("figures are registered")))
                .collect::<Result<_, _>>()?,
            which => vec![scenario_job(load_scenario(which)?)?],
        }
    };
    let jobs = flag_count(&flags, "jobs", 0)?;
    let solver = solver_options(&flags)?;
    let diag = Diagnostics::from_flags(&flags);
    let mut json_reports = Vec::new();
    let mut failures = 0;
    let mut contract_lines = Vec::new();
    let mut contract_errors = Vec::new();
    for job in &jobs_list {
        let opts = SweepOptions::default()
            .with_jobs(jobs)
            .with_solver(job.scenario.solver_options(&solver));
        let classes = job
            .req
            .points
            .first()
            .map(|p| p.model.num_classes())
            .unwrap_or(0);
        let report = run_sweep(&job.req, &opts);
        failures += report.failures();
        match check_large_p_contract(&job.scenario, &report) {
            Ok(lines) => contract_lines.extend(lines),
            Err(e) => contract_errors.push(e),
        }
        if flags.contains_key("json") {
            json_reports.push(sweep_report_json(&job.scenario.name, &report, classes));
        } else {
            print_sweep_human(&job.scenario.name, &report, classes);
        }
    }
    diag.finish()?;
    if flags.contains_key("json") {
        println!("[{}]", json_reports.join(","));
        for line in &contract_lines {
            eprintln!("{line}");
        }
    } else {
        for line in &contract_lines {
            println!("{line}");
        }
        if failures > 0 {
            eprintln!("sweep: {failures} point(s) failed to solve");
        }
    }
    if !contract_errors.is_empty() {
        return Err(contract_errors.join("; "));
    }
    Ok(())
}

fn validation_json(rep: &gsched_scenario::ValidationReport) -> String {
    let issues: Vec<String> = rep
        .issues
        .iter()
        .map(|i| {
            let level = match i.level {
                LintLevel::Error => "error",
                LintLevel::Warning => "warning",
            };
            format!(
                r#"{{"level":{},"message":{}}}"#,
                json_str(level),
                json_str(&i.message)
            )
        })
        .collect();
    let classes: Vec<String> = rep
        .classes
        .iter()
        .map(|c| {
            format!(
                r#"{{"class":{},"utilization":{},"stable":{},"drift_margin":{}}}"#,
                c.class,
                json_f64(c.utilization),
                c.stable,
                json_f64(c.drift_margin)
            )
        })
        .collect();
    format!(
        r#"{{"name":{},"ok":{},"issues":[{}],"classes":[{}]}}"#,
        json_str(&rep.name),
        rep.ok(),
        issues.join(","),
        classes.join(",")
    )
}

/// Fail a subcommand with a consistent non-zero exit; with `--json` the
/// failure is also printed to stdout as a service-style error frame, so
/// scripted callers parse one error schema for CLI and server alike.
fn fail(flags: &HashMap<String, String>, kind: ErrorKind, message: String) -> Result<(), String> {
    if flags.contains_key("json") {
        println!(
            "{}",
            error_frame(None, &ServiceError::new(kind, message.clone()))
        );
    }
    Err(message)
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("validate", args)?;
    let scenarios: Vec<Scenario> = if pos.is_empty() {
        registry::all()
    } else {
        pos.iter()
            .map(|arg| load_scenario(arg))
            .collect::<Result<_, _>>()?
    };
    let solver = solver_options(&flags)?;
    let diag = Diagnostics::from_flags(&flags);
    let reports: Vec<gsched_scenario::ValidationReport> = scenarios
        .iter()
        .map(|sc| validate_report(sc, &solver))
        .collect();
    diag.finish()?;
    let mut errors = 0;
    if flags.contains_key("json") {
        let items: Vec<String> = reports.iter().map(validation_json).collect();
        println!("[{}]", items.join(","));
        errors = reports.iter().filter(|r| !r.ok()).count();
    } else {
        for rep in &reports {
            let verdict = if rep.ok() { "ok" } else { "FAILED" };
            println!("{}: {verdict}", rep.name);
            for c in &rep.classes {
                println!(
                    "  class {}: rho = {:.4}, stable = {}, drift margin = {:+.4}",
                    c.class, c.utilization, c.stable, c.drift_margin
                );
            }
            for issue in &rep.issues {
                let tag = match issue.level {
                    LintLevel::Error => "ERROR",
                    LintLevel::Warning => "warn",
                };
                println!("  {tag}: {}", issue.message);
            }
            if !rep.ok() {
                errors += 1;
            }
        }
    }
    if errors > 0 {
        return fail(
            &flags,
            ErrorKind::ValidationFailed,
            format!("{errors} scenario(s) failed validation"),
        );
    }
    Ok(())
}

fn xval_json(rep: &XvalReport) -> String {
    let points: Vec<String> = rep
        .points
        .iter()
        .map(|p| {
            let rows: Vec<String> = p
                .rows
                .iter()
                .map(|r| {
                    format!(
                        r#"{{"class":{},"analytic":{},"simulated":{},"sim_ci95":{},"gap":{},"tolerance":{},"pass":{}}}"#,
                        r.class,
                        json_f64(r.analytic),
                        json_f64(r.simulated),
                        json_f64(r.sim_ci95),
                        json_f64(r.gap),
                        json_f64(r.tolerance),
                        r.pass
                    )
                })
                .collect();
            format!(
                r#"{{"x":{},"skipped_unstable":{},"rows":[{}]}}"#,
                p.x.map(json_f64).unwrap_or_else(|| "null".to_string()),
                p.skipped_unstable,
                rows.join(",")
            )
        })
        .collect();
    format!(
        r#"{{"scenario":{},"policy":{},"passed":{},"compared_points":{},"points":[{}]}}"#,
        json_str(&rep.scenario),
        json_str(&rep.policy),
        rep.passed(),
        rep.compared_points(),
        points.join(",")
    )
}

fn print_xval_human(rep: &XvalReport) {
    println!(
        "{} ({}): {} point(s) compared, {} failure(s)",
        rep.scenario,
        rep.policy,
        rep.compared_points(),
        rep.failures().len()
    );
    println!(
        "{:>10} {:>5} {:>12} {:>12} {:>10} {:>10} {:>6}",
        "x", "class", "analytic T", "sim T", "gap", "tol", "pass"
    );
    for p in &rep.points {
        let x =
            p.x.map(|x| format!("{x:.4}"))
                .unwrap_or_else(|| "-".to_string());
        if p.skipped_unstable {
            println!("{x:>10} {:>5} analytically unstable; skipped", "-");
            continue;
        }
        for r in &p.rows {
            println!(
                "{x:>10} {:>5} {:>12.4} {:>12.4} {:>10.4} {:>10.4} {:>6}",
                r.class, r.analytic, r.simulated, r.gap, r.tolerance, r.pass
            );
        }
    }
}

fn cmd_xval(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("xval", args)?;
    let which = pos
        .first()
        .ok_or("xval: missing <scenario> (registry name, file.json, or `all`)")?;
    let scenarios: Vec<Scenario> = if which == "all" {
        // Only analysis-comparable policies can be cross-validated.
        registry::all()
            .into_iter()
            .filter(|sc| sc.policy.analysis_comparable())
            .collect()
    } else {
        vec![load_scenario(which)?]
    };
    let opts = XvalOptions {
        solver: solver_options(&flags)?,
        max_points: flag_count(&flags, "points", 2)?,
        quick: !flags.contains_key("full"),
        horizon_scale: flag_f64(&flags, "horizon-scale", 1.0)?,
    };
    if !(opts.horizon_scale.is_finite() && opts.horizon_scale > 0.0) {
        return Err("--horizon-scale must be positive".to_string());
    }
    let diag = Diagnostics::from_flags(&flags);
    let mut reports = Vec::new();
    let mut result = Ok(());
    for sc in &scenarios {
        match cross_validate(sc, &opts) {
            Ok(rep) => reports.push(rep),
            Err(e) => {
                result = Err(format!("{}: {e}", sc.name));
                break;
            }
        }
    }
    diag.finish()?;
    if let Err(message) = result {
        return fail(&flags, ErrorKind::SolveFailed, message);
    }
    let failed: Vec<&str> = reports
        .iter()
        .filter(|r| !r.passed())
        .map(|r| r.scenario.as_str())
        .collect();
    if flags.contains_key("json") {
        let items: Vec<String> = reports.iter().map(xval_json).collect();
        println!("[{}]", items.join(","));
    } else {
        for rep in &reports {
            print_xval_human(rep);
        }
    }
    if !failed.is_empty() {
        return fail(
            &flags,
            ErrorKind::ValidationFailed,
            format!(
                "analysis and simulation disagree beyond tolerance for: {}",
                failed.join(", ")
            ),
        );
    }
    Ok(())
}

fn cmd_tune(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("tune", args)?;
    let path = pos.first().ok_or("tune: missing <model.json>")?;
    let model = load_model(path)?;
    let lo = flag_f64(&flags, "lo", 0.02)?;
    let hi = flag_f64(&flags, "hi", 20.0)?;
    let objective = match flags.get("objective").map(|s| s.as_str()) {
        None | Some("total") => Objective::TotalMeanJobs,
        Some("max") => Objective::MaxResponse,
        Some(other) => return Err(format!("unknown --objective `{other}` (total|max)")),
    };
    let opts = SolverOptions::default();
    let diag = Diagnostics::from_flags(&flags);
    let res =
        optimize_common_quantum(&model, lo, hi, 11, &objective, &opts).map_err(|e| e.to_string());
    diag.finish()?;
    let res = res?;
    if flags.contains_key("json") {
        println!(
            r#"{{"quantum":{},"objective_value":{},"evaluations":{}}}"#,
            json_f64(res.quantum),
            json_f64(res.objective_value),
            res.evaluations
        );
    } else if res.objective_value.is_finite() {
        println!(
            "optimal common quantum ≈ {:.4} (objective {:.4}, {} model solves)",
            res.quantum, res.objective_value, res.evaluations
        );
    } else {
        println!("no stable quantum found in [{lo}, {hi}]");
    }
    Ok(())
}

fn cmd_stability(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("stability", args)?;
    let path = pos.first().ok_or("stability: missing <model.json>")?;
    let model = load_model(path)?;
    let class = flag_count(&flags, "class", 0)?;
    if class >= model.num_classes() {
        return Err(format!(
            "--class {class} out of range (model has {})",
            model.num_classes()
        ));
    }
    let lo = flag_f64(&flags, "lo", 0.01)?;
    let hi = flag_f64(&flags, "hi", 50.0)?;
    let opts = SolverOptions::default();
    let diag = Diagnostics::from_flags(&flags);
    let threshold =
        stability_threshold_quantum(&model, class, lo, hi, &opts).map_err(|e| e.to_string());
    diag.finish()?;
    match threshold? {
        Some(q) if q == lo => println!("class {class} is stable across [{lo}, {hi}]"),
        Some(q) => println!("class {class} stabilizes at common quantum ≈ {q:.4}"),
        None => println!("class {class} is unstable across [{lo}, {hi}]"),
    }
    Ok(())
}

fn cmd_doctor(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("doctor", args)?;
    let (model, mut opts) = resolve_model("doctor", &pos, &flags)?;
    opts.collect_health = true;
    let diag = Diagnostics::from_flags(&flags);
    let sol = solve(&model, &opts).map_err(|e| e.to_string());
    diag.finish()?;
    let sol = sol?;
    let health = sol.health.as_ref().expect("collect_health was set");
    if flags.contains_key("json") {
        let classes: Vec<String> = health
            .classes
            .iter()
            .map(|c| {
                format!(
                    r#"{{"class":{},"stable":{},"drift_margin":{},"spectral_radius":{},"r_residual":{},"truncated_mass":{},"truncation_level":{},"certified_tail":{}}}"#,
                    c.class,
                    c.stable,
                    json_f64(c.drift_margin),
                    json_f64(c.spectral_radius),
                    json_f64(c.r_residual),
                    json_f64(c.truncated_mass),
                    c.truncation_level
                        .map(|l| l.to_string())
                        .unwrap_or_else(|| "null".to_string()),
                    json_f64(c.certified_tail),
                )
            })
            .collect();
        let warnings: Vec<String> = health.warnings().iter().map(|w| json_str(w)).collect();
        println!(
            r#"{{"all_stable":{},"converged":{},"iterations":{},"classes":[{}],"warnings":[{}]}}"#,
            sol.all_stable,
            sol.converged,
            sol.iterations,
            classes.join(","),
            warnings.join(",")
        );
    } else {
        println!(
            "numerical health: {} classes, {} fixed-point iterations, converged = {}, all stable = {}",
            health.classes.len(),
            sol.iterations,
            sol.converged,
            sol.all_stable
        );
        print!("{}", health.render());
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("bench", args)?;
    if let Some(arg) = pos.first() {
        return Err(format!("bench: unexpected argument `{arg}`"));
    }
    // Every scenario runs under a recorder of its own, so a second,
    // command-wide capture would see none of it.
    reject_flags(
        "bench",
        &flags,
        &["diag", "trace", "verbose"],
        "bench records its own counters",
    )?;
    let quick = flags.contains_key("quick");
    let scaling = flags.contains_key("scaling");
    if scaling && flags.contains_key("scenario") {
        return Err("--scaling and --scenario are mutually exclusive".to_string());
    }
    let (report, set) = if scaling {
        (
            bench::run_scaling_bench(quick)?,
            Some("scaling".to_string()),
        )
    } else {
        let only = flags
            .get("scenario")
            .map(|arg| load_scenario(arg))
            .transpose()?;
        let set = only.as_ref().map(|sc| sc.name.clone());
        (bench::run_bench(quick, only.as_ref())?, set)
    };
    println!(
        "{:<28} {:>8} {:>10} {:>12} {:>14} {:>9}",
        "scenario", "points", "fp iters", "R solves", "max residual", "warm"
    );
    for s in &report.scenarios {
        let warm = if s.warm_hits + s.warm_misses > 0 {
            format!(
                "{:.0}%",
                100.0 * s.warm_hits as f64 / (s.warm_hits + s.warm_misses) as f64
            )
        } else {
            "-".to_string()
        };
        println!(
            "{:<28} {:>8} {:>10} {:>12} {:>14} {:>9}",
            s.name,
            s.points,
            s.fp_iterations,
            s.rmatrix_solves,
            s.max_r_residual
                .map(|v| format!("{v:.3e}"))
                .unwrap_or_else(|| "-".to_string()),
            warm,
        );
    }
    let dir = std::path::Path::new(flags.get("out").map_or("results/bench", String::as_str));
    let path = dir.join(bench::record_name(set.as_deref(), quick));
    std::fs::create_dir_all(dir)
        .and_then(|()| gsched_obs::write_atomic(&path, report.to_json().as_bytes()))
        .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Fail when any of `names` (flag names; `verbose` stands for `-v`/`-vv`)
/// was given to `cmd`, naming the flag: for subcommands where a shared
/// diagnostics flag would otherwise be accepted and do nothing.
fn reject_flags(
    cmd: &str,
    flags: &HashMap<String, String>,
    names: &[&str],
    why: &str,
) -> Result<(), String> {
    match names.iter().find(|name| flags.contains_key(**name)) {
        Some(&"verbose") => Err(format!("{cmd}: -v is not supported ({why})")),
        Some(name) => Err(format!("{cmd}: --{name} is not supported ({why})")),
        None => Ok(()),
    }
}

fn cmd_paper(args: &[String]) -> Result<(), String> {
    let (_, flags) = parse_flags("paper", args)?;
    let rho = flag_f64(&flags, "rho", 0.4)?;
    let quantum = flag_f64(&flags, "quantum", 1.0)?;
    let model = registry::paper_machine(rho, quantum, 2).build()?;
    let diag = Diagnostics::from_flags(&flags);
    let sol = solve(&model, &SolverOptions::default()).map_err(|e| e.to_string());
    diag.finish()?;
    let sol = sol?;
    if flags.contains_key("json") {
        println!("{}", solution_json(&sol));
    } else {
        println!("paper configuration: rho = {rho}, quantum mean = {quantum}");
        print_solution_human(&model, &sol);
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("serve", args)?;
    if !pos.is_empty() {
        return Err(format!("serve: unexpected argument `{}`", pos[0]));
    }
    let defaults = ServeConfig::default();
    let opts = ServeConfig::builder()
        .addr(flags.get("addr").cloned().unwrap_or(defaults.addr))
        .workers(flag_count(&flags, "workers", defaults.workers)?)
        .cache_capacity(flag_count(&flags, "cache-cap", defaults.cache_capacity)?)
        .default_deadline_ms(flag_count(
            &flags,
            "deadline-ms",
            defaults.default_deadline_ms,
        )?)
        .queue_limit(flag_count(&flags, "queue-limit", defaults.queue_limit)?)
        .build()
        .map_err(|e| format!("serve: {}", e.message))?;
    let diag = Diagnostics::from_flags(&flags);
    let server = Server::bind(&opts).map_err(|e| format!("cannot bind `{}`: {e}", opts.addr))?;
    gsched_service::install_ctrl_c_handler();
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // Scripts (and the CI smoke test) parse this line for the bound port.
    println!(
        "listening on {addr} ({} workers, cache {} entries)",
        server.worker_count(),
        opts.cache_capacity
    );
    let result = server.run().map_err(|e| e.to_string());
    diag.finish()?;
    result
}

fn cmd_request(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("request", args)?;
    reject_flags(
        "request",
        &flags,
        &["diag", "trace", "verbose"],
        "the server solves; run it with --diag",
    )?;
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| ServeConfig::default().addr);
    let op = flags
        .get("op")
        .map(|s| {
            Op::parse(s).ok_or_else(|| format!("unknown --op `{s}` (solve|sweep|stats|shutdown)"))
        })
        .transpose()?;
    let deadline_ms = flags
        .get("deadline-ms")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("--deadline-ms expects a non-negative integer, got `{v}`"))
        })
        .transpose()?;
    let spec = RequestSpec {
        id: flags.get("id").cloned(),
        op,
        quick: flags.contains_key("quick"),
        deadline_ms,
    };
    let effective_op = op.unwrap_or(Op::Solve);
    let line = match (pos.first(), effective_op) {
        (Some(arg), Op::Solve | Op::Sweep) => {
            // A file is validated locally and sent inline; anything else
            // is a registry name the server resolves itself.
            if arg.ends_with(".json") || std::path::Path::new(arg).exists() {
                frame_for_scenario(&load_scenario(arg)?, &spec)
            } else {
                frame_for_name(arg, &spec)
            }
        }
        (None, Op::Stats | Op::Shutdown) => control_frame_for(&RequestSpec {
            id: spec.id.clone(),
            op: Some(effective_op),
            ..RequestSpec::default()
        }),
        (Some(_), _) => {
            return Err(format!(
                "request: --op {} takes no scenario",
                effective_op.as_str()
            ))
        }
        (None, _) => {
            return Err("request: missing <scenario> (registry name or file.json)".to_string())
        }
    };
    let mut client =
        Client::connect(&addr).map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    let reply = client.request_line(&line).map_err(|e| e.to_string())?;
    if flags.contains_key("frame") {
        // The whole response frame, for scripts that want `cached`/`id`.
        println!("{reply}");
    } else if frame_is_ok(&reply) {
        // Just the result document: byte-identical to local `--json` output.
        println!(
            "{}",
            extract_result(&reply).ok_or("malformed ok frame from server")?
        );
    } else {
        println!("{reply}");
    }
    if frame_is_ok(&reply) {
        Ok(())
    } else {
        Err("server replied with an error frame".to_string())
    }
}

fn example_model_json() -> &'static str {
    r#"{
  "processors": 8,
  "classes": [
    {
      "partition_size": 8,
      "arrival": { "type": "exponential", "rate": 0.4 },
      "service": { "type": "exponential", "rate": 1.328125 },
      "quantum": { "type": "erlang", "stages": 2, "rate": 1.0 },
      "switch_overhead": { "type": "exponential", "rate": 100.0 }
    },
    {
      "partition_size": 2,
      "arrival": { "type": "exponential", "rate": 0.4 },
      "service": { "type": "hyperexponential", "probs": [0.4, 0.6], "rates": [2.0, 8.0] },
      "quantum": { "type": "erlang", "stages": 2, "rate": 1.0 },
      "switch_overhead": { "type": "exponential", "rate": 100.0 }
    }
  ]
}"#
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let args = strings(&["model.json", "--mode", "m3", "--json", "-v"]);
        let (pos, flags) = parse_flags("solve", &args).unwrap();
        assert_eq!(pos, vec!["model.json"]);
        assert_eq!(flags.get("mode").map(|s| s.as_str()), Some("m3"));
        assert!(flags.contains_key("json"));
        assert_eq!(flags.get("verbose").map(|s| s.as_str()), Some("1"));
    }

    #[test]
    fn flag_missing_value_rejected() {
        assert!(parse_flags("solve", &strings(&["--mode"])).is_err());
    }

    #[test]
    fn diagnostics_flags_are_shared_by_every_subcommand() {
        for (cmd, _) in COMMAND_FLAGS {
            let args = strings(&["--diag", "d.json", "--trace", "t.json", "-vv"]);
            let (_, flags) = parse_flags(cmd, &args).unwrap();
            assert_eq!(flags.len(), 3, "{cmd}");
        }
    }

    #[test]
    fn every_bool_flag_is_read_by_some_subcommand() {
        for name in BOOL_FLAGS {
            assert!(
                COMMAND_FLAGS.iter().any(|(cmd, _)| accepts(cmd, name)),
                "--{name} is in BOOL_FLAGS but no subcommand reads it"
            );
        }
    }

    #[test]
    fn every_usage_flag_is_accepted_by_its_subcommand() {
        let flag_names = |line: &str| -> Vec<String> {
            line.match_indices("--")
                .map(|(i, _)| {
                    line[i + 2..]
                        .chars()
                        .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                        .collect()
                })
                .collect()
        };
        let mut seen = 0;
        let mut commands = 0;
        for line in usage().lines() {
            let Some(rest) = line.trim_start().strip_prefix("gsched ") else {
                // The trailing notes name shared flags.
                for name in flag_names(line) {
                    assert!(
                        COMMAND_FLAGS.iter().any(|(cmd, _)| accepts(cmd, &name)),
                        "usage names --{name}, which no subcommand accepts"
                    );
                    seen += 1;
                }
                continue;
            };
            let cmd = rest.split_whitespace().next().unwrap();
            commands += 1;
            for name in flag_names(line) {
                assert!(accepts(cmd, &name), "usage gives `{cmd}` --{name}");
                seen += 1;
            }
        }
        assert_eq!(commands, COMMAND_FLAGS.len(), "one usage line per table");
        assert!(seen > 40, "usage text lists only {seen} flags");
    }

    #[test]
    fn example_model_parses_and_solves() {
        let spec = ModelSpec::from_json(example_model_json()).unwrap();
        let model = spec.build().unwrap();
        let sol = solve(&model, &SolverOptions::default()).unwrap();
        assert!(sol.all_stable);
    }

    #[test]
    fn unknown_subcommand_errors() {
        let args: Vec<String> = ["frobnicate"].iter().map(|s| s.to_string()).collect();
        assert!(run(&args).is_err());
    }

    #[test]
    fn json_f64_encodes_nonfinite_as_null() {
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
