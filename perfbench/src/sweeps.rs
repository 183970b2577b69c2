//! The two sweep workloads, `figs_sweep` and `large_p`: seeded figure or
//! machine-size grids solved through `gsched_engine::run_sweep` with one
//! job, then checked against independent answers.

use crate::host;
use crate::inputs::{self, SweepDoc, FIGS_ROUNDS, LARGE_P_ROUNDS};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats::{median, ms_since, quantile};
use crate::trace::{mirror_sweep, Layers, Spans};
use gsched_core::{solve, solve_asymptotic, GangSolution, SolverOptions};
use gsched_engine::{run_sweep, ScenarioBase, SweepOptions, SweepPoint, SweepReport, SweepRequest};
use gsched_linalg::WorkCounters;
use gsched_qbd::LevelTruncation;
use gsched_scenario::Scenario;
use serde_json::Value;
use std::time::{Duration, Instant};

/// Which sweep workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    Figs,
    LargeP,
}

/// Relative agreement required between a warm sweep point and its cold
/// re-solve. The fixed point stops once successive populations change by
/// less than `fp_tol` = 1e-6, so a warm and a cold answer may differ by
/// more than that. Over round 0 of seeds 1–47 (about 6,000 class answers)
/// the largest gap was 9.3e-6; the limit leaves about twice that.
pub const COLD_REL_TOL: f64 = 2e-5;
/// Points of round 0 re-solved cold on every `figs_sweep` run.
const COLD_SAMPLE: usize = 6;
/// Fewest passes over the rounds a timed run makes, however short its
/// budget; a point's median time needs a few.
const MIN_PASSES: usize = 3;
/// Fewest set-ups a timed run makes; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// A parsed sweep input, ready for the engine.
pub struct Prepared {
    pub label: String,
    pub scenario: Scenario,
    pub request: SweepRequest,
}

/// Everything set up before the first timed sweep.
pub struct Setup {
    pub rounds: Vec<Vec<Prepared>>,
    /// `results/fig*.json` series by figure id (`figs_sweep` only).
    pub reference: Vec<(String, Value)>,
}

fn docs_for(kind: SweepKind, seed: u64, round: u64) -> Vec<SweepDoc> {
    match kind {
        SweepKind::Figs => inputs::figs_round(seed, round),
        SweepKind::LargeP => vec![inputs::large_p_round(seed, round)],
    }
}

/// Parse a document and materialize its grid (`Scenario::from_json`, then
/// `model_at` per point), under spans when tracing.
pub fn prepare(doc: &SweepDoc, spans: Option<&Spans>) -> Result<Prepared, String> {
    let timed = |name: &str, f: &mut dyn FnMut()| match spans {
        Some(s) => s.timed(name, None, 0, |_| f()),
        None => f(),
    };
    let mut parsed = None;
    timed("scenario.from_json", &mut || {
        parsed = Some(Scenario::from_json(&doc.json))
    });
    let scenario = parsed
        .expect("parse ran")
        .map_err(|e| format!("{}: {e}", doc.label))?;
    if let Some(s) = spans {
        s.timed("scenario.content_hash", None, 0, |_| {
            std::hint::black_box(scenario.content_hash())
        });
    }
    let sweep = scenario
        .sweep
        .as_ref()
        .ok_or("sweep inputs carry a sweep")?;
    let mut points = Vec::with_capacity(sweep.grid.len());
    for &x in &sweep.grid {
        let mut model = None;
        timed("scenario.model_at", &mut || {
            model = Some(scenario.model_at(x))
        });
        let model = model.expect("model_at ran").map_err(|e| e.to_string())?;
        points.push(SweepPoint { x, model });
    }
    let mut base = ScenarioBase::labeled(scenario.name.clone());
    base.params = scenario.params.clone();
    let request = SweepRequest::new(sweep.axis.engine_axis(), base, points);
    Ok(Prepared {
        label: doc.label.clone(),
        scenario,
        request,
    })
}

/// Read one `results/<id>.json` record.
fn read_reference(id: &str) -> Result<Value, String> {
    let path = format!("results/{id}.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn setup(kind: SweepKind, seed: u64, spans: Option<&Spans>) -> Result<Setup, String> {
    let reference = match kind {
        SweepKind::Figs => ["fig2", "fig3", "fig4", "fig5"]
            .iter()
            .map(|id| read_reference(id).map(|v| (id.to_string(), v)))
            .collect::<Result<_, _>>()?,
        SweepKind::LargeP => Vec::new(),
    };
    let count = match kind {
        SweepKind::Figs => FIGS_ROUNDS,
        SweepKind::LargeP => LARGE_P_ROUNDS,
    };
    let rounds = (0..count)
        .map(|r| {
            docs_for(kind, seed, r)
                .iter()
                .map(|d| prepare(d, spans))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<_, _>>()?;
    Ok(Setup { rounds, reference })
}

/// The solver options a workload's sweeps run with: defaults for the
/// figures; for large P, certified level truncation at the scenario's tail
/// ceiling plus the health report that carries the certificates (what
/// `gsched sweep p_sweep` uses).
pub fn solver_for(kind: SweepKind, scenario: &Scenario) -> SolverOptions {
    let mut solver = SolverOptions::default();
    if kind == SweepKind::LargeP {
        solver.qbd.truncation = LevelTruncation::Auto {
            target_tail: scenario.tolerance.certified_tail.unwrap_or(1e-8),
            min_levels: 4,
        };
        solver.collect_health = true;
    }
    solver
}

fn sweep_options(kind: SweepKind, p: &Prepared) -> SweepOptions {
    SweepOptions::default()
        .with_jobs(1)
        .with_solver(solver_for(kind, &p.scenario))
}

/// Time one more set-up and throw it away.
fn time_setup(kind: SweepKind, seed: u64, times: &mut Vec<f64>) -> Result<(), String> {
    let t0 = Instant::now();
    std::hint::black_box(setup(kind, seed, None)?);
    times.push(t0.elapsed().as_secs_f64());
    Ok(())
}

fn point_failed(p: &gsched_engine::PointReport) -> bool {
    p.solution.as_ref().is_none_or(|s| !s.converged)
}

/// One sweep input's timings: for every point, its wall milliseconds and
/// reference burst (see [`host::Sampler`]) on every pass.
type Samples = Vec<Vec<(f64, usize)>>;

/// The untraced end-to-end run. It makes whole passes over every round
/// until `seconds` have gone by (at least [`MIN_PASSES`], and no pass that
/// would end past the budget), and every point's time is its median over
/// the passes. The answers of every pass must pass.
///
/// Between sweeps, once a second of sweeping has gone by, the host's
/// reference computation is timed in a short burst (see [`host::Sampler`]).
/// Each point time is divided by the host factor of the first burst after
/// its sweep before the median over passes is taken, which turns it into
/// time on the machine the benchmark was built on: outside load that slows
/// the whole machine slows the sweeps and the reference alike and cancels.
///
/// Set-up is timed once before the first pass, once after every round, and
/// at the end as often as it takes to reach [`SETUP_REPS`]; `setup_s` is
/// the median, divided by the run's host factor (all its bursts).
pub fn run(kind: SweepKind, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let setup = setup(kind, seed, None)?;
    let mut setup_times = vec![t0.elapsed().as_secs_f64()];
    let mut out = Outcome::default();
    let mut walls: Vec<Vec<Samples>> = setup
        .rounds
        .iter()
        .map(|round| {
            round
                .iter()
                .map(|p| vec![Vec::new(); p.request.points.len()])
                .collect()
        })
        .collect();
    let picks = match kind {
        SweepKind::Figs => cold_picks(seed, &setup.rounds[0]),
        SweepKind::LargeP => Vec::new(),
    };
    let mut sampler = host::Sampler::default();
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut pass_s: Vec<f64> = Vec::new();
    loop {
        let longest = pass_s.iter().copied().fold(0.0, f64::max);
        if pass_s.len() >= MIN_PASSES && t0.elapsed() + Duration::from_secs_f64(longest) > budget {
            break;
        }
        let first_pass = pass_s.is_empty();
        let started = Instant::now();
        for (r, (prepared, walls)) in setup.rounds.iter().zip(walls.iter_mut()).enumerate() {
            for (f, (p, walls)) in prepared.iter().zip(walls.iter_mut()).enumerate() {
                let report = run_sweep(&p.request, &sweep_options(kind, p));
                let burst = sampler.next_burst();
                sampler.after(report.stats.wall_ms / 1e3);
                check_points(kind, p, &report, &mut out);
                for (w, pt) in walls.iter_mut().zip(&report.points) {
                    w.push((pt.wall_ms, burst));
                }
                // The first sweep of each round-0 input is checked at once
                // rather than kept: a report held across later sweeps
                // leaves its memory among theirs and raises the peak
                // resident set.
                if first_pass && r == 0 {
                    match kind {
                        SweepKind::Figs => cold_check(p, f, &picks, &report, &mut out),
                        SweepKind::LargeP => asymptotic_check(p, &report, &mut out),
                    }
                }
            }
            time_setup(kind, seed, &mut setup_times)?;
        }
        pass_s.push(started.elapsed().as_secs_f64());
    }
    sampler.finish();
    let reference = sampler.times_ms();
    let host = host::factor(&reference);
    let raw: Vec<f64> = walls
        .iter()
        .flatten()
        .flatten()
        .map(|w| median(&w.iter().map(|&(ms, _)| ms).collect::<Vec<_>>()))
        .collect();
    let scaled: Vec<f64> = walls
        .iter()
        .flatten()
        .flatten()
        .map(|w| {
            let ms: Vec<f64> = w
                .iter()
                .map(|&(ms, b)| ms / sampler.burst_factor(b))
                .collect();
            median(&ms)
        })
        .collect();
    let points = raw.len();
    let per_s = |ms: &[f64]| points as f64 / (ms.iter().sum::<f64>() / 1e3);
    let shown: Vec<String> = pass_s.iter().map(|s| format!("{s:.2}")).collect();
    out.note(format!(
        "{} passes over {} rounds, {points} points; pass times (s): {}",
        pass_s.len(),
        setup.rounds.len(),
        shown.join(" ")
    ));
    out.note(format!(
        "host factor {host:.4}: median of {} reference runs {:.3} ms (range {:.3}-{:.3}) over {} ms",
        reference.len(),
        median(&reference),
        quantile(&reference, 0.0),
        quantile(&reference, 1.0),
        host::REFERENCE_MS
    ));
    out.note(format!(
        "unscaled: points_per_s {:.4}, point_p50_ms {:.4}, point_p95_ms {:.4}, setup_s {:.6}",
        per_s(&raw),
        median(&raw),
        quantile(&raw, 0.95),
        median(&setup_times)
    ));
    if kind == SweepKind::Figs {
        paper_grids(&setup.reference, &mut out);
    }
    while setup_times.len() < SETUP_REPS {
        time_setup(kind, seed, &mut setup_times)?;
    }
    out.metric("points_per_s", per_s(&scaled));
    out.metric("point_p50_ms", median(&scaled));
    out.metric("setup_s", median(&setup_times) / host);
    Ok(out)
}

/// Count a sweep's points, failing any that errored or did not converge
/// and, on `large_p`, any stable class whose certified truncation tail
/// exceeds the scenario's ceiling.
fn check_points(kind: SweepKind, p: &Prepared, report: &SweepReport, out: &mut Outcome) {
    let ceiling = p.scenario.tolerance.certified_tail.unwrap_or(1e-8);
    for pt in &report.points {
        out.attempted += 1;
        if point_failed(pt) {
            let why = pt.error.as_deref().unwrap_or("not converged");
            out.fail(format!("{}@x={}: {why}", p.label, pt.x));
        }
        if kind != SweepKind::LargeP {
            continue;
        }
        let health = pt
            .solution
            .iter()
            .flat_map(|s| &s.health)
            .flat_map(|h| &h.classes);
        for h in
            health.filter(|h| h.stable && (h.certified_tail.is_nan() || h.certified_tail > ceiling))
        {
            out.fail(format!(
                "{}@P={}: class {} certified tail {:.3e} > {ceiling:.0e}",
                p.label, pt.x, h.class, h.certified_tail
            ));
        }
    }
}

/// The largest machine must sit within the scenario's relative tolerance of
/// the zero-queueing P→∞ limit.
fn asymptotic_check(p: &Prepared, report: &SweepReport, out: &mut Outcome) {
    out.attempted += 1;
    let tol = p.scenario.tolerance.asymptotic_rel.unwrap_or(0.05);
    let Some((pt, sol)) = p
        .request
        .points
        .iter()
        .zip(&report.points)
        .next_back()
        .and_then(|(pt, r)| r.solution.as_ref().map(|s| (pt, s)))
    else {
        out.fail("large_p: largest point has no solution".to_string());
        return;
    };
    match solve_asymptotic(&pt.model) {
        Ok(limit) => {
            let gap = sol
                .classes
                .iter()
                .zip(&limit.classes)
                .map(|(a, b)| (a.mean_response - b.mean_response).abs() / b.mean_response)
                .fold(0.0_f64, f64::max);
            eprintln!(
                "perfbench: P = {} is {:.4}% from the zero-queueing limit",
                pt.x,
                gap * 100.0
            );
            if gap.is_nan() || gap > tol {
                out.fail(format!(
                    "large_p@P={}: {gap:.4} from the asymptotic limit",
                    pt.x
                ));
            }
        }
        Err(e) => out.fail(format!("large_p: solve_asymptotic failed: {e}")),
    }
}

/// Whether two answers agree class by class within `rel` (both unstable
/// counts as agreement).
pub fn answers_agree(a: &GangSolution, b: &GangSolution, rel: f64) -> bool {
    a.classes.len() == b.classes.len()
        && a.classes.iter().zip(&b.classes).all(|(x, y)| {
            if !x.mean_jobs.is_finite() || !y.mean_jobs.is_finite() {
                x.stable == y.stable && x.mean_jobs.is_finite() == y.mean_jobs.is_finite()
            } else {
                (x.mean_jobs - y.mean_jobs).abs() <= rel * y.mean_jobs.abs().max(1e-12)
            }
        })
}

/// The seeded sample of round-0 points, as `(input, point)` indices, that
/// is re-solved cold with `gsched_core::solve`.
fn cold_picks(seed: u64, prepared: &[Prepared]) -> Vec<(usize, usize)> {
    let mut rng = Rng::stream(seed, "cold_sample", 0);
    let all: Vec<(usize, usize)> = prepared
        .iter()
        .enumerate()
        .flat_map(|(f, p)| (0..p.request.points.len()).map(move |i| (f, i)))
        .collect();
    let mut picks: Vec<(usize, usize)> = (0..COLD_SAMPLE)
        .map(|_| all[rng.below(all.len())])
        .collect();
    picks.sort_unstable();
    picks.dedup();
    picks
}

/// Re-solve the picked points of round-0 input `f` cold and require
/// agreement with its warm-started sweep.
fn cold_check(
    p: &Prepared,
    f: usize,
    picks: &[(usize, usize)],
    report: &SweepReport,
    out: &mut Outcome,
) {
    for &(_, i) in picks.iter().filter(|(pf, _)| *pf == f) {
        out.attempted += 1;
        let pt = &p.request.points[i];
        let warm = report.points[i].solution.as_ref();
        match (solve(&pt.model, &SolverOptions::default()), warm) {
            (Ok(cold), Some(warm)) if answers_agree(warm, &cold, COLD_REL_TOL) => {}
            _ => out.fail(format!("cold:{}@x={}", p.label, pt.x)),
        }
    }
}

/// Series `label` of a results record: `(x, y)` with `null` as `None`.
fn reference_series(record: &Value, label: &str) -> Option<Vec<(f64, Option<f64>)>> {
    let series = record.get("series")?.as_array()?;
    let s = series
        .iter()
        .find(|s| s.get("label").and_then(|l| l.as_str()) == Some(label))?;
    let xs = s.get("x")?.as_array()?;
    let ys = s.get("y")?.as_array()?;
    Some(
        xs.iter()
            .zip(ys)
            .map(|(x, y)| (x.as_f64().unwrap_or(f64::NAN), y.as_f64()))
            .collect(),
    )
}

/// Compare one class series of a sweep with the committed record; each
/// point is one checked operation.
pub fn compare_series(
    name: &str,
    report: &SweepReport,
    class: usize,
    expected: &[(f64, Option<f64>)],
    out: &mut Outcome,
) {
    if expected.len() != report.points.len() {
        out.attempted += 1;
        out.fail(format!(
            "{name}: {} points vs {} recorded",
            report.points.len(),
            expected.len()
        ));
        return;
    }
    for (pt, &(x, y)) in report.points.iter().zip(expected) {
        out.attempted += 1;
        let got = pt.solution.as_ref().map(|s| s.classes[class].mean_jobs);
        let ok = pt.x == x
            && match (got, y) {
                (Some(g), Some(e)) => g == e,
                (Some(g), None) => !g.is_finite(),
                (None, _) => false,
            };
        if !ok {
            out.fail(format!("{name}@x={x}: got {got:?}, recorded {y:?}"));
        }
    }
}

/// Sweep the paper's own grids and require the committed figure data
/// exactly. The engine's answer does not depend on `jobs`, so these
/// verification sweeps use both cores.
fn paper_grids(reference: &[(String, Value)], out: &mut Outcome) {
    let record = |id: &str| {
        &reference
            .iter()
            .find(|(k, _)| k == id)
            .expect("reference loaded")
            .1
    };
    for (id, sc) in inputs::paper_figure_sweeps() {
        let req = sc.sweep_request(false).expect("registry grids are valid");
        let report = run_sweep(&req, &SweepOptions::default().with_jobs(2));
        if let Some(class) = id.strip_prefix("fig5_class") {
            let k: usize = class.parse().expect("class suffix");
            match reference_series(record("fig5"), &format!("class {k}")) {
                Some(exp) => compare_series(&format!("paper:{id}"), &report, k, &exp, out),
                None => out.fail(format!("paper:{id}: no recorded series")),
            }
        } else {
            for k in 0..sc.machine.classes.len() {
                match reference_series(record(&id), &format!("class {k}")) {
                    Some(exp) => {
                        compare_series(&format!("paper:{id}/class{k}"), &report, k, &exp, out)
                    }
                    None => out.fail(format!("paper:{id}: no recorded series for class {k}")),
                }
            }
        }
    }
}

/// The traced run: round 0 untraced, the same round traced with the
/// memory recorder installed, then the replay and the service probe.
pub fn trace(kind: SweepKind, seed: u64) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    let setup = setup(kind, seed, Some(&layers.spans))?;
    let unit = &setup.rounds[0];
    let mut out = Outcome::default();

    // The unit runs untraced twice, then traced; the faster untraced pass
    // is the base of `obs.recorder_overhead`.
    let sweep_all = || {
        let t0 = Instant::now();
        for p in unit {
            std::hint::black_box(run_sweep(&p.request, &sweep_options(kind, p)));
        }
        ms_since(t0)
    };
    layers.untraced_wall_ms = sweep_all().min(sweep_all());

    let recorder = gsched_obs::install_memory();
    let work = WorkCounters::snapshot();
    let t0 = Instant::now();
    let reports: Vec<SweepReport> = unit
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let spans = &layers.spans;
            let trace_id = i as u64 + 1;
            let start = Instant::now();
            spans.timed("engine.run_sweep", None, trace_id, |parent| {
                let report = run_sweep(&p.request, &sweep_options(kind, p));
                // Points run one after another on the single job, so each
                // point's span starts where the previous one ended.
                let mut at = start;
                for pt in &report.points {
                    let end = at + Duration::from_secs_f64(pt.wall_ms / 1e3);
                    spans.record(spans.id(), "engine.point", Some(parent), trace_id, at, end);
                    at = end;
                }
                report
            })
        })
        .collect();
    layers.traced_wall_ms = ms_since(t0);
    layers.work = work.delta_since();
    layers.read_recorder(&recorder);
    gsched_obs::uninstall();

    for (p, report) in unit.iter().zip(&reports) {
        layers.count_sweep(report);
        out.attempted += report.points.len() as u64;
        for pt in report.points.iter().filter(|pt| point_failed(pt)) {
            out.fail(format!("{}@x={}", p.label, pt.x));
        }
        let solver = solver_for(kind, &p.scenario);
        let (mirrored, mismatches) = mirror_sweep(&p.label, &p.request, report, &solver);
        layers.replay.mismatches.extend(mismatches);
        for ((pt, rep), m) in p.request.points.iter().zip(&report.points).zip(&mirrored) {
            if let (Some(answer), Some((_, warm))) = (&rep.solution, m) {
                let name = format!("{}@x={}", p.label, pt.x);
                layers.replay.point(&name, &pt.model, &solver, answer, warm);
            }
        }
    }
    layers.service = crate::service::probe(seed, &layers.spans, &mut out)?;
    Ok(out.with_layers(kind_name(kind), seed, &layers))
}

pub fn kind_name(kind: SweepKind) -> &'static str {
    match kind {
        SweepKind::Figs => "figs_sweep",
        SweepKind::LargeP => "large_p",
    }
}
