//! The fixed-point solver (paper §4.3).
//!
//! The heavy-traffic initialization (Theorem 4.1) assumes every class uses
//! its full quantum. Solving each class under that assumption yields its
//! stationary distribution; from it the class's *effective* quantum — cut
//! short or skipped when the queue is empty — is extracted (Theorem 4.3).
//! The effective quanta shrink the other classes' vacations, the classes are
//! re-solved, and the cycle repeats until the per-class mean populations
//! stop changing. A class that is momentarily unstable under the current
//! (pessimistic) vacations keeps its full quantum — a saturated class never
//! surrenders its time slice — and typically becomes stable as the other
//! classes' effective quanta shrink.
//!
//! The iterate is the stacked vector of every class's skip atom and fitted
//! raw moments. A plain damped step converges geometrically; the solver
//! instead takes type-II Anderson steps on that vector (depth 3, mixing
//! weight equal to the damping), falling back to the damped step per class
//! where the extrapolated moments cannot be fitted or would raise the
//! quantum's order, and restarting the history when a class crosses the
//! stability boundary or the residual jumps.

use crate::anderson::Anderson;
use crate::effective::{compress, effective_quantum, QuantumMoments};
use crate::generator::{build_class_chain, ClassChain};
use crate::health::{ClassHealth, HealthReport};
use crate::measures::{class_measures, ClassMeasures};
use crate::model::GangModel;
use crate::response::response_time_distribution;
use crate::vacation::{compose_vacation, VacationCache};
use crate::{GangError, Result};
use gsched_linalg::Matrix;
use gsched_obs as obs;
use gsched_phase::PhaseType;
use gsched_qbd::solution::SolveOptions as QbdSolveOptions;
use gsched_qbd::{QbdError, QbdSolution, TruncationCertificate};

/// How the vacation distributions are built during the fixed point.
#[derive(Debug, Clone, PartialEq)]
pub enum VacationMode {
    /// Theorem 4.1 only: one pass with full quanta, no fixed point. Exact in
    /// the heavy-traffic regime, pessimistic otherwise.
    HeavyTraffic,
    /// Fixed point with each effective quantum compressed to a small PH
    /// matching its first `moments` (2 or 3) conditional moments plus its
    /// skip atom. Fast; the paper's insensitivity argument (§3.2) motivates
    /// it. This is the default with `moments = 2`.
    MomentMatched {
        /// Number of moments to match (2 or 3).
        moments: u8,
    },
}

impl Default for VacationMode {
    fn default() -> Self {
        VacationMode::MomentMatched { moments: 2 }
    }
}

/// Fixed-point iteration budget. Near saturation the iteration converges
/// geometrically with a rate approaching 1; a budget-exhausted iterate
/// whose residual is already small is still returned (unconverged).
const FP_MAX_ITER: usize = 300;

/// Under-relaxation weight `θ` on the effective-quantum update: the damped
/// step fits the mixture `θ·new + (1−θ)·old`, which suppresses the
/// stable/unstable flapping that can occur near saturation. It is also the
/// Anderson mixing weight `β`, so an accelerated step with no history is
/// the damped step.
const DAMPING: f64 = 0.7;

/// Anderson history depth: the number of past differences each
/// accelerated step mixes.
const ANDERSON_DEPTH: usize = 3;

/// Options for [`solve`]: plain data, set by field assignment from
/// [`SolverOptions::default`]. [`solve_warm`] checks them
/// ([`SolverOptions::validate`]) before it solves anything.
///
/// Per-iteration diagnostics (populations, effective quanta, convergence
/// deltas) are published through `gsched_obs` — install a recorder with
/// `gsched_obs::install_memory()` to capture them.
///
/// ```
/// use gsched_core::solver::{SolverOptions, VacationMode};
/// let opts = SolverOptions {
///     mode: VacationMode::MomentMatched { moments: 3 },
///     fp_tol: 1e-8,
///     collect_health: true,
///     ..SolverOptions::default()
/// };
/// assert!(opts.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Vacation construction mode.
    pub mode: VacationMode,
    /// Relative tolerance on per-class mean populations for fixed-point
    /// convergence.
    pub fp_tol: f64,
    /// Stationary tail mass allowed above the truncation cap when
    /// extracting effective quanta.
    pub tail_eps: f64,
    /// Maximum levels above `c_p` for the truncation cap.
    pub max_extra_levels: usize,
    /// Options passed to the per-class QBD solves: the `R` tolerance and
    /// budget, an explicit warm-start `R` (which no solver
    /// path sets), and the level-truncation policy. With [`gsched_qbd::LevelTruncation::Auto`], solves at large
    /// `c_p` pick a truncation level automatically and attach a certified
    /// tail-mass bound to [`ClassResult::truncation`].
    pub qbd: QbdSolveOptions,
    /// If true, return [`GangError::Unstable`] when any class remains
    /// unstable at the end; if false (default) report it in the solution.
    pub require_stable: bool,
    /// Also compute each stable class's response-time *distribution*
    /// (tagged-job analysis) and store its (p50, p90, p95, p99) quantiles in
    /// the results. Costs one extra absorbing-chain solve per class.
    pub response_quantiles: bool,
    /// Also assemble a per-class numerical-health report
    /// ([`GangSolution::health`]): drift slack, `sp(R)`, `R` residual, and
    /// truncated tail mass at the fixed point. Costs one extra drift check,
    /// residual evaluation and `sp(R)` power iteration per class: the solve
    /// itself certifies `sp(R) < 1` from `(I−R)⁻¹` and runs the power
    /// iteration only here (or when an `obs` recorder is installed).
    pub collect_health: bool,
    /// Solve the `L` independent per-class QBD chains of each fixed-point
    /// pass on scoped worker threads instead of serially. The per-class
    /// solves are mutually independent given the current quanta, so this is
    /// numerics-neutral: results are bitwise identical to the serial path.
    pub parallel_classes: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            mode: VacationMode::default(),
            fp_tol: 1e-6,
            tail_eps: 1e-9,
            max_extra_levels: 80,
            qbd: QbdSolveOptions::default(),
            require_stable: false,
            response_quantiles: false,
            collect_health: false,
            parallel_classes: false,
        }
    }
}

impl SolverOptions {
    /// Check every field, naming the first invalid one in
    /// [`GangError::InvalidOptions`]. [`solve_warm`] (and so [`solve`])
    /// calls this first, so options set by field assignment are checked
    /// before any work is done.
    pub fn validate(&self) -> Result<()> {
        use gsched_qbd::LevelTruncation::{Auto, Fixed};
        use VacationMode::MomentMatched;
        let (mode, q) = (&self.mode, &self.qbd);
        let in_unit = |x: f64| x > 0.0 && x < 1.0;
        let problem = if !(self.fp_tol.is_finite() && self.fp_tol > 0.0) {
            format!("fp_tol must be finite and positive, got {}", self.fp_tol)
        } else if !in_unit(self.tail_eps) {
            format!("tail_eps must lie in (0, 1), got {}", self.tail_eps)
        } else if self.max_extra_levels == 0 {
            "max_extra_levels must be at least 1".into()
        } else if matches!(mode, MomentMatched { moments } if !(2..=3).contains(moments)) {
            format!("MomentMatched supports 2 or 3 moments, got {mode:?}")
        } else if !(q.tol.is_finite() && q.tol > 0.0) {
            format!("qbd.tol must be finite and positive, got {}", q.tol)
        } else if q.max_iter == 0 {
            "qbd.max_iter must be at least 1".into()
        } else if q.truncation == (Fixed { level: 0 }) {
            "qbd.truncation Fixed level must be at least 1".into()
        } else if matches!(q.truncation, Auto { target_tail, .. } if !in_unit(target_tail)) {
            format!(
                "qbd.truncation Auto target_tail must lie in (0, 1): {:?}",
                q.truncation
            )
        } else {
            return Ok(());
        };
        Err(GangError::InvalidOptions(problem))
    }
}

/// Result for one class.
#[derive(Debug, Clone)]
pub struct ClassResult {
    /// Whether the class is positive recurrent under the converged
    /// vacations.
    pub stable: bool,
    /// Steady-state measures (`None` when unstable).
    pub measures: Option<ClassMeasures>,
    /// `N_p`; infinite when unstable.
    pub mean_jobs: f64,
    /// `T_p = N_p/λ_p`; infinite when unstable.
    pub mean_response: f64,
    /// Mean of the class's effective quantum at the fixed point.
    pub effective_quantum_mean: f64,
    /// Probability the class's turn is skipped entirely (atom of the
    /// effective quantum); zero when saturated.
    pub skip_probability: f64,
    /// Mean of the class's vacation `Z_p` at the fixed point.
    pub vacation_mean: f64,
    /// Response-time quantiles `(p50, p90, p95, p99)` from the tagged-job
    /// distribution, when requested via
    /// [`SolverOptions::response_quantiles`].
    pub response_quantiles: Option<(f64, f64, f64, f64)>,
    /// Where a level-truncated solve cut the class's chain and the
    /// certified tail mass above the cut; `None` when the full chain was
    /// solved (or the class is unstable).
    pub truncation: Option<TruncationCertificate>,
}

/// The solved gang-scheduling model.
#[derive(Debug, Clone)]
pub struct GangSolution {
    /// Per-class results.
    pub classes: Vec<ClassResult>,
    /// Fixed-point iterations performed.
    pub iterations: usize,
    /// Whether the fixed point converged within the iteration budget.
    pub converged: bool,
    /// True iff every class is stable.
    pub all_stable: bool,
    /// Mean timeplexing-cycle length at the fixed point: the sum over
    /// classes of the mean effective quantum plus the mean switch overhead.
    /// Compare with `GangModel::full_cycle_mean()` to see how much of the
    /// nominal cycle the switch-on-empty rule gives back.
    pub mean_cycle: f64,
    /// Per-class numerical-health report, when requested via
    /// [`SolverOptions::collect_health`].
    pub health: Option<HealthReport>,
}

impl GangSolution {
    /// Total mean number of jobs across classes (infinite if any class is
    /// unstable).
    pub fn total_mean_jobs(&self) -> f64 {
        self.classes.iter().map(|c| c.mean_jobs).sum()
    }
}

/// One class's per-iteration working state.
enum ClassIterate {
    Stable(Box<(ClassChain, QbdSolution)>),
    Unstable,
}

/// Converged solver state exportable to a neighbouring scenario.
///
/// A sweep engine hands the `WarmStart` returned for point `k` to the solve
/// of point `k+1`, where the effective quanta seed the fixed point near its
/// solution. Every `R` (eq. 23) is still solved cold by logarithmic
/// reduction: seeding successive substitution from a neighbouring `R`
/// converges linearly at a rate near `sp(R)`, while the cold solve converges
/// quadratically.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// Converged per-class effective quanta (ignored by
    /// [`VacationMode::HeavyTraffic`], which is defined by full quanta).
    pub quanta: Option<Vec<PhaseType>>,
    /// Converged per-class rate matrices `R`; `None` for classes that were
    /// unstable at the exporting point.
    ///
    /// Filled on output only: no solver path reads it as input. It stays
    /// because the benchmark harness (`perfbench/`) replays an explicit
    /// [`QbdSolveOptions::initial_r`] solve from it; deleting it waits for
    /// a change to that harness.
    pub r_matrices: Vec<Option<Matrix>>,
}

/// Result of [`solve_warm`]: the solution plus the converged state a
/// neighbouring scenario can warm-start from.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The solved model.
    pub solution: GangSolution,
    /// Converged state for reuse by the next sweep point.
    pub warm: WarmStart,
}

/// Solve the gang-scheduling model.
pub fn solve(model: &GangModel, opts: &SolverOptions) -> Result<GangSolution> {
    Ok(solve_warm(model, opts, None, None)?.solution)
}

/// Solve one class's QBD chain under the current quanta. Independent across
/// classes, so callable from worker threads.
fn solve_one_class(
    model: &GangModel,
    opts: &SolverOptions,
    p: usize,
    quanta: &[PhaseType],
    cache: Option<&VacationCache>,
) -> Result<(PhaseType, ClassIterate)> {
    // Named per class so qbd events fired inside carry the class in their
    // span path (e.g. `core.solve/core.class1/qbd.solve`).
    let _class_span = obs::span(format!("core.class{p}"));
    let vac = {
        let _vac_span = obs::span("core.vacation");
        match cache {
            Some(c) => c.compose(model, p, quanta),
            None => compose_vacation(model, p, quanta),
        }
    };
    let chain = {
        let _gen_span = obs::span("core.generator");
        build_class_chain(model, p, &vac)?
    };
    match chain.qbd.solve(&opts.qbd) {
        Ok(sol) => Ok((vac, ClassIterate::Stable(Box::new((chain, sol))))),
        Err(QbdError::Unstable(_)) => Ok((vac, ClassIterate::Unstable)),
        Err(source) => Err(GangError::from(source).with_class(p)),
    }
}

/// Solve the gang-scheduling model with optional warm start and vacation
/// memoization, returning the converged state for reuse.
///
/// `warm = None` reproduces [`solve`] exactly. `warm = Some(_)` enables
/// continuation mode, in which the supplied quanta seed the
/// effective-quantum fixed point; with no quanta to seed from it is `solve`
/// again, bit for bit. Every `R` solve is cold in both modes: the supplied
/// `WarmStart::r_matrices` are ignored. A `cache` memoizes vacation
/// convolutions across calls.
pub fn solve_warm(
    model: &GangModel,
    opts: &SolverOptions,
    warm: Option<&WarmStart>,
    cache: Option<&VacationCache>,
) -> Result<SolveOutcome> {
    fixed_point(model, opts, warm, cache, true)
}

/// The plain damped iteration (every pass takes the damped step), kept as
/// the reference the accelerated [`solve_warm`] is tested against: the same
/// fixed point, reached in more passes. Solves cold, without a cache.
#[cfg(any(test, feature = "damped-oracle"))]
pub fn solve_damped(model: &GangModel, opts: &SolverOptions) -> Result<SolveOutcome> {
    fixed_point(model, opts, None, None, false)
}

/// How a pass's effective quanta were made from the previous pass.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// The first pass: parameter or warm-start quanta.
    Initial,
    /// Every class took the damped step (no Anderson history).
    Damped,
    /// Every class took the Anderson extrapolation.
    Accelerated,
    /// Extrapolated, but at least one class fell back to its damped step.
    Guarded,
}

impl Step {
    fn name(self) -> &'static str {
        match self {
            Step::Initial => "initial",
            Step::Damped => "damped",
            Step::Accelerated => "accelerated",
            Step::Guarded => "guarded",
        }
    }
}

/// The Theorem 4.3 iteration behind [`solve_warm`]; `accelerate = false`
/// takes the damped step on every pass.
fn fixed_point(
    model: &GangModel,
    opts: &SolverOptions,
    warm: Option<&WarmStart>,
    cache: Option<&VacationCache>,
    accelerate: bool,
) -> Result<SolveOutcome> {
    opts.validate()?;
    let _span = obs::span("core.solve");
    let l = model.num_classes();
    // Effective quanta, initialized to the full parameter quanta (Thm 4.1)
    // or, in continuation mode, to the neighbouring point's converged
    // quanta (heavy-traffic mode always starts from the full quanta).
    let mut quanta: Vec<PhaseType> = model.classes().iter().map(|c| c.quantum.clone()).collect();
    if let Some(q) = warm.and_then(|w| w.quanta.as_ref()) {
        if q.len() == l && opts.mode != VacationMode::HeavyTraffic {
            quanta = q.clone();
        }
    }
    let mut accel = Accelerator::new(model, opts, accelerate);
    let mut prev_n: Vec<f64> = vec![f64::NAN; l];
    let mut prev_stable: Option<Vec<bool>> = None;
    let mut step = Step::Initial;
    let mut iterations = 0usize;

    let (last_pass, last_vacations, last_change, converged) = loop {
        iterations += 1;
        // ---- Solve every class under the current vacations ----
        // The per-class solves are mutually independent, so the parallel
        // path below is bitwise-identical to the serial one.
        let results: Vec<Result<(PhaseType, ClassIterate)>> = if opts.parallel_classes && l > 1 {
            let mut slots: Vec<Option<Result<(PhaseType, ClassIterate)>>> = Vec::new();
            slots.resize_with(l, || None);
            let quanta_ref = &quanta;
            crossbeam::scope(|s| {
                for (p, slot) in slots.iter_mut().enumerate() {
                    s.spawn(move |_| {
                        *slot = Some(solve_one_class(model, opts, p, quanta_ref, cache));
                    });
                }
            })
            .expect("scoped class-solve threads join cleanly");
            slots
                .into_iter()
                .map(|s| s.expect("every class slot is filled"))
                .collect()
        } else {
            (0..l)
                .map(|p| solve_one_class(model, opts, p, &quanta, cache))
                .collect()
        };
        let mut pass = Vec::with_capacity(l);
        let mut vacs = Vec::with_capacity(l);
        let mut n_now = Vec::with_capacity(l);
        for res in results {
            let (vac, item) = res?;
            n_now.push(match &item {
                ClassIterate::Stable(cs) => cs.1.mean_level(),
                ClassIterate::Unstable => f64::INFINITY,
            });
            pass.push(item);
            vacs.push(vac);
        }

        // ---- Convergence test on the mean populations ----
        let change = n_now
            .iter()
            .zip(prev_n.iter())
            .map(|(&a, &b)| {
                if a.is_infinite() && b.is_infinite() {
                    0.0
                } else if a.is_finite() && b.is_finite() {
                    (a - b).abs() / b.abs().max(1.0)
                } else {
                    f64::INFINITY
                }
            })
            .fold(0.0_f64, f64::max);
        if obs::enabled() {
            obs::event(
                "core.solver.fp_iteration",
                &[
                    ("iteration", obs::FieldValue::U64(iterations as u64)),
                    ("populations", obs::FieldValue::F64s(n_now.clone())),
                    (
                        "effective_quantum_means",
                        obs::FieldValue::F64s(quanta.iter().map(|q| q.mean()).collect()),
                    ),
                    ("max_relative_change", obs::FieldValue::F64(change)),
                    ("step", obs::FieldValue::Str(step.name().to_string())),
                ],
            );
        }
        prev_n = n_now;

        if opts.mode == VacationMode::HeavyTraffic || (iterations > 1 && change < opts.fp_tol) {
            break (pass, vacs, change, true);
        }
        if iterations >= FP_MAX_ITER {
            break (pass, vacs, change, false);
        }

        // ---- Update effective quanta for the next iteration ----
        let _eff_span = obs::span("core.effective");
        let VacationMode::MomentMatched { moments } = opts.mode else {
            unreachable!("heavy-traffic mode stops after one pass");
        };
        let mut images = Vec::with_capacity(l);
        for (p, item) in pass.iter().enumerate() {
            images.push(QuantumMoments::of(&match item {
                ClassIterate::Stable(cs) => {
                    let (chain, sol) = cs.as_ref();
                    let eff = effective_quantum(chain, sol, opts.tail_eps, opts.max_extra_levels)?;
                    compress(&eff.moments, moments)
                }
                // A saturated class always has work: full quantum.
                ClassIterate::Unstable => model.class(p).quantum.clone(),
            }));
        }
        // A class crossing the stability boundary changes the map itself,
        // so the history from before the crossing is dropped.
        let stable: Vec<bool> = pass
            .iter()
            .map(|item| matches!(item, ClassIterate::Stable(_)))
            .collect();
        let flipped = prev_stable.as_ref().is_some_and(|s| *s != stable);
        prev_stable = Some(stable);
        step = accel.update(&mut quanta, &images, moments, flipped);
    };

    // ---- Assemble the final report ----
    let measures_span = obs::span("core.measures");
    let mut classes = Vec::with_capacity(l);
    let mut health_classes = Vec::with_capacity(if opts.collect_health { l } else { 0 });
    let mut all_stable = true;
    for (p, item) in last_pass.iter().enumerate() {
        match item {
            ClassIterate::Stable(cs) => {
                let (chain, sol) = cs.as_ref();
                let meas = class_measures(model, p, chain, sol);
                let eff = effective_quantum(chain, sol, opts.tail_eps, opts.max_extra_levels)?;
                if opts.collect_health {
                    let drift =
                        gsched_qbd::drift_condition(&chain.qbd.a0, &chain.qbd.a1, &chain.qbd.a2)
                            .map_err(|e| GangError::from(e).with_class(p))?;
                    health_classes.push(ClassHealth {
                        class: p,
                        stable: true,
                        drift_margin: drift.margin(),
                        spectral_radius: sol.spectral_radius(),
                        r_residual: gsched_qbd::r_residual(
                            &chain.qbd.a0,
                            &chain.qbd.a1,
                            &chain.qbd.a2,
                            sol.r(),
                        ),
                        truncated_mass: eff.truncated_mass,
                        truncation_level: sol.truncation().map(|t| t.level),
                        certified_tail: sol.truncation().map_or(0.0, |t| t.tail_mass),
                    });
                }
                let response_quantiles = if opts.response_quantiles {
                    let rt = response_time_distribution(
                        chain,
                        sol,
                        opts.tail_eps,
                        opts.max_extra_levels,
                    )?;
                    let qs = rt.distribution.quantiles(&[0.50, 0.90, 0.95, 0.99]);
                    Some((qs[0], qs[1], qs[2], qs[3]))
                } else {
                    None
                };
                classes.push(ClassResult {
                    stable: true,
                    mean_jobs: meas.mean_jobs,
                    mean_response: meas.mean_response,
                    effective_quantum_mean: eff.moments.mean(),
                    skip_probability: eff.moments.skip,
                    vacation_mean: last_vacations[p].mean(),
                    measures: Some(meas),
                    response_quantiles,
                    truncation: sol.truncation().copied(),
                });
            }
            ClassIterate::Unstable => {
                all_stable = false;
                if opts.collect_health {
                    // No stationary solution exists: rebuild the chain under
                    // the final vacations for the drift margin alone.
                    let chain = build_class_chain(model, p, &last_vacations[p])?;
                    let drift =
                        gsched_qbd::drift_condition(&chain.qbd.a0, &chain.qbd.a1, &chain.qbd.a2)
                            .map_err(|e| GangError::from(e).with_class(p))?;
                    health_classes.push(ClassHealth {
                        class: p,
                        stable: false,
                        drift_margin: drift.margin(),
                        spectral_radius: f64::NAN,
                        r_residual: f64::NAN,
                        truncated_mass: f64::NAN,
                        truncation_level: None,
                        certified_tail: f64::NAN,
                    });
                }
                classes.push(ClassResult {
                    stable: false,
                    measures: None,
                    mean_jobs: f64::INFINITY,
                    mean_response: f64::INFINITY,
                    effective_quantum_mean: model.class(p).quantum.mean(),
                    skip_probability: 0.0,
                    vacation_mean: last_vacations[p].mean(),
                    response_quantiles: None,
                    truncation: None,
                });
            }
        }
    }
    drop(measures_span);
    let mean_cycle: f64 = classes
        .iter()
        .enumerate()
        .map(|(p, c)| c.effective_quantum_mean + model.class(p).switch_overhead.mean())
        .sum();
    if opts.require_stable {
        if let Some(p) = classes.iter().position(|c| !c.stable) {
            // Recompute the drift report for the offending class for the error.
            let vac = compose_vacation(model, p, &quanta);
            let chain = build_class_chain(model, p, &vac)?;
            let report = gsched_qbd::drift_condition(&chain.qbd.a0, &chain.qbd.a1, &chain.qbd.a2)
                .map_err(|e| GangError::from(e).with_class(p))?;
            return Err(GangError::Unstable { class: p, report });
        }
    }
    // Near saturation the fixed point converges geometrically with a rate
    // approaching 1; a budget-exhausted iterate whose residual is already
    // small is still a useful answer, so only a genuinely diverging
    // iteration is an error.
    if !converged && (last_change.is_nan() || last_change >= 1e-2) {
        return Err(GangError::NoConvergence {
            iterations,
            last_change,
        });
    }
    if obs::enabled() {
        obs::counter_add(obs::names::CORE_SOLVER_SOLVES, 1);
        obs::counter_add(obs::names::CORE_SOLVER_FP_ITERATIONS, iterations as u64);
        obs::counter_add(obs::names::CORE_SOLVER_FP_RESTARTS, accel.restarts());
        obs::gauge_set(obs::names::CORE_SOLVER_FINAL_CHANGE, last_change);
        for (p, class) in classes.iter().enumerate() {
            obs::observe(
                obs::names::CORE_SOLVER_EFFECTIVE_QUANTUM_MEAN,
                class.effective_quantum_mean,
            );
            obs::event(
                "core.solver.class_result",
                &[
                    ("class", obs::FieldValue::U64(p as u64)),
                    (
                        "stable",
                        obs::FieldValue::Str(
                            if class.stable { "stable" } else { "unstable" }.to_string(),
                        ),
                    ),
                    ("mean_jobs", obs::FieldValue::F64(class.mean_jobs)),
                    (
                        "effective_quantum_mean",
                        obs::FieldValue::F64(class.effective_quantum_mean),
                    ),
                    (
                        "skip_probability",
                        obs::FieldValue::F64(class.skip_probability),
                    ),
                ],
            );
        }
    }
    let warm_out = WarmStart {
        quanta: Some(quanta),
        r_matrices: last_pass
            .iter()
            .map(|item| match item {
                ClassIterate::Stable(cs) => Some(cs.1.r().clone()),
                ClassIterate::Unstable => None,
            })
            .collect(),
    };
    Ok(SolveOutcome {
        solution: GangSolution {
            classes,
            iterations,
            converged,
            all_stable,
            mean_cycle,
            health: opts.collect_health.then_some(HealthReport {
                classes: health_classes,
            }),
        },
        warm: warm_out,
    })
}

/// The effective-quantum update between passes: the damped step, or type-II
/// Anderson acceleration ([`Anderson`]) on the stacked vector of every
/// class's skip atom and fitted raw moments.
struct Accelerator<'a> {
    model: &'a GangModel,
    mixer: Option<Anderson>,
    /// The first update's iterate and images, held unstacked until a second
    /// update needs them. The scales cost a moment solve per class, which a
    /// solve that converges in two passes (most large-P points) would pay
    /// for nothing: the first step is the damped one whatever they are.
    first: Option<(Vec<QuantumMoments>, Vec<QuantumMoments>)>,
    /// Per class, the parameter quantum's `E[G^k]` (`k = 1, 2, 3`), the
    /// scale of the class's stacked moments ([`moment_coordinate`]); empty
    /// until the second update.
    scales: Vec<[f64; 3]>,
}

impl<'a> Accelerator<'a> {
    fn new(model: &'a GangModel, opts: &SolverOptions, accelerate: bool) -> Accelerator<'a> {
        let on = accelerate && opts.mode != VacationMode::HeavyTraffic;
        Accelerator {
            model,
            mixer: on.then(|| Anderson::new(ANDERSON_DEPTH, DAMPING)),
            first: None,
            scales: Vec::new(),
        }
    }

    /// Anderson history clearings so far.
    fn restarts(&self) -> u64 {
        self.mixer.as_ref().map_or(0, Anderson::restarts)
    }

    /// The Anderson extrapolation of the stacked iterate, if any.
    fn extrapolate(
        &mut self,
        current: &[QuantumMoments],
        images: &[QuantumMoments],
        moments: u8,
        flipped: bool,
    ) -> Option<Vec<f64>> {
        let mixer = self.mixer.as_mut()?;
        if self.scales.is_empty() {
            let Some((x, g)) = self.first.take() else {
                self.first = Some((current.to_vec(), images.to_vec()));
                return None;
            };
            self.scales = (self.model.classes().iter())
                .map(|c| QuantumMoments::of(&c.quantum).raw)
                .collect();
            mixer.step(
                &stack(&x, &self.scales, moments),
                &stack(&g, &self.scales, moments),
                false,
            );
        }
        mixer.step(
            &stack(current, &self.scales, moments),
            &stack(images, &self.scales, moments),
            flipped,
        )
    }

    /// Replace `quanta` (this pass's) by the next pass's, given `images`,
    /// the moments of the effective quanta this pass produced. `flipped`
    /// (a class crossed the stability boundary) clears the history. Each
    /// class takes the extrapolation unless its moments are infeasible or
    /// their fit has a higher order than both its damped step and its
    /// current quantum; then it takes the damped step.
    fn update(
        &mut self,
        quanta: &mut [PhaseType],
        images: &[QuantumMoments],
        moments: u8,
        flipped: bool,
    ) -> Step {
        let current: Vec<QuantumMoments> = quanta.iter().map(QuantumMoments::of).collect();
        let extrapolated = self.extrapolate(&current, images, moments, flipped);
        let width = 1 + usize::from(moments);
        let mut step = match extrapolated {
            Some(_) => Step::Accelerated,
            None => Step::Damped,
        };
        for (p, quantum) in quanta.iter_mut().enumerate() {
            // The damped step: fit the mixture of this pass's effective
            // quantum and the current one. A mixture's atom and moments are
            // the mixed ones, so no mixture PH is built.
            let damped = compress(&images[p].mix(DAMPING, &current[p]), moments);
            let accelerated = extrapolated.as_ref().and_then(|v| {
                let v = &v[p * width..(p + 1) * width];
                let mut raw = current[p].raw;
                for (i, m) in raw.iter_mut().enumerate().take(width - 1) {
                    *m = moment_from_coordinate(v[1 + i], self.scales[p][i], i);
                }
                let target = QuantumMoments { skip: v[0], raw };
                feasible(&target, moments)
                    .then(|| compress(&target, moments))
                    .filter(|fit| fit.order() <= damped.order().max(quantum.order()))
            });
            *quantum = accelerated.unwrap_or_else(|| {
                if extrapolated.is_some() {
                    step = Step::Guarded;
                }
                damped
            });
        }
        step
    }
}

/// Per class: the skip atom, then the coordinates of the `moments` fitted
/// raw moments against the class's `scales`.
fn stack(qs: &[QuantumMoments], scales: &[[f64; 3]], moments: u8) -> Vec<f64> {
    let k = usize::from(moments);
    qs.iter()
        .zip(scales)
        .flat_map(|(q, s)| {
            let coordinate = |i: usize| moment_coordinate(q.raw[i], s[i], i);
            std::iter::once(q.skip).chain((0..k).map(coordinate))
        })
        .collect()
}

/// The stacked coordinate of a raw moment `E[X^k]` (`k = i + 1`): the
/// `k`-th root of its ratio to the parameter quantum's `E[G^k]`. Every
/// coordinate then scales like a mean, so a relative error in the third
/// moment weighs in the least-squares fit as much as one in the mean; the
/// plain ratios would shrink the third moment's share by the cube of
/// `E[X]/E[G]`, and leave it converging at the damped rate.
fn moment_coordinate(raw: f64, scale: f64, i: usize) -> f64 {
    let ratio = raw / scale;
    match i {
        0 => ratio,
        1 => ratio.sqrt(),
        _ => ratio.cbrt(),
    }
}

/// The raw moment of a stacked coordinate; NaN (infeasible) for a
/// negative coordinate.
fn moment_from_coordinate(c: f64, scale: f64, i: usize) -> f64 {
    match c >= 0.0 {
        true => c.powi(i as i32 + 1) * scale,
        false => f64::NAN,
    }
}

/// Whether extrapolated moments describe a quantum [`compress`] can fit:
/// finite, an atom in `[0, 1)`, a positive mean, a nonnegative conditional
/// variance (`E[X²]·(1−skip) ≥ E[X]²`) and, under `m3`, a realisable third
/// moment (`E[X³]·E[X] ≥ E[X²]²`).
fn feasible(q: &QuantumMoments, moments: u8) -> bool {
    let [m1, m2, m3] = q.raw;
    let third = moments < 3 || (m3.is_finite() && m3 * m1 >= m2 * m2);
    q.skip.is_finite()
        && m1.is_finite()
        && m2.is_finite()
        && (0.0..1.0).contains(&q.skip)
        && m1 > 0.0
        && m2 * (1.0 - q.skip) >= m1 * m1
        && third
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ClassParams;
    use gsched_phase::{erlang, exponential};

    fn symmetric_model(p: usize, classes: usize, lambda: f64, mu: f64, q: f64) -> GangModel {
        let g = p; // every class needs the whole machine
        let mk = || ClassParams {
            partition_size: g,
            arrival: exponential(lambda),
            service: exponential(mu),
            quantum: erlang(2, 1.0 / q),
            switch_overhead: exponential(100.0),
        };
        GangModel::new(p, (0..classes).map(|_| mk()).collect()).unwrap()
    }

    #[test]
    fn symmetric_classes_get_symmetric_results() {
        let m = symmetric_model(4, 3, 0.2, 1.0, 1.0);
        let sol = solve(&m, &SolverOptions::default()).unwrap();
        assert!(sol.converged);
        assert!(sol.all_stable);
        let n0 = sol.classes[0].mean_jobs;
        for c in &sol.classes {
            assert!((c.mean_jobs - n0).abs() < 1e-6, "{} vs {n0}", c.mean_jobs);
            assert!(c.stable);
        }
    }

    #[test]
    fn fixed_point_improves_on_heavy_traffic() {
        // At moderate load the fixed point must predict fewer jobs than the
        // pessimistic heavy-traffic bound (vacations shrink).
        let m = symmetric_model(4, 3, 0.25, 1.0, 1.5);
        let ht = solve(
            &m,
            &SolverOptions {
                mode: VacationMode::HeavyTraffic,
                ..Default::default()
            },
        )
        .unwrap();
        let fp = solve(&m, &SolverOptions::default()).unwrap();
        assert!(fp.iterations > 1);
        assert!(
            fp.classes[0].mean_jobs < ht.classes[0].mean_jobs,
            "fixed point {} should be below heavy-traffic {}",
            fp.classes[0].mean_jobs,
            ht.classes[0].mean_jobs
        );
    }

    #[test]
    fn two_and_three_moment_fits_agree() {
        // §3.2's insensitivity: a third matched moment of the effective
        // quanta moves the mean population by well under 0.1%.
        let m = symmetric_model(2, 2, 0.3, 1.0, 1.0);
        let m2 = solve(&m, &SolverOptions::default()).unwrap();
        let m3 = solve(
            &m,
            &SolverOptions {
                mode: VacationMode::MomentMatched { moments: 3 },
                ..Default::default()
            },
        )
        .unwrap();
        let (a, b) = (m2.classes[0].mean_jobs, m3.classes[0].mean_jobs);
        assert!(a != b, "the third moment must reach the answer");
        assert!((a - b).abs() / b < 1e-3, "two moments {a} vs three {b}");
    }

    #[test]
    fn asymmetric_load_orders_populations() {
        let mut m = symmetric_model(4, 2, 0.2, 1.0, 1.0);
        // Class 1 gets three times the arrival rate.
        let mut c1 = m.class(1).clone();
        c1.arrival = exponential(0.6);
        m = m.with_class(1, c1);
        let sol = solve(&m, &SolverOptions::default()).unwrap();
        assert!(sol.all_stable);
        assert!(sol.classes[1].mean_jobs > sol.classes[0].mean_jobs);
    }

    /// Every class's stable/unstable verdict.
    fn verdicts(sol: &GangSolution) -> Vec<bool> {
        sol.classes.iter().map(|c| c.stable).collect()
    }

    /// The verdicts of the accelerated solve equal the damped iteration's.
    fn assert_damped_verdicts(m: &GangModel, sol: &GangSolution) {
        let damped = solve_damped(m, &SolverOptions::default()).unwrap().solution;
        assert_eq!(verdicts(sol), verdicts(&damped));
    }

    #[test]
    fn overload_reported_unstable() {
        // Two classes each wanting 80% of the machine cannot both fit.
        let m = symmetric_model(4, 2, 0.8, 1.0, 1.0);
        let sol = solve(&m, &SolverOptions::default()).unwrap();
        assert!(!sol.all_stable);
        assert!(sol.classes.iter().any(|c| !c.stable));
        assert!(sol.total_mean_jobs().is_infinite());
        assert_damped_verdicts(&m, &sol);
        // Strict mode errors out instead.
        let err = solve(
            &m,
            &SolverOptions {
                require_stable: true,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, GangError::Unstable { .. }));
    }

    #[test]
    fn one_saturated_class_does_not_break_the_other() {
        // Class 0 overloaded, class 1 lightly loaded on its own partitions.
        let m = GangModel::new(
            4,
            vec![
                ClassParams {
                    partition_size: 4,
                    arrival: exponential(2.0), // impossible load
                    service: exponential(1.0),
                    quantum: erlang(2, 1.0),
                    switch_overhead: exponential(100.0),
                },
                ClassParams {
                    partition_size: 1,
                    arrival: exponential(0.4),
                    service: exponential(1.0),
                    quantum: erlang(2, 1.0),
                    switch_overhead: exponential(100.0),
                },
            ],
        )
        .unwrap();
        let sol = solve(&m, &SolverOptions::default()).unwrap();
        assert!(!sol.classes[0].stable);
        assert!(sol.classes[1].stable, "class 1 should survive");
        assert!(sol.classes[1].mean_jobs.is_finite());
        assert_damped_verdicts(&m, &sol);
    }

    #[test]
    fn repeated_solves_are_bit_identical() {
        // The Anderson history lives inside one solve: nothing carries over.
        for (m, moments) in [
            (symmetric_model(4, 3, 0.25, 1.0, 1.5), 2),
            (symmetric_model(4, 3, 0.25, 1.0, 1.5), 3),
            (symmetric_model(4, 2, 0.8, 1.0, 1.0), 2),
        ] {
            let opts = SolverOptions {
                mode: VacationMode::MomentMatched { moments },
                ..Default::default()
            };
            let first = solve(&m, &opts).unwrap();
            assert_same_bits(&first, &solve(&m, &opts).unwrap(), "second solve");
        }
    }

    #[test]
    fn extrapolated_moments_outside_the_fit_domain_are_infeasible() {
        let ok = QuantumMoments {
            skip: 0.25,
            raw: [0.5, 0.5, 0.75],
        };
        assert!(feasible(&ok, 2) && feasible(&ok, 3));
        let with = |f: fn(&mut QuantumMoments)| {
            let mut q = ok;
            f(&mut q);
            q
        };
        for (what, q) in [
            ("NaN mean", with(|q| q.raw[0] = f64::NAN)),
            ("negative skip", with(|q| q.skip = -1e-3)),
            ("skip 1", with(|q| q.skip = 1.0)),
            ("zero mean", with(|q| q.raw[0] = 0.0)),
            ("negative variance", with(|q| q.raw[1] = 0.3)),
        ] {
            assert!(!feasible(&q, 2), "{what}");
        }
        // E[X³]·E[X] < E[X²]² has no distribution: only `m3` reads it.
        let low_third = with(|q| q.raw[2] = 0.49);
        assert!(feasible(&low_third, 2) && !feasible(&low_third, 3));
    }

    #[test]
    fn skip_probability_rises_as_load_falls() {
        let light = solve(
            &symmetric_model(2, 2, 0.05, 1.0, 1.0),
            &SolverOptions::default(),
        )
        .unwrap()
        .classes[0]
            .skip_probability;
        let heavy = solve(
            &symmetric_model(2, 2, 0.4, 1.0, 1.0),
            &SolverOptions::default(),
        )
        .unwrap()
        .classes[0]
            .skip_probability;
        assert!(light > heavy, "light {light} vs heavy {heavy}");
    }

    #[test]
    fn mean_cycle_below_nominal() {
        // With lightly loaded classes the effective cycle is far shorter
        // than the nominal full cycle (turns are skipped or cut short).
        let m = symmetric_model(4, 3, 0.1, 1.0, 2.0);
        let sol = solve(&m, &SolverOptions::default()).unwrap();
        assert!(sol.mean_cycle > 0.0);
        assert!(
            sol.mean_cycle < m.full_cycle_mean(),
            "effective cycle {} vs nominal {}",
            sol.mean_cycle,
            m.full_cycle_mean()
        );
    }

    #[test]
    fn response_quantiles_on_request() {
        let m = symmetric_model(2, 2, 0.25, 1.0, 1.0);
        let plain = solve(&m, &SolverOptions::default()).unwrap();
        assert!(plain.classes[0].response_quantiles.is_none());
        let opts = SolverOptions {
            response_quantiles: true,
            ..Default::default()
        };
        let rich = solve(&m, &opts).unwrap();
        let (p50, p90, p95, p99) = rich.classes[0].response_quantiles.unwrap();
        assert!(p50 > 0.0 && p50 < p90 && p90 < p95 && p95 < p99);
        // Median below the mean for these right-skewed response times.
        assert!(p50 < rich.classes[0].mean_response * 1.2);
    }

    #[test]
    fn health_report_only_on_request() {
        let m = symmetric_model(2, 2, 0.2, 1.0, 1.0);
        let plain = solve(&m, &SolverOptions::default()).unwrap();
        assert!(plain.health.is_none());
        let rich = solve(
            &m,
            &SolverOptions {
                collect_health: true,
                ..Default::default()
            },
        )
        .unwrap();
        let health = rich.health.unwrap();
        assert_eq!(health.classes.len(), 2);
        for (p, c) in health.classes.iter().enumerate() {
            assert_eq!(c.class, p);
            assert!(c.stable);
            assert!(c.drift_margin > 0.0);
            assert!(c.spectral_radius > 0.0 && c.spectral_radius < 1.0);
            assert!(c.r_residual >= 0.0 && c.r_residual < 1e-8);
            assert!(c.truncated_mass >= 0.0 && c.truncated_mass < 1e-6);
        }
        // A comfortably loaded model trips no thresholds.
        assert!(health.warnings().is_empty(), "{:?}", health.warnings());
    }

    #[test]
    fn near_instability_trips_health_warnings() {
        // Heavy-traffic mode keeps the pessimistic full-quantum vacations, so
        // the stability boundary is approached smoothly: at λ = 0.48 the
        // class is still positive recurrent but its drift slack and spectral
        // gap have both collapsed below the default thresholds. (Under the
        // fixed point the shrinking vacations make the transition to
        // saturation nearly discontinuous, which is why this test pins the
        // heavy-traffic regime.)
        let m = symmetric_model(2, 2, 0.48, 1.0, 4.0);
        let sol = solve(
            &m,
            &SolverOptions {
                collect_health: true,
                mode: VacationMode::HeavyTraffic,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(sol.all_stable, "model must stay stable for this test");
        let health = sol.health.unwrap();
        let c = &health.classes[0];
        assert!(c.stable && c.drift_margin > 0.0);
        assert!(c.spectral_radius < 1.0);
        let warnings = health.warnings();
        assert!(
            warnings.iter().any(|w| w.contains("drift margin")),
            "expected a drift-margin warning, got {warnings:?}"
        );
        assert!(
            warnings.iter().any(|w| w.contains("spectral gap")),
            "expected a spectral-gap warning, got {warnings:?}"
        );
        assert!(
            warnings.iter().any(|w| w.contains("truncated tail mass")),
            "expected a truncated-mass warning, got {warnings:?}"
        );
        assert!(health.render().contains("WARN"));
    }

    #[test]
    fn unstable_class_health_has_negative_drift_and_nan_numerics() {
        let m = symmetric_model(4, 2, 0.8, 1.0, 1.0);
        let sol = solve(
            &m,
            &SolverOptions {
                collect_health: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!sol.all_stable);
        let health = sol.health.unwrap();
        let bad = health.classes.iter().find(|c| !c.stable).unwrap();
        assert!(bad.drift_margin <= 0.0, "margin {}", bad.drift_margin);
        assert!(bad.spectral_radius.is_nan());
        assert!(bad.r_residual.is_nan());
        assert!(bad.truncated_mass.is_nan());
        let warnings = health.warnings();
        assert!(warnings.iter().any(|w| w.contains("UNSTABLE")));
    }

    #[test]
    fn invalid_options_fail_at_solve() {
        use gsched_qbd::LevelTruncation::{Auto, Fixed};
        let m = symmetric_model(2, 2, 0.2, 1.0, 1.0);
        let cases: [fn(&mut SolverOptions); 10] = [
            |o| o.fp_tol = -1.0,
            |o| o.fp_tol = 0.0,
            |o| o.fp_tol = f64::NAN,
            |o| o.tail_eps = 1.0,
            |o| o.max_extra_levels = 0,
            |o| o.mode = VacationMode::MomentMatched { moments: 5 },
            |o| o.qbd.tol = 0.0,
            |o| o.qbd.max_iter = 0,
            |o| o.qbd.truncation = Fixed { level: 0 },
            |o| {
                o.qbd.truncation = Auto {
                    target_tail: 1.5,
                    min_levels: 4,
                }
            },
        ];
        for (k, set) in cases.iter().enumerate() {
            let mut opts = SolverOptions::default();
            set(&mut opts);
            let got = solve(&m, &opts);
            assert!(
                matches!(got, Err(GangError::InvalidOptions(_))),
                "case {k}: {got:?}"
            );
        }
        assert!(solve(&m, &SolverOptions::default()).is_ok());
    }

    #[test]
    fn parallel_classes_is_bitwise_identical() {
        let m = symmetric_model(4, 3, 0.2, 1.0, 1.0);
        let serial = solve(&m, &SolverOptions::default()).unwrap();
        let par = solve(
            &m,
            &SolverOptions {
                parallel_classes: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(serial.iterations, par.iterations);
        for (a, b) in serial.classes.iter().zip(par.classes.iter()) {
            assert_eq!(a.mean_jobs.to_bits(), b.mean_jobs.to_bits());
            assert_eq!(a.mean_response.to_bits(), b.mean_response.to_bits());
            assert_eq!(
                a.effective_quantum_mean.to_bits(),
                b.effective_quantum_mean.to_bits()
            );
        }
    }

    #[test]
    fn warm_start_converges_to_cold_answer() {
        let m = symmetric_model(4, 2, 0.25, 1.0, 1.0);
        let opts = SolverOptions::default();
        let cold = solve_warm(&m, &opts, None, None).unwrap();
        assert_eq!(cold.warm.r_matrices.len(), 2);
        assert!(cold.warm.r_matrices.iter().all(|r| r.is_some()));
        // Re-solving seeded with the converged state lands on the same
        // fixed point in no more iterations.
        let warm = solve_warm(&m, &opts, Some(&cold.warm), None).unwrap();
        assert!(warm.solution.iterations <= cold.solution.iterations);
        for (a, b) in cold
            .solution
            .classes
            .iter()
            .zip(warm.solution.classes.iter())
        {
            let rel = (a.mean_jobs - b.mean_jobs).abs() / a.mean_jobs;
            assert!(rel < 1e-4, "cold {} vs warm {}", a.mean_jobs, b.mean_jobs);
        }
        // An empty warm start (continuation mode only) seeds nothing, so it
        // is the cold solve bit for bit.
        let cont = solve_warm(&m, &opts, Some(&WarmStart::default()), None).unwrap();
        assert_same_bits(&cold.solution, &cont.solution, "empty warm start");
    }

    /// Iterations and every class's mean jobs, response and effective
    /// quantum, bit for bit.
    fn assert_same_bits(a: &GangSolution, b: &GangSolution, what: &str) {
        assert_eq!(a.iterations, b.iterations, "{what}: iterations");
        for (p, (x, y)) in a.classes.iter().zip(b.classes.iter()).enumerate() {
            assert_eq!(
                x.mean_jobs.to_bits(),
                y.mean_jobs.to_bits(),
                "{what}: class {p}"
            );
            assert_eq!(
                x.mean_response.to_bits(),
                y.mean_response.to_bits(),
                "{what}: class {p}"
            );
            assert_eq!(
                x.effective_quantum_mean.to_bits(),
                y.effective_quantum_mean.to_bits(),
                "{what}: class {p}"
            );
        }
    }

    #[test]
    fn warm_start_r_matrices_are_never_read() {
        let m = symmetric_model(4, 2, 0.25, 1.0, 1.0);
        let opts = SolverOptions::default();
        let cold = solve_warm(&m, &opts, None, None).unwrap();
        let seeded = |r_matrices: Vec<Option<Matrix>>| {
            let warm = WarmStart {
                quanta: cold.warm.quanta.clone(),
                r_matrices,
            };
            solve_warm(&m, &opts, Some(&warm), None).unwrap().solution
        };
        let want = seeded(Vec::new());
        let converged = cold.warm.r_matrices.clone();
        let scaled = converged
            .iter()
            .map(|r| r.as_ref().map(|r| r.scaled(10.0)))
            .collect();
        let wrong_shape = vec![Some(Matrix::identity(1)); 2];
        for (what, r_matrices) in [
            ("converged R", converged),
            ("R x 10", scaled),
            ("wrong shape", wrong_shape),
        ] {
            assert_same_bits(&want, &seeded(r_matrices), what);
        }
    }

    #[test]
    fn vacation_cache_does_not_change_results() {
        let m = symmetric_model(4, 2, 0.3, 1.0, 1.5);
        let opts = SolverOptions::default();
        let plain = solve_warm(&m, &opts, None, None).unwrap();
        let cache = VacationCache::new();
        let cached = solve_warm(&m, &opts, None, Some(&cache)).unwrap();
        assert!(!cache.is_empty());
        for (a, b) in plain
            .solution
            .classes
            .iter()
            .zip(cached.solution.classes.iter())
        {
            assert_eq!(a.mean_jobs.to_bits(), b.mean_jobs.to_bits());
        }
        // Second run over the same model hits the memo table throughout.
        let again = solve_warm(&m, &opts, None, Some(&cache)).unwrap();
        for (a, b) in plain
            .solution
            .classes
            .iter()
            .zip(again.solution.classes.iter())
        {
            assert_eq!(a.mean_jobs.to_bits(), b.mean_jobs.to_bits());
        }
    }

    #[test]
    fn little_law_in_results() {
        let m = symmetric_model(4, 2, 0.3, 1.0, 2.0);
        let sol = solve(&m, &SolverOptions::default()).unwrap();
        for c in &sol.classes {
            let meas = c.measures.as_ref().unwrap();
            assert!((c.mean_response * meas.arrival_rate - c.mean_jobs).abs() < 1e-9);
        }
    }
}
