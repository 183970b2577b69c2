//! The typed scenario IR: one experiment description driving the analytic
//! solver, the sweep engine, and the simulator.
//!
//! A [`Scenario`] bundles a machine ([`ModelSpec`]), a scheduling
//! [`Policy`], an optional sweep (axis + grid), simulation parameters, and
//! the tolerance to which analysis and simulation are expected to agree.
//! Every consumer derives its configuration from the same IR:
//!
//! * `build_model()` — the base [`GangModel`] for `gsched solve`;
//! * `sweep_request()` — a [`SweepRequest`] for the `gsched-engine` pool;
//! * `sim_config()` / `simulate()` — the discrete-event simulator, with the
//!   scenario's policy;
//! * `solver_options()` — the solver configuration every analytic surface
//!   (CLI, service, bench, xval, validation) solves the scenario under;
//! * `crate::xval::cross_validate` — analysis vs simulation against the
//!   declared tolerance.

use crate::dist::DistSpec;
use crate::model_spec::ModelSpec;
use gsched_core::qbd::LevelTruncation;
use gsched_core::{solve, GangModel, SolverOptions, WARN_DRIFT_MARGIN};
use gsched_engine::{ScenarioBase, SweepAxis, SweepPoint, SweepRequest};
use gsched_sim::{Policy, SimConfig, SimResult};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from parsing, validating, or materializing scenarios.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The JSON text did not parse into the scenario schema.
    Json(String),
    /// The scenario parsed but fails validation (schema or model level).
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Json(m) => write!(f, "invalid scenario JSON: {m}"),
            ScenarioError::Invalid(m) => write!(f, "invalid scenario: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

fn invalid(msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid(msg.into())
}

/// The swept parameter axis, in IR form (serializable, unlike the engine's
/// [`SweepAxis`] which carries no parameters needed to *apply* the axis).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(tag = "axis", rename_all = "snake_case")]
pub enum AxisSpec {
    /// Common mean quantum length `1/γ` (Figs. 2–3).
    QuantumMean,
    /// Common per-processor service rate `μ` (Fig. 4).
    ServiceRate,
    /// Common per-class arrival rate `λ` (offered-load sweeps).
    ArrivalRate,
    /// Fraction of the cycle's quantum budget given to one class (Fig. 5):
    /// the focal class gets `x·budget`, every other class an equal share of
    /// the remainder.
    CycleFraction {
        /// The focal class whose share is swept.
        class: usize,
        /// Total quantum budget per timeplexing cycle.
        budget: f64,
    },
    /// Machine size `P` (large-P scaling sweeps): the grid coordinate is the
    /// processor count. Per-class arrival rates scale `∝ x / P_base` so each
    /// class's offered utilization `ρ_p = λ_p g(p)/(μ_p P)` is held fixed
    /// while the per-class capacity `c_p = x/g(p)` grows — the zero-queueing
    /// scaling regime of `docs/LARGE_P.md`.
    Processors,
}

impl AxisSpec {
    /// The engine-side axis tag for this IR axis.
    pub fn engine_axis(&self) -> SweepAxis {
        match self {
            AxisSpec::QuantumMean => SweepAxis::QuantumMean,
            AxisSpec::ServiceRate => SweepAxis::ServiceRate,
            AxisSpec::ArrivalRate => SweepAxis::ArrivalRate,
            AxisSpec::CycleFraction { class, .. } => SweepAxis::CycleFraction { class: *class },
            AxisSpec::Processors => SweepAxis::Processors,
        }
    }

    /// Check one grid coordinate for validity on this axis.
    fn check_coordinate(&self, x: f64) -> Result<(), ScenarioError> {
        match self {
            AxisSpec::CycleFraction { .. } => {
                if !(x.is_finite() && x > 0.0 && x < 1.0) {
                    return Err(invalid(format!(
                        "cycle_fraction grid values must lie in (0, 1), got {x}"
                    )));
                }
            }
            AxisSpec::Processors => {
                if !(x.is_finite() && x >= 1.0 && x.fract() == 0.0) {
                    return Err(invalid(format!(
                        "processors grid values must be positive integers, got {x}"
                    )));
                }
            }
            _ => {
                if !(x.is_finite() && x > 0.0) {
                    return Err(invalid(format!(
                        "{} grid values must be positive, got {x}",
                        self.engine_axis().label()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Rewrite `machine` so the swept quantity sits at coordinate `x`,
    /// preserving every distribution's shape.
    pub fn apply(&self, machine: &ModelSpec, x: f64) -> Result<ModelSpec, ScenarioError> {
        self.check_coordinate(x)?;
        let mut out = machine.clone();
        let scale = |spec: &DistSpec, mean: f64, what: &str, p: usize| {
            spec.scaled_to_mean(mean)
                .map_err(|e| invalid(format!("class {p}, {what}: {e}")))
        };
        match self {
            AxisSpec::QuantumMean => {
                for (p, c) in out.classes.iter_mut().enumerate() {
                    c.quantum = scale(&c.quantum, x, "quantum", p)?;
                }
            }
            AxisSpec::ServiceRate => {
                for (p, c) in out.classes.iter_mut().enumerate() {
                    c.service = scale(&c.service, 1.0 / x, "service", p)?;
                }
            }
            AxisSpec::ArrivalRate => {
                for (p, c) in out.classes.iter_mut().enumerate() {
                    c.arrival = scale(&c.arrival, 1.0 / x, "arrival", p)?;
                }
            }
            AxisSpec::CycleFraction { class, budget } => {
                let l = out.classes.len();
                if *class >= l {
                    return Err(invalid(format!(
                        "cycle_fraction class {class} out of range (L = {l})"
                    )));
                }
                if l < 2 {
                    return Err(invalid("cycle_fraction needs at least two classes"));
                }
                if !(budget.is_finite() && *budget > 0.0) {
                    return Err(invalid(format!(
                        "cycle_fraction budget must be positive, got {budget}"
                    )));
                }
                let rest = (1.0 - x) * budget / (l - 1) as f64;
                for (p, c) in out.classes.iter_mut().enumerate() {
                    let mean = if p == *class { x * budget } else { rest };
                    c.quantum = scale(&c.quantum, mean, "quantum", p)?;
                }
            }
            AxisSpec::Processors => {
                let p_base = machine.processors as f64;
                out.processors = x as usize;
                // Hold utilization fixed: λ ∝ P, so the interarrival mean
                // shrinks by P_base / x.
                for (p, c) in out.classes.iter_mut().enumerate() {
                    let base_mean = c
                        .arrival
                        .analytic_mean()
                        .map_err(|e| invalid(format!("class {p}, arrival: {e}")))?;
                    c.arrival = scale(&c.arrival, base_mean * p_base / x, "arrival", p)?;
                }
            }
        }
        Ok(out)
    }
}

/// A sweep: which axis moves, over which grid.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SweepSpec {
    /// The swept axis.
    pub axis: AxisSpec,
    /// Full grid of axis coordinates, strictly increasing.
    pub grid: Vec<f64>,
    /// Optional reduced grid for smoke tests and benches (`--quick`).
    pub quick_grid: Option<Vec<f64>>,
}

/// Simulation parameters, in IR form (mirrors [`SimConfig`]).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SimSpec {
    /// Total simulated time.
    #[serde(default = "default_sim_horizon")]
    pub horizon: f64,
    /// Initial interval discarded from statistics.
    #[serde(default = "default_sim_warmup")]
    pub warmup: f64,
    /// RNG seed.
    #[serde(default = "default_sim_seed")]
    pub seed: u64,
    /// Number of batches for confidence intervals.
    #[serde(default = "default_sim_batches")]
    pub batches: usize,
}

fn default_sim_horizon() -> f64 {
    150_000.0
}
fn default_sim_warmup() -> f64 {
    15_000.0
}
fn default_sim_seed() -> u64 {
    0x5EED
}
fn default_sim_batches() -> usize {
    15
}

impl Default for SimSpec {
    fn default() -> Self {
        SimSpec {
            horizon: default_sim_horizon(),
            warmup: default_sim_warmup(),
            seed: default_sim_seed(),
            batches: default_sim_batches(),
        }
    }
}

impl SimSpec {
    /// Convert to the simulator's native configuration, optionally scaling
    /// the horizon (and warmup with it) for quick runs.
    pub fn config(&self, horizon_scale: f64) -> SimConfig {
        SimConfig {
            horizon: self.horizon * horizon_scale,
            warmup: self.warmup * horizon_scale,
            seed: self.seed,
            batches: self.batches,
        }
    }
}

/// How closely analysis and simulation must agree for this scenario.
///
/// The acceptance band on each class's mean response time is
/// `rel · max(T_sim, floor) + ci_sigmas · ci(T_sim)`; the relative part
/// absorbs the analysis's documented optimism (the vacation-independence
/// approximation runs ~10–25% optimistic), the CI part absorbs simulation
/// noise.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Tolerance {
    /// Relative tolerance on mean response time.
    #[serde(default = "default_tol_rel")]
    pub rel: f64,
    /// Multiples of the simulation 95% CI half-width added on top.
    #[serde(default = "default_tol_sigmas")]
    pub ci_sigmas: f64,
    /// Large-P regimes only: ceiling on the *certified* tail mass a
    /// level-truncated solve may report at any sweep point (the
    /// `TruncationCertificate` bound, not an estimate). `None` means the
    /// scenario makes no truncation claim.
    #[serde(default = "default_tol_none")]
    pub certified_tail: Option<f64>,
    /// Large-P regimes only: relative tolerance within which the full solve
    /// at the *largest* grid point must agree with the zero-queueing
    /// asymptotic limit (`gsched_core::solve_asymptotic`). `None` disables
    /// the differential check.
    #[serde(default = "default_tol_none")]
    pub asymptotic_rel: Option<f64>,
}

fn default_tol_none() -> Option<f64> {
    None
}

fn default_tol_rel() -> f64 {
    0.35
}
fn default_tol_sigmas() -> f64 {
    3.0
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            rel: default_tol_rel(),
            ci_sigmas: default_tol_sigmas(),
            certified_tail: None,
            asymptotic_rel: None,
        }
    }
}

/// A complete experiment description.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Scenario {
    /// Registry / report name (lowercase identifier).
    pub name: String,
    /// Human description (paper figure, regime, intent).
    #[serde(default = "String::new")]
    pub description: String,
    /// The machine: processors and job classes.
    pub machine: ModelSpec,
    /// Scheduling policy the simulator runs (the analysis always models
    /// system-wide gang scheduling).
    #[serde(default = "Policy::default")]
    pub policy: Policy,
    /// Optional sweep over one axis.
    pub sweep: Option<SweepSpec>,
    /// Simulation parameters.
    #[serde(default = "SimSpec::default")]
    pub sim: SimSpec,
    /// Analysis-vs-simulation agreement tolerance.
    #[serde(default = "Tolerance::default")]
    pub tolerance: Tolerance,
    /// Named fixed parameters for labelling and provenance (e.g.
    /// `("lambda", 0.6)`), carried into sweep reports.
    #[serde(default = "Vec::new")]
    pub params: Vec<(String, f64)>,
}

impl Scenario {
    /// Start building a scenario around a machine.
    ///
    /// # Examples
    ///
    /// Build a scenario, validate it, and solve its model:
    ///
    /// ```
    /// use gsched_scenario::{ModelSpec, Scenario};
    ///
    /// let machine = ModelSpec::from_json(
    ///     r#"{
    ///         "processors": 4,
    ///         "classes": [{
    ///             "partition_size": 4,
    ///             "arrival": { "type": "exponential", "rate": 0.2 },
    ///             "service": { "type": "exponential", "rate": 1.0 },
    ///             "quantum": { "type": "erlang", "stages": 2, "rate": 1.0 },
    ///             "switch_overhead": { "type": "exponential", "rate": 100.0 }
    ///         }]
    ///     }"#,
    /// )?;
    /// let scenario = Scenario::builder("demo", machine)
    ///     .description("one 4-way class at light load")
    ///     .build()?; // `build` runs full structural validation
    ///
    /// let model = scenario.build_model()?;
    /// let solution = gsched_core::solve(&model, &Default::default())?;
    /// assert!(solution.all_stable);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn builder(name: impl Into<String>, machine: ModelSpec) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                name: name.into(),
                description: String::new(),
                machine,
                policy: Policy::Gang,
                sweep: None,
                sim: SimSpec::default(),
                tolerance: Tolerance::default(),
                params: Vec::new(),
            },
        }
    }

    /// Parse and validate a scenario from JSON text.
    pub fn from_json(text: &str) -> Result<Scenario, ScenarioError> {
        let sc: Scenario =
            serde_json::from_str(text).map_err(|e| ScenarioError::Json(e.to_string()))?;
        sc.validate()?;
        Ok(sc)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serialization cannot fail")
    }

    /// Full structural validation: name, machine, sweep grids, simulation
    /// parameters, tolerance. Does not solve anything — see
    /// [`crate::validate_report`] for the numerical (stability) side.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(invalid("name must be non-empty"));
        }
        if !self
            .name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
        {
            return Err(invalid(format!(
                "name {:?} must be a lowercase identifier ([a-z0-9_-])",
                self.name
            )));
        }
        self.machine.build().map_err(invalid)?;
        if let Some(sweep) = &self.sweep {
            for (which, grid) in [
                ("grid", Some(&sweep.grid)),
                ("quick_grid", sweep.quick_grid.as_ref()),
            ] {
                let Some(grid) = grid else { continue };
                if grid.is_empty() {
                    return Err(invalid(format!("sweep {which} must be non-empty")));
                }
                for &x in grid {
                    sweep.axis.check_coordinate(x)?;
                }
                if grid.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(invalid(format!(
                        "sweep {which} must be strictly increasing"
                    )));
                }
            }
            // Every grid point must materialize into a valid model.
            for &x in sweep.grid.iter().chain(sweep.quick_grid.iter().flatten()) {
                sweep
                    .axis
                    .apply(&self.machine, x)?
                    .build()
                    .map_err(|e| invalid(format!("sweep point x = {x}: {e}")))?;
            }
        }
        if !(self.sim.horizon.is_finite() && self.sim.horizon > 0.0) {
            return Err(invalid(format!(
                "sim horizon must be positive, got {}",
                self.sim.horizon
            )));
        }
        if !(self.sim.warmup.is_finite() && self.sim.warmup >= 0.0)
            || self.sim.warmup >= self.sim.horizon
        {
            return Err(invalid(format!(
                "sim warmup must lie in [0, horizon), got {} (horizon {})",
                self.sim.warmup, self.sim.horizon
            )));
        }
        if self.sim.batches < 2 {
            return Err(invalid("sim batches must be at least 2"));
        }
        if !(self.tolerance.rel.is_finite() && self.tolerance.rel > 0.0) {
            return Err(invalid(format!(
                "tolerance rel must be positive, got {}",
                self.tolerance.rel
            )));
        }
        if !(self.tolerance.ci_sigmas.is_finite() && self.tolerance.ci_sigmas >= 0.0) {
            return Err(invalid(format!(
                "tolerance ci_sigmas must be non-negative, got {}",
                self.tolerance.ci_sigmas
            )));
        }
        if let Some(ct) = self.tolerance.certified_tail {
            if !(ct.is_finite() && ct > 0.0 && ct < 1.0) {
                return Err(invalid(format!(
                    "tolerance certified_tail must lie in (0, 1), got {ct}"
                )));
            }
        }
        if let Some(ar) = self.tolerance.asymptotic_rel {
            if !(ar.is_finite() && ar > 0.0) {
                return Err(invalid(format!(
                    "tolerance asymptotic_rel must be positive, got {ar}"
                )));
            }
        }
        for (k, v) in &self.params {
            if !v.is_finite() {
                return Err(invalid(format!("param {k:?} must be finite, got {v}")));
            }
        }
        Ok(())
    }

    /// The base machine as a validated [`GangModel`].
    pub fn build_model(&self) -> Result<GangModel, ScenarioError> {
        self.machine.build().map_err(invalid)
    }

    /// The machine at sweep coordinate `x`. Errors when the scenario has no
    /// sweep.
    pub fn model_at(&self, x: f64) -> Result<GangModel, ScenarioError> {
        let sweep = self
            .sweep
            .as_ref()
            .ok_or_else(|| invalid(format!("scenario {:?} has no sweep axis", self.name)))?;
        sweep
            .axis
            .apply(&self.machine, x)?
            .build()
            .map_err(|e| invalid(format!("sweep point x = {x}: {e}")))
    }

    /// The grid the scenario sweeps over (`quick` selects the reduced grid
    /// when one is declared). Empty when the scenario has no sweep.
    pub fn grid(&self, quick: bool) -> &[f64] {
        match &self.sweep {
            None => &[],
            Some(sweep) => {
                if quick {
                    sweep.quick_grid.as_deref().unwrap_or(&sweep.grid)
                } else {
                    &sweep.grid
                }
            }
        }
    }

    /// Build the engine request: the scenario's machine materialized at
    /// every grid point, labelled with the scenario's name and parameters.
    pub fn sweep_request(&self, quick: bool) -> Result<SweepRequest, ScenarioError> {
        let sweep = self
            .sweep
            .as_ref()
            .ok_or_else(|| invalid(format!("scenario {:?} has no sweep axis", self.name)))?;
        let mut points = Vec::new();
        for &x in self.grid(quick) {
            points.push(SweepPoint {
                x,
                model: self.model_at(x)?,
            });
        }
        let mut base = ScenarioBase::labeled(self.name.clone());
        base.params = self.params.clone();
        Ok(SweepRequest::new(sweep.axis.engine_axis(), base, points))
    }

    /// The options this scenario solves under, starting from `base`: a
    /// processors-axis (large-P) scenario adds certified level truncation
    /// at its `certified_tail` ceiling (default `1e-8`), so each class
    /// result carries a truncation certificate; any other scenario keeps
    /// `base`. Every surface that solves a scenario resolves its options
    /// here, so `gsched sweep`, profiles, bench rows and served replies agree.
    pub fn solver_options(&self, base: &SolverOptions) -> SolverOptions {
        let mut opts = base.clone();
        if self
            .sweep
            .as_ref()
            .is_some_and(|sweep| sweep.axis == AxisSpec::Processors)
        {
            opts.qbd.truncation = LevelTruncation::Auto {
                target_tail: self.tolerance.certified_tail.unwrap_or(1e-8),
                min_levels: 4,
            };
        }
        opts
    }

    /// The simulator configuration (`horizon_scale` shrinks horizon and
    /// warmup together for quick runs).
    pub fn sim_config(&self, horizon_scale: f64) -> SimConfig {
        self.sim.config(horizon_scale)
    }

    /// Simulate `model` under the scenario's policy and simulation
    /// parameters.
    pub fn simulate(&self, model: &GangModel, horizon_scale: f64) -> SimResult {
        gsched_sim::simulate(model, self.policy, self.sim_config(horizon_scale))
    }

    /// Look up a named provenance parameter.
    pub fn param(&self, name: &str) -> Option<f64> {
        self.params.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

/// Chainable validating builder for [`Scenario`] (the registry's authoring
/// surface).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Set the human description.
    pub fn description(mut self, d: impl Into<String>) -> Self {
        self.scenario.description = d.into();
        self
    }

    /// Set the simulated scheduling policy.
    pub fn policy(mut self, p: Policy) -> Self {
        self.scenario.policy = p;
        self
    }

    /// Declare the sweep axis and full grid.
    pub fn sweep(mut self, axis: AxisSpec, grid: Vec<f64>) -> Self {
        self.scenario.sweep = Some(SweepSpec {
            axis,
            grid,
            quick_grid: None,
        });
        self
    }

    /// Declare the reduced `--quick` grid (requires [`Self::sweep`] first).
    pub fn quick_grid(mut self, grid: Vec<f64>) -> Self {
        if let Some(sweep) = &mut self.scenario.sweep {
            sweep.quick_grid = Some(grid);
        }
        self
    }

    /// Override the simulation parameters.
    pub fn sim(mut self, sim: SimSpec) -> Self {
        self.scenario.sim = sim;
        self
    }

    /// Override the analysis-vs-simulation tolerance.
    pub fn tolerance(mut self, rel: f64, ci_sigmas: f64) -> Self {
        self.scenario.tolerance.rel = rel;
        self.scenario.tolerance.ci_sigmas = ci_sigmas;
        self
    }

    /// Declare a ceiling on the certified truncation tail mass at every
    /// sweep point (large-P scenarios).
    pub fn certified_tail(mut self, bound: f64) -> Self {
        self.scenario.tolerance.certified_tail = Some(bound);
        self
    }

    /// Declare the relative tolerance for the zero-queueing asymptotic
    /// cross-check at the largest sweep point (large-P scenarios).
    pub fn asymptotic_rel(mut self, rel: f64) -> Self {
        self.scenario.tolerance.asymptotic_rel = Some(rel);
        self
    }

    /// Record a named provenance parameter.
    pub fn param(mut self, name: impl Into<String>, value: f64) -> Self {
        self.scenario.params.push((name.into(), value));
        self
    }

    /// Validate and return the scenario.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        self.scenario.validate()?;
        Ok(self.scenario)
    }
}

/// Severity of a [`LintIssue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintLevel {
    /// Suspicious but usable.
    Warning,
    /// The scenario cannot be trusted (schema failure or unstable class).
    Error,
}

/// One finding from [`validate_report`].
#[derive(Debug, Clone)]
pub struct LintIssue {
    /// Severity.
    pub level: LintLevel,
    /// Human-readable finding.
    pub message: String,
}

/// Per-class stability summary from solving the base model.
#[derive(Debug, Clone)]
pub struct ClassStability {
    /// Class index.
    pub class: usize,
    /// Offered utilization `λ g/(μ P)`.
    pub utilization: f64,
    /// Positive recurrent under the converged vacations?
    pub stable: bool,
    /// Drift-condition slack (Theorem 4.4); negative when unstable.
    pub drift_margin: f64,
}

/// The full `gsched validate` output for one scenario.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Scenario name.
    pub name: String,
    /// Lint findings, errors first.
    pub issues: Vec<LintIssue>,
    /// Per-class stability at the base point (empty when the base model
    /// could not be built or solved).
    pub classes: Vec<ClassStability>,
}

impl ValidationReport {
    /// True when no error-level issue was found.
    pub fn ok(&self) -> bool {
        !self.issues.iter().any(|i| i.level == LintLevel::Error)
    }
}

/// Lint a scenario: structural validation, then a solve of the base model
/// (under the scenario's [`Scenario::solver_options`] of `solver`)
/// reporting per-class stability and drift margins. Near-instability (drift
/// margin below [`WARN_DRIFT_MARGIN`]) is a warning; an unstable
/// class is an error.
pub fn validate_report(scenario: &Scenario, solver: &SolverOptions) -> ValidationReport {
    let mut report = ValidationReport {
        name: scenario.name.clone(),
        issues: Vec::new(),
        classes: Vec::new(),
    };
    if let Err(e) = scenario.validate() {
        report.issues.push(LintIssue {
            level: LintLevel::Error,
            message: e.to_string(),
        });
        return report;
    }
    let model = match scenario.build_model() {
        Ok(m) => m,
        Err(e) => {
            report.issues.push(LintIssue {
                level: LintLevel::Error,
                message: e.to_string(),
            });
            return report;
        }
    };
    let mut opts = scenario.solver_options(solver);
    opts.collect_health = true;
    opts.require_stable = false;
    match solve(&model, &opts) {
        Err(e) => report.issues.push(LintIssue {
            level: LintLevel::Error,
            message: format!("base model solve failed: {e}"),
        }),
        Ok(sol) => {
            let health = sol.health.unwrap_or_default();
            for (p, h) in health.classes.iter().enumerate() {
                report.classes.push(ClassStability {
                    class: p,
                    utilization: model.class_utilization(p),
                    stable: h.stable,
                    drift_margin: h.drift_margin,
                });
                if !h.stable {
                    report.issues.push(LintIssue {
                        level: LintLevel::Error,
                        message: format!(
                            "class {p} is unstable at the base point (drift margin {:.4})",
                            h.drift_margin
                        ),
                    });
                } else if h.drift_margin < WARN_DRIFT_MARGIN {
                    report.issues.push(LintIssue {
                        level: LintLevel::Warning,
                        message: format!(
                            "class {p} is near instability (drift margin {:.4} < {:.2})",
                            h.drift_margin, WARN_DRIFT_MARGIN
                        ),
                    });
                }
            }
            if !sol.converged {
                report.issues.push(LintIssue {
                    level: LintLevel::Warning,
                    message: "fixed point did not converge at the base point".to_string(),
                });
            }
        }
    }
    report.issues.sort_by_key(|i| match i.level {
        LintLevel::Error => 0,
        LintLevel::Warning => 1,
    });
    report
}
