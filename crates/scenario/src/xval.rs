//! Scenario-driven cross-validation: the analytic solver and the
//! discrete-event simulator run from the *identical* IR, and their
//! per-class mean response times are compared against the scenario's
//! declared [`crate::Tolerance`].
//!
//! The acceptance band per class is
//! `|T_analytic − T_sim| ≤ rel · max(T_sim, floor) + ci_sigmas · ci(T_sim)`
//! where `ci(T_sim)` comes from the batch-means CI on the time-average
//! population via Little's law (`T = N/λ`). The relative part absorbs the
//! analysis's documented optimism (the vacation-independence approximation
//! runs ~10–25% optimistic); the CI part absorbs simulation noise.
//!
//! Sweep points where the analysis declares any class unstable are skipped:
//! no finite stationary response time exists on either side there.

use crate::scenario::{Scenario, ScenarioError};
use gsched_core::{solve, SolverOptions};

/// Floor on the simulated response time used for the relative band, so
/// near-zero responses do not collapse the tolerance.
const RESPONSE_FLOOR: f64 = 0.1;

/// Options for [`cross_validate`].
#[derive(Debug, Clone)]
pub struct XvalOptions {
    /// Maximum sweep points compared per scenario (`0` = every grid point).
    /// Points are taken evenly spaced across the grid.
    pub max_points: usize,
    /// Use the scenario's `quick_grid` when it has one.
    pub quick: bool,
    /// Multiplier on the scenario's simulation horizon (and warmup).
    pub horizon_scale: f64,
    /// Solver options for the analytic side, before the scenario's own
    /// adjustments ([`Scenario::solver_options`]).
    pub solver: SolverOptions,
}

impl Default for XvalOptions {
    fn default() -> Self {
        XvalOptions {
            max_points: 2,
            quick: true,
            horizon_scale: 1.0,
            solver: SolverOptions::default(),
        }
    }
}

/// One class's analytic-vs-simulated comparison at one point.
#[derive(Debug, Clone)]
pub struct XvalClassRow {
    /// Class index.
    pub class: usize,
    /// Analytic mean response time.
    pub analytic: f64,
    /// Simulated mean response time.
    pub simulated: f64,
    /// 95% CI half-width on the simulated response (via Little's law).
    pub sim_ci95: f64,
    /// Absolute gap `|analytic − simulated|`.
    pub gap: f64,
    /// The acceptance band this gap was held against.
    pub tolerance: f64,
    /// `gap ≤ tolerance`.
    pub pass: bool,
}

/// The comparison at one sweep point (or the base model).
#[derive(Debug, Clone)]
pub struct XvalPoint {
    /// Sweep coordinate; `None` for the base model of a sweep-less
    /// scenario.
    pub x: Option<f64>,
    /// True when the analysis declared a class unstable here and the
    /// comparison was skipped.
    pub skipped_unstable: bool,
    /// Per-class rows (empty when skipped).
    pub rows: Vec<XvalClassRow>,
}

/// The full cross-validation result for one scenario.
#[derive(Debug, Clone)]
pub struct XvalReport {
    /// Scenario name.
    pub scenario: String,
    /// The simulated policy name.
    pub policy: String,
    /// One entry per evaluated point.
    pub points: Vec<XvalPoint>,
}

impl XvalReport {
    /// Points that were actually compared (not skipped as unstable).
    pub fn compared_points(&self) -> usize {
        self.points.iter().filter(|p| !p.skipped_unstable).count()
    }

    /// Class rows that exceeded the tolerance band.
    pub fn failures(&self) -> Vec<&XvalClassRow> {
        self.points
            .iter()
            .flat_map(|p| p.rows.iter())
            .filter(|r| !r.pass)
            .collect()
    }

    /// True when at least one point was compared and every compared class
    /// stayed within the band.
    pub fn passed(&self) -> bool {
        self.compared_points() > 0 && self.failures().is_empty()
    }
}

/// Pick up to `k` indices evenly spaced across `0..n` (all of them when
/// `k == 0` or `k >= n`; the middle one when `k == 1`).
fn pick_indices(n: usize, k: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    if k == 0 || k >= n {
        return (0..n).collect();
    }
    if k == 1 {
        return vec![n / 2];
    }
    (0..k).map(|i| i * (n - 1) / (k - 1)).collect()
}

/// Run analysis and simulation for `scenario` from the same IR and compare
/// mean response times against the declared tolerance.
///
/// Errors when the scenario's policy is a baseline the analysis does not
/// model (`rr`/`fcfs`), or when a model fails to build/solve structurally.
pub fn cross_validate(
    scenario: &Scenario,
    opts: &XvalOptions,
) -> Result<XvalReport, ScenarioError> {
    if !scenario.policy.analysis_comparable() {
        return Err(ScenarioError::Invalid(format!(
            "policy {:?} is not covered by the analytic model; cross-validation \
             needs gang or lend",
            scenario.policy.name()
        )));
    }
    let mut solver = scenario.solver_options(&opts.solver);
    solver.require_stable = false;
    let xs: Vec<Option<f64>> = if scenario.sweep.is_some() {
        let grid = scenario.grid(opts.quick);
        pick_indices(grid.len(), opts.max_points)
            .into_iter()
            .map(|i| Some(grid[i]))
            .collect()
    } else {
        vec![None]
    };
    let mut report = XvalReport {
        scenario: scenario.name.clone(),
        policy: scenario.policy.name().to_string(),
        points: Vec::new(),
    };
    for x in xs {
        let model = match x {
            Some(x) => scenario.model_at(x)?,
            None => scenario.build_model()?,
        };
        let sol = solve(&model, &solver).map_err(|e| {
            ScenarioError::Invalid(format!(
                "analytic solve failed{}: {e}",
                x.map(|x| format!(" at x = {x}")).unwrap_or_default()
            ))
        })?;
        if sol.classes.iter().any(|c| !c.stable) {
            report.points.push(XvalPoint {
                x,
                skipped_unstable: true,
                rows: Vec::new(),
            });
            continue;
        }
        let sim = scenario.simulate(&model, opts.horizon_scale);
        let mut rows = Vec::new();
        for (p, (a, s)) in sol.classes.iter().zip(sim.classes.iter()).enumerate() {
            let lambda = model.class(p).arrival_rate();
            let sim_ci95 = if lambda > 0.0 {
                s.mean_jobs_ci95 / lambda
            } else {
                f64::INFINITY
            };
            let gap = (a.mean_response - s.mean_response).abs();
            let tolerance = scenario.tolerance.rel * s.mean_response.max(RESPONSE_FLOOR)
                + scenario.tolerance.ci_sigmas * sim_ci95;
            rows.push(XvalClassRow {
                class: p,
                analytic: a.mean_response,
                simulated: s.mean_response,
                sim_ci95,
                gap,
                tolerance,
                pass: gap.is_finite() && gap <= tolerance,
            });
        }
        report.points.push(XvalPoint {
            x,
            skipped_unstable: false,
            rows,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_picking_covers_edge_cases() {
        assert_eq!(pick_indices(0, 2), Vec::<usize>::new());
        assert_eq!(pick_indices(5, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(pick_indices(5, 7), vec![0, 1, 2, 3, 4]);
        assert_eq!(pick_indices(5, 1), vec![2]);
        assert_eq!(pick_indices(5, 2), vec![0, 4]);
        assert_eq!(pick_indices(9, 3), vec![0, 4, 8]);
    }

    #[test]
    fn baseline_policies_are_rejected() {
        let mut sc = crate::registry::lookup("ablation").unwrap();
        sc.policy = gsched_sim::Policy::RoundRobin;
        assert!(cross_validate(&sc, &XvalOptions::default()).is_err());
    }
}
