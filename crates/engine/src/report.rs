//! Results of a sweep: per-point outcomes plus engine-level statistics.

use crate::request::SweepAxis;
use gsched_core::GangSolution;

/// Outcome of one sweep point. A failed point records its error and leaves
/// the rest of the sweep untouched — a sweep never fails wholesale.
#[derive(Debug, Clone)]
pub struct PointReport {
    /// Coordinate along the sweep axis.
    pub x: f64,
    /// The solution, when the solve succeeded.
    pub solution: Option<GangSolution>,
    /// Rendered error (with class and sweep-point context) otherwise.
    pub error: Option<String>,
    /// Whether this point was seeded from a neighbour's converged state.
    pub warm_started: bool,
    /// Wall-clock time spent solving this point, in milliseconds.
    pub wall_ms: f64,
}

impl PointReport {
    /// True when the point solved successfully.
    pub fn is_ok(&self) -> bool {
        self.solution.is_some()
    }

    /// Per-class mean response times; `NaN` for a failed point, infinity
    /// for unstable classes (matching [`gsched_core::solver::ClassResult`]).
    pub fn mean_responses(&self, num_classes: usize) -> Vec<f64> {
        match &self.solution {
            Some(sol) => sol.classes.iter().map(|c| c.mean_response).collect(),
            None => vec![f64::NAN; num_classes],
        }
    }
}

/// Engine-level statistics for one sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepStats {
    /// Points solved from a neighbour's converged state.
    pub warm_hits: u64,
    /// Points solved cold (first point of each chunk, failures, or all
    /// points when warm starting is disabled).
    pub warm_misses: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// Work-stealing chunks the points were split into.
    pub chunks: usize,
    /// Whether per-class parallelism was enabled for the solves.
    pub parallel_classes: bool,
    /// Wall-clock time for the whole sweep, in milliseconds.
    pub wall_ms: f64,
}

impl SweepStats {
    /// Fraction of points that were warm-started, in `[0, 1]`.
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_hits + self.warm_misses;
        if total == 0 {
            0.0
        } else {
            self.warm_hits as f64 / total as f64
        }
    }
}

/// The evaluated sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The swept axis.
    pub axis: SweepAxis,
    /// Scenario label copied from the request base.
    pub label: String,
    /// One report per requested point, in request order.
    pub points: Vec<PointReport>,
    /// Engine statistics.
    pub stats: SweepStats,
}

impl SweepReport {
    /// Iterate over the successfully solved points as `(x, solution)`.
    pub fn solutions(&self) -> impl Iterator<Item = (f64, &GangSolution)> {
        self.points
            .iter()
            .filter_map(|p| p.solution.as_ref().map(|s| (p.x, s)))
    }

    /// The first recorded point error, if any point failed.
    pub fn first_error(&self) -> Option<&str> {
        self.points.iter().find_map(|p| p.error.as_deref())
    }

    /// Number of failed points.
    pub fn failures(&self) -> usize {
        self.points.iter().filter(|p| !p.is_ok()).count()
    }
}
