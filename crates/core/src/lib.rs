//! Analytic model of gang scheduling for multiprogrammed parallel systems.
//!
//! This crate implements the queueing-theoretic model of
//!
//! > M. S. Squillante, F. Wang, M. Papaefthymiou, *An Analysis of Gang
//! > Scheduling for Multiprogrammed Parallel Computing Environments*,
//! > SPAA 1996.
//!
//! # The system (paper §3)
//!
//! A machine with `P` identical processors runs `L` job classes. Class `p`
//! jobs require `g(p)` processors each, so up to `c_p = P/g(p)` class-`p`
//! jobs space-share the machine simultaneously. Classes time-share via a
//! *timeplexing cycle*: class `p` receives a quantum drawn from `G_p`, then a
//! context switch with overhead `C_p` hands the machine to class
//! `(p+1) mod L`. A class whose queue empties surrenders the rest of its
//! quantum. All parameters are phase-type distributions.
//!
//! # The analysis (paper §4)
//!
//! From the perspective of class `p` the machine alternates between service
//! periods and *vacations* `Z_p` (everything else in the cycle). Each class
//! is a quasi-birth-death process over levels = number of class-`p` jobs:
//!
//! * [`statespace`] enumerates the per-level states
//!   `(arrival phase, service-phase configuration, cycle phase)` —
//!   the paper's `(i_p, j^A_p, j^B_p…, k_p)` of §4.1;
//! * [`generator`] assembles the QBD blocks of eq. (20);
//! * [`vacation`] builds `Z_p` as the convolution
//!   `C_p * G_{p+1} * C_{p+1} * … * C_{p−1}` (Theorem 4.1 for the
//!   heavy-traffic initialization, Theorem 4.3 with *effective* quanta for
//!   the general case);
//! * [`effective`] extracts the skip atom and moments of a class's
//!   effective quantum from its solved chain by absorbing-chain analysis
//!   (§4.3), and fits a small PH to them;
//! * [`solver`] runs the fixed-point iteration of §4.3 and produces
//!   [`solver::GangSolution`] with the paper's performance measures
//!   (eq. 37 and Little's law, §4.5).
//!
//! Beyond the paper: [`response`] derives full response-time distributions
//! by tagged-job analysis, [`tuning`] optimizes quantum lengths and
//! cycle splits — the use the paper's abstract and §6 envision for the
//! model — and [`asymptotic`] computes the zero-queueing large-system
//! limit (`P → ∞`) that certified-truncation solves at large `P` are
//! checked against (see `docs/LARGE_P.md`).
//!
//! # Quick example
//!
//! ```
//! use gsched_core::model::{ClassParams, GangModel};
//! use gsched_core::solver::{solve, SolverOptions};
//! use gsched_phase::{erlang, exponential};
//!
//! // 4 processors, two classes: "big" jobs need all 4, "small" need 1.
//! let model = GangModel::new(4, vec![
//!     ClassParams {
//!         partition_size: 4,
//!         arrival: exponential(0.2),
//!         service: exponential(1.0),
//!         quantum: erlang(2, 0.5),
//!         switch_overhead: exponential(100.0),
//!     },
//!     ClassParams {
//!         partition_size: 1,
//!         arrival: exponential(0.5),
//!         service: exponential(2.0),
//!         quantum: erlang(2, 0.5),
//!         switch_overhead: exponential(100.0),
//!     },
//! ]).unwrap();
//! let solution = solve(&model, &SolverOptions::default()).unwrap();
//! assert!(solution.converged);
//! assert!(solution.classes[0].mean_jobs > 0.0);
//! ```

mod anderson;
pub mod asymptotic;
pub mod dot;
pub mod effective;
pub mod generator;
pub mod health;
pub mod measures;
pub mod model;
pub mod response;
pub mod solver;
pub mod statespace;
pub mod tuning;
pub mod vacation;

pub use asymptotic::{solve_asymptotic, AsymptoticClass, AsymptoticSolution};
/// Re-export of the CTMC crate the solver's GTH and asymptotic solves use,
/// so downstream users can check a chain independently of the QBD solver
/// (for example strong connectivity by Tarjan's components).
pub use gsched_markov as markov;
/// Re-export of the QBD solver crate so downstream users can name
/// [`SolverOptions::qbd`] types (truncation, certificate, `R` solver)
/// without a direct dependency.
pub use gsched_qbd as qbd;
pub use health::{ClassHealth, HealthReport, WARN_DRIFT_MARGIN};
pub use model::{ClassParams, GangModel, ModelError};
pub use solver::{
    solve, solve_warm, GangSolution, SolveOutcome, SolverOptions, VacationMode, WarmStart,
};
pub use vacation::VacationCache;

/// Errors from model construction and solving.
#[derive(Debug)]
pub enum GangError {
    /// Invalid model parameters.
    Model(ModelError),
    /// A class is not positive recurrent under the current vacations; the
    /// payload is the class index and the drift report.
    Unstable {
        /// Class whose drift condition failed.
        class: usize,
        /// Drift details.
        report: gsched_qbd::DriftReport,
    },
    /// The fixed-point iteration did not converge.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Last relative change observed.
        last_change: f64,
    },
    /// Underlying QBD failure, with whatever scenario context is known.
    Qbd {
        /// Class index, when the failure is attributable to one class.
        class: Option<usize>,
        /// Sweep-axis coordinate of the failing scenario, when the solve
        /// ran as part of a parameter sweep.
        sweep_point: Option<f64>,
        /// The QBD error.
        source: gsched_qbd::QbdError,
    },
    /// Invalid [`SolverOptions`], rejected by [`SolverOptions::validate`]
    /// when a solve starts.
    InvalidOptions(String),
    /// Underlying phase-type failure.
    Phase(gsched_phase::PhaseTypeError),
}

impl GangError {
    /// Attach a class index to a [`GangError::Qbd`] error (no-op for other
    /// variants). Used by the solver so QBD failures report which class's
    /// chain broke.
    #[must_use]
    pub fn with_class(self, class: usize) -> Self {
        match self {
            GangError::Qbd {
                sweep_point,
                source,
                ..
            } => GangError::Qbd {
                class: Some(class),
                sweep_point,
                source,
            },
            other => other,
        }
    }

    /// Attach a sweep-axis coordinate to a [`GangError::Qbd`] error (no-op
    /// for other variants). Used by the sweep engine so failures report
    /// which scenario failed.
    #[must_use]
    pub fn with_sweep_point(self, x: f64) -> Self {
        match self {
            GangError::Qbd { class, source, .. } => GangError::Qbd {
                class,
                sweep_point: Some(x),
                source,
            },
            other => other,
        }
    }
}

impl std::fmt::Display for GangError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GangError::Model(e) => write!(f, "invalid model: {e}"),
            GangError::Unstable { class, report } => write!(
                f,
                "class {class} is unstable: up-drift {:.6} >= down-drift {:.6}",
                report.up_drift, report.down_drift
            ),
            GangError::NoConvergence {
                iterations,
                last_change,
            } => write!(
                f,
                "fixed point did not converge after {iterations} iterations (last change {last_change:.3e})"
            ),
            GangError::Qbd {
                class,
                sweep_point,
                source,
            } => {
                match class {
                    Some(p) => write!(f, "class {p}")?,
                    None => write!(f, "QBD solve")?,
                }
                if let Some(x) = sweep_point {
                    write!(f, " (sweep point x={x})")?;
                }
                write!(f, ": {source}")
            }
            GangError::InvalidOptions(msg) => write!(f, "invalid solver options: {msg}"),
            GangError::Phase(e) => write!(f, "phase-type failure: {e}"),
        }
    }
}

impl std::error::Error for GangError {}

impl From<ModelError> for GangError {
    fn from(e: ModelError) -> Self {
        GangError::Model(e)
    }
}

impl From<gsched_phase::PhaseTypeError> for GangError {
    fn from(e: gsched_phase::PhaseTypeError) -> Self {
        GangError::Phase(e)
    }
}

impl From<gsched_qbd::QbdError> for GangError {
    /// Context-free conversion; callers attach scenario context with
    /// [`GangError::with_class`] / [`GangError::with_sweep_point`].
    fn from(e: gsched_qbd::QbdError) -> Self {
        GangError::Qbd {
            class: None,
            sweep_point: None,
            source: e,
        }
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GangError>;
