//! Dense linear-algebra kernels used by the gang-scheduling analytic solver.
//!
//! The matrices that arise in the SPAA 1996 gang-scheduling model (generator
//! blocks of quasi-birth-death processes, phase-type representations) are
//! small and dense — typically a few hundred rows at most — so this crate
//! implements straightforward dense algorithms rather than pulling in an
//! external linear-algebra stack:
//!
//! * [`Matrix`]: row-major dense matrix with the usual arithmetic,
//!   including the `i-k-j` matrix product every solver layer calls.
//! * [`lu::Lu`]: LU decomposition with partial pivoting, linear solves and
//!   inverses.
//! * [`blocktri::BlockTridiagonalLu`]: level-by-level LU of a
//!   block-tridiagonal matrix, for level-structured absorbing chains.
//! * [`spectral`]: power iteration for the spectral radius of a nonnegative
//!   matrix. A diagnostic only: the QBD solve certifies `sp(R) < 1` through
//!   `(I−R)⁻¹ ≥ 0` and reports the power-iteration value on request.
//! * [`counters`]: process-global work counters (kernel calls and nominal
//!   flops) behind the `gsched_obs::enabled()` guard, feeding the
//!   `gsched profile` GFLOP/s attribution.
//!
//! All computations are `f64`. The crate's only dependency is the
//! workspace instrumentation layer `gsched-obs`, used solely as the on/off
//! guard for the work counters.

pub mod blocktri;
pub mod counters;
pub mod lu;
pub mod matrix;
pub mod spectral;
pub mod vecops;

pub use blocktri::BlockTridiagonalLu;
pub use counters::WorkCounters;
pub use lu::Lu;
pub use matrix::Matrix;
pub use spectral::spectral_radius;

/// Error type for linear-algebra failures.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix dimensions are incompatible with the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimensions of the left operand.
        lhs: (usize, usize),
        /// Dimensions of the right operand.
        rhs: (usize, usize),
    },
    /// The matrix is singular (or numerically so) and cannot be factored.
    Singular,
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Which method failed.
        method: &'static str,
        /// Number of iterations performed.
        iterations: usize,
        /// Residual at the last iteration.
        residual: f64,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NoConvergence {
                method,
                iterations,
                residual,
            } => write!(
                f,
                "{method} failed to converge after {iterations} iterations (residual {residual:.3e})"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
