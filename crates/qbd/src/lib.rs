//! Quasi-birth-death (QBD) process solver — the matrix-geometric method.
//!
//! The per-class gang-scheduling processes of the SPAA 1996 paper are QBDs
//! (§3, §4): the state space is organized into *levels* (the number of class
//! `p` jobs in the system), transitions change the level by at most one, and
//! from some level `c` onward (`c = P/g(p)`, all partitions busy) the
//! transition blocks repeat. The paper's Theorem 4.2 gives the solution:
//!
//! * `π_{c+n+1} = π_{c+n} · R` where `R` is the minimal nonnegative solution
//!   of `R²A₂ + RA₁ + A₀ = 0` (eq. 23) with `sp(R) < 1`;
//! * the boundary vector `(π_0, …, π_c)` solves the finite linear system of
//!   eqs. (21)/(25)/(26) with the normalization (24);
//! * positive recurrence holds iff the drift condition `y A₀ e < y A₂ e` is
//!   satisfied, `y` the stationary vector of `A = A₀+A₁+A₂` (Theorem 4.4).
//!
//! Provided here:
//! * [`QbdProcess`] — a validated level-structured generator with an
//!   arbitrary finite boundary (levels `0..=c` of possibly differing sizes),
//!   given up front or built level by level on first read by a
//!   [`process::LevelSource`] and checked as each level is built.
//! * [`rmatrix`] — the `R` solver: the quadratically convergent
//!   logarithmic-reduction algorithm of Latouche–Ramaswami (the modern
//!   counterpart of the paper's reference \[23\], MAGIC), on the dense
//!   `gsched-linalg` kernels.
//! * [`solution::QbdSolution`] — the stationary distribution with closed-form
//!   level moments (the paper's eq. 37).
//! * [`stability`] — the drift condition of Theorem 4.4.
//!
//! # Large boundaries: censored solves and certified truncation
//!
//! At production scale (`P` in the thousands) the boundary has `c = P/g`
//! levels and the dense boundary system is quadratic in memory and cubic in
//! time. Two mechanisms keep it tractable:
//!
//! * Block-tridiagonal *censored* elimination solves the exact boundary in
//!   `O(c·d³)` time and `O(c·d²)` memory, never the dense system. Each step
//!   rebuilds the censored block's diagonal from conservation of mass (the
//!   Grassmann–Taksar–Heyman idea), so the elimination stays accurate at
//!   levels far above the load.
//! * [`solution::LevelTruncation`] — replaces the chain with its
//!   frozen-capacity truncation at a level `m ≪ c`: levels `0..=m`, borrowed
//!   from the process without copying, with the level-`m` blocks repeating
//!   above them. The truncated chain stochastically dominates the original,
//!   so its tail mass above `m` is a certified upper bound on the mass the
//!   cut could misplace; the bound is attached to the solution as a
//!   [`solution::TruncationCertificate`]. The automatic search tests each
//!   candidate's drift before solving it and resumes the censored
//!   elimination from one candidate to the next, so every level is
//!   eliminated once.
//!
//! ```
//! use gsched_linalg::Matrix;
//! use gsched_qbd::solution::{LevelTruncation, SolveOptions};
//! use gsched_qbd::QbdProcess;
//!
//! // A lightly loaded M/M/64 queue, as a QBD with c = 64.
//! let (lambda, mu, c) = (8.0, 1.0, 64usize);
//! let mut up = Vec::new();
//! let mut local = Vec::new();
//! let mut down = Vec::new();
//! for i in 0..=c {
//!     if i < c {
//!         up.push(Matrix::from_rows(&[&[lambda]]));
//!     }
//!     local.push(Matrix::from_rows(&[&[-(lambda + i as f64 * mu)]]));
//!     if i >= 1 {
//!         down.push(Matrix::from_rows(&[&[i as f64 * mu]]));
//!     }
//! }
//! let qbd = QbdProcess::new(
//!     up,
//!     local,
//!     down,
//!     Matrix::from_rows(&[&[lambda]]),
//!     Matrix::from_rows(&[&[-(lambda + c as f64 * mu)]]),
//!     Matrix::from_rows(&[&[c as f64 * mu]]),
//! )?;
//!
//! // Ask for an automatic truncation certified to 1e-9 of tail mass.
//! let opts = SolveOptions {
//!     truncation: LevelTruncation::Auto {
//!         target_tail: 1e-9,
//!         min_levels: 4,
//!     },
//!     ..Default::default()
//! };
//! let sol = qbd.solve(&opts)?;
//! let cert = sol.truncation().expect("light load truncates well below c");
//! assert!(cert.level < c);
//! assert!(cert.tail_mass <= 1e-9);
//! // The certified geometric bound dominates the exact tail (up to
//! // round-off — for a one-phase chain the two coincide).
//! assert!(sol.geometric_tail_bound(40) >= sol.tail_prob(40) * (1.0 - 1e-9));
//! # Ok::<(), gsched_qbd::QbdError>(())
//! ```

pub mod process;
pub mod rmatrix;
pub mod solution;
pub mod stability;

pub use process::QbdProcess;
pub use rmatrix::{r_residual, solve_g_logarithmic_reduction, solve_r, RSolverMethod};
pub use solution::{LevelTruncation, QbdSolution, SolveOptions, TruncationCertificate};
pub use stability::{drift_condition, DriftReport};

/// Errors from QBD construction and solving.
#[derive(Debug, Clone, PartialEq)]
pub enum QbdError {
    /// Block shapes are inconsistent with a QBD structure.
    Shape(String),
    /// The infinite generator fails the zero-row-sum property.
    NotGenerator(String),
    /// The process is not positive recurrent (drift condition fails).
    Unstable(DriftReport),
    /// Underlying numeric failure.
    Linalg(gsched_linalg::LinalgError),
    /// Underlying Markov-chain failure.
    Markov(gsched_markov::MarkovError),
}

impl std::fmt::Display for QbdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QbdError::Shape(m) => write!(f, "bad QBD shape: {m}"),
            QbdError::NotGenerator(m) => write!(f, "not a generator: {m}"),
            QbdError::Unstable(r) => write!(
                f,
                "QBD is not positive recurrent: up-drift {} >= down-drift {}",
                r.up_drift, r.down_drift
            ),
            QbdError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            QbdError::Markov(e) => write!(f, "markov failure: {e}"),
        }
    }
}

impl std::error::Error for QbdError {}

impl From<gsched_linalg::LinalgError> for QbdError {
    fn from(e: gsched_linalg::LinalgError) -> Self {
        QbdError::Linalg(e)
    }
}

impl From<gsched_markov::MarkovError> for QbdError {
    fn from(e: gsched_markov::MarkovError) -> Self {
        QbdError::Markov(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, QbdError>;
