//! Continuous-time Markov chain machinery.
//!
//! This crate provides the background results of §2 of the SPAA 1996 paper
//! that the solver uses:
//!
//! * [`Ctmc`] — validated infinitesimal generator matrices (§2.2, eqs. 5–6)
//!   and stationary distributions via the numerically stable GTH
//!   elimination (Theorem 2.4, eqs. 9–10).
//! * [`absorbing`] — analysis of absorbing chains: fundamental matrix and
//!   expected time to absorption. This is the machinery behind the paper's
//!   construction of the effective-quantum distribution (§4.3): the time to
//!   absorption of a PH chain *is* the phase-type distribution.
//! * [`scc`] — strong connectivity (a linear-time check and Tarjan's
//!   components). GTH checks its input with the first; the second is the
//!   tests' independent §4.4 oracle, since the class chains are irreducible
//!   by construction and no solve checks them.

pub mod absorbing;
pub mod ctmc;
pub mod scc;

pub use absorbing::AbsorbingCtmc;
pub use ctmc::Ctmc;
pub use scc::{is_strongly_connected, tarjan_scc};

/// Errors produced by chain validation and solving.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkovError {
    /// The matrix is not a valid generator / stochastic matrix.
    Invalid(String),
    /// The chain (restricted to the relevant states) is not irreducible.
    NotIrreducible,
    /// An underlying linear-algebra operation failed.
    Linalg(gsched_linalg::LinalgError),
}

impl std::fmt::Display for MarkovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarkovError::Invalid(msg) => write!(f, "invalid chain: {msg}"),
            MarkovError::NotIrreducible => write!(f, "chain is not irreducible"),
            MarkovError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for MarkovError {}

impl From<gsched_linalg::LinalgError> for MarkovError {
    fn from(e: gsched_linalg::LinalgError) -> Self {
        MarkovError::Linalg(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MarkovError>;
