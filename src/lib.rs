//! # gang-scheduling
//!
//! A complete Rust implementation of the analytic model and scheduling
//! system of
//!
//! > M. S. Squillante, F. Wang, M. Papaefthymiou. *An Analysis of Gang
//! > Scheduling for Multiprogrammed Parallel Computing Environments.*
//! > SPAA 1996.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`model`] / [`solver`] — the paper's gang-scheduling model and its
//!   matrix-geometric fixed-point solution (`gsched-core`);
//! * [`phase`] — phase-type distributions (`gsched-phase`);
//! * [`markov`] — CTMC/DTMC machinery (`gsched-markov`);
//! * [`qbd`] — the quasi-birth-death solver (`gsched-qbd`);
//! * [`sim`] — a discrete-event simulator of the policy, its SP2 variant,
//!   and the classical time-/space-sharing baselines (`gsched-sim`);
//! * [`scenario`] — the typed scenario IR and named registry that drive the
//!   solver, sweep engine, simulator, and cross-validation harness
//!   (`gsched-scenario`);
//! * [`linalg`] — the dense numeric kernels underneath (`gsched-linalg`).
//!
//! ## Quickstart
//!
//! ```
//! use gang_scheduling::model::{ClassParams, GangModel};
//! use gang_scheduling::solver::{solve, SolverOptions};
//! use gang_scheduling::phase::{erlang, exponential};
//!
//! // An 8-processor machine with "wide" jobs (need all 8 processors) and
//! // "narrow" jobs (need 2), time-sharing via gang scheduling.
//! let model = GangModel::new(8, vec![
//!     ClassParams {
//!         partition_size: 8,
//!         arrival: exponential(0.25),
//!         service: exponential(1.0),
//!         quantum: erlang(2, 1.0),
//!         switch_overhead: exponential(100.0),
//!     },
//!     ClassParams {
//!         partition_size: 2,
//!         arrival: exponential(1.0),
//!         service: exponential(2.0),
//!         quantum: erlang(2, 1.0),
//!         switch_overhead: exponential(100.0),
//!     },
//! ]).unwrap();
//!
//! let solution = solve(&model, &SolverOptions::default()).unwrap();
//! for (p, class) in solution.classes.iter().enumerate() {
//!     println!("class {p}: N = {:.3}, T = {:.3}", class.mean_jobs, class.mean_response);
//! }
//! assert!(solution.all_stable);
//! ```

/// Dense linear algebra kernels (re-export of `gsched-linalg`).
pub mod linalg {
    pub use gsched_linalg::*;
}

/// Phase-type distributions (re-export of `gsched-phase`).
pub mod phase {
    pub use gsched_phase::*;
}

/// Markov-chain machinery (re-export of `gsched-markov`).
pub mod markov {
    pub use gsched_markov::*;
}

/// Quasi-birth-death solver (re-export of `gsched-qbd`).
pub mod qbd {
    pub use gsched_qbd::*;
}

/// The gang-scheduling model configuration (re-export of
/// `gsched-core::model`).
pub mod model {
    pub use gsched_core::model::*;
}

/// The analytic solver (re-export of `gsched-core::solver`) and the rest of
/// the core machinery.
pub mod solver {
    pub use gsched_core::solver::*;
}

/// Core internals: state spaces, generators, vacations, effective quanta,
/// measures, DOT export (re-export of `gsched-core`).
pub mod core {
    pub use gsched_core::*;
}

/// Discrete-event simulation (re-export of `gsched-sim`).
pub mod sim {
    pub use gsched_sim::*;
}

/// The canonical scenario layer: typed experiment descriptions, the named
/// registry (`fig2`…`near_instability`), validation lints, and the
/// analytic-vs-simulation cross-validation harness (re-export of
/// `gsched-scenario`).
pub mod scenario {
    pub use gsched_scenario::*;
}
