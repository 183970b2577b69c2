//! Discrete-event simulation of gang scheduling and baseline policies.
//!
//! The paper evaluates its analytic model numerically; this crate provides
//! the experimental counterpart the authors ran on real systems \[27\]: an
//! event-driven simulator of
//!
//! * the exact policy analyzed in the paper — system-wide timeplexing with
//!   switch-on-empty ([`gang::GangSim`] with
//!   [`gang::GangPolicy::SystemWide`]);
//! * the SP2 implementation variant sketched in the paper's §6, where idle
//!   partitions are lent to later classes instead of idling until the
//!   quantum expires ([`gang::GangPolicy::PerPartition`]);
//! * two classical baselines from the introduction's discussion
//!   ([`baselines`]): pure time-sharing (the whole machine round-robins over
//!   jobs) and pure space-sharing (FCFS run-to-completion).
//!
//! Simulation results validate the analytic solver (see `gsched xval` and
//! the integration tests) and exercise regimes the analysis does
//! not cover.

pub mod baselines;
pub mod engine;
pub mod gang;
pub mod policy;
pub mod quantiles;
pub mod stats;

pub use engine::{EventQueue, SimClock};
pub use gang::{GangPolicy, GangSim};
pub use policy::{simulate, Policy};
pub use quantiles::{P2Quantile, ResponseQuantiles};
pub use stats::{BatchMeans, SimConfig, SimResult, TimeAverage, Welford};
