//! Discrete-event simulation of gang scheduling and baseline policies.
//!
//! The paper evaluates its analytic model numerically; this crate provides
//! the experimental counterpart the authors ran on real systems \[27\]: an
//! event-driven simulator of four [`Policy`]s,
//!
//! * [`Policy::Gang`], the exact policy analyzed in the paper — system-wide
//!   timeplexing with switch-on-empty;
//! * [`Policy::Lend`], the SP2 implementation variant sketched in the
//!   paper's §6, where idle partitions are lent to later classes instead of
//!   idling until the quantum expires;
//! * two classical baselines from the introduction's discussion:
//!   [`Policy::RoundRobin`], pure time-sharing (the whole machine
//!   round-robins over jobs), and [`Policy::Fcfs`], pure space-sharing
//!   (FCFS run-to-completion).
//!
//! [`simulate`] is the one entry point. Every policy is a set of event
//! handlers on one core ([`engine`]): one event loop, one job table and one
//! set of statistics, so the policies differ only in their scheduling
//! decisions.
//!
//! Simulation results validate the analytic solver (see `gsched xval` and
//! the integration tests) and exercise regimes the analysis does
//! not cover.

mod baselines;
pub mod engine;
mod gang;
pub mod policy;
pub mod quantiles;
pub mod stats;

pub use engine::{EventQueue, SimClock};
pub use policy::{simulate, Policy};
pub use quantiles::{P2Quantile, ResponseQuantiles};
pub use stats::{BatchMeans, SimConfig, SimResult, TimeAverage, Welford};
