//! Seeded end-to-end and per-layer benchmark of the gang-scheduling
//! workspace. See `perfbench/README.md` for the workloads, the metrics and
//! how to run it.

pub mod host;
pub mod inputs;
pub mod report;
pub mod rng;
pub mod service;
pub mod stats;
pub mod sweeps;
pub mod trace;

use report::Outcome;
use sweeps::SweepKind;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["figs_sweep", "large_p"];

/// Run one workload: untraced (end-to-end metrics) or traced (per-layer
/// metrics).
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = match (workload, traced) {
        ("figs_sweep", false) => sweeps::run(SweepKind::Figs, seed, seconds)?,
        ("figs_sweep", true) => sweeps::trace(SweepKind::Figs, seed)?,
        ("large_p", false) => sweeps::run(SweepKind::LargeP, seed, seconds)?,
        ("large_p", true) => sweeps::trace(SweepKind::LargeP, seed)?,
        _ => {
            return Err(format!(
                "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
            ))
        }
    };
    if !traced {
        out.metric("peak_rss_mb", stats::peak_rss_mb());
    }
    Ok(out)
}
