//! Named scheduling policies and the simulator's entry point.
//!
//! Everything the simulator can run — the analyzed gang policy, the SP2
//! lending variant, and the two baselines — behind one [`Policy`] name, so
//! scenario descriptions and the CLI select a simulator the same way.
//! [`simulate`] runs any of them on the shared event loop of
//! [`engine`](crate::engine).

use crate::baselines::{Fcfs, RoundRobin};
use crate::engine::Core;
use crate::gang::Gang;
use crate::stats::{SimConfig, SimResult};
use gsched_core::GangModel;
use serde::{Deserialize, Serialize, Value};

/// A scheduling policy the simulator can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// System-wide timeplexing with switch-on-empty — the policy the
    /// analysis models.
    #[default]
    Gang,
    /// SP2 implementation variant (§6): idle partitions are lent to later
    /// classes instead of idling out the quantum.
    Lend,
    /// Pure time-sharing baseline: the whole machine round-robins over jobs.
    RoundRobin,
    /// Pure space-sharing baseline: FCFS run-to-completion.
    Fcfs,
}

impl Policy {
    /// All policies, analyzed policy first.
    pub const ALL: [Policy; 4] = [Policy::Gang, Policy::Lend, Policy::RoundRobin, Policy::Fcfs];

    /// Canonical name, as accepted by `gsched simulate --policy`.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Gang => "gang",
            Policy::Lend => "lend",
            Policy::RoundRobin => "rr",
            Policy::Fcfs => "fcfs",
        }
    }

    /// Parse a policy name (the inverse of [`Policy::name`]).
    pub fn from_name(name: &str) -> Option<Policy> {
        match name.to_ascii_lowercase().as_str() {
            "gang" => Some(Policy::Gang),
            "lend" | "sp2" => Some(Policy::Lend),
            "rr" | "timeshare" => Some(Policy::RoundRobin),
            "fcfs" | "spaceshare" => Some(Policy::Fcfs),
            _ => None,
        }
    }

    /// True for the policies covered by the paper's analytic model (the
    /// lending variant is close enough to cross-validate against, with a
    /// wider tolerance; the baselines are not gang scheduling at all).
    pub fn analysis_comparable(&self) -> bool {
        matches!(self, Policy::Gang | Policy::Lend)
    }
}

impl Serialize for Policy {
    fn to_value(&self) -> Value {
        Value::String(self.name().to_string())
    }
}

impl Deserialize for Policy {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let name = v
            .as_str()
            .ok_or_else(|| serde::Error::msg(format!("expected policy name, got {}", v.kind())))?;
        Policy::from_name(name).ok_or_else(|| {
            serde::Error::msg(format!("unknown policy {name:?} (gang|lend|rr|fcfs)"))
        })
    }
}

/// Run the simulator for `model` under `policy`: the one way to simulate.
///
/// Deterministic for a fixed `config.seed`.
pub fn simulate(model: &GangModel, policy: Policy, config: SimConfig) -> SimResult {
    let core = Core::new(model, config);
    let classes = model.num_classes();
    match policy {
        Policy::Gang => core.run(&mut Gang::new(classes, false)),
        Policy::Lend => core.run(&mut Gang::new(classes, true)),
        Policy::RoundRobin => core.run(&mut RoundRobin::default()),
        Policy::Fcfs => core.run(&mut Fcfs::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in Policy::ALL {
            assert_eq!(Policy::from_name(p.name()), Some(p));
            let v = p.to_value();
            assert_eq!(Policy::from_value(&v).unwrap(), p);
        }
        assert_eq!(Policy::from_name("nope"), None);
        assert!(Policy::from_value(&Value::Number(3.0)).is_err());
    }

    #[test]
    fn aliases_parse() {
        assert_eq!(Policy::from_name("SP2"), Some(Policy::Lend));
        assert_eq!(Policy::from_name("timeshare"), Some(Policy::RoundRobin));
        assert_eq!(Policy::from_name("spaceshare"), Some(Policy::Fcfs));
    }
}
