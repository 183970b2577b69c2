//! Distribution specifications: the serializable counterpart of
//! [`gsched_phase::PhaseType`].
//!
//! A [`DistSpec`] is a closed-form description (exponential, Erlang,
//! Coxian, …) that can be materialized into a validated phase-type
//! distribution, queried for its analytic mean, and rescaled to a target
//! mean — the primitive behind sweep axes, which move a distribution's
//! mean while preserving its shape.

use gsched_phase::{
    coxian, deterministic_approx, erlang, exponential, fit_two_moment, hyperexponential,
    hypoexponential, PhaseType,
};
use serde::{Deserialize, Serialize};

/// A distribution specification.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum DistSpec {
    /// Exponential with the given rate (mean `1/rate`).
    Exponential {
        /// Rate parameter.
        rate: f64,
    },
    /// Erlang with `stages` stages and overall `rate` (mean `1/rate`).
    Erlang {
        /// Stage count.
        stages: usize,
        /// Overall rate.
        rate: f64,
    },
    /// Hyperexponential mixture of exponentials.
    Hyperexponential {
        /// Branch probabilities.
        probs: Vec<f64>,
        /// Branch rates.
        rates: Vec<f64>,
    },
    /// Hypoexponential (stages in series with individual rates).
    Hypoexponential {
        /// Stage rates.
        rates: Vec<f64>,
    },
    /// Coxian: stage rates plus continuation probabilities (length − 1).
    Coxian {
        /// Stage rates.
        rates: Vec<f64>,
        /// Continuation probabilities between consecutive stages.
        cont: Vec<f64>,
    },
    /// Near-deterministic value (Erlang approximation).
    Deterministic {
        /// Target value.
        value: f64,
        /// Erlang stages used for the approximation (default 32).
        #[serde(default = "default_det_stages")]
        stages: usize,
    },
    /// Fit a PH to a mean and squared coefficient of variation.
    TwoMoment {
        /// Mean.
        mean: f64,
        /// Squared coefficient of variation.
        scv: f64,
    },
    /// Raw phase-type parameters `(alpha, S)`.
    Ph {
        /// Initial probability vector.
        alpha: Vec<f64>,
        /// Sub-generator rows.
        s: Vec<Vec<f64>>,
    },
}

fn default_det_stages() -> usize {
    32
}

impl DistSpec {
    /// Materialize the specification into a validated [`PhaseType`].
    pub fn build(&self) -> Result<PhaseType, String> {
        // JSON parsing rejects overflowing literals, but a spec built or
        // rescaled in code can still carry a NaN or an infinity, and the
        // phase-type constructors assume finite parameters.
        if let Some(x) = self.reals().into_iter().find(|x| !x.is_finite()) {
            return Err(format!("parameters must be finite, got {x}"));
        }
        match self {
            DistSpec::Exponential { rate } => {
                if *rate <= 0.0 {
                    return Err(format!("exponential rate must be positive, got {rate}"));
                }
                Ok(exponential(*rate))
            }
            DistSpec::Erlang { stages, rate } => {
                if *stages == 0 || *rate <= 0.0 {
                    return Err("erlang needs positive stages and rate".to_string());
                }
                Ok(erlang(*stages, *rate))
            }
            DistSpec::Hyperexponential { probs, rates } => {
                hyperexponential(probs, rates).map_err(|e| e.to_string())
            }
            DistSpec::Hypoexponential { rates } => {
                hypoexponential(rates).map_err(|e| e.to_string())
            }
            DistSpec::Coxian { rates, cont } => coxian(rates, cont).map_err(|e| e.to_string()),
            DistSpec::Deterministic { value, stages } => {
                if *value <= 0.0 || *stages == 0 {
                    return Err("deterministic needs positive value and stages".to_string());
                }
                Ok(deterministic_approx(*value, *stages))
            }
            DistSpec::TwoMoment { mean, scv } => {
                if *mean <= 0.0 || *scv < 0.0 {
                    return Err("two_moment needs positive mean and nonnegative scv".to_string());
                }
                Ok(fit_two_moment(*mean, *scv))
            }
            DistSpec::Ph { alpha, s } => {
                let n = s.len();
                if s.iter().any(|row| row.len() != n) {
                    return Err("ph: S must be square".to_string());
                }
                let flat: Vec<f64> = s.iter().flatten().copied().collect();
                let mat = gsched_linalg::Matrix::from_vec(n, n, flat);
                PhaseType::new(alpha.clone(), mat).map_err(|e| e.to_string())
            }
        }
    }

    /// Every real-valued parameter of the specification.
    fn reals(&self) -> Vec<f64> {
        match self {
            DistSpec::Exponential { rate } | DistSpec::Erlang { rate, .. } => vec![*rate],
            DistSpec::Hyperexponential { probs, rates } => {
                probs.iter().chain(rates).copied().collect()
            }
            DistSpec::Hypoexponential { rates } => rates.clone(),
            DistSpec::Coxian { rates, cont } => rates.iter().chain(cont).copied().collect(),
            DistSpec::Deterministic { value, .. } => vec![*value],
            DistSpec::TwoMoment { mean, scv } => vec![*mean, *scv],
            DistSpec::Ph { alpha, s } => alpha.iter().chain(s.iter().flatten()).copied().collect(),
        }
    }

    /// The analytic mean of the specified distribution, in closed form for
    /// every variant except [`DistSpec::Ph`] (which is materialized first).
    pub fn analytic_mean(&self) -> Result<f64, String> {
        let mean = match self {
            DistSpec::Exponential { rate } | DistSpec::Erlang { rate, .. } => {
                if *rate <= 0.0 {
                    return Err(format!("rate must be positive, got {rate}"));
                }
                1.0 / rate
            }
            DistSpec::Hyperexponential { probs, rates } => {
                if probs.len() != rates.len() || probs.is_empty() {
                    return Err("hyperexponential needs matching probs/rates".to_string());
                }
                if rates.iter().any(|&r| r <= 0.0) {
                    return Err("hyperexponential rates must be positive".to_string());
                }
                probs.iter().zip(rates.iter()).map(|(p, r)| p / r).sum()
            }
            DistSpec::Hypoexponential { rates } => {
                if rates.is_empty() || rates.iter().any(|&r| r <= 0.0) {
                    return Err("hypoexponential needs positive rates".to_string());
                }
                rates.iter().map(|r| 1.0 / r).sum()
            }
            DistSpec::Coxian { rates, cont } => {
                if rates.is_empty() || rates.iter().any(|&r| r <= 0.0) {
                    return Err("coxian needs positive rates".to_string());
                }
                if cont.len() + 1 != rates.len() {
                    return Err("coxian needs |cont| = |rates| - 1".to_string());
                }
                // Stage i is reached with probability Π_{j<i} cont_j.
                let mut reach = 1.0;
                let mut mean = 0.0;
                for (i, r) in rates.iter().enumerate() {
                    if i > 0 {
                        reach *= cont[i - 1];
                    }
                    mean += reach / r;
                }
                mean
            }
            DistSpec::Deterministic { value, .. } => *value,
            DistSpec::TwoMoment { mean, .. } => *mean,
            DistSpec::Ph { .. } => self.build()?.mean(),
        };
        if !mean.is_finite() || mean <= 0.0 {
            return Err(format!("analytic mean must be positive, got {mean}"));
        }
        Ok(mean)
    }

    /// The same distribution shape rescaled to a target mean: every rate is
    /// multiplied by `current_mean / target`, which preserves the SCV and
    /// (for rate-1 bases) introduces no rounding beyond the division itself.
    pub fn scaled_to_mean(&self, target: f64) -> Result<DistSpec, String> {
        if !target.is_finite() || target <= 0.0 {
            return Err(format!("target mean must be positive, got {target}"));
        }
        let factor = self.analytic_mean()? / target;
        let scaled = match self.clone() {
            DistSpec::Exponential { rate } => DistSpec::Exponential {
                rate: rate * factor,
            },
            DistSpec::Erlang { stages, rate } => DistSpec::Erlang {
                stages,
                rate: rate * factor,
            },
            DistSpec::Hyperexponential { probs, rates } => DistSpec::Hyperexponential {
                probs,
                rates: rates.into_iter().map(|r| r * factor).collect(),
            },
            DistSpec::Hypoexponential { rates } => DistSpec::Hypoexponential {
                rates: rates.into_iter().map(|r| r * factor).collect(),
            },
            DistSpec::Coxian { rates, cont } => DistSpec::Coxian {
                rates: rates.into_iter().map(|r| r * factor).collect(),
                cont,
            },
            DistSpec::Deterministic { stages, .. } => DistSpec::Deterministic {
                value: target,
                stages,
            },
            DistSpec::TwoMoment { scv, .. } => DistSpec::TwoMoment { mean: target, scv },
            DistSpec::Ph { alpha, s } => DistSpec::Ph {
                alpha,
                s: s.into_iter()
                    .map(|row| row.into_iter().map(|v| v * factor).collect())
                    .collect(),
            },
        };
        Ok(scaled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<DistSpec> {
        vec![
            DistSpec::Exponential { rate: 1.0 },
            DistSpec::Erlang {
                stages: 3,
                rate: 2.0,
            },
            DistSpec::Hyperexponential {
                probs: vec![0.5, 0.5],
                rates: vec![1.0, 3.0],
            },
            DistSpec::Hypoexponential {
                rates: vec![1.0, 2.0],
            },
            DistSpec::Coxian {
                rates: vec![1.0, 2.0],
                cont: vec![0.5],
            },
            DistSpec::Deterministic {
                value: 2.0,
                stages: 16,
            },
            DistSpec::TwoMoment {
                mean: 1.0,
                scv: 0.5,
            },
            DistSpec::Ph {
                alpha: vec![1.0, 0.0],
                s: vec![vec![-2.0, 2.0], vec![0.0, -2.0]],
            },
        ]
    }

    #[test]
    fn all_dist_variants_build() {
        for s in all_variants() {
            let ph = s.build().unwrap_or_else(|e| panic!("{s:?}: {e}"));
            assert!(ph.mean() > 0.0, "{s:?}");
        }
    }

    #[test]
    fn non_finite_parameters_are_errors_not_panics() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            for spec in [
                DistSpec::Exponential { rate: bad },
                DistSpec::Erlang {
                    stages: 2,
                    rate: bad,
                },
                DistSpec::Hyperexponential {
                    probs: vec![0.5, 0.5],
                    rates: vec![1.0, bad],
                },
                DistSpec::Hypoexponential {
                    rates: vec![bad, 2.0],
                },
                DistSpec::Coxian {
                    rates: vec![1.0, 2.0],
                    cont: vec![bad],
                },
                DistSpec::Deterministic {
                    value: bad,
                    stages: 16,
                },
                DistSpec::TwoMoment {
                    mean: 1.0,
                    scv: bad,
                },
                DistSpec::Ph {
                    alpha: vec![1.0, 0.0],
                    s: vec![vec![-2.0, bad], vec![0.0, -2.0]],
                },
            ] {
                let err = spec.build().expect_err(&format!("{spec:?} built"));
                assert!(err.contains("finite"), "{spec:?}: {err}");
            }
        }
    }

    #[test]
    fn all_dist_variants_roundtrip_through_json() {
        for spec in all_variants() {
            let text = serde_json::to_string(&spec).unwrap();
            let again: DistSpec = serde_json::from_str(&text).unwrap();
            assert_eq!(spec, again, "{text}");
            // The round-tripped spec must also build the same distribution.
            let a = spec.build().unwrap();
            let b = again.build().unwrap();
            assert_eq!(a.mean().to_bits(), b.mean().to_bits(), "{text}");
            assert_eq!(a.scv().to_bits(), b.scv().to_bits(), "{text}");
        }
    }

    #[test]
    fn analytic_means_match_built_means() {
        for spec in all_variants() {
            let analytic = spec.analytic_mean().unwrap();
            let built = spec.build().unwrap().mean();
            // deterministic_approx and fit_two_moment hit the mean exactly;
            // the closed forms are exact for the rest.
            assert!(
                (analytic - built).abs() <= 1e-9 * built.max(1.0),
                "{spec:?}: analytic {analytic} vs built {built}"
            );
        }
    }

    #[test]
    fn scaled_to_mean_hits_target_and_keeps_scv() {
        for spec in all_variants() {
            for &target in &[0.25, 1.0, 7.5] {
                let scaled = spec.scaled_to_mean(target).unwrap();
                let ph = scaled.build().unwrap();
                assert!(
                    (ph.mean() - target).abs() <= 1e-9 * target.max(1.0),
                    "{spec:?} → {target}: mean {}",
                    ph.mean()
                );
                let scv0 = spec.build().unwrap().scv();
                assert!(
                    (ph.scv() - scv0).abs() <= 1e-6 * scv0.abs().max(1.0),
                    "{spec:?} → {target}: scv {} vs {}",
                    ph.scv(),
                    scv0
                );
            }
        }
    }

    #[test]
    fn unit_rate_erlang_scales_exactly() {
        // The registry's quantum specs are rate-1 Erlangs; scaling them to a
        // quantum mean q must give rate exactly 1/q so scenario-built models
        // are bitwise identical to the historical hand-built ones.
        let spec = DistSpec::Erlang {
            stages: 2,
            rate: 1.0,
        };
        for &q in &[0.02, 0.5, 3.0, 6.0] {
            match spec.scaled_to_mean(q).unwrap() {
                DistSpec::Erlang { stages, rate } => {
                    assert_eq!(stages, 2);
                    assert_eq!(rate.to_bits(), (1.0 / q).to_bits());
                }
                other => panic!("shape changed: {other:?}"),
            }
        }
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(DistSpec::Exponential { rate: 0.0 }.build().is_err());
        assert!(DistSpec::Erlang {
            stages: 0,
            rate: 1.0
        }
        .build()
        .is_err());
        assert!(DistSpec::Ph {
            alpha: vec![1.0],
            s: vec![vec![-1.0, 1.0]],
        }
        .build()
        .is_err());
        assert!(DistSpec::Exponential { rate: -1.0 }
            .analytic_mean()
            .is_err());
        assert!(DistSpec::Coxian {
            rates: vec![1.0, 2.0],
            cont: vec![0.5, 0.5],
        }
        .analytic_mean()
        .is_err());
        assert!(DistSpec::Exponential { rate: 1.0 }
            .scaled_to_mean(0.0)
            .is_err());
        assert!(DistSpec::Exponential { rate: 1.0 }
            .scaled_to_mean(f64::NAN)
            .is_err());
    }

    #[test]
    fn stage_counts_past_usize_fail_to_parse() {
        let err = serde_json::from_str::<DistSpec>(
            r#"{ "type": "erlang", "stages": 1e300, "rate": 1.0 }"#,
        )
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("field `stages`: integer 1e300 out of range for usize"),
            "{err}"
        );
    }

    #[test]
    fn deterministic_default_stages_from_json() {
        let spec: DistSpec =
            serde_json::from_str(r#"{ "type": "deterministic", "value": 1.0 }"#).unwrap();
        assert_eq!(
            spec,
            DistSpec::Deterministic {
                value: 1.0,
                stages: 32
            }
        );
    }
}
