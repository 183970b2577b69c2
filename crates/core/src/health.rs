//! Per-class numerical-health report: how trustworthy a solution is.
//!
//! The solver's answer is only as good as the numerics underneath it: the
//! `R`-matrix iteration leaves a residual, the matrix-geometric tail decays
//! at rate `sp(R)` (so `1 − sp(R)` is the margin before the geometric series
//! degenerates), the Theorem 4.4 drift condition gives the class's distance
//! from saturation, and the effective-quantum extraction truncates the level
//! space leaving a known tail mass behind. All four are computed during the
//! solve and already determine accuracy — this module aggregates them into
//! one table with fixed WARN thresholds, surfaced by `gsched doctor`.

use std::fmt::Write;

/// Health indicators for one class at the converged fixed point.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassHealth {
    /// Class index.
    pub class: usize,
    /// Whether the class is positive recurrent under the final vacations.
    pub stable: bool,
    /// Drift-condition slack `(down − up)/down` of Theorem 4.4; positive
    /// when stable, near zero at the edge of saturation.
    pub drift_margin: f64,
    /// Spectral radius of the rate matrix `R` (`NaN` when unstable — no `R`
    /// exists).
    pub spectral_radius: f64,
    /// Residual `‖A₀ + RA₁ + R²A₂‖_∞` of the computed `R` (`NaN` when
    /// unstable).
    pub r_residual: f64,
    /// Stationary tail mass discarded by the effective-quantum level
    /// truncation (`NaN` when unstable).
    pub truncated_mass: f64,
    /// Boundary level at which the QBD solve was truncated
    /// ([`gsched_qbd::LevelTruncation`]), `None` for a full solve.
    pub truncation_level: Option<usize>,
    /// Certified tail-mass bound of the QBD level truncation: an upper bound
    /// (by stochastic domination) on the stationary mass the cut could
    /// misplace. Zero for a full solve, `NaN` when unstable.
    pub certified_tail: f64,
}

/// [`HealthReport::warnings`] flags a stable class whose drift margin falls
/// below this; `validate_report` in `gsched-scenario` warns on the same
/// margin.
pub const WARN_DRIFT_MARGIN: f64 = 0.05;
/// Warn when `1 − sp(R)` falls below this.
const WARN_SPECTRAL_GAP: f64 = 0.05;
/// Warn when the `R` residual exceeds this.
const WARN_R_RESIDUAL: f64 = 1e-8;
/// Warn when the truncated tail mass exceeds this.
const WARN_TRUNCATED_MASS: f64 = 1e-6;
/// Warn when the certified level-truncation tail bound exceeds this.
const WARN_CERTIFIED_TAIL: f64 = 1e-6;

/// The aggregated per-class health table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthReport {
    /// One entry per class, in class order.
    pub classes: Vec<ClassHealth>,
}

impl HealthReport {
    /// All threshold violations, one human-readable line each. Empty when
    /// every class is comfortably inside the thresholds.
    pub fn warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        for c in &self.classes {
            if !c.stable {
                out.push(format!(
                    "class {}: UNSTABLE (drift margin {:.4} <= 0)",
                    c.class, c.drift_margin
                ));
                continue;
            }
            if c.drift_margin < WARN_DRIFT_MARGIN {
                out.push(format!(
                    "class {}: drift margin {:.4} below {:.4} — near saturation",
                    c.class, c.drift_margin, WARN_DRIFT_MARGIN
                ));
            }
            if 1.0 - c.spectral_radius < WARN_SPECTRAL_GAP {
                out.push(format!(
                    "class {}: spectral gap 1-sp(R) = {:.4} below {:.4} — slow geometric tail",
                    c.class,
                    1.0 - c.spectral_radius,
                    WARN_SPECTRAL_GAP
                ));
            }
            if c.r_residual > WARN_R_RESIDUAL {
                out.push(format!(
                    "class {}: R residual {:.3e} above {:.3e} — R iteration under-converged",
                    c.class, c.r_residual, WARN_R_RESIDUAL
                ));
            }
            if c.truncated_mass > WARN_TRUNCATED_MASS {
                out.push(format!(
                    "class {}: truncated tail mass {:.3e} above {:.3e} — raise max_extra_levels",
                    c.class, c.truncated_mass, WARN_TRUNCATED_MASS
                ));
            }
            if c.certified_tail > WARN_CERTIFIED_TAIL {
                out.push(format!(
                    "class {}: certified truncation tail {:.3e} above {:.3e} — lower target_tail or solve untruncated",
                    c.class, c.certified_tail, WARN_CERTIFIED_TAIL
                ));
            }
        }
        out
    }

    /// Render the health table plus WARN lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>12} {:>10} {:>10} {:>12} {:>12} {:>9} {:>12}",
            "class",
            "stable",
            "drift_slack",
            "sp(R)",
            "1-sp(R)",
            "R_residual",
            "trunc_mass",
            "trunc_lvl",
            "cert_tail"
        );
        for c in &self.classes {
            let _ = writeln!(
                out,
                "{:>5} {:>8} {:>12.6} {:>10.6} {:>10.6} {:>12.3e} {:>12.3e} {:>9} {:>12.3e}",
                c.class,
                if c.stable { "yes" } else { "NO" },
                c.drift_margin,
                c.spectral_radius,
                1.0 - c.spectral_radius,
                c.r_residual,
                c.truncated_mass,
                c.truncation_level
                    .map_or_else(|| "full".to_string(), |l| l.to_string()),
                c.certified_tail,
            );
        }
        let warnings = self.warnings();
        if warnings.is_empty() {
            let _ = writeln!(out, "all classes within health thresholds");
        } else {
            for w in &warnings {
                let _ = writeln!(out, "WARN {w}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy(class: usize) -> ClassHealth {
        ClassHealth {
            class,
            stable: true,
            drift_margin: 0.4,
            spectral_radius: 0.5,
            r_residual: 1e-13,
            truncated_mass: 1e-10,
            truncation_level: None,
            certified_tail: 0.0,
        }
    }

    #[test]
    fn comfortable_classes_produce_no_warnings() {
        let report = HealthReport {
            classes: vec![healthy(0), healthy(1)],
        };
        assert!(report.warnings().is_empty());
        let text = report.render();
        assert!(text.contains("all classes within health thresholds"));
        assert!(!text.contains("WARN"));
    }

    #[test]
    fn each_threshold_fires_independently() {
        let mut near_saturation = healthy(0);
        near_saturation.drift_margin = 0.01;
        let mut slow_tail = healthy(1);
        slow_tail.spectral_radius = 0.97;
        let mut bad_residual = healthy(2);
        bad_residual.r_residual = 1e-5;
        let mut fat_tail = healthy(3);
        fat_tail.truncated_mass = 1e-3;
        let mut loose_cert = healthy(4);
        loose_cert.truncation_level = Some(16);
        loose_cert.certified_tail = 1e-3;
        let report = HealthReport {
            classes: vec![
                near_saturation,
                slow_tail,
                bad_residual,
                fat_tail,
                loose_cert,
            ],
        };
        let warnings = report.warnings();
        assert_eq!(warnings.len(), 5, "{warnings:?}");
        assert!(warnings[0].contains("drift margin"));
        assert!(warnings[1].contains("spectral gap"));
        assert!(warnings[2].contains("R residual"));
        assert!(warnings[3].contains("truncated tail mass"));
        assert!(warnings[4].contains("certified truncation tail"));
        let text = report.render();
        assert_eq!(text.matches("WARN").count(), 5);
    }

    #[test]
    fn unstable_class_is_a_single_warning() {
        let report = HealthReport {
            classes: vec![ClassHealth {
                class: 0,
                stable: false,
                drift_margin: -0.2,
                spectral_radius: f64::NAN,
                r_residual: f64::NAN,
                truncated_mass: f64::NAN,
                truncation_level: None,
                certified_tail: f64::NAN,
            }],
        };
        let warnings = report.warnings();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("UNSTABLE"));
    }
}
