//! Model configuration: the machine and its job classes (paper §3).

use gsched_phase::PhaseType;
use serde::Serialize;

/// Validation errors for [`GangModel`].
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// `P` must be positive.
    NoProcessors,
    /// At least one job class is required.
    NoClasses,
    /// `g(p)` must be a positive divisor of `P`.
    BadPartition {
        /// Offending class.
        class: usize,
        /// Its requested partition size.
        partition_size: usize,
        /// The machine size.
        processors: usize,
    },
    /// A parameter distribution is unusable for the stated reason.
    BadDistribution {
        /// Offending class.
        class: usize,
        /// Which parameter.
        param: &'static str,
        /// Why it is rejected.
        reason: String,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::NoProcessors => write!(f, "processor count must be positive"),
            ModelError::NoClasses => write!(f, "at least one job class is required"),
            ModelError::BadPartition {
                class,
                partition_size,
                processors,
            } => write!(
                f,
                "class {class}: partition size {partition_size} must be a positive divisor of P={processors}"
            ),
            ModelError::BadDistribution {
                class,
                param,
                reason,
            } => write!(f, "class {class}, {param}: {reason}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Parameters of one job class (paper §3.2).
#[derive(Debug, Clone, Serialize)]
pub struct ClassParams {
    /// `g(p)`: processors required by each job of this class. Must divide
    /// `P`; the class then has `P/g(p)` partitions.
    pub partition_size: usize,
    /// Interarrival-time distribution `A_p` (mean `1/λ_p`).
    pub arrival: PhaseType,
    /// Service-requirement distribution `B_p` on `g(p)` processors
    /// (mean `1/μ_p`).
    pub service: PhaseType,
    /// Quantum-length distribution `G_p` (mean `1/γ_p`), given sufficient
    /// work.
    pub quantum: PhaseType,
    /// Context-switch overhead `C_p` for switching from this class to the
    /// next (mean `1/δ_p`).
    pub switch_overhead: PhaseType,
}

impl ClassParams {
    /// Arrival rate `λ_p = 1/E[A_p]`.
    pub fn arrival_rate(&self) -> f64 {
        1.0 / self.arrival.mean()
    }

    /// Service rate `μ_p = 1/E[B_p]`.
    pub fn service_rate(&self) -> f64 {
        1.0 / self.service.mean()
    }
}

/// The gang-scheduled machine: `P` processors and `L` job classes.
#[derive(Debug, Clone, Serialize)]
pub struct GangModel {
    processors: usize,
    classes: Vec<ClassParams>,
}

impl GangModel {
    /// Validate and build a model.
    ///
    /// Requirements enforced:
    /// * `P > 0`, at least one class, every `g(p)` divides `P`;
    /// * interarrival and service distributions have no atom at zero
    ///   (batch arrivals / zero-size jobs are outside the paper's model);
    /// * quantum distributions have no atom at zero and positive mean
    ///   (a zero-length quantum is produced *endogenously* by the
    ///   switch-on-empty rule, not as a parameter);
    /// * switch overheads have nonnegative mean (an atom at zero is fine),
    ///   but the total vacation must not be identically zero, which is
    ///   guaranteed as long as some quantum or overhead has positive order.
    pub fn new(processors: usize, classes: Vec<ClassParams>) -> Result<GangModel, ModelError> {
        if processors == 0 {
            return Err(ModelError::NoProcessors);
        }
        if classes.is_empty() {
            return Err(ModelError::NoClasses);
        }
        for (p, class) in classes.iter().enumerate() {
            if class.partition_size == 0
                || class.partition_size > processors
                || !processors.is_multiple_of(class.partition_size)
            {
                return Err(ModelError::BadPartition {
                    class: p,
                    partition_size: class.partition_size,
                    processors,
                });
            }
            let no_atom = |param: &'static str, d: &PhaseType| -> Result<(), ModelError> {
                if d.order() == 0 || d.atom_at_zero() > 1e-12 {
                    return Err(ModelError::BadDistribution {
                        class: p,
                        param,
                        reason: "must have no atom at zero and positive order".to_string(),
                    });
                }
                Ok(())
            };
            no_atom("arrival", &class.arrival)?;
            no_atom("service", &class.service)?;
            no_atom("quantum", &class.quantum)?;
            if class.switch_overhead.order() == 0 && classes.len() == 1 {
                return Err(ModelError::BadDistribution {
                    class: p,
                    param: "switch_overhead",
                    reason: "a single-class model needs a positive-order overhead so the vacation \
                         period is well defined"
                        .to_string(),
                });
            }
        }
        Ok(GangModel {
            processors,
            classes,
        })
    }

    /// Machine size `P`.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Number of job classes `L`.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Borrow the class parameters.
    pub fn classes(&self) -> &[ClassParams] {
        &self.classes
    }

    /// Borrow one class.
    pub fn class(&self, p: usize) -> &ClassParams {
        &self.classes[p]
    }

    /// Partition count `c_p = P / g(p)` — the maximum number of class-`p`
    /// jobs in service simultaneously.
    pub fn partitions(&self, p: usize) -> usize {
        self.processors / self.classes[p].partition_size
    }

    /// Per-class offered utilization of the whole machine,
    /// `ρ_p = λ_p · g(p) / (μ_p · P)` (paper §5).
    pub fn class_utilization(&self, p: usize) -> f64 {
        let c = &self.classes[p];
        c.arrival_rate() * c.partition_size as f64 / (c.service_rate() * self.processors as f64)
    }

    /// Total offered utilization `ρ = Σ_p ρ_p` (paper §5).
    pub fn total_utilization(&self) -> f64 {
        (0..self.num_classes())
            .map(|p| self.class_utilization(p))
            .sum()
    }

    /// Mean timeplexing-cycle length when every class uses its full quantum:
    /// `E[Z] = Σ_p (E[G_p] + E[C_p])`.
    pub fn full_cycle_mean(&self) -> f64 {
        self.classes
            .iter()
            .map(|c| c.quantum.mean() + c.switch_overhead.mean())
            .sum()
    }

    /// Replace class `p`'s parameters (builder-style helper for sweeps).
    pub fn with_class(mut self, p: usize, params: ClassParams) -> GangModel {
        self.classes[p] = params;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsched_phase::{erlang, exponential};

    fn basic_class(g: usize) -> ClassParams {
        ClassParams {
            partition_size: g,
            arrival: exponential(0.5),
            service: exponential(1.0),
            quantum: erlang(2, 1.0),
            switch_overhead: exponential(100.0),
        }
    }

    #[test]
    fn valid_model() {
        let m = GangModel::new(8, vec![basic_class(8), basic_class(4), basic_class(1)]).unwrap();
        assert_eq!(m.processors(), 8);
        assert_eq!(m.num_classes(), 3);
        assert_eq!(m.partitions(0), 1);
        assert_eq!(m.partitions(1), 2);
        assert_eq!(m.partitions(2), 8);
    }

    #[test]
    fn rejects_zero_processors() {
        assert_eq!(
            GangModel::new(0, vec![basic_class(1)]).unwrap_err(),
            ModelError::NoProcessors
        );
    }

    #[test]
    fn rejects_empty_classes() {
        assert_eq!(
            GangModel::new(4, vec![]).unwrap_err(),
            ModelError::NoClasses
        );
    }

    #[test]
    fn rejects_non_divisor_partition() {
        let err = GangModel::new(8, vec![basic_class(3)]).unwrap_err();
        assert!(matches!(err, ModelError::BadPartition { class: 0, .. }));
        let err = GangModel::new(8, vec![basic_class(16)]).unwrap_err();
        assert!(matches!(err, ModelError::BadPartition { .. }));
    }

    #[test]
    fn rejects_atom_in_service() {
        let mut c = basic_class(1);
        c.service =
            gsched_phase::PhaseType::new(vec![0.5], gsched_linalg::Matrix::from_rows(&[&[-1.0]]))
                .unwrap();
        let err = GangModel::new(4, vec![c]).unwrap_err();
        assert!(matches!(
            err,
            ModelError::BadDistribution {
                param: "service",
                ..
            }
        ));
    }

    #[test]
    fn utilization_formulas() {
        // lambda = 0.5, mu = 1, g = 4, P = 8 -> rho_p = 0.5*4/(1*8) = 0.25.
        let m = GangModel::new(8, vec![basic_class(4), basic_class(4)]).unwrap();
        assert!((m.class_utilization(0) - 0.25).abs() < 1e-12);
        assert!((m.total_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cycle_mean() {
        let m = GangModel::new(8, vec![basic_class(8), basic_class(4)]).unwrap();
        // Each class: quantum mean 1.0, overhead mean 0.01.
        assert!((m.full_cycle_mean() - 2.02).abs() < 1e-12);
    }

    #[test]
    fn arrival_and_service_rates() {
        let c = basic_class(2);
        assert!((c.arrival_rate() - 0.5).abs() < 1e-12);
        assert!((c.service_rate() - 1.0).abs() < 1e-12);
    }
}
