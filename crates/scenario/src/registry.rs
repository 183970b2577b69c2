//! The named scenario registry: every canonical experiment of the paper's
//! §5–§6 plus stress scenarios, as ready-made [`Scenario`] values.
//!
//! The paper's machine (shared by `fig2`–`fig5`, `sp2`, `ablation`, and the
//! `near_instability` stress point):
//!
//! * `P = 8` processors, `L = 4` classes;
//! * class `p` has `2^{3−p}` partitions, i.e. `g = [8, 4, 2, 1]`;
//! * service-rate ratios `μ₀:μ₁:μ₂:μ₃ = 0.5 : 1 : 2 : 4`, normalized so
//!   that with equal per-class arrival rates `λ_p = λ` the total offered
//!   utilization `ρ = Σ_p λ_p g(p)/(μ_p P)` equals `λ` — that is,
//!   `Σ_p g(p)/μ_p = P`, giving the base rates `μ_p = r_p · 21.25/8`;
//! * context-switch overhead mean `0.01`;
//! * Poisson arrivals, exponential service, Erlang quantum (default 2
//!   stages).
//!
//! The stress entries leave the paper's parameter space on purpose:
//! heavier traffic (`heavy_traffic`), more classes on a bigger machine
//! (`high_class_count`), a skewed partition mix (`skewed_partitions`), and
//! a small-quantum drift point close to the Theorem 4.4 stability edge
//! (`near_instability`).

use crate::dist::DistSpec;
use crate::model_spec::{ClassSpec, ModelSpec};
use crate::scenario::{AxisSpec, Scenario, SimSpec};
use gsched_sim::Policy;

/// The paper's service-rate *ratios* `0.5 : 1 : 2 : 4`.
pub const SERVICE_RATIOS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

/// Partition sizes `g(p) = 2^{3−p}` for the 8-processor machine.
pub const PARTITION_SIZES: [usize; 4] = [8, 4, 2, 1];

/// Machine size used throughout §5.
pub const PROCESSORS: usize = 8;

/// Context-switch overhead mean used throughout §5.
pub const OVERHEAD_MEAN: f64 = 0.01;

/// Base service rates normalized so `Σ_p g(p)/μ_p = P`, which makes the
/// total utilization equal the common per-class arrival rate.
pub fn paper_service_rates() -> [f64; 4] {
    // Σ g_p / (r_p s) = P  =>  s = (Σ g_p/r_p) / P = 21.25 / 8.
    let s: f64 = PARTITION_SIZES
        .iter()
        .zip(SERVICE_RATIOS.iter())
        .map(|(&g, &r)| g as f64 / r)
        .sum::<f64>()
        / PROCESSORS as f64;
    let mut out = [0.0; 4];
    for (o, &r) in out.iter_mut().zip(SERVICE_RATIOS.iter()) {
        *o = r * s;
    }
    out
}

/// The paper's machine as a serializable [`ModelSpec`]: common arrival rate
/// `lambda`, given per-class service rates and quantum means, Erlang
/// quantum with `quantum_stages` stages.
pub fn paper_machine_custom(
    lambda: f64,
    service_rates: &[f64; 4],
    quantum_means: &[f64; 4],
    quantum_stages: usize,
) -> ModelSpec {
    ModelSpec {
        processors: PROCESSORS,
        classes: (0..4)
            .map(|p| ClassSpec {
                partition_size: PARTITION_SIZES[p],
                arrival: DistSpec::Exponential { rate: lambda },
                service: DistSpec::Exponential {
                    rate: service_rates[p],
                },
                quantum: DistSpec::Erlang {
                    stages: quantum_stages,
                    rate: 1.0 / quantum_means[p],
                },
                switch_overhead: DistSpec::Exponential {
                    rate: 1.0 / OVERHEAD_MEAN,
                },
            })
            .collect(),
    }
}

/// The paper's machine with normalized service rates and a common quantum
/// mean.
pub fn paper_machine(lambda: f64, quantum_mean: f64, quantum_stages: usize) -> ModelSpec {
    paper_machine_custom(
        lambda,
        &paper_service_rates(),
        &[quantum_mean; 4],
        quantum_stages,
    )
}

/// The default x-grid for Figures 2–3 (0.02 … 6).
pub fn default_quantum_grid() -> Vec<f64> {
    let mut g = vec![0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75];
    for i in 2..=12 {
        g.push(i as f64 * 0.5);
    }
    g
}

/// The reduced quantum grid used by `--quick` sweeps.
pub fn quick_quantum_grid() -> Vec<f64> {
    vec![0.5, 1.0, 2.0, 3.0, 4.0]
}

/// The default x-grid for Figure 4 (2 … 20).
pub fn default_service_rate_grid() -> Vec<f64> {
    (1..=10).map(|i| 2.0 * i as f64).collect()
}

/// The default fraction grid for Figure 5 (0.1 … 0.9).
pub fn default_fraction_grid() -> Vec<f64> {
    (1..=9).map(|i| i as f64 / 10.0).collect()
}

/// A quantum-mean sweep over the paper's machine (the Figure 2–3 family).
/// The base machine carries quantum mean 1; the axis moves it.
pub fn quantum_scenario(
    name: &str,
    lambda: f64,
    quantum_stages: usize,
    grid: Vec<f64>,
    quick_grid: Option<Vec<f64>>,
) -> Scenario {
    let mut b = Scenario::builder(name, paper_machine(lambda, 1.0, quantum_stages))
        .sweep(AxisSpec::QuantumMean, grid)
        .param("lambda", lambda)
        .param("quantum_stages", quantum_stages as f64);
    if let Some(q) = quick_grid {
        b = b.quick_grid(q);
    }
    b.build().expect("quantum scenario parameters are valid")
}

/// A common-service-rate sweep over the paper's machine at `λ = 0.6`,
/// quantum mean 5 (the Figure 4 family).
pub fn service_rate_scenario(
    name: &str,
    quantum_stages: usize,
    grid: Vec<f64>,
    quick_grid: Option<Vec<f64>>,
) -> Scenario {
    let mut b = Scenario::builder(name, paper_machine(0.6, 5.0, quantum_stages))
        .sweep(AxisSpec::ServiceRate, grid)
        .param("lambda", 0.6)
        .param("quantum_mean", 5.0)
        .param("quantum_stages", quantum_stages as f64);
    if let Some(q) = quick_grid {
        b = b.quick_grid(q);
    }
    b.build()
        .expect("service-rate scenario parameters are valid")
}

/// A cycle-fraction sweep over the paper's machine at `λ = 0.6` (the
/// Figure 5 family): the focal class's share of the quantum budget moves.
pub fn cycle_fraction_scenario(
    name: &str,
    class: usize,
    budget: f64,
    quantum_stages: usize,
    grid: Vec<f64>,
    quick_grid: Option<Vec<f64>>,
) -> Scenario {
    let mut b = Scenario::builder(name, paper_machine(0.6, 1.0, quantum_stages))
        .sweep(AxisSpec::CycleFraction { class, budget }, grid)
        .param("lambda", 0.6)
        .param("class", class as f64)
        .param("budget", budget)
        .param("quantum_stages", quantum_stages as f64);
    if let Some(q) = quick_grid {
        b = b.quick_grid(q);
    }
    b.build()
        .expect("cycle-fraction scenario parameters are valid")
}

fn with_description(mut sc: Scenario, d: &str) -> Scenario {
    sc.description = d.to_string();
    sc
}

fn fig2() -> Scenario {
    with_description(
        quantum_scenario(
            "fig2",
            0.4,
            2,
            default_quantum_grid(),
            Some(quick_quantum_grid()),
        ),
        "Figure 2 (§5): mean jobs vs mean quantum length at ρ = 0.4",
    )
}

fn fig3() -> Scenario {
    let mut sc = quantum_scenario(
        "fig3",
        0.6,
        2,
        default_quantum_grid(),
        Some(quick_quantum_grid()),
    );
    sc.tolerance.rel = 0.4;
    with_description(
        sc,
        "Figure 3 (§5): mean jobs vs mean quantum length at ρ = 0.6",
    )
}

fn fig3_heavy() -> Scenario {
    let mut sc = quantum_scenario(
        "fig3_heavy",
        0.9,
        2,
        default_quantum_grid(),
        Some(vec![4.0, 5.0, 6.0]),
    );
    // At ρ = 0.9 the machine-wide class is unstable below quantum mean ≈ 4
    // (the saturation crossover the figure is about), so the base machine
    // and the quick grid sit on the stable side; the full grid keeps the
    // unstable small-quantum points, which sweeps report as per-point
    // failures.
    sc.machine = paper_machine(0.9, 5.0, 2);
    sc.tolerance.rel = 0.6;
    sc = with_description(
        sc,
        "Figure 3's heavy-traffic companion (§5): quantum sweep at ρ = 0.9, \
         small quanta saturate the wide classes",
    );
    sc.validate().expect("fig3_heavy parameters are valid");
    sc
}

fn fig4() -> Scenario {
    with_description(
        service_rate_scenario(
            "fig4",
            2,
            default_service_rate_grid(),
            Some(vec![4.0, 10.0]),
        ),
        "Figure 4 (§5): mean jobs vs common service rate, quantum mean 5, λ = 0.6",
    )
}

fn fig5() -> Scenario {
    let mut sc = cycle_fraction_scenario(
        "fig5",
        0,
        4.0,
        2,
        default_fraction_grid(),
        Some(vec![0.25, 0.5, 0.75]),
    );
    sc.tolerance.rel = 0.45;
    with_description(
        sc,
        "Figure 5 (§5): mean jobs vs class 0's share of a quantum budget of 4, λ = 0.6",
    )
}

fn sp2() -> Scenario {
    let mut b = Scenario::builder("sp2", paper_machine(0.6, 1.0, 2))
        .description(
            "SP2 implementation variant (§6): idle partitions lent to later \
             classes; analysis models the strict system-wide policy, so the \
             agreement tolerance is wider",
        )
        .policy(Policy::Lend)
        .sweep(AxisSpec::QuantumMean, vec![0.5, 1.0, 2.0, 4.0])
        .sim(SimSpec {
            horizon: 150_000.0,
            warmup: 15_000.0,
            seed: 0xABCD,
            batches: 15,
        })
        .tolerance(0.5, 3.0)
        .param("lambda", 0.6)
        .param("quantum_stages", 2.0);
    b = b.quick_grid(vec![1.0, 2.0]);
    b.build().expect("sp2 parameters are valid")
}

fn ablation() -> Scenario {
    Scenario::builder("ablation", paper_machine(0.5, 1.0, 2))
        .description(
            "Ablation base point (§4–§5): the paper machine at λ = 0.5, \
             quantum mean 1 — the reference configuration for vacation-mode \
             and stage-count ablations",
        )
        .param("lambda", 0.5)
        .param("quantum_stages", 2.0)
        .build()
        .expect("ablation parameters are valid")
}

fn heavy_traffic() -> Scenario {
    Scenario::builder("heavy_traffic", paper_machine(0.8, 1.0, 2))
        .description(
            "Stress: offered-load sweep to ρ = 0.8 on the paper machine, \
             quantum mean 1 — heavy-traffic regime where the vacation \
             independence approximation is weakest",
        )
        .sweep(AxisSpec::ArrivalRate, vec![0.5, 0.6, 0.7, 0.8])
        .quick_grid(vec![0.6, 0.8])
        // The vacation-independence approximation degrades sharply as the
        // machine-wide class approaches saturation; at ρ = 0.8 the analysis
        // runs ~60% optimistic on that class (the point of this scenario).
        .tolerance(0.75, 3.0)
        .param("quantum_mean", 1.0)
        .param("quantum_stages", 2.0)
        .build()
        .expect("heavy_traffic parameters are valid")
}

fn high_class_count() -> Scenario {
    // A 16-processor machine with L = 5 classes, partition sizes
    // g = [16, 8, 4, 2, 1] and service ratios 0.5:1:2:4:8 normalized the
    // same way as the paper machine (Σ g/μ = P so ρ = λ).
    let partitions = [16usize, 8, 4, 2, 1];
    let ratios = [0.5, 1.0, 2.0, 4.0, 8.0];
    let processors = 16usize;
    let s: f64 = partitions
        .iter()
        .zip(ratios.iter())
        .map(|(&g, &r)| g as f64 / r)
        .sum::<f64>()
        / processors as f64;
    let lambda = 0.3;
    let machine = ModelSpec {
        processors,
        classes: partitions
            .iter()
            .zip(ratios.iter())
            .map(|(&g, &r)| ClassSpec {
                partition_size: g,
                arrival: DistSpec::Exponential { rate: lambda },
                service: DistSpec::Exponential { rate: r * s },
                quantum: DistSpec::Erlang {
                    stages: 2,
                    rate: 1.0,
                },
                switch_overhead: DistSpec::Exponential {
                    rate: 1.0 / OVERHEAD_MEAN,
                },
            })
            .collect(),
    };
    Scenario::builder("high_class_count", machine)
        .description(
            "Stress: L = 5 classes on a 16-processor machine (g = 16…1, \
             ratios 0.5:1:2:4:8 normalized so ρ = λ = 0.3), quantum mean 1",
        )
        .sim(SimSpec {
            horizon: 120_000.0,
            warmup: 12_000.0,
            ..SimSpec::default()
        })
        .param("lambda", lambda)
        .param("quantum_stages", 2.0)
        .build()
        .expect("high_class_count parameters are valid")
}

fn skewed_partitions() -> Scenario {
    // One machine-wide class plus two single-processor classes, with the
    // cycle budget skewed 4:1 toward the wide class. ρ = 0.25 + 2·0.075.
    let class = |g: usize, lambda: f64, mu: f64, quantum_mean: f64| ClassSpec {
        partition_size: g,
        arrival: DistSpec::Exponential { rate: lambda },
        service: DistSpec::Exponential { rate: mu },
        quantum: DistSpec::Erlang {
            stages: 2,
            rate: 1.0 / quantum_mean,
        },
        switch_overhead: DistSpec::Exponential {
            rate: 1.0 / OVERHEAD_MEAN,
        },
    };
    let machine = ModelSpec {
        processors: 8,
        classes: vec![
            class(8, 0.25, 1.0, 2.0),
            class(1, 1.2, 2.0, 0.5),
            class(1, 1.2, 2.0, 0.5),
        ],
    };
    Scenario::builder("skewed_partitions", machine)
        .description(
            "Stress: skewed partition mix — one machine-wide class against \
             two single-processor classes with unequal arrival rates and a \
             4:1 quantum skew",
        )
        .param("rho", 0.4)
        .build()
        .expect("skewed_partitions parameters are valid")
}

fn near_instability() -> Scenario {
    // Quantum mean 0.09 at λ = 0.6: each 0.09 quantum pays a 0.01 switch
    // overhead, eroding the machine-wide class's capacity to a drift margin
    // of a few percent (`gsched validate` reports it as near-unstable).
    Scenario::builder("near_instability", paper_machine(0.6, 0.09, 2))
        .description(
            "Stress: the paper machine at λ = 0.6 with quantum mean 0.09 — \
             switch overhead erodes the wide classes' capacity and pushes \
             class 0 within a few percent of the Theorem 4.4 drift boundary",
        )
        .sim(SimSpec {
            horizon: 400_000.0,
            warmup: 40_000.0,
            ..SimSpec::default()
        })
        .tolerance(0.6, 4.0)
        .param("lambda", 0.6)
        .param("quantum_mean", 0.09)
        .param("quantum_stages", 2.0)
        .build()
        .expect("near_instability parameters are valid")
}

/// The default processor grid for `p_sweep` (powers of two, 8 … 4096).
pub fn default_processor_grid() -> Vec<f64> {
    (3..=12).map(|k| (1usize << k) as f64).collect()
}

/// The reduced processor grid used by `--quick` scaling sweeps. It still
/// spans the full 8 → 4096 range — quick trims density, not reach.
pub fn quick_processor_grid() -> Vec<f64> {
    vec![8.0, 64.0, 512.0, 4096.0]
}

fn p_sweep() -> Scenario {
    // Two classes — one 4-wide, one single-processor — each offered a fixed
    // utilization ρ_p = 0.10 while P scales 8 → 4096 (arrival rates scale
    // ∝ P along the axis; the base machine below is the P = 8 anchor).
    // Exponential arrival/service keep m_b = 1 so the frozen-capacity level
    // truncation applies below c_p. The certification level for a tail
    // target ε sits near ρ_p·(T∞ + ln(1/ε)/r_min)·c_p levels, where r_min
    // is the slowest phase exit rate of the class's off-cycle: a heavy
    // (exponential) overhead tail drags r_min down and pushes that level
    // past c_p, so both quantum and overhead are Erlang-4 — light-tailed
    // cycles keep the certified cut near 0.7·c_p and the zero-queueing
    // limit governs the large-P end. See docs/LARGE_P.md.
    let rho = 0.10;
    let class = |g: usize| ClassSpec {
        partition_size: g,
        // λ_p = ρ·μ·P/g at the P = 8 base point.
        arrival: DistSpec::Exponential {
            rate: rho * 8.0 / g as f64,
        },
        service: DistSpec::Exponential { rate: 1.0 },
        quantum: DistSpec::Erlang {
            stages: 4,
            rate: 4.0,
        },
        switch_overhead: DistSpec::Erlang {
            stages: 4,
            rate: 4.0 / OVERHEAD_MEAN,
        },
    };
    let machine = ModelSpec {
        processors: 8,
        classes: vec![class(4), class(1)],
    };
    Scenario::builder("p_sweep", machine)
        .description(
            "Scaling: machine size P = 8 → 4096 at fixed per-class \
             utilization 0.10 — certified level truncation engages at large \
             c_p and the largest point is cross-checked against the \
             zero-queueing asymptotic limit",
        )
        .sweep(AxisSpec::Processors, default_processor_grid())
        .quick_grid(quick_processor_grid())
        // Short horizon: the event rate scales with P, so simulated time is
        // traded for arrival volume at the large end of the grid.
        .sim(SimSpec {
            horizon: 400.0,
            warmup: 40.0,
            seed: 0x5CA1E,
            batches: 8,
        })
        .certified_tail(1e-8)
        .asymptotic_rel(0.05)
        .param("rho_per_class", rho)
        .param("quantum_mean", 1.0)
        .build()
        .expect("p_sweep parameters are valid")
}

/// The paper's figure sweeps (Figures 2–5), in paper order. Each name is
/// also the registry scenario behind the figure.
pub const FIGURES: [&str; 4] = ["fig2", "fig3", "fig4", "fig5"];

/// All registry scenario names, in catalog order.
pub const NAMES: [&str; 12] = [
    "fig2",
    "fig3",
    "fig3_heavy",
    "fig4",
    "fig5",
    "sp2",
    "ablation",
    "heavy_traffic",
    "high_class_count",
    "skewed_partitions",
    "near_instability",
    "p_sweep",
];

/// Look up a registry scenario by name.
pub fn lookup(name: &str) -> Option<Scenario> {
    match name.to_ascii_lowercase().as_str() {
        "fig2" => Some(fig2()),
        "fig3" => Some(fig3()),
        "fig3_heavy" => Some(fig3_heavy()),
        "fig4" => Some(fig4()),
        "fig5" => Some(fig5()),
        "sp2" => Some(sp2()),
        "ablation" => Some(ablation()),
        "heavy_traffic" => Some(heavy_traffic()),
        "high_class_count" => Some(high_class_count()),
        "skewed_partitions" => Some(skewed_partitions()),
        "near_instability" => Some(near_instability()),
        "p_sweep" => Some(p_sweep()),
        _ => None,
    }
}

/// Every registry scenario, in catalog order.
pub fn all() -> Vec<Scenario> {
    NAMES
        .iter()
        .map(|n| lookup(n).expect("NAMES entries all resolve"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsched_core::model::GangModel;
    use gsched_engine::SweepAxis;

    #[test]
    fn every_name_resolves_and_validates() {
        for name in NAMES {
            let sc = lookup(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(sc.name, name);
            assert!(!sc.description.is_empty(), "{name} needs a description");
            sc.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            sc.build_model().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert_eq!(lookup("no_such_scenario"), None);
        assert_eq!(all().len(), NAMES.len());
    }

    #[test]
    fn registry_scenarios_roundtrip_through_json() {
        for sc in all() {
            let text = sc.to_json();
            let again =
                Scenario::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", sc.name));
            assert_eq!(sc, again, "{}", sc.name);
        }
    }

    #[test]
    fn out_of_range_integers_fail_naming_the_written_value() {
        let text = include_str!("../examples/scenarios/two_class.json");
        assert!(Scenario::from_json(text).is_ok());
        for written in ["-4", "1e300"] {
            let bad = text.replacen(
                "\"partition_size\": 4",
                &format!("\"partition_size\": {written}"),
                1,
            );
            let err = Scenario::from_json(&bad).unwrap_err().to_string();
            assert!(
                err.contains(&format!(
                    "field `partition_size`: integer {written} out of range"
                )),
                "{err}"
            );
        }
    }

    #[test]
    fn figure_scenarios_match_paper_machine() {
        let sc = fig2();
        let m = sc.build_model().unwrap();
        assert_eq!(m.num_classes(), 4);
        assert!((m.total_utilization() - 0.4).abs() < 1e-12);
        let mus = paper_service_rates();
        for (p, mu) in mus.iter().enumerate() {
            assert!((m.class(p).service_rate() - mu).abs() < 1e-12);
        }
    }

    fn paper_model(lambda: f64) -> GangModel {
        paper_machine(lambda, 1.0, 2).build().unwrap()
    }

    #[test]
    fn normalization_makes_rho_equal_lambda() {
        for &lambda in &[0.2, 0.4, 0.6, 0.9] {
            let m = paper_model(lambda);
            assert!(
                (m.total_utilization() - lambda).abs() < 1e-12,
                "lambda={lambda}: rho={}",
                m.total_utilization()
            );
        }
    }

    #[test]
    fn service_rates_keep_ratios() {
        let mus = paper_service_rates();
        assert!((mus[1] / mus[0] - 2.0).abs() < 1e-12);
        assert!((mus[2] / mus[1] - 2.0).abs() < 1e-12);
        assert!((mus[3] / mus[2] - 2.0).abs() < 1e-12);
        // s = 21.25/8 = 2.65625; mu_0 = 0.5 s.
        assert!((mus[0] - 1.328125).abs() < 1e-12);
    }

    #[test]
    fn partitions_are_powers_of_two() {
        let m = paper_model(0.4);
        for p in 0..4 {
            assert_eq!(m.partitions(p), 1 << p, "class {p}");
        }
    }

    #[test]
    fn class_utilizations_decrease_with_index() {
        // With equal lambda, class 0 has by far the highest offered load.
        let m = paper_model(0.4);
        for p in 0..3 {
            assert!(m.class_utilization(p) > m.class_utilization(p + 1));
        }
    }

    #[test]
    fn custom_builder_round_trips() {
        let mus = paper_service_rates();
        let m = paper_machine_custom(0.6, &mus, &[1.0, 2.0, 3.0, 4.0], 3)
            .build()
            .unwrap();
        assert_eq!(m.num_classes(), 4);
        assert!((m.class(2).quantum.mean() - 3.0).abs() < 1e-9);
        assert!((m.class(0).switch_overhead.mean() - OVERHEAD_MEAN).abs() < 1e-12);
    }

    #[test]
    fn figure_names_are_registry_sweeps() {
        for name in FIGURES {
            let sc = lookup(name).unwrap_or_else(|| panic!("{name} missing"));
            let quick = sc.sweep_request(true).unwrap();
            let full = sc.sweep_request(false).unwrap();
            assert!(quick.len() >= 2, "{name}");
            assert!(full.len() > quick.len(), "{name}");
        }
    }

    #[test]
    fn quantum_request_sets_quantum() {
        let req = quantum_scenario("q", 0.4, 2, vec![0.5, 1.0, 2.0], None)
            .sweep_request(false)
            .unwrap();
        assert_eq!(req.len(), 3);
        assert_eq!(req.axis, SweepAxis::QuantumMean);
        assert!(req
            .base
            .params
            .iter()
            .any(|(k, v)| k == "lambda" && *v == 0.4));
        for pt in &req.points {
            for p in 0..4 {
                assert!((pt.model.class(p).quantum.mean() - pt.x).abs() < 1e-9);
            }
            assert!((pt.model.total_utilization() - 0.4).abs() < 1e-12);
        }
    }

    #[test]
    fn service_request_sets_common_mu() {
        let req = service_rate_scenario("s", 2, vec![2.0, 10.0], None)
            .sweep_request(false)
            .unwrap();
        assert_eq!(req.axis, SweepAxis::ServiceRate);
        for pt in &req.points {
            for p in 0..4 {
                assert!((pt.model.class(p).service_rate() - pt.x).abs() < 1e-9);
                assert!((pt.model.class(p).quantum.mean() - 5.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn fraction_request_budget_conserved() {
        let budget = 4.0;
        let req = cycle_fraction_scenario("f", 1, budget, 2, vec![0.25, 0.5, 0.75], None)
            .sweep_request(false)
            .unwrap();
        assert_eq!(req.axis, SweepAxis::CycleFraction { class: 1 });
        for pt in &req.points {
            let total: f64 = (0..4).map(|p| pt.model.class(p).quantum.mean()).sum();
            assert!((total - budget).abs() < 1e-9, "total {total}");
            assert!((pt.model.class(1).quantum.mean() - pt.x * budget).abs() < 1e-9);
        }
    }

    #[test]
    fn default_grids_are_monotone() {
        for grid in [
            default_quantum_grid(),
            default_service_rate_grid(),
            default_fraction_grid(),
        ] {
            for w in grid.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn sweep_scenarios_materialize_every_grid_point() {
        for sc in all() {
            if sc.sweep.is_none() {
                continue;
            }
            for quick in [false, true] {
                let req = sc.sweep_request(quick).unwrap();
                assert_eq!(req.base.label, sc.name);
                assert_eq!(req.len(), sc.grid(quick).len());
                for w in req.points.windows(2) {
                    assert!(w[0].x < w[1].x, "{}: grid ordered", sc.name);
                }
            }
        }
    }

    #[test]
    fn quantum_scenario_tracks_the_axis() {
        let sc = fig2();
        for &q in &[0.02, 0.5, 3.0] {
            let m = sc.model_at(q).unwrap();
            for p in 0..4 {
                assert!((m.class(p).quantum.mean() - q).abs() < 1e-9, "q={q}");
            }
            assert!((m.total_utilization() - 0.4).abs() < 1e-12);
        }
    }

    #[test]
    fn p_sweep_holds_utilization_fixed_while_p_grows() {
        let sc = lookup("p_sweep").unwrap();
        assert_eq!(sc.grid(false).first(), Some(&8.0));
        assert_eq!(sc.grid(false).last(), Some(&4096.0));
        // Quick trims density, not reach: it still spans 8 → 4096.
        assert_eq!(sc.grid(true).first(), Some(&8.0));
        assert_eq!(sc.grid(true).last(), Some(&4096.0));
        assert_eq!(sc.tolerance.certified_tail, Some(1e-8));
        assert!(sc.tolerance.asymptotic_rel.is_some());
        for &x in sc.grid(false) {
            let m = sc.model_at(x).unwrap();
            assert_eq!(m.processors(), x as usize);
            for p in 0..m.num_classes() {
                assert!(
                    (m.class_utilization(p) - 0.10).abs() < 1e-9,
                    "P = {x}, class {p}: utilization {}",
                    m.class_utilization(p)
                );
            }
        }
    }

    #[test]
    fn only_the_processors_axis_changes_the_solver() {
        use gsched_core::qbd::LevelTruncation;
        let base = gsched_core::SolverOptions {
            parallel_classes: true,
            ..Default::default()
        };
        let mut want = base.clone();
        want.qbd.truncation = LevelTruncation::Auto {
            target_tail: 1e-8,
            min_levels: 4,
        };
        assert_eq!(lookup("p_sweep").unwrap().solver_options(&base), want);
        assert_eq!(lookup("fig2").unwrap().solver_options(&base), base);
    }

    #[test]
    fn ablation_has_no_sweep() {
        let sc = ablation();
        assert!(sc.sweep.is_none());
        assert!(sc.sweep_request(false).is_err());
        assert!(sc.model_at(1.0).is_err());
        assert_eq!(sc.grid(false), &[] as &[f64]);
    }
}
