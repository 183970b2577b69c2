//! Scheduler tuning — the model's reason to exist.
//!
//! The paper's abstract: *"Our model and analysis can be used to tune our
//! scheduler in order to maximize its performance on each hardware
//! platform"*, and §6: the model is *"needed to determine the optimal length
//! of the timeplexing cycle and the worst-case length of each time
//! quantum"*. This module provides exactly those operations on top of the
//! fixed-point solver:
//!
//! * [`optimize_common_quantum`] — pick the shared quantum length minimizing
//!   a performance [`Objective`] (the knee of the Figure-2/3 U-curves);
//! * [`stability_threshold_quantum`] — the worst-case (smallest) common
//!   quantum that keeps a given class positive recurrent (the Figure-3
//!   saturation crossover);
//! * [`optimize_cycle_fractions`] — split a fixed quantum budget across
//!   classes (the Figure-5 trade-off) by coordinate descent.

use crate::model::GangModel;
use crate::solver::{solve, GangSolution, SolverOptions};
use crate::Result;

/// What to minimize.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// Total mean number of jobs `Σ_p N_p` (equivalently, by Little's law,
    /// the overall mean response time weighted by arrival rates).
    TotalMeanJobs,
    /// Weighted sum of per-class mean response times `Σ_p w_p T_p`.
    WeightedResponse(Vec<f64>),
    /// The worst per-class mean response time `max_p T_p` (fairness).
    MaxResponse,
}

impl Objective {
    /// Evaluate on a solved model; infinite if any class is unstable.
    pub fn evaluate(&self, solution: &GangSolution) -> f64 {
        if !solution.all_stable {
            return f64::INFINITY;
        }
        match self {
            Objective::TotalMeanJobs => solution.classes.iter().map(|c| c.mean_jobs).sum(),
            Objective::WeightedResponse(w) => {
                assert_eq!(
                    w.len(),
                    solution.classes.len(),
                    "one weight per class required"
                );
                solution
                    .classes
                    .iter()
                    .zip(w.iter())
                    .map(|(c, &wi)| wi * c.mean_response)
                    .sum()
            }
            Objective::MaxResponse => solution
                .classes
                .iter()
                .map(|c| c.mean_response)
                .fold(0.0, f64::max),
        }
    }
}

/// Result of a quantum-length optimization.
#[derive(Debug, Clone)]
pub struct TuningResult {
    /// The optimizing quantum length (common across classes).
    pub quantum: f64,
    /// Objective value at the optimum.
    pub objective_value: f64,
    /// Number of model solves performed.
    pub evaluations: usize,
}

/// Rescale every class's quantum to the common mean `q` (shape preserved).
fn with_common_quantum(model: &GangModel, q: f64) -> GangModel {
    let mut m = model.clone();
    for p in 0..m.num_classes() {
        let mut c = m.class(p).clone();
        c.quantum = c.quantum.with_mean(q);
        m = m.with_class(p, c);
    }
    m
}

/// Evaluate the objective at a common quantum `q`; unstable or failed solves
/// score infinity.
fn eval_common(model: &GangModel, q: f64, objective: &Objective, opts: &SolverOptions) -> f64 {
    match solve(&with_common_quantum(model, q), opts) {
        Ok(sol) => objective.evaluate(&sol),
        Err(_) => f64::INFINITY,
    }
}

/// Find the common quantum length in `[lo, hi]` minimizing `objective`.
///
/// Strategy: a coarse geometric scan (the U-curves of Figures 2–3 are
/// unimodal over the stable region but may have an unstable prefix) followed
/// by golden-section refinement around the best scan point.
///
/// # Panics
/// Panics if `lo <= 0`, `hi <= lo`, or `scan_points < 3`.
pub fn optimize_common_quantum(
    model: &GangModel,
    lo: f64,
    hi: f64,
    scan_points: usize,
    objective: &Objective,
    opts: &SolverOptions,
) -> Result<TuningResult> {
    assert!(lo > 0.0 && hi > lo, "need a positive range");
    assert!(scan_points >= 3, "need at least 3 scan points");
    // Evaluations score failed solves as infinity: check the options here.
    opts.validate()?;
    let mut evals = 0usize;

    // Geometric scan.
    let ratio = (hi / lo).powf(1.0 / (scan_points - 1) as f64);
    let mut best = (lo, f64::INFINITY);
    let mut grid = Vec::with_capacity(scan_points);
    for i in 0..scan_points {
        let q = lo * ratio.powi(i as i32);
        let v = eval_common(model, q, objective, opts);
        evals += 1;
        grid.push((q, v));
        if v < best.1 {
            best = (q, v);
        }
    }
    if !best.1.is_finite() {
        // Nothing stable in range: report the last point (largest quantum,
        // most likely to stabilize) with infinite objective.
        return Ok(TuningResult {
            quantum: hi,
            objective_value: f64::INFINITY,
            evaluations: evals,
        });
    }

    // Golden-section refinement between the neighbours of the best point.
    let idx = grid
        .iter()
        .position(|&(q, _)| q == best.0)
        .expect("best point is on the grid");
    let mut a = if idx == 0 { grid[0].0 } else { grid[idx - 1].0 };
    let mut b = if idx + 1 == grid.len() {
        grid[idx].0
    } else {
        grid[idx + 1].0
    };
    if a == b {
        return Ok(TuningResult {
            quantum: best.0,
            objective_value: best.1,
            evaluations: evals,
        });
    }
    const PHI: f64 = 0.618_033_988_749_894_8;
    let mut c = b - PHI * (b - a);
    let mut d = a + PHI * (b - a);
    let mut fc = eval_common(model, c, objective, opts);
    let mut fd = eval_common(model, d, objective, opts);
    evals += 2;
    for _ in 0..40 {
        if (b - a).abs() < 1e-3 * b.max(1.0) {
            break;
        }
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - PHI * (b - a);
            fc = eval_common(model, c, objective, opts);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + PHI * (b - a);
            fd = eval_common(model, d, objective, opts);
        }
        evals += 1;
    }
    let (q_star, f_star) = if fc < fd { (c, fc) } else { (d, fd) };
    let (q_star, f_star) = if f_star < best.1 {
        (q_star, f_star)
    } else {
        best
    };
    Ok(TuningResult {
        quantum: q_star,
        objective_value: f_star,
        evaluations: evals,
    })
}

/// Worst-case quantum: the smallest common quantum in `[lo, hi]` for which
/// `class` is positive recurrent, found by bisection (a class's share of the
/// cycle grows monotonically with the common quantum, since the overheads'
/// relative cost shrinks and its own quantum scales up).
///
/// Returns `None` if the class is unstable even at `hi`; returns `Some(lo)`
/// if it is already stable at `lo`.
pub fn stability_threshold_quantum(
    model: &GangModel,
    class: usize,
    lo: f64,
    hi: f64,
    opts: &SolverOptions,
) -> Result<Option<f64>> {
    assert!(lo > 0.0 && hi > lo, "need a positive range");
    opts.validate()?;
    let stable_at = |q: f64| -> Result<bool> {
        Ok(solve(&with_common_quantum(model, q), opts)
            .map(|sol| sol.classes[class].stable)
            .unwrap_or(false))
    };
    if !stable_at(hi)? {
        return Ok(None);
    }
    if stable_at(lo)? {
        return Ok(Some(lo));
    }
    let (mut a, mut b) = (lo, hi);
    for _ in 0..30 {
        if (b - a) < 1e-2 * b.max(1.0) {
            break;
        }
        let mid = 0.5 * (a + b);
        if stable_at(mid)? {
            b = mid;
        } else {
            a = mid;
        }
    }
    Ok(Some(b))
}

/// Split a fixed quantum budget across classes to minimize `objective`
/// (the Figure-5 trade-off), by cyclic coordinate descent on the fractions.
///
/// Returns the per-class quantum means (summing to `budget`) and the
/// achieved objective. Each fraction is kept at least `min_fraction`.
pub fn optimize_cycle_fractions(
    model: &GangModel,
    budget: f64,
    min_fraction: f64,
    objective: &Objective,
    opts: &SolverOptions,
    rounds: usize,
) -> Result<(Vec<f64>, f64)> {
    let l = model.num_classes();
    assert!(budget > 0.0, "budget must be positive");
    assert!(
        min_fraction > 0.0 && min_fraction * l as f64 <= 1.0,
        "min_fraction infeasible for {l} classes"
    );
    opts.validate()?;
    let mut fractions = vec![1.0 / l as f64; l];

    let eval = |fractions: &[f64]| -> f64 {
        let mut m = model.clone();
        for (p, &frac) in fractions.iter().enumerate() {
            let mut c = m.class(p).clone();
            c.quantum = c.quantum.with_mean(frac * budget);
            m = m.with_class(p, c);
        }
        match solve(&m, opts) {
            Ok(sol) => objective.evaluate(&sol),
            Err(_) => f64::INFINITY,
        }
    };

    let mut best = eval(&fractions);
    for _ in 0..rounds {
        let mut improved = false;
        for p in 0..l {
            // Try a small set of candidate fractions for class p; others are
            // rescaled proportionally.
            for &cand in &[0.5, 0.75, 1.25, 1.5, 2.0] {
                let mut f2 = fractions.clone();
                let new_fp =
                    (fractions[p] * cand).clamp(min_fraction, 1.0 - min_fraction * (l - 1) as f64);
                let others: f64 = 1.0 - new_fp;
                let old_others: f64 = 1.0 - fractions[p];
                if old_others <= 0.0 {
                    continue;
                }
                for (i, f) in f2.iter_mut().enumerate() {
                    if i == p {
                        *f = new_fp;
                    } else {
                        *f = (*f / old_others * others).max(min_fraction);
                    }
                }
                // Renormalize exactly.
                let s: f64 = f2.iter().sum();
                for f in &mut f2 {
                    *f /= s;
                }
                let v = eval(&f2);
                if v < best * (1.0 - 1e-6) {
                    best = v;
                    fractions = f2;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    let quanta: Vec<f64> = fractions.iter().map(|f| f * budget).collect();
    Ok((quanta, best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ClassParams;
    use gsched_phase::{erlang, exponential};

    fn two_class(lambda0: f64, lambda1: f64, q: f64) -> GangModel {
        let mk = |lambda: f64, g: usize, mu: f64| ClassParams {
            partition_size: g,
            arrival: exponential(lambda),
            service: exponential(mu),
            quantum: erlang(2, 1.0 / q),
            switch_overhead: exponential(50.0),
        };
        GangModel::new(4, vec![mk(lambda0, 4, 1.0), mk(lambda1, 1, 2.0)]).unwrap()
    }

    fn quick_opts() -> SolverOptions {
        SolverOptions {
            fp_tol: 1e-4,
            ..SolverOptions::default()
        }
    }

    #[test]
    fn objective_evaluation() {
        let m = two_class(0.2, 0.5, 1.0);
        let sol = solve(&m, &quick_opts()).unwrap();
        let total = Objective::TotalMeanJobs.evaluate(&sol);
        assert!((total - sol.total_mean_jobs()).abs() < 1e-12);
        let wr = Objective::WeightedResponse(vec![1.0, 0.0]).evaluate(&sol);
        assert!((wr - sol.classes[0].mean_response).abs() < 1e-12);
        let mx = Objective::MaxResponse.evaluate(&sol);
        assert!(mx >= sol.classes[0].mean_response - 1e-12);
        assert!(mx >= sol.classes[1].mean_response - 1e-12);
    }

    #[test]
    fn optimum_beats_extremes() {
        let m = two_class(0.25, 0.6, 1.0);
        let obj = Objective::TotalMeanJobs;
        let opts = quick_opts();
        let res = optimize_common_quantum(&m, 0.02, 20.0, 9, &obj, &opts).unwrap();
        assert!(res.objective_value.is_finite());
        let at_tiny = eval_common(&m, 0.02, &obj, &opts);
        let at_huge = eval_common(&m, 20.0, &obj, &opts);
        assert!(
            res.objective_value <= at_tiny && res.objective_value <= at_huge,
            "opt {} vs tiny {at_tiny}, huge {at_huge}",
            res.objective_value
        );
        assert!(res.evaluations >= 9);
    }

    #[test]
    fn threshold_found_for_greedy_class() {
        // Class 0 wants 60% of the machine; with two equal quanta and
        // overheads it saturates at small quanta and recovers at large ones.
        let m = two_class(0.6, 0.2, 1.0);
        let opts = quick_opts();
        let thr = stability_threshold_quantum(&m, 0, 0.01, 50.0, &opts).unwrap();
        let thr = thr.expect("class 0 must stabilize somewhere in range");
        // Just below the threshold: unstable; at the threshold: stable.
        let below = solve(&with_common_quantum(&m, thr * 0.7), &opts).unwrap();
        let at = solve(&with_common_quantum(&m, thr), &opts).unwrap();
        assert!(!below.classes[0].stable, "below threshold should saturate");
        assert!(at.classes[0].stable, "at threshold should be stable");
    }

    #[test]
    fn threshold_none_when_hopeless() {
        // Class 0 offered load > total capacity: no quantum helps.
        let m = two_class(1.5, 0.2, 1.0);
        let thr = stability_threshold_quantum(&m, 0, 0.01, 50.0, &quick_opts()).unwrap();
        assert!(thr.is_none());
    }

    #[test]
    fn threshold_lo_when_always_stable() {
        let m = two_class(0.1, 0.1, 1.0);
        let thr = stability_threshold_quantum(&m, 0, 0.5, 10.0, &quick_opts()).unwrap();
        assert_eq!(thr, Some(0.5));
    }

    #[test]
    fn fraction_optimization_favors_loaded_class() {
        // Class 0 carries most of the load: it should get more than half of
        // the budget when minimizing its (weighted) response.
        let m = two_class(0.4, 0.1, 1.0);
        let (quanta, val) =
            optimize_cycle_fractions(&m, 2.0, 0.05, &Objective::TotalMeanJobs, &quick_opts(), 3)
                .unwrap();
        assert!(val.is_finite());
        assert!((quanta.iter().sum::<f64>() - 2.0).abs() < 1e-9);
        assert!(
            quanta[0] >= quanta[1],
            "loaded class should get at least as much: {quanta:?}"
        );
    }

    #[test]
    #[should_panic(expected = "positive range")]
    fn bad_range_rejected() {
        let m = two_class(0.2, 0.2, 1.0);
        let _ = optimize_common_quantum(&m, 1.0, 0.5, 5, &Objective::TotalMeanJobs, &quick_opts());
    }
}
