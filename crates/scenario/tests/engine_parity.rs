//! Determinism and warm-start accuracy of the engine pool on the paper's
//! figure grids (the `--quick` variants, to keep debug-mode runs cheap).
//!
//! * Parallel sweeps must be bitwise identical to sequential ones: the
//!   chunk layout — and therefore every warm-start chain — depends only on
//!   the point count, never on the worker count.
//! * Warm-started solves must land on the cold-start fixed point: warm
//!   starting changes the iteration path, not the answer, so the results
//!   may differ only within the solver's fixed-point tolerance.

use gsched_core::{solve, SolverOptions};
use gsched_engine::{run_sweep, SweepOptions, SweepReport, SweepRequest};
use gsched_scenario::registry;

fn quick_request(name: &str) -> SweepRequest {
    registry::lookup(name)
        .expect("figure scenarios are registered")
        .sweep_request(true)
        .expect("figure grids are valid")
}

fn response_bits(report: &SweepReport, classes: usize) -> Vec<Vec<u64>> {
    report
        .points
        .iter()
        .map(|p| {
            p.mean_responses(classes)
                .into_iter()
                .map(f64::to_bits)
                .collect()
        })
        .collect()
}

#[test]
fn parallel_sweeps_match_sequential_bitwise() {
    for fig in registry::FIGURES {
        let req = quick_request(fig);
        let classes = req.points[0].model.num_classes();
        let seq = run_sweep(&req, &SweepOptions::default().with_jobs(1));
        let par = run_sweep(&req, &SweepOptions::default().with_jobs(3));
        assert_eq!(seq.failures(), 0, "{fig} sequential");
        assert_eq!(par.failures(), 0, "{fig} parallel");
        assert_eq!(
            response_bits(&seq, classes),
            response_bits(&par, classes),
            "{}: parallel sweep diverged from sequential",
            fig
        );
        assert_eq!(seq.stats.warm_hits, par.stats.warm_hits, "{fig}");
    }
}

#[test]
fn warm_starts_converge_to_cold_answers() {
    // Fig2 exercises the quantum axis (the warmest chains), Fig4 the
    // service-rate axis; together they cover both sweep shapes cheaply.
    // The cold reference is a per-point `solve`.
    for fig in ["fig2", "fig4"] {
        let req = quick_request(fig);
        let classes = req.points[0].model.num_classes();
        let warm = run_sweep(&req, &SweepOptions::default().with_jobs(1));
        // Fig4's quick grid is 2 points (1 cold + 1 warm = exactly 50%);
        // longer grids exceed it.
        let min_rate = if req.len() > 2 { 0.5 } else { 0.49 };
        assert!(
            warm.stats.warm_hit_rate() >= min_rate,
            "{}: hit rate {}",
            fig,
            warm.stats.warm_hit_rate()
        );
        for (pt, w) in req.points.iter().zip(warm.points.iter()) {
            let cold = solve(&pt.model, &SolverOptions::default())
                .unwrap_or_else(|e| panic!("{fig} x={}: {e}", pt.x));
            for (rw, c) in w.mean_responses(classes).iter().zip(cold.classes.iter()) {
                let rc = c.mean_response;
                let rel = (rw - rc).abs() / rc.abs().max(1e-12);
                assert!(
                    rel < 1e-3,
                    "{} x={}: warm {rw} vs cold {rc} (rel {rel:.3e})",
                    fig,
                    w.x
                );
            }
        }
    }
}
