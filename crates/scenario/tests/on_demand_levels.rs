//! A class chain's boundary levels, assembled on demand while a solve reads
//! them, are the levels an eager build makes: every block and every solve
//! (full, fixed cut and certified search) agree bit for bit with a process
//! whose levels were all assembled up front, on the `p_sweep` machine sizes
//! and the figure scenarios' base models.

use gsched_core::generator::{build_class_chain, ClassChain};
use gsched_core::qbd::{LevelTruncation, QbdError, QbdProcess, QbdSolution, SolveOptions};
use gsched_core::vacation::compose_vacation;
use gsched_core::GangModel;
use gsched_scenario::registry;

/// The class chains of the fixed point's first pass (parameter quanta).
fn first_pass_chains(model: &GangModel) -> Vec<ClassChain> {
    let quanta: Vec<_> = (0..model.num_classes())
        .map(|p| model.class(p).quantum.clone())
        .collect();
    (0..model.num_classes())
        .map(|p| build_class_chain(model, p, &compose_vacation(model, p, &quanta)).unwrap())
        .collect()
}

/// An independent build of `chain` with every level assembled up front,
/// as an eager [`QbdProcess::new`].
fn eager_copy(model: &GangModel, chain: &ClassChain) -> QbdProcess {
    let q = build_class_chain(model, chain.class, &chain.vacation)
        .unwrap()
        .qbd;
    let c = q.c();
    q.build_levels(c).unwrap();
    QbdProcess::new(
        (0..c).map(|i| q.up(i).clone()).collect(),
        (0..=c).map(|i| q.local(i).clone()).collect(),
        (1..=c).map(|i| q.down(i).clone()).collect(),
        q.a0.clone(),
        q.a1.clone(),
        q.a2.clone(),
    )
    .unwrap()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn same_solution(got: &Result<QbdSolution, QbdError>, want: &Result<QbdSolution, QbdError>) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.truncation(), w.truncation());
            assert_eq!(bits(g.r().as_slice()), bits(w.r().as_slice()));
            assert_eq!(g.boundary().len(), w.boundary().len());
            for (i, (a, b)) in g.boundary().iter().zip(w.boundary()).enumerate() {
                assert_eq!(bits(a), bits(b), "pi_{i}");
            }
        }
        (Err(g), Err(w)) => assert_eq!(g, w),
        _ => panic!("on demand {got:?} vs eager {want:?}"),
    }
}

/// Solve each first-pass chain of `model` on demand and eagerly under the
/// full solve, the certified search and a fixed cut at the search's level,
/// then compare every block. Returns the class chains that truncated.
fn check(what: &str, model: &GangModel) -> usize {
    let auto = LevelTruncation::Auto {
        target_tail: 1e-8,
        min_levels: 4,
    };
    let mut truncated = 0;
    for chain in first_pass_chains(model) {
        let eager = eager_copy(model, &chain);
        let solve = |q: &QbdProcess, truncation| {
            q.solve(&SolveOptions {
                truncation,
                ..SolveOptions::default()
            })
        };
        // Each policy on a fresh chain, so each builds from nothing.
        let fresh = || {
            build_class_chain(model, chain.class, &chain.vacation)
                .unwrap()
                .qbd
        };
        let want = solve(&eager, auto);
        same_solution(&solve(&fresh(), auto), &want);
        let cut = want.as_ref().ok().and_then(QbdSolution::truncation);
        if let Some(cert) = cut {
            truncated += 1;
            let fixed = LevelTruncation::Fixed { level: cert.level };
            same_solution(&solve(&fresh(), fixed), &solve(&eager, fixed));
        }
        // One chain through all three, then every block.
        let q = &chain.qbd;
        same_solution(&solve(q, auto), &want);
        same_solution(
            &solve(q, LevelTruncation::None),
            &solve(&eager, LevelTruncation::None),
        );
        let c = q.c();
        for i in 0..=c + 1 {
            let tag = format!("{what}, class {}, level {i}", chain.class);
            assert_eq!(
                bits(q.local(i).as_slice()),
                bits(eager.local(i).as_slice()),
                "{tag}"
            );
            assert_eq!(
                bits(q.up(i).as_slice()),
                bits(eager.up(i).as_slice()),
                "{tag}"
            );
            if i >= 1 {
                assert_eq!(
                    bits(q.down(i).as_slice()),
                    bits(eager.down(i).as_slice()),
                    "{tag}"
                );
            }
        }
    }
    truncated
}

#[test]
fn p_sweep_chains_built_on_demand_match_eager_chains() {
    let sc = registry::lookup("p_sweep").unwrap();
    let mut truncated = 0;
    for p in [8.0, 64.0, 512.0, 4096.0] {
        truncated += check(&format!("P = {p}"), &sc.model_at(p).unwrap());
    }
    assert!(truncated >= 2, "the large machines must truncate");
}

#[test]
fn figure_chains_built_on_demand_match_eager_chains() {
    for name in registry::FIGURES {
        let sc = registry::lookup(name).unwrap();
        check(name, &sc.build_model().unwrap());
    }
}
