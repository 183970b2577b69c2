//! §4.4 irreducibility of the class chains, checked by an oracle that shares
//! no code with the solver. No solve checks it: a phase-type distribution
//! keeps only the phases its initial vector reaches, and with that every
//! class chain and every frozen truncation of one is irreducible
//! (DESIGN.md, "Irreducible by construction"). These tests hold the
//! argument to account on the registry, on `p_sweep`'s truncations and on
//! seeded random models whose distributions carry zero-weight branches.

use gsched_core::generator::{build_class_chain, ClassChain};
use gsched_core::markov::tarjan_scc;
use gsched_core::qbd::QbdProcess;
use gsched_core::solver::{solve_warm, SolverOptions};
use gsched_core::vacation::compose_vacation;
use gsched_core::{ClassParams, GangModel};
use gsched_linalg::Matrix;
use gsched_phase::{coxian, erlang, exponential, hyperexponential, PhaseType};
use gsched_scenario::registry;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::time::{Duration, Instant};

/// Tarjan's components on the positive off-diagonal rates of the chain
/// truncated at level `c + 2`: one component means irreducible.
fn irreducible(q: &QbdProcess) -> bool {
    let t = q.truncated_generator(q.c() + 2).unwrap();
    let adj: Vec<Vec<usize>> = (0..t.rows())
        .map(|i| {
            (0..t.cols())
                .filter(|&j| j != i && t[(i, j)] > 0.0)
                .collect()
        })
        .collect();
    tarjan_scc(&adj).len() == 1
}

/// The class chains of `model` under the per-class quanta `quanta`.
fn chains(model: &GangModel, quanta: &[PhaseType]) -> Vec<ClassChain> {
    (0..model.num_classes())
        .map(|p| build_class_chain(model, p, &compose_vacation(model, p, quanta)).unwrap())
        .collect()
}

fn parameter_quanta(model: &GangModel) -> Vec<PhaseType> {
    (0..model.num_classes())
        .map(|p| model.class(p).quantum.clone())
        .collect()
}

/// The frozen-capacity truncation of `q` at level `m` as a process of its
/// own: levels `0..=m`, then the blocks out of level `m + 1` repeating.
fn frozen(q: &QbdProcess, m: usize) -> QbdProcess {
    q.build_levels(m + 1).unwrap();
    QbdProcess::new(
        (0..m).map(|i| q.up(i).clone()).collect(),
        (0..=m).map(|i| q.local(i).clone()).collect(),
        (1..=m).map(|i| q.down(i).clone()).collect(),
        q.up(m).clone(),
        q.local(m + 1).clone(),
        q.down(m + 1).clone(),
    )
    .unwrap()
}

/// Every chain of `model` under the parameter quanta and, when the fixed
/// point solves, under its converged quanta. Returns the chains checked.
fn check_model(what: &str, model: &GangModel, opts: &SolverOptions) -> usize {
    let mut quanta = vec![parameter_quanta(model)];
    if let Ok(out) = solve_warm(model, opts, None, None) {
        quanta.extend(out.warm.quanta);
    }
    let mut checked = 0;
    for q in &quanta {
        for chain in chains(model, q) {
            assert!(irreducible(&chain.qbd), "{what}, class {}", chain.class);
            checked += 1;
        }
    }
    checked
}

#[test]
fn registry_chains_are_irreducible_under_parameter_and_converged_quanta() {
    let (mut checked, mut classes) = (0, 0);
    for sc in registry::all() {
        let model = sc.build_model().unwrap();
        classes += model.num_classes();
        checked += check_model(
            &sc.name,
            &model,
            &sc.solver_options(&SolverOptions::default()),
        );
    }
    // Both quanta sets of every class: every base point's fixed point solved.
    assert_eq!(checked, 2 * classes);
}

#[test]
fn p_sweep_frozen_truncations_are_irreducible() {
    let sc = registry::lookup("p_sweep").unwrap();
    let mut cuts = 0;
    for processors in [8.0, 16.0, 32.0, 64.0] {
        let model = sc.model_at(processors).unwrap();
        for chain in chains(&model, &parameter_quanta(&model)) {
            let q = &chain.qbd;
            let c = q.c();
            assert!(irreducible(q), "P = {processors}, class {}", chain.class);
            let mut ms = vec![1, c / 4, c / 2, c - 1];
            ms.retain(|&m| m >= 1 && m < c);
            ms.dedup();
            for m in ms {
                let what = format!("P = {processors}, class {}, m = {m}", chain.class);
                assert!(irreducible(&frozen(q, m)), "{what}");
                cuts += 1;
            }
        }
    }
    assert!(cuts >= 20, "{cuts} cuts");
}

/// A random distribution of about `mean`, drawn from families that can
/// carry phases the initial vector never reaches: a zero continuation
/// probability, a zero mixture weight. The flag says whether it did.
fn random_dist(rng: &mut StdRng, mean: f64) -> (PhaseType, bool) {
    let rate = 1.0 / mean;
    let r = |rng: &mut StdRng| rate * (0.5 + rng.random::<f64>());
    match rng.random_below(5) {
        0 => (exponential(r(rng)), false),
        1 => (erlang(1 + rng.random_below(3) as usize, r(rng)), false),
        2 => {
            let w = rng.random::<f64>();
            let (a, b) = (r(rng), r(rng));
            (hyperexponential(&[w, 1.0 - w], &[a, b]).unwrap(), false)
        }
        3 => {
            // A zero continuation probability cuts off the later stages.
            let cont = [0.0, rng.random::<f64>()];
            (coxian(&[r(rng), r(rng), r(rng)], &cont).unwrap(), true)
        }
        _ => {
            // A zero-weight branch, anywhere in the mixture.
            let mut probs = [0.0; 3];
            let zero = rng.random_below(3) as usize;
            let w = rng.random::<f64>();
            let mut weights = [w, 1.0 - w].into_iter();
            for (i, p) in probs.iter_mut().enumerate() {
                if i != zero {
                    *p = weights.next().unwrap();
                }
            }
            let rates = [r(rng), r(rng), r(rng)];
            (hyperexponential(&probs, &rates).unwrap(), true)
        }
    }
}

#[test]
fn random_models_with_zero_weight_branches_are_irreducible() {
    // The seeded sequence runs until it is done or the budget is spent; the
    // floor keeps a slow machine from passing on a handful of models.
    const MODELS: usize = 200;
    const FLOOR: usize = 40;
    const STATES: usize = 300;
    let budget = Duration::from_secs(15);
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(31);
    let (mut models, mut pruned, mut skipped) = (0, 0, 0);
    while models < MODELS && start.elapsed() < budget {
        let processors = [2usize, 4, 8][rng.random_below(3) as usize];
        let num_classes = 2 + rng.random_below(2) as usize;
        let (mut classes, mut cut) = (Vec::new(), 0);
        for _ in 0..num_classes {
            let sizes: Vec<usize> = (1..=processors)
                .filter(|g| processors.is_multiple_of(*g))
                .collect();
            let g = sizes[rng.random_below(sizes.len() as u64) as usize];
            let c = (processors / g) as f64;
            // Offered load per partition between 0.05 and 0.5.
            let service = 0.5 + rng.random::<f64>();
            let load = 0.05 + 0.45 * rng.random::<f64>();
            let quantum = 0.5 + 2.0 * rng.random::<f64>();
            let overhead = 0.01 + 0.05 * rng.random::<f64>();
            let draws = [
                random_dist(&mut rng, service / (load * c)),
                random_dist(&mut rng, service),
                random_dist(&mut rng, quantum),
                random_dist(&mut rng, overhead),
            ];
            cut += draws.iter().filter(|d| d.1).count();
            let [arrival, service, quantum, switch_overhead] = draws.map(|(ph, _)| ph);
            classes.push(ClassParams {
                partition_size: g,
                arrival,
                service,
                quantum,
                switch_overhead,
            });
        }
        let model = GangModel::new(processors, classes).unwrap();
        // Keep the dense oracle and the fixed point small: at most STATES
        // states in levels 0..=c+2 of any first-pass chain.
        let states = |ch: &ClassChain| (0..=ch.qbd.c() + 2).map(|i| ch.qbd.level_dim(i)).sum();
        let largest = chains(&model, &parameter_quanta(&model))
            .iter()
            .map(states)
            .max();
        if largest > Some(STATES) {
            skipped += 1;
            continue;
        }
        check_model(
            &format!("random model {models}"),
            &model,
            &SolverOptions::default(),
        );
        models += 1;
        pruned += cut;
    }
    eprintln!(
        "{models} models, {skipped} skipped, {pruned} pruned, {:?}",
        start.elapsed()
    );
    assert!(models >= FLOOR, "only {models} models in {budget:?}");
    assert!(pruned >= models, "{pruned} pruned distributions");
}

/// The oracle's negative control: a two-phase QBD whose second phase is
/// left but never entered — what an unpruned distribution with an
/// unreachable phase would embed — is reducible, and the same chain with
/// one rate into that phase is not.
#[test]
fn a_chain_with_a_phase_never_entered_is_reducible() {
    let (lambda, mu) = (0.5, 1.0);
    let chain = |into: f64| {
        let up = Matrix::from_rows(&[&[lambda, 0.0], &[0.0, lambda]]);
        let down = Matrix::from_rows(&[&[mu, 0.0], &[0.0, mu]]);
        let local = |served: f64| {
            Matrix::from_rows(&[
                &[-(lambda + served + into), into],
                &[3.0, -(lambda + served + 3.0)],
            ])
        };
        QbdProcess::new(
            vec![up.clone()],
            vec![local(0.0), local(mu)],
            vec![down.clone()],
            up,
            local(mu),
            down,
        )
        .unwrap()
    };
    assert!(!irreducible(&chain(0.0)));
    assert!(irreducible(&chain(2.0)));
}
