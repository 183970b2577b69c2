//! Assembly of the per-class QBD generator (paper §4.1 and eq. 20).
//!
//! Given a class's parameter distributions and its current vacation
//! distribution `F_p`, this module enumerates the per-level states and fills
//! the QBD blocks:
//!
//! * **up** (`A₀`-like): interarrival completions — a new job arrives,
//!   entering service (initial service phase `β`) when a partition is free;
//! * **local** (`A₁`-like): arrival-phase, service-phase, quantum-phase and
//!   vacation-phase internal transitions; quantum expiry jumping into the
//!   vacation (initial vector of `F_p`); vacation completion starting a new
//!   quantum (initial vector `γ` of `G_p`);
//! * **down** (`A₂`-like): service completions; when the last job leaves,
//!   the switch-on-empty rule sends the cycle phase straight into the
//!   vacation.
//!
//! Levels `0..=c_p` form the boundary; the blocks repeat above `c_p`.
//! [`build_class_chain`] assembles only the level sizes and the repeating
//! blocks. The boundary levels are assembled when the QBD solve first reads
//! them ([`LevelSource`]), so a certified truncation at `m ≪ c_p` never
//! assembles the levels above `m + 1`.

use crate::model::GangModel;
use crate::statespace::ClassStateSpace;
use crate::{GangError, Result};
use gsched_linalg::Matrix;
use gsched_obs as obs;
use gsched_phase::PhaseType;
use gsched_qbd::process::{LevelBlocks, LevelSource};
use gsched_qbd::{QbdError, QbdProcess};
use std::ops::Range;
use std::sync::Arc;

/// Distribution data unpacked into plain matrices/vectors for fast assembly.
#[derive(Debug, Clone)]
pub struct DistData {
    /// Arrival sub-generator / exit / initial vector.
    pub sa: Matrix,
    /// Arrival exit rates.
    pub s0a: Vec<f64>,
    /// Arrival restart vector.
    pub alpha_a: Vec<f64>,
    /// Service sub-generator.
    pub sb: Matrix,
    /// Service exit rates.
    pub s0b: Vec<f64>,
    /// Service initial vector.
    pub beta: Vec<f64>,
    /// Quantum sub-generator.
    pub sg: Matrix,
    /// Quantum exit rates.
    pub s0g: Vec<f64>,
    /// Quantum initial vector.
    pub gamma: Vec<f64>,
    /// Vacation sub-generator.
    pub sv: Matrix,
    /// Vacation exit rates.
    pub s0v: Vec<f64>,
    /// Vacation initial vector.
    pub alpha_v: Vec<f64>,
    /// Vacation atom at zero (`1 − Σ alpha_v`).
    pub atom_v: f64,
    /// Vacation initial vector conditioned on a positive vacation — used at
    /// level 0 where zero-length vacations would spin instantaneously.
    pub alpha_v_cond: Vec<f64>,
}

/// A class chain: its state space, QBD blocks, and the inputs used to build
/// them (kept for effective-quantum extraction).
#[derive(Debug, Clone)]
pub struct ClassChain {
    /// Class index within the model.
    pub class: usize,
    /// The enumerated state space, shared with the chain's level source.
    pub space: Arc<ClassStateSpace>,
    /// The QBD process; its boundary levels are assembled on demand.
    pub qbd: QbdProcess,
    /// The vacation distribution used for this build.
    pub vacation: PhaseType,
    /// Unpacked distribution data, shared with the chain's level source.
    pub dists: Arc<DistData>,
}

/// Build the class-`p` QBD for the given vacation distribution `F_p`.
pub fn build_class_chain(model: &GangModel, p: usize, vacation: &PhaseType) -> Result<ClassChain> {
    let params = model.class(p);
    let c = model.partitions(p);

    if vacation.order() == 0 || vacation.atom_at_zero() > 1.0 - 1e-9 {
        return Err(GangError::from(QbdError::Shape(
            "vacation distribution must have positive order and non-unit atom".to_string(),
        ))
        .with_class(p));
    }

    let atom_v = vacation.atom_at_zero();
    let alpha_v = vacation.alpha().to_vec();
    let alpha_v_cond: Vec<f64> = alpha_v.iter().map(|&a| a / (1.0 - atom_v)).collect();

    let dists = DistData {
        sa: params.arrival.sub_generator(),
        s0a: params.arrival.exit_vector(),
        alpha_a: params.arrival.alpha().to_vec(),
        sb: params.service.sub_generator(),
        s0b: params.service.exit_vector(),
        beta: params.service.alpha().to_vec(),
        sg: params.quantum.sub_generator(),
        s0g: params.quantum.exit_vector(),
        gamma: params.quantum.alpha().to_vec(),
        sv: vacation.sub_generator(),
        s0v: vacation.exit_vector(),
        alpha_v,
        atom_v,
        alpha_v_cond,
    };

    let space = Arc::new(ClassStateSpace::new(
        c,
        params.arrival.order(),
        params.service.order(),
        params.quantum.order(),
        vacation.order(),
    ));
    let dists = Arc::new(dists);

    let asm = Assembler {
        space: &space,
        d: &dists,
    };
    // Repeating blocks: up/local identical from level c on; down from c+1.
    let a0 = asm.up_block(c);
    let a1 = asm.local_block(c + 1);
    let a2 = asm.down_block(c + 1);
    let dims = (0..=c).map(|i| space.level_dim(i)).collect();
    let levels = ChainLevels {
        space: Arc::clone(&space),
        dists: Arc::clone(&dists),
    };
    let qbd = QbdProcess::on_demand(dims, a0, a1, a2, Arc::new(levels))
        .map_err(|source| GangError::from(source).with_class(p))?;

    Ok(ClassChain {
        class: p,
        space,
        qbd,
        vacation: vacation.clone(),
        dists,
    })
}

/// The boundary levels of a class chain, assembled when the QBD solve first
/// reads them.
#[derive(Debug)]
struct ChainLevels {
    space: Arc<ClassStateSpace>,
    dists: Arc<DistData>,
}

impl LevelSource for ChainLevels {
    /// Assemble a batch of levels under one `core.generator` span, so the
    /// profile attributes on-demand assembly to the generator build.
    fn build(
        &self,
        levels: Range<usize>,
        accept: &mut dyn FnMut(usize, LevelBlocks) -> gsched_qbd::Result<()>,
    ) -> gsched_qbd::Result<()> {
        let _span = obs::span("core.generator");
        let asm = Assembler {
            space: &self.space,
            d: &self.dists,
        };
        let c = self.space.c;
        for i in levels {
            let blocks = LevelBlocks {
                down: (i >= 1).then(|| asm.down_block(i)),
                local: asm.local_block(i),
                up: (i < c).then(|| asm.up_block(i)),
            };
            #[cfg(test)]
            let blocks = tests::break_level(i, blocks);
            accept(i, blocks)?;
        }
        Ok(())
    }
}

/// Internal block assembler. Levels are clamped to the repeating region:
/// any `level > c` uses the level-`c` configuration space.
struct Assembler<'a> {
    space: &'a ClassStateSpace,
    d: &'a DistData,
}

impl Assembler<'_> {
    fn clamp(&self, level: usize) -> usize {
        level.min(self.space.c)
    }

    /// Off-diagonal local rates plus the correct diagonal so that the full
    /// generator row (down + local + up) sums to zero.
    fn local_block(&self, level: usize) -> Matrix {
        let lv = self.clamp(level);
        let dim = self.space.level_dim(lv);
        let mut m = Matrix::zeros(dim, dim);
        if lv == 0 {
            self.fill_local0(&mut m);
        } else {
            self.fill_local_pos(level, &mut m);
        }
        // Diagonal: negative of (local off-diag + up row sums + down row sums).
        let up = self.up_row_sums(level);
        let down = self.down_row_sums(level);
        for s in 0..dim {
            let off: f64 = m
                .row(s)
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != s)
                .map(|(_, &v)| v)
                .sum();
            m[(s, s)] = -(off + up[s] + down[s]);
        }
        m
    }

    /// Level-0 local transitions: arrival-phase internal, vacation internal,
    /// vacation completion re-entering the (conditioned) vacation.
    fn fill_local0(&self, m: &mut Matrix) {
        let sp = self.space;
        let d = self.d;
        for a in 0..sp.m_a {
            for v in 0..sp.m_v {
                let src = sp.state_index(0, a, 0, v);
                // Arrival-phase internal.
                for a2 in 0..sp.m_a {
                    if a2 != a {
                        let r = d.sa[(a, a2)];
                        if r > 0.0 {
                            m[(src, sp.state_index(0, a2, 0, v))] += r;
                        }
                    }
                }
                // Vacation internal.
                for v2 in 0..sp.m_v {
                    if v2 != v {
                        let r = d.sv[(v, v2)];
                        if r > 0.0 {
                            m[(src, sp.state_index(0, a, 0, v2))] += r;
                        }
                    }
                }
                // Vacation end with empty queue: next vacation begins
                // (multiple-vacations semantics; zero-length vacations are
                // conditioned away since they take no time).
                let rate0 = d.s0v[v];
                if rate0 > 0.0 {
                    for (v2, &w) in d.alpha_v_cond.iter().enumerate() {
                        if w > 0.0 && v2 != v {
                            m[(src, sp.state_index(0, a, 0, v2))] += rate0 * w;
                        }
                        // v2 == v: self-loop, a no-op in continuous time.
                    }
                }
            }
        }
    }

    /// Local transitions at levels ≥ 1.
    fn fill_local_pos(&self, level: usize, m: &mut Matrix) {
        let sp = self.space;
        let d = self.d;
        let lv = self.clamp(level);
        let n = sp.in_service(lv);
        for a in 0..sp.m_a {
            for (ci, cfg) in sp.cfgs_for(n).enumerate() {
                for k in 0..sp.num_k(lv) {
                    let src = sp.state_index(lv, a, ci, k);
                    // Arrival-phase internal.
                    for a2 in 0..sp.m_a {
                        if a2 != a {
                            let r = d.sa[(a, a2)];
                            if r > 0.0 {
                                m[(src, sp.state_index(lv, a2, ci, k))] += r;
                            }
                        }
                    }
                    if sp.is_quantum_phase(k) {
                        // Quantum-phase internal.
                        for k2 in 0..sp.m_q {
                            if k2 != k {
                                let r = d.sg[(k, k2)];
                                if r > 0.0 {
                                    m[(src, sp.state_index(lv, a, ci, k2))] += r;
                                }
                            }
                        }
                        // Quantum expiry: into the vacation (or, with the
                        // vacation's atom, straight into a fresh quantum).
                        let rate0 = d.s0g[k];
                        if rate0 > 0.0 {
                            for (v, &w) in d.alpha_v.iter().enumerate() {
                                if w > 0.0 {
                                    m[(src, sp.state_index(lv, a, ci, sp.m_q + v))] += rate0 * w;
                                }
                            }
                            if d.atom_v > 0.0 {
                                for (k2, &g) in d.gamma.iter().enumerate() {
                                    let r = rate0 * d.atom_v * g;
                                    if r > 0.0 && k2 != k {
                                        m[(src, sp.state_index(lv, a, ci, k2))] += r;
                                    }
                                }
                            }
                        }
                        // Service-phase internal (service active only while
                        // the class holds the machine).
                        for b in 0..sp.m_b {
                            let count = cfg[b] as f64;
                            if count == 0.0 {
                                continue;
                            }
                            for b2 in 0..sp.m_b {
                                if b2 != b {
                                    let r = count * d.sb[(b, b2)];
                                    if r > 0.0 {
                                        let ci2 = sp.cfg_index_moved(cfg, Some(b), Some(b2));
                                        m[(src, sp.state_index(lv, a, ci2, k))] += r;
                                    }
                                }
                            }
                        }
                    } else {
                        // Vacation internal.
                        let v = k - sp.m_q;
                        for v2 in 0..sp.m_v {
                            if v2 != v {
                                let r = d.sv[(v, v2)];
                                if r > 0.0 {
                                    m[(src, sp.state_index(lv, a, ci, sp.m_q + v2))] += r;
                                }
                            }
                        }
                        // Vacation end with work available: new quantum.
                        let rate0 = d.s0v[v];
                        if rate0 > 0.0 {
                            for (k2, &g) in d.gamma.iter().enumerate() {
                                if g > 0.0 {
                                    m[(src, sp.state_index(lv, a, ci, k2))] += rate0 * g;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Up block `level → level+1` (arrival completions).
    fn up_block(&self, level: usize) -> Matrix {
        let sp = self.space;
        let d = self.d;
        let lv = self.clamp(level);
        let lv_next = self.clamp(level + 1);
        let rows = sp.level_dim(lv);
        let cols = sp.level_dim(lv_next);
        let mut m = Matrix::zeros(rows, cols);
        let n = sp.in_service(lv);
        let enters_service = level < sp.c; // new job starts service
        for a in 0..sp.m_a {
            for (ci, cfg) in sp.cfgs_for(n).enumerate() {
                for k in 0..sp.num_k(lv) {
                    let src = sp.state_index(lv, a, ci, k);
                    let rate0 = d.s0a[a];
                    if rate0 == 0.0 {
                        continue;
                    }
                    // At level 0 the k coordinate indexes vacation phases;
                    // at level 1 those become k' = m_q + k.
                    let k_next = if lv == 0 { sp.m_q + k } else { k };
                    for (a2, &pa) in d.alpha_a.iter().enumerate() {
                        if pa == 0.0 {
                            continue;
                        }
                        if enters_service {
                            for (b, &pb) in d.beta.iter().enumerate() {
                                if pb == 0.0 {
                                    continue;
                                }
                                let ci2 = sp.cfg_index_moved(cfg, None, Some(b));
                                let dst = sp.state_index(lv_next, a2, ci2, k_next);
                                m[(src, dst)] += rate0 * pa * pb;
                            }
                        } else {
                            let dst = sp.state_index(lv_next, a2, ci, k_next);
                            m[(src, dst)] += rate0 * pa;
                        }
                    }
                }
            }
        }
        m
    }

    /// Row sums of the up block (for diagonal computation) — simply the
    /// arrival exit rate of each state.
    fn up_row_sums(&self, level: usize) -> Vec<f64> {
        let sp = self.space;
        let lv = self.clamp(level);
        let dim = sp.level_dim(lv);
        let mut out = vec![0.0; dim];
        for (s, o) in out.iter_mut().enumerate() {
            let (a, _, _) = sp.decode(lv, s);
            *o = self.d.s0a[a];
        }
        out
    }

    /// Down block `level → level−1` (service completions; only while the
    /// class holds the machine).
    fn down_block(&self, level: usize) -> Matrix {
        assert!(level >= 1);
        let sp = self.space;
        let d = self.d;
        let lv = self.clamp(level);
        let lv_prev = self.clamp(level - 1);
        let rows = sp.level_dim(lv);
        let cols = sp.level_dim(lv_prev);
        let mut m = Matrix::zeros(rows, cols);
        let n = sp.in_service(lv);
        for a in 0..sp.m_a {
            for (ci, cfg) in sp.cfgs_for(n).enumerate() {
                for k in 0..sp.m_q {
                    // departures only during quantum phases
                    let src = sp.state_index(lv, a, ci, k);
                    for b in 0..sp.m_b {
                        let count = cfg[b] as f64;
                        if count == 0.0 {
                            continue;
                        }
                        let rate0 = count * d.s0b[b];
                        if rate0 == 0.0 {
                            continue;
                        }
                        if level > sp.c {
                            // A waiting job is promoted into service.
                            for (b2, &pb) in d.beta.iter().enumerate() {
                                if pb == 0.0 {
                                    continue;
                                }
                                let ci2 = sp.cfg_index_moved(cfg, Some(b), Some(b2));
                                let dst = sp.state_index(lv_prev, a, ci2, k);
                                m[(src, dst)] += rate0 * pb;
                            }
                        } else if level >= 2 {
                            // One fewer job in service; quantum continues.
                            let ci2 = sp.cfg_index_moved(cfg, Some(b), None);
                            let dst = sp.state_index(lv_prev, a, ci2, k);
                            m[(src, dst)] += rate0;
                        } else {
                            // level == 1: the queue empties — switch-on-empty
                            // sends the cycle straight into the vacation.
                            for (v, &w) in d.alpha_v_cond.iter().enumerate() {
                                if w > 0.0 {
                                    let dst = sp.state_index(0, a, 0, v);
                                    m[(src, dst)] += rate0 * w;
                                }
                            }
                        }
                    }
                }
            }
        }
        m
    }

    /// Row sums of the down block — total service-completion rate of each
    /// state (zero during vacation phases).
    fn down_row_sums(&self, level: usize) -> Vec<f64> {
        let sp = self.space;
        let lv = self.clamp(level);
        let dim = sp.level_dim(lv);
        let mut out = vec![0.0; dim];
        if level == 0 {
            return out;
        }
        let n = sp.in_service(lv);
        for (s, o) in out.iter_mut().enumerate() {
            let (_, ci, k) = sp.decode(lv, s);
            if !sp.is_quantum_phase(k) {
                continue;
            }
            let cfg = sp.cfg(n, ci);
            *o = cfg
                .iter()
                .zip(self.d.s0b.iter())
                .map(|(&cnt, &r)| cnt as f64 * r)
                .sum();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ClassParams, GangModel};
    use crate::vacation::heavy_traffic_vacation;
    use gsched_phase::{erlang, exponential};
    use gsched_qbd::solution::{LevelTruncation, SolveOptions};
    use std::cell::Cell;

    thread_local! {
        /// Level whose first up rate chains assembled on this thread negate,
        /// so that level fails its sign check when a solve first reads it.
        static BROKEN_LEVEL: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// §4.4 by Tarjan's components, independently of the solver: the
    /// positive off-diagonal rates of the chain truncated at level `c + 2`
    /// form one strongly connected component.
    fn irreducible(q: &QbdProcess) -> bool {
        let t = q.truncated_generator(q.c() + 2).unwrap();
        let adj: Vec<Vec<usize>> = (0..t.rows())
            .map(|i| {
                (0..t.cols())
                    .filter(|&j| j != i && t[(i, j)] > 0.0)
                    .collect()
            })
            .collect();
        gsched_markov::tarjan_scc(&adj).len() == 1
    }

    /// Level `i`'s blocks with the fault [`BROKEN_LEVEL`] injects.
    pub(super) fn break_level(i: usize, mut blocks: LevelBlocks) -> LevelBlocks {
        if BROKEN_LEVEL.get() == Some(i) {
            let up = blocks.up.as_mut().expect("the broken level is below c");
            let j = up.row(0).iter().position(|&v| v > 0.0).unwrap();
            up[(0, j)] = -up[(0, j)];
        }
        blocks
    }

    /// A level built on demand that fails its check is an error of the
    /// class whose chain it belongs to, from the fixed point as from
    /// the QBD solve, under the full solve and the truncation search alike;
    /// levels no solve reads are never built, so never fail.
    #[test]
    fn a_broken_level_is_an_error_of_its_class() {
        // Class 0 spans the machine (c = 1); class 1 has c = 8 levels.
        let class = |g: usize| ClassParams {
            partition_size: g,
            arrival: exponential(0.5),
            service: exponential(1.0),
            quantum: erlang(2, 1.0),
            switch_overhead: exponential(100.0),
        };
        let m = GangModel::new(8, vec![class(8), class(1)]).unwrap();
        let auto = LevelTruncation::Auto {
            target_tail: 1e-8,
            min_levels: 4,
        };
        BROKEN_LEVEL.set(Some(5));
        for truncation in [LevelTruncation::None, auto] {
            let mut opts = crate::SolverOptions::default();
            opts.qbd.truncation = truncation;
            match crate::solve(&m, &opts) {
                Err(GangError::Qbd {
                    class: Some(1),
                    source: QbdError::NotGenerator(msg),
                    ..
                }) => assert!(msg.starts_with("up[5][0,"), "{msg}"),
                other => panic!("{truncation:?}: {other:?}"),
            }
            let vac = heavy_traffic_vacation(&m, 1);
            let chain = build_class_chain(&m, 1, &vac).expect("level 5 is not built yet");
            let got = chain.qbd.solve(&opts.qbd);
            assert!(
                matches!(got, Err(QbdError::NotGenerator(_))),
                "{truncation:?}: {got:?}"
            );
            // A cut at 2 reads levels 0..=3 only.
            let fixed = SolveOptions {
                truncation: LevelTruncation::Fixed { level: 2 },
                ..SolveOptions::default()
            };
            assert!(chain.qbd.solve(&fixed).is_ok());
        }
        BROKEN_LEVEL.set(None);
    }

    fn single_class_model(
        lambda: f64,
        mu: f64,
        quantum_mean: f64,
        overhead_mean: f64,
    ) -> GangModel {
        GangModel::new(
            4,
            vec![ClassParams {
                partition_size: 4,
                arrival: exponential(lambda),
                service: exponential(mu),
                quantum: exponential(1.0 / quantum_mean),
                switch_overhead: exponential(1.0 / overhead_mean),
            }],
        )
        .unwrap()
    }

    #[test]
    fn chain_builds_and_is_irreducible() {
        let m = single_class_model(0.4, 1.0, 10.0, 0.01);
        let vac = heavy_traffic_vacation(&m, 0);
        let chain = build_class_chain(&m, 0, &vac).unwrap();
        assert!(irreducible(&chain.qbd));
        assert_eq!(chain.qbd.c(), 1); // c = P/g = 1
                                      // level 0: vacation phases only (order 1) * m_a 1 = 1.
        assert_eq!(chain.qbd.level_dim(0), 1);
        // level >= 1: (m_q + m_v) = 2.
        assert_eq!(chain.qbd.repeating_dim(), 2);
    }

    #[test]
    fn single_class_long_quantum_approximates_mm1() {
        // With a huge quantum and negligible overhead, the single class owns
        // the machine: N -> rho/(1-rho).
        let rho = 0.5;
        let m = single_class_model(rho, 1.0, 2000.0, 1e-4);
        let vac = heavy_traffic_vacation(&m, 0);
        let chain = build_class_chain(&m, 0, &vac).unwrap();
        let sol = chain.qbd.solve(&SolveOptions::default()).unwrap();
        let want = rho / (1.0 - rho);
        let got = sol.mean_level();
        assert!(
            (got - want).abs() < 0.02,
            "N = {got}, M/M/1 predicts {want}"
        );
    }

    #[test]
    fn single_class_short_quantum_worse_than_long() {
        // Very short quanta burn time on context switches: N must rise.
        let mk = |q: f64| {
            let m = single_class_model(0.5, 1.0, q, 0.05);
            let vac = heavy_traffic_vacation(&m, 0);
            let chain = build_class_chain(&m, 0, &vac).unwrap();
            chain
                .qbd
                .solve(&SolveOptions::default())
                .unwrap()
                .mean_level()
        };
        let short = mk(0.1);
        let long = mk(100.0);
        assert!(
            short > long * 1.2,
            "short-quantum N={short} should exceed long-quantum N={long}"
        );
    }

    #[test]
    fn multi_partition_class_runs_parallel() {
        // g=1 on P=4: four partitions; with the machine to itself this is
        // ~M/M/4. Compare against Erlang-C.
        let lambda = 2.0;
        let mu = 1.0;
        let m = GangModel::new(
            4,
            vec![ClassParams {
                partition_size: 1,
                arrival: exponential(lambda),
                service: exponential(mu),
                quantum: exponential(1.0 / 2000.0),
                switch_overhead: exponential(1e4),
            }],
        )
        .unwrap();
        let vac = heavy_traffic_vacation(&m, 0);
        let chain = build_class_chain(&m, 0, &vac).unwrap();
        assert_eq!(chain.qbd.c(), 4);
        let sol = chain.qbd.solve(&SolveOptions::default()).unwrap();
        // Erlang-C for M/M/4, a = 2:
        let a: f64 = lambda / mu;
        let s = 4usize;
        let fact = |n: usize| (1..=n).map(|i| i as f64).product::<f64>().max(1.0);
        let mut p0_inv = 0.0;
        for k in 0..s {
            p0_inv += a.powi(k as i32) / fact(k);
        }
        let rho = a / s as f64;
        p0_inv += a.powi(s as i32) / (fact(s) * (1.0 - rho));
        let p0 = 1.0 / p0_inv;
        let c_erl = a.powi(s as i32) / (fact(s) * (1.0 - rho)) * p0;
        let l = c_erl * rho / (1.0 - rho) + a;
        let got = sol.mean_level();
        assert!((got - l).abs() < 0.05, "N = {got}, M/M/4 predicts {l}");
    }

    #[test]
    fn erlang_quantum_builds() {
        let m = GangModel::new(
            8,
            vec![
                ClassParams {
                    partition_size: 8,
                    arrival: exponential(0.3),
                    service: exponential(1.0),
                    quantum: erlang(3, 1.0),
                    switch_overhead: exponential(100.0),
                },
                ClassParams {
                    partition_size: 2,
                    arrival: exponential(0.3),
                    service: exponential(2.0),
                    quantum: erlang(3, 1.0),
                    switch_overhead: exponential(100.0),
                },
            ],
        )
        .unwrap();
        for p in 0..2 {
            let vac = heavy_traffic_vacation(&m, p);
            let chain = build_class_chain(&m, p, &vac).unwrap();
            assert!(irreducible(&chain.qbd), "class {p}");
            let sol = chain.qbd.solve(&SolveOptions::default()).unwrap();
            assert!(sol.mean_level().is_finite());
            assert!((sol.total_mass() - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn phase_type_service_configs() {
        // Erlang-2 service on 2 partitions: config space has C(3,1)=3 cfgs
        // at saturation; chain must build and solve.
        let m = GangModel::new(
            2,
            vec![ClassParams {
                partition_size: 1,
                arrival: exponential(0.6),
                service: erlang(2, 1.0),
                quantum: exponential(0.5),
                switch_overhead: exponential(50.0),
            }],
        )
        .unwrap();
        let vac = heavy_traffic_vacation(&m, 0);
        let chain = build_class_chain(&m, 0, &vac).unwrap();
        let sol = chain.qbd.solve(&SolveOptions::default()).unwrap();
        assert!(sol.mean_level() > 0.0);
        assert!((sol.total_mass() - 1.0).abs() < 1e-8);
    }
}
