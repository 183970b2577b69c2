//! Per-class state-space enumeration (paper §4.1).
//!
//! The class-`p` Markov process `X_p(t)` tracks
//! `(i_p, j^A_p, (j₁,…,j_{m_B})_p, k_p)`:
//!
//! * `i_p` — the **level**: number of class-`p` jobs in the system;
//! * `j^A_p` — the phase of the interarrival process (`m_A` phases);
//! * `(j₁,…,j_{m_B})` — the **service configuration**: how many of the
//!   `min(i, c_p)` in-service jobs sit in each service phase
//!   (a composition of `min(i, c_p)` into `m_B` nonnegative parts);
//! * `k_p` — the phase of the timeplexing cycle: `k < M_p` while class `p`
//!   holds the machine (quantum phases), `k ≥ M_p` during the vacation
//!   (the other classes' quanta and all context switches).
//!
//! Level 0 is special: the switch-on-empty rule means class `p` never holds
//! the machine with an empty queue, so level 0 carries **only** vacation
//! phases.

/// Enumerate all compositions of `n` into `m` nonnegative parts, in
/// lexicographic order. `C(n+m−1, m−1)` results.
pub fn compositions(n: usize, m: usize) -> Vec<Vec<u32>> {
    assert!(m >= 1, "compositions: need at least one part");
    let mut out = Vec::new();
    let mut cur = vec![0u32; m];
    fn rec(out: &mut Vec<Vec<u32>>, cur: &mut Vec<u32>, pos: usize, left: u32) {
        if pos + 1 == cur.len() {
            cur[pos] = left;
            out.push(cur.clone());
            return;
        }
        for v in 0..=left {
            cur[pos] = v;
            rec(out, cur, pos + 1, left - v);
        }
    }
    rec(&mut out, &mut cur, 0, n as u32);
    out
}

/// Binomial coefficient (exact for the small arguments used here).
pub fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
    }
    acc as usize
}

/// The enumerated state space of one class chain.
#[derive(Debug, Clone)]
pub struct ClassStateSpace {
    /// `c_p = P/g(p)`: partitions, i.e. max jobs in service.
    pub c: usize,
    /// Arrival phases `m_A`.
    pub m_a: usize,
    /// Service phases `m_B`.
    pub m_b: usize,
    /// Quantum phases `M_p`.
    pub m_q: usize,
    /// Vacation phases `N_p`.
    pub m_v: usize,
    /// `cfgs[n]` = compositions of `n` jobs into `m_B` phases.
    cfgs: Vec<Vec<Vec<u32>>>,
}

impl ClassStateSpace {
    /// Build the space for `c` partitions and the given phase counts.
    ///
    /// # Panics
    /// Panics if any of `c`, `m_a`, `m_b`, `m_q`, `m_v` is zero — the chain
    /// needs at least one phase of each component (a vacation of order zero
    /// would make the switch-on-empty dynamics instantaneous; see
    /// `GangModel::new`).
    pub fn new(c: usize, m_a: usize, m_b: usize, m_q: usize, m_v: usize) -> ClassStateSpace {
        assert!(c >= 1, "need at least one partition");
        assert!(
            m_a >= 1 && m_b >= 1 && m_q >= 1 && m_v >= 1,
            "all phase counts must be positive"
        );
        ClassStateSpace {
            c,
            m_a,
            m_b,
            m_q,
            m_v,
            cfgs: (0..=c).map(|n| compositions(n, m_b)).collect(),
        }
    }

    /// Jobs in service at `level`: `min(level, c)`.
    pub fn in_service(&self, level: usize) -> usize {
        level.min(self.c)
    }

    /// Number of service configurations at `level`.
    pub fn num_cfgs(&self, level: usize) -> usize {
        self.cfgs[self.in_service(level)].len()
    }

    /// The configuration list for `n` jobs in service.
    pub fn cfgs_for(&self, n: usize) -> &[Vec<u32>] {
        &self.cfgs[n]
    }

    /// Index of a configuration among those for `n` jobs in service.
    pub fn cfg_index(&self, n: usize, cfg: &[u32]) -> usize {
        debug_assert_eq!(cfg.iter().sum::<u32>() as usize, n);
        self.cfg_index_moved(cfg, None, None)
    }

    /// Index of the configuration `cfg` with one job taken out of phase
    /// `from` and one put into phase `to` (either may be `None`), among
    /// those for its own number of jobs — ranked in place, without building
    /// the moved configuration.
    ///
    /// The rank of a composition `x` of `n` into `m` parts in the
    /// lexicographic order of [`compositions`] counts the compositions that
    /// agree with `x` before part `j` and are smaller at it. With `r` jobs
    /// left for parts `j..m` and `k = m − 1 − j` parts after `j`, there are
    /// `Σ_{v<x_j} C(r − v + k − 1, k − 1) = C(r + k, k) − C(r − x_j + k, k)`
    /// of them.
    pub fn cfg_index_moved(&self, cfg: &[u32], from: Option<usize>, to: Option<usize>) -> usize {
        let part =
            |j: usize| cfg[j] as usize + usize::from(to == Some(j)) - usize::from(from == Some(j));
        let m = cfg.len();
        let mut left: usize = (0..m).map(part).sum();
        let mut rank = 0;
        for j in 0..m.saturating_sub(1) {
            let (k, x) = (m - 1 - j, part(j));
            rank += binomial(left + k, k) - binomial(left - x + k, k);
            left -= x;
        }
        rank
    }

    /// Number of cycle-phase values at `level`: vacation-only at level 0.
    pub fn num_k(&self, level: usize) -> usize {
        if level == 0 {
            self.m_v
        } else {
            self.m_q + self.m_v
        }
    }

    /// Dimension of `level`'s state block.
    pub fn level_dim(&self, level: usize) -> usize {
        self.m_a * self.num_cfgs(level) * self.num_k(level)
    }

    /// Flat index of `(a, cfg, k)` within `level`'s block.
    ///
    /// At level 0 the `k` coordinate ranges over vacation phases `0..m_v`;
    /// at levels ≥ 1, `k < m_q` are quantum phases and `k − m_q` indexes the
    /// vacation phases.
    pub fn state_index(&self, level: usize, a: usize, cfg: usize, k: usize) -> usize {
        debug_assert!(a < self.m_a);
        debug_assert!(cfg < self.num_cfgs(level));
        debug_assert!(k < self.num_k(level));
        (a * self.num_cfgs(level) + cfg) * self.num_k(level) + k
    }

    /// Inverse of [`ClassStateSpace::state_index`].
    pub fn decode(&self, level: usize, idx: usize) -> (usize, usize, usize) {
        let nk = self.num_k(level);
        let nc = self.num_cfgs(level);
        let k = idx % nk;
        let rest = idx / nk;
        let cfg = rest % nc;
        let a = rest / nc;
        debug_assert!(a < self.m_a);
        (a, cfg, k)
    }

    /// True if the (level ≥ 1) `k` coordinate is a quantum phase.
    pub fn is_quantum_phase(&self, k: usize) -> bool {
        k < self.m_q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compositions_counts() {
        assert_eq!(compositions(0, 1), vec![vec![0]]);
        assert_eq!(compositions(3, 1), vec![vec![3]]);
        assert_eq!(compositions(2, 2).len(), 3);
        assert_eq!(compositions(4, 3).len(), binomial(6, 2));
        for n in 0..6 {
            for m in 1..4 {
                assert_eq!(
                    compositions(n, m).len(),
                    binomial(n + m - 1, m - 1),
                    "n={n} m={m}"
                );
            }
        }
    }

    #[test]
    fn compositions_sum_correct() {
        for cfg in compositions(5, 3) {
            assert_eq!(cfg.iter().sum::<u32>(), 5);
        }
    }

    #[test]
    fn compositions_lexicographic_unique() {
        let list = compositions(4, 3);
        for w in list.windows(2) {
            assert!(w[0] < w[1], "not strictly increasing: {:?}", w);
        }
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(20, 10), 184_756);
    }

    #[test]
    fn level_dims() {
        // c=3, m_a=2, m_b=2, m_q=2, m_v=3.
        let s = ClassStateSpace::new(3, 2, 2, 2, 3);
        assert_eq!(s.level_dim(0), 2 * 3); // vacation-only
        assert_eq!(s.level_dim(1), 2 * 2 * 5); // cfgs of 1 into 2 parts = 2
        assert_eq!(s.level_dim(2), 2 * 3 * 5);
        assert_eq!(s.level_dim(3), 2 * 4 * 5);
        assert_eq!(s.level_dim(4), 2 * 4 * 5); // saturated
        assert_eq!(s.level_dim(9), s.level_dim(3));
    }

    #[test]
    fn index_roundtrip() {
        let s = ClassStateSpace::new(2, 2, 2, 3, 2);
        for level in [0usize, 1, 2, 3] {
            for idx in 0..s.level_dim(level) {
                let (a, cfg, k) = s.decode(level, idx);
                assert_eq!(s.state_index(level, a, cfg, k), idx, "level {level}");
            }
        }
    }

    #[test]
    fn cfg_index_lookup() {
        for m_b in 1..=4 {
            let s = ClassStateSpace::new(12, 1, m_b, 1, 1);
            for n in 0..=12 {
                for (i, cfg) in s.cfgs_for(n).iter().enumerate() {
                    assert_eq!(s.cfg_index(n, cfg), i, "n={n} m_b={m_b} {cfg:?}");
                }
            }
        }
    }

    #[test]
    fn moved_configurations_rank_like_the_moved_copy() {
        let s = ClassStateSpace::new(6, 1, 3, 1, 1);
        for n in 0..=5 {
            for cfg in s.cfgs_for(n) {
                for b in 0..3 {
                    let mut up = cfg.clone();
                    up[b] += 1;
                    assert_eq!(
                        s.cfg_index_moved(cfg, None, Some(b)),
                        s.cfg_index(n + 1, &up)
                    );
                    if cfg[b] == 0 {
                        continue;
                    }
                    let mut down = cfg.clone();
                    down[b] -= 1;
                    assert_eq!(
                        s.cfg_index_moved(cfg, Some(b), None),
                        s.cfg_index(n - 1, &down)
                    );
                    for b2 in 0..3 {
                        let mut moved = down.clone();
                        moved[b2] += 1;
                        let got = s.cfg_index_moved(cfg, Some(b), Some(b2));
                        assert_eq!(got, s.cfg_index(n, &moved), "{cfg:?} {b}->{b2}");
                    }
                }
            }
        }
    }

    #[test]
    fn exponential_everything_has_tiny_space() {
        // The paper's Figure 1 setting: m_a = m_b = 1, Erlang-K quantum,
        // single-phase overhead-vacation.
        let s = ClassStateSpace::new(3, 1, 1, 4, 1);
        assert_eq!(s.level_dim(0), 1);
        assert_eq!(s.level_dim(1), 5);
        assert_eq!(s.level_dim(3), 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_phase_count_rejected() {
        let _ = ClassStateSpace::new(2, 1, 1, 0, 1);
    }
}
