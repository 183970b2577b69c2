//! The level-structured QBD generator and its validation.

use crate::{QbdError, Result};
use gsched_linalg::Matrix;
use gsched_markov::scc::CsrDigraph;

/// A continuous-time QBD process with a finite, possibly inhomogeneous
/// boundary — the structure of the paper's eq. (20):
///
/// ```text
///        ⎡ L₀   U₀                                  ⎤
///        ⎢ D₁   L₁   U₁                             ⎥
///        ⎢      D₂   L₂  U₂                         ⎥
///    Q = ⎢           …   …    …                     ⎥
///        ⎢           D_c  L_c  A₀                   ⎥   ← level c (= B̂₁₁ row)
///        ⎢                A₂   A₁   A₀              ⎥
///        ⎣                     A₂   A₁   A₀   …     ⎦
/// ```
///
/// Levels `0..=c` form the *boundary* (sizes `d₀, …, d_c` with `d_c = D`);
/// levels `c+1, c+2, …` repeat with the `D × D` blocks `A₀` (up), `A₁`
/// (local) and `A₂` (down).
#[derive(Debug, Clone)]
pub struct QbdProcess {
    /// `up[i]`: level `i → i+1`, shape `dᵢ × dᵢ₊₁`, for `i ∈ 0..c`.
    pub boundary_up: Vec<Matrix>,
    /// `local[i]`: level `i → i` (with diagonal), shape `dᵢ × dᵢ`, `i ∈ 0..=c`.
    pub boundary_local: Vec<Matrix>,
    /// `down[i]`: level `i → i−1`, shape `dᵢ × dᵢ₋₁`, for `i ∈ 1..=c`.
    pub boundary_down: Vec<Matrix>,
    /// Repeating up block `A₀` (`D × D`), also used from level `c`.
    pub a0: Matrix,
    /// Repeating local block `A₁` (`D × D`), levels `> c`.
    pub a1: Matrix,
    /// Repeating down block `A₂` (`D × D`), levels `> c` (down to `c` too).
    pub a2: Matrix,
}

/// Numerical slack for generator validation.
const VTOL: f64 = 1e-7;

impl QbdProcess {
    /// Validate shapes, sign structure, and zero row sums of the implied
    /// infinite generator.
    pub fn new(
        boundary_up: Vec<Matrix>,
        boundary_local: Vec<Matrix>,
        boundary_down: Vec<Matrix>,
        a0: Matrix,
        a1: Matrix,
        a2: Matrix,
    ) -> Result<QbdProcess> {
        let c = boundary_local.len().checked_sub(1).ok_or_else(|| {
            QbdError::Shape("at least one boundary level (level 0) required".to_string())
        })?;
        if boundary_up.len() != c {
            return Err(QbdError::Shape(format!(
                "expected {} up blocks for {} boundary levels, got {}",
                c,
                c + 1,
                boundary_up.len()
            )));
        }
        if boundary_down.len() != c {
            return Err(QbdError::Shape(format!(
                "expected {} down blocks for {} boundary levels, got {}",
                c,
                c + 1,
                boundary_down.len()
            )));
        }
        let d = a1.rows();
        for (name, m) in [("A0", &a0), ("A1", &a1), ("A2", &a2)] {
            if m.shape() != (d, d) {
                return Err(QbdError::Shape(format!(
                    "{name} must be {d}x{d}, got {}x{}",
                    m.rows(),
                    m.cols()
                )));
            }
        }
        // Level sizes.
        let dims: Vec<usize> = boundary_local.iter().map(|m| m.rows()).collect();
        if dims[c] != d {
            return Err(QbdError::Shape(format!(
                "level c={c} must have the repeating dimension {d}, got {}",
                dims[c]
            )));
        }
        for (i, m) in boundary_local.iter().enumerate() {
            if !m.is_square() {
                return Err(QbdError::Shape(format!("local[{i}] is not square")));
            }
        }
        for (i, m) in boundary_up.iter().enumerate() {
            if m.shape() != (dims[i], dims[i + 1]) {
                return Err(QbdError::Shape(format!(
                    "up[{i}] must be {}x{}, got {}x{}",
                    dims[i],
                    dims[i + 1],
                    m.rows(),
                    m.cols()
                )));
            }
        }
        for (i, m) in boundary_down.iter().enumerate() {
            // boundary_down[i] is the down block out of level i+1.
            if m.shape() != (dims[i + 1], dims[i]) {
                return Err(QbdError::Shape(format!(
                    "down[{}] must be {}x{}, got {}x{}",
                    i + 1,
                    dims[i + 1],
                    dims[i],
                    m.rows(),
                    m.cols()
                )));
            }
        }

        let proc = QbdProcess {
            boundary_up,
            boundary_local,
            boundary_down,
            a0,
            a1,
            a2,
        };
        proc.validate_generator()?;
        Ok(proc)
    }

    /// Index of the first repeating level, `c`.
    pub fn c(&self) -> usize {
        self.boundary_local.len() - 1
    }

    /// Dimension of the repeating levels, `D`.
    pub fn repeating_dim(&self) -> usize {
        self.a1.rows()
    }

    /// Dimension of level `i`.
    pub fn level_dim(&self, i: usize) -> usize {
        self.view().level_dim(i)
    }

    /// Check sign structure and zero row sums level by level.
    fn validate_generator(&self) -> Result<()> {
        let c = self.c();
        let check_nonneg = |name: String, m: &Matrix, skip_diag: bool| -> Result<()> {
            for i in 0..m.rows() {
                for j in 0..m.cols() {
                    if skip_diag && i == j {
                        continue;
                    }
                    if m[(i, j)] < -VTOL {
                        return Err(QbdError::NotGenerator(format!(
                            "{name}[{i},{j}] = {} is negative",
                            m[(i, j)]
                        )));
                    }
                }
            }
            Ok(())
        };
        for (i, m) in self.boundary_local.iter().enumerate() {
            check_nonneg(format!("local[{i}]"), m, true)?;
        }
        for (i, m) in self.boundary_up.iter().enumerate() {
            check_nonneg(format!("up[{i}]"), m, false)?;
        }
        for (i, m) in self.boundary_down.iter().enumerate() {
            check_nonneg(format!("down[{}]", i + 1), m, false)?;
        }
        check_nonneg("A0".to_string(), &self.a0, false)?;
        check_nonneg("A1".to_string(), &self.a1, true)?;
        check_nonneg("A2".to_string(), &self.a2, false)?;

        // Row sums per level.
        if c == 0 {
            check_row_sums("level 0", &[&self.boundary_local[0], &self.a0])?;
        } else {
            check_row_sums("level 0", &[&self.boundary_local[0], &self.boundary_up[0]])?;
            for i in 1..c {
                check_row_sums(
                    &format!("level {i}"),
                    &[
                        &self.boundary_down[i - 1],
                        &self.boundary_local[i],
                        &self.boundary_up[i],
                    ],
                )?;
            }
            check_row_sums(
                &format!("level {c}"),
                &[
                    &self.boundary_down[c - 1],
                    &self.boundary_local[c],
                    &self.a0,
                ],
            )?;
        }
        check_row_sums("repeating level", &[&self.a2, &self.a1, &self.a0])
    }

    /// The whole chain as a borrowed [`LevelView`].
    pub(crate) fn view(&self) -> LevelView<'_> {
        LevelView {
            up: &self.boundary_up,
            local: &self.boundary_local,
            down: &self.boundary_down,
            a0: &self.a0,
            a1: &self.a1,
            a2: &self.a2,
        }
    }

    /// The frozen-capacity truncation of this process at boundary level `m`,
    /// borrowed: nothing is copied.
    ///
    /// The truncated chain's boundary is levels `0..=m` of this process and
    /// its repeating blocks are the level-`m` boundary blocks:
    /// `A₀' = up[m]`, `A₁' = local[m+1]`, `A₂' = down out of m+1`. Above
    /// level `m` the truncated chain keeps the level-`m+1` dynamics forever —
    /// in particular its service capacity is frozen at `m+1` busy partitions
    /// instead of growing to `c`. Fewer departures mean stochastically *more*
    /// jobs: the truncated chain dominates the original, so every tail
    /// probability it reports is an upper bound on the true one. That is the
    /// direction a certified truncation needs (see
    /// [`solution::LevelTruncation`](crate::solution::LevelTruncation)).
    ///
    /// Requires `1 ≤ m < c` and `level_dim(m) == level_dim(m+1)` (the level
    /// sizes must have saturated — true below `c` only when the service
    /// distribution has a single phase). Returns [`QbdError::Shape`]
    /// otherwise; callers using automatic truncation fall back to the full
    /// solve on that error. Levels `0..=m` were validated with the process;
    /// the one new condition, zero row sums of the frozen repeating level,
    /// is checked here ([`QbdError::NotGenerator`] when it fails).
    pub(crate) fn frozen(&self, m: usize) -> Result<LevelView<'_>> {
        let c = self.c();
        if m == 0 || m >= c {
            return Err(QbdError::Shape(format!(
                "truncation level {m} must satisfy 1 <= m < c = {c}"
            )));
        }
        if self.level_dim(m) != self.level_dim(m + 1) {
            return Err(QbdError::Shape(format!(
                "levels {m} and {} differ in size ({} vs {}): cannot truncate",
                m + 1,
                self.level_dim(m),
                self.level_dim(m + 1)
            )));
        }
        let view = LevelView {
            up: &self.boundary_up[..m],
            local: &self.boundary_local[..=m],
            down: &self.boundary_down[..m],
            a0: &self.boundary_up[m],
            a1: &self.boundary_local[m + 1],
            a2: &self.boundary_down[m],
        };
        check_row_sums("repeating level", &[view.a2, view.a1, view.a0])?;
        Ok(view)
    }

    /// The phase-process generator `A = A₀ + A₁ + A₂` of Theorem 4.4.
    pub fn phase_generator(&self) -> Matrix {
        &(&self.a0 + &self.a1) + &self.a2
    }

    /// §4.4 irreducibility check: the finite chain made of the boundary plus
    /// the first two repeating levels must be strongly connected (transitions
    /// above the truncation are dropped; by the repeating structure this is
    /// sufficient).
    pub fn is_irreducible(&self) -> bool {
        self.view().is_irreducible()
    }

    /// Build the generator of the chain truncated at `max_level` (transitions
    /// above are redirected nowhere; the top level keeps its up-rates on the
    /// diagonal as a reflecting approximation). Used for cross-validation
    /// against direct CTMC solves in tests.
    pub fn truncated_generator(&self, max_level: usize) -> Matrix {
        let c = self.c();
        assert!(max_level > c, "truncate above the boundary");
        let dims: Vec<usize> = (0..=max_level).map(|i| self.level_dim(i)).collect();
        let offsets: Vec<usize> = dims
            .iter()
            .scan(0usize, |acc, &d| {
                let o = *acc;
                *acc += d;
                Some(o)
            })
            .collect();
        let n: usize = dims.iter().sum();
        let mut q = Matrix::zeros(n, n);
        let put = |q: &mut Matrix, from: usize, to: usize, m: &Matrix| {
            q.set_block(offsets[from], offsets[to], m);
        };
        for (i, m) in self.boundary_local.iter().enumerate() {
            put(&mut q, i, i, m);
        }
        for (i, m) in self.boundary_up.iter().enumerate() {
            put(&mut q, i, i + 1, m);
        }
        for (i, m) in self.boundary_down.iter().enumerate() {
            put(&mut q, i + 1, i, m);
        }
        for lvl in c..=max_level {
            if lvl > c {
                put(&mut q, lvl, lvl, &self.a1);
                put(&mut q, lvl, lvl - 1, &self.a2);
            }
            if lvl < max_level {
                put(&mut q, lvl, lvl + 1, &self.a0);
            }
        }
        // Reflect: fold the dropped up-rates of the top level into its
        // diagonal so rows still sum to zero (equivalent to rejecting
        // arrivals at the truncation level).
        let top = offsets[max_level];
        let d = dims[max_level];
        for i in 0..d {
            let up_rate: f64 = self.a0.row(i).iter().sum();
            q[(top + i, top + i)] += up_rate;
        }
        q
    }
}

/// Check that each row of the level made of the blocks `parts` sums to zero.
fn check_row_sums(level: &str, parts: &[&Matrix]) -> Result<()> {
    let rows = parts[0].rows();
    for r in 0..rows {
        let total: f64 = parts.iter().map(|m| m.row(r).iter().sum::<f64>()).sum();
        let scale: f64 = parts
            .iter()
            .map(|m| m.row(r).iter().map(|v| v.abs()).sum::<f64>())
            .sum();
        if total.abs() > VTOL * (1.0 + scale) {
            return Err(QbdError::NotGenerator(format!(
                "row {r} of {level} sums to {total}"
            )));
        }
    }
    Ok(())
}

/// A borrowed level-structured chain: boundary levels `0..=c` (`up`,
/// `local`, `down`, laid out as in [`QbdProcess`]) followed by repeating
/// levels with the blocks `a0`, `a1`, `a2`.
///
/// [`QbdProcess::view`] is the process itself; [`QbdProcess::frozen`] is its
/// frozen-capacity truncation at a level `m < c`, which borrows the prefix
/// `0..=m` and the level-`m` blocks. The solve runs on views, so a
/// truncation search never copies the boundary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LevelView<'a> {
    /// `up[i]`: level `i → i+1`, for `i ∈ 0..c`.
    pub(crate) up: &'a [Matrix],
    /// `local[i]`: level `i → i`, for `i ∈ 0..=c`.
    pub(crate) local: &'a [Matrix],
    /// `down[i]`: level `i+1 → i`, for `i ∈ 0..c`.
    pub(crate) down: &'a [Matrix],
    /// Repeating up block, also used from level `c`.
    pub(crate) a0: &'a Matrix,
    /// Repeating local block, levels `> c`.
    pub(crate) a1: &'a Matrix,
    /// Repeating down block, levels `> c`.
    pub(crate) a2: &'a Matrix,
}

impl LevelView<'_> {
    /// Index of the first repeating level, `c`.
    pub(crate) fn c(&self) -> usize {
        self.local.len() - 1
    }

    /// Dimension of level `i`.
    pub(crate) fn level_dim(&self, i: usize) -> usize {
        self.local.get(i).unwrap_or(self.a1).rows()
    }

    /// §4.4 irreducibility check on levels `0..=c+2` (see
    /// [`QbdProcess::is_irreducible`]).
    ///
    /// The positive off-diagonal rates are written straight into a CSR
    /// digraph, one state at a time (down, local, then up block of its
    /// level), and strong connectivity is decided by two reachability passes
    /// — linear in the number of rates, with no per-state allocation.
    pub(crate) fn is_irreducible(&self) -> bool {
        let top = self.c() + 2;
        let local = |l: usize| self.local.get(l).unwrap_or(self.a1);
        let up = |l: usize| self.up.get(l).unwrap_or(self.a0);
        let down = |l: usize| self.down.get(l - 1).unwrap_or(self.a2);
        // offsets[l]: global index of level l's first state.
        let mut offsets = vec![0usize];
        for l in 0..=top {
            offsets.push(offsets[l] + self.level_dim(l));
        }
        let n = offsets[top + 1];
        let mut g = CsrDigraph::with_capacity(n, 4 * n);
        for l in 0..=top {
            // (block, first state of its target level); up-transitions out
            // of the top level are dropped.
            let blocks = [
                (l >= 1).then(|| (down(l), offsets[l - 1])),
                Some((local(l), offsets[l])),
                (l < top).then(|| (up(l), offsets[l + 1])),
            ];
            for u in offsets[l]..offsets[l + 1] {
                let i = u - offsets[l];
                for &(m, base) in blocks.iter().flatten() {
                    for (j, &v) in m.row(i).iter().enumerate() {
                        if v > 0.0 && base + j != u {
                            g.push_edge(base + j);
                        }
                    }
                }
                g.end_vertex();
            }
        }
        g.is_strongly_connected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    /// M/M/1 queue as a trivial QBD: one phase, boundary level 0 only.
    pub(crate) fn mm1(lambda: f64, mu: f64) -> QbdProcess {
        QbdProcess::new(
            vec![],
            vec![Matrix::from_rows(&[&[-lambda]])],
            vec![],
            Matrix::from_rows(&[&[lambda]]),
            Matrix::from_rows(&[&[-(lambda + mu)]]),
            Matrix::from_rows(&[&[mu]]),
        )
        .unwrap()
    }

    /// M/M/2 queue: levels 0,1 boundary (c=2 would be natural; use c=2).
    pub(crate) fn mm2(lambda: f64, mu: f64) -> QbdProcess {
        // Levels: 0 (empty), 1 (one busy), 2+ (both busy). All dims 1.
        QbdProcess::new(
            vec![
                Matrix::from_rows(&[&[lambda]]),
                Matrix::from_rows(&[&[lambda]]),
            ],
            vec![
                Matrix::from_rows(&[&[-lambda]]),
                Matrix::from_rows(&[&[-(lambda + mu)]]),
                Matrix::from_rows(&[&[-(lambda + 2.0 * mu)]]),
            ],
            vec![
                Matrix::from_rows(&[&[mu]]),
                Matrix::from_rows(&[&[2.0 * mu]]),
            ],
            Matrix::from_rows(&[&[lambda]]),
            Matrix::from_rows(&[&[-(lambda + 2.0 * mu)]]),
            Matrix::from_rows(&[&[2.0 * mu]]),
        )
        .unwrap()
    }

    #[test]
    fn mm1_valid() {
        let q = mm1(0.5, 1.0);
        assert_eq!(q.c(), 0);
        assert_eq!(q.repeating_dim(), 1);
        assert!(q.is_irreducible());
    }

    #[test]
    fn mm2_valid() {
        let q = mm2(0.5, 1.0);
        assert_eq!(q.c(), 2);
        assert!(q.is_irreducible());
    }

    #[test]
    fn shape_errors_detected() {
        // Wrong up-block count.
        let e = QbdProcess::new(
            vec![Matrix::zeros(1, 1)],
            vec![Matrix::from_rows(&[&[-1.0]])],
            vec![],
            Matrix::from_rows(&[&[1.0]]),
            Matrix::from_rows(&[&[-2.0]]),
            Matrix::from_rows(&[&[1.0]]),
        );
        assert!(matches!(e, Err(QbdError::Shape(_))));
    }

    #[test]
    fn row_sum_violation_detected() {
        let e = QbdProcess::new(
            vec![],
            vec![Matrix::from_rows(&[&[-1.0]])], // level 0: -1 + A0(=2) = 1 ≠ 0
            vec![],
            Matrix::from_rows(&[&[2.0]]),
            Matrix::from_rows(&[&[-3.0]]),
            Matrix::from_rows(&[&[1.0]]),
        );
        assert!(matches!(e, Err(QbdError::NotGenerator(_))));
    }

    #[test]
    fn negative_rate_detected() {
        let e = QbdProcess::new(
            vec![],
            vec![Matrix::from_rows(&[&[1.0]])], // positive "diagonal" is fine
            vec![],
            Matrix::from_rows(&[&[-1.0]]), // negative up rate
            Matrix::from_rows(&[&[-1.0]]),
            Matrix::from_rows(&[&[1.0]]),
        );
        assert!(matches!(e, Err(QbdError::NotGenerator(_))));
    }

    #[test]
    fn phase_generator_rows_sum_zero() {
        let q = mm2(0.7, 1.0);
        let a = q.phase_generator();
        for rs in a.row_sums() {
            assert!(rs.abs() < 1e-12);
        }
    }

    #[test]
    fn truncated_generator_is_generator() {
        let q = mm2(0.7, 1.0);
        let t = q.truncated_generator(6);
        assert_eq!(t.rows(), 7); // levels 0..=6, one state each
        for rs in t.row_sums() {
            assert!(rs.abs() < 1e-12);
        }
    }

    /// The §4.4 check the long way: adjacency lists over levels `0..=c+2`
    /// and Tarjan's components.
    fn tarjan_irreducible(v: &LevelView<'_>) -> bool {
        let c = v.c();
        let mut offsets = vec![0usize];
        for l in 0..=c + 2 {
            offsets.push(offsets[l] + v.level_dim(l));
        }
        let mut adj = vec![Vec::new(); offsets[c + 3]];
        let mut add = |from: usize, to: usize, m: &Matrix| {
            for i in 0..m.rows() {
                for j in 0..m.cols() {
                    let (a, b) = (offsets[from] + i, offsets[to] + j);
                    if m[(i, j)] > 0.0 && a != b {
                        adj[a].push(b);
                    }
                }
            }
        };
        for (i, m) in v.local.iter().enumerate() {
            add(i, i, m);
        }
        for (i, m) in v.up.iter().enumerate() {
            add(i, i + 1, m);
        }
        for (i, m) in v.down.iter().enumerate() {
            add(i + 1, i, m);
        }
        add(c, c + 1, v.a0);
        for l in [c + 1, c + 2] {
            add(l, l, v.a1);
            add(l, l - 1, v.a2);
        }
        add(c + 1, c + 2, v.a0);
        gsched_markov::tarjan_scc(&adj).len() == 1
    }

    /// A seeded random QBD with `c` boundary levels of random sizes and
    /// repeating dimension `d`; each rate is zero with probability `sparse`,
    /// so sparse draws are often reducible.
    fn random_qbd(rng: &mut StdRng, c: usize, d: usize, sparse: f64) -> QbdProcess {
        let dims: Vec<usize> = (0..=c)
            .map(|i| {
                if i == c {
                    d
                } else {
                    1 + rng.random_below(3) as usize
                }
            })
            .collect();
        let mut block = |r: usize, k: usize| {
            let mut m = Matrix::zeros(r, k);
            for v in m.as_mut_slice() {
                if rng.random::<f64>() >= sparse {
                    *v = 0.1 + rng.random::<f64>();
                }
            }
            m
        };
        let up: Vec<Matrix> = (0..c).map(|i| block(dims[i], dims[i + 1])).collect();
        let down: Vec<Matrix> = (0..c).map(|i| block(dims[i + 1], dims[i])).collect();
        let mut local: Vec<Matrix> = dims.iter().map(|&k| block(k, k)).collect();
        let (a0, mut a1, a2) = (block(d, d), block(d, d), block(d, d));
        // Diagonals close every row: level i leaves by down[i-1], local[i]
        // and up[i] (A₀ at level c); repeating levels by A₂, A₁, A₀.
        let row_out = |m: &Matrix, r: usize| m.row(r).iter().sum::<f64>();
        for (i, l) in local.iter_mut().enumerate() {
            for r in 0..dims[i] {
                l[(r, r)] = 0.0;
                let mut out = row_out(l, r) + row_out(up.get(i).unwrap_or(&a0), r);
                if i >= 1 {
                    out += row_out(&down[i - 1], r);
                }
                l[(r, r)] = -out;
            }
        }
        for r in 0..d {
            a1[(r, r)] = 0.0;
            a1[(r, r)] = -(row_out(&a1, r) + row_out(&a0, r) + row_out(&a2, r));
        }
        QbdProcess::new(up, local, down, a0, a1, a2).unwrap()
    }

    #[test]
    fn irreducibility_agrees_with_tarjan_on_level_structured_chains() {
        let mut rng = StdRng::seed_from_u64(44);
        let (mut irreducible, mut reducible) = (0, 0);
        for trial in 0..400 {
            let c = rng.random_below(6) as usize;
            let d = 1 + rng.random_below(3) as usize;
            let sparse = [0.0, 0.5, 0.7, 0.85][trial % 4];
            let q = random_qbd(&mut rng, c, d, sparse);
            let want = tarjan_irreducible(&q.view());
            assert_eq!(q.is_irreducible(), want, "trial {trial}: {q:?}");
            if want {
                irreducible += 1;
            } else {
                reducible += 1;
            }
        }
        assert!(
            irreducible > 50 && reducible > 50,
            "{irreducible} vs {reducible}"
        );
        // Frozen truncations of the M/M/c-like chains, too.
        let q = mm2(0.5, 1.0);
        let frozen = q.frozen(1).unwrap();
        assert!(frozen.is_irreducible());
        assert_eq!(frozen.is_irreducible(), tarjan_irreducible(&frozen));
    }

    #[test]
    fn frozen_level_must_be_a_generator() {
        // Arrivals speed up from level 3 on: up[2] = λ but up[3] = 2λ, so
        // freezing at m = 2 (repeating A₀' = up[2], A₁' = local[3]) leaves
        // the repeating rows summing to −λ.
        let (lambda, mu, c) = (0.5, 1.0, 5usize);
        let rate = |i: usize| if i >= 3 { 2.0 * lambda } else { lambda };
        let q = QbdProcess::new(
            (0..c).map(|i| Matrix::from_rows(&[&[rate(i)]])).collect(),
            (0..=c)
                .map(|i| Matrix::from_rows(&[&[-(rate(i) + i as f64 * mu)]]))
                .collect(),
            (1..=c)
                .map(|i| Matrix::from_rows(&[&[i as f64 * mu]]))
                .collect(),
            Matrix::from_rows(&[&[rate(c)]]),
            Matrix::from_rows(&[&[-(rate(c) + c as f64 * mu)]]),
            Matrix::from_rows(&[&[c as f64 * mu]]),
        )
        .unwrap();
        assert!(q.frozen(1).is_ok());
        assert!(q.frozen(3).is_ok());
        assert!(matches!(q.frozen(2), Err(QbdError::NotGenerator(_))));
        use crate::solution::{LevelTruncation, SolveOptions};
        let fixed = SolveOptions {
            truncation: LevelTruncation::Fixed { level: 2 },
            ..Default::default()
        };
        assert!(matches!(q.solve(&fixed), Err(QbdError::NotGenerator(_))));
        // The search meets the bad level on its way up (m = 1, then 2).
        let auto = SolveOptions {
            truncation: LevelTruncation::Auto {
                target_tail: 1e-300,
                min_levels: 1,
            },
            ..Default::default()
        };
        assert!(matches!(q.solve(&auto), Err(QbdError::NotGenerator(_))));
    }

    #[test]
    fn reducible_detected() {
        // Up rate zero: can never leave level 0 upward -> truncated graph
        // not strongly connected.
        let q = QbdProcess::new(
            vec![],
            vec![Matrix::from_rows(&[&[0.0]])],
            vec![],
            Matrix::from_rows(&[&[0.0]]),
            Matrix::from_rows(&[&[-1.0]]),
            Matrix::from_rows(&[&[1.0]]),
        )
        .unwrap();
        assert!(!q.is_irreducible());
    }
}
