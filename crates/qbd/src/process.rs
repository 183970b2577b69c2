//! The level-structured QBD generator and its validation.

use crate::stability::{drift_condition, DriftReport};
use crate::{QbdError, Result};
use gsched_linalg::Matrix;
use gsched_obs as obs;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

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
///
/// The boundary levels are memoised cells. [`QbdProcess::new`] fills every
/// cell up front; [`QbdProcess::on_demand`] leaves them to a
/// [`LevelSource`], which [`QbdProcess::build_levels`] asks for the missing
/// levels of a prefix `0..=top` in one batch. A level is checked for sign
/// structure and zero row sums when it is built, so a solve that never
/// reads a level never builds or checks it.
#[derive(Debug, Clone)]
pub struct QbdProcess {
    /// Size of each boundary level `0..=c`.
    dims: Vec<usize>,
    /// The blocks out of each boundary level, once built and checked.
    levels: Vec<OnceLock<LevelBlocks>>,
    /// Builds missing levels; `None` when every level was given up front.
    source: Option<Arc<dyn LevelSource>>,
    /// Repeating up block `A₀` (`D × D`), also used from level `c`.
    pub a0: Matrix,
    /// Repeating local block `A₁` (`D × D`), levels `> c`.
    pub a1: Matrix,
    /// Repeating down block `A₂` (`D × D`), levels `> c` (down to `c` too).
    pub a2: Matrix,
}

/// The blocks out of boundary level `i`.
#[derive(Debug, Clone)]
pub struct LevelBlocks {
    /// Level `i → i−1`, shape `dᵢ × dᵢ₋₁`; present exactly when `i ≥ 1`.
    pub down: Option<Matrix>,
    /// Level `i → i` (with diagonal), shape `dᵢ × dᵢ`.
    pub local: Matrix,
    /// Level `i → i+1`, shape `dᵢ × dᵢ₊₁`; present exactly when `i < c`
    /// (level `c` goes up by `A₀`).
    pub up: Option<Matrix>,
}

/// Builds the boundary levels of a [`QbdProcess::on_demand`] process.
pub trait LevelSource: fmt::Debug + Send + Sync {
    /// Build the blocks of each level in `levels`, in increasing order, and
    /// hand each to `accept` as soon as it is built; return the first error
    /// `accept` returns. One call is one batch: an implementation may time
    /// it as a whole.
    fn build(
        &self,
        levels: Range<usize>,
        accept: &mut dyn FnMut(usize, LevelBlocks) -> Result<()>,
    ) -> Result<()>;
}

/// Numerical slack for generator validation.
const VTOL: f64 = 1e-7;

impl QbdProcess {
    /// A process with every boundary level given up front: `up[i]` for
    /// `i ∈ 0..c`, `local[i]` for `i ∈ 0..=c` and `down[i]` (the block out
    /// of level `i+1`) for `i ∈ 0..c`. Validates shapes, sign structure and
    /// zero row sums of the implied infinite generator.
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
        let dims = boundary_local.iter().map(Matrix::rows).collect();
        let proc = QbdProcess::with_repeating(dims, a0, a1, a2, None)?;
        let mut ups = boundary_up.into_iter();
        let mut downs = boundary_down.into_iter();
        for (i, local) in boundary_local.into_iter().enumerate() {
            let blocks = LevelBlocks {
                down: if i >= 1 { downs.next() } else { None },
                local,
                up: if i < c { ups.next() } else { None },
            };
            proc.check_level(i, &blocks)?;
            let _ = proc.levels[i].set(blocks);
        }
        Ok(proc)
    }

    /// A process whose boundary levels are built by `source` when first
    /// read. Only the level sizes `dims` (`d₀, …, d_c`) and the repeating
    /// blocks are given, and only they are checked here; each level is
    /// checked when it is built.
    pub fn on_demand(
        dims: Vec<usize>,
        a0: Matrix,
        a1: Matrix,
        a2: Matrix,
        source: Arc<dyn LevelSource>,
    ) -> Result<QbdProcess> {
        QbdProcess::with_repeating(dims, a0, a1, a2, Some(source))
    }

    /// An empty-celled process with checked repeating blocks.
    fn with_repeating(
        dims: Vec<usize>,
        a0: Matrix,
        a1: Matrix,
        a2: Matrix,
        source: Option<Arc<dyn LevelSource>>,
    ) -> Result<QbdProcess> {
        let Some(&top) = dims.last() else {
            return Err(QbdError::Shape(
                "at least one boundary level (level 0) required".to_string(),
            ));
        };
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
        if top != d {
            return Err(QbdError::Shape(format!(
                "level c={} must have the repeating dimension {d}, got {top}",
                dims.len() - 1
            )));
        }
        check_nonneg(|| "A0".to_string(), &a0, false)?;
        check_nonneg(|| "A1".to_string(), &a1, true)?;
        check_nonneg(|| "A2".to_string(), &a2, false)?;
        check_row_sums(|| "repeating level".to_string(), &[&a2, &a1, &a0])?;
        Ok(QbdProcess {
            levels: (0..dims.len()).map(|_| OnceLock::new()).collect(),
            dims,
            source,
            a0,
            a1,
            a2,
        })
    }

    /// Index of the first repeating level, `c`.
    pub fn c(&self) -> usize {
        self.dims.len() - 1
    }

    /// Dimension of the repeating levels, `D`.
    pub fn repeating_dim(&self) -> usize {
        self.a1.rows()
    }

    /// Dimension of level `i`.
    pub fn level_dim(&self, i: usize) -> usize {
        self.dims.get(i).copied().unwrap_or(self.a1.rows())
    }

    /// Build and check, in one batch, every level of `0..=min(top, c)` that
    /// is not built yet. Each level built counts once under
    /// `qbd.boundary.levels_built`.
    pub fn build_levels(&self, top: usize) -> Result<()> {
        let top = top.min(self.c());
        let Some(first) = (0..=top).find(|&i| self.levels[i].get().is_none()) else {
            return Ok(());
        };
        let source = self
            .source
            .as_ref()
            .expect("a process without a level source has every level");
        let mut built = 0;
        let result = source.build(first..top + 1, &mut |i, blocks| {
            if self.levels[i].get().is_none() {
                built += 1;
                self.check_level(i, &blocks)?;
                let _ = self.levels[i].set(blocks);
            }
            Ok(())
        });
        obs::counter_add(obs::names::QBD_BOUNDARY_LEVELS_BUILT, built);
        result
    }

    /// Level `i`'s blocks. Panics when level `i ≤ c` is not built yet: call
    /// [`build_levels`](Self::build_levels) first.
    fn level(&self, i: usize) -> &LevelBlocks {
        self.levels[i]
            .get()
            .unwrap_or_else(|| panic!("boundary level {i} read before it was built"))
    }

    /// The local block of level `i` (`A₁` above `c`). Level `i` must be
    /// built when `i ≤ c`.
    pub fn local(&self, i: usize) -> &Matrix {
        if i <= self.c() {
            &self.level(i).local
        } else {
            &self.a1
        }
    }

    /// The up block out of level `i` (`A₀` from `c` on). Level `i` must be
    /// built when `i < c`.
    pub fn up(&self, i: usize) -> &Matrix {
        if i < self.c() {
            self.level(i).up.as_ref().expect("checked when built")
        } else {
            &self.a0
        }
    }

    /// The down block out of level `i ≥ 1` (`A₂` above `c`). Level `i` must
    /// be built when `i ≤ c`.
    pub fn down(&self, i: usize) -> &Matrix {
        assert!(i >= 1, "level 0 has no down block");
        if i <= self.c() {
            self.level(i).down.as_ref().expect("checked when built")
        } else {
            &self.a2
        }
    }

    /// Check the shapes, sign structure and zero row sums of level `i`'s
    /// blocks.
    ///
    /// After the shape checks one fused scan per row decides the sign and
    /// row-sum checks together ([`level_is_generator`]). Only a level it
    /// rejects runs the separate checks, in their order, to name the first
    /// fault: every verdict and message is theirs.
    fn check_level(&self, i: usize, b: &LevelBlocks) -> Result<()> {
        self.check_level_shapes(i, b)?;
        let up = b.up.as_ref().unwrap_or(&self.a0);
        if level_is_generator(b.down.as_ref(), &b.local, up) {
            return Ok(());
        }
        self.check_level_entries(i, b)
    }

    /// The shape checks of [`check_level`](Self::check_level). Block names
    /// are formatted only for an error.
    fn check_level_shapes(&self, i: usize, b: &LevelBlocks) -> Result<()> {
        let c = self.c();
        let dim = self.dims[i];
        if b.local.shape() != (dim, dim) {
            return Err(QbdError::Shape(format!(
                "local[{i}] must be {dim}x{dim}, got {}x{}",
                b.local.rows(),
                b.local.cols()
            )));
        }
        // `present`: whether level `i` has this block; `to`: its target level.
        let neighbour =
            |name: &str, block: Option<&Matrix>, present: bool, to: usize| match (block, present) {
                (Some(m), true) if m.shape() != (dim, self.dims[to]) => {
                    Err(QbdError::Shape(format!(
                        "{name}[{i}] must be {dim}x{}, got {}x{}",
                        self.dims[to],
                        m.rows(),
                        m.cols()
                    )))
                }
                (Some(_), true) | (None, false) => Ok(()),
                _ => Err(QbdError::Shape(format!(
                    "level {i} of {} must have {} {name} block",
                    c + 1,
                    if present { "a" } else { "no" }
                ))),
            };
        neighbour("up", b.up.as_ref(), i < c, i + 1)?;
        neighbour("down", b.down.as_ref(), i >= 1, i.saturating_sub(1))
    }

    /// The sign and row-sum checks of [`check_level`](Self::check_level),
    /// one block at a time, returning the first fault. Block names are
    /// formatted only for an error.
    fn check_level_entries(&self, i: usize, b: &LevelBlocks) -> Result<()> {
        check_nonneg(|| format!("local[{i}]"), &b.local, true)?;
        if let Some(up) = &b.up {
            check_nonneg(|| format!("up[{i}]"), up, false)?;
        }
        if let Some(down) = &b.down {
            check_nonneg(|| format!("down[{i}]"), down, false)?;
        }
        let up = b.up.as_ref().unwrap_or(&self.a0);
        let name = || format!("level {i}");
        match &b.down {
            Some(down) => check_row_sums(name, &[down, &b.local, up]),
            None => check_row_sums(name, &[&b.local, up]),
        }
    }

    /// The whole chain as a borrowed [`LevelView`], every level built.
    pub(crate) fn view(&self) -> Result<LevelView<'_>> {
        self.build_levels(self.c())?;
        Ok(LevelView {
            q: self,
            c: self.c(),
            a0: &self.a0,
            a1: &self.a1,
            a2: &self.a2,
        })
    }

    /// The frozen-capacity truncation of this process at boundary level `m`,
    /// borrowed: nothing is copied, and only levels `0..=m+1` are built.
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
    /// otherwise, before any level is built; callers using automatic
    /// truncation fall back to the full solve on that error. Levels
    /// `0..=m+1` are checked as they are built; the one new condition, zero
    /// row sums of the frozen repeating level, is checked here
    /// ([`QbdError::NotGenerator`] when it fails).
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
        self.build_levels(m + 1)?;
        let view = LevelView {
            q: self,
            c: m,
            a0: self.up(m),
            a1: self.local(m + 1),
            a2: self.down(m + 1),
        };
        check_row_sums(
            || "repeating level".to_string(),
            &[view.a2, view.a1, view.a0],
        )?;
        Ok(view)
    }

    /// The phase-process generator `A = A₀ + A₁ + A₂` of Theorem 4.4.
    pub fn phase_generator(&self) -> Matrix {
        &(&self.a0 + &self.a1) + &self.a2
    }

    /// Build the generator of the chain truncated at `max_level` (transitions
    /// above are redirected nowhere; the top level keeps its up-rates on the
    /// diagonal as a reflecting approximation). Used for cross-validation
    /// against direct CTMC solves in tests. Builds every boundary level.
    pub fn truncated_generator(&self, max_level: usize) -> Result<Matrix> {
        let c = self.c();
        assert!(max_level > c, "truncate above the boundary");
        self.build_levels(c)?;
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
        for lvl in 0..=max_level {
            q.set_block(offsets[lvl], offsets[lvl], self.local(lvl));
            if lvl >= 1 {
                q.set_block(offsets[lvl], offsets[lvl - 1], self.down(lvl));
            }
            if lvl < max_level {
                q.set_block(offsets[lvl], offsets[lvl + 1], self.up(lvl));
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
        Ok(q)
    }
}

/// The drift test (Theorem 4.4) on the repeating blocks `a0`, `a1`, `a2`.
pub(crate) fn drift(a0: &Matrix, a1: &Matrix, a2: &Matrix) -> Result<DriftReport> {
    let _span = obs::span("qbd.drift");
    drift_condition(a0, a1, a2)
}

/// Check that `m` has no negative entry (off the diagonal when
/// `skip_diag`); `name` is formatted only for the error.
fn check_nonneg(name: impl FnOnce() -> String, m: &Matrix, skip_diag: bool) -> Result<()> {
    for i in 0..m.rows() {
        for (j, &v) in m.row(i).iter().enumerate() {
            if v < -VTOL && !(skip_diag && i == j) {
                return Err(QbdError::NotGenerator(format!(
                    "{}[{i},{j}] = {v} is negative",
                    name()
                )));
            }
        }
    }
    Ok(())
}

/// Check that each row of the level made of the blocks `parts` sums to
/// zero; `level` is formatted only for the error.
fn check_row_sums(level: impl FnOnce() -> String, parts: &[&Matrix]) -> Result<()> {
    let rows = parts[0].rows();
    for r in 0..rows {
        let total: f64 = parts.iter().map(|m| m.row(r).iter().sum::<f64>()).sum();
        let scale: f64 = parts
            .iter()
            .map(|m| m.row(r).iter().map(|v| v.abs()).sum::<f64>())
            .sum();
        if total.abs() > VTOL * (1.0 + scale) {
            return Err(QbdError::NotGenerator(format!(
                "row {r} of {} sums to {total}",
                level()
            )));
        }
    }
    Ok(())
}

/// Whether the level made of the blocks `down` (when present), `local` and
/// `up` passes [`check_nonneg`] on each block (off the diagonal of `local`)
/// and [`check_row_sums`], decided in one scan per row with their
/// comparisons and their summation order.
fn level_is_generator(down: Option<&Matrix>, local: &Matrix, up: &Matrix) -> bool {
    (0..local.rows()).all(|r| {
        let (mut total, mut scale) = (0.0, 0.0);
        for (block, diag) in [(down, None), (Some(local), Some(r)), (Some(up), None)] {
            let Some(block) = block else { continue };
            let (mut sum, mut abs) = (0.0, 0.0);
            for (j, &v) in block.row(r).iter().enumerate() {
                if v < -VTOL && diag != Some(j) {
                    return false;
                }
                sum += v;
                abs += v.abs();
            }
            total += sum;
            scale += abs;
        }
        // `>` as in `check_row_sums`, so a NaN row passes both alike.
        let fails = total.abs() > VTOL * (1.0 + scale);
        !fails
    })
}

/// A borrowed level-structured chain: boundary levels `0..=c` of a
/// [`QbdProcess`], all built, followed by repeating levels with the blocks
/// `a0`, `a1`, `a2`.
///
/// [`QbdProcess::view`] is the process itself; [`QbdProcess::frozen`] is its
/// frozen-capacity truncation at a level `m < c`, which borrows the prefix
/// `0..=m` and the level-`m` blocks. The solve runs on views, so a
/// truncation search never copies the boundary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LevelView<'a> {
    /// The process whose boundary levels `0..=c` this view reads: for
    /// `i ≤ c`, `q.local(i)`, `q.down(i)` and `q.up(i)` are the view's
    /// blocks, `q.up(c)` being `a0`.
    pub(crate) q: &'a QbdProcess,
    /// Index of the view's first repeating level.
    c: usize,
    /// Repeating up block, also used from level `c`.
    pub(crate) a0: &'a Matrix,
    /// Repeating local block, levels `> c`.
    pub(crate) a1: &'a Matrix,
    /// Repeating down block, levels `> c`.
    pub(crate) a2: &'a Matrix,
}

impl<'a> LevelView<'a> {
    /// Index of the first repeating level, `c`.
    pub(crate) fn c(&self) -> usize {
        self.c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn mm2_valid() {
        let q = mm2(0.5, 1.0);
        assert_eq!(q.c(), 2);
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
        let t = q.truncated_generator(6).unwrap();
        assert_eq!(t.rows(), 7); // levels 0..=6, one state each
        for rs in t.row_sums() {
            assert!(rs.abs() < 1e-12);
        }
    }

    #[test]
    fn reducible_detected() {
        // No solve checks §4.4, but the drift test's GTH still refuses a
        // reducible phase process: phase 1 is left at rate 3 and never
        // entered, so A = A₀ + A₁ + A₂ has two components.
        let (lambda, mu) = (0.5, 1.0);
        let diag = |r: f64| Matrix::from_rows(&[&[r, 0.0], &[0.0, r]]);
        let leave = |out: f64| Matrix::from_rows(&[&[-out, 0.0], &[3.0, -(out + 3.0)]]);
        let q = QbdProcess::new(
            vec![],
            vec![leave(lambda)],
            vec![],
            diag(lambda),
            leave(lambda + mu),
            diag(mu),
        )
        .unwrap();
        assert_eq!(
            q.solve(&crate::solution::SolveOptions::default())
                .unwrap_err(),
            QbdError::Markov(gsched_markov::MarkovError::NotIrreducible)
        );
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

    /// M/M/c as a QBD with one state per level.
    fn mmc(lambda: f64, mu: f64, c: usize) -> QbdProcess {
        let rate = |i: usize| Matrix::from_rows(&[&[i as f64 * mu]]);
        let local = |i: usize| Matrix::from_rows(&[&[-(lambda + i as f64 * mu)]]);
        let arrive = || Matrix::from_rows(&[&[lambda]]);
        QbdProcess::new(
            (0..c).map(|_| arrive()).collect(),
            (0..=c).map(local).collect(),
            (1..=c).map(rate).collect(),
            arrive(),
            local(c),
            rate(c),
        )
        .unwrap()
    }

    /// A level source handing out given blocks and logging the levels it
    /// builds.
    #[derive(Debug)]
    struct Logged {
        levels: Vec<LevelBlocks>,
        built: std::sync::Mutex<Vec<usize>>,
    }

    impl LevelSource for Logged {
        fn build(
            &self,
            levels: Range<usize>,
            accept: &mut dyn FnMut(usize, LevelBlocks) -> Result<()>,
        ) -> Result<()> {
            for i in levels {
                self.built.lock().unwrap().push(i);
                accept(i, self.levels[i].clone())?;
            }
            Ok(())
        }
    }

    /// `q`'s blocks, with `edit` applied to them, as an on-demand process
    /// and its source.
    fn on_demand(
        q: &QbdProcess,
        edit: impl FnOnce(&mut [LevelBlocks]),
    ) -> (QbdProcess, Arc<Logged>) {
        q.build_levels(q.c()).unwrap();
        let mut levels: Vec<LevelBlocks> =
            q.levels.iter().map(|l| l.get().unwrap().clone()).collect();
        edit(&mut levels);
        let source = Arc::new(Logged {
            levels,
            built: Default::default(),
        });
        let lazy = QbdProcess::on_demand(
            q.dims.clone(),
            q.a0.clone(),
            q.a1.clone(),
            q.a2.clone(),
            source.clone(),
        )
        .unwrap();
        (lazy, source)
    }

    /// The same blocks as an eager process, or the error its validation
    /// finds.
    fn eager(levels: &[LevelBlocks], q: &QbdProcess) -> Result<QbdProcess> {
        QbdProcess::new(
            levels.iter().filter_map(|l| l.up.clone()).collect(),
            levels.iter().map(|l| l.local.clone()).collect(),
            levels.iter().filter_map(|l| l.down.clone()).collect(),
            q.a0.clone(),
            q.a1.clone(),
            q.a2.clone(),
        )
    }

    /// An environment-modulated M/M/3 with two states per level and dyadic
    /// rates, so every row sum is exact.
    fn env_mm3() -> QbdProcess {
        let (lambdas, switch, c) = ([0.5, 2.0], 0.25, 3);
        let diag = |a: f64, b: f64| Matrix::from_rows(&[&[a, 0.0], &[0.0, b]]);
        let local = |i: usize| {
            let svc = i.min(c) as f64;
            Matrix::from_rows(&[
                &[-(lambdas[0] + svc + switch), switch],
                &[switch, -(lambdas[1] + svc + switch)],
            ])
        };
        let up = diag(lambdas[0], lambdas[1]);
        let down = |i: usize| diag(i as f64, i as f64);
        QbdProcess::new(
            vec![up.clone(); c],
            (0..=c).map(local).collect(),
            (1..=c).map(down).collect(),
            up,
            local(c),
            down(c),
        )
        .unwrap()
    }

    #[test]
    fn fused_level_check_keeps_every_verdict_and_message() {
        let q = env_mm3();
        let level = |i: usize| q.levels[i].get().unwrap().clone();
        // The checks one block at a time, in their order: what the fused
        // scan must agree with.
        let separate = |i: usize, b: &LevelBlocks| {
            q.check_level_shapes(i, b)
                .and_then(|()| q.check_level_entries(i, b))
        };
        for i in 0..=q.c() {
            assert_eq!(q.check_level(i, &level(i)), Ok(()), "level {i}");
            assert_eq!(separate(i, &level(i)), Ok(()), "level {i}");
        }
        let shape = |m: &str| QbdError::Shape(m.to_string());
        let sign = |m: &str| QbdError::NotGenerator(m.to_string());
        type Break = (fn(&mut LevelBlocks), QbdError);
        let breaks: [Break; 9] = [
            (
                |l| l.local[(0, 1)] = -0.5,
                sign("local[2][0,1] = -0.5 is negative"),
            ),
            (
                |l| l.up.as_mut().unwrap()[(1, 1)] = -1.0,
                sign("up[2][1,1] = -1 is negative"),
            ),
            (
                |l| l.down.as_mut().unwrap()[(1, 0)] = -2.0,
                sign("down[2][1,0] = -2 is negative"),
            ),
            (
                |l| l.local[(1, 1)] -= 0.25,
                sign("row 1 of level 2 sums to -0.25"),
            ),
            (
                |l| l.local = Matrix::zeros(3, 3),
                shape("local[2] must be 2x2, got 3x3"),
            ),
            (|l| l.up = None, shape("level 2 of 4 must have a up block")),
            (
                |l| l.down = Some(Matrix::zeros(2, 1)),
                shape("down[2] must be 2x2, got 2x1"),
            ),
            // Two faults at once: the first in the separate checks' order
            // names the level.
            (
                |l| {
                    l.down.as_mut().unwrap()[(0, 0)] = -2.0;
                    l.local[(1, 0)] = -0.5;
                },
                sign("local[2][1,0] = -0.5 is negative"),
            ),
            (
                |l| {
                    l.local[(0, 0)] += 1.0;
                    l.up.as_mut().unwrap()[(1, 0)] = -4.0;
                },
                sign("up[2][1,0] = -4 is negative"),
            ),
        ];
        for (brk, want) in breaks {
            let mut b = level(2);
            brk(&mut b);
            assert_eq!(q.check_level(2, &b), Err(want.clone()));
            assert_eq!(separate(2, &b), Err(want));
        }
        // Level c goes up by A₀: a row-sum fault there names the level too.
        let mut top = level(3);
        top.local[(0, 0)] += 0.5;
        let want = sign("row 0 of level 3 sums to 0.5");
        assert_eq!(q.check_level(3, &top), Err(want.clone()));
        assert_eq!(separate(3, &top), Err(want));
    }

    #[test]
    fn a_search_builds_each_level_it_reads_once() {
        use crate::solution::{LevelTruncation, SolveOptions};
        let q = mmc(8.0, 1.0, 64);
        let (lazy, source) = on_demand(&q, |_| {});
        let auto = SolveOptions {
            truncation: LevelTruncation::Auto {
                target_tail: 1e-9,
                min_levels: 4,
            },
            ..Default::default()
        };
        let got = lazy.solve(&auto).unwrap();
        let want = q.solve(&auto).unwrap();
        let m = got.truncation().expect("certified").level;
        assert_eq!(want.truncation().unwrap().level, m);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (g, w) in got.boundary().iter().zip(want.boundary()) {
            assert_eq!(bits(g), bits(w));
        }
        // Levels 0..=m+1 of the last cut, each built once, in order.
        assert_eq!(
            *source.built.lock().unwrap(),
            (0..=m + 1).collect::<Vec<_>>()
        );
        // The full solve builds the rest, and a second one builds nothing.
        lazy.solve(&SolveOptions::default()).unwrap();
        lazy.solve(&SolveOptions::default()).unwrap();
        assert_eq!(*source.built.lock().unwrap(), (0..=64).collect::<Vec<_>>());
    }

    #[test]
    fn a_broken_level_fails_when_it_is_built_as_eagerly() {
        use crate::solution::{LevelTruncation, SolveOptions};
        let q = mmc(8.0, 1.0, 64);
        let auto = SolveOptions {
            truncation: LevelTruncation::Auto {
                target_tail: 1e-9,
                min_levels: 4,
            },
            ..Default::default()
        };
        let breaks: [fn(&mut LevelBlocks); 3] = [
            |l| l.up.as_mut().unwrap()[(0, 0)] = -8.0,
            |l| l.down.as_mut().unwrap()[(0, 0)] = -60.0,
            |l| l.local[(0, 0)] *= 2.0,
        ];
        for brk in breaks {
            let (lazy, _) = on_demand(&q, |levels| brk(&mut levels[60]));
            // The search certifies below level 59 and never reads level 60.
            let sol = lazy.solve(&auto).unwrap();
            assert!(sol.truncation().unwrap().level + 1 < 60);
            // The full solve reads it and fails as the eager check does.
            let err = lazy.solve(&SolveOptions::default()).unwrap_err();
            let (_, source) = on_demand(&q, |levels| brk(&mut levels[60]));
            let want = eager(&source.levels, &q).unwrap_err();
            assert!(matches!(err, QbdError::NotGenerator(_)), "{err}");
            assert_eq!(err, want);
        }
    }
}
