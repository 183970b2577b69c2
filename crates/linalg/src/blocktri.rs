//! Block-tridiagonal LU for level-structured chains.
//!
//! Eliminating the levels of a block-tridiagonal `M` upward,
//! `S_0 = M_00`, `V_j = M_{j,j−1} S_{j−1}⁻¹`, `S_j = M_jj − V_j M_{j−1,j}`,
//! costs `O(Σ b_j³)` for level orders `b_j` instead of `O((Σ b_j)³)`, and
//! never forms `M`. Each `S_j` is factored like [`Lu`](crate::Lu), with
//! partial pivoting; a zero or non-finite pivot is
//! [`LinalgError::Singular`](crate::LinalgError::Singular).

use crate::counters::record_matmul;
use crate::lu::{factor_in_place, solve_left_in_place};
use crate::Result;

/// `M` factored level by level into flat buffers, one allocation each.
#[derive(Debug, Clone)]
pub struct BlockTridiagonalLu {
    /// Level orders `b_j`.
    dims: Vec<usize>,
    /// The packed `L\U` factors of each `S_j`, row-major, and their pivots.
    lu: Vec<f64>,
    piv: Vec<usize>,
    /// `M_{j,j+1}` for every level but the last.
    up: Vec<f64>,
    /// `V_j` for every level but the first, at the offset of `M_{j−1,j}`.
    down: Vec<f64>,
}

impl BlockTridiagonalLu {
    /// Factor the matrix whose levels have orders `dims` (each at least 1).
    /// `fill(j, diag, down, up)` writes `M_jj`, `M_{j,j−1}` and `M_{j,j+1}`
    /// row-major into zeroed slices (`down` is empty at the first level, `up`
    /// at the last).
    pub fn new(
        dims: &[usize],
        mut fill: impl FnMut(usize, &mut [f64], &mut [f64], &mut [f64]),
    ) -> Result<BlockTridiagonalLu> {
        let cross = dims.windows(2).map(|p| p[0] * p[1]).sum();
        let mut lu = vec![0.0; dims.iter().map(|b| b * b).sum()];
        let mut piv = vec![0; dims.iter().sum()];
        let (mut up, mut down) = (vec![0.0; cross], vec![0.0; cross]);
        let (mut at_s, mut at_p, mut at_u, mut prev) = (0, 0, 0, 0);
        for (j, &b) in dims.iter().enumerate() {
            let next = dims.get(j + 1).map_or(0, |n| b * n);
            let (s_done, s) = lu.split_at_mut(at_s);
            let (p_done, p) = piv.split_at_mut(at_p);
            let (u_done, u) = up.split_at_mut(at_u);
            let (s, v) = (&mut s[..b * b], &mut down[at_u - prev * b..at_u]);
            fill(j, s, v, &mut u[..next]);
            if j > 0 {
                let (s_prev, p_prev) = (&s_done[at_s - prev * prev..], &p_done[at_p - prev..]);
                for row in v.chunks_exact_mut(prev) {
                    solve_left_in_place(s_prev, p_prev, row);
                }
                record_matmul(b, b, prev);
                sub_product(v, &u_done[at_u - prev * b..], s, prev);
            }
            factor_in_place(s, &mut p[..b])?;
            (at_s, at_p, at_u, prev) = (at_s + b * b, at_p + b, at_u + next, b);
        }
        let dims = dims.to_vec();
        Ok(BlockTridiagonalLu {
            dims,
            lu,
            piv,
            up,
            down,
        })
    }

    /// Overwrite the row vector `x` (of length `Σ b_j`) with `x M⁻¹`.
    pub fn solve_left(&self, x: &mut [f64]) {
        // Forward: z_j = (x_j − z_{j−1} M_{j−1,j}) S_j⁻¹ ...
        let (mut at_x, mut at_s, mut at_u, mut prev) = (0, 0, 0, 0);
        for (j, &b) in self.dims.iter().enumerate() {
            let (z_prev, xj) = x.split_at_mut(at_x);
            let xj = &mut xj[..b];
            let u = &self.up[at_u - prev * b..at_u];
            sub_product(&z_prev[at_x - prev..], u, xj, prev);
            let piv = &self.piv[at_x..at_x + b];
            solve_left_in_place(&self.lu[at_s..at_s + b * b], piv, xj);
            let next = self.dims.get(j + 1).map_or(0, |n| b * n);
            (at_x, at_s, at_u, prev) = (at_x + b, at_s + b * b, at_u + next, b);
        }
        // ... then backward: x_j = z_j − x_{j+1} V_{j+1}.
        for p in self.dims.windows(2).rev() {
            let (b, next) = (p[0], p[1]);
            at_u -= b * next;
            let (head, tail) = x.split_at_mut(at_x - next);
            let v = &self.down[at_u..at_u + next * b];
            sub_product(&tail[..next], v, &mut head[at_x - next - b..], next);
            at_x -= next;
        }
    }
}

/// `c −= a·b` for row-major `a` (`m × k`), `b` (`k × n`) and `c` (`m × n`).
fn sub_product(a: &[f64], b: &[f64], c: &mut [f64], k: usize) {
    if b.is_empty() {
        return;
    }
    let n = b.len() / k;
    for (c_row, a_row) in c.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
        for (&f, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            if f != 0.0 {
                c_row.iter_mut().zip(b_row).for_each(|(c, &b)| *c -= f * b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinalgError, Lu, Matrix};

    /// Level blocks of orders `dims` with random off-diagonal rates and a
    /// diagonal that dominates each row, like `−T` of a transient chain.
    fn level_matrix(dims: &[usize]) -> (Vec<usize>, Matrix) {
        let mut starts = vec![0];
        for b in dims {
            starts.push(starts.last().unwrap() + b);
        }
        let n = starts[dims.len()];
        let mut m = Matrix::zeros(n, n);
        let mut seed = 7u64;
        let mut rand = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for j in 0..dims.len() {
            let cols = starts[j.saturating_sub(1)]..starts[(j + 2).min(dims.len())];
            for r in starts[j]..starts[j + 1] {
                let mut out = 0.0;
                for c in cols.clone().filter(|&c| c != r) {
                    if rand() < 0.6 {
                        m[(r, c)] = -rand();
                        out -= m[(r, c)];
                    }
                }
                m[(r, r)] = out + 0.05 + rand();
            }
        }
        (starts, m)
    }

    #[test]
    fn matches_a_dense_left_solve() {
        for dims in [vec![3], vec![1, 2, 3, 3, 3, 2], vec![4, 1, 5], vec![2; 9]] {
            let (starts, m) = level_matrix(&dims);
            let lu = BlockTridiagonalLu::new(&dims, |j, diag, down, up| {
                let copy = |dst: &mut [f64], level: usize| {
                    let width = dims[level];
                    for (i, v) in dst.iter_mut().enumerate() {
                        *v = m[(starts[j] + i / width, starts[level] + i % width)];
                    }
                };
                copy(diag, j);
                if j > 0 {
                    copy(down, j - 1);
                }
                if j + 1 < dims.len() {
                    copy(up, j + 1);
                }
            })
            .unwrap();
            let b: Vec<f64> = (0..m.rows()).map(|i| 1.0 + (i % 3) as f64).collect();
            let want = Lu::new(&m).unwrap().solve_left_vec(&b).unwrap();
            let mut got = b.clone();
            lu.solve_left(&mut got);
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g - w).abs() <= 1e-12 * w.abs().max(1.0),
                    "{dims:?}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn zero_or_nan_pivot_is_singular() {
        let zero = BlockTridiagonalLu::new(&[1, 1], |j, diag, _, _| diag[0] = j as f64);
        assert_eq!(zero.unwrap_err(), LinalgError::Singular);
        let nan = BlockTridiagonalLu::new(&[1], |_, diag, _, _| diag[0] = f64::NAN);
        assert_eq!(nan.unwrap_err(), LinalgError::Singular);
    }
}
