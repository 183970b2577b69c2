//! Type-II Anderson acceleration of a fixed-point map `x ↦ g(x)` (Walker &
//! Ni, SIAM J. Numer. Anal. 49(4), 2011).
//!
//! With residuals `f_k = g(x_k) − x_k` and the differences of the last `m`
//! iterates and residuals stacked as the columns of `ΔX` and `ΔF`, the next
//! iterate is
//!
//! ```text
//! γ       = argmin ‖f_k − ΔF γ‖₂
//! x_{k+1} = x_k + β f_k − (ΔX + β ΔF) γ
//! ```
//!
//! which with an empty history is the damped step `x_k + β f_k`. The history
//! is cleared on request, when the residual norm grows by more than
//! [`GROWTH`] in one step, and when the least-squares problem is singular;
//! each clearing counts as one restart.

use gsched_linalg::vecops::{axpy, dot};
use std::collections::VecDeque;

/// A residual norm larger than this multiple of the previous one clears the
/// history.
const GROWTH: f64 = 2.0;

/// A difference column whose component orthogonal to the earlier columns is
/// at most this fraction of its norm makes the least-squares problem
/// singular.
const SINGULAR: f64 = 1e-8;

/// The mixer's state between steps: the last iterate and residual, the
/// difference columns, and the restart count.
#[derive(Debug)]
pub(crate) struct Anderson {
    depth: usize,
    beta: f64,
    last: Option<(Vec<f64>, Vec<f64>)>,
    last_norm: f64,
    dx: VecDeque<Vec<f64>>,
    df: VecDeque<Vec<f64>>,
    restarts: u64,
}

impl Anderson {
    /// A mixer keeping at most `depth` difference columns, with mixing
    /// weight `beta`.
    pub(crate) fn new(depth: usize, beta: f64) -> Anderson {
        Anderson {
            depth,
            beta,
            last: None,
            last_norm: f64::INFINITY,
            dx: VecDeque::with_capacity(depth),
            df: VecDeque::with_capacity(depth),
            restarts: 0,
        }
    }

    /// History clearings so far.
    pub(crate) fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Record the iterate `x` and its image `g` and return the extrapolated
    /// next iterate, or `None` when no history is left to extrapolate from
    /// (the caller takes the damped step). `restart` clears the history
    /// first, as a residual jump or a singular least-squares problem does.
    pub(crate) fn step(&mut self, x: &[f64], g: &[f64], restart: bool) -> Option<Vec<f64>> {
        let f: Vec<f64> = g.iter().zip(x).map(|(g, x)| g - x).collect();
        let norm = dot(&f, &f).sqrt();
        let jumped = norm.is_nan() || norm > GROWTH * self.last_norm;
        match self.last.take() {
            Some(_) if restart || jumped => self.clear(),
            Some((last_x, last_f)) => {
                if self.dx.len() == self.depth {
                    self.dx.pop_front();
                    self.df.pop_front();
                }
                self.dx
                    .push_back(x.iter().zip(&last_x).map(|(a, b)| a - b).collect());
                self.df
                    .push_back(f.iter().zip(&last_f).map(|(a, b)| a - b).collect());
            }
            None => {}
        }
        self.last_norm = norm;
        let next = if self.dx.is_empty() {
            None
        } else if let Some(gamma) = least_squares(&self.df, &f) {
            let mut next = x.to_vec();
            axpy(self.beta, &f, &mut next);
            for ((dx, df), &c) in self.dx.iter().zip(&self.df).zip(&gamma) {
                axpy(-c, dx, &mut next);
                axpy(-c * self.beta, df, &mut next);
            }
            Some(next)
        } else {
            self.clear();
            None
        };
        self.last = Some((x.to_vec(), f));
        next
    }

    fn clear(&mut self) {
        self.dx.clear();
        self.df.clear();
        self.restarts += 1;
    }
}

/// `argmin ‖rhs − Σ_j γ_j cols_j‖₂` by modified Gram–Schmidt; `None` when
/// a column is (numerically) dependent on the earlier ones.
fn least_squares(cols: &VecDeque<Vec<f64>>, rhs: &[f64]) -> Option<Vec<f64>> {
    let m = cols.len();
    let mut q: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut r = vec![vec![0.0; m]; m];
    for (j, col) in cols.iter().enumerate() {
        let mut v = col.clone();
        let norm0 = dot(&v, &v).sqrt();
        for (i, qi) in q.iter().enumerate() {
            r[i][j] = dot(qi, &v);
            axpy(-r[i][j], qi, &mut v);
        }
        let rjj = dot(&v, &v).sqrt();
        if rjj.is_nan() || rjj <= SINGULAR * norm0 {
            return None;
        }
        r[j][j] = rjj;
        v.iter_mut().for_each(|e| *e /= rjj);
        q.push(v);
    }
    let mut gamma: Vec<f64> = q.iter().map(|qi| dot(qi, rhs)).collect();
    for i in (0..m).rev() {
        let tail: f64 = (i + 1..m).map(|k| r[i][k] * gamma[k]).sum();
        gamma[i] = (gamma[i] - tail) / r[i][i];
    }
    Some(gamma)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linear contraction `g(x) = A x + b` with fixed point `(I − A)⁻¹ b`.
    fn linear(x: &[f64]) -> Vec<f64> {
        vec![
            0.9 * x[0] + 0.05 * x[1] + 1.0,
            0.02 * x[0] + 0.8 * x[1] - 0.5,
            0.1 * x[1] + 0.95 * x[2] + 0.2,
        ]
    }

    fn residual(x: &[f64]) -> f64 {
        let g = linear(x);
        g.iter()
            .zip(x)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    fn iterate(mut mixer: Option<Anderson>, steps: usize) -> Vec<f64> {
        let mut x = vec![0.0; 3];
        for _ in 0..steps {
            let g = linear(&x);
            x = match mixer.as_mut().and_then(|m| m.step(&x, &g, false)) {
                Some(next) => next,
                None => x.iter().zip(&g).map(|(x, g)| x + 0.7 * (g - x)).collect(),
            };
        }
        x
    }

    #[test]
    fn empty_history_is_the_damped_step() {
        let mut mixer = Anderson::new(3, 0.7);
        let x = [1.0, 2.0, 3.0];
        assert_eq!(mixer.step(&x, &linear(&x), false), None);
        assert_eq!(mixer.restarts(), 0);
    }

    #[test]
    fn linear_map_converges_in_few_steps() {
        // Depth-3 Anderson on a 3-dimensional linear map is GMRES-like: it
        // is exact after a handful of steps, where damping needs hundreds.
        let accelerated = residual(&iterate(Some(Anderson::new(3, 0.7)), 12));
        let damped = residual(&iterate(None, 12));
        assert!(accelerated < 1e-10, "accelerated residual {accelerated:e}");
        assert!(damped > 1e-3, "damped residual {damped:e}");
    }

    #[test]
    fn restart_and_singular_history_clear() {
        let mut mixer = Anderson::new(3, 0.7);
        let (x0, x1) = ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]);
        mixer.step(&x0, &linear(&x0), false);
        assert!(mixer.step(&x1, &linear(&x1), false).is_some());
        // An explicit restart drops the history: the damped step follows.
        assert_eq!(mixer.step(&x0, &linear(&x0), true), None);
        assert_eq!(mixer.restarts(), 1);
        // Repeating an iterate gives a zero difference column: singular.
        assert_eq!(mixer.step(&x0, &linear(&x0), false), None);
        assert_eq!(mixer.restarts(), 2);
    }

    #[test]
    fn residual_jump_clears_the_history() {
        let mut mixer = Anderson::new(3, 0.7);
        let x = [0.0; 3];
        mixer.step(&x, &[1.0, 0.0, 0.0], false);
        assert_eq!(mixer.step(&x, &[3.0, 0.0, 0.0], false), None);
        assert_eq!(mixer.restarts(), 1);
    }
}
