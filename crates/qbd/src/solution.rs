//! Boundary solve and the stationary solution object (Theorem 4.2, eq. 37).

use crate::process::{LevelView, QbdProcess};
use crate::rmatrix::{r_residual, solve_r, solve_r_warm, RSolverMethod};
use crate::stability::{drift_condition, DriftReport};
use crate::{QbdError, Result};
use gsched_linalg::{spectral_radius, Lu, Matrix};
use gsched_obs as obs;
use std::sync::OnceLock;

/// Safety levels added on top of the decay-rate projection when
/// [`LevelTruncation::Auto`] jumps from a stable-but-uncertified truncation
/// to its projected certification level.
const TRUNCATION_JUMP_CUSHION: usize = 8;

/// `2^512`: the power of two by which the boundary back-substitution scales
/// a level down once any entry exceeds it, leaving `2^511` of headroom for
/// the next level's growth.
const RESCALE: f64 = f64::from_bits((1023 + 512) << 52);

/// Iteration budget for a warm-started `R` attempt before falling back to
/// the cold solve. Kept small: a useful warm start converges in a handful
/// of contractive steps.
const WARM_MAX_ITER: usize = 200;

/// Relative rounding tolerance of the stability gate: `(I−R)⁻¹` counts as
/// entrywise nonnegative when no entry falls below `−tol · max|entry|`.
const STABILITY_GATE_RTOL: f64 = 1e-9;

/// Level-truncation policy for large boundaries (`c = P/g` in the thousands).
///
/// A truncated solve replaces the chain with its frozen-capacity truncation
/// at level `m`: levels `0..=m` of the original, borrowed rather than
/// copied, with the level-`m` blocks `up[m]`, `local[m+1]`, `down[m]`
/// repeating above them. The truncation stochastically dominates the
/// original — the reported tail mass above `m` is a *certified upper bound*
/// on the true mass the truncation could misplace. The certificate is
/// attached to the solution as [`TruncationCertificate`]. The only check a
/// truncation adds to those the process passed on construction is that the
/// frozen repeating level's rows sum to zero ([`QbdError::NotGenerator`]
/// otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LevelTruncation {
    /// Solve the full boundary (the default).
    #[default]
    None,
    /// Truncate at a fixed boundary level `1 ≤ level < c`.
    Fixed {
        /// The truncation level `m`.
        level: usize,
    },
    /// Pick the truncation level automatically: starting from `min_levels`,
    /// double `m` until the certified tail mass above `m` drops to
    /// `target_tail` (or truncation stops paying off, in which case the full
    /// solve runs). Chains whose level sizes have not saturated below `c`
    /// (multi-phase service) fall back to the full solve transparently.
    ///
    /// Each attempt runs the drift test on its three frozen blocks first
    /// and moves on at once when the frozen capacity cannot drain the
    /// load; the boundary solve continues the forward elimination of the
    /// previous attempt instead of starting again from level 0.
    Auto {
        /// Certified tail-mass target the truncation must meet.
        target_tail: f64,
        /// Smallest truncation level to try.
        min_levels: usize,
    },
}

/// Certificate attached to a truncated solve: where the chain was cut and
/// how much probability mass the cut could misplace, by the domination
/// argument an upper bound on the true error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncationCertificate {
    /// The truncation level `m` the solve ran at.
    pub level: usize,
    /// The original chain's first repeating level `c` (what `m` replaced).
    pub full_c: usize,
    /// Certified mass above level `m` in the dominating truncated chain —
    /// an upper bound on the same mass in the true chain.
    pub tail_mass: f64,
    /// The target the automatic policy was asked to certify (`0` for
    /// [`LevelTruncation::Fixed`], which certifies whatever it finds).
    pub target: f64,
}

/// Options controlling the QBD solve. Every solve checks §4.4
/// irreducibility first ([`QbdError::NotIrreducible`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Algorithm for the rate matrix `R`.
    pub method: RSolverMethod,
    /// Convergence tolerance for the `R` iteration.
    pub tol: f64,
    /// Iteration budget for the `R` iteration.
    pub max_iter: usize,
    /// Explicit warm-start iterate for `R`. When set and
    /// dimension-compatible, a bounded successive-substitution iteration is
    /// run from it first; if that stalls or fails validation the solve falls
    /// back to the cold `method` transparently. Hits and fallbacks are
    /// counted under `qbd.rmatrix.warm_hits` / `qbd.rmatrix.warm_misses`.
    ///
    /// No solver path sets it: the fixed point, the sweeps and the
    /// truncation search solve every `R` cold, because substitution from a
    /// nearby `R` converges linearly at a rate near `sp(R)` where the cold
    /// logarithmic reduction converges quadratically. It stays because the
    /// benchmark harness (`perfbench/`) replays an explicit warm solve;
    /// deleting it waits for a change to that harness.
    pub initial_r: Option<Matrix>,
    /// Level-truncation policy for very large boundaries.
    pub truncation: LevelTruncation,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            method: RSolverMethod::default(),
            tol: 1e-12,
            max_iter: 10_000,
            initial_r: None,
            truncation: LevelTruncation::default(),
        }
    }
}

/// The stationary distribution of a positive-recurrent QBD.
///
/// Stores the boundary vectors `π_0, …, π_c` and the rate matrix `R`; all
/// higher levels follow from `π_{c+n} = π_c Rⁿ` (paper eq. 22).
#[derive(Debug, Clone)]
pub struct QbdSolution {
    boundary: Vec<Vec<f64>>,
    r: Matrix,
    /// Cached `(I − R)⁻¹`.
    i_minus_r_inv: Matrix,
    /// Spectral radius of `R`, computed on first request.
    sp_r: OnceLock<f64>,
    /// Present when the solve ran on a truncated chain.
    truncation: Option<TruncationCertificate>,
}

impl QbdProcess {
    /// Solve for the stationary distribution (Theorem 4.2).
    ///
    /// Steps: §4.4 irreducibility check → drift condition (Theorem 4.4) →
    /// `R` from eq. (23) → boundary system eqs. (21)/(24) → assemble.
    ///
    /// With [`SolveOptions::truncation`] other than [`LevelTruncation::None`]
    /// the solve runs on a frozen-capacity truncation of the chain — levels
    /// `0..=m` borrowed from this process, with the level-`m` blocks
    /// repeating above them — and attaches a [`TruncationCertificate`] to the
    /// solution.
    pub fn solve(&self, opts: &SolveOptions) -> Result<QbdSolution> {
        match opts.truncation {
            LevelTruncation::None => {
                self.view()
                    .solve(opts, None, &mut CensoredElimination::default())
            }
            LevelTruncation::Fixed { level } => {
                let view = self.frozen(level)?;
                obs::counter_add(obs::names::QBD_TRUNCATION_ATTEMPTS, 1);
                let mut sol = view.solve(opts, None, &mut CensoredElimination::default())?;
                sol.truncation = Some(TruncationCertificate {
                    level,
                    full_c: self.c(),
                    tail_mass: sol.tail_prob(level + 1),
                    target: 0.0,
                });
                Ok(sol)
            }
            LevelTruncation::Auto {
                target_tail,
                min_levels,
            } => self.solve_truncated_auto(target_tail, min_levels, opts),
        }
    }

    /// Automatic truncation: double the truncation level until the certified
    /// tail mass meets `target_tail`, falling back to the full solve when
    /// truncation cannot apply or stops paying off.
    ///
    /// Each level's work is done once: every attempt borrows its chain
    /// ([`QbdProcess::frozen`]), runs the drift test on its three frozen
    /// blocks before anything else (an attempt that cannot drain the load
    /// costs one `D × D` GTH solve), and the boundary solve continues the
    /// forward elimination where the previous attempt stopped. `R` is not
    /// carried over: each attempt's repeating blocks differ, and a cold
    /// solve of its `R` converges faster than substitution from the last
    /// attempt's.
    fn solve_truncated_auto(
        &self,
        target_tail: f64,
        min_levels: usize,
        opts: &SolveOptions,
    ) -> Result<QbdSolution> {
        let _span = obs::span("qbd.truncation");
        // Gate on the ORIGINAL repeating blocks first: a truly unstable
        // chain must surface as Unstable, not as a truncation that never
        // certifies (every frozen-capacity truncation of an unstable chain
        // is itself unstable, but the converse error would be misleading).
        let drift = self.view().drift()?;
        if !drift.is_stable() {
            return Err(QbdError::Unstable(drift));
        }
        let c = self.c();
        let mut elim = CensoredElimination::default();
        let mut m = min_levels.max(1);
        while m < c {
            let view = match self.frozen(m) {
                Ok(view) => view,
                // Level sizes not saturated (multi-phase service): the
                // truncation construction does not apply — solve in full.
                Err(QbdError::Shape(_)) => break,
                Err(e) => return Err(e),
            };
            obs::counter_add(obs::names::QBD_TRUNCATION_ATTEMPTS, 1);
            // The frozen capacity at m+1 partitions can be too small to
            // drain the load even when the full chain is stable: grow.
            let drift = view.drift()?;
            if !drift.is_stable() {
                obs::counter_add(obs::names::QBD_TRUNCATION_UNSTABLE_SKIPS, 1);
                m *= 2;
                continue;
            }
            match view.solve(opts, Some(drift), &mut elim) {
                Ok(mut sol) => {
                    let tail = sol.tail_prob(m + 1);
                    if tail <= target_tail {
                        sol.truncation = Some(TruncationCertificate {
                            level: m,
                            full_c: c,
                            tail_mass: tail,
                            target: target_tail,
                        });
                        return Ok(sol);
                    }
                    m = next_truncation_level(m, c, tail, sol.tail_decay_rate(), target_tail);
                }
                Err(QbdError::Unstable(_)) => m *= 2,
                Err(e) => return Err(e),
            }
        }
        self.view().solve(opts, None, &mut elim)
    }
}

/// The next truncation level after a stable attempt at `m` whose tail above
/// `m` is `tail > target_tail`, with certified decay rate `rate`.
///
/// The tail beyond `m` decays geometrically, so project the level where the
/// target is met from the measured decay rate. The projection is taken at
/// the *current* frozen capacity and is therefore pessimistic while the
/// capacity is still growing — keep doubling when that is nearer. But once
/// `2m` would overshoot `c` (forcing a needless full solve), the projection
/// is the only way to land in between: the certification level is often
/// just a few dozen levels up. The certificate is always the re-solved
/// chain's own tail, so the projection only has to be a good guess, not a
/// bound; a few cushion levels absorb the capacity shift between the two
/// truncations.
fn next_truncation_level(m: usize, c: usize, tail: f64, rate: f64, target_tail: f64) -> usize {
    let projected = if rate > 0.0 && rate < 1.0 {
        let extra = ((target_tail / tail).ln() / rate.ln()).ceil().max(1.0);
        if extra >= (c - m) as f64 {
            c
        } else {
            m + extra as usize + TRUNCATION_JUMP_CUSHION
        }
    } else {
        c
    };
    if 2 * m < c {
        projected.min(2 * m)
    } else {
        projected
    }
}

/// Forward-elimination state of the boundary solve, carried from one
/// truncation attempt to the next.
///
/// `S_i` and `T_i` for `i < m` depend only on the boundary blocks below
/// level `m` — not on `R`, and not on where the chain is cut — so a solve at
/// `m₂ > m₁` continues from the `S_{m₁}` an attempt at `m₁` left here rather
/// than eliminating levels `0..m₁` again. The `+R·A₂` term of the top level
/// is added to a copy, never to the stored `S`.
#[derive(Debug, Default)]
struct CensoredElimination {
    /// `T_i = D_{i+1}(−S_i)⁻¹` for `i < ts.len()`, kept for
    /// back-substitution.
    ts: Vec<Matrix>,
    /// `S_{ts.len()}` without any `R·A₂` term; `None` before the first step.
    s: Option<Matrix>,
}

impl CensoredElimination {
    /// Extend the elimination to level `c = view.c()` and return `S_c`
    /// (still without `R·A₂`). `view` must share this state's lower levels.
    fn advance_to(&mut self, view: &LevelView<'_>) -> Result<&Matrix> {
        let c = view.c();
        let (mut s, start) = match self.s.take() {
            Some(s) if self.ts.len() <= c => (s, self.ts.len()),
            _ => {
                self.ts.clear();
                (view.local[0].clone(), 0)
            }
        };
        for i in start..c {
            let mut neg_s_inv = Lu::new(&s.scaled(-1.0))?.inverse()?;
            // `−S_i` is an M-matrix, so its inverse is entrywise nonnegative
            // in exact arithmetic; clamp inversion roundoff so the `T_i`
            // products (and the back-substituted `π_i`) stay nonnegative by
            // construction instead of tripping the probability check.
            for v in neg_s_inv.as_mut_slice() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
            let t = view.down[i].matmul(&neg_s_inv)?;
            let tu = t.matmul(&view.up[i])?;
            s = &view.local[i + 1] + &tu;
            conserve_mass(&mut s, view.up.get(i + 1).unwrap_or(view.a0));
            self.ts.push(t);
        }
        obs::counter_add(
            obs::names::QBD_BOUNDARY_LEVELS_ELIMINATED,
            (c - start) as u64,
        );
        Ok(self.s.insert(s))
    }
}

/// Project the censored block `S_{i+1}` back onto what it is in exact
/// arithmetic: nonnegative off-diagonal rates, and rows that lose exactly
/// the mass `up` carries to the next level, `S_{i+1} e = −U_{i+1} e`.
///
/// This is the Grassmann–Taksar–Heyman idea applied once per elimination
/// step. Each diagonal entry is rebuilt from sums of nonnegative terms
/// instead of the cancelling recurrence `L_{i+1} + T_i U_i`. For M/M/c that
/// recurrence is `x_{i+1} = λ + (i+1)μ − (i+1)μλ/x_i`, which multiplies its
/// roundoff by `(i+1)μ/λ` per level once the level passes the load: a
/// lightly loaded chain with `c` in the thousands loses every digit.
fn conserve_mass(s: &mut Matrix, up: &Matrix) {
    for (i, out) in up.row_sums().into_iter().enumerate() {
        let mut off = 0.0;
        for j in 0..s.cols() {
            if j != i {
                let v = &mut s[(i, j)];
                *v = v.max(0.0);
                off += *v;
            }
        }
        s[(i, i)] = -(off + out);
    }
}

impl LevelView<'_> {
    /// The drift test (Theorem 4.4) on this chain's repeating blocks.
    fn drift(&self) -> Result<DriftReport> {
        let _span = obs::span("qbd.drift");
        drift_condition(self.a0, self.a1, self.a2)
    }

    /// Compute `R` cold by `opts.method`, unless the caller supplied an
    /// explicit [`SolveOptions::initial_r`].
    ///
    /// A dimension-compatible `initial_r` triggers a bounded
    /// successive-substitution attempt first; any failure (stall, residual
    /// above tolerance, negative entries) falls back to the cold
    /// `opts.method` solve so the result is always as trustworthy as a cold
    /// solve.
    fn solve_r(&self, opts: &SolveOptions) -> Result<Matrix> {
        if let Some(r0) = &opts.initial_r {
            let d = self.a1.rows();
            if r0.rows() == d && r0.cols() == d {
                let budget = WARM_MAX_ITER.min(opts.max_iter).max(1);
                let _span = obs::span("qbd.solve_r");
                match solve_r_warm(self.a0, self.a1, self.a2, r0, opts.tol, budget, 1e-8) {
                    Ok(r) => {
                        obs::counter_add(obs::names::QBD_RMATRIX_WARM_HITS, 1);
                        return Ok(r);
                    }
                    Err(_) => obs::counter_add(obs::names::QBD_RMATRIX_WARM_MISSES, 1),
                }
            } else {
                obs::counter_add(obs::names::QBD_RMATRIX_WARM_MISSES, 1);
            }
        }
        solve_r(
            self.a0,
            self.a1,
            self.a2,
            opts.method,
            opts.tol,
            opts.max_iter,
        )
    }

    /// Solve this chain: §4.4 irreducibility check → drift condition
    /// (skipped when the caller passes the `drift` it already ran on these
    /// blocks) → `R` → boundary, resuming `elim` → assemble.
    fn solve(
        &self,
        opts: &SolveOptions,
        drift: Option<DriftReport>,
        elim: &mut CensoredElimination,
    ) -> Result<QbdSolution> {
        let _span = obs::span("qbd.solve");
        let irreducible = {
            let _span = obs::span("qbd.irreducible");
            self.is_irreducible()
        };
        if !irreducible {
            return Err(QbdError::NotIrreducible);
        }
        let drift = match drift {
            Some(drift) => drift,
            None => self.drift()?,
        };
        if !drift.is_stable() {
            return Err(QbdError::Unstable(drift));
        }
        let r = self.solve_r(opts)?;
        debug_assert!(
            r_residual(self.a0, self.a1, self.a2, &r) < 1e-6,
            "R residual too large"
        );
        let i_minus_r_inv = {
            let _span = obs::span("qbd.inverse");
            match stable_inverse(&r) {
                Some(inv) => inv,
                None => return Err(QbdError::Unstable(drift)),
            }
        };

        // ---- Boundary linear system (eqs. 21/25/26 + 24) ----
        let c = self.c();
        let nb: usize = (0..=c).map(|i| self.level_dim(i)).sum();
        let boundary_span = obs::span("qbd.boundary_solve");
        obs::event(
            "qbd.boundary",
            &[
                ("size", obs::FieldValue::U64(nb as u64)),
                ("levels", obs::FieldValue::U64((c + 1) as u64)),
            ],
        );
        let boundary = self.boundary(&r, &i_minus_r_inv, elim)?;
        drop(boundary_span);

        obs::observe(obs::names::QBD_DRIFT_MARGIN, drift.margin());
        Ok(QbdSolution {
            boundary,
            r,
            i_minus_r_inv,
            sp_r: OnceLock::new(),
            truncation: None,
        })
    }

    /// The boundary solve (eqs. 21/25/26 + 24) by censored block elimination.
    ///
    /// Forward elimination censors the chain onto level `c`:
    /// `S_0 = L_0`, `T_i = D_{i+1}(−S_i)⁻¹`,
    /// `S_{i+1} = L_{i+1} + T_i U_i` with its diagonal rebuilt from
    /// conservation (see [`conserve_mass`]), plus `R·A₂` at `i+1 = c`; then
    /// `π_c S_c = 0` is a `d × d` stationary problem, and back-substitution
    /// `π_i = π_{i+1} T_i` recovers the lower levels. Never materializes the
    /// dense `nb × nb` system: `O(c·d³)` time, `O(c·d²)` memory. The forward
    /// elimination continues from wherever `elim` stopped.
    fn boundary(
        &self,
        r: &Matrix,
        i_minus_r_inv: &Matrix,
        elim: &mut CensoredElimination,
    ) -> Result<Vec<Vec<f64>>> {
        let c = self.c();
        let ra2 = r.matmul(self.a2)?;
        // `S_c + R·A₂` is a generator in exact arithmetic (`R·A₂e = A₀e`).
        // Clamp roundoff-negative rates (`from_rates` rebuilds the diagonal)
        // and take the stationary vector by subtraction-free GTH, nonnegative
        // by construction; a reducible censored chain is a typed error.
        let mut rates = elim.advance_to(self)? + &ra2;
        for v in rates.as_mut_slice() {
            *v = v.max(0.0);
        }
        let pi_c = gsched_markov::Ctmc::from_rates(&rates)?.stationary_gth()?;
        let ts = &elim.ts;
        // Back-substitution can span more than the exponent range of an
        // `f64` (M/M/2000 at λ = 250: π_250 / π_2000 ≈ 1e1046). Level `i`
        // holds `π_i / RESCALE^shift[i]`: a level that grows past `RESCALE`
        // is divided by it — exact, as `RESCALE` is a power of two — and the
        // levels below inherit its shift. With no rescale every shift is 0
        // and nothing below changes a bit.
        let mut shift = vec![0; c + 1];
        let mut boundary = vec![Vec::new(); c + 1];
        boundary[c] = clamp_nonneg(&pi_c, c)?;
        for i in (0..c).rev() {
            let mut v = clamp_nonneg(&ts[i].left_mul_vec(&boundary[i + 1])?, i)?;
            shift[i] = shift[i + 1];
            if v.iter().any(|&x| x > RESCALE) {
                v.iter_mut().for_each(|x| *x /= RESCALE);
                shift[i] += 1;
            }
            boundary[i] = v;
        }
        // Shifts only grow downwards: bring every level to level 0's scale
        // (levels far smaller than it underflow to zero, as they should).
        if shift[0] > 0 {
            for (v, &s) in boundary.iter_mut().zip(&shift) {
                let f = RESCALE.powi(s - shift[0]);
                v.iter_mut().for_each(|x| *x *= f);
            }
        }
        // Global normalization (eq. 24): Σ_{i<c} π_i·e + π_c(I−R)⁻¹e = 1.
        let tail = i_minus_r_inv.row_sums();
        let mut total: f64 = boundary[..c].iter().map(|v| v.iter().sum::<f64>()).sum();
        total += boundary[c]
            .iter()
            .zip(tail.iter())
            .map(|(a, b)| a * b)
            .sum::<f64>();
        for v in &mut boundary {
            for x in v.iter_mut() {
                *x /= total;
            }
        }
        Ok(boundary)
    }
}

/// The stability gate: `(I−R)⁻¹` when `sp(R) < 1`, `None` otherwise.
///
/// For `R ≥ 0`, `sp(R) < 1` exactly when `I − R` is a nonsingular M-matrix,
/// i.e. when `(I−R)⁻¹ = Σ Rⁿ` exists and is entrywise nonnegative. So the
/// inverse the solution needs anyway decides stability, up to a relative
/// rounding tolerance, without a power iteration.
fn stable_inverse(r: &Matrix) -> Option<Matrix> {
    let i_minus_r = &Matrix::identity(r.rows()) - r;
    let inv = Lu::new(&i_minus_r).ok()?.inverse().ok()?;
    inv.is_nonnegative(STABILITY_GATE_RTOL * inv.max_abs())
        .then_some(inv)
}

/// Clamp tiny negative round-off to zero; larger negatives are an error.
fn clamp_nonneg(seg: &[f64], level: usize) -> Result<Vec<f64>> {
    let scale = seg.iter().fold(0.0_f64, |a, &v| a.max(v.abs())).max(1e-300);
    let thresh = 1e-9_f64.max(1e-12 * scale);
    let out: Vec<f64> = seg
        .iter()
        .map(|&v| if v < 0.0 && v > -thresh { 0.0 } else { v })
        .collect();
    if out.iter().any(|&v| v < 0.0) {
        return Err(QbdError::NotGenerator(format!(
            "boundary solve produced negative probability at level {level}"
        )));
    }
    Ok(out)
}

impl QbdSolution {
    /// Index of the first repeating level.
    pub fn c(&self) -> usize {
        self.boundary.len() - 1
    }

    /// The rate matrix `R`.
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Spectral radius of `R` (strictly below 1 for a solved system).
    ///
    /// A diagnostic: the solve itself certifies `sp(R) < 1` through
    /// `(I−R)⁻¹ ≥ 0` and never needs the value. It is computed on first
    /// request by power iteration (tolerance `1e-12`, at most 200 000
    /// steps) and cached. Should the power iteration not settle, the
    /// certified upper bound [`tail_decay_rate`](Self::tail_decay_rate) is
    /// reported instead.
    pub fn spectral_radius(&self) -> f64 {
        *self.sp_r.get_or_init(|| {
            spectral_radius(&self.r, 1e-12, 200_000).unwrap_or_else(|_| self.tail_decay_rate())
        })
    }

    /// The truncation certificate, when this solution came from a truncated
    /// solve ([`LevelTruncation::Fixed`] / [`LevelTruncation::Auto`]).
    pub fn truncation(&self) -> Option<&TruncationCertificate> {
        self.truncation.as_ref()
    }

    /// Certified geometric decay rate `q < 1` of the level tail.
    ///
    /// With `u = (I−R)⁻¹e` one has `Ru = u − e`; since `e ≥ u/‖u‖_∞`
    /// entrywise, `Ru ≤ q·u` with `q = 1 − 1/‖u‖_∞`, hence `Rᵏu ≤ qᵏu` and
    /// `P(level ≥ n) = π_c R^{n−c} u ≤ q^{n−c} · P(level ≥ c)` for `n ≥ c`.
    pub fn tail_decay_rate(&self) -> f64 {
        let u = self.i_minus_r_inv.row_sums();
        let umax = u.iter().fold(1.0_f64, |a, &v| a.max(v));
        (1.0 - 1.0 / umax).max(0.0)
    }

    /// Certified upper bound on `P(level ≥ n)`.
    ///
    /// Exact for `n ≤ c`; the geometric bound
    /// `P(level ≥ c) · q^{n−c}` with `q = `[`tail_decay_rate`](Self::tail_decay_rate)
    /// above. Always `≥ tail_prob(n)`.
    pub fn geometric_tail_bound(&self, n: usize) -> f64 {
        let c = self.c();
        if n <= c {
            return self.tail_prob(n);
        }
        // Anchor on π_c·(I−R)⁻¹e directly (the matrix-geometric form of
        // `P(level ≥ c)`) so the bound shares the exact tail's arithmetic
        // instead of the cancellation-prone `1 − Σ` boundary form.
        let u = self.i_minus_r_inv.row_sums();
        let anchor: f64 = self.boundary[c]
            .iter()
            .zip(u.iter())
            .map(|(a, b)| a * b)
            .sum();
        anchor * self.tail_decay_rate().powi((n - c) as i32)
    }

    /// Stationary sub-vector of level `n` (computed as `π_c R^{n−c}` above
    /// the boundary).
    pub fn level_vector(&self, n: usize) -> Vec<f64> {
        let c = self.c();
        if n <= c {
            return self.boundary[n].clone();
        }
        let mut v = self.boundary[c].clone();
        for _ in c..n {
            v = self.r.left_mul_vec(&v).expect("dimension");
        }
        v
    }

    /// Start a [`LevelWalk`] at level 0.
    pub(crate) fn walk(&self) -> LevelWalk<'_> {
        LevelWalk {
            sol: self,
            level: 0,
            above: Vec::new(),
            below: 0.0,
            u: self.i_minus_r_inv.row_sums(),
        }
    }

    /// Walk levels `0, 1, …` up to a level cap, handing each level's
    /// stationary vector to `visit(level, π_level)`.
    ///
    /// The cap is the smallest level `≥ first` whose tail above it,
    /// `P(level > cap)`, is at most `tail_eps`, but never above `last`.
    /// Returns the cap and `P(level > cap)`. One incremental walk
    /// (`π_{n+1} = π_n R`) serves both the search and the visits, so the
    /// cost is linear in the cap where repeated [`level_vector`] /
    /// [`tail_prob`] calls would be quadratic; every value is bit-identical
    /// to theirs.
    ///
    /// [`level_vector`]: Self::level_vector
    /// [`tail_prob`]: Self::tail_prob
    pub fn walk_to_cap(
        &self,
        first: usize,
        last: usize,
        tail_eps: f64,
        mut visit: impl FnMut(usize, &[f64]),
    ) -> (usize, f64) {
        let mut walk = self.walk();
        visit(0, walk.vector());
        let mut cap = 0;
        loop {
            walk.advance();
            if cap >= first {
                let tail = walk.tail_prob();
                if cap >= last || tail <= tail_eps {
                    return (cap, tail);
                }
            }
            cap += 1;
            visit(cap, walk.vector());
        }
    }

    /// Total stationary probability of level `n`.
    pub fn level_prob(&self, n: usize) -> f64 {
        self.level_vector(n).iter().sum()
    }

    /// `P(level ≥ n)`.
    pub fn tail_prob(&self, n: usize) -> f64 {
        let c = self.c();
        if n <= c {
            let below: f64 = (0..n).map(|i| self.level_prob(i)).sum();
            return (1.0 - below).clamp(0.0, 1.0);
        }
        // π_c R^{n-c} (I−R)⁻¹ e
        let mut v = self.boundary[c].clone();
        for _ in c..n {
            v = self.r.left_mul_vec(&v).expect("dimension");
        }
        let tail = self.i_minus_r_inv.row_sums();
        v.iter().zip(tail.iter()).map(|(a, b)| a * b).sum()
    }

    /// Mean level — the paper's eq. (37):
    ///
    /// `N = Σ_{i=1}^{c−1} i·π_i·e + c·π_c(I−R)⁻¹e + π_c(I−R)⁻²Re`.
    pub fn mean_level(&self) -> f64 {
        let c = self.c();
        let mut n = 0.0;
        for i in 1..c {
            n += i as f64 * self.level_prob(i);
        }
        let pi_c = &self.boundary[c];
        // c · π_c (I−R)⁻¹ e
        let inv_e = self.i_minus_r_inv.row_sums();
        n += c as f64
            * pi_c
                .iter()
                .zip(inv_e.iter())
                .map(|(a, b)| a * b)
                .sum::<f64>();
        // π_c (I−R)⁻² R e
        let inv2 = self
            .i_minus_r_inv
            .matmul(&self.i_minus_r_inv)
            .expect("square");
        let inv2_r = inv2.matmul(&self.r).expect("square");
        let v = inv2_r.row_sums();
        n += pi_c.iter().zip(v.iter()).map(|(a, b)| a * b).sum::<f64>();
        n
    }

    /// Second raw moment of the level, `E[level²]`, via
    /// `Σ n Rⁿ = R(I−R)⁻²` and `Σ n² Rⁿ = R(I+R)(I−R)⁻³`.
    pub fn second_moment_level(&self) -> f64 {
        let c = self.c();
        let mut m2 = 0.0;
        for i in 1..c {
            m2 += (i * i) as f64 * self.level_prob(i);
        }
        let pi_c = &self.boundary[c];
        let d = self.r.rows();
        let inv = &self.i_minus_r_inv;
        let inv2 = inv.matmul(inv).expect("square");
        let inv3 = inv2.matmul(inv).expect("square");
        // Σ_{n≥0} (c+n)² π_c Rⁿ e
        //   = c² π_c(I−R)⁻¹e + 2c π_c R(I−R)⁻²e + π_c R(I+R)(I−R)⁻³e
        let t1 = inv.row_sums();
        let r_inv2 = self.r.matmul(&inv2).expect("square");
        let t2 = r_inv2.row_sums();
        let i_plus_r = &Matrix::identity(d) + &self.r;
        let r_ipr_inv3 = self
            .r
            .matmul(&i_plus_r)
            .and_then(|m| m.matmul(&inv3))
            .expect("square");
        let t3 = r_ipr_inv3.row_sums();
        let cf = c as f64;
        let dot = |v: &[f64]| -> f64 { pi_c.iter().zip(v.iter()).map(|(a, b)| a * b).sum() };
        m2 + cf * cf * dot(&t1) + 2.0 * cf * dot(&t2) + dot(&t3)
    }

    /// Variance of the level.
    pub fn variance_level(&self) -> f64 {
        let m = self.mean_level();
        (self.second_moment_level() - m * m).max(0.0)
    }

    /// Aggregated stationary phase vector over all levels `≥ c`:
    /// `π_c (I−R)⁻¹`. Together with the boundary vectors this is the full
    /// marginal over phases.
    pub fn tail_phase_vector(&self) -> Vec<f64> {
        self.i_minus_r_inv
            .transpose()
            .mul_vec(&self.boundary[self.c()])
            .expect("dimension")
    }

    /// Total probability mass (should be 1; exposed for diagnostics).
    pub fn total_mass(&self) -> f64 {
        let c = self.c();
        let mut s = 0.0;
        for i in 0..c {
            s += self.level_prob(i);
        }
        s + self.tail_phase_vector().iter().sum::<f64>()
    }

    /// Borrow the boundary vectors `π_0..=π_c`.
    pub fn boundary(&self) -> &[Vec<f64>] {
        &self.boundary
    }
}

/// Incremental walk up the levels of a [`QbdSolution`]: `π_0, π_1, …` with
/// `π_{n+1} = π_n R` above the boundary, and `P(level ≥ n)` alongside.
///
/// Each step costs one vector–matrix product, so visiting levels `0..=n`
/// costs `O(n·d²)` where repeated [`QbdSolution::level_vector`] /
/// [`QbdSolution::tail_prob`] calls cost `O(n²·d²)`. Every value is
/// bit-identical to theirs: the walk performs the same floating-point
/// operations in the same order.
#[derive(Debug, Clone)]
pub(crate) struct LevelWalk<'a> {
    sol: &'a QbdSolution,
    level: usize,
    /// `π_level` once the walk is above the boundary (empty before).
    above: Vec<f64>,
    /// `Σ_{i<level} π_i·e` while the walk is within the boundary.
    below: f64,
    /// `u = (I−R)⁻¹e`, so that `P(level ≥ n) = π_n·u` for `n ≥ c`.
    u: Vec<f64>,
}

impl LevelWalk<'_> {
    /// Stationary sub-vector of the current level.
    pub(crate) fn vector(&self) -> &[f64] {
        if self.level <= self.sol.c() {
            &self.sol.boundary[self.level]
        } else {
            &self.above
        }
    }

    /// `P(level ≥ n)` at the current level `n`.
    pub(crate) fn tail_prob(&self) -> f64 {
        if self.level <= self.sol.c() {
            (1.0 - self.below).clamp(0.0, 1.0)
        } else {
            self.above
                .iter()
                .zip(self.u.iter())
                .map(|(a, b)| a * b)
                .sum()
        }
    }

    /// Step up one level.
    pub(crate) fn advance(&mut self) {
        let c = self.sol.c();
        if self.level < c {
            self.below += self.sol.boundary[self.level].iter().sum::<f64>();
        } else {
            self.above = self.sol.r.left_mul_vec(self.vector()).expect("dimension");
        }
        self.level += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm1(lambda: f64, mu: f64) -> QbdProcess {
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

    fn mmc(lambda: f64, mu: f64, servers: usize) -> QbdProcess {
        // M/M/c: level i <= servers has service rate i*mu; dims all 1.
        let c = servers;
        let mut up = Vec::new();
        let mut local = Vec::new();
        let mut down = Vec::new();
        for i in 0..=c {
            let svc = (i as f64) * mu;
            if i < c {
                up.push(Matrix::from_rows(&[&[lambda]]));
            }
            local.push(Matrix::from_rows(&[&[-(lambda + svc)]]));
            if i >= 1 {
                down.push(Matrix::from_rows(&[&[(i as f64) * mu]]));
            }
        }
        QbdProcess::new(
            up,
            local,
            down,
            Matrix::from_rows(&[&[lambda]]),
            Matrix::from_rows(&[&[-(lambda + c as f64 * mu)]]),
            Matrix::from_rows(&[&[c as f64 * mu]]),
        )
        .unwrap()
    }

    /// M/E₂/1 with Erlang-2 service of mean 1: a two-phase repeating level,
    /// offered load `lambda`.
    fn m_e2_1(lambda: f64) -> QbdProcess {
        let mu = 2.0; // per-phase rate
        let a1 = Matrix::from_rows(&[&[-(lambda + mu), mu], &[0.0, -(lambda + mu)]]);
        QbdProcess::new(
            vec![Matrix::from_rows(&[&[lambda, 0.0]])],
            vec![Matrix::from_rows(&[&[-lambda]]), a1.clone()],
            vec![Matrix::from_rows(&[&[0.0], &[mu]])],
            Matrix::from_rows(&[&[lambda, 0.0], &[0.0, lambda]]),
            a1,
            Matrix::from_rows(&[&[0.0, 0.0], &[mu, 0.0]]),
        )
        .unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A two-phase environment-modulated M/M/c queue: arrivals at rate
    /// `lambdas[e]` in environment `e`, which flips at rate `switch`;
    /// `min(i, c)` servers of rate `mu` at level `i`. Every level has two
    /// states, so the frozen truncation applies at any `1 ≤ m < c`.
    fn env_mmc(lambdas: [f64; 2], switch: f64, mu: f64, c: usize) -> QbdProcess {
        let diag = |a: f64, b: f64| Matrix::from_rows(&[&[a, 0.0], &[0.0, b]]);
        let local = |i: usize| {
            let svc = i.min(c) as f64 * mu;
            Matrix::from_rows(&[
                &[-(lambdas[0] + svc + switch), switch],
                &[switch, -(lambdas[1] + svc + switch)],
            ])
        };
        let up = diag(lambdas[0], lambdas[1]);
        let down = |i: usize| diag(i as f64 * mu, i as f64 * mu);
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

    /// The frozen truncation at `m` as an owned, fully validated process
    /// built from copies of the prefix blocks: the reference the borrowed
    /// truncation must reproduce.
    fn owned_frozen(q: &QbdProcess, m: usize) -> QbdProcess {
        QbdProcess::new(
            q.boundary_up[..m].to_vec(),
            q.boundary_local[..=m].to_vec(),
            q.boundary_down[..m].to_vec(),
            q.boundary_up[m].clone(),
            q.boundary_local[m + 1].clone(),
            q.boundary_down[m].clone(),
        )
        .unwrap()
    }

    /// The truncation search done the long way: every attempt solves an
    /// owned copy from scratch (irreducibility, drift, a cold `R`, boundary
    /// eliminated from level 0). Returns the certified solution and the
    /// levels of the stable attempts.
    fn reference_search(
        q: &QbdProcess,
        target: f64,
        min_levels: usize,
        opts: &SolveOptions,
    ) -> (QbdSolution, Vec<usize>) {
        let c = q.c();
        let mut m = min_levels;
        let mut stable = Vec::new();
        let attempt = SolveOptions {
            truncation: LevelTruncation::None,
            ..opts.clone()
        };
        loop {
            assert!(m < c, "the reference search must certify below c = {c}");
            match owned_frozen(q, m).solve(&attempt) {
                Ok(sol) => {
                    stable.push(m);
                    let tail = sol.tail_prob(m + 1);
                    if tail <= target {
                        return (sol, stable);
                    }
                    m = next_truncation_level(m, c, tail, sol.tail_decay_rate(), target);
                }
                Err(QbdError::Unstable(_)) => m *= 2,
                Err(e) => panic!("reference attempt at m = {m}: {e}"),
            }
        }
    }

    /// `R`, every boundary vector and the tail above the cut, bit for bit.
    fn assert_same_bits(got: &QbdSolution, want: &QbdSolution, what: &str) {
        let m = want.c();
        assert_eq!(got.c(), m, "{what}: level");
        assert_eq!(
            bits(got.r().as_slice()),
            bits(want.r().as_slice()),
            "{what}: R"
        );
        for (i, (g, w)) in got.boundary().iter().zip(want.boundary()).enumerate() {
            assert_eq!(bits(g), bits(w), "{what}: pi_{i}");
        }
        assert_eq!(
            got.tail_prob(m + 1).to_bits(),
            want.tail_prob(m + 1).to_bits(),
            "{what}: tail above m"
        );
    }

    /// Run `Auto` and `Fixed` at the certified level on `q`, compare each
    /// against its owned-copy reference, and return the stable attempt
    /// levels.
    fn check_search_parity(q: &QbdProcess, target: f64, min_levels: usize) -> Vec<usize> {
        let opts = SolveOptions::default();
        let (want, stable) = reference_search(q, target, min_levels, &opts);
        let auto = SolveOptions {
            truncation: LevelTruncation::Auto {
                target_tail: target,
                min_levels,
            },
            ..opts.clone()
        };
        let got = q.solve(&auto).unwrap();
        let cert = got.truncation().expect("certified");
        assert_eq!(cert.level, want.c());
        assert_eq!(
            cert.tail_mass.to_bits(),
            want.tail_prob(want.c() + 1).to_bits()
        );
        assert_same_bits(&got, &want, "Auto");

        let m = want.c();
        let fixed = SolveOptions {
            truncation: LevelTruncation::Fixed { level: m },
            ..opts.clone()
        };
        let got = q.solve(&fixed).unwrap();
        let want = owned_frozen(q, m).solve(&opts).unwrap();
        assert_same_bits(&got, &want, &format!("Fixed at {m}"));
        stable
    }

    #[test]
    fn truncation_search_matches_owned_copies_bitwise() {
        // The crate-doc chain: a lightly loaded M/M/64.
        let stable = check_search_parity(&mmc(8.0, 1.0, 64), 1e-9, 4);
        assert!(!stable.is_empty());

        // A saturated two-phase chain whose search certifies on its second
        // stable attempt or later: the censored solve resumes.
        let stable = check_search_parity(&env_mmc([60.0, 100.0], 0.5, 1.0, 400), 1e-9, 4);
        assert!(stable.len() >= 2, "stable attempts {stable:?}");

        // A slowly switching two-phase chain on 1000 servers whose stable
        // attempts span a small and a large boundary.
        let stable = check_search_parity(&env_mmc([40.0, 160.0], 0.05, 1.0, 1000), 1e-8, 4);
        assert!(stable.len() >= 2, "stable attempts {stable:?}");
    }

    #[test]
    fn near_critical_verdicts_follow_the_drift_test() {
        for rho in [0.99, 0.999, 0.9999, 1.0001, 1.001, 1.01] {
            for (name, q) in [
                ("M/M/1", mm1(rho, 1.0)),
                ("M/M/3", mmc(3.0 * rho, 1.0, 3)),
                ("M/E2/1", m_e2_1(rho)),
            ] {
                let stable = drift_condition(&q.a0, &q.a1, &q.a2).unwrap().is_stable();
                assert_eq!(stable, rho < 1.0, "{name} at rho={rho}: drift verdict");
                match q.solve(&SolveOptions::default()) {
                    Ok(sol) => {
                        assert!(stable, "{name} at rho={rho}: solved an unstable chain");
                        assert!(stable_inverse(sol.r()).is_some());
                        let sp = sol.spectral_radius();
                        assert!(sp < 1.0, "{name} at rho={rho}: sp(R) = {sp}");
                    }
                    Err(QbdError::Unstable(_)) => {
                        assert!(!stable, "{name} at rho={rho}: stable chain rejected")
                    }
                    Err(e) => panic!("{name} at rho={rho}: {e}"),
                }
            }
        }
    }

    #[test]
    fn stability_gate_decides_spectral_radius_below_one() {
        // A stochastic matrix scaled by `sp` has spectral radius `sp`.
        let p = Matrix::from_rows(&[&[0.5, 0.5], &[0.25, 0.75]]);
        for sp in [0.5, 0.99, 0.9999, 1.0, 1.0001, 1.5] {
            for r in [Matrix::from_rows(&[&[sp]]), p.scaled(sp)] {
                assert_eq!(
                    stable_inverse(&r).is_some(),
                    sp < 1.0,
                    "sp(R) = {sp}, R = {r:?}"
                );
            }
        }
    }

    #[test]
    fn walk_matches_level_vector_and_tail_prob_bitwise() {
        let truncated = SolveOptions {
            truncation: LevelTruncation::Fixed { level: 4 },
            ..Default::default()
        };
        let sols = [
            mmc(1.2, 1.0, 2).solve(&SolveOptions::default()).unwrap(),
            m_e2_1(0.8).solve(&SolveOptions::default()).unwrap(),
            mmc(2.0, 1.0, 8).solve(&truncated).unwrap(),
        ];
        for sol in &sols {
            let mut walk = sol.walk();
            for n in 0..=sol.c() + 100 {
                assert_eq!(walk.level, n);
                assert_eq!(bits(walk.vector()), bits(&sol.level_vector(n)), "n={n}");
                assert_eq!(
                    walk.tail_prob().to_bits(),
                    sol.tail_prob(n).to_bits(),
                    "n={n}"
                );
                walk.advance();
            }
        }
    }

    #[test]
    fn walk_to_cap_matches_the_tail_search() {
        let sol = mmc(3.0, 1.0, 5).solve(&SolveOptions::default()).unwrap();
        for (first, last, eps) in [(6, 40, 1e-9), (6, 10, 1e-9), (6, 6, 1e-3), (2, 80, 1e-2)] {
            let mut cap = first;
            while cap < last && sol.tail_prob(cap + 1) > eps {
                cap += 1;
            }
            let mut seen = Vec::new();
            let (got, tail) = sol.walk_to_cap(first, last, eps, |i, pi| seen.push((i, bits(pi))));
            assert_eq!(got, cap);
            assert_eq!(tail.to_bits(), sol.tail_prob(cap + 1).to_bits());
            let want: Vec<_> = (0..=cap).map(|i| (i, bits(&sol.level_vector(i)))).collect();
            assert_eq!(seen, want);
        }
    }

    #[test]
    fn lazy_spectral_radius_matches_power_iteration() {
        for q in [mm1(0.6, 1.0), mmc(3.0, 1.0, 5), m_e2_1(0.8)] {
            let sol = q.solve(&SolveOptions::default()).unwrap();
            let want = gsched_linalg::spectral_radius(sol.r(), 1e-12, 200_000).unwrap();
            assert_eq!(sol.spectral_radius().to_bits(), want.to_bits());
        }
    }

    #[test]
    fn mm1_geometric_solution() {
        let rho: f64 = 0.6;
        let q = mm1(rho, 1.0);
        let sol = q.solve(&SolveOptions::default()).unwrap();
        for n in 0..12 {
            let want = (1.0 - rho) * rho.powi(n as i32);
            assert!(
                (sol.level_prob(n) - want).abs() < 1e-10,
                "n={n}: {} vs {want}",
                sol.level_prob(n)
            );
        }
        assert!((sol.mean_level() - rho / (1.0 - rho)).abs() < 1e-10);
        assert!((sol.total_mass() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn mm1_variance_closed_form() {
        let rho: f64 = 0.5;
        let q = mm1(rho, 1.0);
        let sol = q.solve(&SolveOptions::default()).unwrap();
        let var_want = rho / ((1.0 - rho) * (1.0 - rho));
        assert!(
            (sol.variance_level() - var_want).abs() < 1e-9,
            "{} vs {var_want}",
            sol.variance_level()
        );
    }

    #[test]
    fn mm2_erlang_c_mean() {
        // M/M/2 with lambda=1.2, mu=1: rho = 0.6.
        let (lambda, mu, s) = (1.2, 1.0, 2usize);
        let q = mmc(lambda, mu, s);
        let sol = q.solve(&SolveOptions::default()).unwrap();
        // Closed form M/M/2: p0 = (1-rho)/(1+rho), Lq = 2rho^3/(1-rho^2)... use
        // standard Erlang-C: a = lambda/mu = 1.2, rho = a/2 = 0.6.
        let a = lambda / mu;
        let rho = a / s as f64;
        // p0 for c=2: 1 / (1 + a + a^2/(2(1-rho)))
        let p0 = 1.0 / (1.0 + a + a * a / (2.0 * (1.0 - rho)));
        let erlang_c = (a * a / 2.0) * p0 / (1.0 - rho);
        let lq = erlang_c * rho / (1.0 - rho);
        let l = lq + a;
        assert!(
            (sol.mean_level() - l).abs() < 1e-9,
            "{} vs {l}",
            sol.mean_level()
        );
        assert!((sol.level_prob(0) - p0).abs() < 1e-10);
    }

    #[test]
    fn mm5_matches_erlang_formulas() {
        let (lambda, mu, s) = (3.0, 1.0, 5usize);
        let q = mmc(lambda, mu, s);
        let sol = q.solve(&SolveOptions::default()).unwrap();
        let a: f64 = lambda / mu;
        let rho = a / s as f64;
        let mut p0_inv = 0.0;
        for k in 0..s {
            p0_inv += a.powi(k as i32) / factorial(k);
        }
        p0_inv += a.powi(s as i32) / (factorial(s) * (1.0 - rho));
        let p0 = 1.0 / p0_inv;
        let erlang_c = a.powi(s as i32) / (factorial(s) * (1.0 - rho)) * p0;
        let l = erlang_c * rho / (1.0 - rho) + a;
        assert!(
            (sol.mean_level() - l).abs() < 1e-8,
            "{} vs {l}",
            sol.mean_level()
        );
        fn factorial(n: usize) -> f64 {
            (1..=n).map(|i| i as f64).product::<f64>().max(1.0)
        }
    }

    #[test]
    fn unstable_rejected() {
        let q = mm1(1.5, 1.0);
        assert!(matches!(
            q.solve(&SolveOptions::default()),
            Err(QbdError::Unstable(_))
        ));
    }

    #[test]
    fn tail_probabilities_consistent() {
        let q = mm1(0.4, 1.0);
        let sol = q.solve(&SolveOptions::default()).unwrap();
        for n in 0..8 {
            let direct: f64 = (n..60).map(|k| sol.level_prob(k)).sum();
            assert!(
                (sol.tail_prob(n) - direct).abs() < 1e-10,
                "n={n}: {} vs {direct}",
                sol.tail_prob(n)
            );
        }
    }

    #[test]
    fn solution_matches_truncated_ctmc() {
        use gsched_markov::Ctmc;
        let q = mmc(1.0, 0.8, 3);
        let sol = q.solve(&SolveOptions::default()).unwrap();
        // Direct solve of the truncated chain at a high level.
        let t = q.truncated_generator(60);
        let pi = Ctmc::new(t).unwrap().stationary_gth().unwrap();
        for (n, &pi_n) in pi.iter().enumerate().take(10) {
            assert!(
                (sol.level_prob(n) - pi_n).abs() < 1e-8,
                "n={n}: {} vs {}",
                sol.level_prob(n),
                pi_n
            );
        }
    }

    #[test]
    fn mean_level_matches_series() {
        let q = mm1(0.7, 1.0);
        let sol = q.solve(&SolveOptions::default()).unwrap();
        let series: f64 = (1..500).map(|n| n as f64 * sol.level_prob(n)).sum();
        assert!((sol.mean_level() - series).abs() < 1e-8);
    }

    #[test]
    fn warm_start_reproduces_cold_solution() {
        let rho: f64 = 0.6;
        let q = mm1(rho, 1.0);
        let cold = q.solve(&SolveOptions::default()).unwrap();
        // Perturb the converged R slightly, as a neighbouring sweep point
        // would, and re-solve warm.
        let mut r0 = cold.r().clone();
        r0[(0, 0)] += 1e-3;
        let warm_opts = SolveOptions {
            initial_r: Some(r0),
            ..Default::default()
        };
        let warm = q.solve(&warm_opts).unwrap();
        assert!((warm.r()[(0, 0)] - rho).abs() < 1e-10, "R should be rho");
        assert!((warm.mean_level() - cold.mean_level()).abs() < 1e-10);
    }

    #[test]
    fn warm_start_bad_iterate_falls_back() {
        let q = mm1(0.5, 1.0);
        // Nonsensical warm start (wrong magnitude): the warm attempt must
        // fail validation and the cold path must still deliver R = rho.
        let r0 = Matrix::from_rows(&[&[50.0]]);
        let opts = SolveOptions {
            initial_r: Some(r0),
            ..Default::default()
        };
        let sol = q.solve(&opts).unwrap();
        assert!((sol.r()[(0, 0)] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn warm_start_wrong_dims_falls_back() {
        let q = mm1(0.5, 1.0);
        let opts = SolveOptions {
            initial_r: Some(Matrix::zeros(2, 2)),
            ..Default::default()
        };
        let sol = q.solve(&opts).unwrap();
        assert!((sol.r()[(0, 0)] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn methods_agree_on_solution() {
        let q = mmc(1.2, 1.0, 2);
        let want = q.solve(&SolveOptions::default()).unwrap();
        let sol = q
            .solve(&SolveOptions {
                method: RSolverMethod::SuccessiveSubstitution,
                ..Default::default()
            })
            .unwrap();
        assert!(
            (sol.mean_level() - want.mean_level()).abs() < 1e-9,
            "ss vs lr: {} vs {}",
            sol.mean_level(),
            want.mean_level()
        );
        assert!((sol.total_mass() - 1.0).abs() < 1e-9);
    }

    /// Mean number in an M/M/c system by Erlang-C, through the Erlang-B
    /// recursion: no QBD code involved.
    fn erlang_c_mean(lambda: f64, mu: f64, servers: usize) -> f64 {
        let a = lambda / mu;
        let b = (1..=servers).fold(1.0, |b, k| a * b / (k as f64 + a * b));
        let c = servers as f64;
        a + c * b / (c - a * (1.0 - b)) * a / (c - a)
    }

    #[test]
    fn boundary_matches_truncated_ctmc_and_erlang_c() {
        use gsched_markov::Ctmc;
        for (lambda, servers) in [(3.0, 5), (1.2, 3)] {
            let sol = mmc(lambda, 1.0, servers)
                .solve(&SolveOptions::default())
                .unwrap();
            let want = erlang_c_mean(lambda, 1.0, servers);
            assert!(((sol.mean_level() - want) / want).abs() < 1e-12);
            assert!((sol.total_mass() - 1.0).abs() < 1e-12);
            // One state per level; the reflected tail above 200 is below
            // 1e-40.
            let t = mmc(lambda, 1.0, servers).truncated_generator(200);
            let pi = Ctmc::new(t).unwrap().stationary_gth().unwrap();
            for (n, &pi_n) in pi.iter().enumerate().take(12) {
                assert!(
                    (sol.level_prob(n) - pi_n).abs() < 1e-12,
                    "n={n}: {} vs {pi_n}",
                    sol.level_prob(n)
                );
            }
        }
    }

    #[test]
    fn geometric_tail_bound_dominates_exact_tail() {
        for q in [mm1(0.7, 1.0), mmc(3.0, 1.0, 5)] {
            let sol = q.solve(&SolveOptions::default()).unwrap();
            let rate = sol.tail_decay_rate();
            assert!((0.0..1.0).contains(&rate), "decay rate {rate}");
            for n in 0..40 {
                assert!(
                    sol.geometric_tail_bound(n) >= sol.tail_prob(n) - 1e-12,
                    "n={n}: bound {} < exact {}",
                    sol.geometric_tail_bound(n),
                    sol.tail_prob(n)
                );
            }
        }
    }

    #[test]
    fn fixed_truncation_at_saturated_level_is_exact() {
        // For M/M/2 the level-1 blocks already equal the repeating blocks,
        // so the frozen-capacity truncation at m = 1 IS the original chain.
        let q = mmc(1.2, 1.0, 2);
        let full = q.solve(&SolveOptions::default()).unwrap();
        let trunc = q
            .solve(&SolveOptions {
                truncation: LevelTruncation::Fixed { level: 1 },
                ..Default::default()
            })
            .unwrap();
        assert!((full.mean_level() - trunc.mean_level()).abs() < 1e-12);
        let cert = trunc.truncation().expect("certificate");
        assert_eq!(cert.level, 1);
        assert_eq!(cert.full_c, 2);
        assert!(cert.tail_mass > 0.0 && cert.tail_mass < 1.0);
    }

    #[test]
    fn auto_truncation_certifies_and_matches_full() {
        // Light load on 64 servers: tail is negligible well below c = 64.
        let q = mmc(4.0, 1.0, 64);
        let full = q.solve(&SolveOptions::default()).unwrap();
        let target = 1e-8;
        let sol = q
            .solve(&SolveOptions {
                truncation: LevelTruncation::Auto {
                    target_tail: target,
                    min_levels: 2,
                },
                ..Default::default()
            })
            .unwrap();
        let cert = sol.truncation().expect("should truncate at light load");
        assert!(cert.level < 64, "level {}", cert.level);
        assert!(cert.tail_mass <= target, "tail {}", cert.tail_mass);
        assert_eq!(cert.full_c, 64);
        assert!(
            (sol.mean_level() - full.mean_level()).abs() < 1e-6,
            "{} vs {}",
            sol.mean_level(),
            full.mean_level()
        );
        assert!((sol.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn truncated_solve_dominates_full_tail() {
        // Frozen capacity means stochastically more jobs: every tail
        // probability of the truncated solve upper-bounds the true one.
        let q = mmc(2.0, 1.0, 8);
        let full = q.solve(&SolveOptions::default()).unwrap();
        let trunc = q
            .solve(&SolveOptions {
                truncation: LevelTruncation::Fixed { level: 4 },
                ..Default::default()
            })
            .unwrap();
        for n in 0..20 {
            assert!(
                trunc.tail_prob(n) >= full.tail_prob(n) - 1e-12,
                "n={n}: {} < {}",
                trunc.tail_prob(n),
                full.tail_prob(n)
            );
        }
    }

    #[test]
    fn auto_truncation_falls_back_to_full_when_small() {
        // c = 0 (M/M/1): truncation can't apply; must solve in full with no
        // certificate attached.
        let q = mm1(0.5, 1.0);
        let sol = q
            .solve(&SolveOptions {
                truncation: LevelTruncation::Auto {
                    target_tail: 1e-9,
                    min_levels: 1,
                },
                ..Default::default()
            })
            .unwrap();
        assert!(sol.truncation().is_none());
        assert!((sol.mean_level() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn auto_truncation_surfaces_instability() {
        let q = mmc(3.0, 1.0, 2); // rho = 1.5
        let got = q.solve(&SolveOptions {
            truncation: LevelTruncation::Auto {
                target_tail: 1e-9,
                min_levels: 1,
            },
            ..Default::default()
        });
        assert!(matches!(got, Err(QbdError::Unstable(_))));
    }

    #[test]
    fn fixed_truncation_rejects_bad_levels() {
        let q = mmc(1.0, 1.0, 4);
        for level in [0usize, 4, 9] {
            let got = q.solve(&SolveOptions {
                truncation: LevelTruncation::Fixed { level },
                ..Default::default()
            });
            assert!(matches!(got, Err(QbdError::Shape(_))), "level {level}");
        }
    }
}
