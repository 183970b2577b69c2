//! Seeded inputs. Every workload's inputs are scenario documents (JSON
//! text) and request frames generated here from `--seed` alone; the
//! program under test only ever sees this text.

use crate::rng::Rng;
use gsched_scenario::{registry, DistSpec, Scenario};
use gsched_service::client::{frame_for_scenario, RequestSpec};
use gsched_service::Op;

/// One sweep input: a scenario document whose `sweep.grid` was drawn from
/// the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepDoc {
    /// Stable label (`fig2`, `fig5_class3`, `p_sweep`, …).
    pub label: String,
    /// The scenario document handed to `Scenario::from_json`.
    pub json: String,
}

/// The rounds of inputs one `figs_sweep` run makes its passes over: one
/// antithetic pair (see [`round_stream`]).
pub const FIGS_ROUNDS: u64 = 2;
/// The rounds of one `large_p` run: an antithetic pair, like
/// [`FIGS_ROUNDS`]. Point costs jump between machine sizes a few percent
/// apart (P = 144, 152, 156 on three seeds: 331, 478, 198 ms), so the
/// median of one round's 18 points moves with the seed; 36 points fill the
/// gaps.
pub const LARGE_P_ROUNDS: u64 = 2;

/// Where a seeded point falls inside its slice: uniformly in the middle
/// half, so neighbouring slices never crowd and every seed's grid costs
/// about the same. A mirrored draw takes the place symmetric about the
/// slice's centre.
fn jitter(rng: &mut Rng, mirror: bool) -> f64 {
    let u = rng.uniform();
    0.25 + 0.5 * if mirror { 1.0 - u } else { u }
}

/// The random stream of round `round` and whether it is mirrored. Rounds
/// come in antithetic pairs: an odd round redraws the previous even round's
/// stream and mirrors every placement, so where one round of a pair lands
/// high in a slice the other lands as far low, and the pair's cost varies
/// little from seed to seed while every seed's grids still differ.
fn round_stream(seed: u64, workload: &str, round: u64) -> (Rng, bool) {
    (Rng::stream(seed, workload, round / 2), round % 2 == 1)
}

/// A strictly increasing grid with `n` points, one in each of `n` equal
/// slices of the paper grid's *index* range `lo..hi`. Sampling in index
/// space follows the paper's own point density.
pub fn stratified(
    paper: &[f64],
    (lo, hi): (usize, usize),
    n: usize,
    rng: &mut Rng,
    mirror: bool,
) -> Vec<f64> {
    let span = (hi - lo) as f64;
    (0..n)
        .map(|i| {
            let t = lo as f64 + (i as f64 + jitter(rng, mirror)) / n as f64 * span;
            let k = (t.floor() as usize).min(paper.len() - 2);
            paper[k] + (t - k as f64) * (paper[k + 1] - paper[k])
        })
        .collect()
}

fn with_grid(mut sc: Scenario, grid: Vec<f64>) -> Scenario {
    let sweep = sc.sweep.as_mut().expect("figure scenarios sweep");
    sweep.grid = grid;
    sweep.quick_grid = None;
    sc
}

fn lookup(name: &str) -> Scenario {
    registry::lookup(name).expect("registry scenario exists")
}

/// The Fig. 5 family for focal class `class`: class 0 is the registry
/// `fig5`, class `k` the same cycle-fraction sweep with the focus moved.
pub fn fig5_family(class: usize, grid: Vec<f64>) -> Scenario {
    let base = lookup("fig5");
    if class == 0 {
        return with_grid(base, grid);
    }
    let budget = base.param("budget").expect("fig5 carries its budget");
    let stages = base.param("quantum_stages").unwrap_or(2.0) as usize;
    registry::cycle_fraction_scenario(
        &format!("fig5_class{class}"),
        class,
        budget,
        stages,
        grid,
        None,
    )
}

/// The paper's own figure sweeps, exactly as `results/fig*.json` were made:
/// fig2, fig3 (registry `fig3_heavy`, ρ = 0.9), fig4, and the four Fig. 5
/// focal classes.
pub fn paper_figure_sweeps() -> Vec<(String, Scenario)> {
    let mut out = vec![
        ("fig2".to_string(), lookup("fig2")),
        ("fig3".to_string(), lookup("fig3_heavy")),
        ("fig4".to_string(), lookup("fig4")),
    ];
    let grid = lookup("fig5").grid(false).to_vec();
    for k in 0..4 {
        out.push((format!("fig5_class{k}"), fig5_family(k, grid.clone())));
    }
    out
}

/// Round `round` of the `figs_sweep` inputs: the four figure families on
/// seeded grids inside the paper's axis ranges, ascending so warm starts
/// chain. Fig. 3 at ρ = 0.9 keeps four points where the machine-wide class
/// saturates (x ≤ 3). Its stable side is left out of the timed rounds: one
/// point there costs more than a second, over a third of a round, and a
/// single solve that long cannot be timed steadily on a shared machine (the
/// paper-grid check still sweeps it).
pub fn figs_round(seed: u64, round: u64) -> Vec<SweepDoc> {
    let (mut rng, mirror) = round_stream(seed, "figs_sweep", round);
    let rng = &mut rng;
    let mut out = Vec::new();
    let mut push = |label: &str, sc: Scenario| {
        out.push(SweepDoc {
            label: label.to_string(),
            json: sc.to_json(),
        })
    };
    let fig2 = lookup("fig2");
    let g2 = stratified(fig2.grid(false), (0, 17), 8, rng, mirror);
    push("fig2", with_grid(fig2, g2));
    let fig3 = lookup("fig3_heavy");
    let g3 = stratified(fig3.grid(false), (0, 11), 4, rng, mirror);
    push("fig3_heavy", with_grid(fig3, g3));
    let fig4 = lookup("fig4");
    let g4 = stratified(fig4.grid(false), (0, 9), 6, rng, mirror);
    push("fig4", with_grid(fig4, g4));
    let paper5 = lookup("fig5").grid(false).to_vec();
    for k in 0..4 {
        let g5 = stratified(&paper5, (0, 8), 4, rng, mirror);
        push(&format!("fig5_class{k}"), fig5_family(k, g5));
    }
    out
}

/// Round `round` of the `large_p` inputs: the `p_sweep` machine at P = 8,
/// two seeded processor counts in each octave from 16 to 4096 (one in each
/// half-octave, log scale), and
/// P = 4096 itself: 18 points on every seed, so the engine's warm-start
/// chunks always fall alike. Counts are multiples of 4, the machine's
/// widest partition.
///
/// Each seeded count lies in the middle fifth of its half-octave, within
/// 3.6% of the half-octave's centre, so that neighbouring points lie about
/// equally far apart on every seed: a point's cost depends on how far its
/// warm start comes from (the previous point of its engine chunk), and
/// within P = 400–440 it ranges from 54 to 90 ms with chunk position alone.
pub fn large_p_round(seed: u64, round: u64) -> SweepDoc {
    let (mut rng, mirror) = round_stream(seed, "large_p", round);
    let mut grid = vec![8.0];
    for octave in 4..12 {
        for half in 0..2 {
            let place = 0.5 + (jitter(&mut rng, mirror) - 0.5) * 0.4;
            let t = octave as f64 + (half as f64 + place) / 2.0;
            let p = (2f64.powf(t) / 4.0).floor() * 4.0;
            let last = *grid.last().expect("grid starts at 8");
            grid.push(p.max(last + 4.0));
        }
    }
    grid.push(4096.0);
    SweepDoc {
        label: "p_sweep".to_string(),
        json: with_grid(lookup("p_sweep"), grid).to_json(),
    }
}

/// Registry scenarios behind the service's `solve` keys.
pub const SERVICE_BASES: [&str; 6] = [
    "fig2",
    "fig4",
    "fig5",
    "sp2",
    "ablation",
    "skewed_partitions",
];
/// Distinct keys in the service key space, indexed by popularity rank. The
/// server's cache holds [`SERVICE_CACHE_CAPACITY`] entries, fewer than the
/// keys the traffic requests.
pub const SERVICE_KEYS: usize = 120;
/// Result-cache capacity the benchmark configures on the server.
pub const SERVICE_CACHE_CAPACITY: usize = 32;
/// Zipf exponent of key popularity.
pub const ZIPF_EXPONENT: f64 = 1.4;
/// Popularity ranks of the quick-`sweep` keys and the scenarios behind
/// them; under the Zipf law above they draw 10% of requests. They are
/// popular, so after warm-up sweeps are mostly cache hits and the misses
/// that set the latency tail are single solves.
const SWEEP_KEYS: [(usize, &str); 4] = [(3, "fig2"), (5, "fig5"), (9, "sp2"), (19, "fig4")];

/// One service key: a perturbed scenario and its request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDoc {
    /// The scenario document.
    pub json: String,
    /// Whether the key asks for a quick sweep rather than a solve.
    pub sweep: bool,
    /// The request frame carrying the document inline.
    pub frame: String,
}

fn scale_mean(spec: &DistSpec, factor: f64) -> DistSpec {
    let mean = spec
        .analytic_mean()
        .expect("registry distributions have means");
    spec.scaled_to_mean(mean * factor)
        .expect("positive scale keeps a distribution valid")
}

/// The seeded key space, one key per popularity rank. Each key is one
/// registry scenario with one parameter of one class (arrival, service,
/// quantum or switch-overhead mean) scaled by a factor in `[0.85, 1.15)`.
/// Bases take turns along the ranks, so every seed's popular and unpopular
/// keys mix the scenarios alike; the seed picks the perturbations.
pub fn service_docs(seed: u64) -> Vec<ServiceDoc> {
    let mut rng = Rng::stream(seed, "service_docs", 0);
    (0..SERVICE_KEYS)
        .map(|rank| {
            let sweep_base = SWEEP_KEYS.iter().find(|(r, _)| *r == rank).map(|(_, b)| *b);
            let sweep = sweep_base.is_some();
            let base = sweep_base.unwrap_or(SERVICE_BASES[rank % SERVICE_BASES.len()]);
            let mut sc = lookup(base);
            let class = rng.below(sc.machine.classes.len());
            let factor = 0.85 + 0.3 * rng.uniform();
            let c = &mut sc.machine.classes[class];
            let (what, spec) = match rng.below(4) {
                0 => ("arrival", &mut c.arrival),
                1 => ("service", &mut c.service),
                2 => ("quantum", &mut c.quantum),
                _ => ("overhead", &mut c.switch_overhead),
            };
            *spec = scale_mean(spec, factor);
            sc.name = format!("{base}-{what}{class}-{rank:03}");
            let spec = RequestSpec {
                op: Some(if sweep { Op::Sweep } else { Op::Solve }),
                quick: sweep,
                ..RequestSpec::default()
            };
            ServiceDoc {
                json: sc.to_json(),
                sweep,
                frame: frame_for_scenario(&sc, &spec),
            }
        })
        .collect()
}

/// One generated request: which key (its popularity rank), whether it is a
/// sweep, and the gap before it in units of the mean interarrival time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub key: usize,
    pub sweep: bool,
    pub unit_gap: f64,
}

/// The seeded open-loop request stream: Poisson arrivals (exponential
/// gaps, scaled to a phase's rate by the caller) over Zipf-popular keys.
#[derive(Debug, Clone)]
pub struct Traffic {
    rng: Rng,
    cdf: Vec<f64>,
    sweep: Vec<bool>,
}

impl Traffic {
    pub fn new(seed: u64, docs: &[ServiceDoc]) -> Traffic {
        let weights: Vec<f64> = (0..docs.len())
            .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_EXPONENT))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Traffic {
            rng: Rng::stream(seed, "service_traffic", 0),
            cdf,
            sweep: docs.iter().map(|d| d.sweep).collect(),
        }
    }

    pub fn next_arrival(&mut self) -> Arrival {
        let unit_gap = self.rng.exp1();
        let u = self.rng.uniform();
        let key = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        Arrival {
            key,
            sweep: self.sweep[key],
            unit_gap,
        }
    }
}
