//! §6 extension: the SP2 implementation variant.
//!
//! The paper's conclusion notes that the real SP2 scheduler deviates from
//! the analyzed model: "as soon as a partition becomes idle in a given
//! class, it switches to the next class, while other partitions of that
//! class may still be busy". This example compares the analyzed policy
//! (system-wide switching) against that variant (idle processors lent to
//! later classes) by simulation on the registry scenario `sp2` — the same
//! machine, grid, and simulation config `gsched validate sp2` describes.
//!
//! Run: `cargo run --release --example sp2_variant`

use gsched_scenario::registry;
use gsched_sim::{simulate, Policy};

fn main() {
    let scenario = registry::lookup("sp2").expect("sp2 is registered");
    // Longer horizon than cross-validation runs use, for tight CIs.
    let cfg = scenario.sim_config(2.0);
    let grid = scenario.grid(false).to_vec();
    println!("quantum,policy,N0,N1,N2,N3,total_N,utilization");
    let mut improved = 0usize;
    let mut total = 0usize;
    for &q in &grid {
        let model = scenario.model_at(q).expect("sp2 grid points build");
        let mut totals = Vec::new();
        for (name, policy) in [
            ("system-wide", Policy::Gang),
            ("per-partition", Policy::Lend),
        ] {
            let r = simulate(&model, policy, cfg.clone());
            let ns: Vec<String> = r
                .classes
                .iter()
                .map(|c| format!("{:.3}", c.mean_jobs))
                .collect();
            let tn: f64 = r.classes.iter().map(|c| c.mean_jobs).sum();
            totals.push(tn);
            println!(
                "{q:.1},{name},{},{tn:.3},{:.3}",
                ns.join(","),
                r.processor_utilization
            );
        }
        total += 1;
        if totals[1] <= totals[0] {
            improved += 1;
        }
    }
    eprintln!(
        "sp2_variant: per-partition lending reduced (or matched) total population at {improved}/{total} points"
    );
    // The variant reclaims idle time, so it should win at most points —
    // especially at long quanta where system-wide switching idles partitions.
    if improved * 2 < total {
        eprintln!("sp2_variant: unexpected — lending lost at most points");
        std::process::exit(1);
    }
}
