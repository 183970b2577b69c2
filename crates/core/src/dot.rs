//! Graphviz export of a class chain's state-transition diagram.
//!
//! The paper's Figure 1 shows the class-`p` state-transition diagram for
//! Poisson arrivals, exponential service, exponential overheads, a K-stage
//! Erlang quantum and 3 servers. This module regenerates that diagram (for
//! any parameterization) from the same generator the solver uses: run
//! `gsched figure fig1` and render with `dot -Tsvg`.

use crate::generator::ClassChain;
use crate::{GangError, Result};

/// Render the chain truncated at `max_level` as a Graphviz digraph.
///
/// Nodes are labelled `i=<level> a=<arrival phase> cfg=<service phases>
/// k=<cycle phase>`, where the cycle phase is `Q<j>` during the class's
/// quantum and `V<j>` during its vacation. Edge labels carry the rates.
/// A boundary level that fails its generator check is a [`GangError::Qbd`]
/// naming the class.
pub fn class_chain_dot(chain: &ClassChain, max_level: usize) -> Result<String> {
    let sp = &chain.space;
    let q = chain
        .qbd
        .truncated_generator(max_level.max(sp.c + 1))
        .map_err(|e| GangError::from(e).with_class(chain.class))?;
    let max_level = max_level.max(sp.c + 1);

    // Global index offsets per level.
    let mut offsets = Vec::with_capacity(max_level + 2);
    let mut acc = 0usize;
    for lvl in 0..=max_level {
        offsets.push(acc);
        acc += chain.qbd.level_dim(lvl);
    }
    offsets.push(acc);

    let label = |g: usize| -> String {
        let lvl = match offsets.binary_search(&g) {
            Ok(i) => i.min(max_level),
            Err(i) => i - 1,
        };
        let idx = g - offsets[lvl];
        let (a, ci, k) = sp.decode(lvl, idx);
        let n = sp.in_service(lvl);
        let cfg = sp.cfg(n, ci);
        let kname = if lvl == 0 {
            format!("V{k}")
        } else if sp.is_quantum_phase(k) {
            format!("Q{k}")
        } else {
            format!("V{}", k - sp.m_q)
        };
        let cfg_str: Vec<String> = cfg.iter().map(|c| c.to_string()).collect();
        format!("i={lvl} a={a} b=[{}] {kname}", cfg_str.join(","))
    };

    let mut out = String::new();
    out.push_str("digraph class_chain {\n");
    out.push_str("  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
    // Group nodes by level for readability.
    for (lvl, &off) in offsets.iter().enumerate().take(max_level + 1) {
        out.push_str(&format!("  subgraph cluster_level_{lvl} {{\n"));
        out.push_str(&format!("    label=\"level {lvl}\";\n"));
        for idx in 0..chain.qbd.level_dim(lvl) {
            let g = off + idx;
            out.push_str(&format!("    s{g} [label=\"{}\"];\n", label(g)));
        }
        out.push_str("  }\n");
    }
    for i in 0..q.rows() {
        for j in 0..q.cols() {
            if i != j && q[(i, j)] > 1e-12 {
                out.push_str(&format!(
                    "  s{i} -> s{j} [label=\"{:.4}\", fontsize=8];\n",
                    q[(i, j)]
                ));
            }
        }
    }
    out.push_str("}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::build_class_chain;
    use crate::model::{ClassParams, GangModel};
    use crate::vacation::heavy_traffic_vacation;
    use gsched_phase::{erlang, exponential};

    fn figure1_chain() -> ClassChain {
        // Figure 1's setting: 3 servers (g=1 on P=3 won't divide evenly into
        // the paper's 8; use P=3, g=1 => c=3), Poisson arrivals, exponential
        // service, exponential overhead, K-stage Erlang quantum.
        let m = GangModel::new(
            3,
            vec![
                ClassParams {
                    partition_size: 1,
                    arrival: exponential(0.5),
                    service: exponential(1.0),
                    quantum: erlang(3, 1.0),
                    switch_overhead: exponential(100.0),
                },
                ClassParams {
                    partition_size: 3,
                    arrival: exponential(0.2),
                    service: exponential(1.0),
                    quantum: erlang(3, 1.0),
                    switch_overhead: exponential(100.0),
                },
            ],
        )
        .unwrap();
        let vac = heavy_traffic_vacation(&m, 0);
        build_class_chain(&m, 0, &vac).unwrap()
    }

    #[test]
    fn dot_contains_all_states() {
        let chain = figure1_chain();
        let dot = class_chain_dot(&chain, 4).unwrap();
        assert!(dot.starts_with("digraph"));
        assert!(dot.ends_with("}\n"));
        // All five level clusters present.
        for lvl in 0..=4 {
            assert!(dot.contains(&format!("cluster_level_{lvl}")), "level {lvl}");
        }
        // Quantum and vacation phases appear.
        assert!(dot.contains("Q0"));
        assert!(dot.contains("V0"));
        // Edge syntax sanity.
        assert!(dot.contains("->"));
    }

    #[test]
    fn dot_edge_count_matches_generator() {
        let chain = figure1_chain();
        let q = chain.qbd.truncated_generator(4).unwrap();
        let mut edges = 0;
        for i in 0..q.rows() {
            for j in 0..q.cols() {
                if i != j && q[(i, j)] > 1e-12 {
                    edges += 1;
                }
            }
        }
        let dot = class_chain_dot(&chain, 4).unwrap();
        let arrow_count = dot.matches("->").count();
        assert_eq!(arrow_count, edges);
    }
}
