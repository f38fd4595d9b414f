//! Pinned regression gates on the default search, on the paper's small
//! circuits. Each gate holds a number measured on the current solver; a
//! change that moves one of them must update the pin consciously.
//!
//! * figure1 at the LP bound mode is proven optimal at its known optima
//!   within a pinned node count per k and a pinned simplex-pivot total,
//! * the layered engine reproduces the rebuild path bit for bit (objective,
//!   nodes, pivots) in both the LP and the propagation bound modes,
//! * node LPs warm-start from their parent's basis: a 1000-node tseng
//!   rebuild solves at most a pinned handful of them cold,
//! * an engine sweep reduces the circuit base model exactly once.

use advbist::core::engine::SynthesisEngine;
use advbist::core::{synthesis, SynthesisConfig};
use advbist::dfg::benchmarks;
use advbist::ilp::reduce::prefix_reductions_on_thread;
use advbist::ilp::{BoundMode, Budget, SolverConfig};

/// A deterministic, node-limited configuration of the default search under
/// the given bound mode.
fn node_limited(bound_mode: BoundMode, nodes: u64) -> SynthesisConfig {
    SynthesisConfig {
        solver: SolverConfig {
            budget: Budget::nodes(nodes),
            bound_mode,
            ..SolverConfig::default()
        },
        ..SynthesisConfig::default()
    }
}

#[test]
fn figure1_lp_search_proves_both_optima_within_pinned_nodes_and_pivots() {
    // (k, proven optimum, node ceiling)
    const PINNED: [(usize, f64, u64); 2] = [(1, 1316.0, 47), (2, 1136.0, 37)];
    const PIVOT_CEILING: u64 = 3701;
    let input = benchmarks::figure1();
    let config = node_limited(BoundMode::LpRelaxation, 300);
    let mut pivots = 0;
    for (k, optimum, node_ceiling) in PINNED {
        let design = synthesis::synthesize_bist(&input, k, &config).unwrap();
        assert!(design.optimal, "k={k}: not proven optimal");
        assert_eq!(design.objective, optimum, "k={k}");
        assert!(
            design.stats.nodes <= node_ceiling,
            "k={k}: {} nodes, ceiling {node_ceiling}",
            design.stats.nodes
        );
        pivots += design.stats.lp_pivots;
    }
    assert!(
        pivots <= PIVOT_CEILING,
        "{pivots} simplex pivots, ceiling {PIVOT_CEILING}"
    );
}

#[test]
fn tseng_rebuild_warm_starts_all_but_a_few_node_lps() {
    // Every open node keeps its parent's basis header, so a node LP is
    // solved cold only at the root, after a cut install changed the rows,
    // or when its warm re-solve fails. A basis cache that evicts the
    // parents of backtracked-to siblings solved 63 of them cold here.
    const COLD_CEILING: u64 = 6;
    let config = node_limited(BoundMode::LpRelaxation, 1000);
    let design = synthesis::synthesize_bist(&benchmarks::tseng(), 1, &config).unwrap();
    let stats = &design.stats;
    assert!(
        stats.refactorizations <= COLD_CEILING,
        "{} of {} node LPs cold, ceiling {COLD_CEILING}",
        stats.refactorizations,
        stats.refactorizations + stats.warm_lp_solves
    );
}

#[test]
fn figure1_engine_path_matches_the_rebuild_path_in_lp_and_prop_modes() {
    let input = benchmarks::figure1();
    for mode in [BoundMode::LpRelaxation, BoundMode::Propagation] {
        let config = node_limited(mode, 200);
        let engine = SynthesisEngine::new(&input, &config).unwrap();
        for k in 1..=engine.max_sessions() {
            let rebuild = synthesis::synthesize_bist(&input, k, &config).unwrap();
            let shared = engine.synthesize(k).unwrap();
            let context = format!("{mode:?} k={k}");
            assert_eq!(
                shared.objective.to_bits(),
                rebuild.objective.to_bits(),
                "{context}"
            );
            assert_eq!(shared.stats.nodes, rebuild.stats.nodes, "{context}");
            assert_eq!(shared.stats.lp_pivots, rebuild.stats.lp_pivots, "{context}");
        }
    }
}

#[test]
fn engine_sweep_reduces_each_circuit_base_exactly_once() {
    // The base reduction does not depend on the bound mode; propagation
    // bounds keep the per-k solves cheap.
    let config = node_limited(BoundMode::Propagation, 10);
    for (name, input) in benchmarks::small() {
        let before = prefix_reductions_on_thread();
        let engine = SynthesisEngine::new(&input, &config).unwrap();
        for k in 1..=engine.max_sessions() {
            engine.synthesize(k).unwrap();
        }
        let reductions = prefix_reductions_on_thread() - before;
        assert_eq!(reductions, 1, "{name}: base reduced {reductions} times");
        let report = engine.base_reduce_report().expect("presolve is on");
        assert!(report.var_reduction_ratio() > 0.0, "{name}: {report:?}");
    }
}
