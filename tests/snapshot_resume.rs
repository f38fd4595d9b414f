//! S3 acceptance suite for solve-state snapshots: interrupt → serialize →
//! temp file → reload → resume must provably continue the *same*
//! branch-and-bound tree.
//!
//! Over the pinned 12-instance corpus (see `common::corpus`), every case is
//! solved cold once, then interrupted at nodes 1, 3 and N/2 with snapshot
//! capture on; each snapshot is written to a temp file, read back by a
//! fresh engine/session, and the resumed solve must reach the **identical
//! objective, identical total node count and the golden optimal area** of
//! the uninterrupted run — a resumed tree explores no node twice and loses
//! none.

mod common;

use std::sync::Arc;

use advbist::core::engine::SynthesisEngine;
use advbist::core::{synthesis, SynthesisConfig};
use advbist::dfg::benchmarks;
use advbist::ilp::{BoundMode, Model, Sense, SolveEvent, SolverConfig};
use advbist::{Budget, SolveSession, SolveSnapshot};
use common::corpus::CORPUS;

/// Serializes through a real temp file and parses back — the full wire
/// round trip a persisted job would take.
fn file_round_trip(snapshot: &SolveSnapshot, tag: &str) -> SolveSnapshot {
    let path = std::env::temp_dir().join(format!(
        "advbist_snapshot_{tag}_{}.json",
        std::process::id()
    ));
    let text = snapshot.to_json().expect("snapshot serializes");
    std::fs::write(&path, &text).expect("snapshot written");
    let reread = std::fs::read_to_string(&path).expect("snapshot reread");
    std::fs::remove_file(&path).ok();
    SolveSnapshot::from_json(&reread).expect("snapshot parses back")
}

#[test]
fn corpus_resumes_reach_the_uninterrupted_tree_exactly() {
    for case in CORPUS {
        let input = case.input();
        let config = SynthesisConfig::exact();
        let engine = SynthesisEngine::new(&input, &config).expect(case.name);

        let cold = engine
            .synthesize_resumable(case.sessions, None, None)
            .expect(case.name);
        assert!(
            cold.design.optimal,
            "{}: cold solve must be exact",
            case.name
        );
        assert_eq!(
            cold.design.area.total(),
            case.golden_area,
            "{}: cold golden area",
            case.name
        );
        assert!(
            cold.design.snapshot.is_none(),
            "{}: a completed solve must not carry a snapshot",
            case.name
        );
        let total_nodes = cold.design.stats.nodes;

        let mut interrupts = vec![1, 3, total_nodes / 2];
        interrupts.sort_unstable();
        interrupts.dedup();
        for interrupt in interrupts {
            if interrupt == 0 || interrupt >= total_nodes {
                continue;
            }
            let mut cut_config = SynthesisConfig::exact();
            cut_config.solver.budget = Budget::nodes(interrupt);
            let cut_engine = SynthesisEngine::new(&input, &cut_config).expect(case.name);
            let partial = cut_engine
                .synthesize_resumable(case.sessions, None, None)
                .expect(case.name);
            assert!(
                !partial.design.optimal,
                "{}@{interrupt}: interrupted solve must not be proven optimal",
                case.name
            );
            let snapshot = partial
                .design
                .snapshot
                .clone()
                .unwrap_or_else(|| panic!("{}@{interrupt}: no snapshot captured", case.name));
            assert!(snapshot.open_nodes() > 0, "{}@{interrupt}", case.name);

            let reloaded = file_round_trip(&snapshot, &format!("{}_{interrupt}", case.name));
            let resumed = engine
                .synthesize_resumable(case.sessions, None, Some(Arc::new(reloaded)))
                .expect(case.name);

            assert!(resumed.design.stats.resumed, "{}@{interrupt}", case.name);
            assert!(
                resumed.design.optimal,
                "{}@{interrupt}: resumed solve must finish exactly",
                case.name
            );
            assert_eq!(
                resumed.design.stats.nodes, total_nodes,
                "{}@{interrupt}: resumed total node count must equal the uninterrupted tree",
                case.name
            );
            assert_eq!(
                resumed.design.objective.to_bits(),
                cold.design.objective.to_bits(),
                "{}@{interrupt}: resumed objective must be bit-identical",
                case.name
            );
            assert_eq!(
                resumed.design.area.total(),
                case.golden_area,
                "{}@{interrupt}: resumed golden area",
                case.name
            );
        }
    }
}

/// A branchy pure-ILP instance for the session-level round trip: maximise a
/// value under a knapsack row plus pairwise conflicts, sized to take a few
/// dozen nodes.
fn knapsack_model() -> Model {
    knapsack_model_weighted(12.0)
}

/// The same instance with the weight of `x7` replaced, so two builds with
/// different `x7_value` collide on size but differ in one coefficient.
fn knapsack_model_weighted(x7_value: f64) -> Model {
    let mut model = Model::new("snapshot-knapsack");
    let weights = [5.0, 7.0, 4.0, 3.0, 8.0, 6.0, 5.0, 9.0, 2.0, 4.0];
    let values = [7.0, 9.0, 5.0, 4.0, 11.0, 8.0, 6.0, x7_value, 3.0, 5.0];
    let vars: Vec<_> = (0..weights.len())
        .map(|i| model.add_binary(format!("x{i}")))
        .collect();
    let cap: Vec<_> = vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect();
    model.add_leq(cap, 22.0, "cap");
    for i in 0..vars.len() - 3 {
        model.add_leq([(vars[i], 1.0), (vars[i + 3], 1.0)], 1.0, format!("c{i}"));
    }
    let objective: Vec<_> = vars.iter().zip(values).map(|(&v, c)| (v, c)).collect();
    model.set_objective(objective, Sense::Maximize);
    model
}

#[test]
fn fresh_session_resumes_a_file_round_tripped_snapshot() {
    let model = knapsack_model();
    let cold = SolveSession::new(&model)
        .snapshots(true)
        .solve()
        .expect("cold solve");
    assert!(cold.is_optimal());
    assert!(cold.snapshot().is_none());
    let total_nodes = cold.stats().nodes;
    assert!(total_nodes > 3, "instance must branch (got {total_nodes})");

    for interrupt in [1, 3, total_nodes / 2] {
        let partial = SolveSession::new(&model)
            .budget(Budget::nodes(interrupt).with_snapshot(true))
            .solve()
            .expect("interrupted solve");
        let snapshot = partial.snapshot().expect("snapshot captured");
        assert_eq!(snapshot.nodes(), interrupt);

        let reloaded = file_round_trip(snapshot, &format!("session_{interrupt}"));
        // A *fresh* session over the same model, resuming from the file.
        let resumed = SolveSession::new(&model)
            .resume(Arc::new(reloaded))
            .solve()
            .expect("resumed solve");
        assert!(resumed.is_optimal());
        assert!(resumed.stats().resumed);
        assert_eq!(resumed.stats().nodes, total_nodes, "@{interrupt}");
        assert_eq!(
            resumed.objective().to_bits(),
            cold.objective().to_bits(),
            "@{interrupt}"
        );
        assert_eq!(resumed.values(), cold.values(), "@{interrupt}");
    }
}

#[test]
fn eta_file_snapshots_are_rejected_on_version() {
    // Versions 1 and 2 stored warm bases as eta files under cache keys;
    // version 3 stores basis headers in a table the nodes index. An older
    // document is refused with an error naming its version, not resumed
    // from bases this build cannot read.
    let model = knapsack_model();
    let partial = SolveSession::new(&model)
        .budget(Budget::nodes(3).with_snapshot(true))
        .solve()
        .expect("interrupted solve");
    let text = partial
        .snapshot()
        .expect("snapshot captured")
        .to_json()
        .expect("snapshot serializes");
    assert!(text.contains("\"version\":3"), "current wire version is 3");
    for old in [1, 2] {
        let stale = text.replacen("\"version\":3", &format!("\"version\":{old}"), 1);
        let err = SolveSnapshot::from_json(&stale).unwrap_err();
        assert!(err.message.contains(&format!("`version` {old}")), "{err}");
    }
}

#[test]
fn interrupted_paulin_snapshot_stays_small() {
    // A snapshot carries basis headers, one status per column, for the
    // distinct parent bases of the open frontier — not eta files.
    let mut config = SynthesisConfig::default();
    config.solver.bound_mode = BoundMode::LpRelaxation;
    config.solver.budget = Budget::nodes(300);
    config.solver.snapshot = true;
    let design = synthesis::synthesize_bist(&benchmarks::paulin(), 1, &config).expect("paulin k=1");
    let text = design
        .snapshot
        .expect("a capped solve captures a snapshot")
        .to_json()
        .expect("snapshot serializes");
    assert!(
        text.len() <= 150_000,
        "paulin k=1 snapshot at 300 nodes is {} bytes",
        text.len()
    );
}

/// Solves an eager search — seeded with an incumbent and separating
/// shallow Gomory rounds from the first descent, the state every chained
/// sweep solve runs in — in three legs: interrupted after the root cut loop
/// but before the root node pops, again mid-tree, then finished. Each leg
/// is a fresh session reading the previous leg's snapshot through a file.
#[test]
fn eager_resume_from_before_the_root_and_mid_tree_is_bit_identical() {
    let model = common::random_binary_model(261, 24, 10);
    let lp_mode = |initial_solutions| SolverConfig {
        bound_mode: BoundMode::LpRelaxation,
        eager_tree_cuts: true,
        initial_solutions,
        ..SolverConfig::default()
    };
    let warm = SolveSession::with_config(&model, lp_mode(Vec::new()))
        .budget(Budget::nodes(3))
        .solve()
        .expect("seed solve")
        .values()
        .to_vec();
    let eager = || lp_mode(vec![warm.clone()]);
    let mut events = Vec::new();
    let full = SolveSession::with_config(&model, eager())
        .budget(Budget::nodes(1000))
        .on_event(|event| events.push(event.clone()))
        .solve()
        .expect("uninterrupted solve");
    assert!(full.is_optimal());
    // The root cut loop ends on a round that installs nothing, so its LP
    // and basis stay pending for the root node, and the loop's last event
    // is that LP's bound. A cancellation raised there stops the search
    // just before the root pops.
    let first_pop = events
        .iter()
        .position(|e| matches!(e, SolveEvent::NodeMilestone { .. }))
        .expect("the tree opened");
    assert!(
        matches!(
            events[first_pop - 1],
            SolveEvent::BoundImproved { nodes: 0, .. }
        ),
        "{:?}",
        &events[..first_pop]
    );
    assert!(full.stats().cuts > 0, "the search separates");

    let mut session =
        SolveSession::with_config(&model, eager()).budget(Budget::nodes(1000).with_snapshot(true));
    let token = session.cancel_token();
    let mut seen = 0;
    let before_root = session
        .on_event(move |_| {
            seen += 1;
            if seen == first_pop {
                token.cancel();
            }
        })
        .solve()
        .expect("interrupted before the root");
    let snapshot = before_root.snapshot().expect("snapshot captured");
    assert_eq!(snapshot.nodes(), 0);
    let text = snapshot.to_json().expect("snapshot serializes");
    assert!(!text.contains("\"root_lp\":null"), "the root LP is pending");
    let snapshot = file_round_trip(snapshot, "eager_before_root");

    let mid = full.stats().nodes / 2;
    let mid_tree = SolveSession::with_config(&model, eager())
        .budget(Budget::nodes(mid).with_snapshot(true))
        .resume(Arc::new(snapshot))
        .solve()
        .expect("resumed to mid-tree");
    let snapshot = mid_tree.snapshot().expect("snapshot captured");
    assert_eq!(snapshot.nodes(), mid);
    let snapshot = file_round_trip(snapshot, "eager_mid_tree");

    let resumed = SolveSession::with_config(&model, eager())
        .budget(Budget::nodes(1000))
        .resume(Arc::new(snapshot))
        .solve()
        .expect("resumed to the end");
    assert!(resumed.is_optimal());
    assert_eq!(resumed.objective().to_bits(), full.objective().to_bits());
    assert_eq!(resumed.values(), full.values());
    assert_eq!(resumed.stats().nodes, full.stats().nodes);
    let legs = [&before_root, &mid_tree, &resumed];
    assert_eq!(
        legs.iter().map(|leg| leg.stats().lp_pivots).sum::<u64>(),
        full.stats().lp_pivots
    );
}

#[test]
fn resume_rejects_a_snapshot_of_a_different_instance() {
    let model = knapsack_model();
    let partial = SolveSession::new(&model)
        .budget(Budget::nodes(1).with_snapshot(true))
        .solve()
        .expect("interrupted solve");
    let snapshot = partial.shared_snapshot().expect("snapshot captured");

    // Same shape, one objective coefficient nudged: the content fingerprint
    // differs, so the resume must fail loudly instead of continuing a tree
    // that belongs to another instance.
    let other = knapsack_model_weighted(12.5);
    let err = SolveSession::new(&other)
        .resume(snapshot)
        .solve()
        .expect_err("mismatched snapshot must be rejected");
    let message = err.to_string();
    assert!(
        message.contains("snapshot") || message.contains("fingerprint"),
        "unexpected error: {message}"
    );
}

#[test]
fn snapshot_capture_is_off_by_default() {
    let model = knapsack_model();
    let partial = SolveSession::new(&model)
        .budget(Budget::nodes(2))
        .solve()
        .expect("interrupted solve");
    assert!(!partial.is_optimal());
    assert!(partial.snapshot().is_none());
    assert!(!partial.stats().snapshot_captured);
}

#[test]
fn budget_snapshot_knob_flows_through_the_solver_config() {
    // `Budget::snapshot` (the BIST_SNAPSHOT env knob) must reach the
    // search: Some(true) captures, Some(false) overrides an enabled config.
    let model = knapsack_model();
    let on = SolveSession::with_config(&model, SolverConfig::default())
        .budget(Budget::nodes(2).with_snapshot(true))
        .solve()
        .expect("solve");
    assert!(on.stats().snapshot_captured);
    let off = SolveSession::new(&model)
        .snapshots(true)
        .budget(Budget::nodes(2).with_snapshot(false))
        .solve()
        .expect("solve");
    assert!(!off.stats().snapshot_captured);
}
