//! Session-symmetry breaking: a declared symmetry is validated against the
//! model the solver searches, broken with canonical-order rows only when it
//! holds, and never changes an optimum.
//!
//! * asymmetric rows, objective weights and bounds are rejected, and so is
//!   a declaration whose items may sit in several blocks; the solve is then
//!   bit-identical to an undeclared one;
//! * on seeded interchangeable-bin models, declared and undeclared solves
//!   reach the brute-force optimum;
//! * a canonicalized warm candidate stays feasible with the same objective;
//! * the BIST declaration maps identically through `extend` + `compose` and
//!   through a direct `reduce`, and validates on every paper circuit;
//! * interrupt-and-resume of a declared model equals the uninterrupted solve;
//! * the model fingerprint covers the declaration.

mod common;

use std::sync::Arc;

use advbist::core::engine::SynthesisEngine;
use advbist::core::formulation::BistFormulation;
use advbist::core::SynthesisConfig;
use advbist::dfg::benchmarks;
use advbist::dfg::SynthesisInput;
use advbist::ilp::reduce::{reduce, reduce_prefix, ReduceOptions};
use advbist::ilp::{
    model_fingerprint, Budget, Model, Sense, SessionSymmetry, Solution, SolverConfig, VarId,
};
use common::{brute_force, Rng};

/// How [`bin_model`] breaks the symmetry between its bins, if at all.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Perturb {
    None,
    Row,
    Objective,
    Bound,
    /// Symmetric, but "at least once" lets an item sit in several bins, so
    /// ordering bins by their smallest item would cut off solutions.
    Repeat,
}

/// An interchangeable-bin assignment model: `items` items with seeded
/// weights go into `bins` identical bins of one capacity, each item exactly
/// once; a bin costs `open` when used, and two seeded items conflict. Block
/// `p` is `[x_{0p}, …, x_{(M−1)p}, y_p]` and item `m`'s cell is position
/// `m`. Returns the model, its declaration and the per-bin variables.
fn bin_model(seed: u64, items: usize, bins: usize, perturb: Perturb) -> (Model, SessionSymmetry) {
    let mut rng = Rng::new(seed);
    let weights: Vec<f64> = (0..items).map(|_| rng.range(1, 5) as f64).collect();
    let capacity = rng.range(4, 8) as f64;
    let open = rng.range(2, 6) as f64;
    let item_cost: Vec<f64> = (0..items).map(|_| rng.range(0, 3) as f64).collect();
    let conflict = (
        rng.range(0, items as u64) as usize,
        rng.range(0, items as u64) as usize,
    );

    let mut model = Model::new(format!("bins_{seed}"));
    let mut x = vec![Vec::new(); bins];
    let mut y = Vec::new();
    for (p, column) in x.iter_mut().enumerate() {
        for m in 0..items {
            column.push(model.add_binary(format!("x[{m},{p}]")));
        }
        if perturb == Perturb::Bound && p == 1 {
            y.push(model.add_integer(format!("y[{p}]"), 0, 2));
        } else {
            y.push(model.add_binary(format!("y[{p}]")));
        }
    }
    for m in 0..items {
        let expr: Vec<(VarId, f64)> = x.iter().map(|column| (column[m], 1.0)).collect();
        if perturb == Perturb::Repeat {
            model.add_geq(expr, 1.0, format!("once[{m}]"));
        } else {
            model.add_eq(expr, 1.0, format!("once[{m}]"));
        }
    }
    for (p, (column, &used)) in x.iter().zip(&y).enumerate() {
        let mut expr: Vec<(VarId, f64)> = column
            .iter()
            .copied()
            .zip(weights.iter().copied())
            .collect();
        expr.push((used, -capacity));
        model.add_leq(expr, 0.0, format!("cap[{p}]"));
        if conflict.0 != conflict.1 {
            model.add_leq(
                [(column[conflict.0], 1.0), (column[conflict.1], 1.0)],
                1.0,
                format!("conflict[{p}]"),
            );
        }
    }
    if perturb == Perturb::Row {
        // Only bin 0 may not hold item 0.
        model.add_leq([(x[0][0], 1.0)], 0.0, "bin0_only");
    }
    let mut objective: Vec<(VarId, f64)> = y.iter().map(|&v| (v, open)).collect();
    for (p, column) in x.iter().enumerate() {
        for (m, &v) in column.iter().enumerate() {
            let extra = if perturb == Perturb::Objective && p == bins - 1 && m == 0 {
                1.0
            } else {
                0.0
            };
            objective.push((v, item_cost[m] + extra));
        }
    }
    model.set_objective(objective, Sense::Minimize);

    let blocks = (0..bins)
        .map(|p| x[p].iter().copied().chain([y[p]]).collect())
        .collect();
    let cells = (0..items).map(|m| vec![m]).collect();
    (model, SessionSymmetry::new(blocks, cells))
}

fn declared(model: &Model, symmetry: &SessionSymmetry) -> Model {
    let mut model = model.clone();
    model.declare_session_symmetry(symmetry.clone());
    model
}

fn raw_exact() -> SolverConfig {
    SolverConfig {
        presolve: false,
        ..SolverConfig::exact()
    }
}

/// The deterministic work and the answer of two solves agree bit for bit.
fn assert_same_search(a: &Solution, b: &Solution, context: &str) {
    let (sa, sb) = (a.stats(), b.stats());
    assert_eq!(a.status(), b.status(), "{context}: status");
    assert_eq!(
        a.objective().to_bits(),
        b.objective().to_bits(),
        "{context}: objective"
    );
    assert_eq!(a.values(), b.values(), "{context}: values");
    assert_eq!(sa.nodes, sb.nodes, "{context}: nodes");
    assert_eq!(sa.lp_pivots, sb.lp_pivots, "{context}: pivots");
    assert_eq!(
        sa.lp_bound_flips, sb.lp_bound_flips,
        "{context}: bound flips"
    );
    assert_eq!(sa.cuts_emitted, sb.cuts_emitted, "{context}: cuts");
    assert_eq!(
        sa.best_bound.to_bits(),
        sb.best_bound.to_bits(),
        "{context}: bound"
    );
}

#[test]
fn asymmetric_or_unsound_declarations_are_rejected() {
    for seed in 0..6u64 {
        let (model, symmetry) = bin_model(seed, 4, 3, Perturb::None);
        let solved = declared(&model, &symmetry).solve(&raw_exact()).unwrap();
        assert_eq!(
            solved.stats().symmetry_validated,
            1,
            "seed {seed}: symmetric model"
        );
        assert_eq!(solved.stats().symmetry_rejected, 0, "seed {seed}");

        for perturb in [
            Perturb::Row,
            Perturb::Objective,
            Perturb::Bound,
            Perturb::Repeat,
        ] {
            let (model, symmetry) = bin_model(seed, 4, 3, perturb);
            for config in [raw_exact(), SolverConfig::exact()] {
                let context = format!("seed {seed}, {perturb:?}, presolve {}", config.presolve);
                let plain = model.solve(&config).unwrap();
                let with = declared(&model, &symmetry).solve(&config).unwrap();
                assert_eq!(with.stats().symmetry_validated, 0, "{context}");
                assert_eq!(with.stats().symmetry_rejected, 1, "{context}");
                assert_eq!(plain.stats().symmetry_rejected, 0, "{context}");
                assert_same_search(&plain, &with, &context);
            }
        }
    }
}

#[test]
fn declared_and_undeclared_bin_models_reach_the_brute_force_optimum() {
    let mut validated = 0;
    let mut cases = 0;
    for seed in 0..40u64 {
        let items = 3 + (seed % 2) as usize;
        let bins = 2 + (seed / 2 % 2) as usize;
        let (model, symmetry) = bin_model(seed * 31 + 7, items, bins, Perturb::None);
        let expected = brute_force(&model);
        for config in [raw_exact(), SolverConfig::exact()] {
            let context = format!("seed {seed}, presolve {}", config.presolve);
            let plain = model.solve(&config).unwrap();
            let with = declared(&model, &symmetry).solve(&config).unwrap();
            cases += 1;
            validated += with.stats().symmetry_validated;
            if !config.presolve {
                assert_eq!(with.stats().symmetry_validated, 1, "{context}");
            }
            match expected {
                Some(best) => {
                    for solution in [&plain, &with] {
                        assert!(solution.is_optimal(), "{context}");
                        assert!((solution.objective() - best).abs() < 1e-9, "{context}");
                        assert!(model.is_feasible(solution.values(), 1e-6), "{context}");
                    }
                }
                None => assert!(!plain.is_feasible() && !with.is_feasible(), "{context}"),
            }
        }
    }
    assert_eq!(validated, cases, "every declaration should survive reduce");
}

#[test]
fn canonicalized_warm_candidates_stay_feasible_at_the_same_objective() {
    let mut relabelled = 0;
    for seed in 0..20u64 {
        let (model, symmetry) = bin_model(seed * 13 + 1, 4, 3, Perturb::None);
        let Some(optimum) = model.solve(&raw_exact()).ok().filter(Solution::is_optimal) else {
            continue;
        };
        // Reverse the bins: a feasible, usually non-canonical labelling.
        let mut candidate = optimum.values().to_vec();
        let blocks = symmetry.blocks();
        for (block, mirror) in blocks.iter().zip(blocks.iter().rev()) {
            for (v, w) in block.iter().zip(mirror) {
                candidate[v.index()] = optimum.values()[w.index()];
            }
        }
        assert!(model.is_feasible(&candidate, 1e-9), "seed {seed}: mirrored");
        let mut canonical = candidate.clone();
        symmetry.canonicalize(&mut canonical);
        relabelled += usize::from(canonical != candidate);
        assert!(
            model.is_feasible(&canonical, 1e-9),
            "seed {seed}: canonical"
        );
        assert_eq!(
            model.objective_value(&canonical).to_bits(),
            model.objective_value(&candidate).to_bits(),
            "seed {seed}"
        );
        for (i, row) in symmetry.order_rows().iter().enumerate() {
            let activity: f64 = row.iter().map(|&(j, a)| a * canonical[j]).sum();
            assert!(activity <= 1e-9, "seed {seed}: order row {i} violated");
        }
        // Canonical form is a fixpoint, and the solver accepts the
        // non-canonical candidate as its first incumbent.
        let mut again = canonical.clone();
        symmetry.canonicalize(&mut again);
        assert_eq!(again, canonical, "seed {seed}: idempotent");
        let warm = declared(&model, &symmetry)
            .solve(&SolverConfig {
                initial_solution: Some(candidate),
                ..raw_exact()
            })
            .unwrap();
        assert_eq!(
            warm.stats().improvements[0].source,
            "warm-start",
            "seed {seed}"
        );
        assert_eq!(warm.objective(), optimum.objective(), "seed {seed}");
        // Nothing beats an optimum, so the kept incumbent is the relabelled
        // candidate itself.
        assert_eq!(warm.stats().improvements.len(), 1, "seed {seed}");
        assert_eq!(warm.values(), canonical.as_slice(), "seed {seed}");
    }
    assert!(relabelled > 0, "no candidate needed relabelling");
}

/// The figure1/tseng k-session formulation with its objective.
fn formulation<'a>(
    input: &'a SynthesisInput,
    config: &'a SynthesisConfig,
    k: usize,
) -> BistFormulation<'a> {
    let mut f = BistFormulation::new(input, config).unwrap();
    f.add_interconnect();
    f.add_mux_sizing();
    f.add_bist(k).unwrap();
    f.set_bist_objective();
    f
}

#[test]
fn bist_declaration_maps_identically_through_extend_compose_and_direct_reduce() {
    let config = SynthesisConfig::default();
    for (name, input) in [
        ("figure1", benchmarks::figure1()),
        ("tseng", benchmarks::tseng()),
    ] {
        let f = formulation(&input, &config, 2);
        let declaration = f
            .model
            .session_symmetry()
            .expect("k = 2 declares its sessions");
        assert_eq!(declaration.blocks().len(), 2, "{name}");

        let (rows, vars) = f.base_dims();
        let base = reduce_prefix(&f.model, rows, vars, &ReduceOptions::base());
        let extended = base.extend(&f.model).unwrap();
        let composed = extended.compose(reduce(&extended.model, &ReduceOptions::full()));
        let direct = reduce(&f.model, &ReduceOptions::full());
        for (path, reduced) in [("extend+compose", &composed), ("direct", &direct)] {
            let mapped = declaration.map(reduced.var_map());
            assert!(mapped.is_some(), "{name} {path}: declaration dropped");
            assert_eq!(
                reduced.model.session_symmetry(),
                mapped.as_ref(),
                "{name} {path}: carried declaration differs from the mapped one"
            );
        }
        // Mapping twice equals mapping once through the composed map.
        let staged = declaration
            .map(extended.var_map())
            .and_then(|d| d.map(reduce(&extended.model, &ReduceOptions::full()).var_map()));
        assert_eq!(staged.as_ref(), composed.model.session_symmetry(), "{name}");

        // k = 1 declares nothing: a single session has no relabelling.
        assert!(formulation(&input, &config, 1)
            .model
            .session_symmetry()
            .is_none());
    }
}

#[test]
fn paper_declarations_validate_on_every_session_count() {
    let mut config = SynthesisConfig::default();
    config.solver.budget = Budget::nodes(1);
    for (name, input) in [
        ("figure1", benchmarks::figure1()),
        ("tseng", benchmarks::tseng()),
        ("paulin", benchmarks::paulin()),
    ] {
        let engine = SynthesisEngine::new(&input, &config).unwrap();
        for k in 1..=engine.max_sessions() {
            let design = engine.synthesize(k).unwrap();
            assert_eq!(
                design.stats.symmetry_validated,
                u64::from(k >= 2),
                "{name} k={k}"
            );
            assert_eq!(design.stats.symmetry_rejected, 0, "{name} k={k}");
        }
    }
}

#[test]
fn interrupted_declared_solve_resumes_to_the_uninterrupted_tree() {
    let input = benchmarks::tseng();
    let config = SynthesisConfig::exact();
    let engine = SynthesisEngine::new(&input, &config).unwrap();
    let cold = engine.synthesize_resumable(2, None, None).unwrap().design;
    assert!(cold.optimal);
    assert_eq!(cold.stats.symmetry_validated, 1);
    for interrupt in [5, cold.stats.nodes / 2] {
        let mut cut_config = SynthesisConfig::exact();
        cut_config.solver.budget = Budget::nodes(interrupt);
        let cut_engine = SynthesisEngine::new(&input, &cut_config).unwrap();
        let partial = cut_engine
            .synthesize_resumable(2, None, None)
            .unwrap()
            .design;
        let snapshot = partial
            .snapshot
            .clone()
            .expect("capped solve captures a snapshot");
        let text = snapshot.to_json().unwrap();
        let reloaded = advbist::SolveSnapshot::from_json(&text).unwrap();
        let resumed = engine
            .synthesize_resumable(2, None, Some(Arc::new(reloaded)))
            .unwrap()
            .design;
        assert!(resumed.stats.resumed && resumed.optimal, "@{interrupt}");
        assert_eq!(resumed.stats.symmetry_validated, 1, "@{interrupt}");
        assert_eq!(resumed.stats.nodes, cold.stats.nodes, "@{interrupt}: nodes");
        assert_eq!(
            resumed.objective.to_bits(),
            cold.objective.to_bits(),
            "@{interrupt}"
        );
        assert_eq!(resumed.area.total(), cold.area.total(), "@{interrupt}");
    }
}

#[test]
fn model_fingerprint_covers_the_declaration() {
    let (model, symmetry) = bin_model(3, 4, 3, Perturb::None);
    let plain = model_fingerprint(&model);
    let with = model_fingerprint(&declared(&model, &symmetry));
    assert_ne!(plain, with);
    assert_eq!(with, model_fingerprint(&declared(&model, &symmetry)));
    let reordered = SessionSymmetry::new(
        symmetry.blocks().iter().rev().cloned().collect(),
        symmetry.cells().to_vec(),
    );
    assert_ne!(with, model_fingerprint(&declared(&model, &reordered)));
}
