//! Criterion micro benchmarks for the ILP substrate itself: LP relaxation,
//! propagation and branch and bound on classic small models.

use bist_ilp::{BoundMode, Model, Sense, SolverConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// A small set-cover instance exercising branching and propagation.
fn set_cover(n_elements: usize, n_sets: usize) -> Model {
    let mut m = Model::new("set_cover");
    let sets: Vec<_> = (0..n_sets).map(|i| m.add_binary(format!("s{i}"))).collect();
    for e in 0..n_elements {
        // Element e is covered by sets e, e+1 and 2e (mod n_sets).
        let covering = [e % n_sets, (e + 1) % n_sets, (2 * e) % n_sets];
        let expr: Vec<_> = covering.iter().map(|&i| (sets[i], 1.0)).collect();
        m.add_geq(expr, 1.0, format!("cover{e}"));
    }
    let obj: Vec<_> = sets
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, 1.0 + (i % 3) as f64))
        .collect();
    m.set_objective(obj, Sense::Minimize);
    m
}

fn bench_ilp(c: &mut Criterion) {
    let model = set_cover(30, 15);
    let mut group = c.benchmark_group("ilp_solver");
    group.sample_size(20);
    group.bench_function("set_cover_propagation_bound", |b| {
        let config = SolverConfig {
            bound_mode: BoundMode::Propagation,
            ..SolverConfig::exact()
        };
        b.iter(|| black_box(&model).solve(&config).unwrap())
    });
    group.bench_function("set_cover_lp_bound", |b| {
        let config = SolverConfig::exact();
        b.iter(|| black_box(&model).solve(&config).unwrap())
    });
    group.bench_function("set_cover_hybrid_bound", |b| {
        let config = SolverConfig {
            bound_mode: BoundMode::Hybrid { lp_depth: 3 },
            ..SolverConfig::exact()
        };
        b.iter(|| black_box(&model).solve(&config).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_ilp);
criterion_main!(benches);
