//! Criterion bench for the Figure 1 example: reference and BIST synthesis of
//! the paper's running example.

use std::time::Duration;

use bist_core::{reference, synthesis, SynthesisConfig};
use bist_dfg::benchmarks;
use bist_ilp::Budget;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn quick() -> SynthesisConfig {
    SynthesisConfig::budgeted(Budget::time(Duration::from_millis(250)))
}

fn bench_figure1(c: &mut Criterion) {
    let input = benchmarks::figure1();
    let config = quick();
    let mut group = c.benchmark_group("figure1");
    group.sample_size(10);
    group.bench_function("reference_ilp", |b| {
        b.iter(|| reference::synthesize_reference(black_box(&input), &config).unwrap())
    });
    group.bench_function("advbist_k1", |b| {
        b.iter(|| synthesis::synthesize_bist(black_box(&input), 1, &config).unwrap())
    });
    group.bench_function("advbist_k2", |b| {
        b.iter(|| synthesis::synthesize_bist(black_box(&input), 2, &config).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_figure1);
criterion_main!(benches);
