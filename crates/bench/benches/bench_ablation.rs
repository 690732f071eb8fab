//! Ablation benchmarks: refinement engines against each other, and the
//! symmetry-breaking constraints of Section 6.3 on and off.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use strudel_core::encode::{encode, EncodingConfig};
use strudel_core::prelude::*;
use strudel_datagen::{synthetic_sort, SyntheticSortConfig};

fn instance() -> strudel_rdf::signature::SignatureView {
    synthetic_sort(
        &SyntheticSortConfig {
            subjects: 20_000,
            properties: 10,
            signatures: 20,
            ..SyntheticSortConfig::default()
        },
        2014,
    )
}

fn bench_engines(c: &mut Criterion) {
    let view = instance();
    let theta = Ratio::new(7, 10);
    let mut group = c.benchmark_group("engine_ablation");
    group.sample_size(10);
    group.bench_function("ilp", |b| {
        let engine = IlpEngine::new();
        b.iter(|| {
            black_box(
                engine
                    .refine(black_box(&view), &SigmaSpec::Coverage, 2, theta)
                    .unwrap(),
            )
        })
    });
    group.bench_function("greedy", |b| {
        let engine = GreedyEngine::new();
        b.iter(|| {
            black_box(
                engine
                    .refine(black_box(&view), &SigmaSpec::Coverage, 2, theta)
                    .unwrap(),
            )
        })
    });
    group.bench_function("hybrid", |b| {
        let engine = HybridEngine::new();
        b.iter(|| {
            black_box(
                engine
                    .refine(black_box(&view), &SigmaSpec::Coverage, 2, theta)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_symmetry_breaking(c: &mut Criterion) {
    let view = instance();
    let rule = SigmaSpec::Coverage.rule();
    let theta = Ratio::new(7, 10);
    let mut group = c.benchmark_group("symmetry_breaking_ablation");
    group.sample_size(10);
    for (label, symmetry_breaking) in [("on", true), ("off", false)] {
        group.bench_function(format!("k3/{label}"), |b| {
            let config = EncodingConfig {
                symmetry_breaking,
                ..EncodingConfig::default()
            };
            b.iter(|| {
                let encoding = encode(black_box(&view), &rule, 3, theta, &config).unwrap();
                black_box(
                    strudel_ilp::prelude::Solver::with_config(
                        strudel_ilp::prelude::SolverConfig {
                            first_solution_only: true,
                            ..Default::default()
                        },
                    )
                    .solve(&encoding.model)
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_encoding_only(c: &mut Criterion) {
    let view = instance();
    let theta = Ratio::new(7, 10);
    let mut group = c.benchmark_group("encoding");
    group.sample_size(10);
    for (label, spec) in [("cov", SigmaSpec::Coverage), ("sim", SigmaSpec::Similarity)] {
        let rule = spec.rule();
        group.bench_function(format!("build/{label}/k2"), |b| {
            b.iter(|| {
                black_box(
                    encode(black_box(&view), &rule, 2, theta, &EncodingConfig::default()).unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_symmetry_breaking, bench_encoding_only);
criterion_main!(benches);
