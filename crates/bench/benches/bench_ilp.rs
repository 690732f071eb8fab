//! Benchmarks of the raw ILP substrate (the CPLEX stand-in): branch & bound
//! on classic instance shapes and presolve.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use strudel_ilp::prelude::*;

/// A 0/1 knapsack with `n` items and pseudo-random weights/values.
fn knapsack_model(n: usize) -> Model {
    let mut model = Model::new();
    let mut weight_expr = LinExpr::new();
    let mut value_expr = LinExpr::new();
    let mut capacity = 0i64;
    for i in 0..n {
        let var = model.add_binary(format!("x{i}"));
        let weight = 3 + ((i * 7 + 5) % 11) as i64;
        let value = 2 + ((i * 13 + 3) % 17) as i64;
        weight_expr.add_term(weight, var);
        value_expr.add_term(value, var);
        capacity += weight;
    }
    model.add_constraint("capacity", weight_expr, Cmp::Le, capacity / 3);
    model.set_objective(Sense::Maximize, value_expr);
    model
}

/// An assignment feasibility model: `items` items into `bins` bins with
/// capacities, declared as decision groups.
fn assignment_model(items: usize, bins: usize) -> Model {
    let mut model = Model::new();
    let mut per_bin: Vec<LinExpr> = (0..bins).map(|_| LinExpr::new()).collect();
    for item in 0..items {
        let mut once = LinExpr::new();
        let mut group = Vec::new();
        for (bin, bin_expr) in per_bin.iter_mut().enumerate() {
            let var = model.add_binary(format!("i{item}b{bin}"));
            once.add_term(1, var);
            let weight = 1 + ((item + bin) % 3) as i64;
            bin_expr.add_term(weight, var);
            group.push(var);
        }
        model.add_constraint(format!("once{item}"), once, Cmp::Eq, 1);
        model.add_decision_group(group);
    }
    let capacity = (items as i64 * 2) / bins as i64 + 1;
    for (bin, expr) in per_bin.into_iter().enumerate() {
        model.add_constraint(format!("cap{bin}"), expr, Cmp::Le, capacity);
    }
    model
}

/// The pigeonhole principle: `holes + 1` pigeons into `holes` holes — a
/// classically hard infeasibility proof for resolution-style reasoning.
fn pigeonhole_model(holes: usize) -> Model {
    let mut model = Model::new();
    let pigeons = holes + 1;
    let mut vars = vec![Vec::new(); pigeons];
    for (pigeon, row) in vars.iter_mut().enumerate() {
        let mut once = LinExpr::new();
        for hole in 0..holes {
            let var = model.add_binary(format!("p{pigeon}h{hole}"));
            once.add_term(1, var);
            row.push(var);
        }
        model.add_constraint(format!("pigeon{pigeon}"), once, Cmp::Ge, 1);
        model.add_decision_group(row.clone());
    }
    for hole in 0..holes {
        let mut expr = LinExpr::new();
        for row in vars.iter() {
            expr.add_term(1, row[hole]);
        }
        model.add_constraint(format!("hole{hole}"), expr, Cmp::Le, 1);
    }
    model
}

fn bench_branch_and_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("ilp_branch_and_bound");
    group.sample_size(10);
    let knapsack = knapsack_model(24);
    group.bench_function("knapsack24/optimize", |b| {
        b.iter(|| black_box(Solver::new().solve(black_box(&knapsack)).unwrap()))
    });
    let assignment = assignment_model(14, 3);
    group.bench_function("assignment14x3/feasibility", |b| {
        b.iter(|| black_box(Solver::new().solve(black_box(&assignment)).unwrap()))
    });
    let pigeonhole = pigeonhole_model(7);
    group.bench_function("pigeonhole7/infeasible", |b| {
        b.iter(|| black_box(Solver::new().solve(black_box(&pigeonhole)).unwrap()))
    });
    group.finish();
}

fn bench_presolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("ilp_presolve");
    group.bench_function("presolve/knapsack24", |b| {
        let model = knapsack_model(24);
        b.iter(|| {
            let mut clone = model.clone();
            black_box(presolve(&mut clone))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_branch_and_bound, bench_presolve);
criterion_main!(benches);
