//! E14 — the price of generality: the general-tree reference engine
//! against the SPJ engine on the same SPJ view. (The E13 ablation of the
//! SPJ engine's optimizations was retired with the switches it toggled;
//! see EXPERIMENTS.md E13 and E30.)

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ivm::differential::{differential_delta, DiffOptions};
use ivm::prelude::*;

/// The general-tree reference engine vs the optimized SPJ engine on the
/// same SPJ view: the price of generality.
fn bench_tree_vs_spj(c: &mut Criterion) {
    use ivm::differential::tree_delta;
    use ivm_relational::expr::Expr;

    let mut group = c.benchmark_group("ablation_tree_vs_spj");
    group.sample_size(12);
    let mut sc = ivm_bench::join_scenario(77, 10_000, 10_000, 2_000);
    sc.view = SpjExpr::new(["R", "S"], Atom::lt_const("A", 500).into(), None);
    let tree = Expr::base("R")
        .join(Expr::base("S"))
        .select(Atom::lt_const("A", 500));
    let txn = sc.workload.transaction(&sc.db, "R", 50, 50).unwrap();

    // Agreement check before timing.
    let spj = differential_delta(&sc.view, &sc.db, &txn, &DiffOptions::default())
        .unwrap()
        .delta;
    assert_eq!(tree_delta(&tree, &sc.db, &txn).unwrap(), spj);

    group.bench_function("spj_engine", |b| {
        b.iter(|| {
            black_box(differential_delta(&sc.view, &sc.db, &txn, &DiffOptions::default()).unwrap())
        })
    });
    group.bench_function("tree_engine", |b| {
        b.iter(|| black_box(tree_delta(&tree, &sc.db, &txn).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_tree_vs_spj);
criterion_main!(benches);
