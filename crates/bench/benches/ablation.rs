//! Ablation of the engine optimizations DESIGN.md calls out: prefix
//! sharing (§5.3 subexpression reuse), selection pushdown, change-first
//! operand reordering — each toggled independently against the all-on
//! default and the all-off "plain Algorithm 5.1".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ivm::differential::{differential_delta, DiffOptions};
use ivm::prelude::*;
use ivm_bench::chain_scenario;

fn variants() -> Vec<(&'static str, DiffOptions)> {
    let on = DiffOptions::default();
    vec![
        ("all_on", on),
        (
            "no_prefix_sharing",
            DiffOptions {
                share_prefixes: false,
                ..on
            },
        ),
        (
            "no_pushdown",
            DiffOptions {
                push_selections: false,
                ..on
            },
        ),
        (
            "no_reorder",
            DiffOptions {
                reorder_operands: false,
                ..on
            },
        ),
        ("plain_paper", DiffOptions::plain()),
    ]
}

/// A selective chain view with updates to the middle relations — the shape
/// where all three optimizations bite.
fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_chain");
    group.sample_size(12);
    let p = 5;
    let mut sc = chain_scenario(42, p, 3_000, 600);
    // Add a selective condition on the first attribute so pushdown has
    // something to push.
    sc.view = SpjExpr::new(
        ivm::workload::Workload::chain_names(p),
        Atom::lt_const("A0", 120).into(),
        None,
    );
    let txn = sc
        .workload
        .multi_transaction(&sc.db, &[("R2", 25, 25), ("R3", 25, 25)])
        .unwrap();

    // All variants must agree before being timed.
    let reference = differential_delta(&sc.view, &sc.db, &txn, &DiffOptions::default())
        .unwrap()
        .delta;
    for (name, opts) in variants() {
        let delta = differential_delta(&sc.view, &sc.db, &txn, &opts)
            .unwrap()
            .delta;
        assert_eq!(delta, reference, "variant {name} diverged");
    }

    for (name, opts) in variants() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &opts, |b, opts| {
            b.iter(|| black_box(differential_delta(&sc.view, &sc.db, &txn, opts).unwrap()))
        });
    }
    group.finish();
}

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

criterion_group!(benches, bench_ablation, bench_tree_vs_spj);
criterion_main!(benches);
