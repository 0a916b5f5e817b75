//! E9 — the truth-table expansion (§5.3): cost versus the number of
//! updated relations k (2^k − 1 rows) and versus the join width p, for
//! the engine's prefix-sharing DFS (the paper's proposed re-use of
//! partial subexpressions across rows). The `shared_prefixes` ids are
//! kept so the bench history stays comparable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ivm::differential::{differential_delta, DiffOptions};
use ivm_bench::chain_scenario;
use ivm_relational::transaction::Transaction;

/// Build a transaction updating the first `k` relations of the chain.
fn txn_updating_k(sc: &mut ivm_bench::ChainScenario, k: usize, per_rel: usize) -> Transaction {
    let names: Vec<String> = (0..k).map(|i| format!("R{i}")).collect();
    let specs: Vec<(&str, usize, usize)> = names
        .iter()
        .map(|n| (n.as_str(), per_rel, per_rel))
        .collect();
    sc.workload.multi_transaction(&sc.db, &specs).unwrap()
}

fn bench_rows_vs_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_rows_vs_k");
    group.sample_size(12);
    let p = 6;
    for k in [1usize, 2, 3, 4, 6] {
        let mut sc = chain_scenario(10, p, 1_000, 500);
        let txn = txn_updating_k(&mut sc, k, 20);
        group.bench_with_input(BenchmarkId::new("shared_prefixes", k), &k, |b, _| {
            let opts = DiffOptions::default();
            b.iter(|| black_box(differential_delta(&sc.view, &sc.db, &txn, &opts).unwrap()))
        });
    }
    group.finish();
}

fn bench_width_scaling(c: &mut Criterion) {
    // Fixed k = 2, growing p: the non-updated operands join into every
    // row, and prefix sharing amortizes them.
    let mut group = c.benchmark_group("e9_width_scaling");
    group.sample_size(12);
    for p in [2usize, 4, 6] {
        let mut sc = chain_scenario(11, p, 800, 400);
        let txn = txn_updating_k(&mut sc, 2.min(p), 20);
        group.bench_with_input(BenchmarkId::new("shared_prefixes", p), &p, |b, _| {
            let opts = DiffOptions::default();
            b.iter(|| black_box(differential_delta(&sc.view, &sc.db, &txn, &opts).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rows_vs_k, bench_width_scaling);
criterion_main!(benches);
