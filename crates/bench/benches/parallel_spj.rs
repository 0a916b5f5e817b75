//! E17 — the parallel differential engine on the §5.3 truth-table
//! workload: wall-clock of one differential pass at growing maintenance
//! thread counts, against the 1-thread sequential oracle. Three shapes:
//! many rows (k = 4 → 15 rows, parallelized across pivot groups), one
//! row (k = 1: a single group, so every width runs the sequential engine;
//! kept as the record that hash-partitioned joins never beat one thread
//! here and were removed), and
//! one changed tuple per updated operand, far below the pool's grain,
//! where every width runs the sequential engine and costs what one
//! thread costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ivm::differential::{differential_delta, DiffOptions};
use ivm_bench::chain_scenario;
use ivm_relational::transaction::Transaction;

fn txn_updating_k(sc: &mut ivm_bench::ChainScenario, k: usize, per_rel: usize) -> Transaction {
    let names: Vec<String> = (0..k).map(|i| format!("R{i}")).collect();
    let specs: Vec<(&str, usize, usize)> = names
        .iter()
        .map(|n| (n.as_str(), per_rel, per_rel))
        .collect();
    sc.workload.multi_transaction(&sc.db, &specs).unwrap()
}

fn bench_rows_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_parallel_rows");
    group.sample_size(12);
    let p = 6;
    let k = 4; // 2^4 − 1 = 15 truth-table rows to spread over the pool
    let mut sc = chain_scenario(10, p, 1_000, 500);
    let txn = txn_updating_k(&mut sc, k, 20);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                let opts = DiffOptions {
                    threads,
                    ..DiffOptions::default()
                };
                b.iter(|| black_box(differential_delta(&sc.view, &sc.db, &txn, &opts).unwrap()))
            },
        );
    }
    group.finish();
}

fn bench_single_row(c: &mut Criterion) {
    // k = 1 leaves a single truth-table row in one pivot group: nothing
    // fans out, so every width should cost what one thread costs.
    let mut group = c.benchmark_group("e17_parallel_join");
    group.sample_size(12);
    let p = 3;
    let mut sc = chain_scenario(11, p, 30_000, 2_000);
    let txn = txn_updating_k(&mut sc, 1, 200);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                let opts = DiffOptions {
                    threads,
                    ..DiffOptions::default()
                };
                b.iter(|| black_box(differential_delta(&sc.view, &sc.db, &txn, &opts).unwrap()))
            },
        );
    }
    group.finish();
}

fn bench_one_change(c: &mut Criterion) {
    // One inserted tuple in each of two operands of a 3-way chain of
    // 100-tuple relations: three truth-table rows that read ~500 operand
    // tuples in all, under one grain, so no width fans out.
    let mut group = c.benchmark_group("e17_one_change");
    let mut sc = chain_scenario(12, 3, 100, 100);
    let txn = sc
        .workload
        .multi_transaction(&sc.db, &[("R0", 1, 0), ("R1", 1, 0)])
        .unwrap();
    for threads in [1usize, 2, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                let opts = DiffOptions {
                    threads,
                    ..DiffOptions::default()
                };
                b.iter(|| black_box(differential_delta(&sc.view, &sc.db, &txn, &opts).unwrap()))
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rows_parallel,
    bench_single_row,
    bench_one_change
);
criterion_main!(benches);
