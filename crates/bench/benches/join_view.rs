//! E8 — join views (§5.3, Examples 5.2–5.3): differential maintenance
//! `v ∪ (i_r ⋈ s) − (d_r ⋈ s)` versus full re-join, sweeping the update
//! ratio `|i_r|/|r|` to expose the crossover the paper's §6 asks about
//! ("determine under what circumstances differential re-evaluation is
//! more efficient than complete re-evaluation").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ivm::differential::{differential_delta, DiffOptions};
use ivm::full_reval;
use ivm::prelude::AttrName;
use ivm_bench::join_scenario;

fn bench_update_ratio_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_join_update_ratio");
    group.sample_size(15);
    let r_size = 20_000;
    let s_size = 20_000;
    let domain = 4_000; // ~5 join partners per key
    for pct in [1usize, 10, 100, 1_000, 2_000] {
        // pct is |i_r| as permille of |r|.
        let n = (r_size * pct / 1_000).max(1);
        let mut sc = join_scenario(8, r_size, s_size, domain);
        let txn = sc.workload.transaction(&sc.db, "R", n, 0).unwrap();
        let mut db_after = sc.db.clone();
        db_after.apply(&txn).unwrap();
        // The indexed axis probes S's maintained join-key index (what
        // `register_view` derives) instead of hash-building S per term.
        let mut db_indexed = sc.db.clone();
        db_indexed.ensure_index("R", &[AttrName::new("B")]).unwrap();
        db_indexed.ensure_index("S", &[AttrName::new("B")]).unwrap();

        group.bench_with_input(BenchmarkId::new("differential", pct), &pct, |b, _| {
            b.iter(|| {
                black_box(
                    differential_delta(&sc.view, &sc.db, &txn, &DiffOptions::default()).unwrap(),
                )
            })
        });
        group.bench_with_input(
            BenchmarkId::new("differential_indexed", pct),
            &pct,
            |b, _| {
                b.iter(|| {
                    black_box(
                        differential_delta(&sc.view, &db_indexed, &txn, &DiffOptions::default())
                            .unwrap(),
                    )
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("full_rejoin", pct), &pct, |b, _| {
            b.iter(|| black_box(full_reval::recompute(&sc.view, &db_after).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_update_ratio_sweep);
criterion_main!(benches);
