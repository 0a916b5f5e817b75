//! E18 — Algorithm 4.1 at scale: the per-tuple relevance test chunked
//! over a worker pool (`RelevanceFilter::filter_with`) versus the
//! sequential loop, across batch sizes. The APSP invariant-graph matrix
//! is built once and shared read-only by every worker.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use ivm::prelude::*;

fn build_filter_setting(width: usize) -> (Database, SpjExpr) {
    let r_attrs: Vec<String> = (0..width).map(|i| format!("R{i}")).collect();
    let s_attrs: Vec<String> = (0..width).map(|i| format!("S{i}")).collect();
    let mut db = Database::new();
    db.create("R", Schema::new(r_attrs.clone()).unwrap())
        .unwrap();
    db.create("S", Schema::new(s_attrs.clone()).unwrap())
        .unwrap();
    let mut atoms = Vec::new();
    for i in 0..width {
        atoms.push(Atom::cmp_attr(
            r_attrs[i].as_str(),
            CompOp::Le,
            s_attrs[i].as_str(),
            3,
        ));
        if i + 1 < width {
            atoms.push(Atom::cmp_attr(
                s_attrs[i].as_str(),
                CompOp::Lt,
                s_attrs[i + 1].as_str(),
                0,
            ));
        }
        atoms.push(Atom::lt_const(r_attrs[i].as_str(), 50));
    }
    let view = SpjExpr::new(["R", "S"], Condition::conjunction(atoms), None);
    (db, view)
}

fn tuples(n: usize, width: usize) -> Vec<Tuple> {
    (0..n as i64)
        .map(|i| Tuple::new((0..width as i64).map(|j| (i * 7 + j * 13) % 100)))
        .collect()
}

fn bench_parallel_filter(c: &mut Criterion) {
    let mut group = c.benchmark_group("e18_parallel_relevance");
    let width = 8;
    let (db, view) = build_filter_setting(width);
    let filter = RelevanceFilter::new(&view, &db, "R").unwrap();
    for batch in [1_000usize, 10_000, 50_000] {
        let ts = tuples(batch, width);
        group.throughput(Throughput::Elements(batch as u64));
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("threads_{threads}"), batch),
                &batch,
                |b, _| {
                    b.iter(|| {
                        black_box(filter.filter_with(&ts, threads, &Obs::disabled()).unwrap())
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_filter);
criterion_main!(benches);
