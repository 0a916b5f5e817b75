//! E10 — the full Algorithm 5.1 pipeline end to end, through the
//! `ViewManager`: differential with the §4 relevance filter, differential
//! without it, and periodic full re-evaluation, on a transaction stream
//! where most updates are provably irrelevant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ivm::full_reval;
use ivm::prelude::*;

const BASE: i64 = 20_000;
const STREAM: usize = 50;

/// orders(OID, CUST, AMOUNT) ⋈ customers(CUST, REGION),
/// view: σ_{AMOUNT > 900_000 ∧ REGION = 1} — highly selective, so most of
/// the stream is provably irrelevant.
fn build_manager(filtering: bool) -> (ViewManager, Vec<Transaction>) {
    let mut m = ViewManager::new().with_filtering(filtering);
    m.create_relation("orders", Schema::new(["OID", "CUST", "AMOUNT"]).unwrap())
        .unwrap();
    m.create_relation("customers", Schema::new(["CUST", "REGION"]).unwrap())
        .unwrap();
    m.load(
        "customers",
        (0..500i64).map(|c| [c, c % 5]).collect::<Vec<_>>(),
    )
    .unwrap();
    m.load(
        "orders",
        (0..BASE)
            .map(|o| [o, o % 500, (o * 7919) % 1_000_000])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let expr = SpjExpr::new(
        ["orders", "customers"],
        Condition::conjunction([
            Atom::gt_const("AMOUNT", 900_000),
            Atom::eq_const("REGION", 1),
        ]),
        Some(vec!["OID".into(), "AMOUNT".into()]),
    );
    m.register_view("hot", expr, RefreshPolicy::Immediate)
        .unwrap();

    // A stream of small transactions; ~10% relevant amounts.
    let mut txns = Vec::with_capacity(STREAM);
    let mut next_oid = BASE;
    for t in 0..STREAM {
        let mut txn = Transaction::new();
        for k in 0..10i64 {
            let oid = next_oid;
            next_oid += 1;
            let amount = if (t as i64 + k) % 10 == 0 {
                900_001 + k
            } else {
                (oid * 31) % 800_000
            };
            txn.insert("orders", [oid, oid % 500, amount]).unwrap();
        }
        txns.push(txn);
    }
    (m, txns)
}

fn bench_stream_maintenance(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_spj_stream");
    group.sample_size(10);
    for (name, filtering) in [("filtered", true), ("unfiltered", false)] {
        group.bench_function(BenchmarkId::new("differential", name), |b| {
            b.iter_batched(
                || build_manager(filtering),
                |(mut m, txns)| {
                    for txn in &txns {
                        m.execute(txn).unwrap();
                    }
                    black_box(m.view_contents("hot").unwrap().total_count())
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    // Baseline: apply the stream without views, then recompute once per
    // transaction.
    group.bench_function("full_reeval_per_txn", |b| {
        b.iter_batched(
            || {
                let (m, txns) = build_manager(false);
                let expr = SpjExpr::new(
                    ["orders", "customers"],
                    Condition::conjunction([
                        Atom::gt_const("AMOUNT", 900_000),
                        Atom::eq_const("REGION", 1),
                    ]),
                    Some(vec!["OID".into(), "AMOUNT".into()]),
                );
                (m.database().clone(), expr, txns)
            },
            |(mut db, expr, txns)| {
                let mut total = 0u128;
                for txn in &txns {
                    db.apply(txn).unwrap();
                    total += full_reval::recompute(&expr, &db).unwrap().total_count();
                }
                black_box(total)
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_stream_maintenance);
criterion_main!(benches);
