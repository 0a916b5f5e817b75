//! Pinned work counts: a fixed, seeded stream of transactions over an
//! embed-shaped three-way join with a view stacked on it, replayed through
//! `ViewManager` with an `InMemoryRecorder`. The totals of the
//! deterministic work counters are asserted exactly, so a change that makes
//! the engine evaluate, scan, probe or maintain more rows fails here
//! instead of hiding in a wall-time benchmark's noise. A change that
//! lowers a count updates its constant below, in the same change.
//!
//! The shape follows the `embed_batch_join` benchmark workload at a tenth
//! of its sizes: `orders(OID, CUST, AMT)`, `customers(CUST, REGION)`,
//! `regions(REGION, RNAME)`, the join view `sales` and `top_sales` stacked
//! on it. Each transaction inserts 25 new orders, deletes the 25 oldest
//! and moves 25 customers to another region (a delete plus an insert):
//! 100 changes.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use ivm::prelude::*;
use ivm_obs::names;

const SEED: u64 = 0x1986;
const ORDERS: i64 = 2_000;
const CUSTOMERS: i64 = 200;
const REGIONS: i64 = 10;
const AMOUNTS: i64 = 1_000;
const TXNS: usize = 20;
const PER_KIND: usize = 25;

/// `diff.rows_evaluated` over the whole stream.
const ROWS_EVALUATED: u64 = 78;
/// `diff.operand_tuples` over the whole stream.
const OPERAND_TUPLES: u64 = 46_149;
/// `index.probe_rows` over the whole stream.
const PROBE_ROWS: u64 = 9_811;
/// `index.maintenance_rows` over the whole stream.
const MAINTENANCE_ROWS: u64 = 4_000;

/// SplitMix64: a fixed generator, so the stream never depends on a crate
/// outside this repository.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: i64) -> i64 {
        (self.next() % n as u64) as i64
    }
}

fn install(m: &mut ViewManager, rng: &mut Rng) -> (VecDeque<[i64; 3]>, Vec<i64>) {
    m.create_relation("orders", Schema::new(["OID", "CUST", "AMT"]).unwrap())
        .unwrap();
    m.create_relation("customers", Schema::new(["CUST", "REGION"]).unwrap())
        .unwrap();
    m.create_relation("regions", Schema::new(["REGION", "RNAME"]).unwrap())
        .unwrap();
    let orders: VecDeque<[i64; 3]> = (0..ORDERS)
        .map(|k| [k, rng.below(CUSTOMERS), rng.below(AMOUNTS)])
        .collect();
    let region: Vec<i64> = (0..CUSTOMERS).map(|_| rng.below(REGIONS)).collect();
    m.load("orders", orders.iter().copied()).unwrap();
    m.load(
        "customers",
        region.iter().enumerate().map(|(c, &r)| [c as i64, r]),
    )
    .unwrap();
    m.load("regions", (0..REGIONS).map(|r| [r, (r * 7) % 13]))
        .unwrap();
    m.register_view(
        "sales",
        SpjExpr::new(
            ["orders", "customers", "regions"],
            Condition::conjunction([Atom::ge_const("AMT", 500), Atom::le_const("REGION", 7)]),
            Some(vec![
                "OID".into(),
                "CUST".into(),
                "AMT".into(),
                "RNAME".into(),
            ]),
        ),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    m.register_view(
        "top_sales",
        SpjExpr::new(
            ["sales"],
            Atom::ge_const("AMT", 990).into(),
            Some(vec!["OID".into(), "RNAME".into()]),
        ),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    (orders, region)
}

fn next_txn(
    rng: &mut Rng,
    orders: &mut VecDeque<[i64; 3]>,
    next_key: &mut i64,
    region: &mut [i64],
) -> Transaction {
    let mut txn = Transaction::new();
    for _ in 0..PER_KIND {
        let row = [*next_key, rng.below(CUSTOMERS), rng.below(AMOUNTS)];
        *next_key += 1;
        orders.push_back(row);
        txn.insert("orders", row).unwrap();
        txn.delete("orders", orders.pop_front().unwrap()).unwrap();
    }
    let mut moved = BTreeSet::new();
    while moved.len() < PER_KIND {
        let c = rng.below(CUSTOMERS);
        if !moved.insert(c) {
            continue;
        }
        let old = region[c as usize];
        let new = (old + 1 + rng.below(REGIONS - 1)) % REGIONS;
        region[c as usize] = new;
        txn.delete("customers", [c, old]).unwrap();
        txn.insert("customers", [c, new]).unwrap();
    }
    txn
}

#[test]
fn work_counts_are_pinned() {
    let recorder = Arc::new(InMemoryRecorder::new());
    let mut m = ViewManager::new()
        .with_manager_options(ManagerOptions::default().with_recorder(recorder.clone()));
    let mut rng = Rng(SEED);
    let (mut orders, mut region) = install(&mut m, &mut rng);
    recorder.reset(); // count the stream, not the set-up
    let mut next_key = ORDERS;
    for _ in 0..TXNS {
        let txn = next_txn(&mut rng, &mut orders, &mut next_key, &mut region);
        assert_eq!(txn.size(), 4 * PER_KIND);
        m.execute(&txn).unwrap();
    }
    m.verify_consistency().unwrap();
    let counts = [
        (names::DIFF_ROWS_EVALUATED, ROWS_EVALUATED),
        (names::DIFF_OPERAND_TUPLES, OPERAND_TUPLES),
        (names::INDEX_PROBE_ROWS, PROBE_ROWS),
        (names::INDEX_MAINTENANCE_ROWS, MAINTENANCE_ROWS),
    ];
    let got: Vec<(&str, u64)> = counts
        .iter()
        .map(|&(name, _)| (name, recorder.counter(name)))
        .collect();
    assert_eq!(got, counts, "work counts moved (got, pinned)");
}
