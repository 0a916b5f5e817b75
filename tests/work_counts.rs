//! Pinned work counts: fixed, seeded streams of transactions replayed
//! through `ViewManager` with an `InMemoryRecorder`. The totals of the
//! deterministic work counters are asserted exactly, so a change that makes
//! the filter check, the engine evaluate, scan or probe, the indexes
//! maintain or the WAL log more fails here instead of hiding in a
//! wall-time benchmark's noise. A change that lowers a count updates its
//! constant below, in the same change.
//!
//! Two streams, one per benchmark workload.
//!
//! The batch stream follows the `embed_batch_join` workload at a tenth
//! of its sizes: `orders(OID, CUST, AMT)`, `customers(CUST, REGION)`,
//! `regions(REGION, RNAME)`, the join view `sales` and `top_sales` stacked
//! on it. Each transaction inserts 25 new orders, deletes the 25 oldest
//! and moves 25 customers to another region (a delete plus an insert):
//! 100 changes. The snapshot hub is armed and the previous snapshot is
//! held across each transaction, as a pinned reader would hold it, so
//! every view the transaction changes is copied on write; the rows of
//! those copies are pinned too.
//!
//! The point stream follows the `serve_point_small` workload at a
//! hundredth of its base-relation sizes, through a durable manager in a
//! temporary directory: `orders(OID, CUST, AMT)` and
//! `items(IID, SKU, QTY)` with the static `customers(CUST, TIER)`, the
//! selections `big_orders` and `hot_items` and the two-relation join
//! `order_tiers`. Each write inserts a fresh row into `orders` or `items`
//! and deletes the oldest row of the same class. One write in four lands in the views (`AMT`/`QTY` at least
//! `HOT_FROM`); the other three are provably irrelevant to every view.

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
/// Rows of every view whose contents a commit replaced, over the whole
/// stream (perfbench's `snapshot.rows_cloned_per_commit` times `TXNS`).
const ROWS_CLONED: u64 = 16_708;

/// Rows in each of `orders` and `items` for the point stream.
const POINT_ROWS: i64 = 1_000;
/// Preloaded rows of each point relation inside the views.
const POINT_HOT_ROWS: i64 = 10;
const POINT_CUSTOMERS: i64 = 100;
const POINT_DOMAIN: i64 = 1_000;
/// A point row is in every view over its relation iff its value is at
/// least this.
const HOT_FROM: i64 = 900;
const POINT_WRITES: usize = 200;

/// Point stream: `filter.tuples_checked`.
const POINT_TUPLES_CHECKED: u64 = 608;
/// Point stream: `filter.tuples_admitted`.
const POINT_TUPLES_ADMITTED: u64 = 150;
/// Point stream: `manager.skipped_by_filter`.
const POINT_SKIPPED_BY_FILTER: u64 = 229;
/// Point stream: `diff.rows_evaluated`.
const POINT_ROWS_EVALUATED: u64 = 75;
/// Point stream: `diff.operand_tuples`.
const POINT_OPERAND_TUPLES: u64 = 2_750;
/// Point stream: `index.probe_rows`.
const POINT_PROBE_ROWS: u64 = 52;
/// Point stream: `wal.bytes_appended`.
const POINT_WAL_BYTES: u64 = 20_304;

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

/// The totals of `counts`' counters in `recorder`, paired with the
/// pinned values for one comparison.
fn read_counts<'a>(recorder: &InMemoryRecorder, counts: &[(&'a str, u64)]) -> Vec<(&'a str, u64)> {
    counts
        .iter()
        .map(|&(name, _)| (name, recorder.counter(name)))
        .collect()
}

#[test]
fn work_counts_are_pinned() {
    let recorder = Arc::new(InMemoryRecorder::new());
    let mut m = ViewManager::new().with_recorder(recorder.clone());
    let mut rng = Rng(SEED);
    let (mut orders, mut region) = install(&mut m, &mut rng);
    let reader = m.snapshots().reader();
    recorder.reset(); // count the stream, not the set-up
    let mut next_key = ORDERS;
    let mut rows_cloned = 0u64;
    for _ in 0..TXNS {
        let txn = next_txn(&mut rng, &mut orders, &mut next_key, &mut region);
        assert_eq!(txn.size(), 4 * PER_KIND);
        let prev = reader.latest();
        m.execute(&txn).unwrap();
        for (name, rel) in reader.latest().iter() {
            if !prev.get(name).is_some_and(|p| std::ptr::eq(p, rel)) {
                rows_cloned += rel.len() as u64;
            }
        }
    }
    m.verify_consistency().unwrap();
    let counts = [
        (names::DIFF_ROWS_EVALUATED, ROWS_EVALUATED),
        (names::DIFF_OPERAND_TUPLES, OPERAND_TUPLES),
        (names::INDEX_PROBE_ROWS, PROBE_ROWS),
        (names::INDEX_MAINTENANCE_ROWS, MAINTENANCE_ROWS),
    ];
    assert_eq!(
        read_counts(&recorder, &counts),
        counts,
        "work counts moved (got, pinned)"
    );
    assert_eq!(
        rows_cloned, ROWS_CLONED,
        "copy-on-write rows moved (got, pinned)"
    );
}

/// One point relation `(KEY, FK, VAL)` as two FIFOs: rows inside the
/// views (`VAL >= HOT_FROM`) and rows outside them.
struct HotCold {
    hot: VecDeque<[i64; 3]>,
    cold: VecDeque<[i64; 3]>,
    next_key: i64,
    fk_domain: i64,
}

impl HotCold {
    /// Preload `POINT_ROWS` rows, every `POINT_ROWS / POINT_HOT_ROWS`-th
    /// of them hot; returns the relation's FIFOs and its rows.
    fn preload(rng: &mut Rng, fk_domain: i64) -> (HotCold, Vec<[i64; 3]>) {
        let mut rel = HotCold {
            hot: VecDeque::new(),
            cold: VecDeque::new(),
            next_key: 0,
            fk_domain,
        };
        let stride = POINT_ROWS / POINT_HOT_ROWS;
        let rows = (0..POINT_ROWS)
            .map(|i| rel.fresh_row(rng, i % stride == 0))
            .collect();
        (rel, rows)
    }

    fn fresh_row(&mut self, rng: &mut Rng, hot: bool) -> [i64; 3] {
        let val = if hot {
            HOT_FROM + rng.below(POINT_DOMAIN - HOT_FROM)
        } else {
            rng.below(HOT_FROM)
        };
        let row = [self.next_key, rng.below(self.fk_domain), val];
        self.next_key += 1;
        if hot {
            self.hot.push_back(row);
        } else {
            self.cold.push_back(row);
        }
        row
    }

    /// One write of the given class: a fresh row and the oldest of its
    /// class, as `(inserted, deleted)`.
    fn write(&mut self, rng: &mut Rng, hot: bool) -> ([i64; 3], [i64; 3]) {
        let old = if hot {
            self.hot.pop_front()
        } else {
            self.cold.pop_front()
        }
        .expect("every class is preloaded");
        (self.fresh_row(rng, hot), old)
    }
}

/// A scratch directory for the durable manager, removed on drop.
struct TestDir(std::path::PathBuf);

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn point_write_counts_are_pinned() {
    let dir = TestDir(ivm_storage::temp::scratch_dir("work-counts"));
    let recorder = Arc::new(InMemoryRecorder::new());
    let mut m = ViewManager::open(&dir.0)
        .unwrap()
        .with_recorder(recorder.clone());
    let mut rng = Rng(SEED);
    let (mut orders, order_rows) = HotCold::preload(&mut rng, POINT_CUSTOMERS);
    let (mut items, item_rows) = HotCold::preload(&mut rng, POINT_DOMAIN);
    m.create_relation("orders", Schema::new(["OID", "CUST", "AMT"]).unwrap())
        .unwrap();
    m.create_relation("items", Schema::new(["IID", "SKU", "QTY"]).unwrap())
        .unwrap();
    m.create_relation("customers", Schema::new(["CUST", "TIER"]).unwrap())
        .unwrap();
    m.load("orders", order_rows).unwrap();
    m.load("items", item_rows).unwrap();
    m.load("customers", (0..POINT_CUSTOMERS).map(|c| [c, c % 5]))
        .unwrap();
    let views = [
        (
            "big_orders",
            SpjExpr::new(["orders"], Atom::ge_const("AMT", HOT_FROM).into(), None),
        ),
        (
            "order_tiers",
            SpjExpr::new(
                ["orders", "customers"],
                Atom::ge_const("AMT", HOT_FROM).into(),
                Some(vec!["OID".into(), "TIER".into()]),
            ),
        ),
        (
            "hot_items",
            SpjExpr::new(["items"], Atom::ge_const("QTY", HOT_FROM).into(), None),
        ),
    ];
    for (name, view) in views {
        m.register_view(name, view, RefreshPolicy::Immediate)
            .unwrap();
    }
    recorder.reset(); // count the stream, not the set-up
    for _ in 0..POINT_WRITES {
        let (name, rel) = if rng.below(2) == 0 {
            ("orders", &mut orders)
        } else {
            ("items", &mut items)
        };
        let hot = rng.below(4) == 0;
        let (ins, del) = rel.write(&mut rng, hot);
        let mut txn = Transaction::new();
        txn.insert(name, ins).unwrap();
        txn.delete(name, del).unwrap();
        m.execute(&txn).unwrap();
    }
    m.verify_consistency().unwrap();
    let counts = [
        (names::FILTER_TUPLES_CHECKED, POINT_TUPLES_CHECKED),
        (names::FILTER_TUPLES_ADMITTED, POINT_TUPLES_ADMITTED),
        (names::MANAGER_SKIPPED_BY_FILTER, POINT_SKIPPED_BY_FILTER),
        (names::DIFF_ROWS_EVALUATED, POINT_ROWS_EVALUATED),
        (names::DIFF_OPERAND_TUPLES, POINT_OPERAND_TUPLES),
        (names::INDEX_PROBE_ROWS, POINT_PROBE_ROWS),
        (names::WAL_BYTES_APPENDED, POINT_WAL_BYTES),
    ];
    assert_eq!(
        read_counts(&recorder, &counts),
        counts,
        "point work counts moved (got, pinned)"
    );
}
