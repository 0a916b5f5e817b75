//! Deterministic inputs for the three workloads: schemas, preloaded rows
//! and the write stream, all pure functions of the seed.
//!
//! Every write inserts fresh rows and deletes the oldest rows of the same
//! kind, so base-relation and view cardinalities stay flat for the whole
//! run and every run of one workload does the same work per operation.

use std::collections::{BTreeSet, VecDeque};

use ivm::prelude::{RefreshPolicy, Schema, SpjExpr, Transaction, ViewManager};
use ivm_relational::predicate::{Atom, Condition};

/// SplitMix64: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible here).
    pub fn below(&mut self, n: i64) -> i64 {
        (self.next_u64() % n as u64) as i64
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServePointSmall,
    ServeViewLarge,
    EmbedBatchJoin,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServePointSmall,
        Workload::ServeViewLarge,
        Workload::EmbedBatchJoin,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePointSmall => "serve_point_small",
            Workload::ServeViewLarge => "serve_view_large",
            Workload::EmbedBatchJoin => "embed_batch_join",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Values are drawn from `0..VALUE_DOMAIN`.
pub const VALUE_DOMAIN: i64 = 1_000;

// ---------------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------------

/// Rows in each write-heavy base relation (`orders`, `items`).
pub const SERVE_BASE_ROWS: usize = 100_000;
/// Rows in the static `customers(CUST, TIER)` dimension.
pub const SERVE_CUSTOMERS: i64 = 1_000;
/// A row is in every view over its relation iff its value is at least this.
pub const HOT_FROM: i64 = 900;
/// The three served views, in the name order snapshots and digests use.
pub const SERVE_VIEWS: [&str; 3] = ["big_orders", "hot_items", "order_tiers"];

/// What separates the two serve workloads: how many preloaded rows of each
/// base relation fall inside the views, and how many writes in a hundred
/// land in a view. Everything else is shared.
#[derive(Clone, Copy, Debug)]
pub struct ServeShape {
    pub view_rows: usize,
    pub hot_pct: i64,
}

pub fn serve_shape(w: Workload) -> ServeShape {
    match w {
        // ~100-row views (responses < 8 KiB); one write in four is relevant.
        Workload::ServePointSmall => ServeShape {
            view_rows: 100,
            hot_pct: 25,
        },
        // 10k-row views (responses > 64 KiB); every write changes a view.
        Workload::ServeViewLarge => ServeShape {
            view_rows: 10_000,
            hot_pct: 100,
        },
        Workload::EmbedBatchJoin => panic!("embed_batch_join has no serve shape"),
    }
}

/// A write-heavy relation `(KEY, FK, VAL)` kept as two FIFOs: rows inside
/// the views (`VAL >= HOT_FROM`) and rows outside them. A write inserts a
/// fresh row of one class and deletes the oldest row of the same class.
struct HotCold {
    hot: VecDeque<[i64; 3]>,
    cold: VecDeque<[i64; 3]>,
    next_key: i64,
    fk_domain: i64,
}

impl HotCold {
    fn preload(rng: &mut Rng, rows: usize, hot_rows: usize, fk_domain: i64) -> (HotCold, Vec<[i64; 3]>) {
        let mut rel = HotCold {
            hot: VecDeque::new(),
            cold: VecDeque::new(),
            next_key: 0,
            fk_domain,
        };
        let stride = rows / hot_rows;
        let mut all = Vec::with_capacity(rows);
        for i in 0..rows {
            let row = rel.fresh_row(rng, i % stride == 0 && rel.hot.len() < hot_rows);
            all.push(row);
        }
        (rel, all)
    }

    fn fresh_row(&mut self, rng: &mut Rng, hot: bool) -> [i64; 3] {
        let val = if hot {
            HOT_FROM + rng.below(VALUE_DOMAIN - HOT_FROM)
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

    /// `(inserted, deleted)` for one write of the given class.
    fn write(&mut self, rng: &mut Rng, hot: bool) -> ([i64; 3], [i64; 3]) {
        let old = if hot {
            self.hot.pop_front()
        } else {
            self.cold.pop_front()
        }
        .expect("every class is preloaded with rows");
        (self.fresh_row(rng, hot), old)
    }
}

/// Preloaded rows of a serve workload.
pub struct ServeInput {
    pub orders: Vec<[i64; 3]>,
    pub items: Vec<[i64; 3]>,
    pub customers: Vec<[i64; 2]>,
}

/// The write stream, generated as it is consumed so the benchmark's own
/// memory stays small: single-row writes (one insert plus the delete of
/// the oldest row of the same class) on `orders` or `items`.
pub struct ServeWrites {
    rng: Rng,
    orders: HotCold,
    items: HotCold,
    hot_pct: i64,
}

impl Iterator for ServeWrites {
    type Item = Transaction;

    fn next(&mut self) -> Option<Transaction> {
        let (name, rel) = if self.rng.below(2) == 0 {
            ("orders", &mut self.orders)
        } else {
            ("items", &mut self.items)
        };
        let hot = self.rng.below(100) < self.hot_pct;
        let (ins, del) = rel.write(&mut self.rng, hot);
        let mut txn = Transaction::new();
        txn.insert(name, ins).expect("fresh row");
        txn.delete(name, del).expect("existing row");
        Some(txn)
    }
}

pub fn serve_input(w: Workload, seed: u64) -> (ServeInput, ServeWrites) {
    let shape = serve_shape(w);
    let mut rng = Rng::new(seed);
    let (orders, order_rows) =
        HotCold::preload(&mut rng, SERVE_BASE_ROWS, shape.view_rows, SERVE_CUSTOMERS);
    let (items, item_rows) =
        HotCold::preload(&mut rng, SERVE_BASE_ROWS, shape.view_rows, VALUE_DOMAIN);
    let input = ServeInput {
        orders: order_rows,
        items: item_rows,
        customers: (0..SERVE_CUSTOMERS).map(|c| [c, c % 5]).collect(),
    };
    let writes = ServeWrites {
        rng,
        orders,
        items,
        hot_pct: shape.hot_pct,
    };
    (input, writes)
}

/// The program's set-up calls for a serve workload.
pub fn install_serve(mgr: &mut ViewManager, input: &ServeInput) -> ivm::prelude::Result<()> {
    mgr.create_relation("orders", Schema::new(["OID", "CUST", "AMT"])?)?;
    mgr.create_relation("items", Schema::new(["IID", "SKU", "QTY"])?)?;
    mgr.create_relation("customers", Schema::new(["CUST", "TIER"])?)?;
    mgr.load("orders", input.orders.iter().copied())?;
    mgr.load("items", input.items.iter().copied())?;
    mgr.load("customers", input.customers.iter().copied())?;
    mgr.register_view(
        "big_orders",
        SpjExpr::new(["orders"], Atom::ge_const("AMT", HOT_FROM).into(), None),
        RefreshPolicy::Immediate,
    )?;
    mgr.register_view(
        "order_tiers",
        SpjExpr::new(
            ["orders", "customers"],
            Atom::ge_const("AMT", HOT_FROM).into(),
            Some(vec!["OID".into(), "TIER".into()]),
        ),
        RefreshPolicy::Immediate,
    )?;
    mgr.register_view(
        "hot_items",
        SpjExpr::new(["items"], Atom::ge_const("QTY", HOT_FROM).into(), None),
        RefreshPolicy::Immediate,
    )?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Embedded batch workload
// ---------------------------------------------------------------------------

pub const EMBED_ORDERS: usize = 20_000;
pub const EMBED_CUSTOMERS: i64 = 2_000;
pub const EMBED_REGIONS: i64 = 50;
/// Changes per transaction: a quarter order inserts, a quarter deletes of
/// the oldest orders, half customer rows moved to another region (each a
/// delete plus an insert).
pub const EMBED_BATCH: usize = 1_000;
/// `DurabilityPolicy::WalWithCheckpointEvery` period, in transactions.
pub const EMBED_CHECKPOINT_EVERY: u64 = 20;
/// The join view, which embedded reads query; `top_sales` is stacked on it.
pub const EMBED_READ_VIEW: &str = "sales";

/// Preloaded rows of the embedded workload.
pub struct EmbedInput {
    pub orders: Vec<[i64; 3]>,
    pub customers: Vec<[i64; 2]>,
    pub regions: Vec<[i64; 2]>,
}

/// The batch stream, generated as it is consumed.
pub struct EmbedWrites {
    rng: Rng,
    orders: VecDeque<[i64; 3]>,
    next_key: i64,
    region: Vec<i64>,
}

impl Iterator for EmbedWrites {
    type Item = Transaction;

    fn next(&mut self) -> Option<Transaction> {
        let quarter = EMBED_BATCH / 4;
        let rng = &mut self.rng;
        let mut txn = Transaction::new();
        for _ in 0..quarter {
            let row = [self.next_key, rng.below(EMBED_CUSTOMERS), rng.below(VALUE_DOMAIN)];
            self.next_key += 1;
            self.orders.push_back(row);
            txn.insert("orders", row).expect("fresh order");
            let old = self.orders.pop_front().expect("orders are preloaded");
            txn.delete("orders", old).expect("existing order");
        }
        let mut moved = BTreeSet::new();
        while moved.len() < quarter {
            let c = rng.below(EMBED_CUSTOMERS);
            if !moved.insert(c) {
                continue;
            }
            let old = self.region[c as usize];
            let new = (old + 1 + rng.below(EMBED_REGIONS - 1)) % EMBED_REGIONS;
            self.region[c as usize] = new;
            txn.delete("customers", [c, old]).expect("existing customer");
            txn.insert("customers", [c, new]).expect("moved customer");
        }
        Some(txn)
    }
}

pub fn embed_input(seed: u64) -> (EmbedInput, EmbedWrites) {
    let mut rng = Rng::new(seed);
    let orders: VecDeque<[i64; 3]> = (0..EMBED_ORDERS as i64)
        .map(|key| [key, rng.below(EMBED_CUSTOMERS), rng.below(VALUE_DOMAIN)])
        .collect();
    let region: Vec<i64> = (0..EMBED_CUSTOMERS)
        .map(|_| rng.below(EMBED_REGIONS))
        .collect();
    let input = EmbedInput {
        orders: orders.iter().copied().collect(),
        customers: region
            .iter()
            .enumerate()
            .map(|(c, &r)| [c as i64, r])
            .collect(),
        regions: (0..EMBED_REGIONS).map(|r| [r, (r * 7) % 13]).collect(),
    };
    let writes = EmbedWrites {
        rng,
        orders,
        next_key: EMBED_ORDERS as i64,
        region,
    };
    (input, writes)
}

/// The program's set-up calls for the embedded workload (after `open`).
pub fn install_embed(mgr: &mut ViewManager, input: &EmbedInput) -> ivm::prelude::Result<()> {
    mgr.create_relation("orders", Schema::new(["OID", "CUST", "AMT"])?)?;
    mgr.create_relation("customers", Schema::new(["CUST", "REGION"])?)?;
    mgr.create_relation("regions", Schema::new(["REGION", "RNAME"])?)?;
    mgr.load("orders", input.orders.iter().copied())?;
    mgr.load("customers", input.customers.iter().copied())?;
    mgr.load("regions", input.regions.iter().copied())?;
    mgr.register_view(
        "sales",
        SpjExpr::new(
            ["orders", "customers", "regions"],
            Condition::conjunction([Atom::ge_const("AMT", 500), Atom::le_const("REGION", 39)]),
            Some(vec!["OID".into(), "CUST".into(), "AMT".into(), "RNAME".into()]),
        ),
        RefreshPolicy::Immediate,
    )?;
    mgr.register_view(
        "top_sales",
        SpjExpr::new(
            ["sales"],
            Atom::ge_const("AMT", 990).into(),
            Some(vec!["OID".into(), "RNAME".into()]),
        ),
        RefreshPolicy::Immediate,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_serve::Response;
    use ivm_storage::Codec;

    fn encoded(writes: impl Iterator<Item = Transaction>, n: usize) -> Vec<Vec<u8>> {
        writes.take(n).map(|t| t.encode()).collect()
    }

    fn response_bytes(mgr: &ViewManager, view: &str) -> usize {
        Response::Rows {
            epoch: 1,
            rows: mgr.view_contents(view).unwrap().clone(),
        }
        .encode()
        .len()
    }

    #[test]
    fn same_seed_same_stream() {
        for w in [Workload::ServePointSmall, Workload::ServeViewLarge] {
            let (a, wa) = serve_input(w, 7);
            let (b, wb) = serve_input(w, 7);
            let (_, wc) = serve_input(w, 8);
            assert_eq!(a.orders, b.orders);
            assert_eq!(a.items, b.items);
            assert_eq!(encoded(wa, 200), encoded(wb, 200));
            assert_ne!(encoded(serve_input(w, 7).1, 200), encoded(wc, 200));
        }
        let (a, wa) = embed_input(7);
        let (b, wb) = embed_input(7);
        let (_, wc) = embed_input(8);
        assert_eq!(a.orders, b.orders);
        assert_eq!(a.customers, b.customers);
        assert_eq!(encoded(wa, 5), encoded(wb, 5));
        assert_ne!(encoded(embed_input(7).1, 5), encoded(wc, 5));
        assert!(embed_input(7).1.take(5).all(|t| t.size() == EMBED_BATCH));
    }

    /// Runs the real engine over the stream: base relations and views stay
    /// exactly flat, and response sizes stay out of the 8–64 KiB band.
    #[test]
    fn serve_cardinalities_and_responses_stay_in_band() {
        for (w, max, min) in [
            (Workload::ServePointSmall, 8 * 1024, 0),
            (Workload::ServeViewLarge, usize::MAX, 64 * 1024),
        ] {
            let shape = serve_shape(w);
            let (input, writes) = serve_input(w, 3);
            let mut mgr = ViewManager::new();
            install_serve(&mut mgr, &input).unwrap();
            for (i, txn) in writes.take(400).enumerate() {
                mgr.execute(&txn).unwrap();
                if i % 100 != 99 {
                    continue;
                }
                for rel in ["orders", "items"] {
                    assert_eq!(mgr.database().relation(rel).unwrap().len(), SERVE_BASE_ROWS);
                }
                for view in SERVE_VIEWS {
                    assert_eq!(mgr.view_contents(view).unwrap().len(), shape.view_rows);
                    let bytes = response_bytes(&mgr, view);
                    assert!(bytes < max && bytes > min, "{view}: {bytes} bytes");
                }
            }
        }
    }

    #[test]
    fn embed_cardinalities_stay_in_band() {
        let (input, writes) = embed_input(3);
        let mut mgr = ViewManager::new();
        install_embed(&mut mgr, &input).unwrap();
        let start = mgr.view_contents("sales").unwrap().len() as f64;
        let top = mgr.view_contents("top_sales").unwrap().len() as f64;
        for txn in writes.take(12) {
            mgr.execute(&txn).unwrap();
            assert_eq!(mgr.database().relation("orders").unwrap().len(), EMBED_ORDERS);
            assert_eq!(
                mgr.database().relation("customers").unwrap().len(),
                EMBED_CUSTOMERS as usize
            );
            let sales = mgr.view_contents("sales").unwrap().len() as f64;
            assert!((sales / start - 1.0).abs() < 0.1, "sales {sales} vs {start}");
            let now = mgr.view_contents("top_sales").unwrap().len() as f64;
            assert!((now / top - 1.0).abs() < 0.5, "top_sales {now} vs {top}");
            assert!(response_bytes(&mgr, EMBED_READ_VIEW) > 64 * 1024);
        }
        mgr.verify_consistency().unwrap();
    }
}
