//! obs_overhead — what an installed metrics recorder costs per call, and
//! how many calls one single-row `execute` makes.
//!
//! `trace.overhead_pct` (perfbench, `serve_point_small`) compares a
//! manager's `execute` with an `InMemoryRecorder` installed against the
//! default. This bench breaks that difference down:
//!
//! * `obs_overhead/{span_depth1,span_depth2,add,observe}/{recorder,disabled}`
//!   time one `Obs::span` enter-and-drop (at depth 1, and at depth 2
//!   inside an open span), one `Obs::add` and one `Obs::observe`, with an
//!   `InMemoryRecorder` installed and with `Obs::disabled()`;
//! * `obs_overhead/execute_single_row/{recorder,disabled}` times one
//!   single-row write (an insert or, alternately, its inverse delete) on
//!   the `serve_point_small` schema and views at 10 000 rows;
//! * the `calls per execute` lines count the spans, counter adds and
//!   histogram observations one such write records, for a write the §4
//!   filter skips and for one it admits.
//!
//! Multiplying the per-call costs by the counts gives the recorder's
//! share of an `execute` (EXPERIMENTS.md, E26).
//!
//! `cargo bench -p ivm-bench --bench obs_overhead`

use std::sync::{Arc, Mutex};

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ivm::prelude::*;
use ivm_obs::SpanEvent;

const ROWS: i64 = 10_000;
/// Rows with `AMT`/`QTY` at or above this bound are in a view.
const HOT_FROM: i64 = 900;

/// Counts every recorder call, by kind: `[spans, adds, observes]`.
#[derive(Default)]
struct CallCounter(Mutex<[u64; 3]>);

impl CallCounter {
    fn bump(&self, kind: usize) {
        self.0.lock().unwrap()[kind] += 1;
    }

    fn calls(&self) -> [u64; 3] {
        *self.0.lock().unwrap()
    }
}

impl Recorder for CallCounter {
    fn add_counter(&self, _name: &'static str, _delta: u64) {
        self.bump(1);
    }
    fn observe(&self, _name: &'static str, _value: u64) {
        self.bump(2);
    }
    fn record_span(&self, _event: &SpanEvent) {
        self.bump(0);
    }
}

fn serve_manager(recorder: Option<Arc<dyn Recorder>>) -> ViewManager {
    let mut mgr = ViewManager::new();
    if let Some(r) = recorder {
        mgr = mgr.with_recorder(r);
    }
    mgr.create_relation("orders", Schema::new(["OID", "CUST", "AMT"]).unwrap())
        .unwrap();
    mgr.create_relation("items", Schema::new(["IID", "SKU", "QTY"]).unwrap())
        .unwrap();
    mgr.create_relation("customers", Schema::new(["CUST", "TIER"]).unwrap())
        .unwrap();
    // One row in ten is hot (AMT/QTY ≥ HOT_FROM).
    let amt = |k: i64| {
        if k % 10 == 0 {
            HOT_FROM + k % 100
        } else {
            k % HOT_FROM
        }
    };
    mgr.load("orders", (0..ROWS).map(|k| [k, k % 1_000, amt(k)]))
        .unwrap();
    mgr.load("items", (0..ROWS).map(|k| [k, k % 500, amt(k)]))
        .unwrap();
    mgr.load("customers", (0..1_000).map(|c| [c, c % 5]))
        .unwrap();
    let hot = |attr: &str| Condition::from(Atom::ge_const(attr, HOT_FROM));
    mgr.register_view(
        "big_orders",
        SpjExpr::new(["orders"], hot("AMT"), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    mgr.register_view(
        "order_tiers",
        SpjExpr::new(
            ["orders", "customers"],
            hot("AMT"),
            Some(vec!["OID".into(), "TIER".into()]),
        ),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    mgr.register_view(
        "hot_items",
        SpjExpr::new(["items"], hot("QTY"), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    mgr
}

/// A single-row write to `orders` and its inverse.
fn write_pair(amt: i64) -> (Transaction, Transaction) {
    let row = [ROWS + 1, 7, amt];
    let mut ins = Transaction::new();
    ins.insert("orders", row).unwrap();
    let mut del = Transaction::new();
    del.delete("orders", row).unwrap();
    (ins, del)
}

fn bench_calls(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    let recorder: Arc<dyn Recorder> = Arc::new(InMemoryRecorder::new());
    for (label, obs) in [
        ("recorder", Obs::new(recorder.clone())),
        ("disabled", Obs::disabled()),
    ] {
        group.bench_function(format!("span_depth1/{label}"), |b| {
            b.iter(|| drop(black_box(obs.span(metric_names::SPAN_EXECUTE))))
        });
        {
            let _outer = obs.span(metric_names::SPAN_EXECUTE);
            group.bench_function(format!("span_depth2/{label}"), |b| {
                b.iter(|| drop(black_box(obs.span(metric_names::SPAN_APPLY))))
            });
        }
        group.bench_function(format!("add/{label}"), |b| {
            b.iter(|| obs.add(black_box(metric_names::MANAGER_TRANSACTIONS), black_box(1)))
        });
        group.bench_function(format!("observe/{label}"), |b| {
            b.iter(|| obs.observe(black_box(metric_names::DAG_STRATUM_WIDTH), black_box(3)))
        });
    }
    for (label, recorder) in [
        (
            "recorder",
            Some(Arc::new(InMemoryRecorder::new()) as Arc<dyn Recorder>),
        ),
        ("disabled", None),
    ] {
        let mut mgr = serve_manager(recorder);
        // Relevant: AMT ≥ HOT_FROM reaches both orders views.
        let (ins, del) = write_pair(HOT_FROM + 50);
        let mut flip = false;
        group.bench_function(format!("execute_single_row/{label}"), |b| {
            b.iter(|| {
                flip = !flip;
                black_box(mgr.execute(if flip { &ins } else { &del }).unwrap())
            })
        });
        if flip {
            mgr.execute(&del).unwrap();
        }
    }
    group.finish();

    // Count the calls one write records, skipped and admitted.
    for (kind, amt) in [("skipped", 5), ("admitted", HOT_FROM + 50)] {
        let counter = Arc::new(CallCounter::default());
        let mut mgr = serve_manager(Some(counter.clone()));
        let (ins, _) = write_pair(amt);
        let before = counter.calls();
        mgr.execute(&ins).unwrap();
        let after = counter.calls();
        println!(
            "obs_overhead/calls per execute ({kind} write): {} spans, {} adds, {} observes",
            after[0] - before[0],
            after[1] - before[1],
            after[2] - before[2]
        );
    }
}

criterion_group!(benches, bench_calls);
criterion_main!(benches);
