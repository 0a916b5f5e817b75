//! Concurrency: the `SharedViewManager` under concurrent writers and
//! readers must serialize transactions correctly and keep every view
//! consistent with full re-evaluation — at every maintenance thread
//! count. Each scenario runs with the engine forced sequential (1), at a
//! modest pool (2) and oversubscribed (8); the external behavior must be
//! identical.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use ivm::prelude::*;

/// Maintenance-pool widths every scenario is exercised at.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn build(threads: usize) -> SharedViewManager {
    let mut m = ViewManager::new().with_threads(threads);
    m.create_relation("events", Schema::new(["EID", "KIND", "SIZE"]).unwrap())
        .unwrap();
    m.create_relation("kinds", Schema::new(["KIND", "PRIO"]).unwrap())
        .unwrap();
    m.load("kinds", (0..8i64).map(|k| [k, k % 3]).collect::<Vec<_>>())
        .unwrap();
    m.register_view(
        "hot",
        SpjExpr::new(
            ["events", "kinds"],
            Condition::conjunction([Atom::gt_const("SIZE", 800), Atom::ge_const("PRIO", 2)]),
            Some(vec!["EID".into(), "SIZE".into()]),
        ),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    m.register_view(
        "sizes",
        SpjExpr::new(
            ["events"],
            Condition::always_true(),
            Some(vec!["SIZE".into()]),
        ),
        RefreshPolicy::OnDemand,
    )
    .unwrap();
    SharedViewManager::new(m)
}

#[test]
fn concurrent_writers_and_readers() {
    for threads in THREAD_COUNTS {
        concurrent_writers_and_readers_at(threads);
    }
}

fn concurrent_writers_and_readers_at(maintenance_threads: usize) {
    let shared = build(maintenance_threads);
    let alerts = Arc::new(AtomicUsize::new(0));
    {
        let alerts = alerts.clone();
        shared
            .write(|m| {
                m.on_change(
                    "hot",
                    Arc::new(move |_, delta| {
                        alerts.fetch_add(delta.len(), Ordering::SeqCst);
                    }),
                )
            })
            .unwrap();
    }

    const WRITERS: usize = 4;
    const PER_WRITER: i64 = 200;
    let mut handles = Vec::new();
    for w in 0..WRITERS as i64 {
        let shared = shared.clone();
        handles.push(thread::spawn(move || {
            for i in 0..PER_WRITER {
                let eid = w * PER_WRITER + i;
                let mut txn = Transaction::new();
                txn.insert("events", [eid, eid % 8, (eid * 37) % 1000])
                    .unwrap();
                shared.execute(&txn).unwrap();
                // Occasionally delete what this writer inserted earlier.
                if i % 10 == 9 {
                    let victim = w * PER_WRITER + i - 5;
                    let mut txn = Transaction::new();
                    txn.delete("events", [victim, victim % 8, (victim * 37) % 1000])
                        .unwrap();
                    shared.execute(&txn).unwrap();
                }
            }
        }));
    }
    // Reader thread hammering queries while writes happen.
    let reader = {
        let shared = shared.clone();
        thread::spawn(move || {
            let mut checksum = 0u128;
            for _ in 0..200 {
                checksum = checksum.wrapping_add(shared.query("hot").unwrap().total_count());
                checksum = checksum.wrapping_add(shared.query("sizes").unwrap().total_count());
            }
            checksum
        })
    };
    for h in handles {
        h.join().expect("writer");
    }
    let _ = reader.join().expect("reader");

    // Final state: fully consistent, and the listener fired for every net
    // view change.
    shared.write(|m| m.verify_consistency()).unwrap();
    let (events, hot) = shared.read(|m| {
        (
            m.database().relation("events").unwrap().total_count(),
            m.view_contents("hot").unwrap().total_count(),
        )
    });
    assert_eq!(
        events,
        (WRITERS as i64 * PER_WRITER - WRITERS as i64 * 20) as u128
    );
    assert!(hot > 0, "some events must be hot");
    assert!(alerts.load(Ordering::SeqCst) > 0);
}

#[test]
fn deferred_refresh_under_concurrent_writes() {
    for threads in THREAD_COUNTS {
        deferred_refresh_under_concurrent_writes_at(threads);
    }
}

fn deferred_refresh_under_concurrent_writes_at(maintenance_threads: usize) {
    let shared = build(maintenance_threads);
    shared
        .write(|m| {
            m.register_view(
                "snap",
                SpjExpr::new(["events"], Atom::gt_const("SIZE", 500).into(), None),
                RefreshPolicy::Deferred,
            )
        })
        .unwrap();
    let mut handles = Vec::new();
    for w in 0..3i64 {
        let shared = shared.clone();
        handles.push(thread::spawn(move || {
            for i in 0..100 {
                let eid = 10_000 + w * 100 + i;
                let mut txn = Transaction::new();
                txn.insert("events", [eid, eid % 8, (eid * 13) % 1000])
                    .unwrap();
                shared.execute(&txn).unwrap();
            }
        }));
    }
    // Refresh concurrently with the writers a few times.
    for _ in 0..5 {
        shared.write(|m| m.refresh("snap")).unwrap();
    }
    for h in handles {
        h.join().expect("writer");
    }
    shared.write(|m| m.verify_consistency()).unwrap();
}
