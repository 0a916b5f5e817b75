//! Serving-layer integration tests: the full TCP stack end to end, the
//! snapshot-isolation guarantee under concurrent readers, and torn
//! connections.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use ivm::prelude::*;
use ivm::snapshot::digest_views;
use ivm_relational::predicate::Atom;
use ivm_serve::{protocol, scenario, Client, Request, Response, Server, PROTOCOL_VERSION};
use ivm_sim::SimRng;

fn demo_server() -> Server {
    let mut mgr = ViewManager::new();
    scenario::install(&mut mgr).unwrap();
    Server::start(mgr, "127.0.0.1:0").unwrap()
}

fn wait_for_counter(server: &Server, name: &str, at_least: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let got = server
            .stats()
            .counters
            .get(name)
            .copied()
            .unwrap_or_default();
        if got >= at_least || Instant::now() > deadline {
            return got;
        }
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn end_to_end_protocol_commands() {
    let server = demo_server();
    let addr = server.addr().to_string();
    let mut c = Client::connect(addr.as_str()).unwrap();

    c.ping().unwrap();
    assert_eq!(
        c.list_views().unwrap(),
        vec!["big_orders", "hot_items", "order_tiers"]
    );
    let epoch0 = c.epoch().unwrap();
    assert!(epoch0 >= 1);

    // Writes go through the writer thread; reads see them in the next
    // published snapshot.
    let mut txn = Transaction::new();
    txn.insert("orders", [1, 7, 80]).unwrap();
    txn.insert("orders", [2, 8, 99]).unwrap();
    let (touched, maintained) = c.execute(txn).unwrap();
    assert!(touched >= 2, "orders feeds big_orders and order_tiers");
    assert!(maintained >= 1);

    let (epoch, rows) = c.query("big_orders").unwrap();
    assert!(epoch > epoch0);
    assert_eq!(rows.len(), 2);

    // Server-side errors keep the session usable.
    assert!(c.query("no_such_view").is_err());
    c.ping().unwrap();

    // DDL over the wire, then query the new view.
    c.create_relation("t", Schema::new(["X", "Y"]).unwrap())
        .unwrap();
    c.register_view(
        "t_hi",
        SpjExpr::new(["t"], Atom::gt_const("Y", 10).into(), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    let mut txn = Transaction::new();
    txn.insert("t", [1, 11]).unwrap();
    c.execute(txn).unwrap();
    let (_, rows) = c.query("t_hi").unwrap();
    assert_eq!(rows.len(), 1);

    // Digest matches an independent recomputation of the same snapshot.
    let (dig_epoch, digest) = c.digest().unwrap();
    assert!(dig_epoch >= epoch);
    let stats = c.stats().unwrap();
    assert!(stats.contains("serve.requests"), "{stats}");

    // Second session: the counters see both.
    let mut c2 = Client::connect(addr.as_str()).unwrap();
    let (e2, d2) = c2.digest().unwrap();
    if e2 == dig_epoch {
        assert_eq!(d2, digest);
    }
    c2.shutdown().unwrap();

    let mgr = server.join().unwrap();
    assert_eq!(mgr.view_contents("t_hi").unwrap().len(), 1);
    assert_eq!(mgr.view_contents("big_orders").unwrap().len(), 2);
}

#[test]
fn wrong_protocol_version_is_rejected() {
    let server = demo_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    protocol::send(&mut stream, &Request::Hello { version: 999 }).unwrap();
    match protocol::recv::<Response>(&mut stream.try_clone().unwrap()) {
        Ok(Some(Response::Error { message })) => {
            assert!(message.contains("version"), "{message}")
        }
        other => panic!("expected version-mismatch error, got {other:?}"),
    }
    wait_for_counter(&server, "serve.protocol_errors", 1);
    server.stop().unwrap();
}

#[test]
fn torn_connection_is_detected_and_isolated() {
    let server = demo_server();
    let addr = server.addr();

    // A healthy session, to prove the torn one doesn't take it down.
    let mut healthy = Client::connect(addr).unwrap();
    healthy.ping().unwrap();

    // Handshake, then die mid-frame: a length prefix promising 64 bytes
    // followed by only a few.
    let mut stream = TcpStream::connect(addr).unwrap();
    protocol::send(
        &mut stream,
        &Request::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .unwrap();
    let mut rd = stream.try_clone().unwrap();
    let hello = protocol::recv::<Response>(&mut rd).unwrap();
    assert!(matches!(hello, Some(Response::Hello { .. })));
    stream.write_all(&64u32.to_le_bytes()).unwrap();
    stream.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
    stream.write_all(&[1, 2, 3]).unwrap();
    stream.flush().unwrap();
    drop(rd);
    drop(stream);

    let errors = wait_for_counter(&server, "serve.protocol_errors", 1);
    assert!(errors >= 1, "torn frame must be counted, got {errors}");
    let closed = wait_for_counter(&server, "serve.sessions_closed", 1);
    assert!(closed >= 1);

    // The server is still fully alive.
    healthy.ping().unwrap();
    let (_, rows) = healthy.query("big_orders").unwrap();
    assert_eq!(rows.len(), 0);
    server.stop().unwrap();
}

/// The tentpole guarantee, cross-checked against an independent oracle:
/// 8 reader threads race a writer applying 1000 transactions, and every
/// snapshot any reader ever observes has the digest of some
/// committed-prefix state — never a half-applied transaction, never a
/// torn mix of views.
#[test]
fn eight_readers_only_ever_observe_committed_prefix_states() {
    const TXNS: usize = 1000;
    const READERS: usize = 8;

    let mut mgr = ViewManager::new();
    mgr.create_relation("R", Schema::new(["A", "B"]).unwrap())
        .unwrap();
    mgr.create_relation("S", Schema::new(["B", "C"]).unwrap())
        .unwrap();
    mgr.load("S", (0..100i64).map(|b| [b, b % 7])).unwrap();
    mgr.register_view(
        "v_hi",
        SpjExpr::new(["R"], Atom::gt_const("B", 49).into(), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    mgr.register_view(
        "v_join",
        SpjExpr::new(
            ["R", "S"],
            Atom::ge_const("C", 3).into(),
            Some(vec!["A".into(), "C".into()]),
        ),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    mgr.register_view(
        "v_lo",
        SpjExpr::new(["R"], Atom::le_const("B", 49).into(), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();

    // Deterministic transaction stream; some transactions are
    // multi-operation (insert + delete) so atomicity is observable.
    let mut rng = SimRng::for_stream(0xC0FFEE, 7);
    let mut live: Vec<(i64, i64)> = Vec::new();
    let mut txns = Vec::with_capacity(TXNS);
    for i in 0..TXNS as i64 {
        let mut txn = Transaction::new();
        let b = rng.range_i64(0, 99);
        txn.insert("R", [i, b]).unwrap();
        live.push((i, b));
        if live.len() > 1 && rng.chance(1, 4) {
            let victim = live.remove(rng.index(live.len() - 1));
            txn.delete("R", [victim.0, victim.1]).unwrap();
        }
        txns.push(txn);
    }

    // Independent oracle: replay the same stream against a plain
    // Database, recomputing every view from scratch. digests[k] is the
    // digest of the state after k committed transactions; publication
    // epoch e corresponds to prefix e-1 (arming publishes epoch 1).
    let exprs: Vec<(String, SpjExpr)> = ["v_hi", "v_join", "v_lo"]
        .iter()
        .map(|v| (v.to_string(), mgr.view_expr(v).unwrap()))
        .collect();
    let mut db = Database::new();
    db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
    db.create("S", Schema::new(["B", "C"]).unwrap()).unwrap();
    let mut seed_txn = Transaction::new();
    seed_txn
        .insert_all("S", (0..100i64).map(|b| [b, b % 7]))
        .unwrap();
    db.apply(&seed_txn).unwrap();
    let oracle_digest = |db: &Database| {
        let views: BTreeMap<&str, ivm_relational::relation::Relation> = exprs
            .iter()
            .map(|(n, e)| (n.as_str(), e.eval(db).unwrap()))
            .collect();
        digest_views(views.iter().map(|(n, r)| (*n, r)))
    };
    let mut digests = Vec::with_capacity(TXNS + 1);
    digests.push(oracle_digest(&db));
    for txn in &txns {
        db.apply(txn).unwrap();
        digests.push(oracle_digest(&db));
    }

    let hub = mgr.snapshots();
    assert_eq!(hub.epoch(), 1);
    let final_epoch = 1 + TXNS as u64;

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let handle = hub.reader();
            let digests = digests.clone();
            thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut observed = 0u64;
                loop {
                    let snap = handle.latest();
                    let epoch = snap.epoch();
                    assert!(
                        epoch >= last_epoch,
                        "epochs must be monotone per reader ({last_epoch} -> {epoch})"
                    );
                    last_epoch = epoch;
                    assert!(epoch >= 1 && epoch <= final_epoch, "epoch {epoch}");
                    assert_eq!(
                        snap.digest(),
                        digests[(epoch - 1) as usize],
                        "snapshot at epoch {epoch} is not the committed prefix state"
                    );
                    observed += 1;
                    if epoch == final_epoch {
                        return observed;
                    }
                }
            })
        })
        .collect();

    for txn in &txns {
        mgr.execute(txn).unwrap();
    }
    assert_eq!(hub.epoch(), final_epoch);

    for r in readers {
        let observed = r.join().unwrap();
        assert!(observed > 0);
    }

    // And the engine's own final state agrees with the oracle.
    let hub_final = hub.reader().latest();
    assert_eq!(hub_final.digest(), digests[TXNS]);
}

/// DDL for *stacked* views over the wire: a client registers a view, a
/// sibling over the same core, and a view over a view, then updates the
/// base and reads the whole stack through pinned snapshots.
#[test]
fn stacked_view_ddl_over_the_wire() {
    let mut mgr = ViewManager::new();
    mgr.create_relation("R", Schema::new(["A", "B"]).unwrap())
        .unwrap();
    mgr.create_relation("S", Schema::new(["B", "C"]).unwrap())
        .unwrap();
    let server = Server::start(mgr, "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.addr().to_string().as_str()).unwrap();

    // Two siblings over the same core, each maintained on its own.
    c.register_view(
        "pa",
        SpjExpr::new(
            ["R", "S"],
            Atom::lt_const("A", 100).into(),
            Some(vec!["A".into()]),
        ),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    c.register_view(
        "pc",
        SpjExpr::new(
            ["R", "S"],
            Atom::lt_const("A", 100).into(),
            Some(vec!["C".into()]),
        ),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    // A view over a view, stratum 2.
    c.register_view(
        "top",
        SpjExpr::new(["pa"], Atom::lt_const("A", 10).into(), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    assert_eq!(c.list_views().unwrap(), vec!["pa", "pc", "top"]);

    let mut txn = Transaction::new();
    txn.insert("R", [1, 5]).unwrap();
    txn.insert("R", [50, 5]).unwrap();
    txn.insert("S", [5, 9]).unwrap();
    let (_, maintained) = c.execute(txn).unwrap();
    assert_eq!(maintained, 3, "two siblings + top");

    // All levels read from one consistent published epoch.
    let (e1, pa) = c.query("pa").unwrap();
    let (e2, pc) = c.query("pc").unwrap();
    let (e3, top) = c.query("top").unwrap();
    assert_eq!((e1, e2), (e3, e3));
    assert_eq!(pa.len(), 2);
    assert_eq!(pc.len(), 1, "both A values project to C=9");
    assert_eq!(top.len(), 1, "only A=1 survives A<10");

    c.shutdown().unwrap();
    let mut mgr = server.join().unwrap();
    mgr.verify_consistency().unwrap();
}

#[test]
fn mid_size_responses_do_not_wait_for_delayed_acks() {
    // A 250-row view encodes to a response between 8 KiB (the session's
    // write buffer) and 64 KiB, so it leaves the server in two writes.
    // Without TCP_NODELAY on the server's socket, Nagle's algorithm holds
    // the second write until the client's delayed ACK: ~40 ms per read
    // on Linux loopback instead of well under a millisecond.
    let mut mgr = ViewManager::new();
    mgr.create_relation("R", Schema::new(["A", "B", "C"]).unwrap())
        .unwrap();
    mgr.load("R", (0..250i64).map(|i| [i, i * 7, i * 13]))
        .unwrap();
    mgr.register_view(
        "all",
        SpjExpr::new(["R"], Atom::ge_const("A", 0).into(), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    let server = Server::start(mgr, "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.addr().to_string().as_str()).unwrap();

    let (epoch, rows) = c.query("all").unwrap();
    assert_eq!(rows.len(), 250);
    let mut frame = Vec::new();
    protocol::send(&mut frame, &Response::Rows { epoch, rows }).unwrap();
    assert!(
        (8 << 10..64 << 10).contains(&frame.len()),
        "response of {} bytes is outside the 8–64 KiB band",
        frame.len()
    );

    let mut times: Vec<Duration> = (0..9)
        .map(|_| {
            let started = Instant::now();
            c.query("all").unwrap();
            started.elapsed()
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median read of a mid-size response took {median:?} (all: {times:?})"
    );

    c.shutdown().unwrap();
    server.join().unwrap();
}

/// Writes from several sessions run one at a time under the manager lock:
/// four clients commit 250 transactions each on disjoint keys at once,
/// every commit is acknowledged, lands in the final state and publishes
/// exactly one epoch.
#[test]
fn four_writer_sessions_commit_concurrently() {
    const WRITERS: i64 = 4;
    const TXNS: i64 = 250;

    let mut mgr = ViewManager::new();
    mgr.create_relation("R", Schema::new(["A", "B"]).unwrap())
        .unwrap();
    mgr.register_view(
        "v_hi",
        SpjExpr::new(["R"], Atom::gt_const("B", 49).into(), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    let server = Server::start(mgr, "127.0.0.1:0").unwrap();
    let epoch0 = server.hub().epoch();
    let addr = server.addr();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..TXNS {
                    let key = w * TXNS + i;
                    let mut txn = Transaction::new();
                    txn.insert("R", [key, key % 100]).unwrap();
                    c.execute(txn).unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }

    let commits = (WRITERS * TXNS) as u64;
    assert_eq!(server.hub().epoch(), epoch0 + commits);
    assert_eq!(
        wait_for_counter(&server, "serve.txns_executed", commits),
        commits
    );
    let mut mgr = server.stop().unwrap();
    mgr.verify_consistency().unwrap();
    assert_eq!(mgr.snapshots().epoch(), epoch0 + commits);
    let r = mgr.database().relation("R").unwrap();
    assert_eq!(r.len() as i64, WRITERS * TXNS);
    for key in 0..WRITERS * TXNS {
        assert!(r.contains(&Tuple::from([key, key % 100])), "lost {key}");
    }
    assert_eq!(mgr.view_contents("v_hi").unwrap().len(), 500);
}
