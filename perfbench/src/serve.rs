//! The two serve workloads: an in-process `ivm_serve::Server` over
//! loopback with one writer and one reader connection, driven by one
//! closed-loop caller that alternates them: each write is followed by one
//! read (round-robin over the views).
//!
//! Alternating instead of running the two connections from two threads
//! keeps the client side from competing with the server's own threads for
//! the two cores: with both connections busy at once, runs flipped between
//! a fast and a ~40 % slower scheduling regime for seconds at a time.

use std::path::Path;
use std::time::Instant;

use ivm::prelude::ViewManager;
use ivm_serve::{Client, Server};

use crate::gen::{self, Workload, SERVE_BASE_ROWS, SERVE_VIEWS};
use crate::{probes, Measured, Tracer, Window, SETUPS};

/// Writes-alone then reads-alone operations after the window (traced runs).
const TAIL_OPS: usize = 100;
/// Transactions the traced run replays on shadow managers.
const REPLAY_TXNS: usize = 300;

pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool, dir: &Path) -> Measured {
    let mut m = Measured::default();
    let shape = gen::serve_shape(w);
    let (input, mut writes) = gen::serve_input(w, seed);
    m.env.push(("base_rows", SERVE_BASE_ROWS.to_string()));
    m.env.push(("view_rows", shape.view_rows.to_string()));
    m.env.push(("relevant_write_pct", shape.hot_pct.to_string()));
    m.env.push(("changes_per_write", "2".into()));

    let mut server = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let built = (|| -> Result<Server, String> {
            let mut mgr = ViewManager::new();
            gen::install_serve(&mut mgr, &input).map_err(|e| e.to_string())?;
            Server::start(mgr, "127.0.0.1:0").map_err(|e| e.to_string())
        })();
        m.setup_secs.push(start.elapsed().as_secs_f64());
        match built {
            Ok(s) if i + 1 == SETUPS => server = Some(s),
            Ok(s) => {
                if let Err(e) = s.stop() {
                    m.problem(format!("stopping set-up {i}: {e}"));
                }
            }
            Err(e) => {
                m.problem(format!("set-up: {e}"));
                return m;
            }
        }
    }
    let server = server.expect("the last set-up is kept");
    let addr = server.addr();
    let (mut wc, mut rc) = match (Client::connect(addr), Client::connect(addr)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            let e = a.err().or(b.err()).map(|e| e.to_string()).unwrap_or_default();
            m.problem(format!("connect: {e}"));
            let _ = server.stop();
            return m;
        }
    };

    let origin = Instant::now();
    let mut t = Tracer::new(origin);
    let mut before = None;
    let (mut txns, mut changes) = (0usize, 0u64);
    // Every commit publishes exactly one snapshot, and a write is
    // acknowledged only after its publication, so the read that follows
    // write `i` must see exactly this epoch plus `i + 1`.
    let mut epoch = server.hub().epoch();
    let mut window = Window::new(seconds);
    for i in 0usize.. {
        let Some(measuring) = window.next() else { break };
        if measuring && trace && before.is_none() {
            before = Some(server.stats());
        }
        let Some(txn) = writes.next() else { break };
        let size = txn.size() as u64;
        let start = Instant::now();
        let res = wc.execute(txn);
        let end = Instant::now();
        m.attempted += 1;
        if let Err(e) = res {
            m.problem(format!("write {i}: {e}"));
            continue;
        }
        epoch += 1;
        if measuring {
            txns += 1;
            changes += size;
            m.writes.push((end - start).as_nanos() as u64);
            if trace {
                t.record("client.execute", i as u64, start, end);
            }
        }
        let view = SERVE_VIEWS[i % SERVE_VIEWS.len()];
        let start = Instant::now();
        let res = rc.query(view);
        let end = Instant::now();
        m.attempted += 1;
        match res {
            Ok((seen, rows)) => {
                std::hint::black_box(rows.len());
                if seen != epoch {
                    m.problem(format!("read {i} saw epoch {seen}, expected {epoch}"));
                }
                if measuring {
                    m.reads.push((end - start).as_nanos() as u64);
                    if trace {
                        t.record("client.query", i as u64, start, end);
                    }
                }
            }
            Err(e) => m.problem(format!("read {i} ({view}): {e}")),
        }
    }
    m.window = window.bounds(origin);

    if trace {
        let after = server.stats();
        let client_ns = m.writes.iter().chain(&m.reads).sum();
        probes::recorder_layers(
            &mut m,
            before.as_ref().expect("taken when measuring began"),
            &after,
            txns,
            changes,
            client_ns,
            ivm::prelude::metric_names::SPAN_SERVE,
        );
        let snap = server.hub().latest();
        let views: Vec<_> = snap.iter().collect();
        t.within("probe.protocol", |t| probes::protocol(&mut m, &views, t));
        let tail: Vec<_> = writes.take(TAIL_OPS).collect();
        t.within("probe.serve_tail", |t| probes::serve_tail(&mut m, &server, &mut wc, &mut rc, &tail, &SERVE_VIEWS, t));
    }

    // Correctness gate: the reader's snapshot is the final state.
    let seen = rc.digest();
    drop((wc, rc));
    let mut mgr = match server.stop() {
        Ok(mgr) => mgr,
        Err(e) => {
            m.problem(format!("server stop: {e}"));
            return m;
        }
    };
    match (seen, probes::views_digest(&mgr)) {
        (Ok((_, d)), Ok(want)) if d == want => {}
        (Ok((at, d)), Ok(want)) => m.problem(format!(
            "client digest {d:#x} at epoch {at} != manager digest {want:#x}"
        )),
        (Err(e), _) => m.problem(format!("digest: {e}")),
        (_, Err(e)) => m.problem(format!("manager digest: {e}")),
    }
    for view in SERVE_VIEWS {
        let rows = mgr.view_contents(view).map(|r| r.len()).unwrap_or(0);
        if rows != shape.view_rows {
            m.problem(format!("{view} has {rows} rows, expected {}", shape.view_rows));
        }
    }
    if let Err(e) = mgr.verify_consistency() {
        m.problem(format!("verify_consistency: {e}"));
    }
    drop(mgr);

    if trace {
        let build = |mgr: &mut ViewManager| gen::install_serve(mgr, &input);
        // The run's own first transactions, regenerated from the seed.
        let sample: Vec<_> = gen::serve_input(w, seed).1.take(REPLAY_TXNS).collect();
        t.within("probe.replay", |t| probes::replay(&mut m, &build, &sample, &SERVE_VIEWS, t));
        t.within("probe.wal", |t| probes::wal(&mut m, &sample, dir, t));
        t.within("probe.durability", |t| probes::durability(&mut m, &build, &sample, dir, t));
        m.tracer = Some(t);
    }
    m
}
