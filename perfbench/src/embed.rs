//! The embedded batch workload: a durable in-process manager taking
//! 1,000-change transactions against a three-relation join view with a
//! view stacked on it. Between transactions the application reads the
//! join view in-process.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ivm::prelude::{DurabilityPolicy, InMemoryRecorder, ViewManager};
use ivm_serve::{Client, Server};

use crate::gen::{self, EMBED_CHECKPOINT_EVERY, EMBED_READ_VIEW};
use crate::{probes, Measured, Tracer, Window, SETUPS};

/// In-process reads of the join view after each transaction.
const READS_PER_WRITE: usize = 4;
/// Writes-alone then reads-alone operations through a probe server after
/// the window (traced runs).
const TAIL_OPS: usize = 10;
/// Transactions the traced run replays on shadow managers.
const REPLAY_TXNS: usize = 24;

fn policy() -> DurabilityPolicy {
    DurabilityPolicy::WalWithCheckpointEvery(EMBED_CHECKPOINT_EVERY)
}

pub fn run(seed: u64, seconds: f64, trace: bool, dir: &Path) -> Measured {
    let mut m = Measured::default();
    let (input, mut writes) = gen::embed_input(seed);
    m.env.push(("orders", gen::EMBED_ORDERS.to_string()));
    m.env.push(("customers", gen::EMBED_CUSTOMERS.to_string()));
    m.env.push(("regions", gen::EMBED_REGIONS.to_string()));
    m.env.push(("changes_per_write", gen::EMBED_BATCH.to_string()));
    m.env.push(("checkpoint_every", EMBED_CHECKPOINT_EVERY.to_string()));

    let mut kept = None;
    for i in 0..SETUPS {
        let store = dir.join(format!("store{i}"));
        let start = Instant::now();
        let built = ViewManager::open_with_policy(&store, policy()).and_then(|mut mgr| {
            gen::install_embed(&mut mgr, &input)?;
            Ok(mgr)
        });
        m.setup_secs.push(start.elapsed().as_secs_f64());
        match built {
            Ok(mgr) if i + 1 == SETUPS => kept = Some((mgr, store)),
            Ok(mgr) => {
                drop(mgr);
                let _ = std::fs::remove_dir_all(&store);
            }
            Err(e) => {
                m.problem(format!("set-up: {e}"));
                return m;
            }
        }
    }
    let (mut mgr, store) = kept.expect("the last set-up is kept");
    let recorder = Arc::new(InMemoryRecorder::new());
    if trace {
        mgr = mgr.with_recorder(recorder.clone());
    }
    m.env.push((
        "sales_rows",
        mgr.view_contents(EMBED_READ_VIEW)
            .map(|r| r.len())
            .unwrap_or(0)
            .to_string(),
    ));

    let origin = Instant::now();
    let mut t = Tracer::new(origin);
    let mut before = None;
    let (mut txns, mut changes) = (0usize, 0u64);
    let mut window = Window::new(seconds);
    for i in 0usize.. {
        let Some(measuring) = window.next() else { break };
        if measuring && before.is_none() {
            before = Some(recorder.snapshot());
        }
        let Some(txn) = writes.next() else { break };
        let start = Instant::now();
        let res = mgr.execute(&txn);
        let end = Instant::now();
        m.attempted += 1;
        if let Err(e) = res {
            m.problem(format!("write {i}: {e}"));
            continue;
        }
        if measuring {
            txns += 1;
            changes += txn.size() as u64;
            m.writes.push((end - start).as_nanos() as u64);
            if trace {
                t.record("execute", i as u64, start, end);
            }
        }
        for r in 0..READS_PER_WRITE {
            let start = Instant::now();
            let res = mgr.query(EMBED_READ_VIEW);
            let end = Instant::now();
            m.attempted += 1;
            match res {
                Ok(rows) => {
                    std::hint::black_box(rows.len());
                    if measuring {
                        m.reads.push((end - start).as_nanos() as u64);
                        if trace {
                            let op = (i * READS_PER_WRITE + r) as u64;
                            t.record("query", op, start, end);
                        }
                    }
                }
                Err(e) => m.problem(format!("read after write {i}: {e}")),
            }
        }
    }
    m.window = window.bounds(origin);

    if trace {
        let after = recorder.snapshot();
        let client_ns = m.writes.iter().chain(&m.reads).sum();
        probes::recorder_layers(
            &mut m,
            before.as_ref().expect("taken when measuring began"),
            &after,
            txns,
            changes,
            client_ns,
            ivm::prelude::metric_names::SPAN_EXECUTE,
        );
        match mgr.view_contents(EMBED_READ_VIEW) {
            Ok(rel) => t.within("probe.protocol", |t| probes::protocol(&mut m, &[(EMBED_READ_VIEW, rel)], t)),
            Err(e) => m.problem(format!("protocol probe: {e}")),
        }
        let tail_writes: Vec<_> = writes.take(TAIL_OPS).collect();
        mgr = match tail(&mut m, mgr, &tail_writes, &mut t) {
            Some(mgr) => mgr,
            None => return m,
        };
    }

    // Correctness gate: views match full re-evaluation, base relations
    // kept their size, and a restart recovers the same views.
    if let Err(e) = mgr.verify_consistency() {
        m.problem(format!("verify_consistency: {e}"));
    }
    for (rel, want) in [
        ("orders", gen::EMBED_ORDERS),
        ("customers", gen::EMBED_CUSTOMERS as usize),
    ] {
        let got = mgr.database().relation(rel).map(|r| r.len()).unwrap_or(0);
        if got != want {
            m.problem(format!("{rel} has {got} rows, expected {want}"));
        }
    }
    let digest = probes::views_digest(&mgr);
    drop(mgr);
    let recovered = ViewManager::open_with_policy(&store, policy())
        .map_err(|e| e.to_string())
        .and_then(|r| probes::views_digest(&r));
    match (digest, recovered) {
        (Ok(a), Ok(b)) if a == b => {}
        (a, b) => m.problem(format!("recovered views differ: before {a:?}, after {b:?}")),
    }
    let _ = std::fs::remove_dir_all(&store);

    if trace {
        let build = |mgr: &mut ViewManager| gen::install_embed(mgr, &input);
        // The run's own first transactions, regenerated from the seed.
        let sample: Vec<_> = gen::embed_input(seed).1.take(REPLAY_TXNS).collect();
        t.within("probe.replay", |t| probes::replay(&mut m, &build, &sample, &[EMBED_READ_VIEW], t));
        t.within("probe.wal", |t| probes::wal(&mut m, &sample, dir, t));
        t.within("probe.durability", |t| probes::durability(&mut m, &build, &sample, dir, t));
        m.tracer = Some(t);
    }
    m
}

/// Serve the manager for the tail probe and take it back afterwards.
fn tail(
    m: &mut Measured,
    mgr: ViewManager,
    writes: &[ivm::prelude::Transaction],
    t: &mut Tracer,
) -> Option<ViewManager> {
    let server = match Server::start(mgr, "127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => {
            m.problem(format!("probe server: {e}"));
            return None;
        }
    };
    match (Client::connect(server.addr()), Client::connect(server.addr())) {
        (Ok(mut wc), Ok(mut rc)) => {
            t.within("probe.serve_tail", |t| {
                probes::serve_tail(m, &server, &mut wc, &mut rc, writes, &[EMBED_READ_VIEW], t)
            })
        }
        _ => m.problem("probe server: connect failed"),
    }
    match server.stop() {
        Ok(mgr) => Some(mgr),
        Err(e) => {
            m.problem(format!("probe server stop: {e}"));
            None
        }
    }
}
