//! Per-layer probes of a traced run. Each times a public call into one
//! layer from outside the program, or reads the program's own
//! `InMemoryRecorder` counters and spans, over the workload's own inputs.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ivm::prelude::{
    differential_delta, digest_views, metric_names as names, DiffOptions, DurabilityPolicy,
    InMemoryRecorder, RelevanceFilter, Snapshot, Transaction, ViewManager,
};
use ivm_relational::relation::Relation;
use ivm_serve::{Client, Response, Server};
use ivm_storage::{Codec, Wal, WalRecord};

use crate::{median_f64, Measured, Tracer};

pub type Build<'a> = &'a dyn Fn(&mut ViewManager) -> ivm::prelude::Result<()>;

fn median_ns(samples: &[u64]) -> f64 {
    median_f64(&samples.iter().map(|&n| n as f64).collect::<Vec<_>>())
}

fn counter(s: &Snapshot, name: &str) -> u64 {
    s.counters.get(name).copied().unwrap_or(0)
}

/// `(count, total ns)` of the spans at `path` between two snapshots.
fn span_delta(before: &Snapshot, after: &Snapshot, path: &str) -> (u64, u64) {
    let get = |s: &Snapshot| s.spans.get(path).map_or((0, 0), |x| (x.count, x.total_nanos));
    let (c0, t0) = get(before);
    let (c1, t1) = get(after);
    (c1 - c0, t1 - t0)
}

/// `(count, sum)` of a histogram between two snapshots.
fn hist_delta(before: &Snapshot, after: &Snapshot, name: &str) -> (u64, u64) {
    let get = |s: &Snapshot| s.histograms.get(name).map_or((0, 0), |h| (h.count, h.sum));
    let (c0, s0) = get(before);
    let (c1, s1) = get(after);
    (c1 - c0, s1 - s0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Layer numbers read from the program's recorder over the measured
/// writes: `before`/`after` bracket them, `txns` transactions with
/// `changes` changed tuples in all. `client_ns` is the benchmark's
/// own total time for every measured operation, and `top_span` the
/// program span that covers an operation (`serve` or `execute`).
pub fn recorder_layers(
    m: &mut Measured,
    before: &Snapshot,
    after: &Snapshot,
    txns: usize,
    changes: u64,
    client_ns: u64,
    top_span: &str,
) {
    let c = |name: &str| (counter(after, name) - counter(before, name)) as f64;
    let (n_exec, exec_ns) = span_delta(before, after, names::SPAN_EXECUTE);
    let child_ns: u64 = after
        .spans
        .keys()
        .filter(|p| p.strip_prefix("execute/").is_some_and(|rest| !rest.contains('/')))
        .map(|p| span_delta(before, after, p).1)
        .sum();
    m.layer("manager.execute_us", ratio(exec_ns as f64, n_exec as f64) / 1e3, "us");
    m.layer(
        "manager.self_us",
        ratio(exec_ns.saturating_sub(child_ns) as f64, n_exec as f64) / 1e3,
        "us",
    );
    m.layer(
        "filter.admit_ratio",
        ratio(c(names::FILTER_TUPLES_ADMITTED), c(names::FILTER_TUPLES_CHECKED)),
        "ratio",
    );
    m.layer(
        "diff.rows_evaluated_per_txn",
        ratio(c(names::DIFF_ROWS_EVALUATED), txns as f64),
        "count",
    );
    m.layer(
        "diff.operand_tuples_per_change",
        ratio(c(names::DIFF_OPERAND_TUPLES), changes as f64),
        "count",
    );
    m.layer(
        "index.probe_rows_per_change",
        ratio(c(names::INDEX_PROBE_ROWS), changes as f64),
        "count",
    );
    m.layer(
        "index.maintenance_rows_per_change",
        ratio(c(names::INDEX_MAINTENANCE_ROWS), changes as f64),
        "count",
    );
    let covered = span_delta(before, after, top_span).1 as f64;
    m.layer(
        "trace.unattributed_pct",
        100.0 * (1.0 - ratio(covered, client_ns as f64)),
        "%",
    );
}

/// What a `Query` costs outside the wire: cloning the view, encoding the
/// response and decoding it.
pub fn protocol(m: &mut Measured, views: &[(&str, &Relation)], t: &mut Tracer) {
    const ROUNDS: usize = 7;
    let (mut clone_ns, mut enc_ns, mut dec_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0usize;
    for round in 0..ROUNDS {
        for (i, (_, rel)) in views.iter().enumerate() {
            let op = (round * views.len() + i) as u64;
            let (rows, ns) = t.time("probe.query_clone", op, || (*rel).clone());
            clone_ns.push(ns);
            let resp = Response::Rows { epoch: 1, rows };
            let (buf, ns) = t.time("probe.encode", op, || resp.encode());
            enc_ns.push(ns);
            let (back, ns) = t.time("probe.decode", op, || Response::decode(&buf));
            dec_ns.push(ns);
            if back.as_ref().ok() != Some(&resp) {
                m.problem("protocol probe: decoded response differs from the encoded one");
            }
            if round == 0 {
                bytes += buf.len();
            }
        }
    }
    m.layer("query.clone_us", median_ns(&clone_ns) / 1e3, "us");
    m.layer("protocol.encode_us", median_ns(&enc_ns) / 1e3, "us");
    m.layer("protocol.decode_us", median_ns(&dec_ns) / 1e3, "us");
    m.layer(
        "protocol.bytes_per_read",
        ratio(bytes as f64, views.len() as f64),
        "count",
    );
}

/// Writes alone, then reads alone, through a running server: service
/// time, wire time and the writer's queue wait, from the server's own
/// `serve.request_micros` histogram and `execute` spans.
pub fn serve_tail(
    m: &mut Measured,
    server: &Server,
    wc: &mut Client,
    rc: &mut Client,
    writes: &[Transaction],
    read_views: &[&str],
    t: &mut Tracer,
) {
    let s0 = server.stats();
    let mut client_ns = 0u64;
    for (i, txn) in writes.iter().enumerate() {
        let txn = txn.clone();
        let (res, ns) = t.time("tail.client.execute", i as u64, || wc.execute(txn));
        client_ns += ns;
        m.attempted += 1;
        if let Err(e) = res {
            m.problem(format!("tail write {i}: {e}"));
        }
    }
    let s1 = server.stats();
    for i in 0..writes.len() {
        let view = read_views[i % read_views.len()];
        let (res, ns) = t.time("tail.client.query", i as u64, || rc.query(view));
        client_ns += ns;
        m.attempted += 1;
        if let Err(e) = res {
            m.problem(format!("tail read {i}: {e}"));
        }
    }
    let s2 = server.stats();
    let (wn, wsum) = hist_delta(&s0, &s1, names::SERVE_REQUEST_MICROS);
    let (rn, rsum) = hist_delta(&s1, &s2, names::SERVE_REQUEST_MICROS);
    let (en, ens) = span_delta(&s0, &s1, names::SPAN_EXECUTE);
    let service_us = ratio((wsum + rsum) as f64, (wn + rn) as f64);
    m.layer("server.service_us", service_us, "us");
    m.layer(
        "wire.wait_us",
        ratio(client_ns as f64 / 1e3, (2 * writes.len()) as f64) - service_us,
        "us",
    );
    m.layer(
        "server.queue_wait_us",
        ratio(wsum as f64, wn as f64) - ratio(ens as f64, en as f64) / 1e3,
        "us",
    );
}

/// Replays `txns` from the set-up state on four fresh in-process managers
/// in lockstep (rotating which goes first): default width, one thread,
/// snapshot hub armed, and recorder installed. The differences isolate the
/// pool, snapshot publication and tracing. On the pre-state of every
/// transaction it also times the relevance filter, the differential pass
/// of each `diff_views` view and `Database::apply` on a shadow database.
pub fn replay(
    m: &mut Measured,
    build: Build<'_>,
    txns: &[Transaction],
    diff_views: &[&str],
    t: &mut Tracer,
) {
    const DEFAULT: usize = 0;
    const HUB: usize = 2;
    let mut mgrs = vec![
        ViewManager::new(),
        ViewManager::new().with_threads(1),
        ViewManager::new(),
        ViewManager::new().with_recorder(Arc::new(InMemoryRecorder::new())),
    ];
    for mgr in &mut mgrs {
        if let Err(e) = build(mgr) {
            m.problem(format!("replay set-up: {e}"));
            return;
        }
    }
    let reader = mgrs[HUB].snapshots().reader();
    let mut probes = match LayerProbes::new(&mgrs[DEFAULT], diff_views) {
        Ok(p) => p,
        Err(e) => {
            m.problem(format!("replay probes: {e}"));
            return;
        }
    };
    let mut shadow_db = mgrs[DEFAULT].database().clone();
    let mut exec_ns = vec![Vec::with_capacity(txns.len()); mgrs.len()];
    let mut rows_cloned = 0u64;
    let (mut filter_ns, mut filter_tuples) = (0u64, 0u64);
    let (mut diff_ns, mut apply_ns) = (Vec::new(), Vec::new());
    for (i, txn) in txns.iter().enumerate() {
        let op = i as u64;
        match probes.run(&mgrs[DEFAULT], txn, t, op) {
            Ok((f_ns, f_tuples, d_ns)) => {
                filter_ns += f_ns;
                filter_tuples += f_tuples;
                diff_ns.push(d_ns);
            }
            Err(e) => {
                m.problem(format!("replay probe {i}: {e}"));
                return;
            }
        }
        let (res, ns) = t.time("probe.apply", op, || shadow_db.apply(txn));
        if let Err(e) = res {
            m.problem(format!("replay apply {i}: {e}"));
        }
        apply_ns.push(ns);
        for k in 0..mgrs.len() {
            let v = (i + k) % mgrs.len();
            let prev = reader.latest();
            let (res, ns) = t.time("probe.execute", op, || mgrs[v].execute(txn));
            if let Err(e) = res {
                m.problem(format!("replay execute {i}: {e}"));
                return;
            }
            exec_ns[v].push(ns);
            if v == HUB {
                let next = reader.latest();
                for (name, rel) in next.iter() {
                    if !prev.get(name).is_some_and(|p| std::ptr::eq(p, rel)) {
                        rows_cloned += rel.len() as u64;
                    }
                }
            }
        }
    }
    let mut pin_ns = Vec::new();
    for _ in 0..21 {
        let start = Instant::now();
        for _ in 0..1_000 {
            std::hint::black_box(reader.latest());
        }
        pin_ns.push(start.elapsed().as_nanos() as f64 / 1_000.0);
    }
    let medians: Vec<f64> = exec_ns.iter().map(|v| median_ns(v)).collect();
    let (default, one, hub, rec) = (medians[0], medians[1], medians[2], medians[3]);
    m.layer("pool.overhead_us", (default - one) / 1e3, "us");
    m.layer("snapshot.publish_us", (hub - default) / 1e3, "us");
    m.layer(
        "snapshot.rows_cloned_per_commit",
        ratio(rows_cloned as f64, txns.len() as f64),
        "count",
    );
    m.layer("snapshot.pin_ns", median_f64(&pin_ns), "ns");
    m.layer("trace.overhead_pct", 100.0 * ratio(rec - default, default), "%");
    m.layer("filter.ns_per_tuple", ratio(filter_ns as f64, filter_tuples as f64), "ns");
    m.layer("diff.us_per_txn", median_ns(&diff_ns) / 1e3, "us");
    m.layer("apply.us_per_txn", median_ns(&apply_ns) / 1e3, "us");
}

/// The relevance filters and view definitions the replay probes call.
struct LayerProbes {
    /// `(base relation, its filter for one view)`.
    filters: Vec<(String, RelevanceFilter)>,
    exprs: Vec<ivm::prelude::SpjExpr>,
}

impl LayerProbes {
    fn new(mgr: &ViewManager, views: &[&str]) -> ivm::prelude::Result<Self> {
        let mut filters = Vec::new();
        let mut exprs = Vec::new();
        for view in views {
            let expr = mgr.view_expr(view)?;
            for rel in &expr.relations {
                if mgr.database().contains_relation(rel) {
                    filters.push((rel.clone(), RelevanceFilter::new(&expr, mgr.database(), rel)?));
                }
            }
            exprs.push(expr);
        }
        Ok(LayerProbes { filters, exprs })
    }

    /// `(filter ns, tuples filtered, differential ns)` for one transaction
    /// on the manager's current (pre-transaction) state.
    fn run(
        &mut self,
        mgr: &ViewManager,
        txn: &Transaction,
        t: &mut Tracer,
        op: u64,
    ) -> ivm::prelude::Result<(u64, u64, u64)> {
        let touched = txn.touched();
        let (mut f_ns, mut tuples) = (0u64, 0u64);
        for (rel, filter) in &self.filters {
            if !touched.contains(&rel.as_str()) {
                continue;
            }
            let input: Vec<_> = txn.inserted(rel).chain(txn.deleted(rel)).collect();
            tuples += input.len() as u64;
            let (res, ns) = t.time("probe.filter", op, || filter.filter(input));
            res?;
            f_ns += ns;
        }
        let opts = DiffOptions {
            threads: 0,
            ..DiffOptions::default()
        };
        let mut d_ns = 0u64;
        for expr in &self.exprs {
            let (res, ns) = t.time("probe.differentiate", op, || {
                differential_delta(expr, mgr.database(), txn, &opts)
            });
            res?;
            d_ns += ns;
        }
        Ok((f_ns, tuples, d_ns))
    }
}

/// `Wal::append` + `sync` of each transaction into a fresh log.
pub fn wal(m: &mut Measured, txns: &[Transaction], dir: &Path, t: &mut Tracer) {
    let path = dir.join("probe.wal");
    let mut wal = match Wal::create(&path, 1) {
        Ok(w) => w,
        Err(e) => {
            m.problem(format!("wal probe: {e}"));
            return;
        }
    };
    let mut ns_each = Vec::with_capacity(txns.len());
    for (i, txn) in txns.iter().enumerate() {
        let record = WalRecord::Txn(txn.clone());
        let (res, ns) = t.time("probe.wal_append_sync", i as u64, || {
            wal.append(&record).and_then(|_| wal.sync())
        });
        if let Err(e) = res {
            m.problem(format!("wal probe {i}: {e}"));
            return;
        }
        ns_each.push(ns);
    }
    let changes: u64 = txns.iter().map(|t| t.size() as u64).sum();
    m.layer("wal.append_sync_us", median_ns(&ns_each) / 1e3, "us");
    m.layer(
        "wal.bytes_per_change",
        ratio(wal.stats().bytes_appended as f64, changes as f64),
        "count",
    );
    drop(wal);
    let _ = std::fs::remove_file(&path);
}

fn digest_of(mgr: &ViewManager) -> ivm::prelude::Result<u64> {
    let mut names: Vec<&str> = mgr.view_names().collect();
    names.sort_unstable();
    let views = names
        .iter()
        .map(|n| mgr.view_contents(n).map(|r| (*n, r)))
        .collect::<ivm::prelude::Result<Vec<_>>>()?;
    Ok(digest_views(views))
}

/// A durable manager over the set-up state: three `checkpoint` calls, each
/// after a quarter of `txns`, then the last quarter left in the WAL for
/// `open` to replay. The recovered views must digest as before.
pub fn durability(m: &mut Measured, build: Build<'_>, txns: &[Transaction], dir: &Path, t: &mut Tracer) {
    let dir = dir.join("durability-probe");
    let result = (|| -> ivm::prelude::Result<()> {
        let mut mgr = ViewManager::open_with_policy(&dir, DurabilityPolicy::WalOnly)?;
        build(&mut mgr)?;
        let quarter = txns.len().div_ceil(4).max(1);
        let mut ckpt_ns = Vec::new();
        for (i, chunk) in txns.chunks(quarter).enumerate() {
            for txn in chunk {
                mgr.execute(txn)?;
            }
            if i < 3 {
                let (res, ns) = t.time("probe.checkpoint", i as u64, || mgr.checkpoint());
                res?;
                ckpt_ns.push(ns);
            }
        }
        let digest = digest_of(&mgr)?;
        drop(mgr);
        let (recovered, ns) = t.time("probe.recover", 0, || ViewManager::open(&dir));
        let recovered = recovered?;
        let records = recovered
            .recovery_report()
            .map_or(0, |r| r.wal_records_replayed);
        if digest_of(&recovered)? != digest {
            m.problem("durability probe: recovered views differ from the state before the restart");
        }
        m.layer("checkpoint.ms", median_ns(&ckpt_ns) / 1e6, "ms");
        m.layer("recovery.ms", ns as f64 / 1e6, "ms");
        m.layer("recovery.us_per_record", ratio(ns as f64 / 1e3, records as f64), "us");
        Ok(())
    })();
    if let Err(e) = result {
        m.problem(format!("durability probe: {e}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Digest of every user view, as a serving snapshot computes it.
pub fn views_digest(mgr: &ViewManager) -> Result<u64, String> {
    digest_of(mgr).map_err(|e| e.to_string())
}
