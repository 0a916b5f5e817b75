//! The TCP server: one writer thread, many snapshot-isolated readers.
//!
//! Concurrency model (the tentpole invariant):
//!
//! * **One writer.** A dedicated thread owns the [`ViewManager`] and
//!   drains a channel of write requests (transactions, refreshes, DDL).
//!   Nothing else ever touches the manager, so the maintenance path is
//!   exactly the single-threaded engine the simulation harness verifies.
//! * **Many readers.** Each client connection gets a session thread with
//!   its own [`SnapshotHandle`]. Reads resolve against the latest
//!   *published* [`ivm::snapshot::ViewSnapshot`] — an immutable,
//!   atomically-swapped image of every view at a commit boundary. A
//!   reader never takes a lock the writer waits on, and can never
//!   observe a half-applied transaction.
//!
//! Shutdown is cooperative: a [`Request::Shutdown`] (or
//! [`Server::stop`]) flips a flag, unblocks the accept loop with a
//! self-connection, and shuts down every session socket so blocked
//! reads return immediately. [`Server::stop`] then joins everything and
//! hands the [`ViewManager`] back to the caller.

use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use ivm::prelude::{RefreshPolicy, Schema, SpjExpr, Transaction, ViewManager};
use ivm::snapshot::{SnapshotHandle, SnapshotHub};
use ivm_obs::names as metric;
use ivm_obs::{InMemoryRecorder, JsonLinesRecorder, Obs, Recorder, SpanEvent};
use ivm_storage::Codec;
use parking_lot::Mutex;

use crate::error::{Result, ServeError};
use crate::protocol::{self, Request, Response, PROTOCOL_VERSION};

/// Fan a metric stream out to several backends (always the in-memory
/// recorder behind `\stats`/[`Server::stats`], optionally a JSONL file).
struct Tee(Vec<Arc<dyn Recorder>>);

impl Recorder for Tee {
    fn add_counter(&self, name: &'static str, delta: u64) {
        for r in &self.0 {
            r.add_counter(name, delta);
        }
    }
    fn observe(&self, name: &'static str, value: u64) {
        for r in &self.0 {
            r.observe(name, value);
        }
    }
    fn record_span(&self, event: &SpanEvent) {
        for r in &self.0 {
            r.record_span(event);
        }
    }
}

/// A write request queued for the writer thread. Replies carry the
/// error already rendered: the session only forwards it to the wire.
enum WriteReq {
    Execute(
        Transaction,
        mpsc::SyncSender<std::result::Result<(u32, u32), String>>,
    ),
    Refresh(String, mpsc::SyncSender<std::result::Result<(), String>>),
    CreateRelation(
        String,
        Schema,
        mpsc::SyncSender<std::result::Result<(), String>>,
    ),
    RegisterView(
        String,
        SpjExpr,
        RefreshPolicy,
        mpsc::SyncSender<std::result::Result<(), String>>,
    ),
}

fn writer_loop(mut mgr: ViewManager, rx: mpsc::Receiver<WriteReq>, obs: Obs) -> ViewManager {
    while let Ok(req) = rx.recv() {
        match req {
            WriteReq::Execute(txn, reply) => {
                let out = mgr
                    .execute(&txn)
                    .map(|r| {
                        obs.add(metric::SERVE_TXNS_EXECUTED, 1);
                        (r.views_touched as u32, r.views_maintained as u32)
                    })
                    .map_err(|e| e.to_string());
                let _ = reply.send(out);
            }
            WriteReq::Refresh(view, reply) => {
                let _ = reply.send(mgr.refresh(&view).map_err(|e| e.to_string()));
            }
            WriteReq::CreateRelation(name, schema, reply) => {
                let _ = reply.send(mgr.create_relation(name, schema).map_err(|e| e.to_string()));
            }
            WriteReq::RegisterView(name, expr, policy, reply) => {
                let _ = reply.send(
                    mgr.register_view(name, expr, policy)
                        .map_err(|e| e.to_string()),
                );
            }
        }
    }
    mgr
}

/// Shared shutdown machinery: the flag, the listener address (for the
/// self-connect that unblocks `accept`), and a clone of every live
/// session socket (shut down so blocked reads return).
struct Control {
    addr: SocketAddr,
    stopping: AtomicBool,
    conns: Mutex<Vec<TcpStream>>,
}

impl Control {
    fn begin_stop(&self) {
        if self.stopping.swap(true, SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        for conn in self.conns.lock().iter() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

/// Everything a session thread needs, shared across sessions.
struct Ctx {
    hub: SnapshotHub,
    obs: Obs,
    recorder: Arc<InMemoryRecorder>,
    control: Arc<Control>,
}

/// A running serving engine. Dropping without [`Server::stop`] leaks the
/// background threads until process exit — tests and the binary both go
/// through `stop`/[`Server::join`].
pub struct Server {
    addr: SocketAddr,
    control: Arc<Control>,
    recorder: Arc<InMemoryRecorder>,
    hub: SnapshotHub,
    writer_tx: mpsc::Sender<WriteReq>,
    writer_handle: thread::JoinHandle<ViewManager>,
    accept_handle: thread::JoinHandle<()>,
    sessions: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
    jsonl: Option<Arc<JsonLinesRecorder>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `manager`. The manager's recorder is replaced with the server's
    /// own (in-memory, plus JSONL when [`Server::start_with_obs`] is
    /// given a path) so engine and serving metrics land in one place.
    pub fn start(manager: ViewManager, addr: &str) -> Result<Server> {
        Server::start_with_obs(manager, addr, None)
    }

    /// [`Server::start`], additionally mirroring every metric event to a
    /// JSON-lines file (the CI smoke job's artifact).
    pub fn start_with_obs(
        manager: ViewManager,
        addr: &str,
        obs_jsonl: Option<&Path>,
    ) -> Result<Server> {
        let recorder = Arc::new(InMemoryRecorder::new());
        let mut sinks: Vec<Arc<dyn Recorder>> = vec![recorder.clone()];
        let jsonl = match obs_jsonl {
            Some(path) => {
                let j = Arc::new(JsonLinesRecorder::create(path)?);
                sinks.push(j.clone());
                Some(j)
            }
            None => None,
        };
        let tee: Arc<dyn Recorder> = Arc::new(Tee(sinks));
        let manager = manager.with_recorder(tee.clone());
        let hub = manager.snapshots();
        let obs = Obs::new(tee);

        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let control = Arc::new(Control {
            addr: local,
            stopping: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let (writer_tx, writer_rx) = mpsc::channel();
        let writer_obs = obs.clone();
        let writer_handle = thread::Builder::new()
            .name("ivm-serve-writer".into())
            .spawn(move || writer_loop(manager, writer_rx, writer_obs))?;

        let ctx = Arc::new(Ctx {
            hub: hub.clone(),
            obs,
            recorder: recorder.clone(),
            control: control.clone(),
        });
        let sessions: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_sessions = sessions.clone();
        let accept_ctx = ctx.clone();
        let accept_tx = writer_tx.clone();
        let accept_handle = thread::Builder::new()
            .name("ivm-serve-accept".into())
            .spawn(move || {
                for incoming in listener.incoming() {
                    if accept_ctx.control.stopping.load(SeqCst) {
                        break;
                    }
                    let stream = match incoming {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    if let Ok(clone) = stream.try_clone() {
                        accept_ctx.control.conns.lock().push(clone);
                    }
                    let ctx = accept_ctx.clone();
                    let tx = accept_tx.clone();
                    let spawned = thread::Builder::new()
                        .name("ivm-serve-session".into())
                        .spawn(move || run_session(stream, ctx, tx));
                    if let Ok(handle) = spawned {
                        accept_sessions.lock().push(handle);
                    }
                }
            })?;

        Ok(Server {
            addr: local,
            control,
            recorder,
            hub,
            writer_tx,
            writer_handle,
            accept_handle,
            sessions,
            jsonl,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The snapshot hub — in-process readers can watch the same
    /// publication stream the sessions serve from.
    pub fn hub(&self) -> SnapshotHub {
        self.hub.clone()
    }

    /// Point-in-time metric snapshot (engine + `serve.*`).
    pub fn stats(&self) -> ivm_obs::Snapshot {
        self.recorder.snapshot()
    }

    /// True once a shutdown has been requested (by [`Server::stop`] or a
    /// client's `Shutdown` command).
    pub fn stopping(&self) -> bool {
        self.control.stopping.load(SeqCst)
    }

    /// Stop serving: unblock and join every thread, flush the JSONL
    /// recorder, and return the [`ViewManager`] in its final state.
    pub fn stop(self) -> Result<ViewManager> {
        self.control.begin_stop();
        self.finish()
    }

    /// Block until some client requests shutdown, then tear down as
    /// [`Server::stop`] does.
    pub fn join(self) -> Result<ViewManager> {
        while !self.control.stopping.load(SeqCst) {
            thread::sleep(Duration::from_millis(25));
        }
        self.finish()
    }

    fn finish(self) -> Result<ViewManager> {
        // Order matters: accept loop first (no new sessions), then the
        // sessions (they hold writer senders), then the writer (exits
        // when the last sender drops).
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_handle.join();
        loop {
            let drained: Vec<_> = std::mem::take(&mut *self.sessions.lock());
            if drained.is_empty() {
                break;
            }
            for h in drained {
                let _ = h.join();
            }
        }
        drop(self.writer_tx);
        let manager = self
            .writer_handle
            .join()
            .map_err(|_| ServeError::Protocol("writer thread panicked".into()))?;
        if let Some(j) = &self.jsonl {
            j.flush()?;
        }
        Ok(manager)
    }
}

fn run_session(stream: TcpStream, ctx: Arc<Ctx>, tx: mpsc::Sender<WriteReq>) {
    ctx.obs.add(metric::SERVE_SESSIONS_OPENED, 1);
    let _ = session_loop(stream, &ctx, &tx);
    ctx.obs.add(metric::SERVE_SESSIONS_CLOSED, 1);
}

fn session_loop(stream: TcpStream, ctx: &Ctx, tx: &mpsc::Sender<WriteReq>) -> Result<()> {
    // A response larger than the write buffer leaves in two writes; with
    // Nagle on, the second waits for the client's delayed ACK (~40 ms).
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);

    // Handshake: the first frame must be a matching Hello.
    match protocol::recv::<Request>(&mut reader) {
        Ok(None) => return Ok(()), // connected and left (or the stop self-connect)
        Ok(Some(Request::Hello { version })) if version == PROTOCOL_VERSION => {
            protocol::send(
                &mut writer,
                &Response::Hello {
                    version: PROTOCOL_VERSION,
                },
            )?;
        }
        Ok(Some(Request::Hello { version })) => {
            ctx.obs.add(metric::SERVE_PROTOCOL_ERRORS, 1);
            let msg =
                format!("protocol version mismatch: client {version}, server {PROTOCOL_VERSION}");
            let _ = protocol::send(
                &mut writer,
                &Response::Error {
                    message: msg.clone(),
                },
            );
            return Err(ServeError::Protocol(msg));
        }
        Ok(Some(_)) => {
            ctx.obs.add(metric::SERVE_PROTOCOL_ERRORS, 1);
            let msg = "expected Hello as the first message".to_string();
            let _ = protocol::send(
                &mut writer,
                &Response::Error {
                    message: msg.clone(),
                },
            );
            return Err(ServeError::Protocol(msg));
        }
        Err(e) => {
            ctx.obs.add(metric::SERVE_PROTOCOL_ERRORS, 1);
            return Err(e);
        }
    }

    let snapshots = ctx.hub.reader();
    loop {
        let req = match protocol::recv::<Request>(&mut reader) {
            Ok(None) => break, // clean disconnect
            Ok(Some(req)) => req,
            Err(e) => {
                // Torn frame, CRC mismatch, undecodable request: typed,
                // counted, and the session ends without taking the
                // server down.
                ctx.obs.add(metric::SERVE_PROTOCOL_ERRORS, 1);
                return Err(e);
            }
        };
        let stop_after = matches!(req, Request::Shutdown);
        let started = Instant::now();
        let payload = {
            let _span = ctx.obs.span(metric::SPAN_SERVE);
            dispatch(req, ctx, &snapshots, tx)
        };
        ctx.obs.add(metric::SERVE_REQUESTS, 1);
        protocol::send_payload(&mut writer, &payload)?;
        ctx.obs.observe(
            metric::SERVE_REQUEST_MICROS,
            u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
        );
        if stop_after {
            ctx.control.begin_stop();
            break;
        }
    }
    Ok(())
}

fn remote_err(message: impl Into<String>) -> Response {
    Response::Error {
        message: message.into(),
    }
}

/// Answer a `Query` from the pinned snapshot: the `Rows` payload is
/// encoded straight from the snapshot's shared relation, never a copy.
fn query(view: &str, ctx: &Ctx, snapshots: &SnapshotHandle) -> Vec<u8> {
    let snap = snapshots.latest();
    ctx.obs.observe(
        metric::SERVE_SNAPSHOT_AGE_EPOCHS,
        ctx.hub.epoch().saturating_sub(snap.epoch()),
    );
    match snap.get(view) {
        Some(rows) => {
            ctx.obs.add(metric::SERVE_ROWS_RETURNED, rows.len() as u64);
            let mut out = Vec::new();
            protocol::put_rows(&mut out, snap.epoch(), rows);
            out
        }
        None => remote_err(format!("unknown view '{view}'")).encode(),
    }
}

/// Serve one request; returns the encoded response payload.
fn dispatch(
    req: Request,
    ctx: &Ctx,
    snapshots: &SnapshotHandle,
    tx: &mpsc::Sender<WriteReq>,
) -> Vec<u8> {
    let resp = match req {
        Request::Hello { .. } => remote_err("duplicate Hello"),
        Request::Ping => Response::Pong,
        Request::Query { view } => return query(&view, ctx, snapshots),
        Request::Execute { txn } => {
            let (reply_tx, reply_rx) = mpsc::sync_channel(1);
            if tx.send(WriteReq::Execute(txn, reply_tx)).is_err() {
                return remote_err("server is shutting down").encode();
            }
            match reply_rx.recv() {
                Ok(Ok((views_touched, views_maintained))) => Response::Executed {
                    views_touched,
                    views_maintained,
                },
                Ok(Err(msg)) => remote_err(msg),
                Err(_) => remote_err("writer unavailable"),
            }
        }
        Request::Refresh { view } => {
            let (reply_tx, reply_rx) = mpsc::sync_channel(1);
            if tx.send(WriteReq::Refresh(view, reply_tx)).is_err() {
                return remote_err("server is shutting down").encode();
            }
            match reply_rx.recv() {
                Ok(Ok(())) => Response::Done,
                Ok(Err(msg)) => remote_err(msg),
                Err(_) => remote_err("writer unavailable"),
            }
        }
        Request::Stats => Response::StatsText {
            text: ctx.recorder.snapshot().to_string(),
        },
        Request::ListViews => {
            let snap = snapshots.latest();
            Response::Views {
                names: snap.names().map(str::to_string).collect(),
            }
        }
        Request::Epoch => Response::EpochIs {
            epoch: ctx.hub.epoch(),
        },
        Request::Digest => {
            let snap = snapshots.latest();
            Response::DigestIs {
                epoch: snap.epoch(),
                digest: snap.digest(),
            }
        }
        Request::CreateRelation { name, schema } => {
            let (reply_tx, reply_rx) = mpsc::sync_channel(1);
            if tx
                .send(WriteReq::CreateRelation(name, schema, reply_tx))
                .is_err()
            {
                return remote_err("server is shutting down").encode();
            }
            match reply_rx.recv() {
                Ok(Ok(())) => Response::Done,
                Ok(Err(msg)) => remote_err(msg),
                Err(_) => remote_err("writer unavailable"),
            }
        }
        Request::RegisterView { name, expr, policy } => {
            let (reply_tx, reply_rx) = mpsc::sync_channel(1);
            if tx
                .send(WriteReq::RegisterView(name, expr, policy, reply_tx))
                .is_err()
            {
                return remote_err("server is shutting down").encode();
            }
            match reply_rx.recv() {
                Ok(Ok(())) => Response::Done,
                Ok(Err(msg)) => remote_err(msg),
                Err(_) => remote_err("writer unavailable"),
            }
        }
        Request::Shutdown => Response::Done,
    };
    resp.encode()
}
