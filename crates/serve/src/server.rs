//! The TCP server: writes run one at a time on the session threads,
//! reads are snapshot-isolated.
//!
//! Concurrency model (the tentpole invariant):
//!
//! * **One write at a time.** The [`ViewManager`] sits behind one
//!   `std::sync::Mutex`. A session runs each write request (transaction,
//!   refresh, DDL) on its own thread while holding that lock, so writes
//!   are serial and the maintenance path is exactly the single-threaded
//!   engine the simulation harness verifies. A write that panics poisons
//!   the lock: it and every later write answer `writer unavailable`, and
//!   [`Server::stop`] returns an error instead of a half-applied manager.
//! * **Many readers.** Each client connection gets a session thread with
//!   its own [`SnapshotHandle`]. Reads resolve against the latest
//!   *published* [`ivm::snapshot::ViewSnapshot`] — an immutable,
//!   atomically-swapped image of every view at a commit boundary. A read
//!   never takes the manager lock, and since `execute` publishes before
//!   the lock is released, can never observe a half-applied transaction.
//!
//! Shutdown is cooperative: a [`Request::Shutdown`] (or
//! [`Server::stop`]) flips a flag, unblocks the accept loop with a
//! self-connection, and shuts down every session socket so blocked
//! reads return immediately. [`Server::stop`] then joins everything and
//! takes the [`ViewManager`] back out of its lock for the caller.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ivm::prelude::ViewManager;
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

/// Shared shutdown machinery: the flag, the listener address (for the
/// self-connect that unblocks `accept`), and a clone of every open
/// session socket, keyed by session id (shut down so blocked reads
/// return; each session removes its own when it ends).
struct Control {
    addr: SocketAddr,
    stopping: AtomicBool,
    conns: Mutex<HashMap<usize, TcpStream>>,
}

impl Control {
    fn begin_stop(&self) {
        if self.stopping.swap(true, SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        for conn in self.conns.lock().values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    /// Keep `conn` so `begin_stop` can wake session `id`; false once
    /// stopping. The flag is read under the lock `begin_stop` takes after
    /// setting it, so no socket registers unseen by the shutdown sweep.
    fn register(&self, id: usize, conn: TcpStream) -> bool {
        let mut conns = self.conns.lock();
        if self.stopping.load(SeqCst) {
            return false;
        }
        conns.insert(id, conn);
        true
    }
}

/// Everything a session thread needs, shared across sessions.
struct Ctx {
    /// Writes lock it; poisoned once a write panics mid-flight.
    manager: std::sync::Mutex<ViewManager>,
    hub: SnapshotHub,
    obs: Obs,
    recorder: Arc<InMemoryRecorder>,
    control: Control,
}

/// A running serving engine. Dropping without [`Server::stop`] leaks the
/// background threads until process exit — tests and the binary both go
/// through `stop`/[`Server::join`].
pub struct Server {
    ctx: Arc<Ctx>,
    /// Yields the handles of the sessions it started and has not reaped.
    accept_handle: thread::JoinHandle<Vec<thread::JoinHandle<()>>>,
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
        let listener = TcpListener::bind(addr)?;
        let ctx = Arc::new(Ctx {
            hub: manager.snapshots(),
            manager: std::sync::Mutex::new(manager),
            obs: Obs::new(tee),
            recorder,
            control: Control {
                addr: listener.local_addr()?,
                stopping: AtomicBool::new(false),
                conns: Mutex::new(HashMap::new()),
            },
        });

        let accept_ctx = ctx.clone();
        let accept_handle = thread::Builder::new()
            .name("ivm-serve-accept".into())
            .spawn(move || {
                let control = &accept_ctx.control;
                let mut sessions: Vec<thread::JoinHandle<()>> = Vec::new();
                for (id, incoming) in listener.incoming().enumerate() {
                    if control.stopping.load(SeqCst) {
                        break;
                    }
                    let Ok(stream) = incoming else { continue };
                    // Without a clone to shut down, `begin_stop` could
                    // never wake this session: refuse the connection.
                    let Ok(clone) = stream.try_clone() else {
                        continue;
                    };
                    if !control.register(id, clone) {
                        break;
                    }
                    let ctx = accept_ctx.clone();
                    let spawned = thread::Builder::new()
                        .name("ivm-serve-session".into())
                        .spawn(move || run_session(stream, id, ctx));
                    match spawned {
                        Ok(handle) => {
                            sessions.retain(|h| !h.is_finished());
                            sessions.push(handle);
                        }
                        Err(_) => drop(control.conns.lock().remove(&id)),
                    }
                }
                sessions
            })?;

        Ok(Server {
            ctx,
            accept_handle,
            jsonl,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.ctx.control.addr
    }

    /// The snapshot hub — in-process readers can watch the same
    /// publication stream the sessions serve from.
    pub fn hub(&self) -> SnapshotHub {
        self.ctx.hub.clone()
    }

    /// Point-in-time metric snapshot (engine + `serve.*`).
    pub fn stats(&self) -> ivm_obs::Snapshot {
        self.ctx.recorder.snapshot()
    }

    /// True once a shutdown has been requested (by [`Server::stop`] or a
    /// client's `Shutdown` command).
    pub fn stopping(&self) -> bool {
        self.ctx.control.stopping.load(SeqCst)
    }

    /// Stop serving: unblock and join every thread, flush the JSONL
    /// recorder, and return the [`ViewManager`] in its final state.
    pub fn stop(self) -> Result<ViewManager> {
        self.ctx.control.begin_stop();
        self.finish()
    }

    /// Block until some client requests shutdown, then tear down as
    /// [`Server::stop`] does.
    pub fn join(self) -> Result<ViewManager> {
        while !self.stopping() {
            thread::sleep(Duration::from_millis(25));
        }
        self.finish()
    }

    fn finish(self) -> Result<ViewManager> {
        // Order matters: accept loop first (no new sessions), then the
        // sessions (the other holders of the context), then the manager
        // comes back out of its lock.
        let _ = TcpStream::connect(self.addr());
        for session in self.accept_handle.join().unwrap_or_default() {
            let _ = session.join();
        }
        let ctx = Arc::try_unwrap(self.ctx)
            .map_err(|_| ServeError::Protocol("a session outlived shutdown".into()))?;
        let manager = ctx.manager.into_inner().map_err(|_| {
            ServeError::Protocol("a write panicked; the manager is poisoned".into())
        })?;
        if let Some(j) = &self.jsonl {
            j.flush()?;
        }
        Ok(manager)
    }
}

fn run_session(stream: TcpStream, id: usize, ctx: Arc<Ctx>) {
    ctx.obs.add(metric::SERVE_SESSIONS_OPENED, 1);
    let _ = session_loop(stream, &ctx);
    ctx.control.conns.lock().remove(&id);
    ctx.obs.add(metric::SERVE_SESSIONS_CLOSED, 1);
}

fn session_loop(stream: TcpStream, ctx: &Ctx) -> Result<()> {
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
            dispatch(req, ctx, &snapshots)
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

/// Answer a `Query` from the latest snapshot: the `Rows` payload is
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

/// Run one write under the manager lock and render its outcome: an
/// engine error becomes its message, a panic or a lock some earlier
/// write poisoned becomes `writer unavailable`. The manager's spans are
/// recorded as roots, the same paths an embedded manager records.
fn write<T>(
    ctx: &Ctx,
    op: impl FnOnce(&mut ViewManager) -> ivm::prelude::Result<T>,
    done: impl FnOnce(T) -> Response,
) -> Response {
    // The guard drops inside the unwind boundary, so a panicking write
    // poisons the lock on its way out.
    let ran = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut mgr = ctx.manager.lock().ok()?;
        Some(ctx.obs.detached(|| op(&mut mgr)))
    }));
    match ran {
        Ok(Some(Ok(out))) => done(out),
        Ok(Some(Err(e))) => remote_err(e.to_string()),
        Ok(None) | Err(_) => remote_err("writer unavailable"),
    }
}

/// Serve one request; returns the encoded response payload.
fn dispatch(req: Request, ctx: &Ctx, snapshots: &SnapshotHandle) -> Vec<u8> {
    let resp = match req {
        Request::Hello { .. } => remote_err("duplicate Hello"),
        Request::Ping => Response::Pong,
        Request::Query { view } => return query(&view, ctx, snapshots),
        Request::Execute { txn } => write(
            ctx,
            |mgr| mgr.execute(&txn),
            |report| {
                ctx.obs.add(metric::SERVE_TXNS_EXECUTED, 1);
                Response::Executed {
                    views_touched: report.views_touched as u32,
                    views_maintained: report.views_maintained as u32,
                }
            },
        ),
        Request::Refresh { view } => write(ctx, |mgr| mgr.refresh(&view), |()| Response::Done),
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
        Request::CreateRelation { name, schema } => write(
            ctx,
            |mgr| mgr.create_relation(name, schema),
            |()| Response::Done,
        ),
        Request::RegisterView { name, expr, policy } => write(
            ctx,
            |mgr| mgr.register_view(name, expr, policy),
            |()| Response::Done,
        ),
        Request::Shutdown => Response::Done,
    };
    resp.encode()
}

#[cfg(test)]
mod tests {
    use ivm::prelude::{Transaction, ViewManager};

    use super::*;
    use crate::{scenario, Client};

    /// A write that panics while it holds the lock fences off the
    /// manager: it and every later write answer `writer unavailable`,
    /// reads keep serving the last published snapshot, and `stop`
    /// refuses to hand back the half-applied manager.
    #[test]
    fn a_panicking_write_fences_off_the_manager() {
        let mut mgr = ViewManager::new();
        scenario::install(&mut mgr).unwrap();
        let server = Server::start(mgr, "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        let mut txn = Transaction::new();
        txn.insert("orders", [1, 7, 80]).unwrap();
        c.execute(txn).unwrap();
        let (epoch, rows) = c.query("big_orders").unwrap();

        let unavailable = remote_err("writer unavailable");
        let panicked = write(
            &server.ctx,
            |_| -> ivm::prelude::Result<()> { panic!("write fails mid-flight") },
            |()| Response::Done,
        );
        assert_eq!(panicked, unavailable);
        assert_eq!(
            write(
                &server.ctx,
                |mgr| mgr.refresh("big_orders"),
                |()| Response::Done
            ),
            unavailable
        );
        let mut txn = Transaction::new();
        txn.insert("orders", [2, 8, 99]).unwrap();
        match c.execute(txn) {
            Err(ServeError::Remote(message)) => assert_eq!(message, "writer unavailable"),
            other => panic!("expected writer unavailable, got {other:?}"),
        }

        assert_eq!(c.query("big_orders").unwrap(), (epoch, rows));
        drop(c);
        assert!(server.stop().is_err());
    }
}
