//! The wire protocol: length-prefixed, CRC32-framed binary messages.
//!
//! Every message — requests and responses alike — is one storage-layer
//! frame ([`ivm_storage::frame`]): `[len u32 LE][crc32 u32 LE][payload]`.
//! The payload is a tag byte followed by fields encoded with the same
//! [`Codec`] the WAL and checkpoints use, so relations, transactions and
//! view expressions travel in exactly the bytes they persist in. The
//! frame layer gives the server torn-connection detection for free: a
//! client dying mid-frame surfaces as a typed
//! [`ivm_storage::StorageError::TornFrame`], never a hang or a garbled
//! decode.
//!
//! A connection opens with a [`Request::Hello`] carrying the magic and
//! protocol version; the server answers [`Response::Hello`] and the
//! session is live. See `docs/SERVING.md` for the full frame layout and
//! command catalog.
//!
//! This module is an `ivm-lint` hot path: decoding is total (typed
//! errors, bounded allocation, no panics) exactly like the storage codec
//! it builds on.

use std::io::{Read, Write};

use ivm::prelude::RefreshPolicy;
use ivm_relational::expr::SpjExpr;
use ivm_relational::relation::Relation;
use ivm_relational::schema::Schema;
use ivm_relational::transaction::Transaction;
use ivm_storage::frame::{read_frame, write_frame};
use ivm_storage::{ByteReader, Codec, StorageError};

use crate::error::{Result, ServeError};

/// Protocol magic, first field of every [`Request::Hello`]: `"IVMS"`.
pub const MAGIC: [u8; 4] = *b"IVMS";

/// Protocol version spoken by this build. Bump on any wire change.
pub const PROTOCOL_VERSION: u32 = 1;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn policy_from_u8(b: u8) -> std::result::Result<RefreshPolicy, StorageError> {
    RefreshPolicy::from_byte(b)
        .ok_or_else(|| StorageError::Corrupt(format!("bad refresh policy byte {b:#04x}")))
}

/// One client request. Tags are stable wire bytes; add variants at the
/// end only.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: must be the first frame on a connection.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Liveness probe.
    Ping,
    /// Read one view from the session's current snapshot.
    Query {
        /// View name.
        view: String,
    },
    /// Apply a write transaction through the maintenance pipeline.
    Execute {
        /// The transaction (validated server-side).
        txn: Transaction,
    },
    /// Fold pending changes into a deferred view.
    Refresh {
        /// View name.
        view: String,
    },
    /// Render the server's metric snapshot as text.
    Stats,
    /// List registered view names.
    ListViews,
    /// The server's current publication epoch.
    Epoch,
    /// Digest of the session's current snapshot (isolation checks).
    Digest,
    /// Create a base relation.
    CreateRelation {
        /// Relation name.
        name: String,
        /// Its schema.
        schema: Schema,
    },
    /// Register an SPJ view.
    RegisterView {
        /// View name.
        name: String,
        /// Defining expression.
        expr: SpjExpr,
        /// Refresh policy.
        policy: RefreshPolicy,
    },
    /// Ask the server to shut down gracefully.
    Shutdown,
}

const REQ_HELLO: u8 = 0;
const REQ_PING: u8 = 1;
const REQ_QUERY: u8 = 2;
const REQ_EXECUTE: u8 = 3;
const REQ_REFRESH: u8 = 4;
const REQ_STATS: u8 = 5;
const REQ_LIST_VIEWS: u8 = 6;
const REQ_EPOCH: u8 = 7;
const REQ_DIGEST: u8 = 8;
const REQ_CREATE_RELATION: u8 = 9;
const REQ_REGISTER_VIEW: u8 = 10;
const REQ_SHUTDOWN: u8 = 11;

impl Codec for Request {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Hello { version } => {
                out.push(REQ_HELLO);
                out.extend_from_slice(&MAGIC);
                out.extend_from_slice(&version.to_le_bytes());
            }
            Request::Ping => out.push(REQ_PING),
            Request::Query { view } => {
                out.push(REQ_QUERY);
                put_str(out, view);
            }
            Request::Execute { txn } => {
                out.push(REQ_EXECUTE);
                txn.encode_into(out);
            }
            Request::Refresh { view } => {
                out.push(REQ_REFRESH);
                put_str(out, view);
            }
            Request::Stats => out.push(REQ_STATS),
            Request::ListViews => out.push(REQ_LIST_VIEWS),
            Request::Epoch => out.push(REQ_EPOCH),
            Request::Digest => out.push(REQ_DIGEST),
            Request::CreateRelation { name, schema } => {
                out.push(REQ_CREATE_RELATION);
                put_str(out, name);
                schema.encode_into(out);
            }
            Request::RegisterView { name, expr, policy } => {
                out.push(REQ_REGISTER_VIEW);
                put_str(out, name);
                expr.encode_into(out);
                out.push(policy.to_byte());
            }
            Request::Shutdown => out.push(REQ_SHUTDOWN),
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> std::result::Result<Self, StorageError> {
        match r.u8()? {
            REQ_HELLO => {
                let mut magic = [0u8; 4];
                for b in &mut magic {
                    *b = r.u8()?;
                }
                if magic != MAGIC {
                    return Err(StorageError::Corrupt(format!(
                        "bad protocol magic {magic:02x?}"
                    )));
                }
                Ok(Request::Hello { version: r.u32()? })
            }
            REQ_PING => Ok(Request::Ping),
            REQ_QUERY => Ok(Request::Query { view: r.str()? }),
            REQ_EXECUTE => Ok(Request::Execute {
                txn: Transaction::decode_from(r)?,
            }),
            REQ_REFRESH => Ok(Request::Refresh { view: r.str()? }),
            REQ_STATS => Ok(Request::Stats),
            REQ_LIST_VIEWS => Ok(Request::ListViews),
            REQ_EPOCH => Ok(Request::Epoch),
            REQ_DIGEST => Ok(Request::Digest),
            REQ_CREATE_RELATION => Ok(Request::CreateRelation {
                name: r.str()?,
                schema: Schema::decode_from(r)?,
            }),
            REQ_REGISTER_VIEW => Ok(Request::RegisterView {
                name: r.str()?,
                expr: SpjExpr::decode_from(r)?,
                policy: policy_from_u8(r.u8()?)?,
            }),
            REQ_SHUTDOWN => Ok(Request::Shutdown),
            tag => Err(StorageError::Corrupt(format!(
                "unknown request tag {tag:#04x}"
            ))),
        }
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake acknowledgement.
    Hello {
        /// The version the server speaks.
        version: u32,
    },
    /// Liveness answer.
    Pong,
    /// Query result: a consistent snapshot of one view.
    Rows {
        /// Publication epoch of the snapshot served.
        epoch: u64,
        /// The view contents.
        rows: Relation,
    },
    /// A transaction committed.
    Executed {
        /// Views whose operands the transaction touched.
        views_touched: u32,
        /// Views maintained (differentially or by re-evaluation).
        views_maintained: u32,
    },
    /// A side-effecting command (refresh, DDL, shutdown) completed.
    Done,
    /// Rendered metric snapshot.
    StatsText {
        /// Human-readable metric dump.
        text: String,
    },
    /// Registered view names.
    Views {
        /// Names, sorted.
        names: Vec<String>,
    },
    /// The current publication epoch.
    EpochIs {
        /// Epoch value.
        epoch: u64,
    },
    /// Snapshot digest (isolation checks).
    DigestIs {
        /// Epoch of the digested snapshot.
        epoch: u64,
        /// FNV-1a digest of every view's contents.
        digest: u64,
    },
    /// The request failed server-side; the session stays usable.
    Error {
        /// What went wrong.
        message: String,
    },
}

const RESP_HELLO: u8 = 0;
const RESP_PONG: u8 = 1;
const RESP_ROWS: u8 = 2;
const RESP_EXECUTED: u8 = 3;
const RESP_DONE: u8 = 4;
const RESP_STATS: u8 = 5;
const RESP_VIEWS: u8 = 6;
const RESP_EPOCH: u8 = 7;
const RESP_DIGEST: u8 = 8;
const RESP_ERROR: u8 = 9;

impl Codec for Response {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Hello { version } => {
                out.push(RESP_HELLO);
                out.extend_from_slice(&version.to_le_bytes());
            }
            Response::Pong => out.push(RESP_PONG),
            Response::Rows { epoch, rows } => put_rows(out, *epoch, rows),
            Response::Executed {
                views_touched,
                views_maintained,
            } => {
                out.push(RESP_EXECUTED);
                out.extend_from_slice(&views_touched.to_le_bytes());
                out.extend_from_slice(&views_maintained.to_le_bytes());
            }
            Response::Done => out.push(RESP_DONE),
            Response::StatsText { text } => {
                out.push(RESP_STATS);
                put_str(out, text);
            }
            Response::Views { names } => {
                out.push(RESP_VIEWS);
                out.extend_from_slice(&(names.len() as u32).to_le_bytes());
                for n in names {
                    put_str(out, n);
                }
            }
            Response::EpochIs { epoch } => {
                out.push(RESP_EPOCH);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            Response::DigestIs { epoch, digest } => {
                out.push(RESP_DIGEST);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&digest.to_le_bytes());
            }
            Response::Error { message } => {
                out.push(RESP_ERROR);
                put_str(out, message);
            }
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> std::result::Result<Self, StorageError> {
        match r.u8()? {
            RESP_HELLO => Ok(Response::Hello { version: r.u32()? }),
            RESP_PONG => Ok(Response::Pong),
            RESP_ROWS => Ok(Response::Rows {
                epoch: r.u64()?,
                rows: Relation::decode_from(r)?,
            }),
            RESP_EXECUTED => Ok(Response::Executed {
                views_touched: r.u32()?,
                views_maintained: r.u32()?,
            }),
            RESP_DONE => Ok(Response::Done),
            RESP_STATS => Ok(Response::StatsText { text: r.str()? }),
            RESP_VIEWS => {
                let n = r.u32()? as usize;
                r.check_count(n, 4)?;
                let mut names = Vec::with_capacity(n);
                for _ in 0..n {
                    names.push(r.str()?);
                }
                Ok(Response::Views { names })
            }
            RESP_EPOCH => Ok(Response::EpochIs { epoch: r.u64()? }),
            RESP_DIGEST => Ok(Response::DigestIs {
                epoch: r.u64()?,
                digest: r.u64()?,
            }),
            RESP_ERROR => Ok(Response::Error { message: r.str()? }),
            tag => Err(StorageError::Corrupt(format!(
                "unknown response tag {tag:#04x}"
            ))),
        }
    }
}

/// Append the payload of a [`Response::Rows`] for `rows` at `epoch`. The
/// one `Rows` encoder: the server writes a query answer with it straight
/// from a borrowed snapshot relation, without building a `Response`.
pub fn put_rows(out: &mut Vec<u8>, epoch: u64, rows: &Relation) {
    out.push(RESP_ROWS);
    out.extend_from_slice(&epoch.to_le_bytes());
    rows.encode_into(out);
}

/// Write one message as a frame and flush it.
pub fn send(w: &mut impl Write, msg: &impl Codec) -> Result<()> {
    send_payload(w, &msg.encode())
}

/// Write an already encoded message payload as a frame and flush it.
pub fn send_payload(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    write_frame(w, payload)?;
    w.flush().map_err(ServeError::Io)?;
    Ok(())
}

/// Read the next message. `Ok(None)` is a clean end of stream (the peer
/// closed between frames); a peer dying mid-frame is a typed
/// [`StorageError::TornFrame`] error.
pub fn recv<T: Codec>(r: &mut impl Read) -> Result<Option<T>> {
    match read_frame(r, 0)? {
        None => Ok(None),
        Some(payload) => Ok(Some(T::decode(&payload)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_relational::predicate::Atom;
    use ivm_relational::tuple::Tuple;
    use ivm_relational::value::Value;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
        let mut buf = Vec::new();
        send(&mut buf, v).unwrap();
        let got: T = recv(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(&got, v);
    }

    #[test]
    fn requests_roundtrip() {
        let mut txn = Transaction::new();
        txn.insert("R", [1, 2]).unwrap();
        txn.delete("R", [3, 4]).unwrap();
        let reqs = [
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Ping,
            Request::Query { view: "v".into() },
            Request::Execute { txn },
            Request::Refresh { view: "w".into() },
            Request::Stats,
            Request::ListViews,
            Request::Epoch,
            Request::Digest,
            Request::CreateRelation {
                name: "R".into(),
                schema: Schema::new(["A", "B"]).unwrap(),
            },
            Request::RegisterView {
                name: "v".into(),
                expr: SpjExpr::new(["R"], Atom::lt_const("A", 10).into(), None),
                policy: RefreshPolicy::OnDemand,
            },
            Request::Shutdown,
        ];
        for r in &reqs {
            roundtrip(r);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let mut rel = Relation::empty(Schema::new(["A"]).unwrap());
        rel.insert(Tuple::from([7]), 2).unwrap();
        let resps = [
            Response::Hello { version: 1 },
            Response::Pong,
            Response::Rows {
                epoch: 42,
                rows: rel,
            },
            Response::Executed {
                views_touched: 3,
                views_maintained: 2,
            },
            Response::Done,
            Response::StatsText {
                text: "counters:\n  a 1\n".into(),
            },
            Response::Views {
                names: vec!["a".into(), "b".into()],
            },
            Response::EpochIs { epoch: 9 },
            Response::DigestIs {
                epoch: 9,
                digest: 0xDEAD_BEEF,
            },
            Response::Error {
                message: "unknown view zzz".into(),
            },
        ];
        for r in &resps {
            roundtrip(r);
        }
    }

    #[test]
    fn borrowed_rows_write_the_same_frame_as_a_rows_response() {
        let mut rel = Relation::empty(Schema::new(["A", "B"]).unwrap());
        for i in [5i64, -3, 9, 0] {
            rel.insert(Tuple::from([i, i * 10]), (i.unsigned_abs() % 3) + 1)
                .unwrap();
        }
        rel.insert(Tuple::new(vec![Value::str("x"), Value::Int(1)]), 1)
            .unwrap();
        let mut owned = Vec::new();
        send(
            &mut owned,
            &Response::Rows {
                epoch: 7,
                rows: rel.clone(),
            },
        )
        .unwrap();
        let mut payload = Vec::new();
        put_rows(&mut payload, 7, &rel);
        let mut borrowed = Vec::new();
        send_payload(&mut borrowed, &payload).unwrap();
        assert_eq!(borrowed, owned);
    }

    #[test]
    fn bad_magic_and_bad_tags_are_typed_errors() {
        let mut buf = Vec::new();
        buf.push(REQ_HELLO);
        buf.extend_from_slice(b"NOPE");
        buf.extend_from_slice(&1u32.to_le_bytes());
        assert!(Request::decode(&buf).is_err());
        assert!(Request::decode(&[0xEE]).is_err());
        assert!(Response::decode(&[0xEE]).is_err());
        // Bad policy byte.
        let mut buf = Vec::new();
        Request::RegisterView {
            name: "v".into(),
            expr: SpjExpr::new(["R"], Atom::lt_const("A", 10).into(), None),
            policy: RefreshPolicy::Immediate,
        }
        .encode_into(&mut buf);
        let last = buf.len() - 1;
        buf[last] = 9;
        assert!(Request::decode(&buf).is_err());
    }

    #[test]
    fn torn_frame_is_detected_not_hung() {
        let mut buf = Vec::new();
        send(&mut buf, &Request::Query { view: "v".into() }).unwrap();
        let torn = &buf[..buf.len() - 2];
        match recv::<Request>(&mut &torn[..]) {
            Err(ServeError::Storage(StorageError::TornFrame { .. })) => {}
            other => panic!("expected torn frame, got {other:?}"),
        }
    }
}
