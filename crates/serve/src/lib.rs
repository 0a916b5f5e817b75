//! Concurrent serving layer for the IVM engine.
//!
//! The 1986 paper's setting is a view maintained *inside* the database;
//! this crate puts that engine behind a network front end with the
//! concurrency contract a serving system needs:
//!
//! * [`server`] — a TCP server whose session threads run writes **one at
//!   a time under one lock** on the [`ivm::prelude::ViewManager`] and
//!   serve **snapshot-isolated reads**: every query resolves against an
//!   immutable [`ivm::snapshot::ViewSnapshot`] published atomically at a
//!   commit boundary. A read takes the snapshot lock only to clone an
//!   `Arc`, so it never waits on maintenance and never observes a
//!   half-applied transaction.
//! * [`protocol`] — the length-prefixed, CRC32-framed wire format
//!   (reusing [`ivm_storage::frame`], so torn connections surface as
//!   typed errors, and the storage [`ivm_storage::Codec`] for payloads).
//! * [`client`] — a blocking client, used by the shell's `\connect`,
//!   the load generator and the tests.
//! * [`loadgen`] — a closed-loop, seeded load generator
//!   ([`ivm_sim::ClientOpStream`] streams) reporting QPS and exact
//!   p50/p99 latency; the `serve_qps` bench and the CI smoke job run it.
//! * [`scenario`] — the canonical three-relation / three-view demo
//!   schema those harnesses share.
//!
//! See `docs/SERVING.md` for the architecture, the wire format, and the
//! isolation guarantees (and how they are tested).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod error;
pub mod loadgen;
pub mod protocol;
pub mod scenario;
pub mod server;

pub use client::Client;
pub use error::{Result, ServeError};
pub use loadgen::{LoadOptions, LoadReport};
pub use protocol::{Request, Response, PROTOCOL_VERSION};
pub use server::Server;
