#![warn(missing_docs)]
//! # sit-server — the schema-integration service
//!
//! The paper's tool served one designer at one terminal; the ROADMAP's
//! north star is a shared service many clients query concurrently (the
//! multidatabase setting of PAPERS.md). This crate puts
//! [`sit_core::Session`] behind a wire protocol:
//!
//! * [`wire`] — a hermetic JSON parser/encoder with depth and size
//!   limits (the workspace carries no external crates);
//! * [`proto`] — the request/response vocabulary: 23 verbs covering the
//!   whole session façade plus observability (`stats`, `metrics_text`,
//!   `trace_dump`, `persist_stats`), typed error codes;
//! * [`intern`] — the service-wide [`intern::SchemaTable`]: each
//!   `add_schema` DDL text is parsed once and its schemas shared by
//!   every session that registers it, live or replayed;
//! * [`store`] — a bounded [`store::SessionStore`] with per-session
//!   locking, evicting by use order (LRU) and by idle time on the
//!   service's clock (TTL);
//! * [`storage`] — the flat-file storage abstraction under the
//!   persistence layer, append-only: a real directory
//!   ([`storage::DirStorage`], file and directory fsync) and an
//!   in-memory simulation ([`storage::MemStorage`]) with an explicit
//!   durability watermark;
//! * [`persist`] — durable sessions: one server-wide write-ahead log of
//!   session-tagged, length-prefixed CRC-32 records, snapshots included
//!   (`always`/`every-n`/`never` fsync policies, group commit), and
//!   crash recovery that replays records through the service's own
//!   dispatch (`--data-dir`);
//! * [`wal`] — the log's segments, group commit, and the collection
//!   and copy-forward of segments no longer needed;
//! * [`metrics`] — lock-free per-verb counters and base-2 latency
//!   histograms (`sit-obs`), served by `stats` and, as Prometheus
//!   text, by `metrics_text`;
//! * [`service`] — transport-agnostic dispatch (never panics on
//!   malformed input), traced per request (`request` →
//!   `parse`/`dispatch`/`encode` spans plus engine spans) into a
//!   bounded ring served by `trace_dump` as Chrome trace JSON;
//! * [`transport`] — an in-memory simulated connection, a
//!   `std::io::Read + Write` stream like the TCP sockets it stands in
//!   for;
//! * [`fault`] — seeded, deterministic fault injection over any byte
//!   stream (torn frames, stalls, drops, virtual time on a shared
//!   `sit_obs::clock::ManualClock`) and any storage (torn writes, short
//!   writes, byte-offset crash points), the engine of the chaos test
//!   suites;
//! * [`server`] — TCP (`sit serve`) and stdio (`sit serve --stdio`)
//!   serving with graceful draining shutdown over any `Read + Write`
//!   stream: each TCP connection runs its requests on its own thread
//!   behind a bounded admission [`server::Gate`] that answers
//!   `overloaded` when its slots and queue are full, instead of blocking;
//! * [`client`] — the blocking client used by `sit client`, the tests,
//!   and the `loadgen` bench, with configurable timeouts and bounded
//!   jittered retry for idempotent verbs.
//!
//! ```no_run
//! use sit_server::server::{Server, ServerConfig};
//! use sit_server::client::Client;
//! use sit_server::proto::Request;
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//! let handle = server.spawn().unwrap();
//!
//! let mut client = Client::connect(addr).unwrap();
//! let opened = client.expect_ok(&Request::Open).unwrap();
//! let session = opened.get("session").and_then(|v| v.as_str()).unwrap().to_owned();
//! client.expect_ok(&Request::AddSchema {
//!     session,
//!     ddl: "schema sc1 { entity Student { Name: char key; } }".into(),
//! }).unwrap();
//! client.expect_ok(&Request::Shutdown).unwrap();
//! handle.join().unwrap();
//! ```

pub mod client;
pub mod fault;
pub mod intern;
pub mod metrics;
pub mod persist;
pub mod proto;
pub mod server;
pub mod service;
pub mod storage;
pub mod store;
pub mod transport;
pub mod wal;
pub mod wire;

pub use client::{error_code, Client, ClientConfig, RetryPolicy};
pub use intern::SchemaTable;
pub use persist::{FsyncPolicy, PersistConfig, Persistence};
pub use proto::{ErrorCode, Request, ServerError};
pub use server::{
    serve_connection, serve_stdio, Gate, PersistOptions, Server, ServerConfig, ServerHandle,
};
pub use service::Service;
pub use storage::{DirStorage, MemStorage, Storage};
pub use store::{SessionStore, StoreConfig};
pub use transport::{sim_pair, SimConn};
pub use wire::Json;
