//! Serve ASRS over the wire: a dependency-free threaded HTTP/1.1 JSON
//! service over an [`AsrsEngine`](asrs_core::AsrsEngine).
//!
//! PR 2 made queries declarative and serializable
//! ([`QueryRequest`](asrs_core::QueryRequest) /
//! [`QueryResponse`](asrs_core::QueryResponse) round-trip through JSON);
//! this crate is the process boundary that was still missing — the piece
//! that lets the engine serve many concurrent users over sockets:
//!
//! * `POST /query` — deserializes a [`QueryRequest`](asrs_core::QueryRequest),
//!   executes it through the shared engine handle (planner, budget and
//!   query-result cache included) and returns the
//!   [`QueryResponse`](asrs_core::QueryResponse) as JSON.  Engine errors map
//!   to proper statuses: 408 for a spent
//!   [`budget`](asrs_core::QueryRequest::with_budget_ms), 400 for anything
//!   the client phrased wrong, 500 for engine-internal failures.
//! * `GET /explain` — runs the cost-based planner without executing and
//!   reports the chosen backend, the reason, and the work estimates (the
//!   request travels in the body, like `/query`).
//! * `POST /append` — appends a spatial object (optionally TTL'd via
//!   `ttl_ms`) to the live engine, returning the
//!   [`MutationReceipt`](asrs_core::MutationReceipt) with the new
//!   generation; 409 for a duplicate id, 400 for a schema violation.
//! * `DELETE /objects/{id}` — removes an object by id (404 when absent).
//! * `POST /sweep` — expires every TTL'd object whose deadline passed.
//!   A background maintenance thread also sweeps on a configurable
//!   cadence ([`ServerConfig::sweep_interval`]), so TTL'd objects expire
//!   without any client driving `/sweep`.
//! * `POST /snapshot` — persists the engine's current generation
//!   immediately when the server was started with a persistence handle
//!   ([`AsrsServer::with_persistence`]); 409 otherwise.  The maintenance
//!   thread also snapshots automatically once the write-ahead log outgrows
//!   its compaction threshold.
//! * `GET /metrics` — request counters, cache hit/miss counters, the
//!   engine generation with its mutation counters, sweeper and
//!   persistence counters, and the merged
//!   [`SearchStats`](asrs_core::SearchStats) of every query served.
//! * `GET /healthz` — liveness.
//!
//! Queries that arrive without a budget can be given a server-side one
//! ([`ServerConfig::query_deadline`]), turning pathologically slow
//! requests into 408 responses instead of pinned pool workers.
//!
//! ```no_run
//! use asrs_core::AsrsEngine;
//! use asrs_server::{AsrsServer, ServerConfig};
//! # fn engine() -> AsrsEngine { unimplemented!() }
//!
//! let engine = engine();
//! let server = AsrsServer::bind(engine.handle(), "127.0.0.1:0", ServerConfig::default())
//!     .and_then(AsrsServer::start)
//!     .unwrap();
//! println!("serving on http://{}", server.addr());
//! // ... traffic ...
//! server.shutdown();
//! ```
//!
//! The implementation is deliberately `std`-only (`TcpListener` + a bounded
//! worker pool, in the style of the engine's batch workers): no async
//! runtime to vendor, no framework to audit, and the whole serving path
//! stays debuggable with a thread dump.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod http;
mod metrics;
mod server;

pub use http::HttpClient;
pub use metrics::{
    CacheSnapshot, HistogramSnapshot, MetricsSnapshot, ShardsSnapshot, SweeperSnapshot,
};
pub use server::{status_for, AsrsServer, ServerConfig, ServerHandle};
