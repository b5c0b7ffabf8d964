//! Isolation-as-a-service: the `oiso serve` daemon.
//!
//! Every other entry point in the workspace is a one-shot CLI invocation
//! that pays netlist parsing, BDD construction, and simulation from
//! scratch. This crate keeps the pipeline *resident*: a multi-threaded
//! HTTP/1.1 daemon (hand-rolled on `std::net` — the build environment is
//! offline, so no hyper/tokio) exposing the full pipeline as JSON
//! endpoints:
//!
//! | Endpoint | Method | Does |
//! |---|---|---|
//! | `/v1/isolate` | POST | Algorithm 1 (`optimize`) on a design |
//! | `/v1/lint` | POST | the OL001–OL010 rule set |
//! | `/v1/verify` | POST | per-candidate equivalence checking |
//! | `/v1/simulate` | POST | power/area/timing measurement |
//! | `/v1/batch` | POST | many of the above fanned out in one request |
//! | `/healthz` | GET | liveness probe |
//! | `/metrics` | GET | deterministic text metrics |
//!
//! Serve v2 adds: `/v1/batch` fan-out under one shared budget,
//! `"stream": true` chunked ndjson progress on `/v1/isolate` and
//! `/v1/batch` ([`http::ChunkedWriter`] tapping the checkpoint journal
//! via [`oiso_core::StepTap`]), and a disk-backed result store
//! ([`store::ResultStore`], `--store DIR`) under the in-memory LRU so
//! cached `200`s survive restarts, including a `SIGKILL`.
//!
//! One daemon is the whole topology. Process death is left to the
//! host's restart policy (systemd `Restart=`, a container runtime); the
//! store makes the restarted daemon warm. DESIGN §14 lists every
//! failure mode and the layer that absorbs it.
//!
//! Request bodies are either a flat JSON object (`{"design": "figure1",
//! "style": "latch", "cycles": 800}` — bundled-design name or inline
//! `source` text, plus config) or raw `.oiso` text with default config.
//!
//! The architecture is the tentpole:
//!
//! * **acceptor → bounded queue → worker pool**: one acceptor thread
//!   feeds accepted connections into an [`oiso_par::queue`] bounded
//!   channel drained by `--threads` workers; a full queue *sheds load*
//!   with `503` + `Retry-After` instead of buffering unboundedly.
//! * **result cache**: a fingerprint-keyed, single-flight LRU
//!   ([`cache::ResultCache`]) keyed on
//!   `(endpoint, Netlist::fingerprint, StimulusPlan::fingerprint,
//!   config)` — identical design+config requests are served byte-identical
//!   bodies without re-simulating, and N concurrent identical requests
//!   compute exactly once (N−1 report as cache hits).
//! * **per-request budgets**: an `X-Oiso-Deadline-Ms` header becomes a
//!   [`oiso_core::RunBudget`] wall deadline — long isolations degrade to
//!   a well-formed `truncated: true` response, never a hung connection.
//!   Deadline-bearing requests bypass the cache (their truncation point
//!   is wall-clock dependent).
//! * **panic isolation**: each request runs under `catch_unwind`; a
//!   poisoned request returns structured `500` JSON
//!   (`{"error":{"code":"internal_panic",...}}`) and the worker survives.
//! * **graceful shutdown**: SIGTERM / ctrl-c (or
//!   [`server::ServerHandle::shutdown`]) stops accepting, drains queued
//!   and in-flight requests to completion, then flushes a final metrics
//!   line.
//! * **observability**: single-line JSON access logs and a `/metrics`
//!   text page (requests by endpoint/status, cache and sim-memo counters,
//!   queue depth, shed count, fixed-bucket latency histograms).
//!
//! Errors are total: malformed HTTP, malformed JSON, oversize payloads,
//! unknown endpoints, and unknown fields all map to structured JSON
//! errors with stable `code` fields ([`error::ApiError`]) — no panic is
//! reachable from the socket.
//!
//! [`testing::Client`] drives the real TCP path in-process (ephemeral
//! ports) so integration tests need no fixtures or fixed ports.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod error;
pub mod http;
pub mod json;
pub mod metrics;
pub mod server;
pub mod signal;
pub mod store;
pub mod testing;

pub use api::Endpoint;
pub use cache::{CacheStats, ResultCache};
pub use error::ApiError;
pub use metrics::Metrics;
pub use server::{run_daemon, Server, ServerHandle};
pub use store::{ResultStore, StoreStats};

/// Daemon configuration (`oiso serve --port P --threads T ...`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port to bind on 127.0.0.1; `0` picks an ephemeral port (the
    /// bound address is reported by [`ServerHandle::addr`]).
    pub port: u16,
    /// Worker threads draining the connection queue (`0` = all cores).
    pub threads: usize,
    /// Result-cache capacity in responses (`0` disables caching).
    pub cache_cap: usize,
    /// Bounded connection-queue capacity; a full queue sheds with `503`.
    pub queue_cap: usize,
    /// Shared simulation-memo capacity ([`oiso_sim::SimMemo`]).
    pub memo_cap: usize,
    /// Request-body cap in bytes; larger payloads get `413`.
    pub max_body: usize,
    /// Emit single-line JSON access logs to stdout.
    pub log: bool,
    /// Directory for the disk-backed result store (`--store DIR`);
    /// `None` leaves the daemon memory-only.
    pub store: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            threads: 4,
            cache_cap: 128,
            queue_cap: 64,
            memo_cap: 1024,
            max_body: 1 << 20,
            log: false,
            store: None,
        }
    }
}
