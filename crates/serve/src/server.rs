//! The daemon: acceptor → bounded queue → worker pool.
//!
//! One acceptor thread blocks on the listener and feeds
//! accepted connections into an [`oiso_par::queue`] bounded channel; a
//! full queue is answered immediately with `503` + `Retry-After`
//! (load shedding) rather than buffering without bound. `--threads`
//! workers drain the queue; each request runs under `catch_unwind`, so
//! a panicking handler produces a structured `500` and the worker
//! lives on — the same fault-isolation discipline as
//! [`oiso_par::parallel_map_isolated`], applied to connections.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] (which
//! [`run_daemon`] calls on SIGTERM / ctrl-c) latches the shutdown flag
//! and wakes the acceptor with one connection of its own; the acceptor
//! drops whatever it accepts once the flag is up, stops accepting and
//! drops its queue sender; the closed
//! queue lets the workers finish every already-accepted connection and
//! exit, and [`ServerHandle::shutdown`] joins them all before
//! returning the final metrics page.

use crate::api::{self, ApiRequest, BatchRequest, Endpoint};
use crate::cache::{CacheRole, ResultCache};
use crate::error::ApiError;
use crate::http::{ChunkedWriter, Request, Response};
use crate::json::JsonObj;
use crate::metrics::Metrics;
use crate::store::ResultStore;
use crate::{signal, ServeConfig};
use oiso_par::queue::{bounded, Receiver, TrySendError};
use oiso_par::{panic_payload_text, resolve_threads};
use oiso_sim::SimMemo;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// How long a worker waits for a slow client before giving up on the
/// read with `408`.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Everything the acceptor, workers, and handle share.
struct Shared {
    config: ServeConfig,
    cache: ResultCache,
    metrics: Metrics,
    memo: SimMemo,
    /// The durable result tier under the LRU (`--store DIR`).
    store: Option<ResultStore>,
    /// Resolved worker count — the acceptor computes `Retry-After`
    /// hints from it when shedding.
    workers: usize,
    /// Local latch ORed with the process-wide [`signal`] latch, so both
    /// programmatic shutdown and SIGTERM drive the same drain path.
    stop: AtomicBool,
    /// A receiver kept only for depth sampling on `/metrics`.
    depth: Receiver<TcpStream>,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || signal::requested()
    }

    fn metrics_page(&self) -> String {
        let store_stats = self.store.as_ref().map(|s| s.stats());
        self.metrics.render(
            &self.cache.stats(),
            &self.memo.stats(),
            self.depth.len(),
            store_stats.as_ref(),
        )
    }
}

/// Constructor namespace for the daemon (see [`Server::spawn`]).
pub struct Server;

impl Server {
    /// Binds `127.0.0.1:port` (`port = 0` for an ephemeral port) and
    /// starts the acceptor and worker threads.
    ///
    /// # Errors
    ///
    /// Only for bind failures; everything after the bind is reported
    /// per-request, not here.
    pub fn spawn(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let workers = resolve_threads(config.threads);
        let (sender, receiver) = bounded::<TcpStream>(config.queue_cap);
        let store = match &config.store {
            Some(dir) => Some(ResultStore::open(dir)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            cache: ResultCache::new(config.cache_cap),
            metrics: Metrics::new(),
            memo: SimMemo::with_capacity(config.memo_cap),
            store,
            workers,
            stop: AtomicBool::new(false),
            depth: receiver.clone(),
            config,
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("oiso-serve-acceptor".into())
                .spawn(move || {
                    // `sender` moves in here; dropping it on exit closes
                    // the queue and releases the workers.
                    let sender = sender;
                    loop {
                        let accepted = listener.accept();
                        if shared.stopping() {
                            // The shutdown wake-up, or a client that
                            // arrived after shutdown began: dropped.
                            break;
                        }
                        // Transient accept errors (ECONNABORTED etc.)
                        // affect one connection, not the daemon.
                        let Ok((stream, _)) = accepted else {
                            continue;
                        };
                        match sender.try_send(stream) {
                            Ok(()) => {}
                            Err(TrySendError::Full(stream)) => {
                                shared.metrics.record_shed();
                                reject(
                                    stream,
                                    ApiError::overloaded(shared.depth.len(), shared.workers),
                                );
                            }
                            Err(TrySendError::Closed(stream)) => {
                                reject(stream, ApiError::shutting_down());
                            }
                        }
                    }
                })?
        };

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let receiver = receiver.clone();
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("oiso-serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(stream) = receiver.recv() {
                            handle_connection(stream, &shared);
                        }
                    })?,
            );
        }
        drop(receiver);

        Ok(ServerHandle {
            addr,
            shared,
            acceptor,
            workers: worker_handles,
        })
    }
}

/// A running daemon: its address and the means to drain it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (ephemeral ports resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current metrics page (what `GET /metrics` serves).
    pub fn metrics_page(&self) -> String {
        self.shared.metrics_page()
    }

    /// Stops accepting, drains every queued and in-flight request to
    /// completion, joins all threads, and returns the final metrics
    /// page.
    pub fn shutdown(self) -> String {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor from its blocking accept: it drops this
        // connection, exits and drops the only sender; the closed queue
        // releases the workers once it is drained.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
        self.shared.metrics_page()
    }
}

/// Best-effort error reply from the acceptor thread (shedding path):
/// the client gets the structured 503 without occupying queue space.
fn reject(mut stream: TcpStream, error: ApiError) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = error.to_response().write_to(&mut stream);
    // Drain the unread request until the client hangs up (bounded by
    // the read timeout): closing a socket with unread inbound data
    // RSTs the connection, which would destroy the 503 in flight.
    let mut discard = [0u8; 4096];
    for _ in 0..64 {
        match std::io::Read::read(&mut stream, &mut discard) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// What [`dispatch`] decided to do with a routed request.
enum Dispatched {
    /// An ordinary buffered response.
    Full(&'static str, Response, Option<CacheRole>),
    /// A `"stream": true` request — the worker takes over the socket
    /// and writes chunked ndjson events.
    Stream(StreamJob),
}

/// The two streamable request shapes.
enum StreamJob {
    Isolate(Box<ApiRequest>),
    Batch(BatchRequest),
}

impl StreamJob {
    fn label(&self) -> &'static str {
        match self {
            StreamJob::Isolate(_) => Endpoint::Isolate.label(),
            StreamJob::Batch(_) => Endpoint::Batch.label(),
        }
    }
}

/// One connection, end to end: read, route, execute (under
/// `catch_unwind`), respond, record.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let start = Instant::now();
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "-".to_string());
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));

    let (method, path, dispatched) = match Request::read(&mut stream, shared.config.max_body) {
        Err(e) => (
            "-".to_string(),
            "-".to_string(),
            Dispatched::Full("invalid", e.to_response(), None),
        ),
        Ok(req) => {
            let dispatched = dispatch(&req, shared);
            (req.method, req.path, dispatched)
        }
    };

    let (label, status, role, write_ok) = match dispatched {
        Dispatched::Full(label, mut response, role) => {
            if let Some(role) = role {
                response
                    .extra_headers
                    .push(("X-Oiso-Cache".to_string(), role.label().to_string()));
            }
            let write_ok = response.write_to(&mut stream).is_ok();
            (label, response.status, role, write_ok)
        }
        Dispatched::Stream(job) => {
            let label = job.label();
            let write_ok = stream_connection(stream, shared, job);
            // The head (a 200) is written before any event; failures
            // after that point are per-event, not a status.
            (label, 200, Some(CacheRole::Bypass), write_ok)
        }
    };
    let elapsed_ms = start.elapsed().as_millis() as u64;
    shared.metrics.record_for_label(label, status, elapsed_ms);
    if shared.config.log {
        let ts = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut line = JsonObj::new();
        line.int("ts_ms", ts)
            .str("peer", &peer)
            .str("method", &method)
            .str("path", &path)
            .str("endpoint", label)
            .int("status", u64::from(status))
            .int("ms", elapsed_ms)
            .str("cache", role.map_or("-", CacheRole::label))
            .bool("write_ok", write_ok);
        println!("{}", line.finish());
    }
}

/// Serves one streaming request: writes the chunked head, hands the
/// socket to the api-layer streamer under `catch_unwind`, and always
/// terminates the chunk stream. Returns whether the head write
/// succeeded.
fn stream_connection(stream: TcpStream, shared: &Shared, job: StreamJob) -> bool {
    let headers = [("X-Oiso-Cache".to_string(), "bypass".to_string())];
    let writer = match ChunkedWriter::start(stream, 200, "application/x-ndjson", &headers) {
        Ok(writer) => Arc::new(Mutex::new(writer)),
        Err(_) => return false,
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &job {
        StreamJob::Isolate(req) => api::stream_isolate(req, &shared.memo, &writer),
        StreamJob::Batch(batch) => {
            let summary = api::stream_batch(
                batch,
                &shared.memo,
                &shared.cache,
                shared.store.as_ref(),
                &writer,
            );
            shared.metrics.record_batch_items("ok", summary.batch_ok);
            shared
                .metrics
                .record_batch_items("error", summary.batch_error);
            shared.metrics.record_batch_items("shed", summary.batch_shed);
            summary
        }
    }));
    let events = match outcome {
        Ok(summary) => summary.events,
        Err(payload) => {
            shared.metrics.record_panic();
            // The stream is already a 200; the only honest way to fail
            // now is a structured terminal event.
            let error = ApiError::internal_panic(panic_payload_text(&payload));
            let mut obj = JsonObj::new();
            obj.str("event", "error")
                .str("code", error.code)
                .str("message", &error.message);
            let mut line = obj.finish();
            line.push('\n');
            if let Ok(mut w) = writer.lock() {
                let _ = w.chunk(line.as_bytes());
                let _ = w.finish();
            }
            1
        }
    };
    shared.metrics.record_stream_events(events);
    true
}

/// Routes and executes one parsed request. Returns the metrics label,
/// the response, and how the result cache was involved (POST only) —
/// or the streaming job the worker should take over.
fn dispatch(req: &Request, shared: &Shared) -> Dispatched {
    let endpoint = match Endpoint::route(&req.method, &req.path) {
        Ok(endpoint) => endpoint,
        Err(e) => return Dispatched::Full("other", e.to_response(), None),
    };
    match endpoint {
        Endpoint::Healthz => {
            Dispatched::Full(endpoint.label(), Response::text(200, "ok\n"), None)
        }
        Endpoint::Metrics => Dispatched::Full(
            endpoint.label(),
            Response::text(200, shared.metrics_page()),
            None,
        ),
        Endpoint::Batch => {
            let batch = match BatchRequest::parse(req) {
                Ok(batch) => batch,
                Err(e) => return Dispatched::Full(endpoint.label(), e.to_response(), None),
            };
            if batch.stream {
                return Dispatched::Stream(StreamJob::Batch(batch));
            }
            // run_batch catches per-item panics itself; this outer
            // guard covers envelope assembly.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                api::run_batch(
                    &batch,
                    &shared.memo,
                    &shared.cache,
                    shared.store.as_ref(),
                    shared.workers,
                )
            }));
            match outcome {
                Ok(outcome) => {
                    shared.metrics.record_batch_items("ok", outcome.ok);
                    shared.metrics.record_batch_items("error", outcome.error);
                    shared.metrics.record_batch_items("shed", outcome.shed);
                    Dispatched::Full(endpoint.label(), outcome.response, None)
                }
                Err(payload) => {
                    shared.metrics.record_panic();
                    Dispatched::Full(
                        endpoint.label(),
                        ApiError::internal_panic(panic_payload_text(&payload)).to_response(),
                        None,
                    )
                }
            }
        }
        _ => {
            let parsed = match ApiRequest::parse(endpoint, req) {
                Ok(parsed) => parsed,
                Err(e) => return Dispatched::Full(endpoint.label(), e.to_response(), None),
            };
            if parsed.stream {
                return Dispatched::Stream(StreamJob::Isolate(Box::new(parsed)));
            }
            // The pipeline (and the single-flight cache around it) is
            // the only part that can panic; everything it touches is
            // either owned or poison-tolerant, so AssertUnwindSafe is
            // sound — a poisoned request is reported and dropped.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                match parsed.cache_key() {
                    Some(key) => shared.cache.get_or_compute_with_store(
                        key,
                        shared.store.as_ref(),
                        parsed.endpoint.label(),
                        || parsed.execute(&shared.memo),
                    ),
                    None => (parsed.execute(&shared.memo), CacheRole::Bypass),
                }
            }));
            match outcome {
                Ok((response, role)) => {
                    Dispatched::Full(endpoint.label(), response, Some(role))
                }
                Err(payload) => {
                    shared.metrics.record_panic();
                    Dispatched::Full(
                        endpoint.label(),
                        ApiError::internal_panic(panic_payload_text(&payload)).to_response(),
                        None,
                    )
                }
            }
        }
    }
}

/// Runs the daemon in the foreground: install signal handlers, serve
/// until SIGTERM / ctrl-c, drain, and flush the final metrics page to
/// stdout. This is `oiso serve`.
///
/// # Errors
///
/// A human-readable message if the listener cannot bind.
pub fn run_daemon(config: ServeConfig) -> Result<(), String> {
    signal::install();
    let threads = resolve_threads(config.threads);
    let handle = Server::spawn(config)
        .map_err(|e| format!("cannot bind the listener: {e}"))?;
    println!(
        "oiso-serve listening on http://{} ({} worker thread(s))",
        handle.addr(),
        threads
    );
    while !signal::requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("oiso-serve: shutdown requested; draining in-flight requests");
    let final_metrics = handle.shutdown();
    println!("oiso-serve: final metrics\n{final_metrics}");
    Ok(())
}
