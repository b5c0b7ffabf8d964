//! The resilient fleet client: retries, circuit breakers, hedged reads.
//!
//! PR 7's [`crate::testing::RouterClient`] proved the fingerprint-hash
//! routing contract but treated every transport failure as terminal —
//! one refused connection became a `503 shard_unavailable` with no
//! second chance. This module is the production promotion of that
//! router: a [`FleetClient`] that assumes shards *will* crash, stall,
//! reset connections, and shed load, and that recovery is the client's
//! job. The failure model it defends (and the supervisor/chaos layers
//! that prove it) is DESIGN §14.
//!
//! The machinery, per shard:
//!
//! * **Transport retries** — connect failures, resets, torn responses,
//!   and garbage bytes are retried up to [`FleetPolicy::attempts`] times
//!   with exponential backoff + deterministic jitter. Every retryable
//!   outcome carries its [`std::io::ErrorKind`] through
//!   [`TransportError`] so tests (and operators) can tell a reset from
//!   a timeout.
//! * **Load-shed retries** — a structured `503` with code `overloaded`
//!   or `shutting_down` is retried honoring the server's computed
//!   `Retry-After` (the backlog-derived hint from
//!   [`crate::error::ApiError::overloaded`]), clamped to the request's
//!   remaining deadline budget.
//! * **Circuit breaker** — [`FleetPolicy::breaker_threshold`]
//!   consecutive *transport* failures open the breaker: requests to
//!   that shard fail fast (synthesized `shard_unavailable`, no socket
//!   work) until [`FleetPolicy::breaker_cooldown`] elapses, then one
//!   half-open probe decides re-close vs. re-open. Structured `503`s do
//!   not trip the breaker — the shard answered; it is merely busy.
//! * **Hedged reads** — when [`FleetPolicy::hedge_after`] is set and a
//!   request is idempotent-cacheable (it fingerprints and carries no
//!   deadline), a duplicate is raced against a slow first attempt and
//!   the first success wins. Responses are byte-deterministic per key,
//!   so the race cannot change the answer, only the latency tail.
//! * **Deadline budgets** — a request sent with
//!   [`FleetClient::post_with_deadline`] gets an absolute wall budget;
//!   per-attempt read timeouts shrink to the remaining budget and no
//!   retry or backoff sleep is allowed to outlive it.
//!
//! Non-keyed GETs get explicit semantics instead of the old
//! hash-the-empty-body accident: [`FleetClient::get`] fails over across
//! shards in index order (any shard can answer `/healthz`), and
//! [`FleetClient::metrics`] broadcasts to every shard and returns one
//! deterministically aggregated page.

use crate::api::DEADLINE_HEADER;
use crate::error::ApiError;
use crate::http::decode_chunked;
use crate::shard::shard_of;
use oiso_netlist::Fnv;
use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes (chunked transfer already decoded).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (panics on binary garbage — test context).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("response body is UTF-8")
    }

    /// The stable error `code` if the body is a structured
    /// [`ApiError`] envelope (`{"error":{"code":...`), else `None`.
    pub fn error_code(&self) -> Option<&str> {
        let text = std::str::from_utf8(&self.body).ok()?;
        let rest = text.strip_prefix("{\"error\":{\"code\":\"")?;
        rest.split('"').next()
    }
}

/// A failure *below* HTTP: connect, write, read, or response framing.
///
/// Carries the [`std::io::ErrorKind`] when the OS reported one, so a
/// chaos test can assert that a proxy-injected reset surfaces as
/// `ConnectionReset` and a stalled byte-stream as `WouldBlock`/
/// `TimedOut` — the kinds render inside `[..]` in the display form and
/// thus inside the synthesized `shard_unavailable` message.
#[derive(Debug, Clone)]
pub struct TransportError {
    /// Which step failed: `"connect"`, `"write"`, `"read"`, `"parse"`.
    pub op: &'static str,
    /// The io error kind, when one was reported.
    pub kind: Option<std::io::ErrorKind>,
    /// Human detail (address, byte counts, parser complaint).
    pub detail: String,
}

impl TransportError {
    fn io(op: &'static str, err: &std::io::Error, detail: impl Into<String>) -> Self {
        TransportError {
            op,
            kind: Some(err.kind()),
            detail: detail.into(),
        }
    }

    fn parse(detail: impl Into<String>) -> Self {
        TransportError {
            op: "parse",
            kind: Some(std::io::ErrorKind::InvalidData),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            Some(kind) => write!(f, "{} [{kind:?}]: {}", self.op, self.detail),
            None => write!(f, "{}: {}", self.op, self.detail),
        }
    }
}

impl std::error::Error for TransportError {}

/// Client for one daemon address — the raw transport under the fleet.
#[derive(Debug, Clone, Copy)]
pub struct Client {
    addr: SocketAddr,
}

impl Client {
    /// Points the client at a daemon (usually `handle.addr()`).
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr }
    }

    /// The address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `GET path` (panics on transport failure — test context).
    pub fn get(&self, path: &str) -> ClientResponse {
        self.request("GET", path, &[], b"")
    }

    /// `POST path` with a body (panics on transport failure).
    pub fn post(&self, path: &str, body: &str) -> ClientResponse {
        self.request("POST", path, &[], body.as_bytes())
    }

    /// `POST path` with an `X-Oiso-Deadline-Ms` header.
    pub fn post_with_deadline(&self, path: &str, body: &str, deadline_ms: u64) -> ClientResponse {
        self.request(
            "POST",
            path,
            &[(DEADLINE_HEADER, &deadline_ms.to_string())],
            body.as_bytes(),
        )
    }

    /// A full request with explicit headers.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> ClientResponse {
        self.send_raw(&raw_request(method, path, headers, body))
    }

    /// Writes arbitrary bytes and parses whatever comes back — how the
    /// malformed-request tests reach the server's error paths.
    pub fn send_raw(&self, raw: &[u8]) -> ClientResponse {
        self.try_send_raw(raw).expect("talk to the daemon")
    }

    /// [`Client::send_raw`] that reports transport failures instead of
    /// panicking, preserving the underlying [`std::io::ErrorKind`].
    ///
    /// # Errors
    ///
    /// Any connect/write/read failure or unparsable response bytes.
    pub fn try_send_raw(&self, raw: &[u8]) -> Result<ClientResponse, TransportError> {
        self.try_send_raw_with(raw, Duration::from_secs(2), Duration::from_secs(60))
    }

    /// [`Client::try_send_raw`] with explicit connect/read timeouts —
    /// what the fleet's deadline-aware retry loop uses to keep each
    /// attempt inside the request's remaining budget.
    ///
    /// # Errors
    ///
    /// Any connect/write/read failure or unparsable response bytes.
    pub fn try_send_raw_with(
        &self,
        raw: &[u8],
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> Result<ClientResponse, TransportError> {
        let mut stream = TcpStream::connect_timeout(&self.addr, connect_timeout)
            .map_err(|e| TransportError::io("connect", &e, format!("{}: {e}", self.addr)))?;
        stream
            .set_read_timeout(Some(read_timeout.max(Duration::from_millis(1))))
            .map_err(|e| TransportError::io("read", &e, format!("set read timeout: {e}")))?;
        stream
            .write_all(raw)
            .map_err(|e| TransportError::io("write", &e, format!("write the request: {e}")))?;
        // The server replies and closes (Connection: close) — read to EOF.
        let mut response = Vec::new();
        stream
            .read_to_end(&mut response)
            .map_err(|e| TransportError::io("read", &e, format!("read the response: {e}")))?;
        parse_response(&response)
    }
}

/// Parses raw response bytes — *total*: a chaos proxy can hand us a
/// truncated head, a garbage prefix, or torn chunked framing, and each
/// must surface as a retryable [`TransportError`], never a panic.
pub fn parse_response(raw: &[u8]) -> Result<ClientResponse, TransportError> {
    if raw.is_empty() {
        return Err(TransportError::parse("empty response (connection closed)"));
    }
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| {
            TransportError::parse(format!(
                "no head/body separator in {} response byte(s)",
                raw.len()
            ))
        })?;
    let head = std::str::from_utf8(&raw[..split])
        .map_err(|e| TransportError::parse(format!("response head is not UTF-8: {e}")))?;
    let mut body = raw[split + 4..].to_vec();
    let mut lines = head.lines();
    let status_line = lines
        .next()
        .ok_or_else(|| TransportError::parse("empty response head"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| TransportError::parse(format!("unparsable status line {status_line:?}")))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    if chunked {
        body = decode_chunked(&body)
            .ok_or_else(|| TransportError::parse("torn chunked framing"))?;
    } else if let Some(expected) = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
    {
        // A mid-body truncation still reads to EOF "successfully" — the
        // length header is the only witness that bytes are missing.
        if body.len() != expected {
            return Err(TransportError::parse(format!(
                "truncated body: got {} of {expected} byte(s)",
                body.len()
            )));
        }
    }
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// Builds the raw bytes of a single `Connection: close` HTTP/1.1
/// request.
pub fn raw_request(method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: oiso\r\n");
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut raw = head.into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// Retry/breaker/hedging knobs for a [`FleetClient`].
#[derive(Debug, Clone, Copy)]
pub struct FleetPolicy {
    /// Max tries per request, first included (≥ 1).
    pub attempts: u32,
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-attempt read timeout (shrunk to any remaining deadline).
    pub read_timeout: Duration,
    /// Base sleep between transport retries; attempt `k` sleeps
    /// `base · 2^k` plus deterministic jitter.
    pub retry_backoff: Duration,
    /// Consecutive transport failures that open a shard's breaker;
    /// `0` disables the breaker entirely.
    pub breaker_threshold: u32,
    /// How long an open breaker fails fast before one half-open probe.
    pub breaker_cooldown: Duration,
    /// Hedge a cache-hit-eligible request with a duplicate after this
    /// long without a response; `None` disables hedging.
    pub hedge_after: Option<Duration>,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        FleetPolicy {
            attempts: 3,
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(60),
            retry_backoff: Duration::from_millis(50),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
            hedge_after: None,
        }
    }
}

impl FleetPolicy {
    /// One attempt, no breaker, no hedging — the PR 7 router's exact
    /// semantics, kept for tests that assert single-shot behavior.
    pub fn no_retry() -> Self {
        FleetPolicy {
            attempts: 1,
            breaker_threshold: 0,
            hedge_after: None,
            ..FleetPolicy::default()
        }
    }
}

/// Circuit-breaker states, exported on [`FleetClient::breaker_page`] as
/// `0` (closed), `1` (open), `2` (half-open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are counted.
    Closed,
    /// Failing fast; no socket work until the cooldown elapses.
    Open,
    /// One probe in flight decides re-close vs. re-open.
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    consecutive: u32,
    opened_at: Option<Instant>,
    transitions: u64,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            consecutive: 0,
            opened_at: None,
            transitions: 0,
        }
    }

    /// Gate an attempt: `true` to proceed (possibly as the half-open
    /// probe), `false` to fail fast.
    fn admit(&mut self, cooldown: Duration) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                let cooled = self
                    .opened_at
                    .is_none_or(|at| at.elapsed() >= cooldown);
                if cooled {
                    self.state = BreakerState::HalfOpen;
                    self.transitions += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn on_success(&mut self) {
        if self.state != BreakerState::Closed {
            self.state = BreakerState::Closed;
            self.transitions += 1;
        }
        self.consecutive = 0;
        self.opened_at = None;
    }

    fn on_transport_failure(&mut self, threshold: u32) {
        self.consecutive = self.consecutive.saturating_add(1);
        let trip = match self.state {
            // A failed half-open probe re-opens immediately.
            BreakerState::HalfOpen => true,
            _ => threshold > 0 && self.consecutive >= threshold,
        };
        if trip && threshold > 0 {
            if self.state != BreakerState::Open {
                self.transitions += 1;
            }
            self.state = BreakerState::Open;
            self.opened_at = Some(Instant::now());
        }
    }
}

/// The resilient fingerprint-hash router over a fleet of shard daemons.
///
/// See the module docs for the recovery machinery. Routing itself is
/// unchanged from PR 7: the request's semantic fingerprint is
/// recomputed from the bytes on the wire and sent to shard `fp % N`;
/// non-fingerprinting POST bodies (schema rejects) go to shard 0, and
/// GETs use explicit any-shard failover.
#[derive(Debug)]
pub struct FleetClient {
    shards: Vec<Client>,
    policy: FleetPolicy,
    breakers: Vec<Mutex<Breaker>>,
    retries: AtomicU64,
    hedges: AtomicU64,
}

impl FleetClient {
    /// Builds a fleet client with the default [`FleetPolicy`];
    /// `addrs[k]` must be the `--shard (k+1)/N` daemon.
    pub fn new(addrs: &[SocketAddr]) -> FleetClient {
        FleetClient::with_policy(addrs, FleetPolicy::default())
    }

    /// [`FleetClient::new`] with explicit retry/breaker/hedging knobs.
    pub fn with_policy(addrs: &[SocketAddr], policy: FleetPolicy) -> FleetClient {
        assert!(!addrs.is_empty(), "a fleet needs at least one shard");
        assert!(policy.attempts >= 1, "at least one attempt");
        FleetClient {
            shards: addrs.iter().copied().map(Client::new).collect(),
            policy,
            breakers: addrs.iter().map(|_| Mutex::new(Breaker::new())).collect(),
            retries: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
        }
    }

    /// Number of shards behind this client.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard index a POST to `path` with `body` routes to.
    pub fn route(&self, path: &str, body: &str) -> usize {
        crate::testing::fingerprint_of(path, body)
            .map_or(0, |fp| shard_of(fp, self.shards.len()))
    }

    /// `POST path`, routed by the body's fingerprint, with retries,
    /// breaker, and (when configured and eligible) hedging.
    pub fn post(&self, path: &str, body: &str) -> ClientResponse {
        let shard = self.route(path, body);
        let raw = raw_request("POST", path, &[], body.as_bytes());
        // Hedge-eligible: the request fingerprints (idempotent, cache-
        // hit-eligible) and carries no wall-clock deadline.
        let hedge = crate::testing::fingerprint_of(path, body).is_some();
        self.send_to_shard(shard, &raw, None, hedge)
    }

    /// `POST path` under an `X-Oiso-Deadline-Ms` budget: the header
    /// rides to the server *and* bounds the client's own retries —
    /// no attempt, backoff, or Retry-After sleep outlives the budget.
    pub fn post_with_deadline(&self, path: &str, body: &str, deadline_ms: u64) -> ClientResponse {
        let shard = self.route(path, body);
        let raw = raw_request(
            "POST",
            path,
            &[(DEADLINE_HEADER, &deadline_ms.to_string())],
            body.as_bytes(),
        );
        let budget = Instant::now() + Duration::from_millis(deadline_ms);
        self.send_to_shard(shard, &raw, Some(budget), false)
    }

    /// `GET path` with any-shard failover: tries shards in index order
    /// and returns the first shard that *answers* (any status). Only
    /// when every shard is transport-dead does it synthesize the
    /// `503 shard_unavailable` of the last failure.
    pub fn get(&self, path: &str) -> ClientResponse {
        let raw = raw_request("GET", path, &[], b"");
        let mut last: Option<ClientResponse> = None;
        for shard in 0..self.shards.len() {
            let resp = self.send_to_shard(shard, &raw, None, false);
            if resp.error_code() != Some("shard_unavailable") {
                return resp;
            }
            last = Some(resp);
        }
        last.expect("at least one shard")
    }

    /// `GET path` from one specific shard (retries/breaker still apply).
    pub fn get_from(&self, shard: usize, path: &str) -> ClientResponse {
        self.send_to_shard(shard, &raw_request("GET", path, &[], b""), None, false)
    }

    /// Broadcasts `GET path` to every shard; `results[k]` is `None`
    /// when shard `k` could not be reached at all.
    pub fn broadcast_get(&self, path: &str) -> Vec<Option<ClientResponse>> {
        let raw = raw_request("GET", path, &[], b"");
        (0..self.shards.len())
            .map(|shard| {
                let resp = self.send_to_shard(shard, &raw, None, false);
                (resp.error_code() != Some("shard_unavailable")).then_some(resp)
            })
            .collect()
    }

    /// Broadcasts `GET /metrics` and aggregates the fleet's pages into
    /// one deterministic exposition: same-named series are summed
    /// across shards, and `oiso_fleet_shards_reporting` /
    /// `oiso_fleet_shards_total` record coverage. Unreachable shards
    /// are simply absent from the sums.
    pub fn metrics(&self) -> String {
        let pages: Vec<String> = self
            .broadcast_get("/metrics")
            .into_iter()
            .flatten()
            .filter(|r| r.status == 200)
            .map(|r| r.text().to_string())
            .collect();
        let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
        aggregate_metrics(&refs, self.shards.len())
    }

    /// Transport retries performed so far (excludes first attempts).
    pub fn retries_total(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Hedged duplicates launched so far.
    pub fn hedges_total(&self) -> u64 {
        self.hedges.load(Ordering::Relaxed)
    }

    /// Current breaker state of one shard.
    pub fn breaker_state(&self, shard: usize) -> BreakerState {
        self.breakers[shard].lock().expect("breaker lock").state
    }

    /// Renders the client-side resilience counters as a deterministic
    /// metrics page (`oiso_breaker_state{shard="k"}`,
    /// `oiso_breaker_transitions_total{shard="k"}`,
    /// `oiso_fleet_retries_total`, `oiso_fleet_hedges_total`).
    pub fn breaker_page(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (k, breaker) in self.breakers.iter().enumerate() {
            let breaker = breaker.lock().expect("breaker lock");
            let state = match breaker.state {
                BreakerState::Closed => 0,
                BreakerState::Open => 1,
                BreakerState::HalfOpen => 2,
            };
            let _ = writeln!(out, "oiso_breaker_state{{shard=\"{k}\"}} {state}");
            let _ = writeln!(
                out,
                "oiso_breaker_transitions_total{{shard=\"{k}\"}} {}",
                breaker.transitions
            );
        }
        let _ = writeln!(out, "oiso_fleet_retries_total {}", self.retries_total());
        let _ = writeln!(out, "oiso_fleet_hedges_total {}", self.hedges_total());
        out
    }

    /// The retry loop: breaker gate → attempt (possibly hedged) →
    /// classify → backoff/Retry-After sleep bounded by the budget.
    fn send_to_shard(
        &self,
        shard: usize,
        raw: &[u8],
        budget: Option<Instant>,
        hedge_eligible: bool,
    ) -> ClientResponse {
        let mut last_failure = String::from("no attempt was admitted");
        for attempt in 0..self.policy.attempts {
            // A request that has spent its deadline budget stops here:
            // the server would only truncate it anyway, and the caller
            // was promised the budget bounds total wall time.
            let remaining = match budget {
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return synthesize_unavailable(
                            shard,
                            self.shards.len(),
                            format!("deadline budget exhausted after {attempt} attempt(s): {last_failure}"),
                        );
                    }
                    deadline - now
                }
                None => self.policy.read_timeout,
            };
            {
                let mut breaker = self.breakers[shard].lock().expect("breaker lock");
                if !breaker.admit(self.policy.breaker_cooldown) {
                    return synthesize_unavailable(
                        shard,
                        self.shards.len(),
                        format!("circuit breaker open ({} consecutive failures)", breaker.consecutive),
                    );
                }
            }
            let read_timeout = remaining.min(self.policy.read_timeout);
            let result = if hedge_eligible && self.policy.hedge_after.is_some() {
                self.attempt_hedged(shard, raw, read_timeout)
            } else {
                self.shards[shard].try_send_raw_with(raw, self.policy.connect_timeout, read_timeout)
            };
            match result {
                Ok(resp) => {
                    self.breakers[shard]
                        .lock()
                        .expect("breaker lock")
                        .on_success();
                    let retryable_503 = resp.status == 503
                        && matches!(
                            resp.error_code(),
                            Some("overloaded") | Some("shutting_down")
                        );
                    if retryable_503 && attempt + 1 < self.policy.attempts {
                        let hint = resp
                            .header("retry-after")
                            .and_then(|v| v.parse::<u64>().ok())
                            .unwrap_or(1);
                        let mut wait = Duration::from_secs(hint.min(5));
                        if let Some(deadline) = budget {
                            wait = wait.min(deadline.saturating_duration_since(Instant::now()));
                        }
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(wait);
                        last_failure = format!("shard shed load ({})", resp.error_code().unwrap_or("503"));
                        continue;
                    }
                    return resp;
                }
                Err(err) => {
                    self.breakers[shard]
                        .lock()
                        .expect("breaker lock")
                        .on_transport_failure(self.policy.breaker_threshold);
                    last_failure = err.to_string();
                    if attempt + 1 < self.policy.attempts {
                        let mut wait = self
                            .policy
                            .retry_backoff
                            .saturating_mul(1 << attempt.min(16))
                            + jitter(shard, attempt);
                        if let Some(deadline) = budget {
                            wait = wait.min(deadline.saturating_duration_since(Instant::now()));
                        }
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(wait);
                    }
                }
            }
        }
        synthesize_unavailable(
            shard,
            self.shards.len(),
            format!(
                "{last_failure} (after {} attempt(s))",
                self.policy.attempts
            ),
        )
    }

    /// One attempt raced against a hedged duplicate: if the primary has
    /// not answered within `hedge_after`, launch a second identical
    /// request and take the first success (responses are deterministic
    /// per key, so the race cannot change bytes).
    fn attempt_hedged(
        &self,
        shard: usize,
        raw: &[u8],
        read_timeout: Duration,
    ) -> Result<ClientResponse, TransportError> {
        let hedge_after = self.policy.hedge_after.expect("hedging configured");
        let client = self.shards[shard];
        let connect = self.policy.connect_timeout;
        let raw: Arc<Vec<u8>> = Arc::new(raw.to_vec());
        let (tx, rx) = mpsc::channel();
        {
            let tx = tx.clone();
            let raw = Arc::clone(&raw);
            std::thread::spawn(move || {
                let _ = tx.send(client.try_send_raw_with(&raw, connect, read_timeout));
            });
        }
        match rx.recv_timeout(hedge_after) {
            // A fast primary answer (success or failure) settles it —
            // the retry loop owns failure handling.
            Ok(first) => first,
            Err(_) => {
                self.hedges.fetch_add(1, Ordering::Relaxed);
                std::thread::spawn(move || {
                    let _ = tx.send(client.try_send_raw_with(&raw, connect, read_timeout));
                });
                let mut last_err: Option<TransportError> = None;
                for _ in 0..2 {
                    match rx.recv() {
                        Ok(Ok(resp)) => return Ok(resp),
                        Ok(Err(err)) => last_err = Some(err),
                        Err(_) => break,
                    }
                }
                Err(last_err.unwrap_or_else(|| TransportError {
                    op: "read",
                    kind: None,
                    detail: "both hedged attempts vanished".to_string(),
                }))
            }
        }
    }
}

/// Deterministic jitter (FNV of shard × attempt, 0..25 ms) so two fleet
/// clients retrying the same downed shard do not re-arrive in lockstep,
/// while the same test run always sleeps the same amounts.
fn jitter(shard: usize, attempt: u32) -> Duration {
    let mut h = Fnv::new();
    h.u64(shard as u64);
    h.u64(u64::from(attempt));
    Duration::from_millis(h.finish() % 25)
}

/// Renders an [`ApiError::shard_unavailable`] as a [`ClientResponse`] —
/// the structured fail-fast the fleet synthesizes when a shard cannot
/// be reached (or its breaker is open).
fn synthesize_unavailable(shard: usize, count: usize, detail: String) -> ClientResponse {
    let resp = ApiError::shard_unavailable(shard, count, detail).to_response();
    ClientResponse {
        status: resp.status,
        headers: resp
            .extra_headers
            .iter()
            .map(|(k, v)| (k.to_ascii_lowercase(), v.clone()))
            .collect(),
        body: resp.body,
    }
}

/// Sums same-named series across per-shard `/metrics` pages into one
/// deterministic exposition (series sorted, comments dropped). Lines
/// whose value is not an unsigned integer are skipped — every oiso
/// series is an integer counter or gauge.
pub fn aggregate_metrics(pages: &[&str], shards_total: usize) -> String {
    use std::fmt::Write as _;
    let mut sums: BTreeMap<String, u64> = BTreeMap::new();
    for page in pages {
        for line in page.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.trim().parse::<u64>() else {
                continue;
            };
            *sums.entry(series.to_string()).or_insert(0) += value;
        }
    }
    let mut out = String::from("# oiso-fleet aggregated metrics (summed across shards)\n");
    for (series, value) in &sums {
        let _ = writeln!(out, "{series} {value}");
    }
    let _ = writeln!(out, "oiso_fleet_shards_reporting {}", pages.len());
    let _ = writeln!(out, "oiso_fleet_shards_total {shards_total}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_error_display_carries_the_io_kind() {
        let err = TransportError::io(
            "read",
            &std::io::Error::new(std::io::ErrorKind::ConnectionReset, "peer reset"),
            "read the response: peer reset",
        );
        let text = err.to_string();
        assert!(text.contains("[ConnectionReset]"), "{text}");
        let err = TransportError::io(
            "read",
            &std::io::Error::new(std::io::ErrorKind::TimedOut, "slow"),
            "read the response: slow",
        );
        assert!(err.to_string().contains("[TimedOut]"), "{}", err);
    }

    #[test]
    fn parse_response_is_total_on_chaos_shaped_bytes() {
        assert!(parse_response(b"").is_err(), "empty");
        assert!(parse_response(b"garbage with no separator").is_err());
        assert!(
            parse_response(b"\xff\xfe binary garbage\r\n\r\nbody").is_err(),
            "non-UTF-8 head"
        );
        assert!(
            parse_response(b"NOT-HTTP nonsense\r\n\r\n").is_err(),
            "unparsable status line"
        );
        // Truncated body: Content-Length promises more than arrived.
        let torn = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"x\":1}";
        let err = parse_response(torn).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Torn chunked framing.
        let torn = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel";
        assert!(parse_response(torn).is_err());
        // And the happy path still parses.
        let ok = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Oiso-Cache: hit\r\n\r\nok")
            .unwrap();
        assert_eq!(ok.status, 200);
        assert_eq!(ok.header("x-oiso-cache"), Some("hit"));
        assert_eq!(ok.body, b"ok");
    }

    #[test]
    fn error_code_reads_the_structured_envelope() {
        let resp = synthesize_unavailable(1, 3, "connection refused".to_string());
        assert_eq!(resp.status, 503);
        assert_eq!(resp.error_code(), Some("shard_unavailable"));
        assert_eq!(resp.header("retry-after"), Some("1"));
        let plain = ClientResponse {
            status: 200,
            headers: Vec::new(),
            body: b"{\"power\":1}".to_vec(),
        };
        assert_eq!(plain.error_code(), None);
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let mut b = Breaker::new();
        assert_eq!(b.state, BreakerState::Closed);
        b.on_transport_failure(3);
        b.on_transport_failure(3);
        assert_eq!(b.state, BreakerState::Closed, "under threshold");
        b.on_transport_failure(3);
        assert_eq!(b.state, BreakerState::Open, "third consecutive failure trips");
        assert_eq!(b.transitions, 1);
        // Not cooled yet: fail fast.
        assert!(!b.admit(Duration::from_secs(60)));
        // Cooled: one probe is admitted (zero cooldown for the test).
        assert!(b.admit(Duration::ZERO));
        assert_eq!(b.state, BreakerState::HalfOpen);
        assert_eq!(b.transitions, 2);
        // Probe failure slams it shut again, below any threshold count.
        b.on_transport_failure(3);
        assert_eq!(b.state, BreakerState::Open);
        assert_eq!(b.transitions, 3);
        // Next probe succeeds: closed, counters reset.
        assert!(b.admit(Duration::ZERO));
        b.on_success();
        assert_eq!(b.state, BreakerState::Closed);
        assert_eq!(b.consecutive, 0);
        assert_eq!(b.transitions, 5, "open→half-open→closed");
        // Threshold 0 never trips.
        let mut never = Breaker::new();
        for _ in 0..10 {
            never.on_transport_failure(0);
        }
        assert_eq!(never.state, BreakerState::Closed);
    }

    #[test]
    fn metrics_aggregation_sums_series_deterministically() {
        let page_a = "# comment\noiso_requests_total{endpoint=\"isolate\",status=\"200\"} 3\n\
                      oiso_queue_depth 1\noiso_store_checksum_skips_total 1\n";
        let page_b = "oiso_requests_total{endpoint=\"isolate\",status=\"200\"} 4\n\
                      oiso_queue_depth 0\nnot a metric line\n";
        let merged = aggregate_metrics(&[page_a, page_b], 3);
        assert!(
            merged.contains("oiso_requests_total{endpoint=\"isolate\",status=\"200\"} 7"),
            "{merged}"
        );
        assert!(merged.contains("oiso_queue_depth 1"), "{merged}");
        assert!(merged.contains("oiso_store_checksum_skips_total 1"), "{merged}");
        assert!(merged.contains("oiso_fleet_shards_reporting 2"), "{merged}");
        assert!(merged.contains("oiso_fleet_shards_total 3"), "{merged}");
        assert_eq!(
            merged,
            aggregate_metrics(&[page_a, page_b], 3),
            "aggregation is deterministic"
        );
    }

    #[test]
    fn fleet_policy_no_retry_matches_the_pr7_router_semantics() {
        let p = FleetPolicy::no_retry();
        assert_eq!(p.attempts, 1);
        assert_eq!(p.breaker_threshold, 0);
        assert!(p.hedge_after.is_none());
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for shard in 0..4 {
            for attempt in 0..4 {
                let j = jitter(shard, attempt);
                assert_eq!(j, jitter(shard, attempt));
                assert!(j < Duration::from_millis(25));
            }
        }
    }
}
