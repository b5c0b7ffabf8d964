//! An in-process HTTP client for exercising the daemon over real TCP.
//!
//! Tests spawn a [`crate::Server`] on an ephemeral port
//! (`ServeConfig { port: 0, .. }`) and drive it with [`Client`] — the
//! genuine socket path, no fixed ports, no fixtures. Every call opens
//! one `Connection: close` request and panics on transport failure:
//! this is test code, and a daemon that cannot be reached is a failed
//! test.

use crate::api::DEADLINE_HEADER;
use crate::http::decode_chunked;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

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
}

/// Client for one daemon address.
#[derive(Debug, Clone, Copy)]
pub struct Client {
    addr: SocketAddr,
}

impl Client {
    /// Points the client at a daemon (usually `handle.addr()`).
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr }
    }

    /// `GET path`.
    pub fn get(&self, path: &str) -> ClientResponse {
        self.request("GET", path, &[], b"")
    }

    /// `POST path` with a body.
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
        let mut stream = TcpStream::connect(self.addr).expect("connect to the daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set the read timeout");
        stream.write_all(raw).expect("write the request");
        // The server replies and closes (Connection: close) — read to EOF.
        let mut response = Vec::new();
        stream
            .read_to_end(&mut response)
            .expect("read the response");
        parse_response(&response)
    }
}

/// Parses raw response bytes (panics on malformed framing).
fn parse_response(raw: &[u8]) -> ClientResponse {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head/body separator");
    let head = std::str::from_utf8(&raw[..split]).expect("response head is UTF-8");
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("parsable status line");
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = &raw[split + 4..];
    let body = if chunked {
        decode_chunked(body).expect("well-formed chunked framing")
    } else {
        body.to_vec()
    };
    ClientResponse {
        status,
        headers,
        body,
    }
}

/// Builds the raw bytes of a single `Connection: close` HTTP/1.1
/// request.
fn raw_request(method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
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
