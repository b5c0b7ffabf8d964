//! A minimal, total HTTP/1.1 reader/writer over `std::net`.
//!
//! The build environment is offline, so there is no hyper — and the API
//! surface is small enough not to need it: one request per connection
//! (`Connection: close`), `Content-Length` bodies only (no chunked
//! encoding), a hard cap on the head and on the body. *Total* means
//! every byte sequence a socket can deliver maps to either a parsed
//! [`Request`] or a structured [`ApiError`] — never a panic, never an
//! unbounded read.

use crate::error::ApiError;
use std::io::{BufRead, BufReader, Read, Write};

/// Request line + headers may not exceed this many bytes.
pub const MAX_HEAD: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target without query string (`/v1/isolate`).
    pub path: String,
    /// Header names lowercased; values trimmed. Later duplicates win.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Returns a header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .rev()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Reads one request from the stream.
    ///
    /// `max_body` is the configured payload cap; a larger declared
    /// `Content-Length` is rejected with `413` *before* reading the
    /// body, so an oversize upload costs the server nothing.
    pub fn read(stream: &mut impl Read, max_body: usize) -> Result<Request, ApiError> {
        let mut reader = BufReader::new(stream);
        let mut head = Vec::with_capacity(256);
        // Read up to the blank line, enforcing MAX_HEAD as we go.
        loop {
            let mut line = Vec::new();
            let n = read_limited_line(&mut reader, &mut line, MAX_HEAD + 2)?;
            if n == 0 {
                return Err(ApiError::bad_request("connection closed before a request"));
            }
            if head.len() + line.len() > MAX_HEAD {
                return Err(ApiError::head_too_large(MAX_HEAD));
            }
            let is_blank = line == b"\r\n" || line == b"\n";
            head.extend_from_slice(&line);
            if is_blank && head.len() > line.len() {
                break;
            }
            if is_blank {
                return Err(ApiError::bad_request("empty request line"));
            }
        }
        let head = String::from_utf8(head)
            .map_err(|_| ApiError::bad_request("request head is not UTF-8"))?;
        let mut lines = head.lines();
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| ApiError::bad_request("missing method"))?
            .to_ascii_uppercase();
        let target = parts
            .next()
            .ok_or_else(|| ApiError::bad_request("missing request target"))?;
        match parts.next() {
            Some(v) if v.starts_with("HTTP/1.") => {}
            _ => return Err(ApiError::bad_request("expected an HTTP/1.x version")),
        }
        let path = target.split('?').next().unwrap_or(target).to_string();
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(ApiError::bad_request(format!("malformed header {line:?}")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let content_length = match headers
            .iter()
            .rev()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| v.as_str())
        {
            None => 0,
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| ApiError::bad_request(format!("bad Content-Length {v:?}")))?,
        };
        if content_length > max_body {
            return Err(ApiError::payload_too_large(content_length, max_body));
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).map_err(|e| {
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut
            {
                ApiError::timeout()
            } else {
                ApiError::bad_request(format!("body shorter than Content-Length: {e}"))
            }
        })?;
        Ok(Request {
            method,
            path,
            headers,
            body,
        })
    }
}

/// `read_until(b'\n')` with a byte cap — a hostile peer streaming an
/// endless headerless line cannot grow the buffer past `cap`.
fn read_limited_line(
    reader: &mut impl BufRead,
    out: &mut Vec<u8>,
    cap: usize,
) -> Result<usize, ApiError> {
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(ApiError::timeout())
            }
            Err(e) => return Err(ApiError::bad_request(format!("read error: {e}"))),
        };
        if available.is_empty() {
            return Ok(out.len());
        }
        let (chunk, done) = match available.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (available.len(), false),
        };
        out.extend_from_slice(&available[..chunk]);
        reader.consume(chunk);
        if out.len() > cap {
            return Err(ApiError::head_too_large(MAX_HEAD));
        }
        if done {
            return Ok(out.len());
        }
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Additional headers (e.g. `Retry-After`, `X-Oiso-Cache`).
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// A plain-text response (`/metrics`, `/healthz`).
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// Serializes the response (status line, headers, body) with
    /// `Connection: close` semantics.
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// A chunked-transfer response in progress (`Transfer-Encoding:
/// chunked`) — the transport for streaming progress events, where the
/// body length is unknown when the head is written.
///
/// The writer owns the stream: [`ChunkedWriter::start`] emits the head,
/// every [`ChunkedWriter::chunk`] one length-prefixed chunk (flushed
/// immediately so events arrive as they happen), and
/// [`ChunkedWriter::finish`] the zero-length terminator. Dropping the
/// writer without `finish` leaves the client able to detect truncation —
/// exactly what a torn stream should look like.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    inner: W,
    finished: bool,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes the response head and returns the writer.
    ///
    /// # Errors
    ///
    /// Propagates stream write failures (client hung up).
    pub fn start(
        mut inner: W,
        status: u16,
        content_type: &str,
        extra_headers: &[(String, String)],
    ) -> std::io::Result<ChunkedWriter<W>> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n",
            status,
            reason(status),
            content_type,
        );
        for (name, value) in extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        inner.write_all(head.as_bytes())?;
        inner.flush()?;
        Ok(ChunkedWriter {
            inner,
            finished: false,
        })
    }

    /// Writes one chunk and flushes it. Empty data is skipped (a
    /// zero-length chunk would terminate the stream).
    ///
    /// # Errors
    ///
    /// Propagates stream write failures.
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() || self.finished {
            return Ok(());
        }
        write!(self.inner, "{:x}\r\n", data.len())?;
        self.inner.write_all(data)?;
        self.inner.write_all(b"\r\n")?;
        self.inner.flush()
    }

    /// Writes the zero-length terminating chunk (idempotent).
    ///
    /// # Errors
    ///
    /// Propagates stream write failures.
    pub fn finish(&mut self) -> std::io::Result<()> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        self.inner.write_all(b"0\r\n\r\n")?;
        self.inner.flush()
    }
}

/// Decodes a chunked-transfer body into the concatenated payload.
/// Returns `None` on a malformed framing (a torn stream). Used by the
/// test client, which consumes daemon output.
pub fn decode_chunked(raw: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    let mut rest = raw;
    loop {
        let line_end = rest.windows(2).position(|w| w == b"\r\n")?;
        let size_text = std::str::from_utf8(&rest[..line_end]).ok()?;
        let size = usize::from_str_radix(size_text.trim(), 16).ok()?;
        rest = &rest[line_end + 2..];
        if size == 0 {
            return Some(out);
        }
        if rest.len() < size + 2 {
            return None;
        }
        out.extend_from_slice(&rest[..size]);
        if &rest[size..size + 2] != b"\r\n" {
            return None;
        }
        rest = &rest[size + 2..];
    }
}

/// Reason phrase for the handful of statuses the API emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_bytes(raw: &[u8]) -> Result<Request, ApiError> {
        Request::read(&mut &raw[..], 1024)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = read_bytes(
            b"POST /v1/isolate?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/isolate");
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.header("Content-Length"), Some("4"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let req = read_bytes(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_heads_become_structured_errors() {
        for (raw, code) in [
            (&b""[..], "bad_request"),
            (b"\r\n\r\n", "bad_request"),
            (b"GET\r\n\r\n", "bad_request"),
            (b"GET /x\r\n\r\n", "bad_request"),
            (b"GET /x SMTP/1.0\r\n\r\n", "bad_request"),
            (b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n", "bad_request"),
            (b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", "bad_request"),
            (b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\na", "bad_request"),
            (b"\xff\xfe GET", "bad_request"),
        ] {
            let err = read_bytes(raw).unwrap_err();
            assert_eq!(err.code, code, "{raw:?} -> {err}");
        }
    }

    #[test]
    fn oversize_declared_body_is_rejected_up_front() {
        let err =
            read_bytes(b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n").unwrap_err();
        assert_eq!(err.code, "payload_too_large");
        assert_eq!(err.status, 413);
    }

    #[test]
    fn endless_head_is_capped() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD + 10));
        let err = read_bytes(&raw).unwrap_err();
        assert_eq!(err.code, "head_too_large");
    }

    #[test]
    fn chunked_writer_round_trips_through_the_decoder() {
        let mut out = Vec::new();
        {
            let mut w = ChunkedWriter::start(
                &mut out,
                200,
                "application/x-ndjson",
                &[("X-Oiso-Cache".to_string(), "bypass".to_string())],
            )
            .unwrap();
            w.chunk(b"{\"event\":\"accept\"}\n").unwrap();
            w.chunk(b"").unwrap(); // skipped, not a terminator
            w.chunk(b"{\"event\":\"done\"}\n").unwrap();
            w.finish().unwrap();
            w.finish().unwrap(); // idempotent
        }
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        assert!(text.contains("X-Oiso-Cache: bypass\r\n"), "{text}");
        assert!(text.ends_with("0\r\n\r\n"), "{text}");
        let split = out.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        let body = decode_chunked(&out[split + 4..]).unwrap();
        assert_eq!(body, b"{\"event\":\"accept\"}\n{\"event\":\"done\"}\n");
    }

    #[test]
    fn torn_chunked_bodies_decode_to_none() {
        assert_eq!(decode_chunked(b""), None, "no terminator");
        assert_eq!(decode_chunked(b"5\r\nab"), None, "short chunk");
        assert_eq!(decode_chunked(b"xyz\r\n"), None, "bad size");
        assert_eq!(decode_chunked(b"2\r\nab\r\n"), None, "missing terminator");
        assert_eq!(decode_chunked(b"2\r\nab\r\n0\r\n\r\n").as_deref(), Some(&b"ab"[..]));
    }

    #[test]
    fn responses_serialize_with_connection_close() {
        let mut resp = Response::json(200, "{}\n");
        resp.extra_headers
            .push(("X-Oiso-Cache".to_string(), "hit".to_string()));
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("X-Oiso-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{}\n"));
    }
}
