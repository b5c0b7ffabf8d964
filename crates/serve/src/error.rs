//! Structured API errors with stable `code` fields.
//!
//! Everything that can go wrong between the socket and a handler maps to
//! an [`ApiError`]: an HTTP status, a *stable* machine-readable code
//! (clients match on `code`, never on `message`), and a human message.
//! This extends the typed-error discipline of the CLI flag/input parsers
//! to the network surface — malformed bytes produce a structured `4xx`,
//! engine failures a structured `5xx`, and overload a `503` with
//! `Retry-After`; no panic is reachable from the socket.

use crate::http::Response;
use crate::json::JsonObj;

/// A structured error response: status, stable code, human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status to respond with.
    pub status: u16,
    /// Stable machine-readable identifier (part of the API contract).
    pub code: &'static str,
    /// Human-readable detail; free to change between versions.
    pub message: String,
    /// Seconds for a `Retry-After` header (load shedding).
    pub retry_after: Option<u32>,
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.status, self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

impl ApiError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        ApiError {
            status,
            code,
            message: message.into(),
            retry_after: None,
        }
    }

    /// `400 bad_request`: the HTTP envelope itself is malformed.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(400, "bad_request", message)
    }

    /// `400 bad_json`: the body is not a well-formed flat JSON object.
    pub fn bad_json(message: impl Into<String>) -> Self {
        Self::new(400, "bad_json", message)
    }

    /// `400 bad_field`: a known field has an unusable value.
    pub fn bad_field(message: impl Into<String>) -> Self {
        Self::new(400, "bad_field", message)
    }

    /// `400 unknown_field`: the body names a field outside the schema.
    pub fn unknown_field(name: &str) -> Self {
        Self::new(400, "unknown_field", format!("unknown field {name:?}"))
    }

    /// `400 unknown_design`: not a bundled design name.
    pub fn unknown_design(name: &str) -> Self {
        Self::new(
            400,
            "unknown_design",
            format!(
                "unknown bundled design {name:?}; available: {}",
                oiso_designs::BUNDLED_NAMES.join(", ")
            ),
        )
    }

    /// `400 bad_design`: inline `.oiso` source that does not parse.
    pub fn bad_design(message: impl Into<String>) -> Self {
        Self::new(400, "bad_design", message)
    }

    /// `400 bad_deadline`: unusable `X-Oiso-Deadline-Ms` header.
    pub fn bad_deadline(message: impl Into<String>) -> Self {
        Self::new(400, "bad_deadline", message)
    }

    /// `404 not_found`: no such endpoint.
    pub fn not_found(path: &str) -> Self {
        Self::new(
            404,
            "not_found",
            format!(
                "no endpoint {path:?}; try POST /v1/{{isolate,lint,verify,simulate,batch}}, \
                 GET /healthz, GET /metrics"
            ),
        )
    }

    /// `405 method_not_allowed`: known path, wrong method.
    pub fn method_not_allowed(method: &str, path: &str, allow: &'static str) -> Self {
        Self::new(
            405,
            "method_not_allowed",
            format!("{path} does not support {method}; use {allow}"),
        )
    }

    /// `413 payload_too_large`: body beyond the configured cap.
    pub fn payload_too_large(len: usize, cap: usize) -> Self {
        Self::new(
            413,
            "payload_too_large",
            format!("request body of {len} bytes exceeds the {cap} byte cap"),
        )
    }

    /// `431 head_too_large`: request line + headers beyond the cap.
    pub fn head_too_large(cap: usize) -> Self {
        Self::new(
            431,
            "head_too_large",
            format!("request head exceeds the {cap} byte cap"),
        )
    }

    /// `408 timeout`: the client stopped sending mid-request.
    pub fn timeout() -> Self {
        Self::new(408, "timeout", "timed out reading the request")
    }

    /// `422 engine_error`: the pipeline itself rejected the (well-formed)
    /// request — e.g. a design whose stimuli cannot drive it.
    pub fn engine(message: impl Into<String>) -> Self {
        Self::new(422, "engine_error", message)
    }

    /// `500 internal_panic`: the handler panicked; the worker survived.
    pub fn internal_panic(payload: impl Into<String>) -> Self {
        Self::new(
            500,
            "internal_panic",
            format!("request handler panicked: {}", payload.into()),
        )
    }

    /// `503 overloaded`: the job queue is full; retry later.
    ///
    /// `Retry-After` is computed from the backlog at shed time, not a
    /// constant: with `queue_depth` connections queued ahead and
    /// `workers` draining them, the queue cannot have a free slot for
    /// roughly `ceil(depth / workers)` request-seconds — clamped to
    /// `1..=30` so the hint stays sane under pathological depths.
    pub fn overloaded(queue_depth: usize, workers: usize) -> Self {
        let mut e = Self::new(
            503,
            "overloaded",
            format!(
                "job queue is full ({queue_depth} queued, {workers} worker(s)); \
                 retry after the indicated delay"
            ),
        );
        e.retry_after = Some(queue_depth.div_ceil(workers.max(1)).clamp(1, 30) as u32);
        e
    }

    /// `503 batch_shed`: the batch's shared wall budget expired before
    /// this item could start; the item's slot reports `"status":"shed"`
    /// with this body — never torn JSON.
    pub fn batch_shed() -> Self {
        Self::new(
            503,
            "batch_shed",
            "the batch deadline expired before this item ran",
        )
    }

    /// `503 shutting_down`: the daemon is draining.
    pub fn shutting_down() -> Self {
        let mut e = Self::new(503, "shutting_down", "daemon is shutting down");
        e.retry_after = Some(1);
        e
    }

    /// Renders the structured JSON error response.
    pub fn to_response(&self) -> Response {
        let mut inner = JsonObj::new();
        inner.str("code", self.code).str("message", &self.message);
        let mut obj = JsonObj::new();
        obj.raw("error", &inner.finish());
        let mut body = obj.finish();
        body.push('\n');
        let mut response = Response::json(self.status, body);
        if let Some(secs) = self.retry_after {
            response
                .extra_headers
                .push(("Retry-After".to_string(), secs.to_string()));
        }
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bodies_are_structured_and_codes_stable() {
        let e = ApiError::unknown_design("nope");
        let r = e.to_response();
        assert_eq!(r.status, 400);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.starts_with("{\"error\":{\"code\":\"unknown_design\""), "{body}");
        assert!(body.contains("figure1"), "lists the bundled names: {body}");
        assert!(body.ends_with('\n'));
    }

    #[test]
    fn overload_retry_after_is_computed_from_the_backlog() {
        let retry = |depth, workers| {
            ApiError::overloaded(depth, workers)
                .to_response()
                .extra_headers
                .iter()
                .find(|(k, _)| k == "Retry-After")
                .map(|(_, v)| v.clone())
                .expect("Retry-After present")
        };
        assert_eq!(retry(1, 1), "1");
        assert_eq!(retry(4, 1), "4");
        assert_eq!(retry(4, 4), "1");
        assert_eq!(retry(9, 4), "3");
        assert_eq!(retry(10_000, 1), "30", "clamped");
        assert_eq!(retry(0, 0), "1", "degenerate inputs stay sane");
        assert_eq!(ApiError::overloaded(4, 1).status, 503);
    }
}
