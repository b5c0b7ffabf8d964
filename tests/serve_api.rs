//! API-contract tests for the serve daemon: golden-pinned success
//! bodies for every endpoint, and the structured error taxonomy
//! (malformed HTTP, malformed JSON, oversize payloads, unknown
//! endpoints/designs/fields, deadline truncation).
//!
//! Every test drives a real daemon over real TCP on an ephemeral port
//! via `serve::testing::Client` — no fixed ports, no fixtures.
//!
//! Regenerate goldens with `UPDATE_GOLDEN=1 cargo test --test serve_api`.

use operand_isolation::serve::testing::Client;
use operand_isolation::serve::{ServeConfig, Server, ServerHandle};
use std::path::PathBuf;

fn spawn(config: ServeConfig) -> (ServerHandle, Client) {
    let handle = Server::spawn(config).expect("bind an ephemeral port");
    let client = Client::new(handle.addr());
    (handle, client)
}

fn quiet_config() -> ServeConfig {
    ServeConfig {
        log: false,
        ..ServeConfig::default()
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name}: {e}; run with UPDATE_GOLDEN=1"));
    assert_eq!(
        expected, actual,
        "golden {name} diverged; run with UPDATE_GOLDEN=1 if intentional"
    );
}

#[test]
fn every_endpoint_body_is_pinned() {
    let (handle, client) = spawn(quiet_config());
    let cases = [
        (
            "serve_isolate.json",
            "/v1/isolate",
            "{\"design\":\"figure1\",\"style\":\"and\",\"cycles\":300}",
        ),
        (
            "serve_lint.json",
            "/v1/lint",
            "{\"design\":\"figure1\"}",
        ),
        (
            "serve_verify.json",
            "/v1/verify",
            "{\"design\":\"figure1\",\"style\":\"and\"}",
        ),
        (
            "serve_simulate.json",
            "/v1/simulate",
            "{\"design\":\"figure1\",\"cycles\":200}",
        ),
        (
            "serve_analyze.json",
            "/v1/analyze",
            "{\"design\":\"figure1\"}",
        ),
    ];
    for (golden, path, body) in cases {
        let resp = client.post(path, body);
        assert_eq!(resp.status, 200, "{path}: {}", resp.text());
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert!(resp.text().ends_with('\n'), "{path}: newline-terminated");
        check_golden(golden, resp.text());
    }
    handle.shutdown();
}

#[test]
fn healthz_and_metrics_respond() {
    let (handle, client) = spawn(quiet_config());
    let health = client.get("/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), "ok\n");

    client.post("/v1/simulate", "{\"design\":\"figure1\",\"cycles\":200}");
    let metrics = client.get("/metrics");
    assert_eq!(metrics.status, 200);
    let page = metrics.text();
    assert!(
        page.contains("oiso_requests_total{endpoint=\"simulate\",status=\"200\"} 1"),
        "{page}"
    );
    assert!(
        page.contains("oiso_requests_total{endpoint=\"healthz\",status=\"200\"} 1"),
        "{page}"
    );
    assert!(page.contains("oiso_cache_misses_total 1"), "{page}");
    assert!(page.contains("oiso_queue_depth "), "{page}");
    assert!(
        page.contains("oiso_request_latency_ms_bucket{endpoint=\"simulate\",le=\"+Inf\"} 1"),
        "{page}"
    );
    handle.shutdown();
}

#[test]
fn error_taxonomy_is_structured_and_stable() {
    let (handle, client) = spawn(quiet_config());
    // (status, code, path, body)
    let cases: &[(u16, &str, &str, &str)] = &[
        (400, "bad_json", "/v1/isolate", "{\"design\""),
        (400, "bad_json", "/v1/isolate", ""),
        (400, "bad_field", "/v1/isolate", "{}"),
        (
            400,
            "bad_field",
            "/v1/isolate",
            "{\"design\":\"figure1\",\"style\":\"nand\"}",
        ),
        (
            400,
            "unknown_field",
            "/v1/isolate",
            "{\"design\":\"figure1\",\"bogus\":1}",
        ),
        (400, "unknown_design", "/v1/isolate", "{\"design\":\"nope\"}"),
        (400, "bad_design", "/v1/isolate", "not an oiso design"),
        (404, "not_found", "/v1/nope", "{}"),
        (404, "not_found", "/", ""),
    ];
    for &(status, code, path, body) in cases {
        let resp = client.post(path, body);
        assert_eq!(resp.status, status, "{path} {body:?}: {}", resp.text());
        assert!(
            resp.text()
                .starts_with(&format!("{{\"error\":{{\"code\":\"{code}\"")),
            "{path} {body:?}: {}",
            resp.text()
        );
    }

    // Wrong method on a known path.
    let resp = client.get("/v1/isolate");
    assert_eq!(resp.status, 405);
    assert!(resp.text().contains("\"method_not_allowed\""), "{}", resp.text());
    let resp = client.post("/metrics", "{}");
    assert_eq!(resp.status, 405);

    // A bad deadline header.
    let resp = client.request(
        "POST",
        "/v1/isolate",
        &[("X-Oiso-Deadline-Ms", "soon")],
        b"{\"design\":\"figure1\"}",
    );
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("\"bad_deadline\""), "{}", resp.text());

    // Raw garbage that is not even HTTP.
    let resp = client.send_raw(b"NONSENSE\r\n\r\n");
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("\"bad_request\""), "{}", resp.text());
    handle.shutdown();
}

#[test]
fn oversize_payloads_get_413_without_being_read() {
    let config = ServeConfig {
        max_body: 256,
        ..quiet_config()
    };
    let (handle, client) = spawn(config);
    let big = format!(
        "{{\"design\":\"figure1\",\"source\":\"{}\"}}",
        "x".repeat(1024)
    );
    let resp = client.post("/v1/isolate", &big);
    assert_eq!(resp.status, 413, "{}", resp.text());
    assert!(resp.text().contains("\"payload_too_large\""), "{}", resp.text());
    // A request under the cap still works on the same daemon.
    let resp = client.post("/v1/simulate", "{\"design\":\"figure1\",\"cycles\":200}");
    assert_eq!(resp.status, 200, "{}", resp.text());
    handle.shutdown();
}

#[test]
fn raw_oiso_bodies_run_with_default_config() {
    use operand_isolation::designs::{figure1, textfmt};
    let (handle, client) = spawn(quiet_config());
    let source = textfmt::emit(&figure1::build());
    let resp = client.post("/v1/simulate", &source);
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert!(resp.text().contains("\"design\":\"inline\""), "{}", resp.text());
    handle.shutdown();
}

#[test]
fn unicode_escapes_in_a_body_read_as_the_characters_they_encode() {
    use operand_isolation::core::escape_json;
    use operand_isolation::designs::{figure1, textfmt};
    let (handle, client) = spawn(quiet_config());
    let source = format!("# café 😀\n{}", textfmt::emit(&figure1::build()));
    let request = |source: &str| format!("{{\"source\":\"{source}\",\"cycles\":300}}");
    // What Python's `json.dumps` sends by default: non-ASCII characters
    // as `\u` escapes, the non-BMP one as a UTF-16 surrogate pair.
    let ascii = escape_json(&source)
        .replace('é', "\\u00e9")
        .replace('😀', "\\ud83d\\ude00");
    assert!(ascii.is_ascii());
    let escaped = client.post("/v1/isolate", &request(&ascii));
    assert_eq!(escaped.status, 200, "{}", escaped.text());
    let raw = client.post("/v1/isolate", &request(&escape_json(&source)));
    assert_eq!(raw.status, 200, "{}", raw.text());
    assert_eq!(escaped.body, raw.body);
    handle.shutdown();
}

#[test]
fn deadline_exceeded_isolate_degrades_to_truncated_not_a_hang() {
    let (handle, client) = spawn(quiet_config());
    // A 1 ms deadline cannot finish Algorithm 1; the response must still
    // be a well-formed 200 labeled truncated, served outside the cache.
    let resp = client.post_with_deadline(
        "/v1/isolate",
        "{\"design\":\"design1\",\"cycles\":2000}",
        1,
    );
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert!(resp.text().contains("\"truncated\":true"), "{}", resp.text());
    assert_eq!(resp.header("x-oiso-cache"), Some("bypass"));

    // The same request without a deadline is cached normally.
    let resp = client.post("/v1/isolate", "{\"design\":\"figure1\",\"cycles\":300}");
    assert_eq!(resp.header("x-oiso-cache"), Some("miss"));
    let resp = client.post("/v1/isolate", "{\"design\":\"figure1\",\"cycles\":300}");
    assert_eq!(resp.header("x-oiso-cache"), Some("hit"));
    handle.shutdown();
}

#[test]
fn cached_responses_are_byte_identical_to_fresh_ones() {
    let (handle, client) = spawn(quiet_config());
    let body = "{\"design\":\"figure1\",\"style\":\"latch\",\"cycles\":300}";
    let fresh = client.post("/v1/isolate", body);
    let cached = client.post("/v1/isolate", body);
    assert_eq!(fresh.status, 200);
    assert_eq!(fresh.body, cached.body, "hit serves the miss's exact bytes");
    assert_eq!(fresh.header("x-oiso-cache"), Some("miss"));
    assert_eq!(cached.header("x-oiso-cache"), Some("hit"));
    handle.shutdown();
}

#[test]
fn batch_envelope_is_pinned() {
    let (handle, client) = spawn(quiet_config());
    // Five kinds of slot in one batch: a compute (miss), a second
    // endpoint, an exact duplicate of the first item (dedup → hit), a
    // static analysis that never touches the simulator, and a schema
    // failure that must stay confined to its own slot.
    let body = concat!(
        "{\"items\":[",
        "{\"endpoint\":\"isolate\",\"design\":\"figure1\",\"style\":\"and\",\"cycles\":300},",
        "{\"endpoint\":\"lint\",\"design\":\"figure1\"},",
        "{\"endpoint\":\"isolate\",\"design\":\"figure1\",\"style\":\"and\",\"cycles\":300},",
        "{\"endpoint\":\"analyze\",\"design\":\"figure1\"},",
        "{\"endpoint\":\"simulate\",\"design\":\"nope\",\"cycles\":100}",
        "]}"
    );
    let resp = client.post("/v1/batch", body);
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("content-type"), Some("application/json"));
    let text = resp.text();
    assert!(text.contains("\"items\":5"), "{text}");
    assert!(text.contains("\"ok\":4"), "{text}");
    assert!(text.contains("\"error\":1"), "{text}");
    check_golden("serve_batch.json", text);

    // Re-running the identical batch flips the compute slots to cache
    // hits but leaves the payloads byte-identical inside the envelope.
    let again = client.post("/v1/batch", body);
    assert_eq!(again.status, 200);
    assert!(!again.text().contains("\"cache\":\"miss\""), "{}", again.text());
    handle.shutdown();
}

#[test]
fn batch_envelope_errors_reject_the_whole_request() {
    let (handle, client) = spawn(quiet_config());
    let item = "{\"endpoint\":\"lint\",\"design\":\"figure1\"}";
    let too_many: String = format!(
        "{{\"items\":[{}]}}",
        vec![item; 65].join(",")
    );
    // (code, body): envelope failures are 400s, never partial results.
    let cases: &[(&str, &str)] = &[
        ("bad_json", "[1,2,3]"),
        ("bad_field", "{}"),
        ("bad_field", "{\"items\":[]}"),
        ("bad_field", "{\"items\":7}"),
        ("unknown_field", "{\"items\":[{\"design\":\"figure1\"}],\"bogus\":1}"),
        ("bad_field", &too_many),
    ];
    for (code, body) in cases {
        let resp = client.post("/v1/batch", body);
        assert_eq!(resp.status, 400, "{body}: {}", resp.text());
        assert!(
            resp.text()
                .starts_with(&format!("{{\"error\":{{\"code\":\"{code}\"")),
            "{body}: {}",
            resp.text()
        );
    }
    // An item trying to set "stream" is an *item* failure: the envelope
    // still answers 200 with the rejection confined to that slot.
    let resp = client.post("/v1/batch", "{\"items\":[{\"design\":\"figure1\",\"stream\":true}]}");
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert!(
        resp.text()
            .contains("\"status\":\"error\",\"cache\":\"bypass\",\"response\":{\"error\":{\"code\":\"bad_field\""),
        "{}",
        resp.text()
    );
    handle.shutdown();
}

#[test]
fn batch_with_an_expired_deadline_sheds_every_item_without_tearing() {
    let (handle, client) = spawn(quiet_config());
    let body = concat!(
        "{\"items\":[",
        "{\"endpoint\":\"isolate\",\"design\":\"design1\",\"cycles\":2000},",
        "{\"endpoint\":\"simulate\",\"design\":\"figure1\",\"cycles\":200}",
        "]}"
    );
    let resp = client.request(
        "POST",
        "/v1/batch",
        &[("X-Oiso-Deadline-Ms", "0")],
        body.as_bytes(),
    );
    // The envelope itself still succeeds — shedding is per item.
    assert_eq!(resp.status, 200, "{}", resp.text());
    let text = resp.text();
    assert!(text.contains("\"shed\":2"), "{text}");
    assert!(text.contains("\"ok\":0"), "{text}");
    assert_eq!(text.matches("\"status\":\"shed\"").count(), 2, "{text}");
    assert_eq!(text.matches("\"batch_shed\"").count(), 2, "{text}");
    // Both slots are well-formed JSON error objects, not torn bytes.
    assert_eq!(
        text.matches("\"response\":{\"error\":{\"code\":\"batch_shed\"").count(),
        2,
        "{text}"
    );
    handle.shutdown();
}

#[test]
fn isolate_stream_emits_accepts_then_the_final_report() {
    let (handle, client) = spawn(quiet_config());
    let resp = client.post(
        "/v1/isolate",
        "{\"design\":\"figure1\",\"style\":\"and\",\"cycles\":300,\"stream\":true}",
    );
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
    assert_eq!(resp.header("content-type"), Some("application/x-ndjson"));
    assert_eq!(resp.header("x-oiso-cache"), Some("bypass"));
    let text = resp.text();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "accepts + done: {text}");
    for line in &lines[..lines.len() - 1] {
        assert!(line.starts_with("{\"event\":\"accept\""), "{line}");
    }
    let last = lines.last().expect("terminal event");
    assert!(last.starts_with("{\"event\":\"done\",\"report\":{"), "{last}");
    // The streamed report matches the non-streaming endpoint's body.
    let plain = client.post(
        "/v1/isolate",
        "{\"design\":\"figure1\",\"style\":\"and\",\"cycles\":300}",
    );
    let report = last
        .strip_prefix("{\"event\":\"done\",\"report\":")
        .and_then(|s| s.strip_suffix('}'))
        .expect("report is embedded verbatim");
    assert_eq!(plain.text().trim_end(), report);
    check_golden("serve_stream.jsonl", text);
    handle.shutdown();
}

#[test]
fn batch_stream_emits_items_in_order_then_a_summary() {
    let (handle, client) = spawn(quiet_config());
    let resp = client.post(
        "/v1/batch",
        concat!(
            "{\"stream\":true,\"items\":[",
            "{\"endpoint\":\"simulate\",\"design\":\"figure1\",\"cycles\":200},",
            "{\"endpoint\":\"lint\",\"design\":\"figure1\"},",
            "{\"endpoint\":\"simulate\",\"design\":\"nope\",\"cycles\":100}",
            "]}"
        ),
    );
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
    let lines: Vec<&str> = resp.text().lines().collect();
    assert_eq!(lines.len(), 4, "{}", resp.text());
    for (i, line) in lines[..3].iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"event\":\"item\",\"index\":{i},")),
            "item events arrive in item order: {line}"
        );
    }
    assert!(
        lines[3].starts_with("{\"event\":\"done\",\"items\":3,\"ok\":2,\"error\":1,\"shed\":0"),
        "{}",
        lines[3]
    );
    handle.shutdown();
}

#[test]
fn stream_is_rejected_off_isolate_and_batch() {
    let (handle, client) = spawn(quiet_config());
    for path in ["/v1/lint", "/v1/verify", "/v1/simulate", "/v1/analyze"] {
        let resp = client.post(path, "{\"design\":\"figure1\",\"stream\":true}");
        assert_eq!(resp.status, 400, "{path}: {}", resp.text());
        assert!(resp.text().contains("\"bad_field\""), "{path}: {}", resp.text());
    }
    handle.shutdown();
}

#[test]
fn batch_and_stream_show_up_in_metrics() {
    let (handle, client) = spawn(quiet_config());
    client.post(
        "/v1/batch",
        "{\"items\":[{\"endpoint\":\"lint\",\"design\":\"figure1\"},{\"design\":\"nope\"}]}",
    );
    client.post(
        "/v1/isolate",
        "{\"design\":\"figure1\",\"cycles\":300,\"stream\":true}",
    );
    let page = client.get("/metrics");
    let page = page.text();
    assert!(
        page.contains("oiso_batch_items_total{status=\"ok\"} 1"),
        "{page}"
    );
    assert!(
        page.contains("oiso_batch_items_total{status=\"error\"} 1"),
        "{page}"
    );
    assert!(
        !page.contains("oiso_batch_items_total{status=\"shed\"}"),
        "zero-count statuses are omitted: {page}"
    );
    let events: u64 = page
        .lines()
        .find_map(|l| l.strip_prefix("oiso_stream_events_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("stream counter present");
    assert!(events >= 2, "accepts + done: {page}");
    handle.shutdown();
}
