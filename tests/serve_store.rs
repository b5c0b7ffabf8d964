//! Persistence tests for the daemon's disk-backed result store: cached
//! `200`s must survive a full restart byte-for-byte, torn or corrupted
//! store files must degrade to warnings (a cache rebuilds; it never
//! takes the daemon down), and store keys must be engine-invariant so
//! any simulation engine answers from the same entry.
//!
//! Every test drives a real daemon over real TCP on an ephemeral port:
//! in-process, or a real `oiso serve` child process where the test must
//! `SIGKILL` it.

use operand_isolation::serve::testing::Client;
use operand_isolation::serve::{ServeConfig, Server, ServerHandle};
use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn spawn_with_store(dir: &Path) -> (ServerHandle, Client) {
    let handle = Server::spawn(ServeConfig {
        store: Some(dir.to_path_buf()),
        log: false,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let client = Client::new(handle.addr());
    (handle, client)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oiso-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn metric(page: &str, name: &str) -> u64 {
    page.lines()
        .find_map(|l| l.strip_prefix(name).map(str::trim))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{page}"))
}

#[test]
fn cached_responses_survive_a_daemon_restart() {
    let dir = temp_dir("store-restart");
    let body = "{\"design\":\"figure1\",\"style\":\"and\",\"cycles\":300}";

    let (handle, client) = spawn_with_store(&dir);
    let fresh = client.post("/v1/isolate", body);
    assert_eq!(fresh.status, 200, "{}", fresh.text());
    assert_eq!(fresh.header("x-oiso-cache"), Some("miss"));
    handle.shutdown();

    // A brand-new process (fresh LRU, fresh memo) over the same store
    // directory: the first request is already a hit, bytes identical.
    let (handle, client) = spawn_with_store(&dir);
    let revived = client.post("/v1/isolate", body);
    assert_eq!(revived.status, 200, "{}", revived.text());
    assert_eq!(revived.header("x-oiso-cache"), Some("hit"));
    assert_eq!(revived.body, fresh.body, "the store serves the exact bytes");
    let page = handle.metrics_page();
    assert_eq!(metric(&page, "oiso_store_hits_total"), 1, "{page}");
    assert!(metric(&page, "oiso_store_entries") >= 1, "{page}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tails_and_corrupted_lines_warn_but_never_crash() {
    let dir = temp_dir("store-torn");
    let (handle, client) = spawn_with_store(&dir);
    for seed in 0..3 {
        let resp = client.post(
            "/v1/simulate",
            &format!("{{\"design\":\"figure1\",\"cycles\":200,\"seed\":{seed}}}"),
        );
        assert_eq!(resp.status, 200, "{}", resp.text());
    }
    handle.shutdown();

    // Corrupt one interior line and tear the tail mid-record — exactly
    // what a crash mid-append leaves behind.
    let file = dir.join("store-0.jsonl");
    let text = std::fs::read_to_string(&file).expect("store file exists");
    let mut lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 4, "header + 3 entries: {text}");
    lines[1] = "{\"kind\":\"entry\",\"key\":\"not-hex\"}";
    let mut mangled = lines.join("\n");
    mangled.push_str("\n{\"kind\":\"entry\",\"key\":\"00");
    std::fs::write(&file, mangled).expect("rewrite store file");

    let (handle, client) = spawn_with_store(&dir);
    let page = handle.metrics_page();
    assert_eq!(metric(&page, "oiso_store_load_warnings_total"), 2, "{page}");
    // The intact entries still load, and the daemon still serves.
    assert_eq!(metric(&page, "oiso_store_entries"), 2, "{page}");
    let resp = client.post(
        "/v1/simulate",
        "{\"design\":\"figure1\",\"cycles\":200,\"seed\":2}",
    );
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("x-oiso-cache"), Some("hit"));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_keys_are_engine_invariant() {
    let dir = temp_dir("store-engines");
    let (handle, client) = spawn_with_store(&dir);
    // The engines are differentially tested to be bit-identical, so the
    // store key deliberately excludes the engine: one entry that every
    // later request hits, whichever engine it names.
    let body = |engine: &str| {
        format!("{{\"design\":\"figure1\",\"cycles\":300,\"engine\":\"{engine}\"}}")
    };
    let scalar = client.post("/v1/isolate", &body("scalar"));
    assert_eq!(scalar.status, 200, "{}", scalar.text());
    assert_eq!(scalar.header("x-oiso-cache"), Some("miss"));
    for engine in ["compiled", "scalar"] {
        let resp = client.post("/v1/isolate", &body(engine));
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(resp.header("x-oiso-cache"), Some("hit"), "engine {engine}");
        assert_eq!(resp.body, scalar.body, "engine {engine} shares the entry");
    }
    let page = handle.metrics_page();
    assert_eq!(metric(&page, "oiso_store_entries"), 1, "{page}");
    handle.shutdown();

    // And the shared entry survives a restart regardless of the engine
    // the reviving request names.
    let (handle, client) = spawn_with_store(&dir);
    let revived = client.post("/v1/isolate", &body("compiled"));
    assert_eq!(revived.header("x-oiso-cache"), Some("hit"));
    assert_eq!(revived.body, scalar.body);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_bearing_requests_never_pollute_the_store() {
    let dir = temp_dir("store-deadline");
    let (handle, client) = spawn_with_store(&dir);
    let resp = client.post_with_deadline(
        "/v1/isolate",
        "{\"design\":\"design1\",\"cycles\":2000}",
        1,
    );
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("x-oiso-cache"), Some("bypass"));
    let page = handle.metrics_page();
    assert_eq!(metric(&page, "oiso_store_entries"), 0, "{page}");
    assert_eq!(metric(&page, "oiso_store_appends_total"), 0, "{page}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A real `oiso serve --port 0 --store DIR --quiet` child process,
/// killed (if still alive) on drop.
struct Daemon {
    child: Child,
    client: Client,
}

impl Daemon {
    fn spawn(dir: &Path, threads: usize) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_oiso"))
            .args(["serve", "--port", "0", "--threads", &threads.to_string()])
            .arg("--store")
            .arg(dir)
            .arg("--quiet")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn oiso serve");
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("read the banner");
        let addr = banner
            .strip_prefix("oiso-serve listening on http://")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .unwrap_or_else(|| panic!("no listening line: {banner:?}"));
        // Keep draining so the daemon never writes into a closed pipe.
        std::thread::spawn(move || std::io::copy(&mut stdout, &mut std::io::sink()));
        Daemon {
            child,
            client: Client::new(addr),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn a_sigkilled_daemon_restarts_warm_from_the_store() {
    let body = "{\"design\":\"figure1\",\"cycles\":200,\"seed\":3}";
    for threads in [1, 2, 4] {
        let dir = temp_dir(&format!("store-sigkill-t{threads}"));
        let mut daemon = Daemon::spawn(&dir, threads);
        let first = daemon.client.post("/v1/simulate", body);
        assert_eq!(first.status, 200, "{}", first.text());
        assert_eq!(first.header("x-oiso-cache"), Some("miss"));

        // `Child::kill` is SIGKILL: no drain, no final flush. Only the
        // store's per-append flush stands between the result and loss.
        daemon.child.kill().expect("SIGKILL the daemon");
        daemon.child.wait().expect("reap the daemon");
        drop(daemon);

        let daemon = Daemon::spawn(&dir, threads);
        let replay = daemon.client.post("/v1/simulate", body);
        assert_eq!(replay.status, 200, "{}", replay.text());
        assert_eq!(
            replay.header("x-oiso-cache"),
            Some("hit"),
            "threads {threads}: the restarted daemon serves the stored result"
        );
        assert_eq!(replay.body, first.body, "threads {threads}: bytes changed");
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Flips one digit inside the body of the first entry of a store
/// record file: damage that still parses as JSON, so only the checksum
/// can catch it. Returns whether a digit was found to flip.
fn flip_store_digit(path: &Path) -> bool {
    let text = std::fs::read_to_string(path).expect("read the store file");
    let mut out = String::with_capacity(text.len());
    let mut flipped = false;
    for line in text.split_inclusive('\n') {
        if !flipped && line.contains("\"kind\":\"entry\"") {
            if let Some(pos) = line.find("\"body\":\"") {
                let body_start = pos + "\"body\":\"".len();
                if let Some(rel) = line[body_start..].find(|c: char| c.is_ascii_digit()) {
                    let at = body_start + rel;
                    let new = if line.as_bytes()[at] == b'7' { '3' } else { '7' };
                    out.push_str(&line[..at]);
                    out.push(new);
                    out.push_str(&line[at + 1..]);
                    flipped = true;
                    continue;
                }
            }
        }
        out.push_str(line);
    }
    std::fs::write(path, out).expect("rewrite the store file");
    flipped
}

#[test]
fn a_bit_flipped_record_is_detected_and_recomputed_byte_identically() {
    // A simulate result: re-executing it is deterministic, so the
    // recomputed body must equal the original bytes.
    let body = "{\"design\":\"figure1\",\"cycles\":200,\"seed\":5}";
    for threads in [1, 2, 4] {
        let dir = temp_dir(&format!("store-bitflip-t{threads}"));
        let spawn = || {
            let handle = Server::spawn(ServeConfig {
                threads,
                store: Some(dir.clone()),
                log: false,
                ..ServeConfig::default()
            })
            .expect("bind an ephemeral port");
            let client = Client::new(handle.addr());
            (handle, client)
        };
        let (handle, client) = spawn();
        let original = client.post("/v1/simulate", body);
        assert_eq!(original.status, 200, "{}", original.text());
        handle.shutdown();

        assert!(
            flip_store_digit(&dir.join("store-0.jsonl")),
            "no stored digit to flip"
        );

        let (handle, client) = spawn();
        let page = handle.metrics_page();
        assert!(
            metric(&page, "oiso_store_checksum_skips_total") >= 1,
            "threads {threads}: the flip went undetected\n{page}"
        );
        let recomputed = client.post("/v1/simulate", body);
        assert_eq!(recomputed.status, 200, "{}", recomputed.text());
        assert_eq!(
            recomputed.header("x-oiso-cache"),
            Some("miss"),
            "threads {threads}: a damaged record is never served"
        );
        assert_eq!(recomputed.body, original.body, "threads {threads}");
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
