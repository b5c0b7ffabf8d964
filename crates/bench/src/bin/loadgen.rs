//! `loadgen` — load generator and correctness gate for the serve daemon.
//!
//! ```text
//! loadgen [--requests N] [--cycles N] [--json PATH] [--check]
//! ```
//!
//! Spawns in-process daemons on ephemeral ports (the genuine TCP path,
//! no fixtures) and measures three things:
//!
//! * **latency/throughput** — a fixed mixed corpus (simulate / lint /
//!   isolate over the bundled designs at varied seeds) driven at client
//!   widths 1, 4, and 16: requests per second, p50 and p99 latency.
//! * **shed behaviour** — a 1-worker, 2-slot daemon blasted with
//!   concurrent requests while the worker is pinned: the fraction of
//!   `503 overloaded` responses.
//! * **store effect** — the same isolate corpus against a `--store`
//!   daemon cold (empty directory) and again after a restart (warm):
//!   wall-clock speedup and the warm run's store hit count.
//!
//! `--check` exits nonzero when any corpus request fails, when overload
//! does not shed with `Retry-After`, or when the warm store run misses
//! any request — CI's `serve-v2-smoke` gate.
//!
//! `--json PATH` writes the measurements as `BENCH_serve.json`.

use oiso_bench::json::Json;
use oiso_serve::testing::Client;
use oiso_serve::{Server, ServeConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    requests: usize,
    cycles: u64,
    json: Option<String>,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        requests: 48,
        cycles: 150,
        json: None,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--requests" => {
                let v = it.next().ok_or("--requests needs a value")?;
                args.requests = v.parse().map_err(|e| format!("bad --requests: {e}"))?;
            }
            "--cycles" => {
                let v = it.next().ok_or("--cycles needs a value")?;
                args.cycles = v.parse().map_err(|e| format!("bad --cycles: {e}"))?;
            }
            "--json" => args.json = Some(it.next().ok_or("--json needs a path")?),
            "--check" => args.check = true,
            "--help" | "-h" => {
                return Err(
                    "usage: loadgen [--requests N] [--cycles N] [--json PATH] [--check]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if args.requests == 0 || args.cycles == 0 {
        return Err("--requests and --cycles must be positive".to_string());
    }
    Ok(args)
}

/// The mixed request corpus: deterministic, cache-hostile (every entry
/// has a distinct fingerprint thanks to the seed), cheap enough to run
/// hundreds of times.
fn corpus(n: usize, cycles: u64) -> Vec<(&'static str, String)> {
    let designs = ["figure1", "design1", "busnet", "alu_ctrl"];
    (0..n)
        .map(|i| {
            let design = designs[i % designs.len()];
            match i % 3 {
                0 => (
                    "/v1/simulate",
                    format!("{{\"design\":\"{design}\",\"cycles\":{cycles},\"seed\":{i}}}"),
                ),
                1 => ("/v1/lint", format!("{{\"design\":\"{design}\",\"seed\":{i}}}")),
                _ => (
                    "/v1/isolate",
                    format!("{{\"design\":\"{design}\",\"cycles\":{cycles},\"seed\":{i}}}"),
                ),
            }
        })
        .collect()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

struct WidthResult {
    width: usize,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    errors: usize,
}

/// Drives the corpus at `width` concurrent clients against a fresh
/// daemon with caching off (every request computes — this measures the
/// pipeline, not the LRU).
fn run_width(width: usize, corpus: &Arc<Vec<(&'static str, String)>>) -> WidthResult {
    let handle = Server::spawn(ServeConfig {
        cache_cap: 0,
        log: false,
        ..ServeConfig::default()
    })
    .expect("spawn daemon");
    let addr = handle.addr();
    let started = Instant::now();
    let mut threads = Vec::new();
    for w in 0..width {
        let corpus = Arc::clone(corpus);
        threads.push(std::thread::spawn(move || {
            let client = Client::new(addr);
            let mut latencies = Vec::new();
            let mut errors = 0usize;
            for (path, body) in corpus.iter().skip(w).step_by(width) {
                let t = Instant::now();
                let resp = client.post(path, body);
                latencies.push(t.elapsed().as_secs_f64() * 1e3);
                if resp.status != 200 {
                    errors += 1;
                }
            }
            (latencies, errors)
        }));
    }
    let mut latencies = Vec::new();
    let mut errors = 0usize;
    for t in threads {
        let (l, e) = t.join().expect("client thread");
        latencies.extend(l);
        errors += e;
    }
    let wall = started.elapsed().as_secs_f64();
    handle.shutdown();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    WidthResult {
        width,
        throughput_rps: latencies.len() as f64 / wall.max(1e-9),
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        errors,
    }
}

struct ShedResult {
    blast: usize,
    shed: usize,
    shed_rate: f64,
    retry_after_seen: bool,
}

/// Pins the single worker with a slow isolate, then blasts the 2-slot
/// queue: everything past the slots must come back `503 overloaded`
/// with a `Retry-After` hint.
fn run_shed(cycles: u64) -> ShedResult {
    let handle = Server::spawn(ServeConfig {
        threads: 1,
        queue_cap: 2,
        cache_cap: 0,
        log: false,
        ..ServeConfig::default()
    })
    .expect("spawn daemon");
    let addr = handle.addr();
    let pin = std::thread::spawn(move || {
        Client::new(addr).post(
            "/v1/isolate",
            &format!("{{\"design\":\"design1\",\"cycles\":{}}}", cycles * 8),
        )
    });
    std::thread::sleep(std::time::Duration::from_millis(100));
    let blast = 16usize;
    let mut threads = Vec::new();
    for i in 0..blast {
        threads.push(std::thread::spawn(move || {
            let resp = Client::new(addr).post(
                "/v1/simulate",
                &format!("{{\"design\":\"figure1\",\"cycles\":50,\"seed\":{i}}}"),
            );
            (resp.status, resp.header("retry-after").map(str::to_string))
        }));
    }
    let mut shed = 0usize;
    let mut retry_after_seen = false;
    for t in threads {
        let (status, retry) = t.join().expect("blast thread");
        if status == 503 {
            shed += 1;
            retry_after_seen |= retry.is_some();
        }
    }
    let _ = pin.join();
    handle.shutdown();
    ShedResult {
        blast,
        shed,
        shed_rate: shed as f64 / blast as f64,
        retry_after_seen,
    }
}

struct StoreResult {
    requests: usize,
    cold_ms: f64,
    warm_ms: f64,
    speedup: f64,
    warm_hits: u64,
}

fn metric_value(page: &str, name: &str) -> u64 {
    page.lines()
        .find_map(|l| l.strip_prefix(name).map(str::trim))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Cold run into an empty store directory, restart, warm run: the warm
/// pass must be answered from disk.
fn run_store(cycles: u64, dir: &std::path::Path) -> StoreResult {
    let reqs: Vec<String> = (0..6)
        .map(|i| format!("{{\"design\":\"design1\",\"cycles\":{cycles},\"seed\":{i}}}"))
        .collect();
    let run = |label: &str| -> (f64, u64) {
        let handle = Server::spawn(ServeConfig {
            store: Some(dir.to_path_buf()),
            log: false,
            ..ServeConfig::default()
        })
        .expect("spawn store daemon");
        let client = Client::new(handle.addr());
        let t = Instant::now();
        for body in &reqs {
            let resp = client.post("/v1/isolate", body);
            assert_eq!(resp.status, 200, "{label} isolate failed: {}", resp.text());
        }
        let elapsed = t.elapsed().as_secs_f64() * 1e3;
        let hits = metric_value(&handle.metrics_page(), "oiso_store_hits_total");
        handle.shutdown();
        (elapsed, hits)
    };
    let (cold_ms, _) = run("cold");
    let (warm_ms, warm_hits) = run("warm");
    StoreResult {
        requests: reqs.len(),
        cold_ms,
        warm_ms,
        speedup: cold_ms / warm_ms.max(1e-9),
        warm_hits,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let corpus = Arc::new(corpus(args.requests, args.cycles));
    println!(
        "loadgen: corpus of {} requests ({} cycles per simulation)",
        corpus.len(),
        args.cycles
    );

    let mut widths = Vec::new();
    for width in [1usize, 4, 16] {
        let r = run_width(width, &corpus);
        println!(
            "loadgen: width {:2} -> {:7.1} req/s  p50 {:6.1} ms  p99 {:6.1} ms  errors {}",
            r.width, r.throughput_rps, r.p50_ms, r.p99_ms, r.errors
        );
        widths.push(r);
    }

    let shed = run_shed(args.cycles);
    println!(
        "loadgen: shed {}/{} ({:.0}%), Retry-After seen: {}",
        shed.shed,
        shed.blast,
        shed.shed_rate * 100.0,
        shed.retry_after_seen
    );

    let store_dir = std::env::temp_dir().join(format!("oiso-loadgen-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = run_store(args.cycles, &store_dir);
    println!(
        "loadgen: store cold {:.1} ms -> warm {:.1} ms ({:.1}x, {} warm hits)",
        store.cold_ms, store.warm_ms, store.speedup, store.warm_hits
    );
    let _ = std::fs::remove_dir_all(&store_dir);

    if let Some(path) = &args.json {
        let doc = Json::obj([
            ("bench", Json::str("serve")),
            ("requests", Json::int(args.requests)),
            ("cycles", Json::int(args.cycles as usize)),
            (
                "widths",
                Json::Arr(
                    widths
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("width", Json::int(r.width)),
                                ("throughput_rps", Json::num(r.throughput_rps)),
                                ("p50_ms", Json::num(r.p50_ms)),
                                ("p99_ms", Json::num(r.p99_ms)),
                                ("errors", Json::int(r.errors)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "shed",
                Json::obj([
                    ("blast", Json::int(shed.blast)),
                    ("queue_cap", Json::int(2)),
                    ("workers", Json::int(1)),
                    ("shed", Json::int(shed.shed)),
                    ("shed_rate", Json::num(shed.shed_rate)),
                    ("retry_after_seen", Json::Bool(shed.retry_after_seen)),
                ]),
            ),
            (
                "store",
                Json::obj([
                    ("requests", Json::int(store.requests)),
                    ("cold_ms", Json::num(store.cold_ms)),
                    ("warm_ms", Json::num(store.warm_ms)),
                    ("speedup", Json::num(store.speedup)),
                    ("warm_hits", Json::int(store.warm_hits as usize)),
                ]),
            ),
        ]);
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("loadgen: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("loadgen: wrote {path}");
    }

    if args.check {
        let mut failed = false;
        if widths.iter().any(|r| r.errors > 0) {
            eprintln!("loadgen: CHECK FAILED: non-200 responses under load");
            failed = true;
        }
        if shed.shed == 0 || !shed.retry_after_seen {
            eprintln!("loadgen: CHECK FAILED: overload did not shed with Retry-After");
            failed = true;
        }
        if store.warm_hits < store.requests as u64 {
            eprintln!(
                "loadgen: CHECK FAILED: warm store run hit {} of {} requests",
                store.warm_hits, store.requests
            );
            failed = true;
        }
        if failed {
            return ExitCode::FAILURE;
        }
        println!("loadgen: all checks passed");
    }
    ExitCode::SUCCESS
}
