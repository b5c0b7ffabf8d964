//! Deterministic text metrics for `GET /metrics`.
//!
//! Prometheus-style exposition, rendered from `BTreeMap`s and a fixed
//! bucket ladder so two snapshots of the same counter state produce the
//! same bytes — the smoke test greps this page. Counters are updated
//! with short lock holds (request recording) or plain atomics (sheds,
//! panics); the expensive pipeline work never runs under these locks.

use crate::api::Endpoint;
use crate::cache::CacheStats;
use crate::store::StoreStats;
use oiso_sim::MemoStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Upper bounds (milliseconds) of the latency histogram buckets; the
/// final implicit bucket is `+Inf`.
pub const LATENCY_BUCKETS_MS: &[u64] = &[
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
];

#[derive(Default)]
struct Histogram {
    /// One count per entry of [`LATENCY_BUCKETS_MS`] plus `+Inf`.
    buckets: Vec<u64>,
    count: u64,
    sum_ms: u64,
}

impl Histogram {
    fn observe(&mut self, ms: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; LATENCY_BUCKETS_MS.len() + 1];
        }
        let idx = LATENCY_BUCKETS_MS
            .iter()
            .position(|&le| ms <= le)
            .unwrap_or(LATENCY_BUCKETS_MS.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ms += ms;
    }
}

/// Request counters, latency histograms, and overload/panic tallies.
#[derive(Default)]
pub struct Metrics {
    /// `(endpoint label, status)` → request count.
    requests: Mutex<BTreeMap<(&'static str, u16), u64>>,
    /// endpoint label → latency histogram.
    latency: Mutex<BTreeMap<&'static str, Histogram>>,
    /// batch item status (`ok` / `error` / `shed`) → item count.
    batch_items: Mutex<BTreeMap<&'static str, u64>>,
    stream_events: AtomicU64,
    shed: AtomicU64,
    panics: AtomicU64,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("shed", &self.shed.load(Ordering::Relaxed))
            .field("panics", &self.panics.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one completed request.
    pub fn record(&self, endpoint: Endpoint, status: u16, elapsed_ms: u64) {
        self.record_for_label(endpoint.label(), status, elapsed_ms);
    }

    /// [`Metrics::record`] for requests that never resolved to an
    /// endpoint — the server labels unreadable requests `"invalid"` and
    /// unroutable ones `"other"`.
    pub fn record_for_label(&self, label: &'static str, status: u16, elapsed_ms: u64) {
        *self
            .requests
            .lock()
            .expect("metrics lock")
            .entry((label, status))
            .or_insert(0) += 1;
        self.latency
            .lock()
            .expect("metrics lock")
            .entry(label)
            .or_default()
            .observe(elapsed_ms);
    }

    /// Records `n` batch items resolving with `status` (`"ok"`,
    /// `"error"`, or `"shed"`).
    pub fn record_batch_items(&self, status: &'static str, n: usize) {
        if n > 0 {
            *self
                .batch_items
                .lock()
                .expect("metrics lock")
                .entry(status)
                .or_insert(0) += n as u64;
        }
    }

    /// Records `n` streamed progress events written to clients.
    pub fn record_stream_events(&self, n: u64) {
        self.stream_events.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a connection shed because the queue was full.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request handler panic (caught; worker survived).
    pub fn record_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the full `/metrics` page. `queue_depth` is sampled by the
    /// caller (the server owns the queue), as are the cache, sim-memo,
    /// and (when configured) result-store snapshots.
    pub fn render(
        &self,
        cache: &CacheStats,
        memo: &MemoStats,
        queue_depth: usize,
        store: Option<&StoreStats>,
    ) -> String {
        let mut out = String::new();
        out.push_str("# oiso-serve metrics (deterministic text exposition)\n");
        for (&(endpoint, status), &count) in
            self.requests.lock().expect("metrics lock").iter()
        {
            let _ = writeln!(
                out,
                "oiso_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {count}"
            );
        }
        for (&endpoint, hist) in self.latency.lock().expect("metrics lock").iter() {
            let mut cumulative = 0;
            for (i, &bucket) in hist.buckets.iter().enumerate() {
                cumulative += bucket;
                let le = LATENCY_BUCKETS_MS
                    .get(i)
                    .map(|ms| ms.to_string())
                    .unwrap_or_else(|| "+Inf".to_string());
                let _ = writeln!(
                    out,
                    "oiso_request_latency_ms_bucket{{endpoint=\"{endpoint}\",le=\"{le}\"}} {cumulative}"
                );
            }
            let _ = writeln!(
                out,
                "oiso_request_latency_ms_count{{endpoint=\"{endpoint}\"}} {}",
                hist.count
            );
            let _ = writeln!(
                out,
                "oiso_request_latency_ms_sum{{endpoint=\"{endpoint}\"}} {}",
                hist.sum_ms
            );
        }
        let _ = writeln!(out, "oiso_cache_hits_total {}", cache.hits);
        let _ = writeln!(out, "oiso_cache_misses_total {}", cache.misses);
        let _ = writeln!(out, "oiso_cache_evictions_total {}", cache.evictions);
        let _ = writeln!(out, "oiso_cache_entries {}", cache.entries);
        let _ = writeln!(out, "oiso_memo_hits_total {}", memo.hits);
        let _ = writeln!(out, "oiso_memo_misses_total {}", memo.misses);
        let _ = writeln!(out, "oiso_memo_evictions_total {}", memo.evictions);
        let _ = writeln!(out, "oiso_memo_entries {}", memo.entries);
        if let Some(store) = store {
            let _ = writeln!(out, "oiso_store_hits_total {}", store.hits);
            let _ = writeln!(out, "oiso_store_misses_total {}", store.misses);
            let _ = writeln!(out, "oiso_store_appends_total {}", store.appends);
            let _ = writeln!(
                out,
                "oiso_store_load_warnings_total {}",
                store.load_warnings
            );
            let _ = writeln!(
                out,
                "oiso_store_checksum_skips_total {}",
                store.checksum_skips
            );
            let _ = writeln!(out, "oiso_store_entries {}", store.entries);
        }
        for (&status, &count) in self.batch_items.lock().expect("metrics lock").iter() {
            let _ = writeln!(out, "oiso_batch_items_total{{status=\"{status}\"}} {count}");
        }
        let _ = writeln!(
            out,
            "oiso_stream_events_total {}",
            self.stream_events.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "oiso_queue_depth {queue_depth}");
        let _ = writeln!(out, "oiso_shed_total {}", self.shed.load(Ordering::Relaxed));
        let _ = writeln!(
            out,
            "oiso_panics_total {}",
            self.panics.load(Ordering::Relaxed)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memo_stats() -> MemoStats {
        MemoStats {
            entries: 2,
            capacity: Some(8),
            hits: 3,
            misses: 2,
            evictions: 0,
        }
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let metrics = Metrics::new();
        metrics.record(Endpoint::Isolate, 200, 12);
        metrics.record(Endpoint::Isolate, 200, 3);
        metrics.record(Endpoint::Lint, 400, 0);
        metrics.record_shed();
        let cache = CacheStats {
            hits: 7,
            misses: 1,
            evictions: 0,
            entries: 1,
        };
        metrics.record_batch_items("ok", 3);
        metrics.record_batch_items("shed", 1);
        metrics.record_batch_items("error", 0); // no-op, no series
        metrics.record_stream_events(5);
        let store = StoreStats {
            entries: 2,
            hits: 4,
            misses: 1,
            appends: 2,
            load_warnings: 1,
            checksum_skips: 3,
        };
        let a = metrics.render(&cache, &memo_stats(), 4, Some(&store));
        let b = metrics.render(&cache, &memo_stats(), 4, Some(&store));
        assert_eq!(a, b, "two renders of the same state are byte-identical");
        assert!(a.contains("oiso_store_hits_total 4"));
        assert!(a.contains("oiso_store_load_warnings_total 1"));
        assert!(a.contains("oiso_store_checksum_skips_total 3"));
        assert!(a.contains("oiso_store_entries 2"));
        assert!(a.contains("oiso_batch_items_total{status=\"ok\"} 3"));
        assert!(a.contains("oiso_batch_items_total{status=\"shed\"} 1"));
        assert!(!a.contains("status=\"error\""), "zero-count series omitted");
        assert!(a.contains("oiso_stream_events_total 5"));
        assert!(a.contains("oiso_requests_total{endpoint=\"isolate\",status=\"200\"} 2"));
        assert!(a.contains("oiso_requests_total{endpoint=\"lint\",status=\"400\"} 1"));
        assert!(a.contains("oiso_request_latency_ms_bucket{endpoint=\"isolate\",le=\"5\"} 1"));
        assert!(a.contains("oiso_request_latency_ms_bucket{endpoint=\"isolate\",le=\"+Inf\"} 2"));
        assert!(a.contains("oiso_request_latency_ms_count{endpoint=\"isolate\"} 2"));
        assert!(a.contains("oiso_request_latency_ms_sum{endpoint=\"isolate\"} 15"));
        assert!(a.contains("oiso_cache_hits_total 7"));
        assert!(a.contains("oiso_memo_misses_total 2"));
        assert!(a.contains("oiso_queue_depth 4"));
        assert!(a.contains("oiso_shed_total 1"));
        assert!(a.contains("oiso_panics_total 0"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let metrics = Metrics::new();
        for ms in [0, 1, 2, 30, 20_000] {
            metrics.record(Endpoint::Simulate, 200, ms);
        }
        let page = metrics.render(&CacheStats::default(), &memo_stats(), 0, None);
        assert!(
            !page.contains("oiso_store_"),
            "store series appear only when configured"
        );
        assert!(page.contains("{endpoint=\"simulate\",le=\"1\"} 2"));
        assert!(page.contains("{endpoint=\"simulate\",le=\"2\"} 3"));
        assert!(page.contains("{endpoint=\"simulate\",le=\"50\"} 4"));
        assert!(page.contains("{endpoint=\"simulate\",le=\"10000\"} 4"));
        assert!(page.contains("{endpoint=\"simulate\",le=\"+Inf\"} 5"));
    }
}
