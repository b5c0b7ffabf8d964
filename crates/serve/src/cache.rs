//! Fingerprint-keyed, single-flight LRU cache of rendered responses.
//!
//! The daemon's determinism guarantee — identical design + config in,
//! byte-identical body out — makes whole responses cacheable: the key is
//! an FNV fingerprint of `(endpoint, netlist fingerprint, stimulus-plan
//! fingerprint, config)`, computed by the API layer, and the value is
//! the rendered [`Response`].
//!
//! The cache is *single-flight*: when N identical requests arrive
//! concurrently, exactly one computes while the other N−1 block on a
//! condvar and then report as hits. Without this, a burst of identical
//! requests would all miss and compute redundantly — and the
//! `serve_concurrent` test's "hits == N−1" assertion would be racy. A
//! panic inside the computing request is survivable: a drop guard clears
//! the in-flight marker and wakes waiters, one of which takes over.

use crate::http::Response;
use crate::store::ResultStore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// How a request interacted with the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheRole {
    /// Served from the cache (including after waiting on the computing
    /// request).
    Hit,
    /// Computed here and (if cacheable) inserted.
    Miss,
    /// Not consulted — deadline-bearing request, uncacheable endpoint,
    /// or a disabled cache.
    Bypass,
}

impl CacheRole {
    /// Lowercase label for the `X-Oiso-Cache` header and access logs.
    pub fn label(self) -> &'static str {
        match self {
            CacheRole::Hit => "hit",
            CacheRole::Miss => "miss",
            CacheRole::Bypass => "bypass",
        }
    }
}

/// Counter snapshot for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that computed (and possibly inserted).
    pub misses: u64,
    /// Entries displaced by capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

#[derive(Default)]
struct CacheState {
    map: HashMap<u64, Response>,
    /// Keys from least- to most-recently used.
    order: Vec<u64>,
    /// Keys being computed right now by some request.
    inflight: Vec<u64>,
}

/// The single-flight LRU response cache.
pub struct ResultCache {
    cap: usize,
    state: Mutex<CacheState>,
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    entries: AtomicUsize,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("cap", &self.cap)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ResultCache {
    /// Creates a cache holding up to `cap` responses (`0` disables it:
    /// every lookup is a [`CacheRole::Bypass`]).
    pub fn new(cap: usize) -> Self {
        ResultCache {
            cap,
            state: Mutex::new(CacheState::default()),
            ready: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: AtomicUsize::new(0),
        }
    }

    /// Looks up `key`, computing (single-flight) on a miss. Only `200`
    /// responses are retained — errors are cheap to recompute and must
    /// not occupy capacity.
    pub fn get_or_compute(
        &self,
        key: u64,
        compute: impl FnOnce() -> Response,
    ) -> (Response, CacheRole) {
        self.get_or_compute_with_store(key, None, "", compute)
    }

    /// [`Self::get_or_compute`] with a durable tier underneath: on an
    /// in-memory miss the [`ResultStore`] is consulted before computing
    /// (a store hit is promoted into the LRU and reported as a
    /// [`CacheRole::Hit`] — restart survival looks like any other hit),
    /// and freshly computed `200`s are appended to the store. With the
    /// LRU disabled (`cap == 0`) the store alone answers, single-flight
    /// still applying to computes.
    pub fn get_or_compute_with_store(
        &self,
        key: u64,
        store: Option<&ResultStore>,
        endpoint: &str,
        compute: impl FnOnce() -> Response,
    ) -> (Response, CacheRole) {
        if self.cap == 0 {
            let Some(store) = store else {
                return (compute(), CacheRole::Bypass);
            };
            if let Some(resp) = store.get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (resp, CacheRole::Hit);
            }
            let response = compute();
            store.put(key, endpoint, &response);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return (response, CacheRole::Miss);
        }
        {
            let mut state = self.state.lock().expect("cache lock");
            loop {
                if let Some(resp) = state.map.get(&key) {
                    let resp = resp.clone();
                    touch(&mut state.order, key);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (resp, CacheRole::Hit);
                }
                if state.inflight.contains(&key) {
                    state = self.ready.wait(state).expect("cache lock");
                } else {
                    state.inflight.push(key);
                    break;
                }
            }
        }
        // Consult the durable tier (outside the lock) before paying for
        // a compute; a store hit is promoted into the LRU. The guard
        // keeps a panicking compute from wedging every waiter: its Drop
        // clears the in-flight marker and wakes them so one can take
        // over.
        let guard = InflightGuard { cache: self, key };
        let (response, from_store) = match store.and_then(|s| s.get(key)) {
            Some(resp) => (resp, true),
            None => (compute(), false),
        };
        std::mem::forget(guard);
        if !from_store && response.status == 200 {
            if let Some(store) = store {
                store.put(key, endpoint, &response);
            }
        }
        let mut state = self.state.lock().expect("cache lock");
        state.inflight.retain(|&k| k != key);
        if response.status == 200 {
            if state.map.len() >= self.cap && !state.map.contains_key(&key) {
                if let Some(oldest) = state.order.first().copied() {
                    state.map.remove(&oldest);
                    state.order.retain(|&k| k != oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            state.map.insert(key, response.clone());
            touch(&mut state.order, key);
        }
        self.entries.store(state.map.len(), Ordering::Relaxed);
        let role = if from_store {
            self.hits.fetch_add(1, Ordering::Relaxed);
            CacheRole::Hit
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            CacheRole::Miss
        };
        drop(state);
        self.ready.notify_all();
        (response, role)
    }

    /// Counter snapshot (cheap atomic reads; not a single consistent
    /// cut).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }
}

fn touch(order: &mut Vec<u64>, key: u64) {
    order.retain(|&k| k != key);
    order.push(key);
}

struct InflightGuard<'a> {
    cache: &'a ResultCache,
    key: u64,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.cache.state.lock().expect("cache lock");
        state.inflight.retain(|&k| k != self.key);
        drop(state);
        self.cache.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn ok(body: &str) -> Response {
        Response::json(200, body)
    }

    #[test]
    fn hit_after_miss_returns_identical_bytes() {
        let cache = ResultCache::new(4);
        let (a, role_a) = cache.get_or_compute(7, || ok("{\"x\":1}\n"));
        let (b, role_b) = cache.get_or_compute(7, || panic!("must not recompute"));
        assert_eq!(role_a, CacheRole::Miss);
        assert_eq!(role_b, CacheRole::Hit);
        assert_eq!(a.body, b.body);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = ResultCache::new(2);
        cache.get_or_compute(1, || ok("1"));
        cache.get_or_compute(2, || ok("2"));
        cache.get_or_compute(1, || panic!("1 is resident")); // refresh 1
        cache.get_or_compute(3, || ok("3")); // evicts 2
        assert_eq!(cache.stats().evictions, 1);
        let (_, role) = cache.get_or_compute(2, || ok("2 again"));
        assert_eq!(role, CacheRole::Miss, "2 was the LRU victim");
        // Re-inserting 2 evicted 1 (the LRU after 3 landed); 3 remains.
        let (_, role) = cache.get_or_compute(3, || panic!("3 survived"));
        assert_eq!(role, CacheRole::Hit);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn errors_are_not_retained() {
        let cache = ResultCache::new(4);
        let (_, role) = cache.get_or_compute(9, || Response::json(422, "{}"));
        assert_eq!(role, CacheRole::Miss);
        let (_, role) = cache.get_or_compute(9, || ok("now fine"));
        assert_eq!(role, CacheRole::Miss, "the 422 was not cached");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn zero_capacity_always_bypasses() {
        let cache = ResultCache::new(0);
        let (_, role) = cache.get_or_compute(1, || ok("x"));
        assert_eq!(role, CacheRole::Bypass);
        let (_, role) = cache.get_or_compute(1, || ok("x"));
        assert_eq!(role, CacheRole::Bypass);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn concurrent_identical_requests_compute_exactly_once() {
        let cache = Arc::new(ResultCache::new(4));
        let computes = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            handles.push(std::thread::spawn(move || {
                let (resp, _) = cache.get_or_compute(42, move || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    ok("{\"r\":1}\n")
                });
                resp.body
            }));
        }
        let bodies: Vec<Vec<u8>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(computes.load(Ordering::SeqCst), 1, "single-flight");
        assert!(bodies.windows(2).all(|w| w[0] == w[1]));
        let stats = cache.stats();
        assert_eq!(stats.hits, 7);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn store_hit_is_promoted_and_counts_as_hit() {
        let dir = std::env::temp_dir().join(format!("oiso-cache-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        store.put(7, "isolate", &ok("{\"persisted\":1}\n"));

        let cache = ResultCache::new(4);
        let (resp, role) =
            cache.get_or_compute_with_store(7, Some(&store), "isolate", || panic!("store has it"));
        assert_eq!(role, CacheRole::Hit, "restart survival reads as a hit");
        assert_eq!(resp.body, b"{\"persisted\":1}\n");
        // Promoted into the LRU: a second lookup never touches the store.
        let before = store.stats().hits;
        let (_, role) = cache.get_or_compute_with_store(7, Some(&store), "isolate", || {
            panic!("resident now")
        });
        assert_eq!(role, CacheRole::Hit);
        assert_eq!(store.stats().hits, before);

        // A fresh compute lands in the store.
        let (_, role) =
            cache.get_or_compute_with_store(8, Some(&store), "isolate", || ok("computed"));
        assert_eq!(role, CacheRole::Miss);
        assert!(store.get(8).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_lru_still_answers_from_the_store() {
        let dir = std::env::temp_dir().join(format!("oiso-cache-cap0-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let cache = ResultCache::new(0);
        let (_, role) =
            cache.get_or_compute_with_store(1, Some(&store), "isolate", || ok("fresh"));
        assert_eq!(role, CacheRole::Miss);
        let (resp, role) =
            cache.get_or_compute_with_store(1, Some(&store), "isolate", || panic!("stored"));
        assert_eq!(role, CacheRole::Hit);
        assert_eq!(resp.body, b"fresh");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_compute_releases_waiters() {
        let cache = Arc::new(ResultCache::new(4));
        let first = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_compute(5, || panic!("boom"))
                }));
            })
        };
        // A second request for the same key must eventually compute it.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let (resp, _) = cache.get_or_compute(5, || ok("recovered"));
        first.join().unwrap();
        assert_eq!(resp.body, b"recovered");
    }
}
