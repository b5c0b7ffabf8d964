//! Disk-backed, fingerprint-keyed result store (`oiso serve --store DIR`).
//!
//! The in-memory single-flight LRU ([`crate::cache::ResultCache`]) dies
//! with the process; this store layers a durable tier underneath it so
//! cached `200` responses survive restarts. The format borrows the
//! discipline of
//! [`oiso_core::checkpoint`]: append-only JSONL record files, one line
//! per entry, flushed as written, with a header line binding the file to
//! the store format version.
//!
//! Unlike the checkpoint journal — which is ground truth for resume and
//! therefore treats interior corruption as a hard error — the store is a
//! *cache*: any unparsable line (torn tail or interior damage) is
//! skipped with a warning counter, never a refusal to start. A corrupted
//! store costs recomputation, not availability.
//!
//! Format version 2 adds an FNV-1a content checksum (`"sum"`) over the
//! key and body to every entry, so an *interior bit-flip* — damage that
//! still parses as JSON — is **detected** and skipped (counted in
//! [`StoreStats::checksum_skips`]) rather than trusted and served. A
//! flipped byte can only ever cost a recompute, never a wrong body.
//!
//! Layout: one record file, `DIR/store-0.jsonl`, read at startup and
//! appended to by the one daemon that owns the directory. A key is
//! appended at most once (the index is consulted first). Every append
//! is flushed before the request returns, so a `SIGKILL` loses at most
//! the record being written, and the loader tolerates that torn tail.
//! Keys are the result-cache fingerprints
//! ([`crate::api::ApiRequest::cache_key`]) — engine choice is already
//! excluded there, so a response computed under the scalar engine
//! answers compiled requests byte-identically.

use crate::http::Response;
use oiso_core::{escape_json, json};
use oiso_netlist::Fnv;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Store format version written by this build; a file with a different
/// version is skipped (with a warning), not misread, and moved aside so
/// that new records go to a file this build can read back. Version 2
/// added the mandatory per-entry content checksum.
pub const STORE_VERSION: u64 = 2;

/// The record file under the store directory. The name predates the
/// single-file layout and is kept so existing stores still load.
const STORE_FILE: &str = "store-0.jsonl";

/// Counter snapshot for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Entries resident in the index.
    pub entries: usize,
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Records appended by this process.
    pub appends: u64,
    /// Unparsable lines (torn tails, interior corruption, unknown
    /// versions) skipped while loading.
    pub load_warnings: u64,
    /// Well-formed entries whose content checksum did not match the
    /// body — bit-flips detected (and skipped) while loading.
    pub checksum_skips: u64,
}

/// The content checksum over an entry: FNV-1a of the key bytes then the
/// body bytes. Stable across platforms and appended with every record.
pub fn entry_checksum(key: u64, body: &str) -> u64 {
    let mut h = Fnv::new();
    h.u64(key);
    h.bytes(body.as_bytes());
    h.finish()
}

/// The disk-backed result store: an in-memory index over one
/// append-only JSONL record file.
pub struct ResultStore {
    path: PathBuf,
    index: Mutex<HashMap<u64, String>>,
    writer: Mutex<BufWriter<File>>,
    hits: AtomicU64,
    misses: AtomicU64,
    appends: AtomicU64,
    load_warnings: u64,
    checksum_skips: u64,
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("path", &self.path)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ResultStore {
    /// Opens (creating if needed) the store under `dir`: loads the
    /// record file if there is one and opens it for append.
    ///
    /// A record file whose header is not this build's (another version,
    /// a damaged header, not text at all) is skipped whole, as one
    /// warning, and renamed to `store-0.jsonl.v<N>` (or
    /// `store-0.jsonl.unreadable`) so that this build appends to a fresh
    /// file of its own instead of one its loader would skip again.
    ///
    /// # Errors
    ///
    /// Filesystem failures creating the directory, moving a foreign
    /// record file aside or opening the record file for append.
    /// Unparsable *content* is never an error — see the module docs.
    pub fn open(dir: &Path) -> std::io::Result<ResultStore> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(STORE_FILE);
        let mut index = HashMap::new();
        let existing = std::fs::read(&path).unwrap_or_default();
        let text = std::str::from_utf8(&existing).ok();
        let header = text
            .and_then(|t| t.split_inclusive('\n').next())
            .and_then(parse_header);
        let fresh = existing.is_empty() || header != Some(STORE_VERSION);
        let (load_warnings, checksum_skips) = match (text, header) {
            _ if existing.is_empty() => (0, 0),
            (Some(text), Some(STORE_VERSION)) => load_records(text, &mut index),
            // Records under a foreign header may not mean what we think,
            // and would be skipped again after every restart.
            _ => {
                let suffix = header.map_or_else(|| "unreadable".to_string(), |v| format!("v{v}"));
                std::fs::rename(&path, dir.join(format!("{STORE_FILE}.{suffix}")))?;
                (1, 0)
            }
        };
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut writer = BufWriter::new(file);
        if fresh {
            writeln!(writer, "{{\"kind\":\"header\",\"version\":{STORE_VERSION}}}")?;
            writer.flush()?;
        } else if !existing.ends_with(b"\n") {
            // Seal a tail torn by a crash mid-append so the next record
            // starts on its own line instead of gluing to the damage.
            writeln!(writer)?;
            writer.flush()?;
        }
        Ok(ResultStore {
            path,
            index: Mutex::new(index),
            writer: Mutex::new(writer),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            load_warnings,
            checksum_skips,
        })
    }

    /// Looks up a stored `200` response by cache key.
    pub fn get(&self, key: u64) -> Option<Response> {
        let body = self.index.lock().expect("store lock").get(&key).cloned();
        match body {
            Some(body) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Response::json(200, body))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Appends a `200` response under `key` (anything else is ignored —
    /// errors are cheap to recompute and must not fill the disk).
    /// Append failures are swallowed: losing durability must not fail
    /// the request that computed the result.
    pub fn put(&self, key: u64, endpoint: &str, response: &Response) {
        if response.status != 200 {
            return;
        }
        let Ok(body) = std::str::from_utf8(&response.body) else {
            return;
        };
        {
            let mut index = self.index.lock().expect("store lock");
            if index.contains_key(&key) {
                return;
            }
            index.insert(key, body.to_string());
        }
        let line = render_entry(key, endpoint, body);
        let mut writer = self.writer.lock().expect("store lock");
        if writeln!(writer, "{line}").is_ok() {
            let _ = writer.flush();
            self.appends.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counter snapshot (cheap atomic reads).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self.index.lock().expect("store lock").len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            load_warnings: self.load_warnings,
            checksum_skips: self.checksum_skips,
        }
    }
}

fn render_entry(key: u64, endpoint: &str, body: &str) -> String {
    format!(
        "{{\"kind\":\"entry\",\"key\":\"{key:016x}\",\"endpoint\":\"{}\",\"sum\":\"{:016x}\",\"body\":\"{}\"}}",
        escape_json(endpoint),
        entry_checksum(key, body),
        escape_json(body)
    )
}

/// Loads the records after the file's header line (which the caller has
/// checked is this build's) into `index`, returning
/// `(warned_lines, checksum_skips)`.
fn load_records(text: &str, index: &mut HashMap<u64, String>) -> (u64, u64) {
    let mut warnings = 0u64;
    let mut checksum_skips = 0u64;
    for line in text.split_inclusive('\n').skip(1) {
        let payload = line.strip_suffix('\n').unwrap_or(line);
        if payload.trim().is_empty() {
            continue;
        }
        match parse_entry(payload) {
            Some(entry) => {
                // A parseable record is only trusted when its checksum
                // matches: a bit-flip inside the body (or a missing sum)
                // is detected here, not served to a client.
                if entry.sum == Some(entry_checksum(entry.key, &entry.body)) {
                    index.insert(entry.key, entry.body);
                } else {
                    checksum_skips += 1;
                }
            }
            None => {
                // A torn tail (no trailing newline) and interior
                // corruption are both tolerated; each costs one warning.
                warnings += 1;
            }
        }
    }
    (warnings, checksum_skips)
}

fn parse_header(line: &str) -> Option<u64> {
    let header = json::parse(line).ok()?;
    (header.get("kind")?.as_str()? == "header").then_some(header.get("version")?.as_int()?)
}

struct RawEntry {
    key: u64,
    sum: Option<u64>,
    body: String,
}

fn parse_entry(line: &str) -> Option<RawEntry> {
    let record = json::parse(line).ok()?;
    (record.get("kind")?.as_str()? == "entry").then_some(())?;
    let hex = |key: &str| u64::from_str_radix(record.get(key)?.as_str()?, 16).ok();
    Some(RawEntry {
        key: hex("key")?,
        sum: hex("sum"),
        body: record.get("body")?.as_str()?.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "oiso-store-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn ok(body: &str) -> Response {
        Response::json(200, body)
    }

    #[test]
    fn entries_survive_reopen() {
        let dir = tmpdir("reopen");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(0xabc, "isolate", &ok("{\"x\":1}\n"));
            store.put(0xdef, "simulate", &ok("{\"y\":2}\n"));
            assert_eq!(store.stats().appends, 2);
        }
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.stats().entries, 2);
        assert_eq!(store.stats().load_warnings, 0);
        assert_eq!(store.stats().checksum_skips, 0);
        let resp = store.get(0xabc).expect("persisted");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"x\":1}\n");
        assert!(store.get(0x999).is_none());
        assert_eq!((store.stats().hits, store.stats().misses), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_the_one_record_file_is_read() {
        let dir = tmpdir("one-file");
        std::fs::create_dir_all(&dir).unwrap();
        // A record file under another name (say, from a retired
        // multi-writer layout) is neither loaded nor warned about.
        std::fs::write(
            dir.join("store-1.jsonl"),
            format!(
                "{{\"kind\":\"header\",\"version\":{STORE_VERSION}}}\n{}\n",
                render_entry(7, "isolate", "elsewhere")
            ),
        )
        .unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.stats().entries, 0);
        assert_eq!(store.stats().load_warnings, 0);
        store.put(1, "isolate", &ok("here"));
        drop(store);
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.stats().entries, 1);
        assert_eq!(store.get(1).unwrap().body, b"here");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_and_interior_corruption_warn_but_load() {
        let dir = tmpdir("torn");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(1, "isolate", &ok("first"));
            store.put(2, "isolate", &ok("second"));
        }
        let path = dir.join("store-0.jsonl");
        // Corrupt the middle record and tear the tail.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{\"kind\":\"entry\",\"key\":garbage";
        let mut mangled = lines.join("\n");
        mangled.push_str("\n{\"kind\":\"entry\",\"key\":\"00");
        std::fs::write(&path, &mangled).unwrap();

        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.stats().load_warnings, 2, "one interior, one torn");
        assert_eq!(store.stats().entries, 1, "the intact record loaded");
        assert_eq!(store.get(2).unwrap().body, b"second");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bit_flip_inside_the_body_is_detected_not_served() {
        let dir = tmpdir("bitflip");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(1, "isolate", &ok("{\"power\":100}\n"));
            store.put(2, "isolate", &ok("{\"power\":200}\n"));
        }
        let path = dir.join("store-0.jsonl");
        // Flip one character inside the first entry's *body* — the line
        // still parses as JSON, so only the checksum can catch it.
        let text = std::fs::read_to_string(&path).unwrap();
        let damaged = text.replacen("power\\\":100", "power\\\":900", 1);
        assert_ne!(text, damaged, "the flip must land");
        std::fs::write(&path, &damaged).unwrap();

        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.stats().checksum_skips, 1, "the flip was detected");
        assert_eq!(store.stats().load_warnings, 0, "it parsed fine");
        assert!(
            store.get(1).is_none(),
            "a damaged body is never served: {:?}",
            store.get(1).map(|r| String::from_utf8_lossy(&r.body).into_owned())
        );
        assert_eq!(store.get(2).unwrap().body, b"{\"power\":200}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_byte_offset_never_panics_or_serves_damage() {
        let dir = tmpdir("sweep");
        let bodies = [
            (0x11u64, "{\"result\":\"alpha\",\"n\":1}\n"),
            (0x22u64, "{\"result\":\"beta\",\"n\":2}\n"),
            (0x33u64, "{\"result\":\"gamma\",\"n\":3}\n"),
        ];
        {
            let store = ResultStore::open(&dir).unwrap();
            for (key, body) in bodies {
                store.put(key, "isolate", &ok(body));
            }
        }
        let path = dir.join("store-0.jsonl");
        let full = std::fs::read(&path).unwrap();
        // Crash-inject at every prefix length: reopening must never
        // panic and every body it *does* serve must be byte-exact.
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let store = ResultStore::open(&dir).unwrap();
            for (key, body) in bodies {
                if let Some(resp) = store.get(key) {
                    assert_eq!(
                        resp.body,
                        body.as_bytes(),
                        "cut at {cut}: key {key:#x} served a damaged body"
                    );
                }
            }
            // Reopening sealed/rewrote the tail; restore the next prefix
            // from the pristine image so every offset is tested.
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_after_a_torn_tail_start_on_their_own_line() {
        let dir = tmpdir("seal");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(1, "isolate", &ok("first"));
        }
        let path = dir.join("store-0.jsonl");
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\":\"entry\",\"key\":\"00"); // crash mid-append
        std::fs::write(&path, &text).unwrap();
        {
            let store = ResultStore::open(&dir).unwrap();
            assert_eq!(store.stats().load_warnings, 1);
            store.put(2, "isolate", &ok("second"));
        }
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.stats().load_warnings, 1, "still just the torn line");
        assert_eq!(store.stats().entries, 2, "the sealed append loaded");
        assert_eq!(store.get(2).unwrap().body, b"second");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_version_skips_the_file_with_one_warning() {
        let dir = tmpdir("version");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(STORE_FILE),
            "{\"kind\":\"header\",\"version\":999}\n\
             {\"kind\":\"entry\",\"key\":\"0000000000000001\",\"endpoint\":\"isolate\",\"body\":\"x\"}\n",
        )
        .unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.stats().load_warnings, 1);
        assert_eq!(store.stats().entries, 0);
        // The foreign file is moved aside, not appended to: what this
        // build stores is served after a restart.
        store.put(2, "isolate", &ok("stored"));
        drop(store);
        let aside = std::fs::read_to_string(dir.join(format!("{STORE_FILE}.v999"))).unwrap();
        assert!(
            aside.starts_with("{\"kind\":\"header\",\"version\":999}"),
            "{aside}"
        );
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.stats().load_warnings, 0);
        assert_eq!(store.get(2).expect("stored under v2").body, b"stored");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_200_and_duplicate_puts_are_ignored() {
        let dir = tmpdir("filter");
        let store = ResultStore::open(&dir).unwrap();
        store.put(1, "isolate", &Response::json(422, "{}"));
        assert_eq!(store.stats().appends, 0);
        store.put(2, "isolate", &ok("body"));
        store.put(2, "isolate", &ok("body"));
        assert_eq!(store.stats().appends, 1, "duplicate key not re-appended");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
