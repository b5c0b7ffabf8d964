//! Disk-backed, fingerprint-keyed result store (`oiso serve --store DIR`).
//!
//! The in-memory single-flight LRU ([`crate::cache::ResultCache`]) dies
//! with the process; this store layers a durable tier underneath it so
//! cached `200` responses survive restarts and can be shared by the
//! shards of a fleet. The format borrows the discipline of
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
//! Files grow append-only across restarts, so duplicate keys (a shard
//! recomputing after its LRU lost an entry another file holds) and
//! warned lines accumulate; [`compact_file`] / [`ResultStore::compact`]
//! rewrite a record file keeping exactly one checksum-valid record per
//! key — the supervisor runs this at fleet start under
//! `oiso fleet --compact-on-start`.
//!
//! Layout: `DIR/store-<shard>.jsonl`, one file per writing shard
//! (`store-0.jsonl` unsharded). Every daemon loads *all* record files at
//! startup but appends only to its own, so N shards can share one
//! directory without write interleaving. Keys are the result-cache
//! fingerprints ([`crate::api::ApiRequest::cache_key`]) — engine choice
//! is already excluded there, so a response computed under the scalar
//! engine answers compiled requests byte-identically.

use crate::http::Response;
use oiso_core::{escape_json, parse_flat, JsonScalar};
use oiso_netlist::Fnv;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Store format version written by this build; files with a different
/// version are skipped (with a warning), not misread. Version 2 added
/// the mandatory per-entry content checksum.
pub const STORE_VERSION: u64 = 2;

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

/// What a [`compact_file`] rewrite kept and dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactStats {
    /// Checksum-valid records surviving the rewrite.
    pub kept: usize,
    /// Lines dropped: unparsable, checksum-mismatched, or torn.
    pub dropped_corrupt: u64,
    /// Later records for a key already kept.
    pub dropped_duplicate: u64,
    /// File size before the rewrite.
    pub bytes_before: u64,
    /// File size after the rewrite.
    pub bytes_after: u64,
    /// True when the file's header names a different format version —
    /// the file is left untouched (it may not mean what we think).
    pub skipped_unknown_version: bool,
}

/// The content checksum over an entry: FNV-1a of the key bytes then the
/// body bytes. Stable across platforms and appended with every record.
pub fn entry_checksum(key: u64, body: &str) -> u64 {
    let mut h = Fnv::new();
    h.u64(key);
    h.bytes(body.as_bytes());
    h.finish()
}

/// The disk-backed result store: an in-memory index over append-only
/// JSONL record files.
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
    /// Opens (creating if needed) the store under `dir`, loading every
    /// `store-*.jsonl` record file present and appending to the one
    /// owned by `shard_index`.
    ///
    /// # Errors
    ///
    /// Filesystem failures creating the directory or opening this
    /// shard's record file for append. Unparsable *content* is never an
    /// error — see the module docs.
    pub fn open(dir: &Path, shard_index: usize) -> std::io::Result<ResultStore> {
        std::fs::create_dir_all(dir)?;
        let mut index = HashMap::new();
        let mut load_warnings = 0u64;
        let mut checksum_skips = 0u64;
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("store-") && n.ends_with(".jsonl"))
            })
            .collect();
        files.sort();
        for file in &files {
            let text = match std::fs::read_to_string(file) {
                Ok(text) => text,
                Err(_) => {
                    load_warnings += 1;
                    continue;
                }
            };
            let (warned, sum_skipped) = load_records(&text, &mut index);
            load_warnings += warned;
            checksum_skips += sum_skipped;
        }

        let path = dir.join(format!("store-{shard_index}.jsonl"));
        let existing = std::fs::read(&path).unwrap_or_default();
        let fresh = existing.is_empty();
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

    /// Rewrites this shard's own record file keeping exactly one
    /// checksum-valid record per key — duplicate keys and warned lines
    /// are dropped so [`StoreStats::load_warnings`] stops growing across
    /// restarts. The in-memory index is untouched (it is already a
    /// superset of the surviving records).
    ///
    /// # Errors
    ///
    /// Filesystem failures rewriting or reopening the record file. The
    /// rewrite goes through a temp file + rename, so a crash mid-compact
    /// leaves either the old or the new file, never a half-written one.
    pub fn compact(&self) -> std::io::Result<CompactStats> {
        let mut writer = self.writer.lock().expect("store lock");
        writer.flush()?;
        let stats = compact_file(&self.path)?;
        // The old handle appends to the unlinked pre-compaction file;
        // swap in a handle on the freshly renamed one.
        let file = OpenOptions::new().create(true).append(true).open(&self.path)?;
        *writer = BufWriter::new(file);
        Ok(stats)
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

    /// This daemon's own record file (test visibility).
    pub fn path(&self) -> &Path {
        &self.path
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

/// Rewrites one record file in place (temp file + atomic rename),
/// keeping the first checksum-valid record per key and dropping
/// everything else. Files with an unknown or missing header version are
/// left untouched ([`CompactStats::skipped_unknown_version`]).
///
/// # Errors
///
/// Filesystem failures reading or rewriting the file.
pub fn compact_file(path: &Path) -> std::io::Result<CompactStats> {
    let text = std::fs::read_to_string(path)?;
    let mut stats = CompactStats {
        bytes_before: text.len() as u64,
        ..CompactStats::default()
    };
    let mut lines = text.split_inclusive('\n');
    match lines.next().map(parse_header) {
        Some(Some(version)) if version == STORE_VERSION => {}
        _ => {
            stats.skipped_unknown_version = true;
            stats.bytes_after = stats.bytes_before;
            return Ok(stats);
        }
    }
    let mut kept: Vec<(u64, String, String)> = Vec::new();
    let mut seen: HashMap<u64, ()> = HashMap::new();
    for line in lines {
        let payload = line.strip_suffix('\n').unwrap_or(line);
        if payload.trim().is_empty() {
            continue;
        }
        match parse_entry(payload) {
            Some(entry) if entry.sum == Some(entry_checksum(entry.key, &entry.body)) => {
                if seen.insert(entry.key, ()).is_none() {
                    kept.push((entry.key, entry.endpoint, entry.body));
                } else {
                    stats.dropped_duplicate += 1;
                }
            }
            _ => stats.dropped_corrupt += 1,
        }
    }
    let tmp = path.with_extension("jsonl.compact-tmp");
    {
        let mut out = BufWriter::new(File::create(&tmp)?);
        writeln!(out, "{{\"kind\":\"header\",\"version\":{STORE_VERSION}}}")?;
        for (key, endpoint, body) in &kept {
            writeln!(out, "{}", render_entry(*key, endpoint, body))?;
        }
        out.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    stats.kept = kept.len();
    stats.bytes_after = std::fs::metadata(path)?.len();
    Ok(stats)
}

/// Compacts every `store-*.jsonl` file under `dir`, returning per-file
/// stats in path order. Missing directory is a no-op (empty vec).
///
/// # Errors
///
/// Filesystem failures listing the directory or rewriting a file.
pub fn compact_dir(dir: &Path) -> std::io::Result<Vec<(PathBuf, CompactStats)>> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("store-") && n.ends_with(".jsonl"))
        })
        .collect();
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for file in files {
        let stats = compact_file(&file)?;
        out.push((file, stats));
    }
    Ok(out)
}

/// Loads the records of one file into `index`, returning
/// `(warned_lines, checksum_skips)`. The first line must be a header
/// with a known version or the whole file is skipped as one warning.
fn load_records(text: &str, index: &mut HashMap<u64, String>) -> (u64, u64) {
    let mut warnings = 0u64;
    let mut checksum_skips = 0u64;
    let mut lines = text.split_inclusive('\n');
    match lines.next().map(parse_header) {
        Some(Some(version)) if version == STORE_VERSION => {}
        // Unknown version, malformed header, or an empty file: skip the
        // file's records entirely — they may not mean what we think.
        _ => return (1, 0),
    }
    for line in lines {
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
    let fields = parse_flat(line.trim_end()).ok()?;
    let mut kind = None;
    let mut version = None;
    for (k, v) in &fields {
        match k.as_str() {
            "kind" => kind = v.as_str(),
            "version" => version = v.as_int(),
            _ => {}
        }
    }
    (kind == Some("header")).then_some(version?)
}

struct RawEntry {
    key: u64,
    endpoint: String,
    sum: Option<u64>,
    body: String,
}

fn parse_entry(line: &str) -> Option<RawEntry> {
    let fields = parse_flat(line).ok()?;
    let mut kind = None;
    let mut key = None;
    let mut endpoint = String::new();
    let mut sum = None;
    let mut body = None;
    for (k, v) in fields {
        match k.as_str() {
            "kind" => kind = v.as_str().map(str::to_string),
            "key" => {
                key = match v {
                    JsonScalar::Str(s) => u64::from_str_radix(&s, 16).ok(),
                    _ => None,
                }
            }
            "endpoint" => {
                if let JsonScalar::Str(s) = v {
                    endpoint = s;
                }
            }
            "sum" => {
                sum = match v {
                    JsonScalar::Str(s) => u64::from_str_radix(&s, 16).ok(),
                    _ => None,
                }
            }
            "body" => {
                body = match v {
                    JsonScalar::Str(s) => Some(s),
                    _ => None,
                }
            }
            _ => {}
        }
    }
    (kind.as_deref() == Some("entry")).then_some(())?;
    Some(RawEntry {
        key: key?,
        endpoint,
        sum,
        body: body?,
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
            let store = ResultStore::open(&dir, 0).unwrap();
            store.put(0xabc, "isolate", &ok("{\"x\":1}\n"));
            store.put(0xdef, "simulate", &ok("{\"y\":2}\n"));
            assert_eq!(store.stats().appends, 2);
        }
        let store = ResultStore::open(&dir, 0).unwrap();
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
    fn shards_share_a_directory_without_sharing_files() {
        let dir = tmpdir("shards");
        {
            let s0 = ResultStore::open(&dir, 0).unwrap();
            let s1 = ResultStore::open(&dir, 1).unwrap();
            s0.put(1, "isolate", &ok("zero"));
            s1.put(2, "isolate", &ok("one"));
            assert_ne!(s0.path(), s1.path());
        }
        // Either shard index loads both files' records.
        let store = ResultStore::open(&dir, 1).unwrap();
        assert_eq!(store.stats().entries, 2);
        assert_eq!(store.get(1).unwrap().body, b"zero");
        assert_eq!(store.get(2).unwrap().body, b"one");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_and_interior_corruption_warn_but_load() {
        let dir = tmpdir("torn");
        {
            let store = ResultStore::open(&dir, 0).unwrap();
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

        let store = ResultStore::open(&dir, 0).unwrap();
        assert_eq!(store.stats().load_warnings, 2, "one interior, one torn");
        assert_eq!(store.stats().entries, 1, "the intact record loaded");
        assert_eq!(store.get(2).unwrap().body, b"second");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bit_flip_inside_the_body_is_detected_not_served() {
        let dir = tmpdir("bitflip");
        {
            let store = ResultStore::open(&dir, 0).unwrap();
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

        let store = ResultStore::open(&dir, 0).unwrap();
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
            let store = ResultStore::open(&dir, 0).unwrap();
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
            let store = ResultStore::open(&dir, 0).unwrap();
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
            let store = ResultStore::open(&dir, 0).unwrap();
            store.put(1, "isolate", &ok("first"));
        }
        let path = dir.join("store-0.jsonl");
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\":\"entry\",\"key\":\"00"); // crash mid-append
        std::fs::write(&path, &text).unwrap();
        {
            let store = ResultStore::open(&dir, 0).unwrap();
            assert_eq!(store.stats().load_warnings, 1);
            store.put(2, "isolate", &ok("second"));
        }
        let store = ResultStore::open(&dir, 0).unwrap();
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
            dir.join("store-9.jsonl"),
            "{\"kind\":\"header\",\"version\":999}\n\
             {\"kind\":\"entry\",\"key\":\"0000000000000001\",\"endpoint\":\"isolate\",\"body\":\"x\"}\n",
        )
        .unwrap();
        let store = ResultStore::open(&dir, 0).unwrap();
        assert_eq!(store.stats().load_warnings, 1);
        assert_eq!(store.stats().entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_200_and_duplicate_puts_are_ignored() {
        let dir = tmpdir("filter");
        let store = ResultStore::open(&dir, 0).unwrap();
        store.put(1, "isolate", &Response::json(422, "{}"));
        assert_eq!(store.stats().appends, 0);
        store.put(2, "isolate", &ok("body"));
        store.put(2, "isolate", &ok("body"));
        assert_eq!(store.stats().appends, 1, "duplicate key not re-appended");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_duplicates_and_corruption_keeping_first_records() {
        let dir = tmpdir("compact");
        {
            let store = ResultStore::open(&dir, 0).unwrap();
            store.put(1, "isolate", &ok("one"));
            store.put(2, "isolate", &ok("two"));
        }
        let path = dir.join("store-0.jsonl");
        let mut text = std::fs::read_to_string(&path).unwrap();
        // A duplicate for key 1 (different body — must NOT win), an
        // interior corrupt line, a checksum-mismatched line, and a torn
        // tail.
        text.push_str(&render_entry(1, "isolate", "one-duplicate"));
        text.push('\n');
        text.push_str("{\"kind\":\"entry\",\"key\":garbage\n");
        text.push_str(
            "{\"kind\":\"entry\",\"key\":\"0000000000000003\",\"endpoint\":\"isolate\",\
             \"sum\":\"0000000000000000\",\"body\":\"flipped\"}\n",
        );
        text.push_str("{\"kind\":\"entry\",\"key\":\"00");
        std::fs::write(&path, &text).unwrap();

        let stats = compact_file(&path).unwrap();
        assert_eq!(stats.kept, 2);
        assert_eq!(stats.dropped_duplicate, 1);
        assert_eq!(stats.dropped_corrupt, 3, "garbage + bad sum + torn tail");
        assert!(stats.bytes_after < stats.bytes_before);
        assert!(!stats.skipped_unknown_version);

        // The compacted file loads clean: no warnings, first records won.
        let store = ResultStore::open(&dir, 0).unwrap();
        let stats = store.stats();
        assert_eq!((stats.load_warnings, stats.checksum_skips), (0, 0));
        assert_eq!(stats.entries, 2);
        assert_eq!(store.get(1).unwrap().body, b"one");
        assert_eq!(store.get(2).unwrap().body, b"two");
        assert!(store.get(3).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_store_compacts_and_keeps_appending() {
        let dir = tmpdir("compact-live");
        {
            let store = ResultStore::open(&dir, 0).unwrap();
            store.put(1, "isolate", &ok("one"));
        }
        // Grow a duplicate the next open would skip on append anyway.
        let path = dir.join("store-0.jsonl");
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&render_entry(1, "isolate", "one"));
        text.push('\n');
        std::fs::write(&path, &text).unwrap();

        let store = ResultStore::open(&dir, 0).unwrap();
        let stats = store.compact().unwrap();
        assert_eq!((stats.kept, stats.dropped_duplicate), (1, 1));
        // Appends after the in-place compaction land in the new file.
        store.put(2, "isolate", &ok("two"));
        let reopened = ResultStore::open(&dir, 0).unwrap();
        assert_eq!(reopened.stats().entries, 2);
        assert_eq!(reopened.get(2).unwrap().body, b"two");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_dir_touches_every_record_file_and_spares_unknown_versions() {
        let dir = tmpdir("compact-dir");
        {
            let s0 = ResultStore::open(&dir, 0).unwrap();
            s0.put(1, "isolate", &ok("zero"));
            let s1 = ResultStore::open(&dir, 1).unwrap();
            s1.put(2, "isolate", &ok("one"));
        }
        let alien = "{\"kind\":\"header\",\"version\":999}\nnot ours\n";
        std::fs::write(dir.join("store-9.jsonl"), alien).unwrap();
        let results = compact_dir(&dir).unwrap();
        assert_eq!(results.len(), 3);
        let nines: Vec<_> = results
            .iter()
            .filter(|(p, _)| p.ends_with("store-9.jsonl"))
            .collect();
        assert!(nines[0].1.skipped_unknown_version);
        assert_eq!(
            std::fs::read_to_string(dir.join("store-9.jsonl")).unwrap(),
            alien,
            "unknown-version files are left untouched"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
