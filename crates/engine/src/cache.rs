//! The content-addressed persistent result cache, sharded by key prefix.
//!
//! Layout: sixteen append-only JSON Lines files, `shard-0.jsonl` …
//! `shard-f.jsonl`, in the cache directory (`results/cache/` by
//! convention). Each line is one completed simulation point keyed by the
//! canonical hash of its full [`SimConfig`](mdd_core::SimConfig) (see
//! `SimConfig::canonical_string` for exactly what the key covers); the
//! first hex digit of the key picks the shard. Properties that fall out
//! of this design:
//!
//! * **Invalidation is automatic and per-point.** Change any semantic
//!   field — scheme, pattern, load, seed, windows, topology — and the key
//!   changes, so the point re-simulates; untouched points keep hitting.
//!   Nothing ever needs manual invalidation short of deleting the
//!   directory (which is always safe: the cache is a pure memo).
//! * **Resume after interrupt is free.** Completed points were already
//!   appended and flushed; a re-run re-simulates only what is missing. A
//!   line truncated by the interrupt fails to decode and is skipped.
//! * **Duplicate keys collapse to the newest line**, so concurrent
//!   writers or repeated runs stay harmless (last writer wins, and both
//!   wrote identical results anyway — simulations are deterministic).
//! * **Concurrent jobs do not contend on one file.** Every shard has its
//!   own lock guarding both the in-memory map and the appender, so
//!   points landing in different shards (the common case — FNV keys
//!   spread uniformly) commit in parallel.
//! * **Concurrent *processes* interleave at line granularity.** Shard
//!   files are opened in append mode and every point is committed as one
//!   `write` of a complete line, so two engines sharing a directory never
//!   splice bytes into each other's entries. The unterminated-tail repair
//!   (a crash artifact) happens under the shard lock at open and only
//!   ever *appends* a newline — it cannot drop a completed point, and the
//!   worst concurrent outcome is a harmless blank line.
//! * Cache-served results carry `obs: None`; counter snapshots are not
//!   meaningful across processes (see `codec`).

use crate::codec;
use mdd_core::SimResult;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of key-prefix shards (one hex digit).
pub const CACHE_SHARDS: usize = 16;

/// One shard: its decoded entries and its appender, guarded together so
/// a lookup never races a commit to the same shard.
struct Shard {
    entries: HashMap<String, SimResult>,
    file: File,
}

/// A persistent key → [`SimResult`] store, safe to share across the
/// engine's worker threads (and, at line granularity, across processes).
pub struct ResultCache {
    dir: PathBuf,
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
}

/// The shard index of a cache key: its first hex digit (keys are FNV-1a
/// hashes in lowercase hex). Unrecognized first characters fall back to
/// shard 0 rather than failing — such keys only arise from hand-edited
/// files.
fn shard_index(key: &str) -> usize {
    key.chars()
        .next()
        .and_then(|c| c.to_digit(16))
        .map_or(0, |d| d as usize)
}

impl ResultCache {
    /// Open (creating on demand) the cache rooted at `dir`, loading every
    /// decodable line of each `shard-*.jsonl`. Corrupt or truncated lines
    /// and lines of other format versions are skipped silently. A final
    /// line left unterminated by a crashed writer is repaired
    /// (newline-terminated) before this handle appends anything.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut shards = Vec::with_capacity(CACHE_SHARDS);
        for s in 0..CACHE_SHARDS {
            let path = dir.join(format!("shard-{s:x}.jsonl"));
            let mut entries = HashMap::new();
            let mut unterminated = false;
            match File::open(&path) {
                Ok(f) => read_entries(f, &mut unterminated, |key, result| {
                    entries.insert(key, result);
                }),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
            if unterminated {
                // A final line with no newline is a write cut short by a
                // crash; terminate it before appending, or the next entry
                // would glue onto it. Append-only, so concurrent repairs
                // at worst leave a blank line (skipped on read).
                file.write_all(b"\n")?;
            }
            shards.push(Mutex::new(Shard { entries, file }));
        }
        Ok(ResultCache {
            dir,
            shards,
            hits: AtomicU64::new(0),
        })
    }

    /// The directory this cache persists under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shard file `key` lives in (for tests and tooling; the path may
    /// not exist yet if nothing hashed into that shard).
    pub fn shard_file(&self, key: &str) -> PathBuf {
        self.dir.join(format!("shard-{:x}.jsonl", shard_index(key)))
    }

    /// Number of distinct points currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").entries.len())
            .sum()
    }

    /// True when no points are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits served since this handle was opened.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Look up a point by key.
    pub fn get(&self, key: &str) -> Option<SimResult> {
        let hit = self.shards[shard_index(key)]
            .lock()
            .expect("cache shard poisoned")
            .entries
            .get(key)
            .cloned();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Record a completed point: remembered in memory and appended +
    /// flushed to its shard file so an interrupt cannot lose it. The
    /// whole line (newline included) is committed in a single write, so
    /// concurrent writers — threads of this process serialized by the
    /// shard lock, or other processes interleaved by the kernel's
    /// append-mode offset handling — never corrupt each other's lines.
    pub fn put(&self, key: &str, label: &str, result: &SimResult) -> io::Result<()> {
        let mut line = codec::encode_line(key, label, result);
        line.push('\n');
        let mut shard = self.shards[shard_index(key)]
            .lock()
            .expect("cache shard poisoned");
        shard.entries.insert(key.to_string(), result.clone());
        shard.file.write_all(line.as_bytes())
    }
}

/// Read every decodable line of `f` into `insert`, flagging whether the
/// final line was missing its newline (a crashed append).
fn read_entries(f: File, unterminated: &mut bool, mut insert: impl FnMut(String, SimResult)) {
    let mut reader = BufReader::new(f);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            // An unreadable tail behaves like a truncated one: keep what
            // decoded so far.
            Err(_) => break,
        }
        *unterminated = !line.ends_with('\n');
        if let Some((key, _label, result)) = codec::decode_line(line.trim_end()) {
            insert(key, result);
        }
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("dir", &self.dir)
            .field("shards", &CACHE_SHARDS)
            .field("len", &self.len())
            .finish()
    }
}
