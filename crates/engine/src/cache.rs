//! The content-addressed persistent result cache.
//!
//! Layout: one append-only JSON Lines file, `cache.jsonl`, in the cache
//! directory (`results/cache/` by convention). Each line is one completed
//! simulation point keyed by the canonical hash of its full
//! [`SimConfig`](mdd_core::SimConfig) (see `SimConfig::canonical_string`
//! for exactly what the key covers). Properties that fall out of this
//! design:
//!
//! * **Invalidation is automatic and per-point.** Change any semantic
//!   field — scheme, pattern, load, seed, windows, topology — and the key
//!   changes, so the point re-simulates; untouched points keep hitting.
//!   Nothing ever needs manual invalidation short of deleting the
//!   directory (which is always safe: the cache is a pure memo).
//! * **Resume after interrupt is free.** Completed points were already
//!   appended and flushed; a re-run re-simulates only what is missing. A
//!   line truncated by the interrupt fails to decode and is skipped.
//! * **Duplicate keys collapse to one entry**, so concurrent writers or
//!   repeated runs stay harmless (both wrote identical results anyway —
//!   simulations are deterministic).
//! * **One lock.** The in-memory map and the appender sit under a single
//!   mutex. A commit is one short line written against points that take
//!   milliseconds to seconds to simulate, so the worker pool never queues
//!   on it.
//! * **Concurrent *processes* interleave at line granularity.** The file
//!   is opened in append mode and every point is committed as one `write`
//!   of a complete line, so two engines sharing a directory never splice
//!   bytes into each other's entries. The unterminated-tail repair (a
//!   crash artifact) happens at open and only ever *appends* a newline —
//!   it cannot drop a completed point, and the worst concurrent outcome
//!   is a harmless blank line.
//! * **Every `*.jsonl` in the directory is read**, so caches written in
//!   the earlier sixteen-file layout (`shard-0.jsonl` … `shard-f.jsonl`)
//!   keep hitting; new points go to `cache.jsonl` only.
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

/// The file new points are appended to, inside the cache directory.
const CACHE_FILE: &str = "cache.jsonl";

/// The decoded entries and the appender, guarded together so a lookup
/// never races a commit.
struct Store {
    entries: HashMap<String, SimResult>,
    file: File,
}

/// A persistent key → [`SimResult`] store, safe to share across the
/// engine's worker threads (and, at line granularity, across processes).
pub struct ResultCache {
    dir: PathBuf,
    store: Mutex<Store>,
    hits: AtomicU64,
}

impl ResultCache {
    /// Open (creating on demand) the cache rooted at `dir`, loading every
    /// decodable line of each `*.jsonl` file in it. Corrupt or truncated
    /// lines and lines of other format versions are skipped silently. A
    /// final line of `cache.jsonl` left unterminated by a crashed writer
    /// is repaired (newline-terminated) before this handle appends
    /// anything.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut paths = std::fs::read_dir(&dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<Vec<_>>>()?;
        paths.retain(|p| p.extension().is_some_and(|x| x == "jsonl"));
        paths.sort();
        let path = dir.join(CACHE_FILE);
        let mut entries = HashMap::new();
        let mut unterminated = false;
        for p in &paths {
            match File::open(p) {
                Ok(f) => {
                    let torn = read_entries(f, |key, result| {
                        entries.insert(key, result);
                    });
                    unterminated |= torn && *p == path;
                }
                // Removed between the listing and the open.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if unterminated {
            // A final line with no newline is a write cut short by a
            // crash; terminate it before appending, or the next entry
            // would glue onto it. Append-only, so concurrent repairs at
            // worst leave a blank line (skipped on read).
            file.write_all(b"\n")?;
        }
        Ok(ResultCache {
            dir,
            store: Mutex::new(Store { entries, file }),
            hits: AtomicU64::new(0),
        })
    }

    /// The directory this cache persists under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Store> {
        self.store.lock().expect("result cache poisoned")
    }

    /// Number of distinct points currently cached.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
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
        let hit = self.lock().entries.get(key).cloned();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Record a completed point: remembered in memory and appended +
    /// flushed to `cache.jsonl` so an interrupt cannot lose it. The whole
    /// line (newline included) is committed in a single write, so
    /// concurrent writers — threads of this process serialized by the
    /// lock, or other processes interleaved by the kernel's append-mode
    /// offset handling — never corrupt each other's lines.
    pub fn put(&self, key: &str, label: &str, result: &SimResult) -> io::Result<()> {
        let mut line = codec::encode_line(key, label, result);
        line.push('\n');
        let mut store = self.lock();
        store.entries.insert(key.to_string(), result.clone());
        store.file.write_all(line.as_bytes())
    }
}

/// Read every decodable line of `f` into `insert`; true if the final
/// line was missing its newline (a crashed append).
fn read_entries(f: File, mut insert: impl FnMut(String, SimResult)) -> bool {
    let mut reader = BufReader::new(f);
    let mut line = String::new();
    let mut unterminated = false;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            // An unreadable tail behaves like a truncated one: keep what
            // decoded so far.
            Err(_) => break,
        }
        unterminated = !line.ends_with('\n');
        if let Some((key, _label, result)) = codec::decode_line(line.trim_end()) {
            insert(key, result);
        }
    }
    unterminated
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("dir", &self.dir)
            .field("len", &self.len())
            .finish()
    }
}
