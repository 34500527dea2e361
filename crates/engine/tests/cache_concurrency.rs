//! Cross-handle cache safety: two independently opened caches (the
//! in-process stand-in for two engine *processes*) appending to the same
//! cache file must never corrupt or drop a completed point, and a tail
//! left unterminated by a crash must be repaired without eating a
//! neighbour's line.

mod common;

use common::{fake_result, TempDir};
use mdd_engine::{Engine, Job, ResultCache};
use std::io::Write;
use std::sync::Arc;

/// Two handles, one directory, interleaved appends from two threads to
/// its one cache file. Nothing may be lost: the file is append-only and
/// each put is one write of a complete line.
#[test]
fn two_writers_on_one_file_drop_nothing() {
    let tmp = TempDir::new("file-race");
    let a = Arc::new(ResultCache::open(tmp.path()).expect("open first handle"));
    let b = Arc::new(ResultCache::open(tmp.path()).expect("open second handle"));

    const PER_WRITER: usize = 200;
    let writers: Vec<_> = [(Arc::clone(&a), 0), (Arc::clone(&b), PER_WRITER)]
        .into_iter()
        .map(|(cache, base)| {
            std::thread::spawn(move || {
                for i in base..base + PER_WRITER {
                    let key = format!("a{i:03x}");
                    cache
                        .put(&key, "PR", &fake_result(i as f64 / 1000.0))
                        .expect("append");
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer thread");
    }

    // A fresh handle sees every point either writer committed.
    let reopened = ResultCache::open(tmp.path()).expect("reopen");
    assert_eq!(reopened.len(), 2 * PER_WRITER);
    for i in 0..2 * PER_WRITER {
        let key = format!("a{i:03x}");
        let hit = reopened.get(&key).unwrap_or_else(|| panic!("lost {key}"));
        assert_eq!(hit.applied_load, i as f64 / 1000.0);
    }
}

/// A crashed writer leaves an unterminated tail; a second live handle on
/// the same directory keeps appending. The repair (at open, append-only)
/// must terminate the torn line without touching complete
/// ones, and the torn line alone may be lost.
#[test]
fn tail_repair_under_concurrent_appends_keeps_complete_points() {
    let tmp = TempDir::new("file-repair");
    let survivor = ResultCache::open(tmp.path()).expect("open survivor");
    survivor.put("a001", "PR", &fake_result(0.1)).expect("put");

    // Simulate another process crashing mid-append to the same file.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(tmp.path().join("cache.jsonl"))
            .expect("open cache file for torn write");
        f.write_all(b"{\"v\":1,\"key\":\"a002\",\"la")
            .expect("torn write");
    }

    // A new handle repairs the tail at open, then both handles append.
    let late = ResultCache::open(tmp.path()).expect("open after crash");
    assert_eq!(late.len(), 1, "torn line is absent, complete line kept");
    late.put("a003", "PR", &fake_result(0.3)).expect("late put");
    survivor
        .put("a004", "PR", &fake_result(0.4))
        .expect("survivor put");

    let reopened = ResultCache::open(tmp.path()).expect("reopen");
    assert_eq!(reopened.len(), 3);
    for key in ["a001", "a003", "a004"] {
        assert!(reopened.get(key).is_some(), "lost {key}");
    }
    assert!(
        reopened.get("a002").is_none(),
        "torn line must not resurrect"
    );
}

/// The same guarantee one level up: two *engines* sharing a cache
/// directory, running concurrently, end with the union of their points
/// on disk and serve each other's results on re-run.
#[test]
fn two_engines_sharing_a_directory_union_their_points() {
    let tmp = TempDir::new("engine-share");
    let loads_a = [0.04, 0.08, 0.12];
    let loads_b = [0.06, 0.10, 0.14];
    let cfg = common::small_cfg();

    let dir = tmp.path().to_path_buf();
    let handles: Vec<_> = [loads_a, loads_b]
        .into_iter()
        .map(|loads| {
            let dir = dir.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let engine = Engine::builder()
                    .jobs(2)
                    .cache_dir(&dir)
                    .build()
                    .expect("open engine");
                engine
                    .submit_with(Job::points(&cfg, &loads, "PR"), |job: &Job| {
                        Ok(fake_result(job.load()))
                    })
                    .wait()
            })
        })
        .collect();
    for h in handles {
        let report = h.join().expect("engine thread");
        assert!(report.complete());
        assert_eq!(report.simulated(), 3);
    }

    // A third engine over the same directory replays all six points.
    let engine = Engine::builder()
        .cache_dir(tmp.path())
        .build()
        .expect("reopen");
    let all: Vec<f64> = loads_a.iter().chain(&loads_b).copied().collect();
    let report = engine
        .submit_with(Job::points(&cfg, &all, "PR"), |job: &Job| {
            panic!("point {} should have been cached", job.id)
        })
        .wait();
    assert_eq!(report.cached(), 6);
    assert!(report.complete());
}
