//! Shared command-line handling for the binaries in `src/bin/`.
//!
//! Every binary accepts the same base flags:
//!
//! ```text
//! --smoke            smallest scale (smoke-test windows, 3 load points);
//!                    artifacts go to <out>/smoke/
//! --fast             reduced scale for constrained machines;
//!                    artifacts go to <out>/fast/
//! --out DIR          results directory [results]
//! --jobs N           simulation worker threads, N >= 1
//!                    [default: machine parallelism]
//! --shards N         execution shards inside each single run, N >= 1
//!                    (bit-identical results at any N) [default: 1]
//! --no-cache         disable the persistent result cache
//! --cache-dir DIR    cache location [<out>/cache]
//! ```
//!
//! plus binary-specific flags reachable through [`BenchCli::flag`] /
//! [`BenchCli::value`] / [`BenchCli::parse_value`]. [`BenchCli::engine`]
//! turns the cache/jobs flags into a configured [`Engine`].

use crate::experiments::RunScale;
use mdd_engine::Engine;
use mdd_obs::{Json, ARTIFACT_SCHEMA};
use std::path::PathBuf;

/// Parsed common flags plus the raw argument list for per-binary extras.
#[derive(Clone, Debug)]
pub struct BenchCli {
    args: Vec<String>,
    /// Experiment scale selected by `--smoke` / `--fast` (full otherwise).
    pub scale: RunScale,
    /// Results directory (`--out`, default `results`).
    pub out_dir: PathBuf,
    /// Worker-thread count (`--jobs`; `None` = machine parallelism).
    /// `--jobs 0` is rejected at parse time — there is no pool to run on.
    pub jobs: Option<usize>,
    /// Execution shards inside each single run (`--shards`, default 1).
    /// `--shards 0` is rejected at parse time, mirroring `--jobs 0`
    /// (and [`ConfigError::ZeroShards`] guards hand-built configs).
    /// Orthogonal to `--jobs`: jobs parallelize *across* sweep points,
    /// shards parallelize *inside* one run, bit-identically.
    ///
    /// [`ConfigError::ZeroShards`]: mdd_core::ConfigError::ZeroShards
    pub shards: u32,
    /// True when `--no-cache` was given.
    pub no_cache: bool,
    /// Result-cache directory (`--cache-dir`, default `<out>/cache`).
    pub cache_dir: PathBuf,
}

impl BenchCli {
    /// Parse the process arguments.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1).collect())
    }

    /// Parse an explicit argument list (for tests).
    pub fn from_args(args: Vec<String>) -> Self {
        let flag = |name: &str| args.iter().any(|a| a == name);
        let value = |name: &str| {
            args.iter()
                .position(|a| a == name)
                .and_then(|i| args.get(i + 1))
                .cloned()
        };
        let scale = if flag("--smoke") {
            RunScale::smoke()
        } else if flag("--fast") {
            RunScale::fast()
        } else {
            RunScale::full()
        };
        let out_dir = PathBuf::from(value("--out").unwrap_or_else(|| "results".into()));
        let jobs = value("--jobs").map(|v| match v.parse() {
            Ok(0) => die(
                "--jobs needs at least one worker (got 0); omit the flag for the machine default",
            ),
            Ok(n) => n,
            Err(_) => die(&format!("bad --jobs: {v}")),
        });
        let shards = value("--shards").map_or(1, |v| match v.parse() {
            Ok(0) => die("--shards needs at least one shard (got 0); omit the flag for the sequential default"),
            Ok(n) => n,
            Err(_) => die(&format!("bad --shards: {v}")),
        });
        let cache_dir = value("--cache-dir").map_or_else(|| out_dir.join("cache"), PathBuf::from);
        BenchCli {
            scale,
            out_dir,
            jobs,
            shards,
            no_cache: flag("--no-cache"),
            cache_dir,
            args,
        }
    }

    /// True when the bare flag `name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The argument following `name`, if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// Parse the argument following `name`, exiting with a message on a
    /// malformed value; `default` when absent.
    pub fn parse_value<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("bad value for {name}: {v}"))),
        }
    }

    /// An [`Engine`] honoring `--jobs`, `--no-cache` and `--cache-dir`.
    /// With `--jobs N` the engine runs on a pool of exactly `N`
    /// workers; otherwise on one worker per available core. A cache
    /// that cannot be opened degrades to uncached with a warning rather
    /// than aborting the experiment.
    pub fn engine(&self) -> Engine {
        let with_jobs = |b: mdd_engine::EngineBuilder| match self.jobs {
            Some(n) => b.jobs(n),
            None => b,
        };
        if !self.no_cache {
            match with_jobs(Engine::builder().cache_dir(&self.cache_dir)).build() {
                Ok(e) => return e,
                Err(e) => eprintln!(
                    "warning: cannot open result cache at {}: {e}; running uncached",
                    self.cache_dir.display()
                ),
            }
        }
        with_jobs(Engine::builder())
            .build()
            .expect("an uncached engine with a positive worker count cannot fail")
    }

    /// Write `{"schema": ARTIFACT_SCHEMA, <fields>}` as `file` in the
    /// codec's pretty layout and report the path. Full-scale artifacts
    /// go to `--out`; `--smoke` and `--fast` ones to its `smoke/` and
    /// `fast/` subdirectories, so they never overwrite the committed
    /// full-scale files.
    pub fn write_artifact(&self, file: &str, fields: Vec<(String, Json)>) {
        let dir = match self.scale.name {
            "full" => self.out_dir.clone(),
            scale => self.out_dir.join(scale),
        };
        let path = dir.join(file);
        let mut doc = vec![("schema".to_string(), ARTIFACT_SCHEMA.into())];
        doc.extend(fields);
        let text = Json::Obj(doc).render_pretty() + "\n";
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: could not write {}: {e}", path.display());
                std::process::exit(1)
            }
        }
    }
}

/// The `//!` header of a binary's source, as its `--help` text.
pub fn usage(source: &str) -> String {
    source
        .lines()
        .take_while(|l| l.starts_with("//!"))
        .map(|l| l.trim_start_matches("//!").trim_start())
        .filter(|l| !l.starts_with("```"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Exit with an argument-error message (status 2, like the classic CLIs).
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}
