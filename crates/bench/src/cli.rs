//! Shared command-line handling for the binaries in `src/bin/`.
//!
//! Each binary declares the flags it takes as [`Flags`], and [`Args`]
//! checks an argument list against them: a flag nobody declared is a
//! usage error (exit status 2, naming the flag), never silently ignored.
//! Every experiment binary also accepts the base flags of [`BenchCli`]:
//!
//! ```text
//! --smoke            smallest scale (smoke-test windows, 3 load points);
//!                    artifacts go to <out>/smoke/
//! --fast             reduced scale for constrained machines;
//!                    artifacts go to <out>/fast/
//! --out DIR          results directory [results]
//! --jobs N           simulation worker threads, N >= 1
//!                    [default: machine parallelism]
//! --no-cache         disable the persistent result cache
//! --cache-dir DIR    cache location [<out>/cache]
//! ```
//!
//! Binary-specific flags are read through [`BenchCli::flag`] /
//! [`BenchCli::value`] / [`BenchCli::parse_value`]. [`BenchCli::engine`]
//! turns the cache/jobs flags into a configured [`Engine`].

use crate::experiments::RunScale;
use mdd_engine::Engine;
use mdd_obs::{Json, ARTIFACT_SCHEMA};
use std::path::PathBuf;

/// The flags a binary takes: bare switches, options followed by a
/// value, and how many positional arguments. `--help` and `-h` are
/// always accepted.
#[derive(Clone, Copy, Debug)]
pub struct Flags {
    /// Bare switches, e.g. `--plot`.
    pub switches: &'static [&'static str],
    /// Options that take the next argument as their value, e.g. `--load`.
    pub options: &'static [&'static str],
    /// Positional arguments accepted, at most.
    pub positional: usize,
}

/// An argument list checked against the [`Flags`] of a binary.
#[derive(Clone, Debug, Default)]
pub struct Args {
    switches: Vec<String>,
    values: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    /// Check `args` against the union of `flags`. Fails on a flag none of
    /// them declares, an option missing its value, or a positional
    /// argument beyond the declared count.
    pub fn parse(args: Vec<String>, flags: &[Flags]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if flags.iter().any(|f| f.options.contains(&a.as_str())) {
                let v = it.next().ok_or_else(|| format!("{a} wants a value"))?;
                out.values.push((a, v));
            } else if a == "--help"
                || a == "-h"
                || flags.iter().any(|f| f.switches.contains(&a.as_str()))
            {
                out.switches.push(a);
            } else if a.starts_with('-') {
                return Err(format!("unknown flag {a} (see --help)"));
            } else if out.positional.len() < flags.iter().map(|f| f.positional).sum() {
                out.positional.push(a);
            } else {
                return Err(format!("unexpected argument {a} (see --help)"));
            }
        }
        Ok(out)
    }

    /// True when the bare flag `name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.switches.iter().any(|a| a == name)
    }

    /// The value given to option `name`, if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parse the value of option `name`, exiting with a message on a
    /// malformed value; `default` when absent.
    pub fn parse_value<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("bad value for {name}: {v}"))),
        }
    }

    /// The positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

/// The base flags plus a binary's own, parsed.
#[derive(Clone, Debug)]
pub struct BenchCli {
    args: Args,
    /// Experiment scale selected by `--smoke` / `--fast` (full otherwise).
    pub scale: RunScale,
    /// Results directory (`--out`, default `results`).
    pub out_dir: PathBuf,
    /// Worker-thread count (`--jobs`; `None` = machine parallelism).
    /// `--jobs 0` is rejected at parse time — there is no pool to run on.
    pub jobs: Option<usize>,
    /// True when `--no-cache` was given.
    pub no_cache: bool,
    /// Result-cache directory (`--cache-dir`, default `<out>/cache`).
    pub cache_dir: PathBuf,
}

impl BenchCli {
    /// The flags every experiment binary accepts.
    pub const BASE: Flags = Flags {
        switches: &["--smoke", "--fast", "--no-cache"],
        options: &["--out", "--jobs", "--cache-dir"],
        positional: 0,
    };

    /// Parse the process arguments against the base flags plus `flags`,
    /// exiting with status 2 on a usage error.
    pub fn parse(flags: Flags) -> Self {
        Self::from_args(std::env::args().skip(1).collect(), flags).unwrap_or_else(|e| die(&e))
    }

    /// Parse an explicit argument list against the base flags plus
    /// `flags`.
    pub fn from_args(args: Vec<String>, flags: Flags) -> Result<Self, String> {
        let args = Args::parse(args, &[Self::BASE, flags])?;
        let scale = if args.flag("--smoke") {
            RunScale::smoke()
        } else if args.flag("--fast") {
            RunScale::fast()
        } else {
            RunScale::full()
        };
        let out_dir = PathBuf::from(args.value("--out").unwrap_or("results"));
        let jobs = match args.value("--jobs") {
            None => None,
            Some(v) => match v.parse() {
                Ok(0) => return Err("--jobs needs at least one worker (got 0); omit the flag for the machine default".into()),
                Ok(n) => Some(n),
                Err(_) => return Err(format!("bad --jobs: {v}")),
            },
        };
        let cache_dir = args
            .value("--cache-dir")
            .map_or_else(|| out_dir.join("cache"), PathBuf::from);
        Ok(BenchCli {
            scale,
            out_dir,
            jobs,
            no_cache: args.flag("--no-cache"),
            cache_dir,
            args,
        })
    }

    /// True when the bare flag `name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.args.flag(name)
    }

    /// The value given to option `name`, if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.args.value(name)
    }

    /// Parse the value of option `name`, exiting with a message on a
    /// malformed value; `default` when absent.
    pub fn parse_value<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.args.parse_value(name, default)
    }

    /// The positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        self.args.positional()
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

#[cfg(test)]
mod tests {
    use super::{BenchCli, Flags};

    const SIM: Flags = Flags {
        switches: &["--plot"],
        options: &["--load", "--scheme"],
        positional: 0,
    };

    fn parse(args: &[&str]) -> Result<BenchCli, String> {
        BenchCli::from_args(args.iter().map(ToString::to_string).collect(), SIM)
    }

    #[test]
    fn declared_and_base_flags_parse() {
        let cli = parse(&["--load", "-0.5", "--plot", "--jobs", "2", "--no-cache"]).unwrap();
        assert_eq!(cli.value("--load"), Some("-0.5"));
        assert!(cli.flag("--plot") && cli.no_cache);
        assert_eq!(cli.jobs, Some(2));
        assert_eq!(cli.value("--scheme"), None);
        assert!(parse(&["-h"]).unwrap().flag("-h"));
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_rejected_by_name() {
        let err = |args: &[&str]| parse(args).unwrap_err();
        assert_eq!(err(&["--laod", "0.9"]), "unknown flag --laod (see --help)");
        // A flag another binary declares is still unknown here.
        assert_eq!(err(&["--verify"]), "unknown flag --verify (see --help)");
        assert_eq!(err(&["0.9"]), "unexpected argument 0.9 (see --help)");
        assert_eq!(err(&["--load"]), "--load wants a value");
        assert!(err(&["--jobs", "0"]).starts_with("--jobs needs at least one worker"));
        assert_eq!(err(&["--jobs", "x"]), "bad --jobs: x");
    }
}
