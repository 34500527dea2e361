//! Shared command-line handling for the binaries in `src/bin/`.
//!
//! Each binary declares the flags it takes as [`Flags`], and [`Args`]
//! checks an argument list against them: a flag nobody declared, or an
//! option given twice, is a usage error (exit status 2, naming the
//! flag), never silently ignored.
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
//! Binary-specific flags are read through [`BenchCli::args`].
//! [`BenchCli::engine`] turns the cache/jobs flags into a configured
//! [`Engine`]. The flags that describe a run ([`RUN_FLAGS`]) are read by
//! one function, [`run_spec`], for both `mddsim` and `mddsim-client`.

use crate::experiments::RunScale;
use mdd_core::SimConfig;
use mdd_engine::proto::SweepSpec;
use mdd_engine::Engine;
use mdd_obs::{Json, ARTIFACT_SCHEMA};
use std::path::PathBuf;
use std::str::FromStr;

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
    /// them declares, an option missing its value or given twice, or a
    /// positional argument beyond the declared count.
    pub fn parse(args: Vec<String>, flags: &[Flags]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if flags.iter().any(|f| f.options.contains(&a.as_str())) {
                let v = it.next().ok_or_else(|| format!("{a} wants a value"))?;
                if out.value(&a).is_some() {
                    return Err(format!("{a} given more than once (see --help)"));
                }
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
    pub fn parse_value<T: FromStr>(&self, name: &str, default: T) -> T {
        let mut value = default;
        self.assign(name, &mut value).unwrap_or_else(|e| die(&e));
        value
    }

    /// Overwrite `field` with the parsed value of option `name`, if given.
    fn assign<T: FromStr>(&self, name: &str, field: &mut T) -> Result<(), String> {
        if let Some(v) = self.value(name) {
            *field = v
                .parse()
                .map_err(|_| format!("bad value for {name}: {v}"))?;
        }
        Ok(())
    }

    /// The positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

/// The flags that describe a run, shared by `mddsim` and
/// `mddsim-client submit` (`mddsim --help` lists them with their
/// defaults, which are [`SweepSpec::default`]'s).
pub const RUN_FLAGS: Flags = Flags {
    switches: &[],
    options: &[
        "--scheme",
        "--pattern",
        "--vcs",
        "--radix",
        "--bristle",
        "--queue-org",
        "--warmup",
        "--measure",
        "--seed",
        "--sweep",
    ],
    positional: 0,
};

/// Read the [`RUN_FLAGS`] in `args` into a [`SweepSpec`]: each flag given
/// replaces its field of [`SweepSpec::default`], the label is the
/// upper-cased scheme name, and the loads are `--sweep`'s (none without
/// it). Names are checked later, by [`SweepSpec::base_config`].
pub fn run_spec(args: &Args) -> Result<SweepSpec, String> {
    let mut spec = SweepSpec::default();
    if let Some(v) = args.value("--scheme") {
        spec.scheme = v.to_string();
    }
    if let Some(v) = args.value("--pattern") {
        spec.pattern = v.to_string();
    }
    spec.label = spec.scheme.to_uppercase();
    args.assign("--vcs", &mut spec.vcs)?;
    if let Some(v) = args.value("--radix") {
        spec.radix = SimConfig::parse_topo(v).map_err(|e| format!("bad topology spec: {e}"))?;
    }
    args.assign("--bristle", &mut spec.bristle)?;
    spec.queue_org = args.value("--queue-org").map(str::to_string);
    args.assign("--warmup", &mut spec.warmup)?;
    args.assign("--measure", &mut spec.measure)?;
    args.assign("--seed", &mut spec.seed)?;
    if let Some(sweep) = args.value("--sweep") {
        let [lo, hi, n] = sweep.split(':').collect::<Vec<_>>()[..] else {
            return Err("--sweep wants LO:HI:N".to_string());
        };
        let lo: f64 = lo.parse().map_err(|_| "bad sweep lo")?;
        let hi: f64 = hi.parse().map_err(|_| "bad sweep hi")?;
        let n: usize = n.parse().map_err(|_| "bad sweep n")?;
        if !(n >= 2 && hi > lo) {
            return Err(format!("--sweep wants LO < HI and N >= 2, got {sweep}"));
        }
        spec.loads = mdd_core::default_loads(lo, hi, n);
    }
    Ok(spec)
}

/// The base flags plus a binary's own, parsed.
#[derive(Clone, Debug)]
pub struct BenchCli {
    /// The whole argument list, for the binary's own flags.
    pub args: Args,
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
    pub fn parse(flags: &[Flags]) -> Self {
        Self::from_args(std::env::args().skip(1).collect(), flags).unwrap_or_else(|e| die(&e))
    }

    /// Parse an explicit argument list against the base flags plus
    /// `flags`.
    pub fn from_args(args: Vec<String>, flags: &[Flags]) -> Result<Self, String> {
        let args = Args::parse(args, &[&[Self::BASE], flags].concat())?;
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
    use super::{run_spec, Args, BenchCli, Flags, RUN_FLAGS};
    use mdd_engine::proto::SweepSpec;

    const SIM: Flags = Flags {
        switches: &["--plot"],
        options: &["--load", "--scheme"],
        positional: 0,
    };

    fn parse(args: &[&str]) -> Result<BenchCli, String> {
        BenchCli::from_args(args.iter().map(ToString::to_string).collect(), &[SIM])
    }

    #[test]
    fn declared_and_base_flags_parse() {
        let cli = parse(&["--load", "-0.5", "--plot", "--jobs", "2", "--no-cache"]).unwrap();
        assert_eq!(cli.args.value("--load"), Some("-0.5"));
        assert!(cli.args.flag("--plot") && cli.no_cache);
        assert_eq!(cli.jobs, Some(2));
        assert_eq!(cli.args.value("--scheme"), None);
        assert!(parse(&["-h"]).unwrap().args.flag("-h"));
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

    #[test]
    fn a_repeated_option_is_rejected_by_name() {
        let err = |args: &[&str]| parse(args).unwrap_err();
        assert_eq!(
            err(&["--load", "0.2", "--plot", "--load", "0.9"]),
            "--load given more than once (see --help)"
        );
        assert_eq!(
            err(&["--jobs", "1", "--jobs", "1"]),
            "--jobs given more than once (see --help)"
        );
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    /// An `mddsim` argument list and the matching `mddsim-client submit`
    /// list, each parsed against its binary's flag set, read into one
    /// spec and one batch of job keys.
    #[test]
    fn mddsim_and_client_flags_read_into_one_spec() {
        let run = [
            "--scheme",
            "dr",
            "--pattern",
            "pat721",
            "--vcs",
            "8",
            "--radix",
            "4x4",
            "--bristle",
            "2",
            "--queue-org",
            "pertype",
            "--warmup",
            "100",
            "--measure",
            "300",
            "--seed",
            "7",
            "--sweep",
            "0.05:0.30:6",
        ];
        let mddsim = BenchCli::from_args(
            strings(&[&run[..], &["--plot", "--jobs", "1", "--load", "0.2"]].concat()),
            &[
                RUN_FLAGS,
                Flags {
                    switches: &["--plot"],
                    options: &["--load"],
                    positional: 0,
                },
            ],
        )
        .unwrap();
        let client = Args::parse(
            strings(&[&["--socket", "/tmp/s", "submit"][..], &run].concat()),
            &[
                RUN_FLAGS,
                Flags {
                    switches: &[],
                    options: &["--socket", "--label"],
                    positional: 2,
                },
            ],
        )
        .unwrap();
        let (a, b) = (run_spec(&mddsim.args).unwrap(), run_spec(&client).unwrap());
        assert_eq!(a, b);
        assert_eq!(a.label, "DR");
        assert_eq!((a.vcs, &a.radix[..], a.loads.len()), (8, &[4, 4][..], 6));
        let keys = |s: &SweepSpec| -> Vec<String> {
            s.jobs().unwrap().iter().map(mdd_engine::Job::key).collect()
        };
        assert_eq!(keys(&a), keys(&b));
        // No run flag at all is the default spec, loads aside.
        let none = run_spec(&Args::parse(Vec::new(), &[RUN_FLAGS]).unwrap()).unwrap();
        assert_eq!(none, SweepSpec::default());
    }

    #[test]
    fn malformed_run_flags_are_errors() {
        let err = |args: &[&str]| {
            run_spec(&Args::parse(strings(args), &[RUN_FLAGS]).unwrap()).unwrap_err()
        };
        assert_eq!(err(&["--vcs", "x"]), "bad value for --vcs: x");
        assert_eq!(err(&["--sweep", "0.1:0.2"]), "--sweep wants LO:HI:N");
        assert_eq!(err(&["--sweep", "a:0.2:3"]), "bad sweep lo");
        for bad in ["0.2:0.1:3", "0.1:0.2:1", "0.1:0.1:3", "nan:0.2:3"] {
            assert_eq!(
                err(&["--sweep", bad]),
                format!("--sweep wants LO < HI and N >= 2, got {bad}")
            );
        }
        assert!(err(&["--radix", "8x"]).starts_with("bad topology spec"));
    }
}
