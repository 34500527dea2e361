//! The `mddsimd` wire protocol: line-delimited JSON over a Unix domain
//! socket.
//!
//! The protocol is deliberately a **serialization of the streaming
//! engine API**, not a second code path: a [`Request::Submit`] carries a
//! [`SweepSpec`] that expands into the same [`Job`] batch a local caller
//! would hand to `Engine::submit`, and every per-point [`Event::Point`]
//! is built from the `PointOutcome` the corresponding `JobHandle`
//! streamed. A client speaking this protocol sees exactly what a caller
//! of `JobHandle::recv` sees, one JSON object per line.
//!
//! ## Lines on the wire
//!
//! A client writes one request per line: `submit` (a [`SweepSpec`]
//! plus `"op"`), `status`, `cancel` or `shutdown`. For a submit the
//! server streams `accepted`, then one `point` per point in *completion*
//! order (each carrying the full result object, or its failure), then
//! `done` with the batch's tallies. Control requests are usually issued
//! on their own connections and get a single reply: `status`,
//! `cancelled` or `shutting_down`. A full transcript is in DESIGN.md
//! §14.3; every line is built and read through [`mdd_obs::Json`].
//!
//! Malformed or unserviceable requests produce an `error` event carrying
//! a `message`, and leave the connection open.
//!
//! Numbers ride as JSON numbers; integers above 2^53 are not
//! representable by every peer, so keys (which would overflow) ride as
//! strings and seeds are expected to stay below that bound.

use crate::engine::PointOutcome;
use crate::error::PointFailure;
use crate::job::Job;
use mdd_core::{PatternSpec, QueueOrg, Scheme, SimConfig, SimResult};
use mdd_obs::Json;

// ---------------------------------------------------------------------------
// Requests (client → server)
// ---------------------------------------------------------------------------

/// One client request, decoded from one line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Queue a sweep; the server streams [`Event::Accepted`], then one
    /// [`Event::Point`] per point in completion order, then
    /// [`Event::Done`].
    Submit(SweepSpec),
    /// Report queued/running jobs, pool gauges, and cache size.
    Status,
    /// Cancel a job: points not yet started stream back as cancelled.
    Cancel {
        /// Server-assigned job id (from [`Event::Accepted`]).
        job: u64,
    },
    /// Graceful shutdown: in-flight jobs finish streaming, then the
    /// server exits and removes its socket.
    Shutdown,
}

impl Request {
    /// Encode as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let op = |name: &str| ("op".to_string(), Json::Str(name.to_string()));
        match self {
            Request::Submit(spec) => spec.to_json(),
            Request::Status => Json::Obj(vec![op("status")]),
            Request::Cancel { job } => {
                Json::Obj(vec![op("cancel"), ("job".to_string(), Json::Int(*job))])
            }
            Request::Shutdown => Json::Obj(vec![op("shutdown")]),
        }
        .render()
    }

    /// Decode one line. `Err` carries a human-readable reason suitable
    /// for an [`Event::Error`] reply.
    pub fn decode(line: &str) -> Result<Request, String> {
        let j = Json::parse(line).ok_or_else(|| "malformed JSON".to_string())?;
        match j.get("op").and_then(Json::as_str) {
            Some("submit") => Ok(Request::Submit(SweepSpec::from_json(&j)?)),
            Some("status") => Ok(Request::Status),
            Some("cancel") => Ok(Request::Cancel {
                job: j
                    .get("job")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| "cancel: missing job id".to_string())?,
            }),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(other) => Err(format!("unknown op {other:?}")),
            None => Err("missing \"op\" field".to_string()),
        }
    }
}

/// A load sweep as it rides the wire: the same parameters
/// `SimConfig::builder` takes locally, expanded server-side into the
/// identical [`Job`] batch via [`SweepSpec::jobs`].
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// Curve label the points report under.
    pub label: String,
    /// Scheme mnemonic: `sa`, `sa+`, `dr` or `pr`.
    pub scheme: String,
    /// Pattern name: `pat100`, `pat721`, `pat451`, `pat271` or `pat280`.
    pub pattern: String,
    /// Virtual channels per physical channel.
    pub vcs: u8,
    /// Torus radix per dimension.
    pub radix: Vec<u32>,
    /// Processors per router.
    pub bristle: u32,
    /// Queue organization override: `shared`, `pernet` or `pertype`.
    pub queue_org: Option<String>,
    /// Warm-up cycles.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Base seed (decorrelated per point exactly as local sweeps are).
    pub seed: u64,
    /// Execution shards inside each point's run (default 1). Results are
    /// bit-identical at any value, and the field stays out of the result
    /// cache key, so it only trades threads for wall-clock.
    pub shards: u32,
    /// Applied loads, one point each.
    pub loads: Vec<f64>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            label: "PR".to_string(),
            scheme: "pr".to_string(),
            pattern: "pat271".to_string(),
            vcs: 4,
            radix: vec![8, 8],
            bristle: 1,
            queue_org: None,
            warmup: 10_000,
            measure: 30_000,
            seed: 0x5eed,
            shards: 1,
            loads: Vec::new(),
        }
    }
}

impl SweepSpec {
    /// The scheme this spec names.
    pub fn scheme(&self) -> Result<Scheme, String> {
        Scheme::from_cli_name(&self.scheme)
            .ok_or_else(|| format!("unknown scheme {:?}", self.scheme))
    }

    /// The transaction pattern this spec names.
    pub fn pattern(&self) -> Result<PatternSpec, String> {
        PatternSpec::from_cli_name(&self.pattern)
            .ok_or_else(|| format!("unknown pattern {:?}", self.pattern))
    }

    /// Expand into the exact job batch a local `Engine::submit` caller
    /// would build: a validated base config swept over `loads` with the
    /// standard per-point seed decorrelation.
    pub fn jobs(&self) -> Result<Vec<Job>, String> {
        if self.loads.is_empty() {
            return Err("submit: empty load list".to_string());
        }
        let queue_org = match self.queue_org.as_deref() {
            None => None,
            Some(name) => Some(
                QueueOrg::from_cli_name(name)
                    .ok_or_else(|| format!("unknown queue org {name:?}"))?,
            ),
        };
        let base: SimConfig = SimConfig::builder()
            .scheme(self.scheme()?)
            .pattern(self.pattern()?)
            .vcs(self.vcs)
            .radix(&self.radix)
            .bristle(self.bristle)
            .queue_org(queue_org)
            .windows(self.warmup, self.measure)
            .seed(self.seed)
            .shards(self.shards)
            .build()
            .map_err(|e| format!("infeasible configuration: {e}"))?;
        Ok(Job::points(&base, &self.loads, &self.label))
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("op".to_string(), Json::Str("submit".to_string())),
            ("label".to_string(), Json::Str(self.label.clone())),
            ("scheme".to_string(), Json::Str(self.scheme.clone())),
            ("pattern".to_string(), Json::Str(self.pattern.clone())),
            ("vcs".to_string(), Json::Int(u64::from(self.vcs))),
            (
                "radix".to_string(),
                Json::Arr(
                    self.radix
                        .iter()
                        .map(|&r| Json::Int(u64::from(r)))
                        .collect(),
                ),
            ),
            ("bristle".to_string(), Json::Int(u64::from(self.bristle))),
        ];
        if let Some(org) = &self.queue_org {
            fields.push(("queue_org".to_string(), Json::Str(org.clone())));
        }
        // Encoded only when non-default so pre-sharding peers (and
        // transcript fixtures) see byte-identical submit lines.
        if self.shards != 1 {
            fields.push(("shards".to_string(), Json::Int(u64::from(self.shards))));
        }
        fields.extend([
            ("warmup".to_string(), Json::Int(self.warmup)),
            ("measure".to_string(), Json::Int(self.measure)),
            ("seed".to_string(), Json::Int(self.seed)),
            (
                "loads".to_string(),
                Json::Arr(self.loads.iter().map(|&l| Json::Num(l)).collect()),
            ),
        ]);
        Json::Obj(fields)
    }

    /// Read a submit request. A missing field takes its default; a
    /// present one of the wrong type, or an integer out of its field's
    /// range, is an error rather than a silently coerced value.
    fn from_json(j: &Json) -> Result<SweepSpec, String> {
        let d = SweepSpec::default();
        let radix: Vec<u32> = list(j, "radix", Json::as_int)?.unwrap_or(d.radix);
        if radix.is_empty() {
            return Err(bad("radix"));
        }
        let loads: Vec<f64> = list(j, "loads", Json::as_f64)?.unwrap_or_default();
        if !loads.iter().all(|l| l.is_finite()) {
            return Err(bad("loads"));
        }
        Ok(SweepSpec {
            label: field(j, "label", Json::as_str)?.map_or(d.label, str::to_string),
            scheme: field(j, "scheme", Json::as_str)?.map_or(d.scheme, str::to_string),
            pattern: field(j, "pattern", Json::as_str)?.map_or(d.pattern, str::to_string),
            vcs: field(j, "vcs", Json::as_int)?.unwrap_or(d.vcs),
            radix,
            bristle: field(j, "bristle", Json::as_int)?.unwrap_or(d.bristle),
            queue_org: field(j, "queue_org", Json::as_str)?.map(str::to_string),
            warmup: field(j, "warmup", Json::as_int)?.unwrap_or(d.warmup),
            measure: field(j, "measure", Json::as_int)?.unwrap_or(d.measure),
            seed: field(j, "seed", Json::as_int)?.unwrap_or(d.seed),
            shards: field(j, "shards", Json::as_int)?.unwrap_or(d.shards),
            loads,
        })
    }
}

/// Submit field `k` converted by `read`: `None` when absent, an error
/// when present but not convertible (wrong type, or an integer out of
/// range for its field).
fn field<'a, T>(
    j: &'a Json,
    k: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    j.get(k).map(|v| read(v).ok_or_else(|| bad(k))).transpose()
}

/// Array field `k` whose every item converts by `read`.
fn list<T>(j: &Json, k: &str, read: impl Fn(&Json) -> Option<T>) -> Result<Option<Vec<T>>, String> {
    field(j, k, |v| v.as_arr()?.iter().map(read).collect())
}

fn bad(k: &str) -> String {
    format!("submit: bad {k}")
}

// ---------------------------------------------------------------------------
// Events (server → client)
// ---------------------------------------------------------------------------

/// One streamed point, the wire form of a `PointOutcome`.
#[derive(Clone, Debug)]
pub struct PointEvent {
    /// Server-assigned job id.
    pub job: u64,
    /// Point id within the batch (its index in the load schedule).
    pub id: usize,
    /// Curve label.
    pub label: String,
    /// Applied load of the point.
    pub load: f64,
    /// True when the result came from the persistent cache.
    pub cached: bool,
    /// Wall-clock microseconds the simulation took (0 for cache hits).
    pub wall_micros: u64,
    /// Static pre-flight verdict name, when one was computed.
    pub verdict: Option<String>,
    /// The measured result, or the failure kind and message
    /// (`"panic: …"`, `"config: …"`, `"cancelled"`).
    pub result: Result<SimResult, String>,
}

/// Pool gauges as they ride the status event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStatus {
    /// Worker threads in the daemon's pool.
    pub threads: u64,
    /// Workers busy at sample time.
    pub busy: u64,
    /// Tasks waiting in the pool's queue at sample time.
    pub queued: u64,
    /// Cumulative tasks executed.
    pub executed: u64,
}

impl From<rayon::PoolStats> for PoolStatus {
    fn from(s: rayon::PoolStats) -> Self {
        PoolStatus {
            threads: s.threads as u64,
            busy: s.busy as u64,
            queued: s.queued as u64,
            executed: s.executed,
        }
    }
}

/// One job row of a status event.
#[derive(Clone, Debug, PartialEq)]
pub struct JobStatus {
    /// Server-assigned job id.
    pub job: u64,
    /// Curve label.
    pub label: String,
    /// `running`, `done` or `cancelled`.
    pub state: String,
    /// Points streamed so far.
    pub done: u64,
    /// Points in the batch.
    pub total: u64,
}

/// One server event, encoded as one line.
#[derive(Clone, Debug)]
pub enum Event {
    /// The submit was queued under `job`.
    Accepted {
        /// Server-assigned job id.
        job: u64,
        /// Points in the batch.
        points: u64,
    },
    /// One point completed (streamed in completion order).
    Point(Box<PointEvent>),
    /// Every point of `job` has streamed.
    Done {
        /// Server-assigned job id.
        job: u64,
        /// Points in the batch.
        points: u64,
        /// Points freshly simulated.
        simulated: u64,
        /// Points served from the cache.
        cached: u64,
        /// Points that failed (config errors, isolated panics).
        failed: u64,
        /// Points cancelled before they started.
        cancelled: u64,
    },
    /// Reply to [`Request::Status`].
    Status {
        /// Every job the server still remembers, submission order.
        jobs: Vec<JobStatus>,
        /// Shared-pool gauges.
        pool: PoolStatus,
        /// Points in the persistent cache (`None` when uncached).
        cache_points: Option<u64>,
    },
    /// Reply to [`Request::Cancel`].
    Cancelled {
        /// The cancelled job.
        job: u64,
    },
    /// Reply to [`Request::Shutdown`]; the server exits after in-flight
    /// jobs finish streaming.
    ShuttingDown,
    /// A request could not be parsed or serviced.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl Event {
    /// The wire form of one streamed `PointOutcome` — the serialization
    /// of what `JobHandle::recv` yields locally.
    pub fn point(job: u64, o: &PointOutcome) -> Event {
        Event::Point(Box::new(PointEvent {
            job,
            id: o.job.id,
            label: o.job.label.clone(),
            load: o.job.load(),
            cached: o.from_cache,
            wall_micros: o.wall_micros,
            verdict: o.verdict.as_ref().map(|v| v.name().to_string()),
            result: match &o.result {
                Ok(r) => Ok(r.clone()),
                Err(e) => Err(match &e.failure {
                    PointFailure::Config(c) => format!("config: {c}"),
                    PointFailure::Panic(m) => format!("panic: {m}"),
                    PointFailure::Cancelled => "cancelled".to_string(),
                }),
            },
        }))
    }

    /// Encode as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let obj = match self {
            Event::Accepted { job, points } => vec![
                ev("accepted"),
                ("job".to_string(), Json::Int(*job)),
                ("points".to_string(), Json::Int(*points)),
            ],
            Event::Point(p) => {
                let mut fields = vec![
                    ev("point"),
                    ("job".to_string(), Json::Int(p.job)),
                    ("id".to_string(), Json::Int(p.id as u64)),
                    ("label".to_string(), Json::Str(p.label.clone())),
                    ("load".to_string(), Json::Num(p.load)),
                    ("cached".to_string(), Json::Bool(p.cached)),
                    ("wall_micros".to_string(), Json::Int(p.wall_micros)),
                ];
                if let Some(v) = &p.verdict {
                    fields.push(("verdict".to_string(), Json::Str(v.clone())));
                }
                match &p.result {
                    Ok(r) => {
                        fields.push(("ok".to_string(), Json::Bool(true)));
                        fields.push(("result".to_string(), crate::codec::result_to_json(r)));
                    }
                    Err(msg) => {
                        fields.push(("ok".to_string(), Json::Bool(false)));
                        fields.push(("error".to_string(), Json::Str(msg.clone())));
                    }
                }
                fields
            }
            Event::Done {
                job,
                points,
                simulated,
                cached,
                failed,
                cancelled,
            } => vec![
                ev("done"),
                ("job".to_string(), Json::Int(*job)),
                ("points".to_string(), Json::Int(*points)),
                ("simulated".to_string(), Json::Int(*simulated)),
                ("cached".to_string(), Json::Int(*cached)),
                ("failed".to_string(), Json::Int(*failed)),
                ("cancelled".to_string(), Json::Int(*cancelled)),
            ],
            Event::Status {
                jobs,
                pool,
                cache_points,
            } => vec![
                ev("status"),
                (
                    "jobs".to_string(),
                    Json::Arr(
                        jobs.iter()
                            .map(|s| {
                                Json::Obj(vec![
                                    ("job".to_string(), Json::Int(s.job)),
                                    ("label".to_string(), Json::Str(s.label.clone())),
                                    ("state".to_string(), Json::Str(s.state.clone())),
                                    ("done".to_string(), Json::Int(s.done)),
                                    ("total".to_string(), Json::Int(s.total)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "pool".to_string(),
                    Json::Obj(vec![
                        ("threads".to_string(), Json::Int(pool.threads)),
                        ("busy".to_string(), Json::Int(pool.busy)),
                        ("queued".to_string(), Json::Int(pool.queued)),
                        ("executed".to_string(), Json::Int(pool.executed)),
                    ]),
                ),
                (
                    "cache_points".to_string(),
                    cache_points.map_or(Json::Null, Json::Int),
                ),
            ],
            Event::Cancelled { job } => {
                vec![ev("cancelled"), ("job".to_string(), Json::Int(*job))]
            }
            Event::ShuttingDown => vec![ev("shutting_down")],
            Event::Error { message } => vec![
                ev("error"),
                ("message".to_string(), Json::Str(message.clone())),
            ],
        };
        Json::Obj(obj).render()
    }

    /// Decode one line. `Err` carries a human-readable reason.
    pub fn decode(line: &str) -> Result<Event, String> {
        let j = Json::parse(line).ok_or_else(|| "malformed JSON".to_string())?;
        let int = |k: &str| -> Result<u64, String> {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing field {k:?}"))
        };
        match j.get("event").and_then(Json::as_str) {
            Some("accepted") => Ok(Event::Accepted {
                job: int("job")?,
                points: int("points")?,
            }),
            Some("point") => {
                let result = if j.get("ok").and_then(Json::as_bool) == Some(true) {
                    let r = j
                        .get("result")
                        .and_then(crate::codec::result_from_json)
                        .ok_or_else(|| "point: bad result object".to_string())?;
                    Ok(r)
                } else {
                    Err(j
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown failure")
                        .to_string())
                };
                Ok(Event::Point(Box::new(PointEvent {
                    job: int("job")?,
                    id: int("id")? as usize,
                    label: j
                        .get("label")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    load: j
                        .get("load")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| "point: missing load".to_string())?,
                    cached: j.get("cached").and_then(Json::as_bool).unwrap_or(false),
                    wall_micros: j.get("wall_micros").and_then(Json::as_u64).unwrap_or(0),
                    verdict: j.get("verdict").and_then(Json::as_str).map(str::to_string),
                    result,
                })))
            }
            Some("done") => Ok(Event::Done {
                job: int("job")?,
                points: int("points")?,
                simulated: int("simulated")?,
                cached: int("cached")?,
                failed: int("failed")?,
                cancelled: int("cancelled")?,
            }),
            Some("status") => {
                let jobs = j
                    .get("jobs")
                    .and_then(Json::as_arr)
                    .map(|rows| {
                        rows.iter()
                            .filter_map(|r| {
                                Some(JobStatus {
                                    job: r.get("job").and_then(Json::as_u64)?,
                                    label: r.get("label").and_then(Json::as_str)?.to_string(),
                                    state: r.get("state").and_then(Json::as_str)?.to_string(),
                                    done: r.get("done").and_then(Json::as_u64)?,
                                    total: r.get("total").and_then(Json::as_u64)?,
                                })
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                let p = j
                    .get("pool")
                    .ok_or_else(|| "status: missing pool".to_string())?;
                let pool_int = |k: &str| p.get(k).and_then(Json::as_u64).unwrap_or(0);
                Ok(Event::Status {
                    jobs,
                    pool: PoolStatus {
                        threads: pool_int("threads"),
                        busy: pool_int("busy"),
                        queued: pool_int("queued"),
                        executed: pool_int("executed"),
                    },
                    cache_points: j.get("cache_points").and_then(Json::as_u64),
                })
            }
            Some("cancelled") => Ok(Event::Cancelled { job: int("job")? }),
            Some("shutting_down") => Ok(Event::ShuttingDown),
            Some("error") => Ok(Event::Error {
                message: j
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
            }),
            Some(other) => Err(format!("unknown event {other:?}")),
            None => Err("missing \"event\" field".to_string()),
        }
    }
}

fn ev(name: &str) -> (String, Json) {
    ("event".to_string(), Json::Str(name.to_string()))
}
