//! mdd-engine: the fault-tolerant, cached, streaming experiment engine.
//!
//! All figure harnesses, the bench binaries, and the `mddsimd` sweep
//! daemon route their simulation points through this crate. Four ideas
//! compose:
//!
//! 1. **Jobs.** A [`Job`] is one fully resolved
//!    [`SimConfig`](mdd_core::SimConfig) plus the curve label and point
//!    id it reports under. [`Job::points`] expands a base config and a
//!    load vector into a batch, applying the same per-point seed
//!    decorrelation the classic sweep used.
//! 2. **Streaming submission.** [`Engine::submit`] schedules a batch
//!    onto one FIFO thread pool and returns a [`JobHandle`]
//!    immediately; each [`PointOutcome`] streams back as it completes
//!    ([`JobHandle::recv`] / [`JobHandle::try_recv`]), and
//!    [`JobHandle::wait`] assembles the drained stream into a
//!    [`SweepReport`] ordered by job id — bit-identical regardless of
//!    worker count. Batches can be cancelled mid-flight; unstarted
//!    points then stream back as [`PointFailure::Cancelled`].
//! 3. **Fault isolation.** Every point runs under `catch_unwind`: a
//!    poisoned point becomes a typed [`PointError`] in the stream while
//!    every other point runs to completion. Configuration failures
//!    surface the same way.
//! 4. **Content-addressed caching.** With a cache directory
//!    ([`EngineBuilder::cache_dir`]),
//!    each completed point is persisted to an append-only JSONL shard
//!    keyed by the canonical hash of its configuration. Re-running an
//!    unchanged experiment simulates zero new points; changing any
//!    semantic field invalidates exactly the affected points. An
//!    interrupted sweep resumes from what it already finished, and
//!    concurrent engines may share a directory.
//!
//! The [`proto`] module serializes this same surface over a Unix domain
//! socket for the `mddsimd` daemon: a remote submit expands to the same
//! job batch, and each streamed line is one `PointOutcome`.
//!
//! ```
//! use mdd_engine::Engine;
//! use mdd_core::{PatternSpec, Scheme, SimConfig};
//!
//! let mut base = SimConfig::paper_default(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.0);
//! base.radix = vec![4, 4];
//! base.warmup = 200;
//! base.measure = 400;
//! base.validate().unwrap();
//! // or Engine::builder().cache_dir("results/cache").build()?
//! let engine = Engine::new();
//! let mut handle = engine.submit_sweep(&base, &[0.1, 0.2], "PR");
//! while let Some(outcome) = handle.recv() {
//!     // Points arrive as they complete — report progress here.
//!     assert!(outcome.result.is_ok());
//! }
//! let report = handle.wait(); // already drained: assembles instantly
//! assert!(report.complete());
//! let curve = report.curve("PR");
//! assert_eq!(curve.points.len(), 2);
//! ```

mod cache;
mod codec;
mod engine;
mod error;
mod job;
pub mod proto;

pub use cache::ResultCache;
pub use codec::{decode_line, encode_line, CACHE_LINE_VERSION};
pub use engine::{Canceller, Engine, EngineBuilder, JobHandle, PointOutcome, SweepReport};
pub use error::{PointError, PointFailure};
pub use job::Job;
pub use mdd_obs::Json;

/// The conventional cache directory used by the bench binaries.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// The conventional socket path of the `mddsimd` daemon.
pub const DEFAULT_SOCKET: &str = "/tmp/mddsimd.sock";
