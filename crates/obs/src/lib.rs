//! # mdd-obs — simulator observability
//!
//! Cycle-level tracing, counters, and recovery-path instrumentation for
//! the message-dependent-deadlock simulator (Song & Pinkston, IPPS 2001).
//! Where the paper reports aggregate outcomes (Figures 8–11), this layer
//! exposes the *mechanism*: how often the detector of Section 4.1 fires,
//! how far the Extended Disha token of Section 3 travels between
//! captures, and how each recovery episode unfolds stop by stop.
//!
//! Three pieces:
//!
//! * a process-global registry of named monotonic counters and sampled
//!   gauges ([`Counters`], [`CounterId`]) — flits routed, VC
//!   allocations/stalls, token hops, DB/DMB occupancy, backoff replies,
//!   deadlocks detected/recovered, messages rescued;
//! * a bounded ring-buffer trace of typed events ([`EventTrace`],
//!   [`Event`]) with cycle timestamps, fed through the [`trace!`] macro;
//! * snapshot sinks writing counters and the trace as JSON (the [`sink`]
//!   module) through [`Json`], the workspace's one JSON codec, kept in
//!   this dependency-free crate so every other crate can use it.
//!
//! ## Gating and cost
//!
//! The layer is **off by default**. Instrumentation sites compile to a
//! single relaxed atomic load and branch while no sink is installed —
//! the [`trace!`] macro does not even evaluate its event expression, and
//! the counter helpers return before touching the registry. Call
//! [`install`] to turn everything on and [`uninstall`] to tear it down.
//! The registry and trace are process-global: concurrent simulations
//! (e.g. a parallel load sweep) merge into one stream.
//!
//! ## Reading counters
//!
//! ```
//! use mdd_obs::{self as obs, CounterId};
//!
//! obs::install(1024);
//! obs::counter_add(CounterId::TokenHops, 3);
//! obs::trace!(obs::Event::TokenPass { cycle: 7, at: 0, at_nic: false });
//!
//! let report = obs::uninstall().expect("was installed");
//! assert_eq!(report.get(CounterId::TokenHops), 3);
//! assert_eq!(report.events_recorded, 1);
//! assert!(!obs::enabled()); // everything off again
//! ```

#![warn(missing_docs)]

mod counters;
mod event;
mod json;
pub mod sink;
mod trace;

pub use counters::{CounterEntry, CounterId, CounterSnapshot, Counters, NUM_COUNTERS};
pub use event::Event;
pub use json::{Json, ARTIFACT_SCHEMA};
pub use trace::EventTrace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Counters = Counters::new();
static TRACE: Mutex<Option<EventTrace>> = Mutex::new(None);

/// True while the observability layer is installed. Instrumentation
/// sites check this before doing any work.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the layer on: zero every counter, replace the event trace with a
/// fresh ring buffer of `trace_capacity` events, and enable recording.
pub fn install(trace_capacity: usize) {
    GLOBAL.reset();
    *TRACE.lock().unwrap() = Some(EventTrace::new(trace_capacity));
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn the layer off, returning the final [`ObsReport`] (or `None` if
/// it was not installed). The event trace is dropped; snapshot it first
/// via [`trace_snapshot`] if the events are needed.
pub fn uninstall() -> Option<ObsReport> {
    if !enabled() {
        return None;
    }
    let report = ObsReport::capture();
    ENABLED.store(false, Ordering::Relaxed);
    *TRACE.lock().unwrap() = None;
    Some(report)
}

/// Add `n` to a monotonic counter. No-op while the layer is off.
#[inline]
pub fn counter_add(id: CounterId, n: u64) {
    if enabled() {
        GLOBAL.add(id, n);
    }
}

/// Overwrite a gauge with a freshly sampled value. No-op while the layer
/// is off.
#[inline]
pub fn gauge_set(id: CounterId, v: u64) {
    if enabled() {
        GLOBAL.set(id, v);
    }
}

/// Append an event to the installed trace. Prefer the [`trace!`] macro,
/// which skips constructing the event entirely while the layer is off.
pub fn record(ev: Event) {
    if !enabled() {
        return;
    }
    if let Some(t) = TRACE.lock().unwrap().as_mut() {
        t.push(ev);
    }
}

/// Record an [`Event`] if the observability layer is installed. The
/// event expression is only evaluated when recording will happen, so a
/// disabled site costs one relaxed load and a branch:
///
/// ```
/// # use mdd_obs::{trace, Event};
/// trace!(Event::Inject { cycle: 12, nic: 0, msg: 42, mtype: 0 });
/// ```
#[macro_export]
macro_rules! trace {
    ($ev:expr) => {
        if $crate::enabled() {
            $crate::record($ev);
        }
    };
}

/// Snapshot of every counter and gauge right now (all zeros when the
/// layer is off).
pub fn counters_snapshot() -> CounterSnapshot {
    GLOBAL.snapshot()
}

/// Copy of the installed trace: `(events oldest-first, recorded, dropped)`.
/// `None` while the layer is off.
pub fn trace_snapshot() -> Option<(Vec<Event>, u64, u64)> {
    TRACE
        .lock()
        .unwrap()
        .as_ref()
        .map(|t| (t.events(), t.recorded(), t.dropped()))
}

/// A self-contained summary of the observability state: all counter
/// values plus trace volume. Cheap to clone and carry in results (the
/// events themselves stay in the ring buffer).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsReport {
    /// Every counter and gauge at capture time.
    pub counters: CounterSnapshot,
    /// Events pushed into the trace so far.
    pub events_recorded: u64,
    /// Events overwritten after the ring buffer filled.
    pub events_dropped: u64,
}

impl ObsReport {
    /// Capture the current global state.
    pub fn capture() -> Self {
        let (recorded, dropped) = TRACE
            .lock()
            .unwrap()
            .as_ref()
            .map_or((0, 0), |t| (t.recorded(), t.dropped()));
        ObsReport {
            counters: counters_snapshot(),
            events_recorded: recorded,
            events_dropped: dropped,
        }
    }

    /// Value of one counter in the captured snapshot.
    pub fn get(&self, id: CounterId) -> u64 {
        self.counters.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global layer is process-wide state shared by every #[test]
    // thread, so the lifecycle test runs as one serialized scenario.
    #[test]
    fn install_record_uninstall_lifecycle() {
        assert!(!enabled());
        // Disabled: helpers are inert and trace! does not evaluate.
        counter_add(CounterId::VcStalls, 5);
        let mut evaluated = false;
        trace!({
            evaluated = true;
            Event::TokenPass {
                cycle: 0,
                at: 0,
                at_nic: false,
            }
        });
        assert!(!evaluated, "trace! must not evaluate its event when off");
        assert_eq!(counters_snapshot().get(CounterId::VcStalls), 0);
        assert!(trace_snapshot().is_none());
        assert!(uninstall().is_none());

        install(8);
        counter_add(CounterId::VcStalls, 5);
        gauge_set(CounterId::DmbOccupancy, 3);
        for c in 0..12u64 {
            trace!(Event::TokenPass {
                cycle: c,
                at: 1,
                at_nic: true
            });
        }
        let (events, recorded, dropped) = trace_snapshot().unwrap();
        assert_eq!((events.len(), recorded, dropped), (8, 12, 4));
        let report = uninstall().unwrap();
        assert_eq!(report.get(CounterId::VcStalls), 5);
        assert_eq!(report.get(CounterId::DmbOccupancy), 3);
        assert_eq!(report.events_recorded, 12);
        assert_eq!(report.events_dropped, 4);
        assert!(!enabled());

        // Reinstall starts clean.
        install(8);
        assert_eq!(counters_snapshot().get(CounterId::VcStalls), 0);
        assert_eq!(trace_snapshot().unwrap().1, 0);
        uninstall();
    }
}
