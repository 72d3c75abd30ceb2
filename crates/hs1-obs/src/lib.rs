//! Deterministic tracing + metrics: per-stage latency attribution.
//!
//! Every layer of the stack (consensus engines, ledger execution, the
//! storage journal, the TCP node runner, the simulator) reports into one
//! [`Observer`] through a cloneable [`Obs`] handle. The layer code never
//! knows whether anyone is listening: the default handle is a no-op whose
//! emission cost is a single `Option` branch, and an attached observer is
//! a *pure* observer — it draws no randomness, perturbs no engine state,
//! and leaves `Report::fingerprint`, execution digests, and state roots
//! bit-identical (pinned by property tests in the facade crate).
//!
//! # Determinism contract
//!
//! Trace timestamps come from a harness-controlled [`Clock`]: the
//! simulator drives a [`Clock::manual`] with sim-time, so two runs of the
//! same seed produce **byte-identical JSONL** trace files; the TCP runtime
//! uses [`Clock::wall`], where byte-identity is explicitly not promised.
//! Wall-measured durations (fsync latency, batch execute time) are
//! confined to [log2 histograms](Histogram) in the metrics snapshot and
//! never appear in the trace, so they cannot break trace reproducibility
//! even under the simulator.
//!
//! # Output formats
//!
//! * **JSONL trace** (`RecordingObserver::write_jsonl`): one event per
//!   line, ordered as emitted — `{"at":..,"actor":..,"kind":..,...}`.
//! * **CSV / table metrics snapshot** ([`MetricsSnapshot`]): counters,
//!   gauges, and histogram summaries in a fixed schema shared by sim
//!   reports, the chaos replay tool, and the TCP bins.
//! * **Prometheus text** ([`MetricsSnapshot::to_prometheus`]): the same
//!   snapshot in exposition format, served by the TCP stack's `/metrics`
//!   introspection endpoint.
//!
//! # Cluster-level analysis
//!
//! Per-node traces compose into cluster timelines: [`lanes`] splits a
//! cluster's recording into one lane per replica (one JSONL file each),
//! [`ClusterTrace`] merges N such traces into one causally-ordered
//! timeline (shared-clock for sim traces, first-contact offset alignment
//! for wall-clock TCP traces), [`critical_path`] extracts each committed
//! block's slowest causal chain with per-hop replica attribution, and
//! [`perfetto`] exports the merged timeline as Chrome `trace_event` JSON
//! for ui.perfetto.dev. All of it is post-processing over recorded,
//! deterministic data — nothing here feeds back into the observed system.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod event;
mod record;

pub mod critical_path;
mod fanout;
pub mod perfetto;
mod trace;

pub use critical_path::{attribution_csv, BlockPath, HOP_NAMES};
pub use event::{block_key, EventKind, Stage, TraceEvent};
pub use fanout::{lanes, write_lanes};
pub use record::{Histogram, MetricsSnapshot, RecordingObserver};
pub use trace::{Alignment, ClusterTrace};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The sink interface. Implementations must be pure observers: no
/// randomness, no feedback into the observed system.
pub trait Observer: Send {
    /// A timeline event (stage transition, span edge, or point sample).
    fn on_event(&mut self, ev: TraceEvent);
    /// Add `delta` to a monotonic counter. `idx` distinguishes instances
    /// of the same counter (e.g. a peer id); use 0 when unindexed.
    fn add_counter(&mut self, actor: u32, name: &'static str, idx: u32, delta: u64);
    /// Set a gauge to its current value (last write wins).
    fn set_gauge(&mut self, actor: u32, name: &'static str, idx: u32, value: u64);
    /// Record one duration sample (nanoseconds) into a log2 histogram.
    fn observe(&mut self, actor: u32, name: &'static str, nanos: u64);
    /// Persist any buffered output (e.g. the JSONL trace). Called by
    /// harnesses before exiting — including the invariant-violation exit
    /// path, so a failing run still leaves its diagnostics on disk.
    fn flush(&mut self);
}

/// Time source for trace timestamps.
///
/// [`Clock::manual`] is set explicitly by the harness (the simulator
/// writes sim-time before dispatching each event), making timestamps a
/// pure function of the seed. [`Clock::wall`] reads elapsed wall time
/// from a base instant (the TCP runtime).
#[derive(Clone)]
pub struct Clock(ClockInner);

#[derive(Clone)]
enum ClockInner {
    Manual(Arc<AtomicU64>),
    Wall(Instant),
}

impl Clock {
    /// A harness-driven clock starting at 0.
    pub fn manual() -> Clock {
        Clock(ClockInner::Manual(Arc::new(AtomicU64::new(0))))
    }

    /// A wall clock measuring from now.
    pub fn wall() -> Clock {
        Clock(ClockInner::Wall(Instant::now()))
    }

    /// Set the current time in nanoseconds (manual clocks only; a no-op
    /// on wall clocks).
    pub(crate) fn set(&self, nanos: u64) {
        if let ClockInner::Manual(t) = &self.0 {
            t.store(nanos, Ordering::Relaxed);
        }
    }

    /// Current time in nanoseconds.
    pub(crate) fn now(&self) -> u64 {
        match &self.0 {
            ClockInner::Manual(t) => t.load(Ordering::Relaxed),
            ClockInner::Wall(base) => base.elapsed().as_nanos() as u64,
        }
    }
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::manual()
    }
}

/// Cloneable handle carried by every instrumented layer.
///
/// A handle is (sink, clock, actor id). The default handle has no sink
/// and every emission returns after one branch. Clones share the sink and
/// clock; [`Obs::with_actor`] re-tags a clone with the owning replica's
/// id so all layers inside one replica report under one actor.
#[derive(Clone, Default)]
pub struct Obs {
    sink: Option<Arc<Mutex<dyn Observer>>>,
    clock: Clock,
    actor: u32,
}

impl Obs {
    /// The no-op handle (same as `Obs::default()`).
    pub fn noop() -> Obs {
        Obs::default()
    }

    /// A handle feeding `sink`, stamped by `clock`, as actor 0.
    pub fn new(sink: Arc<Mutex<dyn Observer>>, clock: Clock) -> Obs {
        Obs { sink: Some(sink), clock, actor: 0 }
    }

    /// A recording handle plus the shared recorder for later export.
    pub fn recording(clock: Clock) -> (Obs, Arc<Mutex<RecordingObserver>>) {
        let rec = Arc::new(Mutex::new(RecordingObserver::new()));
        (Obs::new(rec.clone(), clock), rec)
    }

    /// This handle re-tagged with `actor` (shares sink and clock).
    pub fn with_actor(&self, actor: u32) -> Obs {
        Obs { sink: self.sink.clone(), clock: self.clock.clone(), actor }
    }

    /// Is a sink attached? Lets callers skip building expensive inputs.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Set the manual clock to `nanos` (no-op without a sink or on wall
    /// clocks).
    pub fn set_now(&self, nanos: u64) {
        if self.sink.is_some() {
            self.clock.set(nanos);
        }
    }

    fn emit(&self, kind: EventKind, at: u64) {
        if let Some(s) = &self.sink {
            s.lock().expect("observer lock").on_event(TraceEvent { at, actor: self.actor, kind });
        }
    }

    /// A per-block lifecycle stage at the current clock reading.
    pub fn stage(&self, stage: Stage, block: u64) {
        if self.sink.is_some() {
            self.emit(EventKind::Stage { stage, block }, self.clock.now());
        }
    }

    /// A stage with an explicit timestamp (for emitters that compute the
    /// event's time rather than observe it, e.g. the simulator's modeled
    /// response arrivals).
    pub fn stage_at(&self, stage: Stage, block: u64, at_nanos: u64) {
        if self.sink.is_some() {
            self.emit(EventKind::Stage { stage, block }, at_nanos);
        }
    }

    /// Open a named span keyed by `key`.
    pub fn span_begin(&self, name: &'static str, key: u64) {
        if self.sink.is_some() {
            self.emit(EventKind::SpanBegin { name, key }, self.clock.now());
        }
    }

    /// Close a named span keyed by `key`.
    pub fn span_end(&self, name: &'static str, key: u64) {
        if self.sink.is_some() {
            self.emit(EventKind::SpanEnd { name, key }, self.clock.now());
        }
    }

    /// A point sample at the current clock reading.
    pub fn point(&self, name: &'static str, key: u64, value: u64) {
        if self.sink.is_some() {
            self.emit(EventKind::Point { name, key, value }, self.clock.now());
        }
    }

    /// A point sample with an explicit timestamp.
    pub fn point_at(&self, name: &'static str, key: u64, value: u64, at_nanos: u64) {
        if self.sink.is_some() {
            self.emit(EventKind::Point { name, key, value }, at_nanos);
        }
    }

    /// Add `delta` to counter `name[idx]`.
    pub fn counter(&self, name: &'static str, idx: u32, delta: u64) {
        if let Some(s) = &self.sink {
            s.lock().expect("observer lock").add_counter(self.actor, name, idx, delta);
        }
    }

    /// Set gauge `name[idx]` to `value`.
    pub fn gauge(&self, name: &'static str, idx: u32, value: u64) {
        if let Some(s) = &self.sink {
            s.lock().expect("observer lock").set_gauge(self.actor, name, idx, value);
        }
    }

    /// Record one duration sample into histogram `name`. Histogram data
    /// is metrics-only — it never enters the trace, so wall-measured
    /// durations are safe here even under the deterministic simulator.
    pub fn observe_nanos(&self, name: &'static str, nanos: u64) {
        if let Some(s) = &self.sink {
            s.lock().expect("observer lock").observe(self.actor, name, nanos);
        }
    }

    /// Flush the sink (see [`Observer::flush`]).
    pub fn flush(&self) {
        if let Some(s) = &self.sink {
            s.lock().expect("observer lock").flush();
        }
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Obs(actor={}, {})", self.actor, if self.enabled() { "on" } else { "noop" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_emits_nothing_and_is_cheap() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        obs.stage(Stage::Proposed, 1);
        obs.counter("x", 0, 1);
        obs.observe_nanos("y", 5);
        obs.flush(); // all no-ops
    }

    #[test]
    fn recording_handle_captures_events_in_order() {
        let (obs, rec) = Obs::recording(Clock::manual());
        obs.set_now(10);
        obs.stage(Stage::Proposed, 7);
        obs.set_now(20);
        obs.with_actor(3).stage(Stage::Received, 7);
        let r = rec.lock().unwrap();
        assert_eq!(r.trace().len(), 2);
        assert_eq!(r.trace()[0].at, 10);
        assert_eq!(r.trace()[1].actor, 3);
        assert_eq!(r.trace()[1].at, 20);
    }

    #[test]
    fn manual_clock_is_shared_across_clones() {
        let (obs, rec) = Obs::recording(Clock::manual());
        let tagged = obs.with_actor(9);
        obs.set_now(42);
        tagged.point("p", 0, 1);
        assert_eq!(rec.lock().unwrap().trace()[0].at, 42);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = Clock::wall();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        c.set(0); // no-op on wall clocks
        assert!(c.now() >= a);
    }
}
