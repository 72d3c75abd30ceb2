//! Per-replica observer fan-out: one [`Obs`] handle, N private recorders.
//!
//! A single [`RecordingObserver`] interleaves every replica's events into
//! one buffer — fine for single-timeline analysis, but it cannot produce
//! the *per-replica JSONL files* that the cluster-merge workflow (and a
//! real deployment, where each node writes its own trace) starts from.
//! [`FanoutObserver`] routes each emission by its actor id to a dedicated
//! child [`RecordingObserver`]: actors `0..n` go to their replica's
//! recorder, everything else (the harness/oracle actor `u32::MAX`, client
//! drivers, …) to a shared harness recorder.
//!
//! Like every observer it is pure — routing is a function of the actor id
//! already present on each emission, so attaching a fan-out instead of a
//! flat recorder changes no observed behavior and no fingerprint.

use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::trace::{Alignment, ClusterTrace};
use crate::{Clock, Obs, Observer, RecordingObserver, TraceEvent};

/// Routes emissions to per-replica recorders by actor id.
pub struct FanoutObserver {
    /// `children[i]` records everything actor `i` emitted.
    children: Vec<RecordingObserver>,
    /// Emissions from actors ≥ `children.len()` (the harness oracle,
    /// client drivers).
    harness: RecordingObserver,
}

impl FanoutObserver {
    /// A fan-out for `n` replicas (plus the implicit harness lane).
    pub(crate) fn new(n: usize) -> FanoutObserver {
        FanoutObserver {
            children: (0..n).map(|_| RecordingObserver::new()).collect(),
            harness: RecordingObserver::new(),
        }
    }

    /// An attached handle + shared fan-out for a cluster of `n` replicas,
    /// stamped by `clock`.
    pub fn recording(n: usize, clock: Clock) -> (Obs, Arc<Mutex<FanoutObserver>>) {
        let fan = Arc::new(Mutex::new(FanoutObserver::new(n)));
        (Obs::new(fan.clone(), clock), fan)
    }

    fn lane(&mut self, actor: u32) -> &mut RecordingObserver {
        match self.children.get_mut(actor as usize) {
            Some(child) => child,
            None => &mut self.harness,
        }
    }

    /// Number of replica lanes (excluding the harness lane).
    pub fn n(&self) -> usize {
        self.children.len()
    }

    /// Arrange for [`Observer::flush`] to write one JSONL file per lane
    /// into `dir`: `replica-<i>.jsonl` plus `harness.jsonl`.
    pub fn set_trace_dir(&mut self, dir: &Path) {
        for (i, child) in self.children.iter_mut().enumerate() {
            child.set_trace_path(dir.join(format!("replica-{i}.jsonl")));
        }
        self.harness.set_trace_path(dir.join("harness.jsonl"));
    }

    /// All lanes' traces (replicas in id order, harness last) — the input
    /// shape [`ClusterTrace::merge`] takes.
    pub(crate) fn sources(&self) -> Vec<Vec<TraceEvent>> {
        self.children
            .iter()
            .chain(std::iter::once(&self.harness))
            .map(|rec| rec.trace().to_vec())
            .collect()
    }

    /// Merge all lanes into one cluster timeline. Lanes recorded against
    /// one shared [`Clock`] (the simulator), so [`Alignment::SharedClock`]
    /// applies and the result is byte-identical per seed.
    pub fn merged(&self) -> ClusterTrace {
        ClusterTrace::merge(self.sources(), Alignment::SharedClock)
    }

    /// A combined metrics snapshot over all lanes (rows from each lane's
    /// own snapshot, replicas in id order, harness last; within a lane the
    /// usual deterministic order applies).
    pub fn snapshot(&self) -> crate::MetricsSnapshot {
        let mut rows = Vec::new();
        for rec in self.children.iter().chain(std::iter::once(&self.harness)) {
            rows.extend(rec.snapshot().rows);
        }
        crate::MetricsSnapshot { rows }
    }
}

impl Observer for FanoutObserver {
    fn on_event(&mut self, ev: TraceEvent) {
        self.lane(ev.actor).on_event(ev);
    }

    fn add_counter(&mut self, actor: u32, name: &'static str, idx: u32, delta: u64) {
        self.lane(actor).add_counter(actor, name, idx, delta);
    }

    fn set_gauge(&mut self, actor: u32, name: &'static str, idx: u32, value: u64) {
        self.lane(actor).set_gauge(actor, name, idx, value);
    }

    fn observe(&mut self, actor: u32, name: &'static str, nanos: u64) {
        self.lane(actor).observe(actor, name, nanos);
    }

    fn flush(&mut self) {
        for child in &mut self.children {
            child.flush();
        }
        self.harness.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Stage;

    #[test]
    fn routes_by_actor_with_harness_overflow() {
        let (obs, fan) = FanoutObserver::recording(2, Clock::manual());
        obs.set_now(5);
        obs.with_actor(0).stage(Stage::Proposed, 1);
        obs.with_actor(1).stage(Stage::Received, 1);
        obs.with_actor(u32::MAX).point("finality", 1, 9);
        obs.with_actor(1).counter("net_tx_frames", 0, 3);
        let fan = fan.lock().unwrap();
        assert_eq!(fan.children[0].trace().len(), 1);
        assert_eq!(fan.children[1].trace().len(), 1);
        assert_eq!(fan.harness.trace().len(), 1);
        assert_eq!(fan.children[1].snapshot().counter_total("net_tx_frames"), 3);
        assert_eq!(fan.snapshot().counter_total("net_tx_frames"), 3);
    }

    #[test]
    fn merged_timeline_interleaves_lanes_in_time_order() {
        let (obs, fan) = FanoutObserver::recording(2, Clock::manual());
        obs.set_now(20);
        obs.with_actor(1).stage(Stage::Received, 7);
        obs.set_now(10);
        obs.with_actor(0).stage(Stage::Proposed, 7);
        let merged = fan.lock().unwrap().merged();
        let ats: Vec<u64> = merged.events.iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![10, 20], "merge re-orders across lanes by time");
        assert_eq!(merged.events[0].actor, 0);
    }

    #[test]
    fn flush_writes_one_file_per_lane() {
        let dir = std::env::temp_dir().join(format!("hs1-fanout-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (obs, fan) = FanoutObserver::recording(2, Clock::manual());
        fan.lock().unwrap().set_trace_dir(&dir);
        obs.with_actor(0).stage(Stage::Proposed, 1);
        obs.with_actor(u32::MAX).point("submit_mean", 1, 2);
        obs.flush();
        for name in ["replica-0.jsonl", "replica-1.jsonl", "harness.jsonl"] {
            assert!(dir.join(name).exists(), "{name} written on flush");
        }
        assert!(std::fs::read_to_string(dir.join("replica-1.jsonl")).unwrap().is_empty());
        assert!(std::fs::read_to_string(dir.join("harness.jsonl"))
            .unwrap()
            .contains("submit_mean"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
