//! Per-replica lanes of one shared-clock recording.
//!
//! The simulator records a whole cluster into one [`crate::RecordingObserver`]
//! over one manual clock. The cluster-merge workflow (and a real
//! deployment, where each node writes its own trace) starts from one trace
//! per replica: [`lanes`] fans the recording out by actor id — actors
//! `0..n` each get their replica's lane, everything else (the harness
//! oracle `u32::MAX`, client drivers, …) the harness lane after them —
//! and [`write_lanes`] writes one JSONL file per lane. The lanes are the
//! input shape [`crate::ClusterTrace::merge`] takes; under
//! [`crate::Alignment::SharedClock`] the merged timeline is byte-identical
//! per seed.

use std::path::Path;

use crate::TraceEvent;

/// Split `trace` into `n` replica lanes plus the harness lane (index
/// `n`), each in emission order.
pub fn lanes(trace: &[TraceEvent], n: usize) -> Vec<Vec<TraceEvent>> {
    let mut lanes = vec![Vec::new(); n + 1];
    for ev in trace {
        lanes[(ev.actor as usize).min(n)].push(*ev);
    }
    lanes
}

/// Write each lane of [`lanes`] as JSONL into `dir`: `replica-<i>.jsonl`
/// per replica lane, `harness.jsonl` for the last.
pub fn write_lanes(dir: &Path, lanes: &[Vec<TraceEvent>]) -> std::io::Result<()> {
    for (i, lane) in lanes.iter().enumerate() {
        let name = if i + 1 == lanes.len() {
            "harness.jsonl".to_string()
        } else {
            format!("replica-{i}.jsonl")
        };
        let body: String = lane.iter().map(|ev| ev.to_json() + "\n").collect();
        std::fs::write(dir.join(name), body)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Stage;
    use crate::{Alignment, Clock, ClusterTrace, Obs};

    #[test]
    fn routes_by_actor_with_harness_overflow() {
        let (obs, rec) = Obs::recording(Clock::manual());
        obs.set_now(5);
        obs.with_actor(0).stage(Stage::Proposed, 1);
        obs.with_actor(1).stage(Stage::Received, 1);
        obs.with_actor(u32::MAX).point("finality", 1, 9);
        obs.with_actor(7).point("submit_mean", 1, 2);
        let lanes = lanes(rec.lock().unwrap().trace(), 2);
        let actors: Vec<Vec<u32>> =
            lanes.iter().map(|lane| lane.iter().map(|e| e.actor).collect()).collect();
        assert_eq!(actors, vec![vec![0], vec![1], vec![u32::MAX, 7]]);
    }

    #[test]
    fn merged_timeline_interleaves_lanes_in_time_order() {
        let (obs, rec) = Obs::recording(Clock::manual());
        obs.set_now(20);
        obs.with_actor(1).stage(Stage::Received, 7);
        obs.set_now(10);
        obs.with_actor(0).stage(Stage::Proposed, 7);
        let lanes = lanes(rec.lock().unwrap().trace(), 2);
        let merged = ClusterTrace::merge(lanes, Alignment::SharedClock);
        let ats: Vec<u64> = merged.events.iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![10, 20], "merge re-orders across lanes by time");
        assert_eq!(merged.events[0].actor, 0);
    }

    #[test]
    fn flush_writes_one_file_per_lane() {
        let dir = std::env::temp_dir().join(format!("hs1-fanout-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (obs, rec) = Obs::recording(Clock::manual());
        obs.with_actor(0).stage(Stage::Proposed, 1);
        obs.with_actor(u32::MAX).point("submit_mean", 1, 2);
        write_lanes(&dir, &lanes(rec.lock().unwrap().trace(), 2)).unwrap();
        for name in ["replica-0.jsonl", "replica-1.jsonl", "harness.jsonl"] {
            assert!(dir.join(name).exists(), "{name} written");
        }
        assert!(std::fs::read_to_string(dir.join("replica-1.jsonl")).unwrap().is_empty());
        assert!(std::fs::read_to_string(dir.join("harness.jsonl"))
            .unwrap()
            .contains("submit_mean"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
