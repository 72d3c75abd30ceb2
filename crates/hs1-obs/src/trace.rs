//! Cluster trace merge: join N per-replica JSONL traces into one
//! causally-ordered cluster timeline.
//!
//! Per-node traces are islands — each replica's JSONL is ordered by its
//! own clock and says nothing about cross-replica causality. This module
//! takes each replica's recorded [`TraceEvent`]s, aligns the per-source
//! clocks, and merges everything into one timeline:
//!
//! * **Shared clock** ([`Alignment::SharedClock`]) — simulator traces:
//!   every source was stamped by the same harness [`crate::Clock`], so
//!   offsets are zero and the merged file is **byte-identical per seed**
//!   (the merge is a pure sort on already-deterministic inputs).
//! * **First contact** ([`Alignment::FirstContact`]) — TCP traces: each
//!   node stamps with its own wall clock (based at process start), so
//!   clocks disagree by seconds. For each pair of replicas the earliest
//!   propose→receive anchors bound the offset: `received_b − proposed_a`
//!   is (clock\_b − clock\_a) + network delay, and the *minimum* over all
//!   anchor blocks approaches the pure clock skew (loopback/LAN delay ≈
//!   0). Offsets propagate from the lowest-numbered replica over the
//!   anchor graph in deterministic order.
//!
//! The merged timeline keeps the flat one-object-per-line JSONL schema of
//! the per-node traces (adjusted `at`, original `actor`), so every tool
//! that reads a per-node trace reads a cluster trace too.

use std::collections::BTreeMap;

use crate::event::{EventKind, Stage, TraceEvent};

/// How per-source clocks relate (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Alignment {
    /// All sources were stamped by one harness clock (simulator traces).
    SharedClock,
    /// Each source has its own wall clock; estimate pairwise offsets
    /// from the earliest propose→receive anchors (TCP traces).
    FirstContact,
}

/// N per-replica traces joined into one cluster timeline.
pub struct ClusterTrace {
    /// Merged events, ordered by (adjusted time, actor, source, input
    /// order) — a total, deterministic order.
    pub events: Vec<TraceEvent>,
    /// The clock offset (nanoseconds, signed) that was *added* to each
    /// source's timestamps, indexed like the input sources.
    pub offsets: Vec<i64>,
}

impl ClusterTrace {
    /// Merge per-source event streams into one timeline.
    pub fn merge(sources: Vec<Vec<TraceEvent>>, alignment: Alignment) -> ClusterTrace {
        let offsets = match alignment {
            Alignment::SharedClock => vec![0i64; sources.len()],
            Alignment::FirstContact => estimate_offsets(&sources),
        };
        // Adjusted timestamps can go negative on wall-clock traces (a
        // source whose clock ran ahead); rebase so the earliest merged
        // event sits at its smallest non-negative time.
        let mut adjusted: Vec<(i128, u32, usize, usize, TraceEvent)> = Vec::new();
        for (src, events) in sources.iter().enumerate() {
            for (seq, ev) in events.iter().enumerate() {
                adjusted.push((ev.at as i128 + offsets[src] as i128, ev.actor, src, seq, *ev));
            }
        }
        let base = adjusted.iter().map(|(t, ..)| *t).min().unwrap_or(0).min(0);
        adjusted.sort_by_key(|&(t, actor, src, seq, _)| (t, actor, src, seq));
        let events = adjusted
            .into_iter()
            .map(|(t, _, _, _, ev)| TraceEvent { at: (t - base) as u64, ..ev })
            .collect();
        ClusterTrace { events, offsets }
    }

    /// The merged timeline as JSONL (byte-comparable across runs when the
    /// inputs are deterministic).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for ev in &self.events {
            s.push_str(&ev.to_json());
            s.push('\n');
        }
        s
    }
}

/// Per-pair clock-offset estimation from propose→receive anchors,
/// propagated from the lowest-numbered source over the anchor graph.
fn estimate_offsets(sources: &[Vec<TraceEvent>]) -> Vec<i64> {
    let n = sources.len();
    // Earliest Proposed / Received per (source, block), source-local time.
    let mut proposed: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); n];
    let mut received: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); n];
    for (src, events) in sources.iter().enumerate() {
        for ev in events {
            if let EventKind::Stage { stage, block } = ev.kind {
                let slot = match stage {
                    Stage::Proposed => &mut proposed[src],
                    Stage::Received => &mut received[src],
                    _ => continue,
                };
                let e = slot.entry(block).or_insert(ev.at);
                *e = (*e).min(ev.at);
            }
        }
    }
    // delta[a][b] = min over anchor blocks of (received_b - proposed_a):
    // (clock_b - clock_a) + min observed network delay.
    let mut delta = vec![vec![None::<i128>; n]; n];
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let mut best: Option<i128> = None;
            for (block, &tp) in &proposed[a] {
                if let Some(&tr) = received[b].get(block) {
                    let d = tr as i128 - tp as i128;
                    best = Some(best.map_or(d, |cur| cur.min(d)));
                }
            }
            delta[a][b] = best;
        }
    }
    // Propagate offsets breadth-first in index order (deterministic).
    // For an anchor block, `local_r + offset[b]` should land at
    // `local_p + offset[a] + delay`; with delta[a][b] = min(local_r -
    // local_p) = min_delay - skew, the correction is offset[b] =
    // offset[a] - delta[a][b] (= skew - min_delay). Every other anchor's
    // delay is ≥ the minimum, so propose-before-receive causal order is
    // preserved after adjustment.
    let mut offsets = vec![None::<i64>; n];
    for root in 0..n {
        if offsets[root].is_some() {
            continue;
        }
        offsets[root] = Some(0);
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(a) = queue.pop_front() {
            let oa = offsets[a].expect("queued sources have offsets");
            for b in 0..n {
                if offsets[b].is_some() {
                    continue;
                }
                // Use either direction of the anchor; prefer a→b.
                let link = delta[a][b].map(|d| -d).or(delta[b][a]);
                if let Some(d) = link {
                    offsets[b] = Some(oa + d as i64);
                    queue.push_back(b);
                }
            }
        }
    }
    offsets.into_iter().map(|o| o.unwrap_or(0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(at: u64, actor: u32, s: Stage, block: u64) -> TraceEvent {
        TraceEvent { at, actor, kind: EventKind::Stage { stage: s, block } }
    }

    #[test]
    fn shared_clock_merge_is_a_stable_sort() {
        let a = vec![stage(10, 0, Stage::Proposed, 1), stage(30, 0, Stage::Committed, 1)];
        let b = vec![stage(12, 1, Stage::Received, 1), stage(30, 1, Stage::Committed, 1)];
        let merged = ClusterTrace::merge(vec![a, b], Alignment::SharedClock);
        let ats: Vec<u64> = merged.events.iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![10, 12, 30, 30]);
        // The tie at 30 breaks by actor: replica 0 before replica 1.
        assert_eq!(merged.events[2].actor, 0);
        assert_eq!(merged.events[3].actor, 1);
        assert_eq!(merged.offsets, vec![0, 0]);
    }

    #[test]
    fn merge_is_deterministic_byte_for_byte() {
        let mk = || {
            vec![
                vec![stage(5, 0, Stage::Proposed, 7), stage(9, 0, Stage::Speculated, 7)],
                vec![stage(6, 1, Stage::Received, 7), stage(9, 1, Stage::Speculated, 7)],
            ]
        };
        let x = ClusterTrace::merge(mk(), Alignment::SharedClock).to_jsonl();
        let y = ClusterTrace::merge(mk(), Alignment::SharedClock).to_jsonl();
        assert_eq!(x, y);
    }

    #[test]
    fn first_contact_alignment_recovers_clock_skew() {
        // Ground truth: replica 1's clock runs 1_000_000 ns behind
        // replica 0's (its local stamps read `true - skew`); network
        // delay is 2_000 ns. True times are offset by 4ms so the skewed
        // stamps stay non-negative in u64.
        let skew: u64 = 1_000_000;
        let base: u64 = 4_000_000;
        let a = vec![
            stage(base + 10_000, 0, Stage::Proposed, 1),
            stage(base + 50_000, 0, Stage::Proposed, 2),
        ];
        let b = vec![
            stage(base + 12_000 - skew, 1, Stage::Received, 1),
            stage(base + 52_000 - skew, 1, Stage::Received, 2),
        ];
        let merged = ClusterTrace::merge(vec![a, b], Alignment::FirstContact);
        let skew = skew as i64;
        // offset[1] - offset[0] should be ≈ skew (within the 2_000 ns
        // min delay, which biases the estimate by exactly that delay).
        let rel = merged.offsets[1] - merged.offsets[0];
        assert!((rel - skew).abs() <= 2_000, "estimated relative offset {rel} vs true skew {skew}");
        // Causal order propose-before-receive holds after adjustment.
        let prop: Vec<u64> = merged
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Stage { stage: Stage::Proposed, .. }))
            .map(|e| e.at)
            .collect();
        let recv: Vec<u64> = merged
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Stage { stage: Stage::Received, .. }))
            .map(|e| e.at)
            .collect();
        assert!(prop[0] <= recv[0] && prop[1] <= recv[1]);
    }

    #[test]
    fn disconnected_sources_fall_back_to_zero_offset() {
        let a = vec![stage(10, 0, Stage::Proposed, 1)];
        let b = vec![stage(20, 1, Stage::Voted, 2)]; // no shared anchors
        let merged = ClusterTrace::merge(vec![a, b], Alignment::FirstContact);
        assert_eq!(merged.offsets, vec![0, 0]);
        assert_eq!(merged.events.len(), 2);
    }
}
