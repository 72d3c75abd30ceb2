//! Commit critical-path extraction: per committed block, the slowest
//! causal chain from client submit to client finality, with each hop
//! attributed to the replica that bounded it.
//!
//! The chain is a telescoped decomposition (submit → leader propose →
//! quorum-th receive → quorum-th certify → quorum-th respond →
//! finality) in which each hop remembers *which actor's* event closed
//! it — the leader for the propose hop, the straggler that completed
//! the certifying quorum for the vote hop, and so on. Timestamps are clamped monotone into
//! `[t0, t5]`, so the five hop durations sum **exactly** (u64 exact, not
//! approximately) to the end-to-end latency; the `fig_critical_path`
//! bench and the chaos-replay canary both assert that telescoping.
//!
//! The input is the merged cluster timeline ([`crate::ClusterTrace`]) or
//! any flat event stream containing all replicas' stage events — on a
//! per-node island trace the quorum-th observations don't exist, which
//! is exactly why this analysis lives behind the merge engine.

use std::collections::BTreeMap;

use crate::event::Stage;
use crate::trace::{OwnedEvent, OwnedEventKind};

/// Hop names, in causal order (column names in the attribution CSV).
pub const HOP_NAMES: [&str; 5] = [
    "submit_to_propose",
    "propose_to_receive",
    "receive_to_certify",
    "certify_to_respond",
    "respond_to_final",
];

/// The actor id attributed to hops closed by the harness/client side
/// (same sentinel the oracle emits trace events under).
pub const HARNESS_ACTOR: u32 = u32::MAX;

/// One committed block's critical path.
#[derive(Clone, Debug)]
pub struct BlockPath {
    /// The block's trace key ([`crate::block_key`]).
    pub block: u64,
    /// Telescoped timestamps `[t0..t5]`, clamped monotone into `[t0, t5]`.
    pub t: [u64; 6],
    /// `actors[i]` closed hop `i` (`t[i] → t[i+1]`): the replica whose
    /// event set `t[i+1]`. The final hop belongs to [`HARNESS_ACTOR`].
    pub actors: [u32; 5],
    /// Whether the block carried a client submission point. Empty blocks
    /// get a zero submit hop (`t0 = t1`) and `false` here; latency
    /// cohorts (`fig_critical_path`) filter on this.
    pub has_submit: bool,
}

impl BlockPath {
    /// Duration of hop `i` in nanoseconds.
    pub fn hop_ns(&self, i: usize) -> u64 {
        self.t[i + 1] - self.t[i]
    }

    /// End-to-end latency (== the sum of all five hops, by construction).
    pub fn e2e_ns(&self) -> u64 {
        self.t[5] - self.t[0]
    }
}

/// Raw per-block observations, each timestamp paired with its actor.
#[derive(Default)]
struct BlockObs {
    submit_mean: Option<u64>,
    proposed: Option<(u64, u32)>,
    received: Vec<(u64, u32)>,
    speculated: Vec<(u64, u32)>,
    committed: Vec<(u64, u32)>,
    responded: Vec<(u64, u32)>,
    finality: Option<u64>,
}

/// The k-th earliest observation (1-based), with the actor that made it.
/// Ties break by actor id so the answer is deterministic on merged
/// timelines where distinct replicas share a timestamp.
fn kth(mut obs: Vec<(u64, u32)>, k: usize) -> Option<(u64, u32)> {
    if obs.len() < k {
        return None;
    }
    obs.sort_unstable();
    Some(obs[k - 1])
}

fn path(block: u64, b: BlockObs, quorum: usize) -> Option<BlockPath> {
    let t5 = b.finality?;
    let (tp, leader) = b.proposed?;
    // Blocks with no client transactions carry no submission point; their
    // submit→propose hop is zero by construction.
    let t0 = b.submit_mean.unwrap_or(tp);
    if t5 < t0 {
        return None;
    }
    let (tr, recv_actor) = kth(b.received, quorum)?;
    // HS1 responds after speculation; the baselines only after commit.
    let (tc, cert_actor) = kth(b.speculated.clone(), quorum).or(kth(b.committed, quorum))?;
    let (ts, resp_actor) = kth(b.responded, quorum)?;
    let raw = [t0, tp, tr, tc, ts, t5];
    let mut t = [t0; 6];
    for i in 1..6 {
        t[i] = raw[i].clamp(t[i - 1], t5);
    }
    Some(BlockPath {
        block,
        t,
        actors: [leader, recv_actor, cert_actor, resp_actor, HARNESS_ACTOR],
        has_submit: b.submit_mean.is_some(),
    })
}

/// Extract every fully-observed block's critical path from a merged
/// timeline. `quorum` is `n − f` (3 at the quickstart n=4). Blocks are
/// returned in trace-key order.
pub fn analyze(events: &[OwnedEvent], quorum: usize) -> Vec<BlockPath> {
    let mut blocks: BTreeMap<u64, BlockObs> = BTreeMap::new();
    for ev in events {
        match &ev.kind {
            OwnedEventKind::Stage { stage, block } => {
                let b = blocks.entry(*block).or_default();
                let sample = (ev.at, ev.actor);
                match stage {
                    Stage::Proposed => {
                        b.proposed = Some(b.proposed.map_or(sample, |p| p.min(sample)))
                    }
                    Stage::Received => b.received.push(sample),
                    Stage::Speculated => b.speculated.push(sample),
                    Stage::Committed => b.committed.push(sample),
                    Stage::Responded => b.responded.push(sample),
                    Stage::Voted => {}
                }
            }
            OwnedEventKind::Point { name, key, .. } if name == "finality" => {
                blocks.entry(*key).or_default().finality = Some(ev.at);
            }
            OwnedEventKind::Point { name, key, value } if name == "submit_mean" => {
                blocks.entry(*key).or_default().submit_mean = Some(*value);
            }
            _ => {}
        }
    }
    blocks.into_iter().filter_map(|(block, b)| path(block, b, quorum)).collect()
}

/// The number of blocks the trace marks final (a `finality` point exists)
/// — the denominator for "every committed block got an attributed path".
pub fn finalized_blocks(events: &[OwnedEvent]) -> usize {
    let mut keys: Vec<u64> = events
        .iter()
        .filter_map(|ev| match &ev.kind {
            OwnedEventKind::Point { name, key, .. } if name == "finality" => Some(*key),
            _ => None,
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

/// Per-hop attribution as CSV: one row per (block, hop), durations in
/// nanoseconds, each hop tagged with the actor that closed it.
pub fn attribution_csv(paths: &[BlockPath]) -> String {
    let mut out = String::from("block,hop,from_ns,to_ns,dur_ns,actor\n");
    for p in paths {
        for (i, name) in HOP_NAMES.iter().enumerate() {
            out.push_str(&format!(
                "{},{name},{},{},{},{}\n",
                p.block,
                p.t[i],
                p.t[i + 1],
                p.hop_ns(i),
                p.actors[i],
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(at: u64, actor: u32, s: Stage, block: u64) -> OwnedEvent {
        OwnedEvent { at, actor, kind: OwnedEventKind::Stage { stage: s, block } }
    }

    fn point(at: u64, name: &str, key: u64, value: u64) -> OwnedEvent {
        OwnedEvent {
            at,
            actor: HARNESS_ACTOR,
            kind: OwnedEventKind::Point { name: name.to_string(), key, value },
        }
    }

    /// One fully-observed HS1-style block: leader 2 proposes, all four
    /// receive/speculate/respond, quorum = 3.
    fn block_events() -> Vec<OwnedEvent> {
        let mut evs = vec![point(0, "submit_mean", 9, 100), stage(200, 2, Stage::Proposed, 9)];
        for (i, (rx, spec, resp)) in
            [(300u64, 500u64, 700u64), (320, 530, 720), (340, 560, 740), (360, 590, 760)]
                .into_iter()
                .enumerate()
        {
            evs.push(stage(rx, i as u32, Stage::Received, 9));
            evs.push(stage(spec, i as u32, Stage::Speculated, 9));
            evs.push(stage(resp, i as u32, Stage::Responded, 9));
        }
        evs.push(point(800, "finality", 9, 700));
        evs
    }

    #[test]
    fn hops_telescope_exactly_and_attribute_the_quorum_straggler() {
        let paths = analyze(&block_events(), 3);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.block, 9);
        assert_eq!(p.t, [100, 200, 340, 560, 740, 800]);
        let hop_sum: u64 = (0..5).map(|i| p.hop_ns(i)).sum();
        assert_eq!(hop_sum, p.e2e_ns(), "hops sum exactly to e2e");
        // Leader 2 closed the propose hop; replica 2 was the 3rd of 4 at
        // every quorum stage; the final hop is the harness/client's.
        assert_eq!(p.actors, [2, 2, 2, 2, HARNESS_ACTOR]);
    }

    #[test]
    fn certify_prefers_speculation_then_falls_back_to_commit() {
        // Strip speculation (an HS2-style trace): certify must come from
        // the commit quorum instead.
        let mut evs: Vec<OwnedEvent> = block_events()
            .into_iter()
            .filter(|e| !matches!(e.kind, OwnedEventKind::Stage { stage: Stage::Speculated, .. }))
            .collect();
        for (at, actor) in [(600u64, 0u32), (610, 1), (620, 2)] {
            evs.push(stage(at, actor, Stage::Committed, 9));
        }
        let paths = analyze(&evs, 3);
        assert_eq!(paths[0].t[3], 620, "commit quorum closes certify");
        assert_eq!(paths[0].actors[2], 2);
    }

    #[test]
    fn partially_observed_blocks_are_skipped_but_counted_as_final() {
        let mut evs = block_events();
        // A second block with finality but no quorum of responses.
        evs.push(point(0, "submit_mean", 11, 50));
        evs.push(stage(100, 0, Stage::Proposed, 11));
        evs.push(point(900, "finality", 11, 850));
        assert_eq!(finalized_blocks(&evs), 2);
        assert_eq!(analyze(&evs, 3).len(), 1, "incomplete block yields no path");
    }

    #[test]
    fn out_of_order_timestamps_clamp_monotone() {
        let mut evs = block_events();
        // A responded stamp *before* the certify quorum (clock weirdness
        // on a wall-clock trace) must clamp, not underflow.
        for ev in &mut evs {
            if matches!(ev.kind, OwnedEventKind::Stage { stage: Stage::Responded, .. }) {
                ev.at = 400;
            }
        }
        let p = &analyze(&evs, 3)[0];
        assert_eq!(p.t[4], p.t[3], "respond clamps up to certify");
        let hop_sum: u64 = (0..5).map(|i| p.hop_ns(i)).sum();
        assert_eq!(hop_sum, p.e2e_ns());
    }

    #[test]
    fn attribution_csv_has_one_row_per_hop() {
        let paths = analyze(&block_events(), 3);
        let csv = attribution_csv(&paths);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "block,hop,from_ns,to_ns,dur_ns,actor");
        assert_eq!(lines.len(), 1 + 5);
        assert_eq!(lines[1], "9,submit_to_propose,100,200,100,2");
        assert_eq!(lines[5], "9,respond_to_final,740,800,60,4294967295");
    }
}
