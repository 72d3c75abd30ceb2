//! The paper's safety rules (§3, Appendix B), stated once over what a
//! runtime observes: the simulator, `TestNet` and the TCP cluster tests
//! fill an [`Observation`] and report whatever [`check`] returns, and a
//! restart is held to [`check_recovery`]. Every replica a runtime runs
//! keeps an honest local state machine (faults and adversaries lie on the
//! wire, not to themselves), so callers pass every replica, not an honest
//! subset.

use std::collections::HashSet;

use crate::replica::Replica;
use hs1_crypto::Digest;
use hs1_types::{BlockId, ReplicaId, View};

/// One replica's committed state as a runtime sees it.
#[derive(Debug)]
pub struct Committed {
    pub id: ReplicaId,
    /// Committed block ids in commit order, genesis first.
    pub chain: Vec<BlockId>,
    pub root: Digest,
}

impl Committed {
    pub fn of(replica: &dyn Replica) -> Committed {
        Committed { id: replica.id(), chain: replica.committed_chain(), root: replica.state_root() }
    }
}

/// Everything [`check`] reads.
#[derive(Debug, Default)]
pub struct Observation {
    pub replicas: Vec<Committed>,
    /// Blocks the client took as final, with the view each was proposed in.
    pub finals: Vec<(BlockId, View)>,
    /// The highest view of any committed block.
    pub frontier: View,
}

/// The violations in `obs`, in rule order; empty when it is safe.
///
/// * Per-height agreement: the block at each height is first the one the
///   earliest listed replica holding that height committed; a replica
///   that committed another is reported once, at its lowest such height.
///   Any two disagreeing replicas leave at least one of them reported.
/// * Equal committed chains imply equal state roots.
/// * A final block on no committed chain once the frontier is more than
///   two views past it was orphaned after finality. Within two views it
///   is only commit-pending at the end of a run (Corollary B.10).
pub fn check(obs: &Observation) -> Vec<String> {
    let mut out = Vec::new();
    let mut reference: Vec<BlockId> = Vec::new();
    for r in &obs.replicas {
        if r.chain.len() > reference.len() {
            reference.extend_from_slice(&r.chain[reference.len()..]);
        }
    }
    for r in &obs.replicas {
        if let Some(h) = r.chain.iter().zip(&reference).position(|(a, b)| a != b) {
            out.push(format!("conflicting commits at height {h} (replica {} disagrees)", r.id.0));
        }
    }
    for (i, a) in obs.replicas.iter().enumerate() {
        for b in &obs.replicas[i + 1..] {
            if a.chain == b.chain && a.root != b.root {
                out.push(format!(
                    "replicas {} and {} share a committed chain but diverge in state root",
                    a.id.0, b.id.0
                ));
            }
        }
    }
    let committed: HashSet<BlockId> =
        obs.replicas.iter().flat_map(|r| r.chain.iter().copied()).collect();
    for &(block, view) in &obs.finals {
        if !committed.contains(&block) && obs.frontier.0 > view.0 + 2 {
            out.push(format!(
                "finalized block {block:?} at view {} orphaned (frontier view {})",
                view.0, obs.frontier.0
            ));
        }
    }
    out
}

/// Commits must survive a crash: `after` (recovered from the journal)
/// extends or equals `before` (at the crash), and an equal chain replays
/// to the same root. When the disk `rotted` in between, the rule is the
/// weaker "fail-stop or clean prefix": CRC-detected corruption may
/// truncate the chain, but what survives is comparable with the pre-crash
/// chain, never a silent divergence.
pub fn check_recovery(before: &Committed, after: &Committed, rotted: bool) -> Option<String> {
    let (i, pre, got) = (before.id.0, &before.chain, &after.chain);
    let same_chain_other_root = got == pre && after.root != before.root;
    if rotted {
        if !pre.starts_with(got) && !got.starts_with(pre) {
            Some(format!("replica {i} bit-rot recovery silently diverged from its own history"))
        } else if same_chain_other_root {
            Some(format!("replica {i} bit-rot recovery diverged in state at equal chain"))
        } else {
            None
        }
    } else if !got.starts_with(pre) {
        Some(format!("replica {i} recovery lost committed blocks ({} -> {})", pre.len(), got.len()))
    } else if same_chain_other_root {
        Some(format!("replica {i} recovery replay diverged from pre-crash state"))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica(id: u32, blocks: &[u64], root: u8) -> Committed {
        let chain =
            std::iter::once(BlockId::test(0)).chain(blocks.iter().map(|&b| BlockId::test(b)));
        Committed { id: ReplicaId(id), chain: chain.collect(), root: Digest([root; 32]) }
    }

    fn observe(replicas: Vec<Committed>) -> Observation {
        Observation { replicas, ..Observation::default() }
    }

    #[test]
    fn prefixes_of_one_chain_are_safe() {
        let obs = observe(vec![replica(0, &[1, 2, 3], 3), replica(1, &[1], 1), replica(2, &[], 0)]);
        assert_eq!(check(&obs), Vec::<String>::new());
    }

    #[test]
    fn a_fork_is_reported_once_per_replica_at_its_first_conflicting_height() {
        let obs = observe(vec![
            replica(0, &[1, 2, 3, 4], 1),
            replica(1, &[1, 9, 8, 7, 6], 2),
            replica(2, &[1, 2], 3),
            replica(3, &[1, 2, 3, 4, 5, 5], 4),
        ]);
        assert_eq!(
            check(&obs),
            [
                "conflicting commits at height 2 (replica 1 disagrees)",
                // Height 5 is replica 1's, the first to commit there.
                "conflicting commits at height 5 (replica 3 disagrees)",
            ]
        );
    }

    #[test]
    fn equal_chains_need_equal_roots() {
        let obs = observe(vec![replica(0, &[1, 2], 7), replica(1, &[1, 2], 8)]);
        assert_eq!(
            check(&obs),
            ["replicas 0 and 1 share a committed chain but diverge in state root"]
        );
        // Unequal chains hold different state; that is not a violation.
        let obs = observe(vec![replica(0, &[1, 2], 7), replica(1, &[1], 8)]);
        assert!(check(&obs).is_empty());
    }

    #[test]
    fn a_final_block_is_orphaned_only_two_views_past_it() {
        let mut obs = observe(vec![replica(0, &[1, 2], 1)]);
        obs.finals = vec![(BlockId::test(2), View(5)), (BlockId::test(9), View(5))];
        obs.frontier = View(7);
        assert!(check(&obs).is_empty(), "within two views of the frontier: commit-pending");
        obs.frontier = View(8);
        let got = check(&obs);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains("at view 5 orphaned (frontier view 8)"), "{got:?}");
    }

    #[test]
    fn recovery_keeps_every_commit_and_bit_rot_only_truncates() {
        let before = replica(3, &[1, 2], 5);
        let (lost, replay) =
            ("recovery lost committed blocks (3 -> 2)", "recovery replay diverged");
        let (diverged, state) =
            ("silently diverged from its own history", "in state at equal chain");
        for (after, rotted, want) in [
            (replica(3, &[1, 2, 3], 6), false, None),
            (replica(3, &[1, 2], 5), false, None),
            (replica(3, &[1], 4), false, Some(lost)),
            (replica(3, &[1, 2], 6), false, Some(replay)),
            (replica(3, &[1], 4), true, None),
            (replica(3, &[1, 9], 4), true, Some(diverged)),
            (replica(3, &[1, 2], 6), true, Some(state)),
        ] {
            let got = check_recovery(&before, &after, rotted);
            match want {
                None => assert_eq!(got, None, "{after:?}, rotted: {rotted}"),
                Some(w) => assert!(got.as_deref().is_some_and(|g| g.contains(w)), "{got:?} vs {w}"),
            }
        }
    }
}
