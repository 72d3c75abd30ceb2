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
use hs1_types::{BlockId, CommittedLog, ReplicaId, View};

/// One replica's committed state as a runtime sees it.
#[derive(Debug)]
pub struct Committed {
    pub id: ReplicaId,
    /// The committed chain. A harness that records every commit passes a
    /// log holding every height; a replica's own log holds its window.
    pub log: CommittedLog,
    pub root: Digest,
}

impl Committed {
    /// What `replica` holds itself: its windowed log.
    pub fn of(replica: &dyn Replica) -> Committed {
        Committed { id: replica.id(), log: replica.committed_log(), root: replica.state_root() }
    }
}

/// Everything [`check`] reads.
#[derive(Debug, Default)]
pub struct Observation {
    pub replicas: Vec<Committed>,
    /// Blocks the client took as final, with the view each was proposed
    /// in. Looked up among the ids the logs hold: a runtime that passes
    /// finals passes logs that hold every height.
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
///   Two logs are compared by their running hashes at the lower of their
///   heights; for logs that hold every height the height named is exact,
///   for windowed logs it is the lowest one both still hash. A replica
///   whose window no longer reaches that height is reported too.
/// * Equal committed chains imply equal state roots.
/// * A final block on no committed chain once the frontier is more than
///   two views past it was orphaned after finality. Within two views it
///   is only commit-pending at the end of a run (Corollary B.10).
pub fn check(obs: &Observation) -> Vec<String> {
    let mut out = Vec::new();
    let mut reference = CommittedLog::new();
    for r in &obs.replicas {
        if r.log.len() <= reference.len() {
            continue;
        }
        if r.log.start() <= reference.len() {
            for id in r.log.ids_from(reference.len()) {
                reference.push(id);
            }
        } else if r.log.diverge(&reference) == Ok(None) {
            // The ids between the two heads are gone from `r`'s window,
            // but its hash vouches for them: the reference becomes `r`.
            reference = r.log.clone();
        }
    }
    for r in &obs.replicas {
        match r.log.diverge(&reference) {
            Ok(None) => {}
            Ok(Some(h)) => out
                .push(format!("conflicting commits at height {h} (replica {} disagrees)", r.id.0)),
            Err(h) => out.push(format!(
                "replica {} cannot be compared at height {h}: its log no longer holds it",
                r.id.0
            )),
        }
    }
    for (i, a) in obs.replicas.iter().enumerate() {
        for b in &obs.replicas[i + 1..] {
            if same_chain(&a.log, &b.log) && a.root != b.root {
                out.push(format!(
                    "replicas {} and {} share a committed chain but diverge in state root",
                    a.id.0, b.id.0
                ));
            }
        }
    }
    let committed: HashSet<BlockId> = obs.replicas.iter().flat_map(|r| r.log.ids()).collect();
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

fn same_chain(a: &CommittedLog, b: &CommittedLog) -> bool {
    a.len() == b.len() && a.hash() == b.hash()
}

/// Commits must survive a crash: `after` (recovered from the journal)
/// extends or equals `before` (at the crash), and an equal chain replays
/// to the same root. When the disk `rotted` in between, the rule is the
/// weaker "fail-stop or clean prefix": CRC-detected corruption may
/// truncate the chain, but what survives is comparable with the pre-crash
/// chain, never a silent divergence. The two logs are compared at the
/// lower of their heights; a recovered log that cannot be compared there
/// counts as diverged.
pub fn check_recovery(before: &Committed, after: &Committed, rotted: bool) -> Option<String> {
    let (i, pre, got) = (before.id.0, &before.log, &after.log);
    let comparable = pre.diverge(got) == Ok(None);
    let same_chain_other_root = same_chain(pre, got) && after.root != before.root;
    if rotted {
        if !comparable {
            Some(format!("replica {i} bit-rot recovery silently diverged from its own history"))
        } else if same_chain_other_root {
            Some(format!("replica {i} bit-rot recovery diverged in state at equal chain"))
        } else {
            None
        }
    } else if !comparable || got.len() < pre.len() {
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
        let log = CommittedLog::from_ids(blocks.iter().map(|&b| BlockId::test(b)));
        Committed { id: ReplicaId(id), log, root: Digest([root; 32]) }
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

    /// Replicas hold windows of their logs: agreement is an equal hash at
    /// the lower height, a fork is named at the lowest height both still
    /// hash, and a window that no longer reaches the lower height is
    /// reported rather than passed.
    #[test]
    fn windowed_logs_are_compared_at_the_lower_height() {
        let windowed = |id, blocks: &[u64], keep| {
            let mut r = replica(id, blocks, 0);
            r.log.trim(keep);
            r
        };
        let long: Vec<u64> = (1..=40).collect();
        let mut fork = long[..30].to_vec();
        fork.extend(70..80);
        let obs = observe(vec![
            windowed(0, &long[..35], 8),
            windowed(1, &long, 8),
            windowed(2, &long[..38], 4),
        ]);
        assert!(check(&obs).is_empty(), "{:?}", check(&obs));
        let obs = observe(vec![windowed(0, &long, 8), windowed(1, &fork, 16)]);
        assert_eq!(check(&obs), ["conflicting commits at height 32 (replica 1 disagrees)"]);
        let obs = observe(vec![windowed(0, &long[..20], 4), windowed(1, &long, 8)]);
        assert_eq!(
            check(&obs),
            ["replica 1 cannot be compared at height 20: its log no longer holds it"]
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
