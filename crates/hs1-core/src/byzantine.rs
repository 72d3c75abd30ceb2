//! Byzantine fault strategies (§7.3 "Failure Resiliency").
//!
//! Faults are leader-side behaviors consulted at propose time; faulty
//! replicas behave honestly as backups (they aim to slow progress, not to
//! censor responses — per the paper's attack experiments).
//!
//! *Backup-side* misbehavior — equivocal voting, vote withholding, stale
//! certificate advertisement, corrupt fetch/snapshot serving — lives in
//! the `hs1-adversary` crate as a mutator of a replica's outbound
//! messages, which the node shell relays its traffic through, so one
//! implementation covers all five protocol kinds in the simulator and
//! the TCP stack alike.

use hs1_types::ReplicaId;

/// The strategy a replica plays.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Fault {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Stops participating entirely after `after_view` views (crash).
    Crash { after_view: u64 },
    /// Leader-slowness phenomenon (§6, D6): as leader, delays every
    /// proposal to the end of the view window, keeping just enough slack
    /// for the proposal to complete.
    SlowLeader,
    /// Tail-forking attack (§6, D7 / Example 6.2): as leader of view `v`,
    /// ignores the certificate for view `v−1` and extends the certificate
    /// of view `v−2`, orphaning the previous leader's block.
    TailFork,
    /// Rollback attack (§7.3 "Rollback" / Appendix A.2): as leader,
    /// equivocates — sends a proposal extending the fresh certificate to
    /// `victims` correct replicas (inducing them to speculate) and a
    /// conflicting proposal extending an older certificate to everyone
    /// else. Faulty replicas additionally vote for any proposal signed by
    /// a faulty leader (collusion), letting the conflicting branch win and
    /// forcing the victims to roll back.
    RollbackAttack { victims: Vec<ReplicaId> },
    /// Never sends anything (fail-silent from the start).
    Silent,
}

impl Fault {
    /// Is this replica in the colluding faulty set (votes for faulty
    /// leaders' equivocating proposals)?
    pub(crate) fn colludes(&self) -> bool {
        matches!(self, Fault::RollbackAttack { .. } | Fault::TailFork)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_honest() {
        assert!(matches!(Fault::default(), Fault::Honest));
    }

    #[test]
    fn collusion_membership() {
        assert!(Fault::RollbackAttack { victims: vec![] }.colludes());
        assert!(Fault::TailFork.colludes());
        assert!(!Fault::Honest.colludes());
        assert!(!Fault::SlowLeader.colludes());
    }
}
