//! Backup-side Byzantine adversaries (§7.3 "Failure Resiliency",
//! Appendix A).
//!
//! `hs1-core::byzantine` models *leader-side* misbehavior — strategies the
//! engines consult at propose time. This crate supplies the complementary
//! half of the fault model: [`AdversaryMutator`], a pure, deterministic
//! transformation of outbound `(destination, message)` pairs that
//! corrupts, injects, or withholds what one replica sends, so one
//! implementation serves all five protocol kinds in both the
//! deterministic simulator and the TCP stack.
//!
//! The mutator never touches engine state, which is what pins the
//! design's key property: an adversary's *local* ledger stays honest (it
//! processes inbound traffic like everyone else), only its externally
//! visible behavior lies. It lies in one place: `hs1-statesync`'s node
//! shell, which both runtimes step, relays every message its replica
//! sends a peer through the mutator set with `NodeShell::set_adversary`
//! — consensus traffic and snapshot replies alike. A send to itself
//! passes clean (a process does not corrupt messages to itself), and a
//! broadcast becomes one `mutate` per replica, so each peer can receive a
//! differently mutated copy.
//!
//! In-model strategies (any ≤ f of them must be absorbed at n = 3f + 1):
//!
//! | strategy | what it corrupts | defense it stresses |
//! |---|---|---|
//! | [`AdversaryStrategy::Equivocate`] | double-votes across conflicting branches | per-sender vote dedup, quorum intersection |
//! | [`AdversaryStrategy::WithholdVotes`] | strips/withholds vote shares | quorum formation from the honest n − f |
//! | [`AdversaryStrategy::StaleCert`] | advertises stale certs, wishes, and TCs | rank checks, pacemaker re-wish/TC-answer path |
//! | [`AdversaryStrategy::CorruptFetch`] | tampers `FetchResp` bodies | content-addressed ids + `FetchTracker` in-flight gating |
//! | [`AdversaryStrategy::CorruptSnapshot`] | corrupts snapshot chunks (and, when enabled, manifests) | chunk CRC index, `f+1` manifest agreement, ban/rotate |
//!
//! [`AdversaryStrategy::ForgeQuorum`] is deliberately *beyond* the fault
//! model: it forges other replicas' vote shares — possible only because
//! this workspace substitutes HMAC for a real signature scheme — to make
//! honest replicas commit a fabricated fork. It exists so the chaos
//! gate's `--inject forge` canary can prove the safety oracles trip on a
//! genuine violation, not to model a realizable attack.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod mutator;

pub use mutator::AdversaryMutator;

/// The strategy an adversarial backup plays on its outbound traffic.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AdversaryStrategy {
    /// Double-vote: for every vote share sent, also send a validly signed
    /// share for a *conflicting* block at the same (view, slot).
    Equivocate,
    /// Never contribute vote shares (NewView messages still flow, with
    /// their vote stripped — stealthier than silence).
    WithholdVotes,
    /// Advertise stale certificates in NewView/NewSlot/Reject, re-wish
    /// for old epochs, and replay stale TCs in the pacemaker path.
    StaleCert,
    /// Serve tampered `FetchResp` bodies whose content hash no longer
    /// matches the requested block id.
    CorruptFetch,
    /// Serve snapshot chunks whose bytes fail the manifest's CRC index
    /// (and, with [`AdversaryMutator::set_corrupt_manifests`], manifests
    /// whose state identity diverges from the honest cluster's).
    CorruptSnapshot,
    /// **Beyond the fault model** (gate canary only): forge a quorum
    /// certificate chain for a fabricated fork and propose it, forcing
    /// honest replicas into a safety violation the oracles must catch.
    ForgeQuorum,
}

impl AdversaryStrategy {
    /// Every strategy, including the beyond-model canary.
    pub(crate) const ALL: [AdversaryStrategy; 6] = [
        AdversaryStrategy::Equivocate,
        AdversaryStrategy::WithholdVotes,
        AdversaryStrategy::StaleCert,
        AdversaryStrategy::CorruptFetch,
        AdversaryStrategy::CorruptSnapshot,
        AdversaryStrategy::ForgeQuorum,
    ];

    /// The strategies inside the ≤ f fault model (what chaos plans draw
    /// from): any schedule of these must be absorbed without
    /// honest-replica divergence.
    pub const IN_MODEL: [AdversaryStrategy; 5] = [
        AdversaryStrategy::Equivocate,
        AdversaryStrategy::WithholdVotes,
        AdversaryStrategy::StaleCert,
        AdversaryStrategy::CorruptFetch,
        AdversaryStrategy::CorruptSnapshot,
    ];

    /// Compact token used by the chaos plan text spec.
    pub fn token(&self) -> &'static str {
        match self {
            AdversaryStrategy::Equivocate => "eq",
            AdversaryStrategy::WithholdVotes => "wh",
            AdversaryStrategy::StaleCert => "st",
            AdversaryStrategy::CorruptFetch => "cf",
            AdversaryStrategy::CorruptSnapshot => "cs",
            AdversaryStrategy::ForgeQuorum => "fq",
        }
    }

    /// Inverse of [`AdversaryStrategy::token`].
    pub fn parse(s: &str) -> Option<AdversaryStrategy> {
        Self::ALL.into_iter().find(|k| k.token() == s)
    }

    /// Human-readable name for logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryStrategy::Equivocate => "equivocate",
            AdversaryStrategy::WithholdVotes => "withhold-votes",
            AdversaryStrategy::StaleCert => "stale-cert",
            AdversaryStrategy::CorruptFetch => "corrupt-fetch",
            AdversaryStrategy::CorruptSnapshot => "corrupt-snapshot",
            AdversaryStrategy::ForgeQuorum => "forge-quorum",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_roundtrip() {
        for s in AdversaryStrategy::ALL {
            assert_eq!(AdversaryStrategy::parse(s.token()), Some(s));
            assert!(!s.name().is_empty());
        }
        assert_eq!(AdversaryStrategy::parse("nope"), None);
    }

    #[test]
    fn model_membership() {
        assert!(AdversaryStrategy::IN_MODEL.contains(&AdversaryStrategy::Equivocate));
        assert!(!AdversaryStrategy::IN_MODEL.contains(&AdversaryStrategy::ForgeQuorum));
        assert_eq!(AdversaryStrategy::ALL.len(), AdversaryStrategy::IN_MODEL.len() + 1);
    }
}
