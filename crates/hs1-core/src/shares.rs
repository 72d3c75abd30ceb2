//! Vote-share tallying: the one place signature shares become a
//! certificate.

use crate::common::CoreState;
use hs1_crypto::Signature;
use hs1_types::cert::CertKind;
use hs1_types::message::VoteInfo;
use hs1_types::Rank;
use hs1_types::{BlockId, Certificate, ReplicaId, Slot, View};

/// Shares towards certificates of one kind, keyed by the voted position.
/// A share is counted only if it verifies under the kind's signature
/// domain ([`CoreState::share_valid`]), so a certificate formed here always
/// passes [`Certificate::verify`] and is recorded as valid without being
/// verified again ([`CoreState::formed_cert`]): one Byzantine backup's
/// garbage share must not void an honest leader's view.
///
/// A view's tally holds a position or two (each sender is tallied once a
/// view), so positions are a list, and [`ShareTally::reset`] empties it for
/// the next view without freeing it: a leader's tally allocates nothing
/// once it has seen its first views.
pub(crate) struct ShareTally {
    kind: CertKind,
    /// The first `live` entries are this tally's positions, each with its
    /// shares; the rest are emptied lists kept for reuse.
    positions: Vec<Position>,
    live: usize,
}

struct Position {
    at: (View, Slot, BlockId),
    shares: Vec<(ReplicaId, Signature)>,
}

impl ShareTally {
    pub(crate) fn new(kind: CertKind) -> ShareTally {
        ShareTally { kind, positions: Vec::new(), live: 0 }
    }

    /// An empty tally for shares of `kind`, in `spare`'s storage if given.
    pub(crate) fn reused(spare: Option<ShareTally>, kind: CertKind) -> ShareTally {
        let mut t = spare.unwrap_or_else(|| ShareTally::new(kind));
        t.reset(kind);
        t
    }

    /// Empty the tally for shares of `kind`, keeping its storage.
    pub(crate) fn reset(&mut self, kind: CertKind) {
        self.kind = kind;
        self.live = 0;
    }

    /// Count `from`'s share for the position `vote` names. Returns whether
    /// it was counted: the signature verifies and `from` had none there.
    pub(crate) fn insert(&mut self, core: &CoreState, from: ReplicaId, vote: &VoteInfo) -> bool {
        let bytes = Certificate::signing_bytes(self.kind, vote.view, vote.slot, vote.block);
        if !core.share_valid(from, self.kind, &bytes, &vote.share) {
            return false;
        }
        let at = (vote.view, vote.slot, vote.block);
        let shares = match self.positions[..self.live].iter().position(|p| p.at == at) {
            Some(i) => &mut self.positions[i].shares,
            None => {
                if self.live == self.positions.len() {
                    self.positions.push(Position { at, shares: Vec::new() });
                }
                let p = &mut self.positions[self.live];
                self.live += 1;
                p.at = at;
                p.shares.clear();
                &mut p.shares
            }
        };
        let fresh = !shares.iter().any(|(r, _)| *r == from);
        if fresh {
            shares.push((from, vote.share));
        }
        fresh
    }

    /// The highest position holding `quorum` shares. Ties break on the
    /// block id, so the answer does not depend on arrival order.
    fn best(&self, quorum: usize) -> Option<&Position> {
        self.positions[..self.live]
            .iter()
            .filter(|p| p.shares.len() >= quorum)
            .max_by_key(|p| (p.at.0 .0, p.at.1 .0, p.at.2 .0 .0))
    }

    fn certify(&self, p: &Position) -> Certificate {
        let (view, slot, block) = p.at;
        Certificate { kind: self.kind, view, slot, block, sigs: p.shares.as_slice().into() }
    }

    /// The certificate of the highest position holding `quorum` shares.
    pub(crate) fn certificate(&self, quorum: usize) -> Option<Certificate> {
        self.best(quorum).map(|p| self.certify(p))
    }

    /// [`ShareTally::certificate`], if it ranks above `floor`: one at or
    /// below the certificate a caller holds would be dropped unread, so its
    /// signature list is not built.
    pub(crate) fn certificate_above(&self, quorum: usize, floor: Rank) -> Option<Certificate> {
        let p = self.best(quorum).filter(|p| Rank::new(p.at.0, p.at.1) > floor)?;
        Some(self.certify(p))
    }

    /// Does any position ranked above `rank` hold `threshold` shares?
    pub(crate) fn any_above(&self, rank: Rank, threshold: usize) -> bool {
        self.positions[..self.live]
            .iter()
            .any(|p| Rank::new(p.at.0, p.at.1) > rank && p.shares.len() >= threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs1_crypto::{KeyPair, PublicKeyRegistry};
    use hs1_ledger::ExecConfig;
    use hs1_types::SystemConfig;

    /// Replica 0 of the deployment the shares below are signed in.
    fn core() -> CoreState {
        let cfg = SystemConfig { deployment_seed: 7, ..SystemConfig::new(4) };
        CoreState::new(cfg, ReplicaId(0), ExecConfig::default())
    }

    fn vote(signer: u32, slot: u32, block: BlockId) -> VoteInfo {
        let (view, slot) = (View(3), Slot(slot));
        let bytes = Certificate::signing_bytes(CertKind::NewSlot, view, slot, block);
        let share = KeyPair::derive(7, signer).sign(CertKind::NewSlot.domain(), &bytes);
        VoteInfo { view, slot, block, share }
    }

    #[test]
    fn counts_valid_shares_once_and_certifies_at_quorum() {
        let (reg, core) = (PublicKeyRegistry::derive(7, 4), core());
        let mut t = ShareTally::new(CertKind::NewSlot);
        let b = BlockId::test(1);
        assert!(t.insert(&core, ReplicaId(0), &vote(0, 1, b)));
        assert!(!t.insert(&core, ReplicaId(0), &vote(0, 1, b)), "one share per sender");
        assert!(!t.insert(&core, ReplicaId(1), &vote(0, 1, b)), "signed by someone else");
        let forged = VoteInfo { share: Signature([0xAB; 32]), ..vote(1, 1, b) };
        assert!(!t.insert(&core, ReplicaId(1), &forged));
        assert!(t.insert(&core, ReplicaId(2), &vote(2, 1, b)));
        assert!(t.certificate(3).is_none(), "two valid shares, quorum three");
        assert!(t.insert(&core, ReplicaId(3), &vote(3, 1, b)));
        let cert = t.certificate(3).expect("quorum reached");
        assert!(cert.verify(&reg, 3));
        assert!(t.any_above(Rank::new(View(3), Slot(0)), 3));
        assert!(!t.any_above(cert.rank(), 1));
    }

    #[test]
    fn highest_position_wins_and_block_id_breaks_ties() {
        let core = core();
        let mut t = ShareTally::new(CertKind::NewSlot);
        let (lo, hi) = (BlockId::test(1), BlockId::test(2));
        for (signer, slot, block) in [(0, 2, lo), (1, 2, hi), (2, 1, hi)] {
            assert!(t.insert(&core, ReplicaId(signer), &vote(signer, slot, block)));
        }
        let cert = t.certificate(1).expect("every position holds one share");
        assert_eq!((cert.slot, cert.block), (Slot(2), lo.max(hi)));
    }

    /// A reset tally keeps no share of the view it served, and a
    /// certificate ranked no higher than the floor is not built.
    #[test]
    fn a_reset_tally_forgets_and_the_floor_filters() {
        let core = core();
        let mut t = ShareTally::new(CertKind::NewSlot);
        let b = BlockId::test(1);
        for signer in 0..3 {
            assert!(t.insert(&core, ReplicaId(signer), &vote(signer, 1, b)));
        }
        let cert = t.certificate(3).expect("quorum reached");
        assert!(t.certificate_above(3, cert.rank()).is_none());
        assert_eq!(t.certificate_above(3, Rank::GENESIS), Some(cert));
        t.reset(CertKind::NewSlot);
        assert!(t.certificate(1).is_none() && !t.any_above(Rank::GENESIS, 1));
        assert!(t.insert(&core, ReplicaId(0), &vote(0, 1, b)), "counted afresh");
    }

    /// The share this replica signed is counted unverified when it comes
    /// back; one that only claims to be from this replica is verified and
    /// refused.
    #[test]
    fn own_share_is_known_good_and_an_impostor_is_not() {
        let mut core = core();
        let b = BlockId::test(3);
        let share = core.sign_share(CertKind::NewSlot, View(3), Slot(1), b);
        let own = VoteInfo { view: View(3), slot: Slot(1), block: b, share };
        assert_eq!(own, vote(0, 1, b), "the same share KeyPair::sign makes");
        let mut t = ShareTally::new(CertKind::NewSlot);
        assert!(t.insert(&core, ReplicaId(0), &own));
        let impostor = VoteInfo { share: Signature([0xAB; 32]), ..vote(0, 1, BlockId::test(4)) };
        assert!(!t.insert(&core, ReplicaId(0), &impostor));
    }
}
