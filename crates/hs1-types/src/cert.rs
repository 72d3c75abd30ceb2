//! Certificates: quorums of signature shares over a block at a (view,
//! slot) position, plus pacemaker timeout certificates.
//!
//! Following the paper's implementation note (§7), a certificate is a list
//! of `n − f` individual signatures rather than a single threshold
//! signature; verification checks that at least a quorum of *distinct*
//! replicas signed the same statement.
//!
//! Certificate kinds map onto the protocol set:
//!
//! * [`CertKind::Quorum`] — prepare-certificate `P(v)` (basic HotStuff-1),
//!   the generic certificate of the streamlined protocols, and HotStuff's
//!   QC.
//! * [`CertKind::Commit`] — commit-certificate `C(v)` (basic HotStuff-1).
//! * [`CertKind::NewSlot`] / [`CertKind::NewView`] — the dual certificates
//!   of slotted HotStuff-1 (§6.1); `NewView` carries the view `fv` in
//!   which it was formed.

use std::sync::Arc;

use crate::block::BlockId;
use crate::ids::{Rank, ReplicaId, Slot, View};
use hs1_crypto::{PublicKeyRegistry, Signature};

/// Signature domain tags (domain separation across vote contexts).
pub mod domains {
    /// Vote on a leader proposal (forms `Quorum` certificates).
    pub const PROPOSE_VOTE: u8 = 1;
    /// Commit vote on a prepare-certificate (basic HotStuff-1's second
    /// phase; forms `Commit` certificates).
    pub const COMMIT_VOTE: u8 = 2;
    /// New-Slot vote (slotted HotStuff-1; forms `NewSlot` certificates).
    pub const NEW_SLOT: u8 = 3;
    /// New-View vote (slotted HotStuff-1; forms `NewView` certificates).
    pub const NEW_VIEW: u8 = 4;
    /// Pacemaker Wish (forms timeout certificates).
    pub const WISH: u8 = 5;
}

/// What a certificate asserts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CertKind {
    /// A quorum prepared the block (prepare-certificate / generic QC).
    Quorum,
    /// A quorum commit-voted the prepare-certificate (basic HotStuff-1).
    Commit,
    /// A quorum voted to advance to the next slot (slotted HotStuff-1).
    NewSlot,
    /// A quorum's NewView votes named this block as their highest; formed
    /// by the leader of `formed_in` (the `fv` annotation of §6.1).
    NewView { formed_in: View },
}

impl CertKind {
    /// The signature domain whose shares aggregate into this kind.
    pub fn domain(&self) -> u8 {
        match self {
            CertKind::Quorum => domains::PROPOSE_VOTE,
            CertKind::Commit => domains::COMMIT_VOTE,
            CertKind::NewSlot => domains::NEW_SLOT,
            CertKind::NewView { .. } => domains::NEW_VIEW,
        }
    }
}

/// A certificate: `sigs` is the aggregated list of shares. Shares sign the
/// canonical [`Certificate::signing_bytes`] statement.
///
/// The list is built once, when the certificate is decoded or formed, and
/// never changes: a clone shares it, so handing a certificate on (as a
/// justify, a high certificate, a NewView's) costs a reference count, not
/// a copy of `n − f` signatures.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Certificate {
    pub kind: CertKind,
    /// View of the certified block.
    pub view: View,
    /// Slot of the certified block (always 1 in non-slotted protocols;
    /// 0 for genesis).
    pub slot: Slot,
    /// The certified block.
    pub block: BlockId,
    pub sigs: Arc<[(ReplicaId, Signature)]>,
}

impl Certificate {
    /// The hard-coded genesis certificate every replica accepts
    /// (paper §4.1, "Note"). It certifies the genesis block with an empty
    /// signature list.
    pub fn genesis() -> Certificate {
        Certificate {
            kind: CertKind::Quorum,
            view: View::GENESIS,
            slot: Slot::GENESIS,
            block: crate::block::Block::genesis_id(),
            sigs: Arc::new([]),
        }
    }

    pub fn is_genesis(&self) -> bool {
        self.view == View::GENESIS && self.slot == Slot::GENESIS
    }

    /// Lexicographic (view, slot) rank (Definition "ordered
    /// lexicographically", §6.1). Certificate comparisons throughout the
    /// protocols use this rank.
    pub fn rank(&self) -> Rank {
        Rank::new(self.view, self.slot)
    }

    /// The exact bytes a share signs for a certificate of `kind` over
    /// block `block` at (view, slot). For `NewView` certificates the
    /// forming view is part of the statement, which is what pins the `fv`
    /// annotation cryptographically.
    pub fn signing_bytes(kind: CertKind, view: View, slot: Slot, block: BlockId) -> [u8; 53] {
        let mut out = [0u8; 53];
        out[0] = kind.domain();
        let formed_in = match kind {
            CertKind::NewView { formed_in } => formed_in.0,
            _ => 0,
        };
        out[1..9].copy_from_slice(&formed_in.to_be_bytes());
        out[9..17].copy_from_slice(&view.0.to_be_bytes());
        out[17..21].copy_from_slice(&slot.0.to_be_bytes());
        out[21..53].copy_from_slice(&block.0 .0);
        out
    }

    /// Bytes this certificate's shares must have signed.
    pub(crate) fn own_signing_bytes(&self) -> [u8; 53] {
        Self::signing_bytes(self.kind, self.view, self.slot, self.block)
    }

    /// Verify the certificate: at least `quorum` *distinct* valid shares
    /// (genesis verifies trivially — it is hard-coded at every replica).
    pub fn verify(&self, registry: &PublicKeyRegistry, quorum: usize) -> bool {
        if self.is_genesis() {
            return self.block == crate::block::Block::genesis_id();
        }
        let (bytes, domain) = (self.own_signing_bytes(), self.kind.domain());
        distinct_valid(&self.sigs, |id, sig| registry.verify(id, domain, &bytes, sig)) >= quorum
    }
}

/// How many distinct signers in `sigs` pass `valid`. A signer listed twice
/// is checked once, at its first entry; the check for an earlier entry
/// scans the list itself, so verifying allocates nothing.
fn distinct_valid(
    sigs: &[(ReplicaId, Signature)],
    valid: impl Fn(u32, &Signature) -> bool,
) -> usize {
    sigs.iter()
        .enumerate()
        .filter(|&(i, (rid, sig))| !sigs[..i].iter().any(|(r, _)| r == rid) && valid(rid.0, sig))
        .count()
}

/// A pacemaker timeout certificate: `n − f` Wish shares for a view
/// (paper Fig. 3).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TimeoutCert {
    pub view: View,
    pub sigs: Vec<(ReplicaId, Signature)>,
}

impl TimeoutCert {
    pub fn signing_bytes(view: View) -> [u8; 9] {
        let mut out = [0u8; 9];
        out[0] = domains::WISH;
        out[1..9].copy_from_slice(&view.0.to_be_bytes());
        out
    }

    pub fn verify(&self, registry: &PublicKeyRegistry, quorum: usize) -> bool {
        let bytes = Self::signing_bytes(self.view);
        distinct_valid(&self.sigs, |id, sig| registry.verify(id, domains::WISH, &bytes, sig))
            >= quorum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs1_crypto::KeyPair;

    fn sign_cert(
        kind: CertKind,
        view: View,
        slot: Slot,
        block: BlockId,
        signers: &[u32],
    ) -> Certificate {
        let bytes = Certificate::signing_bytes(kind, view, slot, block);
        let sigs = signers
            .iter()
            .map(|&i| (ReplicaId(i), KeyPair::derive(0, i).sign(kind.domain(), &bytes)))
            .collect();
        Certificate { kind, view, slot, block, sigs }
    }

    #[test]
    fn genesis_verifies_with_no_sigs() {
        let reg = PublicKeyRegistry::derive(0, 4);
        assert!(Certificate::genesis().verify(&reg, 3));
        assert!(Certificate::genesis().is_genesis());
    }

    #[test]
    fn quorum_cert_verifies() {
        let reg = PublicKeyRegistry::derive(0, 4);
        let c = sign_cert(CertKind::Quorum, View(3), Slot(1), BlockId::test(9), &[0, 1, 2]);
        assert!(c.verify(&reg, 3));
        assert!(!c.verify(&reg, 4));
    }

    #[test]
    fn duplicate_signers_do_not_count_twice() {
        let reg = PublicKeyRegistry::derive(0, 4);
        let mut c = sign_cert(CertKind::Quorum, View(3), Slot(1), BlockId::test(9), &[0, 1]);
        c.sigs = [&c.sigs[..], &c.sigs[..1]].concat().into();
        assert!(!c.verify(&reg, 3), "2 distinct + 1 duplicate != quorum 3");
    }

    #[test]
    fn wrong_kind_share_rejected() {
        let reg = PublicKeyRegistry::derive(0, 4);
        // Shares signed for NEW_SLOT must not verify as a Quorum cert:
        // dual-certificate separation (§6.1).
        let bytes =
            Certificate::signing_bytes(CertKind::NewSlot, View(3), Slot(2), BlockId::test(9));
        let sigs = (0..3)
            .map(|i| (ReplicaId(i), KeyPair::derive(0, i).sign(domains::NEW_SLOT, &bytes)))
            .collect();
        let forged = Certificate {
            kind: CertKind::Quorum,
            view: View(3),
            slot: Slot(2),
            block: BlockId::test(9),
            sigs,
        };
        assert!(!forged.verify(&reg, 3));
    }

    #[test]
    fn newview_formed_in_is_bound() {
        let reg = PublicKeyRegistry::derive(0, 4);
        let k1 = CertKind::NewView { formed_in: View(7) };
        let c = sign_cert(k1, View(5), Slot(3), BlockId::test(1), &[0, 1, 2]);
        assert!(c.verify(&reg, 3));
        // Re-labeling the forming view invalidates every share.
        let mut relabeled = c.clone();
        relabeled.kind = CertKind::NewView { formed_in: View(8) };
        assert!(!relabeled.verify(&reg, 3));
    }

    #[test]
    fn rank_ordering() {
        let a = sign_cert(CertKind::Quorum, View(2), Slot(4), BlockId::test(1), &[0]);
        let b = sign_cert(CertKind::Quorum, View(3), Slot(1), BlockId::test(2), &[0]);
        assert!(a.rank() < b.rank());
        let c = sign_cert(CertKind::NewSlot, View(3), Slot(2), BlockId::test(3), &[0]);
        assert!(b.rank() < c.rank());
    }

    #[test]
    fn timeout_cert_verifies() {
        let reg = PublicKeyRegistry::derive(0, 4);
        let bytes = TimeoutCert::signing_bytes(View(9));
        let sigs: Vec<_> = (0..3)
            .map(|i| (ReplicaId(i), KeyPair::derive(0, i).sign(domains::WISH, &bytes)))
            .collect();
        let tc = TimeoutCert { view: View(9), sigs };
        assert!(tc.verify(&reg, 3));
        let mut bad = tc.clone();
        bad.view = View(10);
        assert!(!bad.verify(&reg, 3));
    }
}
