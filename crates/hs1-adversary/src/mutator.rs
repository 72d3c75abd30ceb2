//! The message-mutation core: a deterministic transformation of outbound
//! `(destination, message)` pairs implementing one [`AdversaryStrategy`].
//!
//! The mutator knows nothing of engines or transports: `hs1-statesync`'s
//! node shell hands it every message its replica sends a peer, the
//! engine's and the snapshot server's alike. Every stochastic choice
//! flows through an own-seeded `SplitMix64`, so a chaos run with
//! adversarial replicas stays replayable byte-for-byte.

use std::sync::Arc;

use hs1_crypto::{KeyPair, Sha256};
use hs1_types::cert::{domains, CertKind};
use hs1_types::message::{NewSlotMsg, NewViewMsg, ProposeMsg, VoteInfo, VoteMsg, WishMsg};
use hs1_types::{
    Block, BlockId, Certificate, Message, ProtocolKind, ReplicaId, Slot, SplitMix64, SystemConfig,
    TimeoutCert, Transaction, View,
};

use crate::AdversaryStrategy;

/// The adversary begins forging (ForgeQuorum only) once the wrapped
/// engine has progressed past this view — late enough that honest
/// commits exist for the fork to conflict with.
const FORGE_AFTER_VIEW: u64 = 6;

/// Outbound-traffic mutator for one adversarial replica. See the crate
/// docs for the strategy catalogue.
pub struct AdversaryMutator {
    strategy: AdversaryStrategy,
    cfg: SystemConfig,
    protocol: ProtocolKind,
    me: ReplicaId,
    kp: KeyPair,
    rng: SplitMix64,
    /// Lowest-ranked non-genesis certificate observed in own outbound
    /// traffic (the StaleCert strategy's advertisement).
    stale_cert: Option<Certificate>,
    /// Oldest timeout certificate observed (stale TC replay).
    stale_tc: Option<TimeoutCert>,
    /// Block the previous (honest) vote named — the preferred conflicting
    /// branch for equivocation.
    prev_vote_block: Option<BlockId>,
    /// Also tamper snapshot *manifests*, not just chunks (exercises the
    /// agreement-exclusion defense instead of the chunk-CRC defense; the
    /// two are mutually exclusive per peer, so this is a separate knob).
    corrupt_manifests: bool,
    /// Fabricated fork blocks (ForgeQuorum), served on fetch.
    forged: Option<Vec<Arc<Block>>>,
}

impl AdversaryMutator {
    /// Build the mutator for replica `me` of the deployment described by
    /// `cfg`, running `protocol`. `seed` decorrelates the mutation
    /// stream from the scenario's other rngs.
    pub fn new(
        strategy: AdversaryStrategy,
        cfg: SystemConfig,
        protocol: ProtocolKind,
        me: ReplicaId,
        seed: u64,
    ) -> AdversaryMutator {
        let kp = KeyPair::derive(cfg.deployment_seed, me.0);
        AdversaryMutator {
            strategy,
            cfg,
            protocol,
            me,
            kp,
            rng: SplitMix64::new(seed ^ 0xadc0_5a17 ^ ((me.0 as u64) << 32)),
            stale_cert: None,
            stale_tc: None,
            prev_vote_block: None,
            corrupt_manifests: false,
            forged: None,
        }
    }

    /// The replica this mutator lies for (it signs equivocal votes as it).
    pub fn id(&self) -> ReplicaId {
        self.me
    }

    /// Deployment size: a broadcast is one `mutate` per replica.
    pub fn n(&self) -> usize {
        self.cfg.n
    }

    /// Toggle manifest tampering for the CorruptSnapshot strategy.
    pub fn set_corrupt_manifests(&mut self, on: bool) {
        self.corrupt_manifests = on;
    }

    /// Transform one outbound message. An empty result withholds it; a
    /// multi-element result injects extra traffic around it.
    pub fn mutate(&mut self, to: ReplicaId, msg: Message) -> Vec<(ReplicaId, Message)> {
        self.observe(&msg);
        match self.strategy {
            AdversaryStrategy::Equivocate => self.equivocate(to, msg),
            AdversaryStrategy::WithholdVotes => self.withhold(to, msg),
            AdversaryStrategy::StaleCert => self.stale(to, msg),
            AdversaryStrategy::CorruptFetch => self.corrupt_fetch(to, msg),
            AdversaryStrategy::CorruptSnapshot => self.corrupt_snapshot(to, msg),
            AdversaryStrategy::ForgeQuorum => vec![(to, msg)],
        }
    }

    /// Track the stalest certificate / TC flowing through own traffic so
    /// the StaleCert strategy has something genuinely old to advertise.
    fn observe(&mut self, msg: &Message) {
        let cert = match msg {
            Message::NewView(m) => Some(&m.high_cert),
            Message::NewSlot(m) => Some(&m.high_cert),
            Message::Reject(m) => Some(&m.high_cert),
            Message::Propose(p) => Some(&p.block.justify),
            Message::Prepare(p) => Some(&p.cert),
            _ => None,
        };
        if let Some(c) = cert {
            if !c.is_genesis() && self.stale_cert.as_ref().is_none_or(|s| c.rank() < s.rank()) {
                self.stale_cert = Some(c.clone());
            }
        }
        if let Message::Tc(tc) = msg {
            if self.stale_tc.as_ref().is_none_or(|s| tc.view < s.view) {
                self.stale_tc = Some(tc.clone());
            }
        }
    }

    // -- Equivocate ---------------------------------------------------------

    /// The conflicting branch a double-vote names: the block of the
    /// previous honest vote when one exists (a real competing branch),
    /// else a fabricated id derived from the honest vote.
    fn conflicting_block(&self, real: BlockId) -> BlockId {
        match self.prev_vote_block {
            Some(b) if b != real => b,
            _ => {
                let mut h = Sha256::new();
                h.update(b"hs1-adversary-equivocation");
                h.update(&real.0 .0);
                BlockId(h.finalize())
            }
        }
    }

    /// Signature context of a NewView-carried vote (protocol-dependent:
    /// the chained engines vote in the propose domain, basic sends commit
    /// shares, slotted sends New-View shares).
    fn newview_vote_kind(&self, dest_view: View) -> CertKind {
        match self.protocol {
            ProtocolKind::HotStuff1Basic => CertKind::Commit,
            ProtocolKind::HotStuff1Slotted => CertKind::NewView { formed_in: dest_view },
            _ => CertKind::Quorum,
        }
    }

    fn sign_vote(&self, kind: CertKind, v: VoteInfo, block: BlockId) -> VoteInfo {
        let bytes = Certificate::signing_bytes(kind, v.view, v.slot, block);
        VoteInfo { block, share: self.kp.sign(kind.domain(), &bytes), ..v }
    }

    fn equivocate(&mut self, to: ReplicaId, msg: Message) -> Vec<(ReplicaId, Message)> {
        let conflict = match &msg {
            Message::Vote(m) => {
                let alt = self.conflicting_block(m.vote.block);
                let vote = self.sign_vote(CertKind::Quorum, m.vote, alt);
                self.prev_vote_block = Some(m.vote.block);
                Some(Message::Vote(VoteMsg { vote }))
            }
            Message::NewView(m) => m.vote.map(|v| {
                let alt = self.conflicting_block(v.block);
                let kind = self.newview_vote_kind(m.dest_view);
                let vote = self.sign_vote(kind, v, alt);
                self.prev_vote_block = Some(v.block);
                Message::NewView(NewViewMsg {
                    dest_view: m.dest_view,
                    high_cert: m.high_cert.clone(),
                    vote: Some(vote),
                })
            }),
            Message::NewSlot(m) => {
                let alt = self.conflicting_block(m.vote.block);
                let vote = self.sign_vote(CertKind::NewSlot, m.vote, alt);
                self.prev_vote_block = Some(m.vote.block);
                Some(Message::NewSlot(NewSlotMsg {
                    view: m.view,
                    slot: m.slot,
                    high_cert: m.high_cert.clone(),
                    vote,
                }))
            }
            _ => None,
        };
        match conflict {
            Some(forged) => {
                // Half the time the conflicting share arrives first, so
                // the tallying leader's per-sender dedup keeps *it* and
                // discards the honest share — the worst ordering.
                if self.rng.chance(0.5) {
                    vec![(to, forged), (to, msg)]
                } else {
                    vec![(to, msg), (to, forged)]
                }
            }
            None => vec![(to, msg)],
        }
    }

    // -- WithholdVotes ------------------------------------------------------

    fn withhold(&mut self, to: ReplicaId, msg: Message) -> Vec<(ReplicaId, Message)> {
        match msg {
            Message::Vote(_) | Message::NewSlot(_) => Vec::new(),
            Message::NewView(m) if m.vote.is_some() => {
                vec![(to, Message::NewView(NewViewMsg { vote: None, ..m }))]
            }
            other => vec![(to, other)],
        }
    }

    // -- StaleCert ----------------------------------------------------------

    fn stale_or_genesis(&self) -> Certificate {
        self.stale_cert.clone().unwrap_or_else(Certificate::genesis)
    }

    fn stale(&mut self, to: ReplicaId, msg: Message) -> Vec<(ReplicaId, Message)> {
        match msg {
            Message::NewView(m) => {
                vec![(to, Message::NewView(NewViewMsg { high_cert: self.stale_or_genesis(), ..m }))]
            }
            Message::NewSlot(m) => {
                vec![(to, Message::NewSlot(NewSlotMsg { high_cert: self.stale_or_genesis(), ..m }))]
            }
            Message::Reject(mut m) => {
                m.high_cert = self.stale_or_genesis();
                vec![(to, Message::Reject(m))]
            }
            Message::Wish(w) if w.view.0 >= self.cfg.epoch_len() => {
                // Re-wish for the *previous* epoch boundary: epoch leaders
                // with a formed TC answer it directly (the stored-TC
                // recovery path), everyone else ignores it — and the
                // current epoch must synchronize from honest wishes alone.
                let old = View(w.view.0 - self.cfg.epoch_len());
                let share = self.kp.sign(domains::WISH, &TimeoutCert::signing_bytes(old));
                vec![(to, Message::Wish(WishMsg { view: old, share }))]
            }
            Message::Tc(tc) => match &self.stale_tc {
                Some(old) if old.view < tc.view => {
                    vec![(to, Message::Tc(old.clone()))]
                }
                _ => vec![(to, Message::Tc(tc))],
            },
            other => vec![(to, other)],
        }
    }

    // -- CorruptFetch -------------------------------------------------------

    /// Rebuild `b` with an extra marker transaction: structurally valid,
    /// same chain position, but the content hash no longer matches the
    /// id the fetcher asked for.
    fn tamper_block(&mut self, b: &Block) -> Block {
        let mut txs = b.txs.clone();
        txs.push(Transaction::kv_write(u32::MAX, self.rng.next_u64(), 0xdead, 0xbeef));
        match b.carry {
            Some(c) => Block::new_with_carry(b.proposer, b.view, b.slot, b.justify.clone(), c, txs),
            None => Block::new(b.proposer, b.view, b.slot, b.justify.clone(), txs),
        }
    }

    fn corrupt_fetch(&mut self, to: ReplicaId, msg: Message) -> Vec<(ReplicaId, Message)> {
        match msg {
            Message::FetchResp { block } => {
                let tampered = Arc::new(self.tamper_block(&block));
                vec![(to, Message::FetchResp { block: tampered })]
            }
            other => vec![(to, other)],
        }
    }

    // -- CorruptSnapshot ----------------------------------------------------

    fn corrupt_snapshot(&mut self, to: ReplicaId, msg: Message) -> Vec<(ReplicaId, Message)> {
        match msg {
            Message::SnapshotChunk(mut c) if !c.data.is_empty() => {
                c.data[0] ^= 0xFF;
                vec![(to, Message::SnapshotChunk(c))]
            }
            Message::SnapshotManifest(mut m) if self.corrupt_manifests => {
                // A lying state identity: still well-formed, certificate
                // still valid — only the f+1 agreement rule excludes it.
                let mut root = m.state_root;
                for byte in root.0.iter_mut() {
                    *byte ^= 0xFF;
                }
                m.state_root = root;
                vec![(to, Message::SnapshotManifest(m))]
            }
            other => vec![(to, other)],
        }
    }

    // -- ForgeQuorum (beyond-model canary) ----------------------------------

    /// Forge a certificate with shares from the first `quorum` replicas.
    /// Only possible because the workspace substitutes HMAC (a shared
    /// registry of symmetric keys) for real signatures — which is exactly
    /// why this strategy is confined to gate canaries.
    fn forge_cert(&self, kind: CertKind, view: View, slot: Slot, block: BlockId) -> Certificate {
        let bytes = Certificate::signing_bytes(kind, view, slot, block);
        let sigs = (0..self.cfg.quorum() as u32)
            .map(|i| {
                let kp = KeyPair::derive(self.cfg.deployment_seed, i);
                (ReplicaId(i), kp.sign(kind.domain(), &bytes))
            })
            .collect();
        Certificate { kind, view, slot, block, sigs }
    }

    /// Once the run is warm, fabricate a fork `X0 ← X1 ← X2` where `X0`
    /// conflicts with the honest chain's first block, certify `X0`/`X1`
    /// with forged quorums, and propose `X2` from a view this replica
    /// legitimately leads. Honest receivers fetch the forged ancestry
    /// (served by [`AdversaryMutator::forged_block`]) and the 2-chain
    /// commit rule walks them into committing `X0` — the safety violation
    /// the chaos oracles must catch. Asked once after every engine step,
    /// with the engine's view.
    pub fn maybe_forge(&mut self, current_view: View) -> Option<Vec<(ReplicaId, Message)>> {
        if self.strategy != AdversaryStrategy::ForgeQuorum
            || self.forged.is_some()
            || current_view.0 < FORGE_AFTER_VIEW
        {
            return None;
        }
        let mut w = current_view.0 + 1;
        while self.cfg.leader_of(View(w)) != self.me {
            w += 1;
        }
        let marker = Transaction::kv_write(u32::MAX, w, 0xf0f0, 0x0f0f);
        let x0 = Arc::new(Block::new(
            self.me,
            View(1),
            Slot::FIRST,
            Certificate::genesis(),
            vec![marker],
        ));
        let c0 = self.forge_cert(CertKind::Quorum, View(w - 2), Slot::FIRST, x0.id());
        let x1 = Arc::new(Block::new(self.me, View(w - 1), Slot::FIRST, c0, Vec::new()));
        let c1 = self.forge_cert(CertKind::Quorum, View(w - 1), Slot::FIRST, x1.id());
        let x2 = Arc::new(Block::new(self.me, View(w), Slot::FIRST, c1, Vec::new()));
        self.forged = Some(vec![x0, x1, x2.clone()]);
        Some(
            (0..self.cfg.n as u32)
                .map(|r| {
                    let msg = Message::Propose(ProposeMsg { block: x2.clone(), commit_cert: None });
                    (ReplicaId(r), msg)
                })
                .collect(),
        )
    }

    /// A fabricated fork block by id, if this adversary forged it (the
    /// node shell answers `FetchBlock` for these itself — the honest
    /// engine has never seen them).
    pub fn forged_block(&self, id: BlockId) -> Option<Arc<Block>> {
        self.forged.as_ref().and_then(|blocks| blocks.iter().find(|b| b.id() == id).cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs1_crypto::PublicKeyRegistry;
    use hs1_types::message::{SnapshotChunkMsg, SnapshotManifestMsg};

    fn cfg() -> SystemConfig {
        SystemConfig::new(4)
    }

    fn mutator(strategy: AdversaryStrategy) -> AdversaryMutator {
        mutator_for(strategy, ProtocolKind::HotStuff1)
    }

    fn mutator_for(strategy: AdversaryStrategy, protocol: ProtocolKind) -> AdversaryMutator {
        AdversaryMutator::new(strategy, cfg(), protocol, ReplicaId(1), 7)
    }

    fn some_vote(block: BlockId) -> VoteInfo {
        VoteInfo { view: View(3), slot: Slot::FIRST, block, share: hs1_crypto::Signature::ZERO }
    }

    fn newview(block: BlockId) -> Message {
        Message::NewView(NewViewMsg {
            dest_view: View(4),
            high_cert: Certificate::genesis(),
            vote: Some(some_vote(block)),
        })
    }

    #[test]
    fn equivocate_injects_validly_signed_conflicting_vote() {
        let mut m = mutator(AdversaryStrategy::Equivocate);
        let real = BlockId::test(1);
        let out = m.mutate(ReplicaId(2), newview(real));
        assert_eq!(out.len(), 2, "real + conflicting vote");
        let reg = PublicKeyRegistry::derive(0, 4);
        let mut seen_conflict = false;
        for (_, msg) in &out {
            let Message::NewView(nv) = msg else { panic!("shape preserved") };
            let v = nv.vote.expect("vote kept");
            if v.block != real {
                seen_conflict = true;
                // Conflicting share is *validly signed* by the adversary
                // in the correct domain — a genuine double-vote.
                let bytes = Certificate::signing_bytes(CertKind::Quorum, v.view, v.slot, v.block);
                assert!(reg.verify(1, domains::PROPOSE_VOTE, &bytes, &v.share));
            }
        }
        assert!(seen_conflict);
    }

    #[test]
    fn equivocate_prefers_a_real_competing_branch() {
        let mut m = mutator(AdversaryStrategy::Equivocate);
        let first = BlockId::test(1);
        let second = BlockId::test(2);
        m.mutate(ReplicaId(2), newview(first));
        let out = m.mutate(ReplicaId(2), newview(second));
        let conflict = out
            .iter()
            .filter_map(|(_, msg)| match msg {
                Message::NewView(nv) => nv.vote,
                _ => None,
            })
            .find(|v| v.block != second)
            .expect("conflicting vote present");
        assert_eq!(conflict.block, first, "previous branch reused as the conflict");
    }

    #[test]
    fn equivocate_signs_per_protocol_domain() {
        let reg = PublicKeyRegistry::derive(0, 4);
        for (protocol, domain) in [
            (ProtocolKind::HotStuff1, domains::PROPOSE_VOTE),
            (ProtocolKind::HotStuff1Basic, domains::COMMIT_VOTE),
            (ProtocolKind::HotStuff1Slotted, domains::NEW_VIEW),
        ] {
            let mut m = mutator_for(AdversaryStrategy::Equivocate, protocol);
            let out = m.mutate(ReplicaId(2), newview(BlockId::test(1)));
            let conflict = out
                .iter()
                .filter_map(|(_, msg)| match msg {
                    Message::NewView(nv) => nv.vote,
                    _ => None,
                })
                .find(|v| v.block != BlockId::test(1))
                .expect("conflict");
            let kind = m.newview_vote_kind(View(4));
            let bytes =
                Certificate::signing_bytes(kind, conflict.view, conflict.slot, conflict.block);
            assert!(reg.verify(1, domain, &bytes, &conflict.share), "{protocol:?}");
        }
    }

    #[test]
    fn withhold_strips_and_drops_votes() {
        let mut m = mutator(AdversaryStrategy::WithholdVotes);
        let out = m.mutate(ReplicaId(2), newview(BlockId::test(1)));
        assert_eq!(out.len(), 1);
        let Message::NewView(nv) = &out[0].1 else { panic!() };
        assert!(nv.vote.is_none(), "vote stripped, message kept");
        let dropped =
            m.mutate(ReplicaId(2), Message::Vote(VoteMsg { vote: some_vote(BlockId::test(1)) }));
        assert!(dropped.is_empty(), "standalone votes withheld entirely");
        // Non-vote traffic flows untouched.
        let fetched = m.mutate(ReplicaId(2), Message::FetchBlock { id: BlockId::test(9) });
        assert_eq!(fetched.len(), 1);
    }

    #[test]
    fn stale_cert_advertises_the_oldest_seen() {
        let mut m = mutator(AdversaryStrategy::StaleCert);
        let old = Certificate {
            kind: CertKind::Quorum,
            view: View(2),
            slot: Slot::FIRST,
            block: BlockId::test(2),
            sigs: [].into(),
        };
        let fresh = Certificate { view: View(9), block: BlockId::test(9), ..old.clone() };
        // Observe an old cert, then send a message carrying a fresh one.
        m.mutate(
            ReplicaId(2),
            Message::NewView(NewViewMsg { dest_view: View(3), high_cert: old.clone(), vote: None }),
        );
        let out = m.mutate(
            ReplicaId(2),
            Message::NewView(NewViewMsg { dest_view: View(10), high_cert: fresh, vote: None }),
        );
        let Message::NewView(nv) = &out[0].1 else { panic!() };
        assert_eq!(nv.high_cert.view, View(2), "stale certificate advertised");
    }

    #[test]
    fn stale_rewishes_for_the_previous_epoch() {
        let mut m = mutator(AdversaryStrategy::StaleCert);
        let out = m.mutate(
            ReplicaId(2),
            Message::Wish(WishMsg { view: View(8), share: hs1_crypto::Signature::ZERO }),
        );
        let Message::Wish(w) = &out[0].1 else { panic!() };
        // n = 4 ⇒ epoch_len = 2: the wish regresses one epoch and is
        // re-signed for the stale view.
        assert_eq!(w.view, View(6));
        let reg = PublicKeyRegistry::derive(0, 4);
        assert!(reg.verify(1, domains::WISH, &TimeoutCert::signing_bytes(View(6)), &w.share));
    }

    #[test]
    fn corrupt_fetch_changes_the_content_hash() {
        let mut m = mutator(AdversaryStrategy::CorruptFetch);
        let block = Arc::new(Block::new(
            ReplicaId(0),
            View(1),
            Slot::FIRST,
            Certificate::genesis(),
            vec![Transaction::kv_write(1, 1, 2, 3)],
        ));
        let out = m.mutate(ReplicaId(2), Message::FetchResp { block: block.clone() });
        let Message::FetchResp { block: tampered } = &out[0].1 else { panic!() };
        assert_ne!(tampered.id(), block.id(), "tampered body no longer matches its id");
        assert_eq!(tampered.parent, block.parent, "chain position preserved");
    }

    #[test]
    fn corrupt_snapshot_breaks_chunk_crc_and_optionally_manifests() {
        let mut m = mutator(AdversaryStrategy::CorruptSnapshot);
        let chunk = SnapshotChunkMsg {
            state_root: hs1_crypto::Digest([1u8; 32]),
            index: 0,
            data: vec![0xAA, 0xBB],
        };
        let out = m.mutate(ReplicaId(2), Message::SnapshotChunk(chunk.clone()));
        let Message::SnapshotChunk(c) = &out[0].1 else { panic!() };
        assert_ne!(c.data, chunk.data);

        let manifest = SnapshotManifestMsg {
            chain_len: 10,
            chain_head: BlockId::test(9),
            state_root: hs1_crypto::Digest([2u8; 32]),
            record_count: 5,
            total_bytes: 100,
            chunk_bytes: 64,
            chunk_crcs: vec![1, 2],
            view: View(10),
            high_cert: Certificate::genesis(),
        };
        // Manifests pass through by default (the chunk-CRC defense is the
        // one being exercised)...
        let passed = m.mutate(ReplicaId(2), Message::SnapshotManifest(Box::new(manifest.clone())));
        let Message::SnapshotManifest(p) = &passed[0].1 else { panic!() };
        assert_eq!(p.state_root, manifest.state_root);
        // ...until manifest corruption is switched on.
        m.set_corrupt_manifests(true);
        let out = m.mutate(ReplicaId(2), Message::SnapshotManifest(Box::new(manifest.clone())));
        let Message::SnapshotManifest(t) = &out[0].1 else { panic!() };
        assert_ne!(t.state_root, manifest.state_root);
        assert_ne!(t.state_key(), manifest.state_key(), "excluded from honest agreement");
        assert!(t.well_formed(), "still structurally valid — only agreement rejects it");
    }

    #[test]
    fn forge_builds_a_verifiable_fork_chain() {
        let mut m = mutator(AdversaryStrategy::ForgeQuorum);
        assert!(m.maybe_forge(View(2)).is_none(), "not before the trigger view");
        let msgs = m.maybe_forge(View(8)).expect("forged at view 8");
        assert_eq!(msgs.len(), 4, "proposed to every replica");
        assert!(m.maybe_forge(View(9)).is_none(), "forges exactly once");
        let Message::Propose(p) = &msgs[0].1 else { panic!() };
        // The proposed view is led by the adversary and the forged
        // certificate chain verifies against the deployment registry.
        assert_eq!(cfg().leader_of(p.block.view), ReplicaId(1));
        let reg = PublicKeyRegistry::derive(0, 4);
        assert!(p.block.justify.verify(&reg, 3), "forged quorum cert verifies");
        let x1 = m.forged_block(p.block.justify.block).expect("X1 served on fetch");
        assert!(x1.justify.verify(&reg, 3));
        let x0 = m.forged_block(x1.justify.block).expect("X0 served on fetch");
        assert!(x0.justify.is_genesis());
        assert_ne!(x0.id(), Block::genesis_id());
        assert!(m.forged_block(BlockId::test(42)).is_none());
    }
}
