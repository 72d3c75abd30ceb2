//! Blocks and block identifiers.
//!
//! A block carries a batch of client transactions, the certificate it
//! extends (`justify`), and — in slotted HotStuff-1 first-slot proposals
//! using "way (ii)" (§6.1) — the hash of an uncertified *carry block*. The
//! chain parent is the carried block when present, otherwise the justified
//! block, so ancestry walks are uniform across protocols.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

use crate::cert::Certificate;
use crate::codec::Encode;
use crate::ids::{Rank, ReplicaId, Slot, View};
use crate::tx::Transaction;
use hs1_crypto::{Digest, Sha256};

/// A block identifier: the SHA-256 digest of the block's canonical
/// encoding.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BlockId(pub Digest);

/// A digest's bytes are uniform, so its first eight are as good a hash key
/// as all 32 (see [`crate::IdHash`]).
impl std::hash::Hash for BlockId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from_le_bytes(self.0 .0[..8].try_into().expect("8 bytes")));
    }
}

impl BlockId {
    pub const NONE: BlockId = BlockId(Digest::ZERO);

    /// A deterministic synthetic id for unit tests.
    pub fn test(tag: u64) -> BlockId {
        let mut h = Sha256::new();
        h.update(b"test-block-id");
        h.update_u64(tag);
        BlockId(h.finalize())
    }
}

impl std::fmt::Debug for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "B#{}", self.0.short_hex())
    }
}

/// A proposal block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    /// Cached content hash; computed at construction and after decode.
    id: BlockId,
    pub proposer: ReplicaId,
    pub view: View,
    /// Slot within the view (1 for non-slotted protocols, 0 for genesis).
    pub slot: Slot,
    /// Chain parent: the carried block if `carry` is set, else the
    /// justified block.
    pub parent: BlockId,
    /// The certificate this block extends.
    pub justify: Certificate,
    /// Slotted first-slot proposals, way (ii): hash `H_u` of the lowest
    /// uncertified block being carried (Definition 6.3). `parent` equals
    /// this hash when present.
    pub carry: Option<BlockId>,
    pub txs: Vec<Transaction>,
}

impl Block {
    /// Build a block that directly extends `justify` (no carry).
    pub fn new(
        proposer: ReplicaId,
        view: View,
        slot: Slot,
        justify: Certificate,
        txs: Vec<Transaction>,
    ) -> Block {
        let parent = justify.block;
        Self::assemble(proposer, view, slot, parent, justify, None, txs)
    }

    /// Build a first-slot block that extends `justify` but *carries* the
    /// uncertified block `carry` (slotted way (ii)); the carried block is
    /// the chain parent.
    pub fn new_with_carry(
        proposer: ReplicaId,
        view: View,
        slot: Slot,
        justify: Certificate,
        carry: BlockId,
        txs: Vec<Transaction>,
    ) -> Block {
        Self::assemble(proposer, view, slot, carry, justify, Some(carry), txs)
    }

    fn assemble(
        proposer: ReplicaId,
        view: View,
        slot: Slot,
        parent: BlockId,
        justify: Certificate,
        carry: Option<BlockId>,
        txs: Vec<Transaction>,
    ) -> Block {
        let mut b = Block { id: BlockId::NONE, proposer, view, slot, parent, justify, carry, txs };
        b.id = b.compute_id();
        b
    }

    /// Recompute the content hash (used after decoding).
    pub(crate) fn compute_id(&self) -> BlockId {
        let mut h = Sha256::new();
        h.update(b"hs1-block");
        h.update(&[match self.carry {
            Some(_) => 1,
            None => 0,
        }]);
        h.update_u64(self.proposer.0 as u64);
        h.update_u64(self.view.0);
        h.update_u64(self.slot.0 as u64);
        h.update(&self.parent.0 .0);
        if let Some(c) = self.carry {
            h.update(&c.0 .0);
        }
        // The justify certificate is part of block identity (including its
        // aggregated signatures, exactly as proposed by the leader), behind
        // its length; then the transaction count and the transactions. One
        // buffer holds all of it, the length patched in once known; the
        // thread keeps the buffer, so an id allocates nothing once it has
        // grown to a batch.
        thread_local! {
            static BYTES: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
        }
        BYTES.with_borrow_mut(|bytes| {
            bytes.clear();
            bytes.extend_from_slice(&[0; 8]);
            self.justify.encode(bytes);
            let cert_len = (bytes.len() - 8) as u64;
            bytes[..8].copy_from_slice(&cert_len.to_be_bytes());
            bytes.extend_from_slice(&(self.txs.len() as u64).to_be_bytes());
            for tx in &self.txs {
                tx.encode(bytes);
            }
            h.update(bytes);
        });
        BlockId(h.finalize())
    }

    pub fn id(&self) -> BlockId {
        self.id
    }

    pub fn rank(&self) -> Rank {
        Rank::new(self.view, self.slot)
    }

    pub fn is_genesis(&self) -> bool {
        self.view == View::GENESIS && self.slot == Slot::GENESIS
    }

    /// The hard-coded genesis block (view 0, slot 0, empty batch). Its
    /// justify certificate points at the all-zero block id.
    pub fn genesis() -> Arc<Block> {
        static GENESIS: OnceLock<Arc<Block>> = OnceLock::new();
        GENESIS
            .get_or_init(|| {
                let justify = Certificate {
                    kind: crate::cert::CertKind::Quorum,
                    view: View::GENESIS,
                    slot: Slot::GENESIS,
                    block: BlockId::NONE,
                    sigs: Arc::new([]),
                };
                Arc::new(Block::assemble(
                    ReplicaId(0),
                    View::GENESIS,
                    Slot::GENESIS,
                    BlockId::NONE,
                    justify,
                    None,
                    Vec::new(),
                ))
            })
            .clone()
    }

    /// The genesis block id (what [`Certificate::genesis`] certifies).
    pub fn genesis_id() -> BlockId {
        Self::genesis().id()
    }

    /// Modeled wire size in bytes: header + justify signature list + an
    /// 8-byte reference per transaction. Client payloads are disseminated
    /// to replicas off the consensus critical path (clients broadcast
    /// requests; proposals reference them by digest), which is the only
    /// configuration consistent with the paper's batch-5000 throughput on
    /// 1 Gbit/s NICs (Fig. 8c). The simulator charges this size against
    /// the proposer's NIC.
    pub(crate) fn modeled_wire_size(&self) -> usize {
        let header = 96;
        let cert = 64 + self.justify.sigs.len() * 40;
        header + cert + self.txs.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transaction;

    #[test]
    fn genesis_is_stable_and_self_consistent() {
        let g1 = Block::genesis();
        let g2 = Block::genesis();
        assert_eq!(g1.id(), g2.id());
        assert!(g1.is_genesis());
        assert_eq!(g1.parent, BlockId::NONE);
        assert_eq!(Certificate::genesis().block, Block::genesis_id());
        assert_eq!(g1.rank(), Rank::GENESIS);
    }

    #[test]
    fn id_covers_content() {
        let justify = Certificate::genesis();
        let base = Block::new(ReplicaId(1), View(1), Slot(1), justify.clone(), vec![]);
        let other_view = Block::new(ReplicaId(1), View(2), Slot(1), justify.clone(), vec![]);
        let other_txs = Block::new(
            ReplicaId(1),
            View(1),
            Slot(1),
            justify.clone(),
            vec![Transaction::kv_write(1, 1, 2, 3)],
        );
        let other_proposer = Block::new(ReplicaId(2), View(1), Slot(1), justify, vec![]);
        assert_ne!(base.id(), other_view.id());
        assert_ne!(base.id(), other_txs.id());
        assert_ne!(base.id(), other_proposer.id());
    }

    #[test]
    fn carry_changes_parent_and_id() {
        let justify = Certificate::genesis();
        let plain = Block::new(ReplicaId(0), View(3), Slot(1), justify.clone(), vec![]);
        let carried = Block::new_with_carry(
            ReplicaId(0),
            View(3),
            Slot(1),
            justify,
            BlockId::test(77),
            vec![],
        );
        assert_eq!(plain.parent, Block::genesis_id());
        assert_eq!(carried.parent, BlockId::test(77));
        assert_eq!(carried.carry, Some(BlockId::test(77)));
        assert_ne!(plain.id(), carried.id());
    }

    #[test]
    fn wire_size_grows_with_batch() {
        // Proposals carry 8-byte per-transaction references (payload is
        // disseminated off the critical path — see modeled_wire_size).
        let justify = Certificate::genesis();
        let small = Block::new(ReplicaId(0), View(1), Slot(1), justify.clone(), vec![]);
        let txs: Vec<_> = (0..100).map(|i| Transaction::kv_write(1, i, i, i)).collect();
        let big = Block::new(ReplicaId(0), View(1), Slot(1), justify, txs);
        assert_eq!(big.modeled_wire_size(), small.modeled_wire_size() + 100 * 8);
    }
}
