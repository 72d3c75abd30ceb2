//! The local-ledger: the committed global-ledger state plus at most one
//! speculated block's write set (§3/§4.2).
//!
//! HotStuff-1's Prefix Speculation rule lets a replica speculate a block
//! only on a committed parent, so the local-ledger is one block deep.
//! Invariants maintained here and checked by tests:
//!
//! * Speculation is side-effect free until promotion: a rollback leaves
//!   exactly the committed state.
//! * [`LocalLedger::commit`] promotes the speculated block into committed
//!   state, or drops it if another block commits at its height.
//! * Committed state is never written below live speculation: a write
//!   there would leave the speculated writes computed on a stale
//!   pre-state.

use std::collections::HashMap;

use crate::kv::{Key, KvStore, Value};
use hs1_crypto::Digest;
use hs1_types::BlockId;

/// One speculated block's result digest and write set.
#[derive(Clone, Debug)]
struct Speculated {
    block: BlockId,
    digest: Digest,
    writes: HashMap<Key, Value>,
}

/// Committed store + at most one speculated block above it.
#[derive(Clone, Debug)]
pub(crate) struct LocalLedger {
    committed: KvStore,
    speculated: Option<Speculated>,
    /// The last write set a commit or rollback emptied, kept for the next
    /// block's writes ([`LocalLedger::write_set`]).
    spare: HashMap<Key, Value>,
}

impl LocalLedger {
    pub(crate) fn new(committed: KvStore) -> LocalLedger {
        LocalLedger { committed, speculated: None, spare: HashMap::new() }
    }

    /// An empty write set for the next block, in the storage of the last
    /// one this ledger emptied: executing a block allocates nothing for
    /// its writes once a block of its size has run.
    pub(crate) fn write_set(&mut self) -> HashMap<Key, Value> {
        std::mem::take(&mut self.spare)
    }

    /// Merge `writes` into committed state and keep the emptied set.
    fn merge(&mut self, mut writes: HashMap<Key, Value>) {
        self.committed.apply(writes.drain());
        self.spare = writes;
    }

    /// Drop the speculated block, keeping its emptied write set.
    fn discard(&mut self) -> usize {
        let Some(Speculated { mut writes, .. }) = self.speculated.take() else { return 0 };
        writes.clear();
        self.spare = writes;
        1
    }

    /// The committed global-ledger state.
    pub(crate) fn committed(&self) -> &KvStore {
        &self.committed
    }

    /// The speculated block and its digest, if any.
    pub(crate) fn speculated(&self) -> Option<(BlockId, Digest)> {
        self.speculated.as_ref().map(|s| (s.block, s.digest))
    }

    /// Read through the speculated block's writes, then committed state
    /// (read-your-speculation).
    #[cfg(test)]
    pub(crate) fn get(&self, key: Key) -> Option<Value> {
        self.speculated
            .as_ref()
            .and_then(|s| s.writes.get(&key).copied())
            .or_else(|| self.committed.get(key))
    }

    /// Record `block`'s speculative result: its digest and write set.
    ///
    /// Panics if a block is already speculated: the caller rolls it back
    /// first (the parent is committed, so any live speculation conflicts).
    pub(crate) fn speculate(
        &mut self,
        block: BlockId,
        digest: Digest,
        writes: HashMap<Key, Value>,
    ) {
        if let Some(live) = &self.speculated {
            panic!("speculating {block:?} while {:?} is already speculated", live.block);
        }
        self.speculated = Some(Speculated { block, digest, writes });
    }

    /// `block` reached a commit decision. If it is the speculated block,
    /// merge its writes into committed state and return its digest. Any
    /// other speculation conflicts with the commit (a block at the same
    /// height on another branch) and is dropped with its digest; `None`
    /// tells the caller to execute `block` and [`Self::apply_committed`].
    pub(crate) fn commit(&mut self, block: BlockId) -> Option<Digest> {
        if self.speculated.as_ref().is_none_or(|live| live.block != block) {
            self.discard();
            return None;
        }
        let live = self.speculated.take().expect("just matched");
        self.merge(live.writes);
        Some(live.digest)
    }

    /// Merge a committed block's write set into committed state.
    ///
    /// Panics under live speculation: commit or roll it back first.
    pub(crate) fn apply_committed(&mut self, writes: HashMap<Key, Value>) {
        self.assert_idle("apply_committed");
        self.merge(writes);
    }

    /// Replace the committed store with a recovered checkpoint image.
    ///
    /// Panics under live speculation, as [`Self::apply_committed`] does.
    pub(crate) fn restore(&mut self, store: KvStore) {
        self.assert_idle("restore_committed");
        self.committed = store;
    }

    /// Drop the speculated block unless it is in `keep`. Returns how many
    /// blocks were rolled back, 0 or 1.
    pub(crate) fn rollback_unless(&mut self, keep: &[BlockId]) -> usize {
        match &self.speculated {
            Some(live) if !keep.contains(&live.block) => self.discard(),
            _ => 0,
        }
    }

    fn assert_idle(&self, op: &str) {
        assert!(self.speculated.is_none(), "{op} under active speculation");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> LocalLedger {
        LocalLedger::new(KvStore::with_records(100))
    }

    fn digest(n: u8) -> Digest {
        Digest([n; 32])
    }

    fn writes(pairs: &[(Key, Value)]) -> HashMap<Key, Value> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn read_through_overlay() {
        let mut l = ledger();
        let before = l.get(5);
        l.speculate(BlockId::test(1), digest(1), writes(&[(5, 999)]));
        assert_eq!(l.get(5), Some(999));
        assert_eq!(l.get(6), l.committed().get(6), "unwritten keys read through");
        assert_eq!(l.committed().get(5), before, "committed untouched");
    }

    #[test]
    fn rollback_restores_committed_state() {
        let mut l = ledger();
        let snapshot: Vec<_> = (0..10).map(|k| l.get(k)).collect();
        l.speculate(BlockId::test(1), digest(1), (0..10).map(|k| (k, k + 1000)).collect());
        assert_eq!(l.rollback_unless(&[]), 1);
        let after: Vec<_> = (0..10).map(|k| l.get(k)).collect();
        assert_eq!(snapshot, after);
        assert!(l.speculated().is_none());
    }

    #[test]
    fn promote_merges_into_committed() {
        let mut l = ledger();
        l.speculate(BlockId::test(1), digest(7), writes(&[(3, 33)]));
        assert_eq!(l.commit(BlockId::test(1)), Some(digest(7)), "promotion keeps the digest");
        assert!(l.speculated().is_none());
        assert_eq!(l.committed().get(3), Some(33));
    }

    #[test]
    fn promote_then_speculate_again() {
        let mut l = ledger();
        l.speculate(BlockId::test(1), digest(1), writes(&[(1, 11)]));
        l.commit(BlockId::test(1));
        l.speculate(BlockId::test(2), digest(2), writes(&[(1, 22)]));
        assert_eq!(l.get(1), Some(22));
        l.rollback_unless(&[]);
        assert_eq!(l.get(1), Some(11));
    }

    #[test]
    #[should_panic(expected = "already speculated")]
    fn double_speculation_panics() {
        let mut l = ledger();
        l.speculate(BlockId::test(1), digest(1), HashMap::new());
        l.speculate(BlockId::test(1), digest(1), HashMap::new());
    }

    #[test]
    #[should_panic(expected = "active speculation")]
    fn committed_write_under_speculation_panics() {
        let mut l = ledger();
        l.speculate(BlockId::test(1), digest(1), HashMap::new());
        l.apply_committed(writes(&[(0, 0)]));
    }
}
