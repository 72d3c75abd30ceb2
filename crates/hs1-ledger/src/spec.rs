//! The speculative store: committed global-ledger state plus an ordered
//! stack of per-block write overlays (the local-ledger of §3/§4.2).
//!
//! Invariants maintained here and checked by tests:
//!
//! * Reads see the newest overlay write, falling through to committed
//!   state (read-your-speculation).
//! * [`SpeculativeStore::rollback_all`] restores exactly the committed
//!   state — speculation is side-effect free until promotion.
//! * [`SpeculativeStore::promote_oldest`] merges the *oldest* overlay into
//!   committed state (speculated blocks commit in chain order).
//!
//! In HotStuff-1 the Prefix Speculation rule means a replica only ever
//! speculates a block whose parent is committed, so the overlay stack has
//! depth ≤ 1 in protocol use; the store supports arbitrary depth so that
//! tests (and any future deep-speculation extension) can exercise longer
//! chains.

use std::collections::HashMap;

use crate::kv::{Key, KvStore, Value};
use hs1_types::BlockId;

/// One speculated block's write set.
#[derive(Clone, Debug)]
struct Overlay {
    tag: BlockId,
    writes: HashMap<Key, Value>,
}

/// Committed store + speculative overlay stack.
#[derive(Clone, Debug)]
pub struct SpeculativeStore {
    committed: KvStore,
    overlays: Vec<Overlay>,
    /// Cumulative number of overlays discarded by rollbacks (metric).
    rollbacks: u64,
}

impl SpeculativeStore {
    pub fn new(committed: KvStore) -> SpeculativeStore {
        SpeculativeStore { committed, overlays: Vec::new(), rollbacks: 0 }
    }

    /// Read through overlays (newest first), then committed state.
    pub fn get(&self, key: Key) -> Option<Value> {
        for ov in self.overlays.iter().rev() {
            if let Some(v) = ov.writes.get(&key) {
                return Some(*v);
            }
        }
        self.committed.get(key)
    }

    /// Begin speculating block `tag`: push a fresh overlay.
    ///
    /// Panics if `tag` is already being speculated (engines must not
    /// speculate the same block twice without rolling back).
    pub fn begin_speculation(&mut self, tag: BlockId) {
        assert!(!self.overlays.iter().any(|o| o.tag == tag), "block {tag:?} already speculated");
        self.overlays.push(Overlay { tag, writes: HashMap::new() });
    }

    /// Merge a block's write set into the top (current) speculative
    /// overlay.
    ///
    /// Panics if no speculation is active.
    pub fn apply_speculative(&mut self, writes: impl IntoIterator<Item = (Key, Value)>) {
        self.overlays
            .last_mut()
            .expect("apply_speculative requires an active overlay")
            .writes
            .extend(writes);
    }

    /// Merge a block's write set directly into committed state
    /// (non-speculative execution).
    ///
    /// Panics if overlays exist: committed execution below live
    /// speculation would make reads incoherent; engines roll back or
    /// promote first.
    pub fn apply_committed(&mut self, writes: impl IntoIterator<Item = (Key, Value)>) {
        assert!(
            self.overlays.is_empty(),
            "apply_committed with active speculation; promote or roll back first"
        );
        self.committed.apply(writes);
    }

    /// Tags of currently speculated blocks, oldest first.
    pub fn speculated(&self) -> Vec<BlockId> {
        self.overlays.iter().map(|o| o.tag).collect()
    }

    pub fn is_speculating(&self, tag: BlockId) -> bool {
        self.overlays.iter().any(|o| o.tag == tag)
    }

    pub fn depth(&self) -> usize {
        self.overlays.len()
    }

    /// Discard every speculative overlay (rollback to the committed
    /// common ancestor). Returns the number of blocks rolled back.
    pub fn rollback_all(&mut self) -> usize {
        let n = self.overlays.len();
        self.rollbacks += n as u64;
        self.overlays.clear();
        n
    }

    /// Discard overlays from the top down until `keep` is the top overlay
    /// (rolling back to a common ancestor that is itself speculated).
    /// Returns the number discarded; `keep` must be speculated.
    pub fn rollback_above(&mut self, keep: BlockId) -> usize {
        assert!(self.is_speculating(keep), "rollback_above target not speculated");
        let mut n = 0;
        while self.overlays.last().map(|o| o.tag) != Some(keep) {
            self.overlays.pop();
            n += 1;
        }
        self.rollbacks += n as u64;
        n
    }

    /// Merge the oldest overlay — which must be tagged `tag` — into the
    /// committed store (the speculated block reached a commit decision).
    pub fn promote_oldest(&mut self, tag: BlockId) {
        assert!(
            self.overlays.first().map(|o| o.tag) == Some(tag),
            "promote_oldest: {tag:?} is not the oldest speculated block"
        );
        let ov = self.overlays.remove(0);
        self.committed.apply(ov.writes);
    }

    /// Total overlays ever discarded by rollbacks.
    pub fn rollback_count(&self) -> u64 {
        self.rollbacks
    }

    pub fn committed_store(&self) -> &KvStore {
        &self.committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> SpeculativeStore {
        SpeculativeStore::new(KvStore::with_records(100))
    }

    #[test]
    fn read_through_overlay() {
        let mut s = store();
        let before = s.get(5);
        s.begin_speculation(BlockId::test(1));
        assert_eq!(s.get(5), before, "unwritten keys read through");
        s.apply_speculative([(5, 999)]);
        assert_eq!(s.get(5), Some(999));
        assert_eq!(s.committed_store().get(5), before, "committed untouched");
    }

    #[test]
    fn newest_overlay_wins() {
        let mut s = store();
        s.begin_speculation(BlockId::test(1));
        s.apply_speculative([(7, 1)]);
        s.begin_speculation(BlockId::test(2));
        s.apply_speculative([(7, 2)]);
        assert_eq!(s.get(7), Some(2));
        s.rollback_above(BlockId::test(1));
        assert_eq!(s.get(7), Some(1));
    }

    #[test]
    fn rollback_restores_committed_state() {
        let mut s = store();
        let snapshot: Vec<_> = (0..10).map(|k| s.get(k)).collect();
        s.begin_speculation(BlockId::test(1));
        s.apply_speculative((0..10).map(|k| (k, k + 1000)));
        assert_eq!(s.rollback_all(), 1);
        let after: Vec<_> = (0..10).map(|k| s.get(k)).collect();
        assert_eq!(snapshot, after);
        assert_eq!(s.rollback_count(), 1);
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn promote_merges_into_committed() {
        let mut s = store();
        s.begin_speculation(BlockId::test(1));
        s.apply_speculative([(3, 33)]);
        s.promote_oldest(BlockId::test(1));
        assert_eq!(s.depth(), 0);
        assert_eq!(s.committed_store().get(3), Some(33));
        // Promotion is not a rollback.
        assert_eq!(s.rollback_count(), 0);
    }

    #[test]
    fn promote_then_speculate_again() {
        let mut s = store();
        s.begin_speculation(BlockId::test(1));
        s.apply_speculative([(1, 11)]);
        s.promote_oldest(BlockId::test(1));
        s.begin_speculation(BlockId::test(2));
        s.apply_speculative([(1, 22)]);
        assert_eq!(s.get(1), Some(22));
        s.rollback_all();
        assert_eq!(s.get(1), Some(11));
    }

    #[test]
    fn speculated_tags_in_order() {
        let mut s = store();
        s.begin_speculation(BlockId::test(1));
        s.begin_speculation(BlockId::test(2));
        assert_eq!(s.speculated(), vec![BlockId::test(1), BlockId::test(2)]);
        assert!(s.is_speculating(BlockId::test(2)));
        assert!(!s.is_speculating(BlockId::test(3)));
    }

    #[test]
    #[should_panic(expected = "already speculated")]
    fn double_speculation_panics() {
        let mut s = store();
        s.begin_speculation(BlockId::test(1));
        s.begin_speculation(BlockId::test(1));
    }

    #[test]
    #[should_panic(expected = "active overlay")]
    fn speculative_write_without_overlay_panics() {
        let mut s = store();
        s.apply_speculative([(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "not the oldest")]
    fn promote_wrong_block_panics() {
        let mut s = store();
        s.begin_speculation(BlockId::test(1));
        s.begin_speculation(BlockId::test(2));
        s.promote_oldest(BlockId::test(2));
    }

    #[test]
    #[should_panic(expected = "active speculation")]
    fn committed_write_under_speculation_panics() {
        let mut s = store();
        s.begin_speculation(BlockId::test(1));
        s.apply_committed([(0, 0)]);
    }
}
