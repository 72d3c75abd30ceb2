//! Sparse deterministic key-value store.

use std::collections::HashMap;

use hs1_crypto::{Digest, Sha256};

pub(crate) type Key = u64;
pub(crate) type Value = u64;

/// Derive the "pre-loaded" value of a record that has never been written.
/// splitmix64-style finalizer: deterministic across replicas.
pub(crate) fn initial_value(key: Key) -> Value {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A key-value store over a logical keyspace of `record_count` pre-loaded
/// records. Only written keys are materialized.
#[derive(Clone, Debug, Default)]
pub struct KvStore {
    map: HashMap<Key, Value>,
    record_count: u64,
}

impl KvStore {
    /// A store whose keys `0..record_count` read as pre-loaded records.
    pub fn with_records(record_count: u64) -> KvStore {
        KvStore { map: HashMap::new(), record_count }
    }

    /// Read a key: written value, else the deterministic initial value for
    /// in-range keys, else `None`.
    pub fn get(&self, key: Key) -> Option<Value> {
        if let Some(v) = self.map.get(&key) {
            return Some(*v);
        }
        if key < self.record_count {
            return Some(initial_value(key));
        }
        None
    }

    pub fn put(&mut self, key: Key, value: Value) {
        self.map.insert(key, value);
    }

    /// Iterate the materialized (actually written) entries, in no
    /// particular order. Checkpointing serializes exactly this set plus
    /// `record_count` — everything else is derivable from
    /// `initial_value`.
    pub fn materialized(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// Rebuild a store from its logical record count and materialized
    /// writes (the inverse of [`KvStore::materialized`]; checkpoint
    /// restore).
    pub fn from_parts(
        record_count: u64,
        entries: impl IntoIterator<Item = (Key, Value)>,
    ) -> KvStore {
        KvStore { map: entries.into_iter().collect(), record_count }
    }

    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Bulk-apply a write set (used when promoting a speculative overlay).
    pub(crate) fn apply(&mut self, writes: impl IntoIterator<Item = (Key, Value)>) {
        for (k, v) in writes {
            self.map.insert(k, v);
        }
    }

    /// State root: SHA-256 over the sorted materialized writes plus the
    /// logical record count. Two stores *with the same `record_count`* are
    /// observably identical (every `get` agrees) iff their roots match,
    /// because unwritten in-range keys read deterministically from
    /// `initial_value`. Across different record counts the root is only
    /// a fingerprint: e.g. a 10-record store with `initial_value(10)`
    /// explicitly written at key 10 answers every `get` like a fresh
    /// 11-record store, yet their roots differ.
    ///
    /// Writes that merely restate a key's initial value are excluded, so a
    /// store that was written and rolled back to pre-state hashes the same
    /// as one never touched.
    pub fn state_root(&self) -> Digest {
        let mut entries: Vec<(Key, Value)> = self.materialized().collect();
        entries.sort_unstable();
        state_root(self.record_count, &entries)
    }
}

/// [`KvStore::state_root`] of the store with `record_count` pre-loaded
/// records and the materialized writes `sorted`, which must be in key
/// order: a ledger image holds its writes so and needs no store built to
/// hash them.
pub fn state_root(record_count: u64, sorted: &[(Key, Value)]) -> Digest {
    let mut h = Sha256::new();
    h.update(b"hs1-state-root");
    h.update_u64(record_count);
    for &(k, v) in sorted {
        if k >= record_count || v != initial_value(k) {
            h.update_u64(k);
            h.update_u64(v);
        }
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_preload_semantics() {
        let s = KvStore::with_records(600_000);
        assert_eq!(s.materialized().count(), 0);
        assert_eq!(s.get(0), Some(initial_value(0)));
        assert_eq!(s.get(599_999), Some(initial_value(599_999)));
        assert_eq!(s.get(600_000), None);
    }

    #[test]
    fn writes_shadow_initial_values() {
        let mut s = KvStore::with_records(10);
        assert_ne!(s.get(3), Some(42));
        s.put(3, 42);
        assert_eq!(s.get(3), Some(42));
        assert_eq!(s.materialized().count(), 1);
    }

    #[test]
    fn out_of_range_write_then_read() {
        let mut s = KvStore::with_records(10);
        s.put(1_000_000, 7);
        assert_eq!(s.get(1_000_000), Some(7));
    }

    #[test]
    fn initial_values_are_deterministic_and_spread() {
        assert_eq!(initial_value(5), initial_value(5));
        let distinct: std::collections::HashSet<u64> = (0..1000).map(initial_value).collect();
        assert_eq!(distinct.len(), 1000);
    }

    #[test]
    fn bulk_apply() {
        let mut s = KvStore::with_records(0);
        s.apply(vec![(1, 10), (2, 20)]);
        assert_eq!(s.get(1), Some(10));
        assert_eq!(s.get(2), Some(20));
    }

    #[test]
    fn state_root_tracks_observable_state() {
        let mut a = KvStore::with_records(100);
        let b = KvStore::with_records(100);
        assert_eq!(a.state_root(), b.state_root(), "fresh stores agree");

        a.put(5, 999);
        assert_ne!(a.state_root(), b.state_root(), "write changes the root");

        // Restating the initial value is observably a no-op.
        a.put(5, initial_value(5));
        assert_eq!(a.state_root(), b.state_root(), "restored store agrees");
    }

    #[test]
    fn state_root_independent_of_write_order() {
        let mut a = KvStore::with_records(10);
        let mut b = KvStore::with_records(10);
        a.put(1, 11);
        a.put(2, 22);
        b.put(2, 22);
        b.put(1, 11);
        assert_eq!(a.state_root(), b.state_root());
    }

    #[test]
    fn from_parts_roundtrips_materialized_state() {
        let mut a = KvStore::with_records(50);
        a.put(3, 33);
        a.put(99, 999);
        let b = KvStore::from_parts(a.record_count(), a.materialized());
        assert_eq!(a.state_root(), b.state_root());
        assert_eq!(b.get(3), Some(33));
        assert_eq!(b.get(99), Some(999));
        assert_eq!(b.get(7), a.get(7), "unwritten keys still read initial values");
    }

    #[test]
    fn state_root_binds_record_count() {
        assert_ne!(
            KvStore::with_records(10).state_root(),
            KvStore::with_records(11).state_root(),
            "keyspace size is part of observable state"
        );
    }
}
