//! A set of transaction ids kept as runs of consecutive sequence numbers.
//!
//! Every dedup filter in this crate — the mempool's admission, proposal
//! and committed filters and the client's decided set — remembers ids for
//! as long as the process lives. A client numbers its requests consecutively
//! (a resubmission is `attempt << 40 | seq`, consecutive again within the
//! attempt), so per client the set is a few runs however many ids it
//! holds; an id that never gains a neighbour costs one B-tree entry.

use std::collections::{BTreeMap, HashMap};

use hs1_types::{ClientId, TxId};

/// Per client, disjoint and non-adjacent inclusive runs `first → last`.
#[derive(Default)]
pub(crate) struct TxRunSet {
    clients: HashMap<ClientId, BTreeMap<u64, u64>>,
}

impl TxRunSet {
    pub(crate) fn contains(&self, id: TxId) -> bool {
        self.clients.get(&id.client).is_some_and(|runs| run_of(runs, id.seq).is_some())
    }

    /// Add `id`; `false` if it was already present.
    pub(crate) fn insert(&mut self, id: TxId) -> bool {
        let runs = self.clients.entry(id.client).or_default();
        let seq = id.seq;
        let mut first = seq;
        if let Some((&f, &l)) = runs.range(..=seq).next_back() {
            if seq <= l {
                return false;
            }
            if l + 1 == seq {
                first = f;
            }
        }
        let last = seq.checked_add(1).and_then(|next| runs.remove(&next)).unwrap_or(seq);
        runs.insert(first, last);
        true
    }

    /// Take `id` out, splitting the run it sits in; `false` if absent.
    pub(crate) fn remove(&mut self, id: TxId) -> bool {
        let Some(runs) = self.clients.get_mut(&id.client) else { return false };
        let seq = id.seq;
        let Some((first, last)) = run_of(runs, seq) else { return false };
        if first == seq {
            runs.remove(&first);
        } else {
            runs.insert(first, seq - 1);
        }
        if seq < last {
            runs.insert(seq + 1, last);
        }
        true
    }

    /// Every run as `(client, first, last)`, ordered.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> Vec<(ClientId, u64, u64)> {
        let mut all: Vec<_> = self
            .clients
            .iter()
            .flat_map(|(&c, runs)| runs.iter().map(move |(&f, &l)| (c, f, l)))
            .collect();
        all.sort();
        all
    }
}

/// The run containing `seq`, if any.
fn run_of(runs: &BTreeMap<u64, u64>, seq: u64) -> Option<(u64, u64)> {
    runs.range(..=seq).next_back().filter(|(_, &last)| seq <= last).map(|(&f, &l)| (f, l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs1_types::SplitMix64;
    use std::collections::HashSet;

    fn id(client: u32, seq: u64) -> TxId {
        TxId::new(ClientId(client), seq)
    }

    #[test]
    fn runs_merge_from_any_start() {
        let mut s = TxRunSet::default();
        for seq in [7, 9, 8, u64::MAX, 1 << 40] {
            assert!(!s.contains(id(1, seq)));
            assert!(s.insert(id(1, seq)));
            assert!(s.contains(id(1, seq)));
        }
        let c = ClientId(1);
        assert_eq!(s.runs(), [(c, 7, 9), (c, 1 << 40, 1 << 40), (c, u64::MAX, u64::MAX)]);
    }

    #[test]
    fn remove_splits_and_insert_heals() {
        let mut s = TxRunSet::default();
        for seq in 0..10 {
            s.insert(id(3, seq));
        }
        assert!(s.remove(id(3, 4)));
        assert!(!s.remove(id(3, 4)), "already gone");
        assert!(!s.remove(id(4, 4)), "another client's id");
        let c = ClientId(3);
        assert_eq!(s.runs(), [(c, 0, 3), (c, 5, 9)]);
        assert!(s.remove(id(3, 0)) && s.remove(id(3, 9)));
        assert_eq!(s.runs(), [(c, 1, 3), (c, 5, 8)]);
        for seq in [0, 4, 9] {
            assert!(s.insert(id(3, seq)));
        }
        assert_eq!(s.runs(), [(c, 0, 9)]);
    }

    /// Hold the run set against the hash set it replaced on one stream of
    /// operations: every answer must be the same.
    fn differential(ids: impl Iterator<Item = TxId>, rng: &mut SplitMix64) -> TxRunSet {
        let mut runs = TxRunSet::default();
        let mut hash: HashSet<TxId> = HashSet::new();
        let mut recent: Vec<TxId> = Vec::new();
        for tx in ids {
            assert_eq!(runs.contains(tx), hash.contains(&tx), "contains {tx:?}");
            assert_eq!(runs.insert(tx), hash.insert(tx), "insert {tx:?}");
            recent.push(tx);
            // Now and then: take a recent id out and put it back (the
            // mempool's put-back-then-absorb), probe a neighbour, and
            // re-insert a duplicate.
            if rng.chance(0.2) {
                let pick = recent[rng.next_range(recent.len() as u64) as usize];
                assert_eq!(runs.remove(pick), hash.remove(&pick), "remove {pick:?}");
                assert_eq!(runs.remove(pick), hash.remove(&pick), "second remove {pick:?}");
                let near = TxId::new(pick.client, pick.seq.wrapping_add(1));
                assert_eq!(runs.contains(near), hash.contains(&near), "contains {near:?}");
                assert_eq!(runs.insert(pick), hash.insert(pick), "re-insert {pick:?}");
                assert_eq!(runs.insert(pick), hash.insert(pick), "duplicate {pick:?}");
            }
            if recent.len() > 64 {
                recent.remove(0);
            }
        }
        for tx in &hash {
            assert!(runs.contains(*tx));
        }
        assert_eq!(
            runs.runs().iter().map(|&(_, f, l)| (l - f) as u128 + 1).sum::<u128>(),
            hash.len() as u128,
            "the runs hold exactly the ids the hash set holds"
        );
        runs
    }

    #[test]
    fn sequential_stream_matches_hash_set_and_ends_as_one_run() {
        let mut rng = SplitMix64::new(1);
        let s = differential((0..20_000).map(|seq| id(1, seq)), &mut rng);
        assert_eq!(s.runs(), [(ClientId(1), 0, 19_999)]);
    }

    #[test]
    fn shuffled_window_matches_hash_set() {
        // Four clients, each sequential but delivered out of order within
        // a sliding window of 32 — what a replica sees of a live stream.
        let mut rng = SplitMix64::new(2);
        let mut order: Vec<TxId> =
            (0..5_000u64).flat_map(|seq| (0..4).map(move |c| id(c, seq))).collect();
        for i in 0..order.len() {
            let j = i + rng.next_range(32.min(order.len() - i) as u64) as usize;
            order.swap(i, j);
        }
        let s = differential(order.into_iter(), &mut rng);
        assert_eq!(s.runs().len(), 4, "one run per client once the gaps close");
    }

    #[test]
    fn resubmissions_and_edges_match_hash_set() {
        // `attempt << 40 | seq` resubmissions of every eighth request, and
        // ids at both ends of the sequence space.
        let mut rng = SplitMix64::new(3);
        let mut ids = Vec::new();
        for seq in 0..4_000u64 {
            ids.push(id(9, seq));
            if seq % 8 == 0 {
                ids.push(id(9, 1 << 40 | seq));
                ids.push(id(9, 2 << 40 | seq));
            }
        }
        for seq in [u64::MAX, u64::MAX - 1, 0, u64::MAX - 2, 1, u64::MAX] {
            ids.push(id(9, seq));
            ids.push(id(u32::MAX, seq));
        }
        differential(ids.into_iter(), &mut rng);
    }
}
