//! The committed chain as a replica keeps it: how many blocks are
//! committed, a running hash over every committed id in commit order, and
//! the most recent ids.
//!
//! The running hash is `acc₀ = H(genesis)` and `accₕ = H(accₕ₋₁ ‖ idₕ)`,
//! so two logs hold the same ids at every height up to `h` exactly when
//! their hashes at `h` are equal. Block ids already chain through
//! `parent`; hashing the commit order itself also catches an order that is
//! not a parent chain. A replica keeps ids (each with the hash after it)
//! only back to its prune horizon, so its memory, its checkpoints and its
//! snapshot images are O(window), not O(history); a harness that never
//! trims a log keeps every height.

use std::collections::VecDeque;

use crate::block::{Block, BlockId};
use crate::codec::{CodecError, Decode, Encode, Reader};
use hs1_crypto::{sha256, Digest, Sha256};

/// A committed chain: its length, its running hash, and a window of its
/// newest ids. Never empty: genesis is committed from the start.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CommittedLog {
    /// Committed blocks, genesis included.
    len: usize,
    /// The running hash at the height just below the window;
    /// `Digest::ZERO` while the window starts at genesis.
    base: Digest,
    /// The newest ids, oldest first, each with the running hash after it.
    window: VecDeque<(BlockId, Digest)>,
}

impl Default for CommittedLog {
    fn default() -> Self {
        CommittedLog::new()
    }
}

/// `acc₀`: the running hash of every log at height 0.
fn genesis_hash() -> Digest {
    sha256(&Block::genesis_id().0 .0)
}

/// `accₕ` from `accₕ₋₁` and `idₕ`.
fn fold(acc: &Digest, id: BlockId) -> Digest {
    let mut h = Sha256::new();
    h.update(&acc.0).update(&id.0 .0);
    h.finalize()
}

// `len()` without `is_empty()`: a log always holds genesis.
#[allow(clippy::len_without_is_empty)]
impl CommittedLog {
    /// Committed ids a replica keeps behind its head when it prunes (the
    /// slotted protocol, which can commit several blocks a view, keeps
    /// twice as many), and the ids a checkpoint or snapshot image holds.
    pub const KEEP: usize = 2048;

    /// Views between two prunes.
    pub const PRUNE_EVERY: u64 = 64;

    /// The most ids a replica that commits at most one block a view holds:
    /// [`CommittedLog::KEEP`] plus what the views between two prunes
    /// commit.
    pub const WINDOW: usize = Self::KEEP + Self::PRUNE_EVERY as usize;

    /// The log of a replica that has committed nothing but genesis.
    pub fn new() -> CommittedLog {
        let window = VecDeque::from([(Block::genesis_id(), genesis_hash())]);
        CommittedLog { len: 1, base: Digest::ZERO, window }
    }

    /// Genesis, then `ids` in order, every height kept.
    pub fn from_ids(ids: impl IntoIterator<Item = BlockId>) -> CommittedLog {
        let mut log = CommittedLog::new();
        for id in ids {
            log.push(id);
        }
        log
    }

    /// Committed blocks, genesis included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The newest committed id.
    pub fn head(&self) -> BlockId {
        self.window.back().expect("a log is never empty").0
    }

    /// The running hash at the head.
    pub fn hash(&self) -> Digest {
        self.window.back().expect("a log is never empty").1
    }

    /// Height of the oldest id still held.
    pub fn start(&self) -> usize {
        self.len - self.window.len()
    }

    /// The running hash at height `h`, if this log still knows it: at
    /// genesis, at the height just below the window, or inside it.
    fn hash_at(&self, h: usize) -> Option<Digest> {
        let start = self.start();
        if h == 0 {
            Some(genesis_hash())
        } else if h + 1 == start {
            Some(self.base)
        } else if h >= start && h < self.len {
            Some(self.window[h - start].1)
        } else {
            None
        }
    }

    /// The ids still held, oldest first.
    pub fn ids(&self) -> impl DoubleEndedIterator<Item = BlockId> + ExactSizeIterator + '_ {
        self.window.iter().map(|(id, _)| *id)
    }

    /// The held ids at heights `from` and up (none below the window).
    pub fn ids_from(&self, from: usize) -> impl Iterator<Item = BlockId> + '_ {
        self.ids().skip(from.saturating_sub(self.start()))
    }

    /// Commit `id` at the next height.
    pub fn push(&mut self, id: BlockId) {
        let acc = fold(&self.hash(), id);
        self.window.push_back((id, acc));
        self.len += 1;
    }

    /// Keep only the newest `keep` ids (at least the head) and return the
    /// ids that left the window, oldest first.
    pub fn trim(&mut self, keep: usize) -> Vec<BlockId> {
        let cut = self.window.len().saturating_sub(keep.max(1));
        if cut > 0 {
            self.base = self.window[cut - 1].1;
        }
        self.window.drain(..cut).map(|(id, _)| id).collect()
    }

    /// Forget every height from `len` up. A harness rewinds its record of
    /// a replica this way when the replica restarted from a shorter disk
    /// history; the new head must still be inside the window.
    pub fn truncate(&mut self, len: usize) {
        assert!(
            len > self.start(),
            "truncating to {len} leaves no id (window from {})",
            self.start()
        );
        self.window.truncate(len - self.start());
        self.len = self.len.min(len);
    }

    /// Where two logs part. `Ok(None)`: they agree at the lower of their
    /// two heights, and so at every height below it. `Ok(Some(h))`: `h`
    /// is the lowest height at which both still know a hash and the
    /// hashes differ (for logs that hold every height, the first height
    /// whose ids differ). `Err(h)`: one of them no longer knows its hash
    /// at the lower height `h`.
    pub fn diverge(&self, other: &CommittedLog) -> Result<Option<usize>, usize> {
        let top = self.len.min(other.len) - 1;
        let differ = |h: usize| self.hash_at(h) != other.hash_at(h);
        match (self.hash_at(top), other.hash_at(top)) {
            (Some(a), Some(b)) if a == b => return Ok(None),
            (Some(_), Some(_)) => {}
            _ => return Err(top),
        }
        // Hashes agree up to some height and differ from there on: find
        // the first difference above the lowest height both still hash.
        let (mut lo, mut hi) = (self.start().max(other.start()).saturating_sub(1), top);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if differ(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Ok(Some(lo))
    }
}

/// `[u64 len][Digest base][Vec<(BlockId, Digest)> window]`.
impl Encode for CommittedLog {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len as u64).encode(out);
        self.base.encode(out);
        (self.window.len() as u64).encode(out);
        for entry in &self.window {
            entry.encode(out);
        }
    }
}

/// Rejects a log that is empty, whose window is empty or longer than the
/// log, or whose per-entry hashes do not chain from its base (from
/// genesis, for a window that starts there).
impl Decode for CommittedLog {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u64::decode(r)?;
        let base = Digest::decode(r)?;
        let window = Vec::<(BlockId, Digest)>::decode(r)?;
        let len = match usize::try_from(len) {
            Ok(0) | Err(_) => return Err(CodecError::Inconsistent { context: "CommittedLog.len" }),
            Ok(len) => len,
        };
        if window.is_empty() || window.len() > len {
            return Err(CodecError::Inconsistent { context: "CommittedLog.window" });
        }
        let mut acc = base;
        for (h, &(id, hash)) in (len - window.len()..).zip(&window) {
            let chains = if h == 0 {
                id == Block::genesis_id() && base == Digest::ZERO && hash == genesis_hash()
            } else {
                hash == fold(&acc, id)
            };
            if !chains {
                return Err(CodecError::Inconsistent { context: "CommittedLog.hashes" });
            }
            acc = hash;
        }
        Ok(CommittedLog { len, base, window: window.into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(n: u64) -> CommittedLog {
        CommittedLog::from_ids((1..n).map(BlockId::test))
    }

    #[test]
    fn a_new_log_holds_genesis() {
        let l = CommittedLog::new();
        assert_eq!((l.len(), l.start(), l.head()), (1, 0, Block::genesis_id()));
        assert_eq!(l.hash(), sha256(&Block::genesis_id().0 .0));
        assert_eq!(l.hash_at(0), Some(l.hash()));
        assert_eq!(l.hash_at(1), None);
    }

    #[test]
    fn the_hash_folds_every_id_in_order() {
        let l = log(4);
        let mut acc = sha256(&Block::genesis_id().0 .0);
        for t in 1..4 {
            let mut bytes = acc.0.to_vec();
            bytes.extend_from_slice(&BlockId::test(t).0 .0);
            acc = sha256(&bytes);
            assert_eq!(l.hash_at(t as usize), Some(acc));
        }
        assert_eq!(l.hash(), acc);
        assert_ne!(log(4).hash(), CommittedLog::from_ids([3, 2, 1].map(BlockId::test)).hash());
    }

    #[test]
    fn trimming_keeps_the_hash_and_forgets_the_ids() {
        let mut l = log(10);
        let full = l.clone();
        let gone = l.trim(3);
        assert_eq!(gone[0], Block::genesis_id());
        assert_eq!(gone[1..], (1..7).map(BlockId::test).collect::<Vec<_>>()[..]);
        assert_eq!((l.len(), l.start(), l.hash()), (10, 7, full.hash()));
        assert_eq!(l.ids().collect::<Vec<_>>(), [7, 8, 9].map(BlockId::test));
        assert_eq!(l.hash_at(6), full.hash_at(6), "the base");
        assert_eq!(l.hash_at(5), None);
        assert_eq!(l.hash_at(0), full.hash_at(0), "genesis is every log's");
        l.push(BlockId::test(10));
        assert_eq!(l.hash(), log(11).hash());
        assert_eq!(l.trim(0).len(), 3, "the head stays");
        assert_eq!(l.head(), BlockId::test(10));
    }

    #[test]
    fn logs_part_at_their_first_differing_height() {
        let a = log(10);
        let mut b = log(4);
        for t in [90, 91, 92, 93, 94, 95, 96, 97] {
            b.push(BlockId::test(t));
        }
        assert_eq!(a.diverge(&b), Ok(Some(4)));
        assert_eq!(b.diverge(&a), Ok(Some(4)));
        assert_eq!(a.diverge(&log(6)), Ok(None), "a prefix agrees");
        assert_eq!(log(6).diverge(&a), Ok(None));
        // Trimmed logs name the lowest height both still hash.
        let mut ta = a.clone();
        ta.trim(2);
        assert_eq!(ta.diverge(&b), Ok(Some(7)));
        assert_eq!(ta.diverge(&log(12)), Ok(None));
        assert_eq!(ta.diverge(&log(5)), Err(4), "below the window");
    }

    #[test]
    fn truncate_rewinds_to_an_earlier_head() {
        let mut l = log(10);
        l.truncate(6);
        assert_eq!(l, log(6));
        l.truncate(8);
        assert_eq!(l, log(6), "not past the head");
    }

    #[test]
    fn codec_roundtrips_full_and_trimmed_logs() {
        let mut l = log(50);
        assert_eq!(CommittedLog::decode_exact(&l.encoded()), Ok(l.clone()));
        l.trim(7);
        let bytes = l.encoded();
        assert_eq!(bytes.len(), 8 + 32 + 8 + 7 * 64);
        assert_eq!(CommittedLog::decode_exact(&bytes), Ok(l));
    }

    #[test]
    fn hostile_logs_are_rejected() {
        let inconsistent = |context| Err(CodecError::Inconsistent { context });
        let mut trimmed = log(20);
        trimmed.trim(5);
        // Empty, or a window longer than the log.
        let mut empty = trimmed.clone();
        empty.len = 0;
        assert_eq!(CommittedLog::decode_exact(&empty.encoded()), inconsistent("CommittedLog.len"));
        let mut no_window = trimmed.clone();
        no_window.window.clear();
        let window = inconsistent("CommittedLog.window");
        assert_eq!(CommittedLog::decode_exact(&no_window.encoded()), window);
        let mut short = trimmed.clone();
        short.len = 4;
        assert_eq!(CommittedLog::decode_exact(&short.encoded()), window);
        // Hashes that do not chain: from the base, between entries, or
        // from genesis.
        let hashes = inconsistent("CommittedLog.hashes");
        let mut rebased = trimmed.clone();
        rebased.base = Digest([7; 32]);
        assert_eq!(CommittedLog::decode_exact(&rebased.encoded()), hashes);
        let mut swapped = trimmed.clone();
        swapped.window[2].0 = BlockId::test(99);
        assert_eq!(CommittedLog::decode_exact(&swapped.encoded()), hashes);
        let mut forged = log(3);
        forged.window[0].0 = BlockId::test(0);
        assert_eq!(CommittedLog::decode_exact(&forged.encoded()), hashes);
        let mut based = log(3);
        based.base = Digest([1; 32]);
        assert_eq!(CommittedLog::decode_exact(&based.encoded()), hashes);
    }
}
