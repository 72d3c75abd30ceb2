//! The committed chain as a replica keeps it: how many blocks are
//! committed, a running hash over every committed id in commit order, and
//! the most recent ids.
//!
//! The running hash is `acc₀ = H(genesis)` and `accₕ = H(accₕ₋₁ ‖ idₕ)`,
//! so two logs hold the same ids at every height up to `h` exactly when
//! their hashes at `h` are equal. Block ids already chain through
//! `parent`; hashing the commit order itself also catches an order that is
//! not a parent chain. A replica keeps ids only back to its prune
//! horizon, so its memory, its checkpoints and its snapshot images are
//! O(window), not O(history); a harness that never trims a log keeps every
//! height. In memory the log stores the running hash only every
//! [`CommittedLog::PRUNE_EVERY`] heights and folds it again in between;
//! its encoding carries each id with the hash after it.

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
    /// The running hash at the head.
    head_hash: Digest,
    /// The newest ids, oldest first.
    ids: VecDeque<BlockId>,
    /// The running hash at every height in the window that is a multiple
    /// of [`CommittedLog::PRUNE_EVERY`], oldest first: the hash at any
    /// other height folds at most `PRUNE_EVERY - 1` ids onto one of these
    /// or onto `base`.
    marks: VecDeque<Digest>,
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

    /// The log of a replica that has committed nothing but genesis, its
    /// window allocated once at [`CommittedLog::WINDOW`] ids (a deque
    /// that grew to it by doubling would hold twice that).
    pub fn new() -> CommittedLog {
        let mut ids = VecDeque::with_capacity(Self::WINDOW);
        ids.push_back(Block::genesis_id());
        let mut marks = VecDeque::with_capacity(Self::WINDOW / Self::PRUNE_EVERY as usize + 2);
        marks.push_back(genesis_hash());
        CommittedLog { len: 1, base: Digest::ZERO, head_hash: genesis_hash(), ids, marks }
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
        *self.ids.back().expect("a log is never empty")
    }

    /// The running hash at the head.
    pub fn hash(&self) -> Digest {
        self.head_hash
    }

    /// Height of the oldest id still held.
    pub fn start(&self) -> usize {
        self.len - self.ids.len()
    }

    /// The lowest height in the window that holds a mark.
    fn first_mark(&self) -> usize {
        self.start().next_multiple_of(Self::PRUNE_EVERY as usize)
    }

    /// The running hash at height `h`, if this log still knows it: at
    /// genesis, at the height just below the window, or inside it, where
    /// it is folded from the nearest mark or the base below `h`.
    fn hash_at(&self, h: usize) -> Option<Digest> {
        let start = self.start();
        if h == 0 {
            return Some(genesis_hash());
        } else if h + 1 == start {
            return Some(self.base);
        } else if h < start || h >= self.len {
            return None;
        } else if h + 1 == self.len {
            return Some(self.head_hash);
        }
        let every = Self::PRUNE_EVERY as usize;
        let mark = h - h % every;
        let (mut acc, from) = if mark >= start {
            (self.marks[(mark - self.first_mark()) / every], mark + 1)
        } else {
            (self.base, start)
        };
        for id in self.ids.range(from - start..=h - start) {
            acc = fold(&acc, *id);
        }
        Some(acc)
    }

    /// The ids still held, oldest first.
    pub fn ids(&self) -> impl DoubleEndedIterator<Item = BlockId> + ExactSizeIterator + '_ {
        self.ids.iter().copied()
    }

    /// The held ids at heights `from` and up (none below the window).
    pub fn ids_from(&self, from: usize) -> impl Iterator<Item = BlockId> + '_ {
        self.ids().skip(from.saturating_sub(self.start()))
    }

    /// Commit `id` at the next height.
    pub fn push(&mut self, id: BlockId) {
        self.head_hash = fold(&self.head_hash, id);
        self.ids.push_back(id);
        if self.len.is_multiple_of(Self::PRUNE_EVERY as usize) {
            self.marks.push_back(self.head_hash);
        }
        self.len += 1;
    }

    /// Keep only the newest `keep` ids (at least the head) and return how
    /// many left the window.
    pub fn trim(&mut self, keep: usize) -> usize {
        let cut = self.ids.len().saturating_sub(keep.max(1));
        if cut > 0 {
            let start = self.start() + cut;
            self.base = self.hash_at(start - 1).expect("inside the window");
            let marks_gone = (start.next_multiple_of(Self::PRUNE_EVERY as usize)
                - self.first_mark())
                / Self::PRUNE_EVERY as usize;
            self.marks.drain(..marks_gone);
            self.ids.drain(..cut);
        }
        cut
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
        if len >= self.len {
            return;
        }
        self.head_hash = self.hash_at(len - 1).expect("inside the window");
        let first_mark = self.first_mark();
        let marks = (len.max(first_mark) - first_mark).div_ceil(Self::PRUNE_EVERY as usize);
        self.marks.truncate(marks);
        self.ids.truncate(len - self.start());
        self.len = len;
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

/// `[u64 len][Digest base][Vec<(BlockId, Digest)> window]`, each id with
/// the running hash after it, folded again from the base as it is written.
impl Encode for CommittedLog {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len as u64).encode(out);
        self.base.encode(out);
        (self.ids.len() as u64).encode(out);
        let mut acc = self.base;
        for (h, &id) in (self.start()..).zip(&self.ids) {
            acc = if h == 0 { genesis_hash() } else { fold(&acc, id) };
            (id, acc).encode(out);
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
        let mut log = CommittedLog {
            len: len - window.len(),
            base,
            head_hash: base,
            ids: VecDeque::with_capacity(window.len()),
            marks: VecDeque::new(),
        };
        for (id, hash) in window {
            let chains = if log.len == 0 {
                id == Block::genesis_id() && base == Digest::ZERO && hash == genesis_hash()
            } else {
                hash == fold(&log.head_hash, id)
            };
            if !chains {
                return Err(CodecError::Inconsistent { context: "CommittedLog.hashes" });
            }
            if log.len.is_multiple_of(Self::PRUNE_EVERY as usize) {
                log.marks.push_back(hash);
            }
            log.ids.push_back(id);
            log.head_hash = hash;
            log.len += 1;
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(n: u64) -> CommittedLog {
        CommittedLog::from_ids((1..n).map(BlockId::test))
    }

    /// `log(n)` trimmed to its newest `keep` ids.
    fn trimmed(n: u64, keep: usize) -> CommittedLog {
        let mut l = log(n);
        l.trim(keep);
        l
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
        assert_eq!(l.trim(3), 7, "genesis and 1..7 left the window");
        assert_eq!((l.len(), l.start(), l.hash()), (10, 7, full.hash()));
        assert_eq!(l.ids().collect::<Vec<_>>(), [7, 8, 9].map(BlockId::test));
        assert_eq!(l.hash_at(6), full.hash_at(6), "the base");
        assert_eq!(l.hash_at(5), None);
        assert_eq!(l.hash_at(0), full.hash_at(0), "genesis is every log's");
        l.push(BlockId::test(10));
        assert_eq!(l.hash(), log(11).hash());
        assert_eq!(l.trim(0), 3, "the head stays");
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

    /// A log's bytes, written field by field: `len`, `base`, then the
    /// window's entries.
    fn raw(len: u64, base: Digest, entries: &[(BlockId, Digest)]) -> Vec<u8> {
        let mut out = Vec::new();
        len.encode(&mut out);
        base.encode(&mut out);
        (entries.len() as u64).encode(&mut out);
        for entry in entries {
            entry.encode(&mut out);
        }
        out
    }

    /// The entries of heights `from..to` of `log(to)`, each with the
    /// running hash after it, and the hash just below them.
    fn entries(from: u64, to: u64) -> (Digest, Vec<(BlockId, Digest)>) {
        let mut acc = sha256(&Block::genesis_id().0 .0);
        let mut base = Digest::ZERO;
        let mut out = Vec::new();
        for h in 0..to {
            let id = if h == 0 { Block::genesis_id() } else { BlockId::test(h) };
            if h > 0 {
                acc = sha256(&[acc.0, id.0 .0].concat());
            }
            if h + 1 == from {
                base = acc;
            } else if h >= from {
                out.push((id, acc));
            }
        }
        (base, out)
    }

    /// A trimmed log writes the same bytes as a log that stored every
    /// entry's hash: the hashes it no longer stores are folded again from
    /// its base as it is written.
    #[test]
    fn a_trimmed_log_encodes_every_entrys_hash() {
        let mut l = log(3_000);
        l.trim(CommittedLog::KEEP);
        let (base, window) = entries(3_000 - CommittedLog::KEEP as u64, 3_000);
        let want = raw(3_000, base, &window);
        assert_eq!(l.encoded(), want);
        assert_eq!(CommittedLog::decode_exact(&want), Ok(l));
        let (zero, all) = entries(0, 70);
        assert_eq!(log(70).encoded(), raw(70, zero, &all), "a window from genesis");
    }

    /// `hash_at` folds from the nearest mark or the base, and `diverge`
    /// reads it: both agree with a log that stored every height's hash,
    /// at every height, whatever the trim left as the window's start.
    #[test]
    fn hashes_and_divergence_agree_with_every_heights_hash() {
        let full = log(1_000);
        let reference: Vec<Digest> = entries(0, 1_000).1.into_iter().map(|e| e.1).collect();
        for keep in [1, 2, 63, 64, 65, 127, 128, 500, 937, 999, 1_000] {
            let mut l = full.clone();
            l.trim(keep);
            let start = 1_000 - keep;
            for (h, want) in reference.iter().enumerate() {
                let known = h == 0 || h + 1 >= start;
                assert_eq!(l.hash_at(h), known.then_some(*want), "keep {keep}, height {h}");
            }
            // A fork at each height still in the window, and a prefix.
            for fork in start.max(1)..1_000 {
                let mut prefix = full.clone();
                prefix.truncate(fork + 1);
                assert_eq!(l.diverge(&prefix), Ok(None), "keep {keep}, prefix to {fork}");
                prefix.truncate(fork);
                prefix.push(BlockId::test(5_000));
                assert_eq!(l.diverge(&prefix), Ok(Some(fork)), "keep {keep}, fork {fork}");
                assert_eq!(prefix.diverge(&l), Ok(Some(fork)), "keep {keep}, fork {fork}");
            }
            if start > 2 {
                assert_eq!(l.diverge(&log(start as u64 - 1)), Err(start - 2), "below the window");
            }
        }
    }

    #[test]
    fn hostile_logs_are_rejected() {
        let decode = |bytes: Vec<u8>| CommittedLog::decode_exact(&bytes);
        let inconsistent = |context| Err(CodecError::Inconsistent { context });
        let (base, window) = entries(15, 20);
        assert_eq!(decode(raw(20, base, &window)), Ok(trimmed(20, 5)), "well formed");
        // Empty, or a window longer than the log.
        assert_eq!(decode(raw(0, base, &window)), inconsistent("CommittedLog.len"));
        let too_long = inconsistent("CommittedLog.window");
        assert_eq!(decode(raw(20, base, &[])), too_long);
        assert_eq!(decode(raw(4, base, &window)), too_long);
        // Hashes that do not chain: from the base, between entries, or
        // from genesis.
        let hashes = inconsistent("CommittedLog.hashes");
        assert_eq!(decode(raw(20, Digest([7; 32]), &window)), hashes);
        let mut swapped = window.clone();
        swapped[2].0 = BlockId::test(99);
        assert_eq!(decode(raw(20, base, &swapped)), hashes);
        let (zero, from_genesis) = entries(0, 3);
        let mut forged = from_genesis.clone();
        forged[0].0 = BlockId::test(0);
        assert_eq!(decode(raw(3, zero, &forged)), hashes);
        assert_eq!(decode(raw(3, Digest([1; 32]), &from_genesis)), hashes);
    }
}
