//! Identifier newtypes: replicas, clients, views, slots; and the hasher
//! for ids a replica did not take from a client.

use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A replica identifier in `[0, n)` (the paper uses `[1, n]`; zero-based is
/// idiomatic here and only shifts the `id(R) mod n` leader function).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReplicaId(pub u32);

impl std::fmt::Debug for ReplicaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl std::fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A client identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u32);

impl std::fmt::Debug for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// A view number. Views advance monotonically; view 0 is the genesis view.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct View(pub u64);

impl View {
    pub const GENESIS: View = View(0);

    pub fn next(self) -> View {
        View(self.0 + 1)
    }

    pub fn prev(self) -> Option<View> {
        self.0.checked_sub(1).map(View)
    }

    /// `true` if `self` is exactly `other + 1` (the consecutive-view
    /// requirement of the prefix-commit and no-gap rules).
    pub fn is_successor_of(self, other: View) -> bool {
        self.0 == other.0 + 1
    }
}

impl std::fmt::Debug for View {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl std::fmt::Display for View {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A slot number within a view (slotted HotStuff-1, §6). Slots are 1-based
/// as in the paper; non-slotted protocols use slot 1 for every block, and
/// the genesis block occupies slot 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Slot(pub u32);

impl Slot {
    pub const GENESIS: Slot = Slot(0);
    pub const FIRST: Slot = Slot(1);

    pub fn next(self) -> Slot {
        Slot(self.0 + 1)
    }

    pub fn is_successor_of(self, other: Slot) -> bool {
        self.0 == other.0 + 1
    }
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Lexicographic (view, slot) rank used to order blocks and certificates
/// (HotStuff-1 §6.1: "Blocks are ordered lexicographically").
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Rank {
    pub view: View,
    pub slot: Slot,
}

impl Rank {
    pub const GENESIS: Rank = Rank { view: View::GENESIS, slot: Slot::GENESIS };

    pub fn new(view: View, slot: Slot) -> Rank {
        Rank { view, slot }
    }
}

/// Hashing for maps keyed by ids a replica did not take from a client:
/// [`crate::BlockId`]s, which are SHA-256 outputs and hash as their first
/// eight bytes, and tokens a replica mints itself. Each word is folded in
/// with a per-process random seed and the splitmix64 finalizer, where the
/// std default runs SipHash over all 32 bytes of an id. A map keyed by an id a
/// client chose (a transaction id, a key) keeps SipHash.
#[derive(Clone, Copy)]
pub struct IdHash(u64);

impl Default for IdHash {
    fn default() -> IdHash {
        static SEED: OnceLock<u64> = OnceLock::new();
        IdHash(*SEED.get_or_init(|| std::collections::hash_map::RandomState::new().hash_one(0)))
    }
}

impl BuildHasher for IdHash {
    type Hasher = IdHash;

    fn build_hasher(&self) -> IdHash {
        *self
    }
}

impl Hasher for IdHash {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        // One splitmix64 output: every input bit moves every output bit.
        self.0 = crate::SplitMix64::new(self.0 ^ x).next_u64();
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_successor() {
        assert!(View(5).is_successor_of(View(4)));
        assert!(!View(5).is_successor_of(View(3)));
        assert!(!View(5).is_successor_of(View(5)));
        assert_eq!(View(4).next(), View(5));
        assert_eq!(View(4).prev(), Some(View(3)));
        assert_eq!(View(0).prev(), None);
    }

    #[test]
    fn slot_successor() {
        assert!(Slot(2).is_successor_of(Slot(1)));
        assert!(!Slot(2).is_successor_of(Slot(2)));
        assert_eq!(Slot::FIRST.next(), Slot(2));
    }

    #[test]
    fn rank_lexicographic() {
        // Same view: slot order decides. Different view: view decides.
        assert!(Rank::new(View(1), Slot(4)) < Rank::new(View(2), Slot(1)));
        assert!(Rank::new(View(2), Slot(1)) < Rank::new(View(2), Slot(2)));
        assert!(Rank::GENESIS < Rank::new(View(0), Slot(1)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", ReplicaId(3)), "R3");
        assert_eq!(format!("{}", View(7)), "v7");
        assert_eq!(format!("{:?}", Slot(2)), "s2");
        assert_eq!(format!("{:?}", ClientId(9)), "C9");
    }
}
