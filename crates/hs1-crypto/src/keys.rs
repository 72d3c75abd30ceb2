//! Keyed signature scheme with a shared registry.
//!
//! Mirrors the API of a conventional signature scheme (keygen / sign /
//! verify). A [`Signature`] is an HMAC-SHA-256 tag under the signer's
//! secret key; the [`PublicKeyRegistry`] holds every participant's key so
//! any party can verify (see the crate-level security note: this is a
//! documented substitution for ECDSA in an offline environment).
//!
//! Domain separation: every signature binds a `domain` byte so that votes
//! in different protocol contexts (propose-vote, new-slot, new-view, wish)
//! can never be replayed across contexts — the slotted protocol's dual
//! certificates (HotStuff-1 §6.1) depend on this.

use crate::hmac::HmacSha256;

/// A signature: 32-byte MAC tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub [u8; 32]);

impl Signature {
    pub const ZERO: Signature = Signature([0u8; 32]);
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sig({:02x}{:02x}{:02x}{:02x}..)", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// A signing identity: index into the registry plus the MAC keyed with
/// its secret key.
#[derive(Clone, Debug)]
pub struct KeyPair {
    pub index: u32,
    /// The MAC already keyed with the secret, cloned per signature.
    mac: HmacSha256,
}

impl KeyPair {
    /// Deterministically derive the keypair for participant `index` of a
    /// deployment identified by `deployment_seed`. All replicas of a test
    /// deployment derive the same registry this way.
    pub fn derive(deployment_seed: u64, index: u32) -> KeyPair {
        let mut h = HmacSha256::new(b"hs1/keygen");
        h.update(&deployment_seed.to_be_bytes());
        h.update(&index.to_be_bytes());
        let mac = HmacSha256::new(&h.finalize().0);
        KeyPair { index, mac }
    }

    /// Sign `msg` under `domain`.
    pub fn sign(&self, domain: u8, msg: &[u8]) -> Signature {
        sign_with(&self.mac, domain, msg)
    }
}

fn sign_with(keyed: &HmacSha256, domain: u8, msg: &[u8]) -> Signature {
    let mut h = keyed.clone();
    h.update(&[domain]);
    h.update(msg);
    Signature(h.finalize().0)
}

/// Registry of all participants' keys; verifiers consult it to check tags.
#[derive(Clone, Debug)]
pub struct PublicKeyRegistry {
    /// One keyed MAC per participant.
    keys: Vec<HmacSha256>,
}

impl PublicKeyRegistry {
    /// Build the registry for `count` participants of a deployment.
    pub fn derive(deployment_seed: u64, count: u32) -> PublicKeyRegistry {
        let keys = (0..count).map(|i| KeyPair::derive(deployment_seed, i).mac).collect();
        PublicKeyRegistry { keys }
    }

    /// Verify that `sig` is participant `index`'s signature on `msg` in
    /// `domain`. The tags are compared in constant time: all 32 bytes are
    /// folded before the one comparison, so how long a forged tag takes to
    /// reject says nothing about how many of its leading bytes are right.
    pub fn verify(&self, index: u32, domain: u8, msg: &[u8], sig: &Signature) -> bool {
        match self.keys.get(index as usize) {
            Some(keyed) => {
                let expected = sign_with(keyed, domain, msg);
                expected.0.iter().zip(&sig.0).fold(0u8, |diff, (a, b)| diff | (a ^ b)) == 0
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let reg = PublicKeyRegistry::derive(42, 4);
        let kp = KeyPair::derive(42, 2);
        let sig = kp.sign(1, b"hello");
        assert!(reg.verify(2, 1, b"hello", &sig));
    }

    #[test]
    fn wrong_signer_rejected() {
        let reg = PublicKeyRegistry::derive(42, 4);
        let kp = KeyPair::derive(42, 2);
        let sig = kp.sign(1, b"hello");
        assert!(!reg.verify(3, 1, b"hello", &sig));
    }

    #[test]
    fn wrong_domain_rejected() {
        let reg = PublicKeyRegistry::derive(42, 4);
        let kp = KeyPair::derive(42, 0);
        let sig = kp.sign(1, b"hello");
        assert!(!reg.verify(0, 2, b"hello", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let reg = PublicKeyRegistry::derive(42, 4);
        let kp = KeyPair::derive(42, 0);
        let sig = kp.sign(1, b"hello");
        assert!(!reg.verify(0, 1, b"hellp", &sig));
    }

    /// The constant-time comparison accepts exactly the right tag: one
    /// flipped bit anywhere, the last byte included, is rejected.
    #[test]
    fn a_tag_off_in_any_byte_is_rejected() {
        let reg = PublicKeyRegistry::derive(42, 4);
        let sig = KeyPair::derive(42, 1).sign(3, b"vote");
        assert!(reg.verify(1, 3, b"vote", &sig));
        for byte in [0, 1, 16, 30, 31] {
            for bit in [0x01, 0x80] {
                let mut forged = sig;
                forged.0[byte] ^= bit;
                assert!(!reg.verify(1, 3, b"vote", &forged), "byte {byte} bit {bit:#x}");
            }
        }
        assert!(!reg.verify(1, 3, b"vote", &Signature::ZERO));
    }

    #[test]
    fn out_of_range_index_rejected() {
        let reg = PublicKeyRegistry::derive(42, 4);
        let kp = KeyPair::derive(42, 0);
        let sig = kp.sign(1, b"hello");
        assert!(!reg.verify(99, 1, b"hello", &sig));
    }

    #[test]
    fn different_deployments_differ() {
        let a = KeyPair::derive(1, 0).sign(0, b"m");
        let b = KeyPair::derive(2, 0).sign(0, b"m");
        assert_ne!(a, b);
    }

    #[test]
    fn registry_len() {
        let reg = PublicKeyRegistry::derive(7, 31);
        assert_eq!(reg.keys.len(), 31);
    }
}
