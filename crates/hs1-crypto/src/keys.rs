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
use crate::sha256::Digest;

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

/// A secret signing key.
#[derive(Clone)]
pub struct SecretKey(pub [u8; 32]);

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(..)")
    }
}

/// A signing identity: index into the registry plus the secret key.
#[derive(Clone, Debug)]
pub struct KeyPair {
    pub index: u32,
    pub secret: SecretKey,
    /// The MAC already keyed with `secret`, cloned per signature.
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
        let secret = SecretKey(h.finalize().0);
        let mac = HmacSha256::new(&secret.0);
        KeyPair { index, secret, mac }
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

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Verify that `sig` is participant `index`'s signature on `msg` in
    /// `domain`.
    pub fn verify(&self, index: u32, domain: u8, msg: &[u8], sig: &Signature) -> bool {
        match self.keys.get(index as usize) {
            Some(keyed) => sign_with(keyed, domain, msg) == *sig,
            None => false,
        }
    }
}

/// Derive a per-message digest commitment used when signing structured
/// payloads: callers hash their fields into a [`Digest`] and sign that.
pub fn signed_payload(parts: &[&[u8]]) -> Digest {
    let mut h = crate::sha256::Sha256::new();
    for p in parts {
        h.update_u64(p.len() as u64);
        h.update(p);
    }
    h.finalize()
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
    fn signed_payload_is_length_prefixed() {
        // ("ab","c") must differ from ("a","bc") — length framing matters.
        let x = signed_payload(&[b"ab", b"c"]);
        let y = signed_payload(&[b"a", b"bc"]);
        assert_ne!(x, y);
    }

    #[test]
    fn registry_len() {
        let reg = PublicKeyRegistry::derive(7, 31);
        assert_eq!(reg.len(), 31);
        assert!(!reg.is_empty());
    }
}
