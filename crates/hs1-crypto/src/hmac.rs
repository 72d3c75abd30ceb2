//! HMAC-SHA-256 (RFC 2104), validated against RFC 4231 test vectors.

use crate::sha256::{Digest, Sha256};

const BLOCK: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Compute HMAC-SHA-256 of `msg` under `key`.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Digest {
    let mut h = HmacSha256::new(key);
    h.update(msg);
    h.finalize()
}

/// Streaming HMAC for multi-part messages (avoids concatenating parts).
///
/// A freshly keyed value holds the two midstates that depend on the key
/// alone, so one that signs many messages is keyed once and cloned per
/// message: that saves the two pad-block compressions of `new`.
#[derive(Clone)]
pub(crate) struct HmacSha256 {
    /// Has absorbed `key ^ ipad`, then the message so far.
    inner: Sha256,
    /// Has absorbed `key ^ opad`.
    outer: Sha256,
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "HmacSha256(..)")
    }
}

impl HmacSha256 {
    pub(crate) fn new(key: &[u8]) -> Self {
        HmacSha256::keyed(key, Sha256::new)
    }

    /// Key a MAC whose every hasher, the long-key hash included, comes
    /// from `fresh`.
    fn keyed(key: &[u8], fresh: fn() -> Sha256) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            let mut h = fresh();
            h.update(key);
            k[..32].copy_from_slice(&h.finalize().0);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = fresh();
        inner.update(&k.map(|b| b ^ IPAD));
        let mut outer = fresh();
        outer.update(&k.map(|b| b ^ OPAD));
        HmacSha256 { inner, outer }
    }

    pub(crate) fn update(&mut self, data: &[u8]) -> &mut Self {
        self.inner.update(data);
        self
    }

    pub(crate) fn finalize(mut self) -> Digest {
        let inner_digest = self.inner.finalize();
        self.outer.update(&inner_digest.0);
        self.outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hold HMAC on the dispatched SHA-256 path and on the scalar one to
    /// the published tag.
    fn assert_tag(key: &[u8], msg: &[u8], want: &str) {
        assert_eq!(hmac_sha256(key, msg).to_hex(), want, "dispatched path");
        let mut scalar = HmacSha256::keyed(key, Sha256::scalar);
        scalar.update(msg);
        assert_eq!(scalar.finalize().to_hex(), want, "scalar path");
    }

    // RFC 4231 test cases.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        assert_tag(
            &key,
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_tag(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaa; 20];
        let msg = [0xdd; 50];
        assert_tag(&key, &msg, "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        assert_tag(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn rfc4231_case4_composite_key() {
        let key: Vec<u8> = (0x01..=0x19).collect();
        let msg = [0xcd; 50];
        assert_tag(&key, &msg, "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
    }

    #[test]
    fn rfc4231_case7_long_key_and_data() {
        let key = [0xaa; 131];
        let msg = b"This is a test using a larger than block-size key and a larger than \
                    block-size data. The key needs to be hashed before being used by the \
                    HMAC algorithm.";
        assert_tag(
            &key,
            msg.as_ref(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = b"some key material";
        let msg = b"part one | part two | part three";
        let mut h = HmacSha256::new(key);
        h.update(b"part one | ");
        h.update(b"part two | ");
        h.update(b"part three");
        assert_eq!(h.finalize(), hmac_sha256(key, msg));
    }

    #[test]
    fn keyed_once_and_cloned_matches_oneshot() {
        let key: Vec<u8> = (0x01..=0x19).collect();
        let keyed = HmacSha256::new(&key);
        for msg in [&b""[..], b"Hi There", &[0xcd; 50], &[0x5a; 200]] {
            let mut h = keyed.clone();
            h.update(msg);
            assert_eq!(h.finalize(), hmac_sha256(&key, msg));
        }
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }
}
