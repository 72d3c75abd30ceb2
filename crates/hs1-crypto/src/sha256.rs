//! SHA-256 implemented from the FIPS 180-4 specification.
//!
//! An allocation-free incremental [`Sha256`] hasher and a one-shot
//! [`sha256`] convenience function. Every hash in the workspace goes
//! through one compression function, which has two implementations:
//!
//! * **The x86 SHA extensions** (`sha256rnds2` / `sha256msg1` /
//!   `sha256msg2`), on an x86-64 CPU whose CPUID reports them. The kernel
//!   is one `#[target_feature]` function in the private `shani` module,
//!   which holds all of this crate's `unsafe`. Safe code reaches it only
//!   through a `ShaNi` token, and the one function that makes a token does
//!   so after `is_x86_feature_detected!` saw every feature the kernel
//!   enables; that is the argument every `// SAFETY:` comment there rests
//!   on.
//! * **Scalar Rust**, on every other CPU and architecture. It is also the
//!   reference: the unit tests run the NIST vectors through both paths and
//!   compare them on random inputs on every host that has the kernel.
//!
//! [`Sha256::new`] picks the path once per hasher; nothing else selects
//! it, and both produce the same digest for every input. `update` hands
//! whole 64-byte blocks to the compression function in one call, and
//! `finalize` writes the padding into the buffered block directly.

/// A 32-byte digest. This is the universal hash/identifier type of the
/// whole workspace (block ids, transaction digests, signatures are built
/// on it).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as a sentinel (e.g. genesis parent).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Hex-encode the digest (lowercase).
    pub fn to_hex(&self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(HEX[(b >> 4) as usize] as char);
            s.push(HEX[(b & 0xf) as usize] as char);
        }
        s
    }

    /// Short hex prefix for debugging output.
    pub fn short_hex(&self) -> String {
        self.to_hex()[..8].to_string()
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({}..)", self.short_hex())
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// SHA-256 round constants (first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The compression function a hasher runs on.
#[derive(Clone, Copy, Debug)]
enum Kernel {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    ShaNi(shani::ShaNi),
}

impl Kernel {
    /// The fastest path this CPU supports.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if let Some(token) = shani::ShaNi::detect() {
            return Kernel::ShaNi(token);
        }
        Kernel::Scalar
    }

    /// Compress `blocks` (a whole number of 64-byte blocks) into `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Kernel::Scalar => compress_scalar(state, blocks),
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(token) => token.compress(state, blocks),
        }
    }
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered waiting for a full 64-byte block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    pub fn new() -> Self {
        Sha256::with_kernel(Kernel::detect())
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha256 { state: H0, buf: [0u8; 64], buf_len: 0, total_len: 0, kernel }
    }

    /// A hasher on the scalar path whatever the CPU: the reference the
    /// tests hold the kernel to.
    #[cfg(test)]
    pub(crate) fn scalar() -> Self {
        Sha256::with_kernel(Kernel::Scalar)
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        // Fill a partially full buffer first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return self;
            }
            self.kernel.compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks straight from the input, in one call.
        let whole = rest.len() - rest.len() % 64;
        if whole > 0 {
            self.kernel.compress(&mut self.state, &rest[..whole]);
        }
        // Buffer the tail.
        let tail = &rest[whole..];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
        self
    }

    /// Convenience: absorb a single u64 big-endian.
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        self.update(&v.to_be_bytes())
    }

    /// Finalize and return the digest. Consumes the hasher.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros, 8-byte big-endian bit length, written
        // into the buffered block; a tail past byte 55 leaves no room for
        // the length, which then goes in a block of its own.
        let bit_len = self.total_len.wrapping_mul(8);
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            self.kernel.compress(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.kernel.compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// The compression function in portable Rust, block by block.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(v);
        }
    }
}

/// The compression function on the x86 SHA extensions.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Proof that this CPU runs every instruction [`compress_blocks`]
    /// uses: [`ShaNi::detect`] is the only way to make one.
    #[derive(Clone, Copy, Debug)]
    pub(super) struct ShaNi(());

    impl ShaNi {
        /// A token if CPUID reports the SHA extensions and the SSE levels
        /// the kernel's shuffles need.
        pub(super) fn detect() -> Option<ShaNi> {
            let supported = is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1");
            supported.then_some(ShaNi(()))
        }

        /// Compress `blocks` (a whole number of 64-byte blocks) into `state`.
        pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
            // SAFETY: `compress_blocks` is sound to call wherever the CPU
            // has the features it enables, and `self` exists only because
            // `detect` saw all four on this CPU.
            unsafe { compress_blocks(state, blocks) }
        }
    }

    /// FIPS 180-4's compression over `blocks`, four rounds per pair of
    /// `sha256rnds2`. The state lives in two registers as (a, b, e, f) and
    /// (c, d, g, h), the order `sha256rnds2` works in, from the first
    /// block to the last.
    ///
    /// # Safety
    ///
    /// Calling it is `unsafe` for its target features alone: the CPU must
    /// have every one it enables, which a [`ShaNi`] token proves.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: every load and store is unaligned (`loadu`/`storeu`) and
        // inside its object: 16 bytes at word 0 or 4 of the 8-word state, at
        // byte 0, 16, 32 or 48 of a 64-byte `chunks_exact` block, and at
        // word 4i (i < 16, as `rounds!` is only given) of the 64-word `K`.
        // The intrinsics need only the CPU features this function enables.
        unsafe {
            // Reverses the bytes of each 32-bit lane: message words are
            // big-endian.
            let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
            let dcba = _mm_loadu_si128(state.as_ptr().cast());
            let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
            let cdab = _mm_shuffle_epi32(dcba, 0xb1);
            let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
            let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
            let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
            // Rounds 4i..4i+4 over message words `w` (also 4i..4i+4).
            macro_rules! rounds {
                ($i:expr, $w:expr) => {
                    let wk = _mm_add_epi32($w, _mm_loadu_si128(K.as_ptr().add(4 * $i).cast()));
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                };
            }
            // Replace the oldest four message words `w0` with the next four:
            // W[t] = σ1(W[t−2]) + W[t−7] + σ0(W[t−15]) + W[t−16].
            macro_rules! schedule {
                ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {
                    let partial =
                        _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
                    $w0 = _mm_sha256msg2_epu32(partial, $w3);
                };
            }
            for block in blocks.chunks_exact(64) {
                let (abef_in, cdgh_in) = (abef, cdgh);
                let p = block.as_ptr();
                let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), bswap);
                let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), bswap);
                let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), bswap);
                let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), bswap);
                rounds!(0, w0);
                rounds!(1, w1);
                rounds!(2, w2);
                rounds!(3, w3);
                for i in [4, 8, 12] {
                    schedule!(w0, w1, w2, w3);
                    rounds!(i, w0);
                    schedule!(w1, w2, w3, w0);
                    rounds!(i + 1, w1);
                    schedule!(w2, w3, w0, w1);
                    rounds!(i + 2, w2);
                    schedule!(w3, w0, w1, w2);
                    rounds!(i + 3, w3);
                }
                abef = _mm_add_epi32(abef, abef_in);
                cdgh = _mm_add_epi32(cdgh, cdgh_in);
            }
            let feba = _mm_shuffle_epi32(abef, 0x1b);
            let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
            _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xf0));
            _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), _mm_alignr_epi8(dchg, feba, 8));
        }
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hold the digest of `data` on the dispatched path and on the scalar
    /// one to the published value.
    fn assert_vector(data: &[u8], want: &str) {
        let mut scalar = Sha256::scalar();
        scalar.update(data);
        assert_eq!(sha256(data).to_hex(), want, "dispatched path");
        assert_eq!(scalar.finalize().to_hex(), want, "scalar path");
    }

    #[test]
    fn nist_empty() {
        assert_vector(b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn nist_abc() {
        assert_vector(b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn nist_two_block() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn nist_896_bit() {
        assert_vector(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn million_a() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    /// SplitMix64: a seedable, dependency-free source of test inputs.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
    }

    /// The dispatched path agrees with the scalar one on every length from
    /// 0 to 300 bytes, each fed in pieces split at random points (so
    /// partial buffers, whole-block runs and every padding case meet).
    #[test]
    fn dispatched_path_matches_scalar_on_random_splits() {
        let mut rng = SplitMix64(0x5eed_5a17);
        for len in 0..=300usize {
            for _ in 0..4 {
                let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                let (mut dispatched, mut scalar) = (Sha256::new(), Sha256::scalar());
                let mut rest = &data[..];
                while !rest.is_empty() {
                    let (piece, tail) = rest.split_at(1 + rng.below(rest.len()));
                    dispatched.update(piece);
                    scalar.update(piece);
                    rest = tail;
                }
                let want = scalar.finalize();
                assert_eq!(dispatched.finalize(), want, "len {len}");
                assert_eq!(sha256(&data), want, "len {len}, one shot");
            }
        }
    }

    /// Where the CPU has the SHA extensions, the dispatched path must be
    /// the kernel: a detection bug would otherwise pass every vector on
    /// the scalar path and lose the speed unnoticed. `/proc/cpuinfo`'s
    /// `sha_ni` is the kernel's own CPUID reading, independent of `std`'s.
    #[test]
    fn dispatch_takes_the_kernel_where_cpuid_reports_sha() {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let listed = cpuinfo
            .lines()
            .filter(|l| l.starts_with("flags"))
            .any(|l| l.split_whitespace().any(|flag| flag == "sha_ni"));
        #[cfg(target_arch = "x86_64")]
        let listed = listed || std::arch::is_x86_feature_detected!("sha");
        let kernel = Sha256::new().kernel;
        if listed {
            #[cfg(target_arch = "x86_64")]
            assert!(matches!(kernel, Kernel::ShaNi(_)), "SHA extensions present, ran {kernel:?}");
        } else {
            assert!(matches!(kernel, Kernel::Scalar), "no SHA extensions, ran {kernel:?}");
        }
    }

    #[test]
    fn padding_boundaries() {
        // Lengths around the 55/56/64 byte padding boundary must agree with
        // incremental hashing byte-by-byte.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 127, 128, 129, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8).collect();
            let oneshot = sha256(&data);
            let mut inc = Sha256::new();
            for b in &data {
                inc.update(std::slice::from_ref(b));
            }
            assert_eq!(oneshot, inc.finalize(), "len {len}");
        }
    }

    #[test]
    fn incremental_chunks_match_oneshot() {
        let data: Vec<u8> = (0..4096u32).flat_map(|i| i.to_le_bytes()).collect();
        for chunk in [1usize, 3, 17, 63, 64, 65, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk {chunk}");
        }
    }

    #[test]
    fn digest_helpers() {
        let d = sha256(b"abc");
        assert_eq!(d.to_hex().len(), 64);
        assert_eq!(d.short_hex().len(), 8);
        assert_ne!(d, Digest::ZERO);
    }

    #[test]
    fn update_u64_matches_bytes() {
        let mut a = Sha256::new();
        a.update_u64(0xdead_beef_1234_5678);
        let mut b = Sha256::new();
        b.update(&0xdead_beef_1234_5678u64.to_be_bytes());
        assert_eq!(a.finalize(), b.finalize());
    }
}
