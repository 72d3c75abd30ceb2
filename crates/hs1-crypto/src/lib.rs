//! Cryptographic primitives for the HotStuff-1 reproduction.
//!
//! Everything in this crate is implemented from scratch on top of `std`:
//!
//! * `sha256` — FIPS 180-4 SHA-256, validated against the NIST test
//!   vectors in this crate's unit tests. Its compression function runs on
//!   the x86 SHA extensions when CPUID reports them and in scalar Rust
//!   otherwise; the choice is made at run time, per hasher, and never
//!   changes a digest.
//! * `hmac` — HMAC-SHA-256 (RFC 2104), validated against RFC 4231 vectors.
//! * `keys` — a keyed-MAC *signature* scheme with a shared public key
//!   registry.
//!
//! # Security note (documented substitution)
//!
//! The paper's implementation signs messages with conventional digital
//! signatures and aggregates certificates as *lists of `n − f` signatures*
//! (HotStuff-1 §7, "Implementation"). No asymmetric-crypto crate is
//! available in this offline environment, so signatures here are
//! HMAC-SHA-256 tags under per-replica secret keys held in a registry that
//! every verifier can consult. This preserves the protocol-visible API
//! (sign / verify / aggregate / quorum-check), message sizes and a
//! calibratable compute cost, but is **not** unforgeable against an
//! adversary that controls a verifier. The simulator separately charges
//! realistic ECDSA-scale CPU costs for sign/verify so that performance
//! shapes match the paper's testbed.
//!
//! # `unsafe`
//!
//! The crate denies `unsafe` code everywhere but the private module
//! holding the SHA-extensions kernel: one `#[target_feature]` function and
//! the call that reaches it, each block with its `// SAFETY:` argument.
//! The kernel is reachable only through a token that run-time CPU feature
//! detection creates (see `sha256`).

#![deny(unsafe_code)]
#![warn(unreachable_pub)]

mod hmac;
mod keys;
mod sha256;

pub use hmac::hmac_sha256;
pub use keys::{KeyPair, PublicKeyRegistry, Signature};
pub use sha256::{sha256, Digest, Sha256};
