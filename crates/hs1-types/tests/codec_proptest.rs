//! Property tests: every message round-trips through the wire codec, and
//! the decoder never panics on arbitrary bytes.
//!
//! Randomization is driven by the in-repo deterministic [`SplitMix64`]
//! (no external proptest dependency): each property runs a fixed number of
//! seeded cases, so failures reproduce exactly from the printed seed.

use std::sync::Arc;

use hs1_crypto::{Digest, Signature};
use hs1_types::cert::{CertKind, Certificate, TimeoutCert};
use hs1_types::codec::{Decode, Encode};
use hs1_types::message::{
    Message, NewSlotMsg, NewViewMsg, PrepareMsg, ProposeMsg, RejectMsg, ReplyKind, ResponseMsg,
    SnapshotChunkMsg, SnapshotChunkReqMsg, SnapshotManifestMsg, SnapshotReqMsg, VoteInfo, VoteMsg,
    WishMsg,
};
use hs1_types::{
    Block, BlockId, ClientId, ReplicaId, Slot, SplitMix64, Transaction, TxId, TxOp, View,
};

const CASES: u64 = 256;

fn arb_bytes32(r: &mut SplitMix64) -> [u8; 32] {
    let mut out = [0u8; 32];
    for chunk in out.chunks_mut(8) {
        chunk.copy_from_slice(&r.next_u64().to_le_bytes()[..chunk.len()]);
    }
    out
}

fn arb_digest(r: &mut SplitMix64) -> Digest {
    Digest(arb_bytes32(r))
}

fn arb_sig(r: &mut SplitMix64) -> Signature {
    Signature(arb_bytes32(r))
}

fn arb_block_id(r: &mut SplitMix64) -> BlockId {
    BlockId(arb_digest(r))
}

fn arb_txop(r: &mut SplitMix64) -> TxOp {
    match r.next_range(5) {
        0 => TxOp::KvWrite { key: r.next_u64(), seed: r.next_u64() },
        1 => TxOp::KvRead { key: r.next_u64() },
        2 => TxOp::TpccNewOrder {
            warehouse: r.next_u64() as u16,
            district: r.next_u64() as u8,
            customer: r.next_u64() as u16,
            lines: r.next_u64() as u8,
            seed: r.next_u64(),
        },
        3 => TxOp::TpccPayment {
            warehouse: r.next_u64() as u16,
            district: r.next_u64() as u8,
            customer: r.next_u64() as u16,
            amount_cents: r.next_u64() as u32,
        },
        _ => TxOp::Noop,
    }
}

fn arb_tx(r: &mut SplitMix64) -> Transaction {
    let client = ClientId(r.next_u64() as u32);
    let seq = r.next_u64();
    let op = arb_txop(r);
    Transaction::new(TxId::new(client, seq), op)
}

fn arb_cert_kind(r: &mut SplitMix64) -> CertKind {
    match r.next_range(4) {
        0 => CertKind::Quorum,
        1 => CertKind::Commit,
        2 => CertKind::NewSlot,
        _ => CertKind::NewView { formed_in: View(r.next_u64()) },
    }
}

fn arb_sigs(r: &mut SplitMix64, max: u64) -> Vec<(ReplicaId, Signature)> {
    (0..r.next_range(max)).map(|_| (ReplicaId(r.next_u64() as u32), arb_sig(r))).collect()
}

fn arb_cert(r: &mut SplitMix64) -> Certificate {
    Certificate {
        kind: arb_cert_kind(r),
        view: View(r.next_u64()),
        slot: Slot(r.next_u64() as u32),
        block: arb_block_id(r),
        sigs: arb_sigs(r, 5).into(),
    }
}

fn arb_block(r: &mut SplitMix64) -> Arc<Block> {
    let proposer = ReplicaId(r.next_u64() as u32);
    let view = View(r.next_u64());
    let slot = Slot(r.next_u64() as u32);
    let justify = arb_cert(r);
    let carry = if r.chance(0.5) { Some(arb_block_id(r)) } else { None };
    let txs: Vec<Transaction> = (0..r.next_range(8)).map(|_| arb_tx(r)).collect();
    Arc::new(match carry {
        Some(c) => Block::new_with_carry(proposer, view, slot, justify, c, txs),
        None => Block::new(proposer, view, slot, justify, txs),
    })
}

fn arb_vote(r: &mut SplitMix64) -> VoteInfo {
    VoteInfo {
        view: View(r.next_u64()),
        slot: Slot(r.next_u64() as u32),
        block: arb_block_id(r),
        share: arb_sig(r),
    }
}

fn arb_response(r: &mut SplitMix64) -> ResponseMsg {
    ResponseMsg {
        tx: arb_tx(r).id,
        block: arb_block_id(r),
        result: arb_digest(r),
        kind: if r.chance(0.5) { ReplyKind::Speculative } else { ReplyKind::Committed },
        view: View(r.next_u64()),
    }
}

fn arb_manifest(r: &mut SplitMix64) -> SnapshotManifestMsg {
    SnapshotManifestMsg {
        chain_len: r.next_u64(),
        chain_head: arb_block_id(r),
        state_root: arb_digest(r),
        record_count: r.next_u64(),
        total_bytes: r.next_u64(),
        chunk_bytes: r.next_u64() as u32,
        chunk_crcs: (0..r.next_range(6)).map(|_| r.next_u64() as u32).collect(),
        view: View(r.next_u64()),
        high_cert: arb_cert(r),
    }
}

/// One random message of variant index `variant` (0..VARIANTS), so
/// sweeping the variant index guarantees coverage of every arm of
/// [`Message`].
fn arb_message_of(variant: u64, r: &mut SplitMix64) -> Message {
    match variant {
        0 => Message::Request(arb_tx(r)),
        1 => Message::Response(arb_response(r)),
        2 => Message::Propose(ProposeMsg {
            block: arb_block(r),
            commit_cert: if r.chance(0.5) { Some(arb_cert(r)) } else { None },
        }),
        3 => Message::Vote(VoteMsg { vote: arb_vote(r) }),
        4 => Message::Prepare(PrepareMsg { cert: arb_cert(r) }),
        5 => Message::NewView(NewViewMsg {
            dest_view: View(r.next_u64()),
            high_cert: arb_cert(r),
            vote: if r.chance(0.5) { Some(arb_vote(r)) } else { None },
        }),
        6 => Message::NewSlot(NewSlotMsg {
            view: View(r.next_u64()),
            slot: Slot(r.next_u64() as u32),
            high_cert: arb_cert(r),
            vote: arb_vote(r),
        }),
        7 => Message::Reject(RejectMsg {
            view: View(r.next_u64()),
            slot: Slot(r.next_u64() as u32),
            high_cert: arb_cert(r),
        }),
        8 => Message::Wish(WishMsg { view: View(r.next_u64()), share: arb_sig(r) }),
        9 => Message::Tc(TimeoutCert { view: View(r.next_u64()), sigs: arb_sigs(r, 4) }),
        10 => Message::FetchBlock { id: arb_block_id(r) },
        11 => Message::FetchResp { block: arb_block(r) },
        12 => Message::SnapshotReq(SnapshotReqMsg { have_chain_len: r.next_u64() }),
        13 => Message::SnapshotManifest(Box::new(arb_manifest(r))),
        14 => Message::SnapshotChunkReq(SnapshotChunkReqMsg {
            state_root: arb_digest(r),
            index: r.next_u64() as u32,
        }),
        _ => Message::SnapshotChunk(SnapshotChunkMsg {
            state_root: arb_digest(r),
            index: r.next_u64() as u32,
            data: (0..r.next_range(600)).map(|_| r.next_u64() as u8).collect(),
        }),
    }
}

const VARIANTS: u64 = 16;

fn arb_message(r: &mut SplitMix64) -> Message {
    let v = r.next_range(VARIANTS);
    arb_message_of(v, r)
}

#[test]
fn message_roundtrip() {
    for seed in 0..CASES {
        let mut r = SplitMix64::new(seed);
        let msg = arb_message(&mut r);
        let bytes = msg.encoded();
        let back = Message::decode_exact(&bytes)
            .unwrap_or_else(|e| panic!("seed {seed}: well-formed encoding must decode: {e:?}"));
        assert_eq!(back, msg, "seed {seed}");
    }
}

#[test]
fn every_message_variant_roundtrips() {
    // Exhaustive over variants × seeds, so a codec bug in any single arm
    // cannot hide behind the uniform variant chooser above.
    for variant in 0..VARIANTS {
        for seed in 0..64u64 {
            let mut r = SplitMix64::new(seed * VARIANTS + variant);
            let msg = arb_message_of(variant, &mut r);
            let name = msg.kind_name();
            let bytes = msg.encoded();
            let back = Message::decode_exact(&bytes)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: must decode: {e:?}"));
            assert_eq!(back, msg, "{name} seed {seed}");
        }
    }
}

#[test]
fn decoder_never_panics() {
    // Hostile input: decoding may fail, but must not panic.
    for seed in 0..CASES {
        let mut r = SplitMix64::new(seed);
        let len = r.next_range(512) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| r.next_u64() as u8).collect();
        let _ = Message::decode_exact(&bytes);
    }
}

#[test]
fn decoder_never_panics_on_truncations() {
    // Every prefix of a valid encoding must fail cleanly, not panic.
    for seed in 0..32u64 {
        let mut r = SplitMix64::new(seed);
        let bytes = arb_message(&mut r).encoded();
        for cut in 0..bytes.len() {
            let _ = Message::decode_exact(&bytes[..cut]);
        }
    }
}

#[test]
fn decoder_never_panics_on_bitflips() {
    // Single-bit corruptions of valid encodings must not panic (they may
    // decode to a different valid message; the codec carries no checksum).
    for seed in 0..16u64 {
        let mut r = SplitMix64::new(seed);
        let bytes = arb_message(&mut r).encoded();
        for i in 0..bytes.len().min(256) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << r.next_range(8);
            let _ = Message::decode_exact(&corrupt);
        }
    }
}

#[test]
fn block_id_deterministic() {
    for seed in 0..CASES {
        let mut r = SplitMix64::new(seed);
        let block = arb_block(&mut r);
        let again = Block::decode_exact(&block.encoded()).expect("decode");
        assert_eq!(again.id(), block.id(), "seed {seed}");
    }
}

#[test]
fn encoding_is_injective_on_views() {
    let mut r = SplitMix64::new(0xbeef);
    for _ in 0..CASES {
        let (a, b) = (r.next_u64(), r.next_u64());
        assert_eq!(View(a).encoded() == View(b).encoded(), a == b);
        assert_eq!(View(a).encoded(), View(a).encoded());
    }
}
