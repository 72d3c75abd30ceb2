//! The complete wire message set of all five protocols.
//!
//! | message | protocols | paper reference |
//! |---|---|---|
//! | [`Message::Request`] / [`Message::Response`] | all | §4.1 client request/response |
//! | [`Message::Propose`] | all | Fig. 2 l.10, Fig. 4 l.5, Fig. 6 l.10/13/19 |
//! | [`Message::Vote`] | basic HotStuff-1, chained HotStuff | Fig. 2 l.20 (ProposeVote) |
//! | [`Message::Prepare`] | basic HotStuff-1 | Fig. 2 l.15 |
//! | [`Message::NewView`] | all | Fig. 2 l.29/32, Fig. 4 l.18/21, Fig. 7 l.29 |
//! | [`Message::NewSlot`] | slotted | Fig. 7 l.23 |
//! | [`Message::Reject`] | slotted | Fig. 7 l.25 |
//! | [`Message::Wish`] / [`Message::Tc`] | pacemaker | Fig. 3 |
//! | [`Message::FetchBlock`] / [`Message::FetchResp`] | recovery | §4.2 "Recovery Mechanism" |
//! | [`Message::SnapshotReq`] / [`Message::SnapshotManifest`] | state sync | §4.2 (snapshot catch-up) |
//! | [`Message::SnapshotChunkReq`] / [`Message::SnapshotChunk`] | state sync | §4.2 (snapshot catch-up) |

use std::sync::Arc;

use crate::block::{Block, BlockId};
use crate::cert::{Certificate, TimeoutCert};
use crate::codec::{CodecError, Decode, Encode, Reader};
use crate::ids::{Slot, View};
use crate::tx::{Transaction, TxId};
use hs1_crypto::{Digest, Sha256, Signature};

/// Whether a client response reflects speculative or committed execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplyKind {
    /// Sent on speculative execution after a prepare-certificate (the
    /// early finality confirmation path; client needs `n − f` of these).
    Speculative,
    /// Sent on commit, when the replica had not already sent a speculative
    /// response (client needs `f + 1`).
    Committed,
}

/// Per-transaction execution response to a client.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResponseMsg {
    pub tx: TxId,
    /// Block in which the transaction executed — responses for different
    /// blocks must never be combined into one quorum (prefix speculation
    /// dilemma, §3).
    pub block: BlockId,
    /// Digest of the execution result (post-state commitment).
    pub result: Digest,
    pub kind: ReplyKind,
    pub view: View,
}

/// A vote share over a block at (view, slot) in some signature domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VoteInfo {
    pub view: View,
    pub slot: Slot,
    pub block: BlockId,
    pub share: Signature,
}

/// Leader proposal. `commit_cert` is basic HotStuff-1's piggy-backed
/// `C(v_lc)` (Fig. 2 line 10); streamlined/slotted leave it `None`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProposeMsg {
    pub block: Arc<Block>,
    pub commit_cert: Option<Certificate>,
}

/// Basic HotStuff-1 ProposeVote (replica → current leader).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VoteMsg {
    pub vote: VoteInfo,
}

/// Basic HotStuff-1 Prepare broadcast carrying the freshly formed `P(v)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PrepareMsg {
    pub cert: Certificate,
}

/// Sent to the leader of `dest_view` when exiting the previous view —
/// either with a vote share (progress) or without (timeout).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NewViewMsg {
    pub dest_view: View,
    /// Sender's highest known certificate `P(v_lp)` / `P(s_lp, v_lp)`.
    pub high_cert: Certificate,
    /// Streamlined: vote for the previous proposal. Basic: commit share.
    /// Slotted: New-View share over the highest voted block `H_h`
    /// (Fig. 7 line 28). `None` on a shareless timeout.
    pub vote: Option<VoteInfo>,
}

/// Slotted HotStuff-1 NewSlot vote (replica → current leader, Fig. 7 l.23).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NewSlotMsg {
    pub view: View,
    pub slot: Slot,
    pub high_cert: Certificate,
    pub vote: VoteInfo,
}

/// Slotted HotStuff-1 Reject: the proposal extended a certificate lower
/// than the sender's (Fig. 7 line 25).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RejectMsg {
    pub view: View,
    pub slot: Slot,
    pub high_cert: Certificate,
}

/// Pacemaker Wish (Fig. 3 line 10).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WishMsg {
    pub view: View,
    pub share: Signature,
}

/// Ask a peer for a snapshot manifest (state sync). A replica whose
/// committed chain has fallen far behind — or that starts on an empty
/// disk — sends this instead of walking the gap one `FetchBlock` at a
/// time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SnapshotReqMsg {
    /// Committed chain length (genesis included) the requester already
    /// has. Advisory (logging/prioritization): peers reply with their
    /// manifest regardless, and the requester's gap threshold makes the
    /// sync-vs-replay decision — not-ahead manifests are how it learns
    /// quickly that replay is the better catch-up.
    pub have_chain_len: u64,
}

/// Describes a servable snapshot derived from the peer's newest durable
/// checkpoint. The *state identity* fields (everything hashed by
/// [`SnapshotManifestMsg::state_key`]) are deterministic functions of the
/// snapshotted chain position, so any two honest peers whose newest
/// checkpoints cover the same position produce byte-identical values —
/// which is what lets a joining replica demand `f + 1` matching manifests
/// before trusting a state root it cannot recompute from certificates
/// alone. The consensus-position fields (`view`, `high_cert`) are
/// per-peer liveness hints, excluded from the agreement key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SnapshotManifestMsg {
    /// Committed blocks covered (genesis included).
    pub chain_len: u64,
    /// Id of the last covered block.
    pub chain_head: BlockId,
    /// `state_root()` of the snapshotted committed store.
    pub state_root: Digest,
    /// Logical record count of the store.
    pub record_count: u64,
    /// Total bytes of the chunked image payload.
    pub total_bytes: u64,
    /// Chunk size the serving peer split the payload into.
    pub chunk_bytes: u32,
    /// CRC32 of each chunk's bytes, in order (the per-chunk integrity
    /// index a downloader checks before accepting a chunk).
    pub chunk_crcs: Vec<u32>,
    /// Highest view the serving peer had entered at snapshot time.
    pub view: View,
    /// Highest certificate the serving peer had adopted at snapshot time.
    pub high_cert: Certificate,
}

impl SnapshotManifestMsg {
    /// Number of chunks the payload was split into.
    pub fn chunk_count(&self) -> u32 {
        self.chunk_crcs.len() as u32
    }

    /// Digest over the state-identity fields (everything except `view` /
    /// `high_cert`). Two manifests with equal keys describe byte-identical
    /// images; the joiner requires `f + 1` distinct peers to agree on this
    /// key before downloading.
    pub fn state_key(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"hs1-snapshot-manifest");
        h.update_u64(self.chain_len);
        h.update(&self.chain_head.0 .0);
        h.update(&self.state_root.0);
        h.update_u64(self.record_count);
        h.update_u64(self.total_bytes);
        h.update_u64(self.chunk_bytes as u64);
        for crc in &self.chunk_crcs {
            h.update(&crc.to_be_bytes());
        }
        h.finalize()
    }

    /// Structural sanity independent of any peer state: chunk math adds
    /// up and the advertised sizes are inside the transport limits.
    pub fn well_formed(&self) -> bool {
        const MAX_IMAGE_BYTES: u64 = 1 << 30;
        if self.chain_len == 0 || self.chunk_bytes == 0 || self.total_bytes == 0 {
            return false;
        }
        if self.total_bytes > MAX_IMAGE_BYTES {
            return false;
        }
        let expect = self.total_bytes.div_ceil(self.chunk_bytes as u64);
        self.chunk_crcs.len() as u64 == expect
    }
}

/// Pull one chunk of a snapshot image (state sync; sequential pull keeps
/// the joiner in control of pacing and peer rotation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SnapshotChunkReqMsg {
    /// State root of the snapshot being downloaded (binds the request to
    /// one image even across a server-side checkpoint refresh).
    pub state_root: Digest,
    pub index: u32,
}

/// One chunk of a snapshot image. `data` is verified against the
/// manifest's `chunk_crcs[index]` before it is accepted.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SnapshotChunkMsg {
    pub state_root: Digest,
    pub index: u32,
    pub data: Vec<u8>,
}

/// The complete message enum. A message is moved by value from hop to
/// hop inside a replica, so a variant larger than a `NewView` is boxed:
/// the snapshot manifest, which only state sync sends.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Message {
    Request(Transaction),
    Response(ResponseMsg),
    Propose(ProposeMsg),
    Vote(VoteMsg),
    Prepare(PrepareMsg),
    NewView(NewViewMsg),
    NewSlot(NewSlotMsg),
    Reject(RejectMsg),
    Wish(WishMsg),
    Tc(TimeoutCert),
    FetchBlock { id: BlockId },
    FetchResp { block: Arc<Block> },
    SnapshotReq(SnapshotReqMsg),
    SnapshotManifest(Box<SnapshotManifestMsg>),
    SnapshotChunkReq(SnapshotChunkReqMsg),
    SnapshotChunk(SnapshotChunkMsg),
}

impl Message {
    /// Short name for logs and metrics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Message::Request(_) => "Request",
            Message::Response(_) => "Response",
            Message::Propose(_) => "Propose",
            Message::Vote(_) => "Vote",
            Message::Prepare(_) => "Prepare",
            Message::NewView(_) => "NewView",
            Message::NewSlot(_) => "NewSlot",
            Message::Reject(_) => "Reject",
            Message::Wish(_) => "Wish",
            Message::Tc(_) => "Tc",
            Message::FetchBlock { .. } => "FetchBlock",
            Message::FetchResp { .. } => "FetchResp",
            Message::SnapshotReq(_) => "SnapshotReq",
            Message::SnapshotManifest(_) => "SnapshotManifest",
            Message::SnapshotChunkReq(_) => "SnapshotChunkReq",
            Message::SnapshotChunk(_) => "SnapshotChunk",
        }
    }

    /// Modeled wire size in bytes, charged against NIC bandwidth by the
    /// simulator. Mirrors what the real encoding plus transport framing
    /// would cost (proposals dominate; votes/certs scale with `n`).
    pub fn modeled_wire_size(&self) -> usize {
        const HDR: usize = 16;
        fn cert_size(c: &Certificate) -> usize {
            64 + c.sigs.len() * 40
        }
        HDR + match self {
            Message::Request(tx) => tx.modeled_wire_size(),
            Message::Response(_) => 96,
            Message::Propose(p) => {
                p.block.modeled_wire_size() + p.commit_cert.as_ref().map_or(0, cert_size)
            }
            Message::Vote(_) => 96,
            Message::Prepare(p) => cert_size(&p.cert),
            Message::NewView(m) => cert_size(&m.high_cert) + 104,
            Message::NewSlot(m) => cert_size(&m.high_cert) + 104,
            Message::Reject(m) => cert_size(&m.high_cert) + 16,
            Message::Wish(_) => 48,
            Message::Tc(tc) => 16 + tc.sigs.len() * 40,
            Message::FetchBlock { .. } => 40,
            Message::FetchResp { block } => block.modeled_wire_size(),
            Message::SnapshotReq(_) => 16,
            Message::SnapshotManifest(m) => 128 + m.chunk_crcs.len() * 4 + cert_size(&m.high_cert),
            Message::SnapshotChunkReq(_) => 44,
            Message::SnapshotChunk(c) => 44 + c.data.len(),
        }
    }
}

// ---------------------------------------------------------------------------
// Codec impls
// ---------------------------------------------------------------------------

impl Encode for ReplyKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ReplyKind::Speculative => 0,
            ReplyKind::Committed => 1,
        });
    }
}

impl Decode for ReplyKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(ReplyKind::Speculative),
            1 => Ok(ReplyKind::Committed),
            tag => Err(CodecError::BadTag { context: "ReplyKind", tag }),
        }
    }
}

impl Encode for ResponseMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tx.encode(out);
        self.block.encode(out);
        self.result.encode(out);
        self.kind.encode(out);
        self.view.encode(out);
    }
}

impl Decode for ResponseMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ResponseMsg {
            tx: TxId::decode(r)?,
            block: BlockId::decode(r)?,
            result: Digest::decode(r)?,
            kind: ReplyKind::decode(r)?,
            view: View::decode(r)?,
        })
    }
}

impl Encode for VoteInfo {
    fn encode(&self, out: &mut Vec<u8>) {
        self.view.encode(out);
        self.slot.encode(out);
        self.block.encode(out);
        self.share.encode(out);
    }
}

impl Decode for VoteInfo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(VoteInfo {
            view: View::decode(r)?,
            slot: Slot::decode(r)?,
            block: BlockId::decode(r)?,
            share: Signature::decode(r)?,
        })
    }
}

impl Encode for ProposeMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.block.encode(out);
        self.commit_cert.encode(out);
    }
}

impl Decode for ProposeMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ProposeMsg { block: Arc::<Block>::decode(r)?, commit_cert: Option::decode(r)? })
    }
}

impl Encode for VoteMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.vote.encode(out);
    }
}

impl Decode for VoteMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(VoteMsg { vote: VoteInfo::decode(r)? })
    }
}

impl Encode for PrepareMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cert.encode(out);
    }
}

impl Decode for PrepareMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PrepareMsg { cert: Certificate::decode(r)? })
    }
}

impl Encode for NewViewMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.dest_view.encode(out);
        self.high_cert.encode(out);
        self.vote.encode(out);
    }
}

impl Decode for NewViewMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(NewViewMsg {
            dest_view: View::decode(r)?,
            high_cert: Certificate::decode(r)?,
            vote: Option::decode(r)?,
        })
    }
}

impl Encode for NewSlotMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.view.encode(out);
        self.slot.encode(out);
        self.high_cert.encode(out);
        self.vote.encode(out);
    }
}

impl Decode for NewSlotMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(NewSlotMsg {
            view: View::decode(r)?,
            slot: Slot::decode(r)?,
            high_cert: Certificate::decode(r)?,
            vote: VoteInfo::decode(r)?,
        })
    }
}

impl Encode for RejectMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.view.encode(out);
        self.slot.encode(out);
        self.high_cert.encode(out);
    }
}

impl Decode for RejectMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RejectMsg {
            view: View::decode(r)?,
            slot: Slot::decode(r)?,
            high_cert: Certificate::decode(r)?,
        })
    }
}

impl Encode for WishMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.view.encode(out);
        self.share.encode(out);
    }
}

impl Decode for WishMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WishMsg { view: View::decode(r)?, share: Signature::decode(r)? })
    }
}

impl Encode for SnapshotReqMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.have_chain_len.encode(out);
    }
}

impl Decode for SnapshotReqMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SnapshotReqMsg { have_chain_len: u64::decode(r)? })
    }
}

impl Encode for SnapshotManifestMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.chain_len.encode(out);
        self.chain_head.encode(out);
        self.state_root.encode(out);
        self.record_count.encode(out);
        self.total_bytes.encode(out);
        self.chunk_bytes.encode(out);
        self.chunk_crcs.encode(out);
        self.view.encode(out);
        self.high_cert.encode(out);
    }
}

impl Decode for SnapshotManifestMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SnapshotManifestMsg {
            chain_len: u64::decode(r)?,
            chain_head: BlockId::decode(r)?,
            state_root: Digest::decode(r)?,
            record_count: u64::decode(r)?,
            total_bytes: u64::decode(r)?,
            chunk_bytes: u32::decode(r)?,
            chunk_crcs: Vec::decode(r)?,
            view: View::decode(r)?,
            high_cert: Certificate::decode(r)?,
        })
    }
}

impl Encode for SnapshotChunkReqMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.state_root.encode(out);
        self.index.encode(out);
    }
}

impl Decode for SnapshotChunkReqMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SnapshotChunkReqMsg { state_root: Digest::decode(r)?, index: u32::decode(r)? })
    }
}

impl Encode for SnapshotChunkMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.state_root.encode(out);
        self.index.encode(out);
        (self.data.len() as u64).encode(out);
        out.extend_from_slice(&self.data);
    }
}

impl Decode for SnapshotChunkMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let state_root = Digest::decode(r)?;
        let index = u32::decode(r)?;
        // Chunks are raw bytes: decode the length prefix through the same
        // sanity limit as every sequence, then take the slice wholesale
        // (no per-element loop for megabyte payloads).
        let len = r.seq_len("SnapshotChunk.data")?;
        Ok(SnapshotChunkMsg { state_root, index, data: r.take(len)?.to_vec() })
    }
}

impl Encode for Message {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Message::Request(tx) => {
                out.push(0);
                tx.encode(out);
            }
            Message::Response(m) => {
                out.push(1);
                m.encode(out);
            }
            Message::Propose(m) => {
                out.push(2);
                m.encode(out);
            }
            Message::Vote(m) => {
                out.push(3);
                m.encode(out);
            }
            Message::Prepare(m) => {
                out.push(4);
                m.encode(out);
            }
            Message::NewView(m) => {
                out.push(5);
                m.encode(out);
            }
            Message::NewSlot(m) => {
                out.push(6);
                m.encode(out);
            }
            Message::Reject(m) => {
                out.push(7);
                m.encode(out);
            }
            Message::Wish(m) => {
                out.push(8);
                m.encode(out);
            }
            Message::Tc(tc) => {
                out.push(9);
                tc.encode(out);
            }
            Message::FetchBlock { id } => {
                out.push(10);
                id.encode(out);
            }
            Message::FetchResp { block } => {
                out.push(11);
                block.encode(out);
            }
            Message::SnapshotReq(m) => {
                out.push(12);
                m.encode(out);
            }
            Message::SnapshotManifest(m) => {
                out.push(13);
                m.encode(out);
            }
            Message::SnapshotChunkReq(m) => {
                out.push(14);
                m.encode(out);
            }
            Message::SnapshotChunk(m) => {
                out.push(15);
                m.encode(out);
            }
        }
    }
}

impl Decode for Message {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(Message::Request(Transaction::decode(r)?)),
            1 => Ok(Message::Response(ResponseMsg::decode(r)?)),
            2 => Ok(Message::Propose(ProposeMsg::decode(r)?)),
            3 => Ok(Message::Vote(VoteMsg::decode(r)?)),
            4 => Ok(Message::Prepare(PrepareMsg::decode(r)?)),
            5 => Ok(Message::NewView(NewViewMsg::decode(r)?)),
            6 => Ok(Message::NewSlot(NewSlotMsg::decode(r)?)),
            7 => Ok(Message::Reject(RejectMsg::decode(r)?)),
            8 => Ok(Message::Wish(WishMsg::decode(r)?)),
            9 => Ok(Message::Tc(TimeoutCert::decode(r)?)),
            10 => Ok(Message::FetchBlock { id: BlockId::decode(r)? }),
            11 => Ok(Message::FetchResp { block: Arc::<Block>::decode(r)? }),
            12 => Ok(Message::SnapshotReq(SnapshotReqMsg::decode(r)?)),
            13 => Ok(Message::SnapshotManifest(Box::new(SnapshotManifestMsg::decode(r)?))),
            14 => Ok(Message::SnapshotChunkReq(SnapshotChunkReqMsg::decode(r)?)),
            15 => Ok(Message::SnapshotChunk(SnapshotChunkMsg::decode(r)?)),
            tag => Err(CodecError::BadTag { context: "Message", tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertKind;
    use crate::ids::{ClientId, ReplicaId};

    fn roundtrip(m: Message) {
        let bytes = m.encoded();
        let back = Message::decode_exact(&bytes).expect("decode");
        assert_eq!(back, m);
        assert!(m.modeled_wire_size() > 0);
        assert!(!m.kind_name().is_empty());
    }

    fn some_cert() -> Certificate {
        Certificate {
            kind: CertKind::NewSlot,
            view: View(4),
            slot: Slot(2),
            block: BlockId::test(8),
            sigs: [(ReplicaId(1), Signature([3u8; 32]))].into(),
        }
    }

    fn some_vote() -> VoteInfo {
        VoteInfo {
            view: View(4),
            slot: Slot(2),
            block: BlockId::test(8),
            share: Signature([5u8; 32]),
        }
    }

    #[test]
    fn all_variants_roundtrip() {
        let block = Arc::new(Block::new(
            ReplicaId(0),
            View(1),
            Slot(1),
            Certificate::genesis(),
            vec![Transaction::kv_write(1, 1, 2, 3)],
        ));
        roundtrip(Message::Request(Transaction::kv_write(9, 1, 2, 3)));
        roundtrip(Message::Response(ResponseMsg {
            tx: TxId::new(ClientId(9), 1),
            block: BlockId::test(1),
            result: Digest([7u8; 32]),
            kind: ReplyKind::Speculative,
            view: View(3),
        }));
        roundtrip(Message::Propose(ProposeMsg {
            block: block.clone(),
            commit_cert: Some(some_cert()),
        }));
        roundtrip(Message::Propose(ProposeMsg { block: block.clone(), commit_cert: None }));
        roundtrip(Message::Vote(VoteMsg { vote: some_vote() }));
        roundtrip(Message::Prepare(PrepareMsg { cert: some_cert() }));
        roundtrip(Message::NewView(NewViewMsg {
            dest_view: View(5),
            high_cert: some_cert(),
            vote: Some(some_vote()),
        }));
        roundtrip(Message::NewView(NewViewMsg {
            dest_view: View(5),
            high_cert: Certificate::genesis(),
            vote: None,
        }));
        roundtrip(Message::NewSlot(NewSlotMsg {
            view: View(4),
            slot: Slot(3),
            high_cert: some_cert(),
            vote: some_vote(),
        }));
        roundtrip(Message::Reject(RejectMsg {
            view: View(4),
            slot: Slot(3),
            high_cert: some_cert(),
        }));
        roundtrip(Message::Wish(WishMsg { view: View(8), share: Signature([1u8; 32]) }));
        roundtrip(Message::Tc(TimeoutCert {
            view: View(8),
            sigs: vec![(ReplicaId(0), Signature([2u8; 32]))],
        }));
        roundtrip(Message::FetchBlock { id: BlockId::test(3) });
        roundtrip(Message::FetchResp { block });
        roundtrip(Message::SnapshotReq(SnapshotReqMsg { have_chain_len: 17 }));
        roundtrip(Message::SnapshotManifest(Box::new(some_manifest())));
        roundtrip(Message::SnapshotChunkReq(SnapshotChunkReqMsg {
            state_root: Digest([4u8; 32]),
            index: 9,
        }));
        roundtrip(Message::SnapshotChunk(SnapshotChunkMsg {
            state_root: Digest([4u8; 32]),
            index: 9,
            data: (0..200u16).map(|i| i as u8).collect(),
        }));
    }

    fn some_manifest() -> SnapshotManifestMsg {
        SnapshotManifestMsg {
            chain_len: 12,
            chain_head: BlockId::test(11),
            state_root: Digest([6u8; 32]),
            record_count: 1000,
            total_bytes: 700,
            chunk_bytes: 256,
            chunk_crcs: vec![1, 2, 3],
            view: View(13),
            high_cert: some_cert(),
        }
    }

    #[test]
    fn snapshot_messages_reject_truncation() {
        let msgs = [
            Message::SnapshotReq(SnapshotReqMsg { have_chain_len: 17 }),
            Message::SnapshotManifest(Box::new(some_manifest())),
            Message::SnapshotChunkReq(SnapshotChunkReqMsg {
                state_root: Digest([4u8; 32]),
                index: 9,
            }),
            Message::SnapshotChunk(SnapshotChunkMsg {
                state_root: Digest([4u8; 32]),
                index: 9,
                data: vec![7u8; 64],
            }),
        ];
        for m in msgs {
            let bytes = m.encoded();
            for cut in [1, 2, bytes.len() / 2, bytes.len() - 1] {
                assert!(
                    Message::decode_exact(&bytes[..cut]).is_err(),
                    "{} truncated at {cut} must not decode",
                    m.kind_name()
                );
            }
            let mut trailing = bytes.clone();
            trailing.push(0);
            assert!(
                matches!(Message::decode_exact(&trailing), Err(CodecError::TrailingBytes { .. })),
                "{} with trailing bytes must not decode",
                m.kind_name()
            );
        }
    }

    #[test]
    fn snapshot_chunk_hostile_length_rejected() {
        // A chunk advertising a multi-gigabyte payload must fail on the
        // length prefix, not attempt the allocation.
        let mut bytes = vec![15u8]; // SnapshotChunk tag
        Digest([0u8; 32]).encode(&mut bytes);
        0u32.encode(&mut bytes);
        u64::MAX.encode(&mut bytes);
        assert!(matches!(Message::decode_exact(&bytes), Err(CodecError::LengthOverflow { .. })));
    }

    #[test]
    fn manifest_state_key_ignores_consensus_position() {
        // Two honest peers at the same snapshot position may differ in
        // pacemaker view / adopted certificate; agreement must still form.
        let a = some_manifest();
        let mut b = a.clone();
        b.view = View(99);
        b.high_cert = Certificate::genesis();
        assert_eq!(a.state_key(), b.state_key());
        // Any state-identity field difference breaks the key.
        let mut c = a.clone();
        c.chunk_crcs[1] ^= 1;
        assert_ne!(a.state_key(), c.state_key());
        let mut d = a.clone();
        d.state_root = Digest([7u8; 32]);
        assert_ne!(a.state_key(), d.state_key());
    }

    #[test]
    fn manifest_well_formedness() {
        let m = some_manifest();
        assert!(m.well_formed());
        assert_eq!(m.chunk_count(), 3);
        let mut wrong_count = m.clone();
        wrong_count.chunk_crcs.pop();
        assert!(!wrong_count.well_formed());
        let mut zero_chunk = m.clone();
        zero_chunk.chunk_bytes = 0;
        assert!(!zero_chunk.well_formed());
        let mut huge = m.clone();
        huge.total_bytes = u64::MAX;
        assert!(!huge.well_formed());
    }

    #[test]
    fn propose_wire_size_dominates() {
        let txs: Vec<_> = (0..1000).map(|i| Transaction::kv_write(1, i, i, i)).collect();
        let block =
            Arc::new(Block::new(ReplicaId(0), View(1), Slot(1), Certificate::genesis(), txs));
        let propose = Message::Propose(ProposeMsg { block, commit_cert: None });
        let vote = Message::Vote(VoteMsg { vote: some_vote() });
        assert!(propose.modeled_wire_size() > 50 * vote.modeled_wire_size());
    }
}
