//! Hand-rolled binary wire format.
//!
//! The paper's artifact serializes with Protobuf; no serialization crate is
//! available offline, so this module defines a compact, explicit format:
//! fixed-width big-endian integers, length-prefixed sequences, and one tag
//! byte per enum variant. Round-tripping is property-tested in
//! `tests` below and again at the message level in `message.rs`.

use std::sync::Arc;

use crate::block::{Block, BlockId};
use crate::cert::{CertKind, Certificate, TimeoutCert};
use crate::ids::{ClientId, ReplicaId, Slot, View};
use crate::tx::{Transaction, TxId, TxOp};
use hs1_crypto::{Digest, Signature};

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// An enum tag byte was not recognized.
    BadTag { context: &'static str, tag: u8 },
    /// A length prefix exceeded the sanity limit.
    LengthOverflow { context: &'static str, len: u64 },
    /// Trailing bytes after a complete value in `decode_exact`.
    TrailingBytes { remaining: usize },
    /// Structurally inconsistent value (e.g. a block whose parent field
    /// disagrees with its justify/carry fields).
    Inconsistent { context: &'static str },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::BadTag { context, tag } => write!(f, "bad tag {tag} decoding {context}"),
            CodecError::LengthOverflow { context, len } => {
                write!(f, "length {len} too large decoding {context}")
            }
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after value")
            }
            CodecError::Inconsistent { context } => {
                write!(f, "structurally inconsistent {context}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Upper bound on any decoded sequence length (defense against hostile
/// length prefixes on the TCP path).
const MAX_SEQ_LEN: u64 = 4 << 20;

/// Cursor over a byte slice for decoding.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn seq_len(&mut self, context: &'static str) -> Result<usize, CodecError> {
        let len = self.u64()?;
        if len > MAX_SEQ_LEN {
            return Err(CodecError::LengthOverflow { context, len });
        }
        Ok(len as usize)
    }
}

/// Serialize into a byte vector.
pub trait Encode {
    fn encode(&self, out: &mut Vec<u8>);

    fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Deserialize from a [`Reader`].
pub trait Decode: Sized {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Decode a complete value and require the input be fully consumed.
    fn decode_exact(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(CodecError::TrailingBytes { remaining: r.remaining() });
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

macro_rules! int_codec {
    ($t:ty, $read:ident) => {
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                r.$read()
            }
        }
    };
}

int_codec!(u8, u8);
int_codec!(u16, u16);
int_codec!(u32, u32);
int_codec!(u64, u64);

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::BadTag { context: "Option", tag }),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.seq_len("Vec")?;
        let mut v = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

// ---------------------------------------------------------------------------
// Crypto and id types
// ---------------------------------------------------------------------------

impl Encode for Digest {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
}

impl Decode for Digest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Digest(r.take(32)?.try_into().expect("32 bytes")))
    }
}

impl Encode for Signature {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Signature(r.take(32)?.try_into().expect("32 bytes")))
    }
}

macro_rules! newtype_codec {
    ($t:ident, $inner:ty) => {
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok($t(<$inner>::decode(r)?))
            }
        }
    };
}

newtype_codec!(ReplicaId, u32);
newtype_codec!(ClientId, u32);
newtype_codec!(View, u64);
newtype_codec!(Slot, u32);
newtype_codec!(BlockId, Digest);

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

impl Encode for TxId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.client.encode(out);
        self.seq.encode(out);
    }
}

impl Decode for TxId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(TxId { client: ClientId::decode(r)?, seq: u64::decode(r)? })
    }
}

impl Encode for TxOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            TxOp::KvWrite { key, seed } => {
                out.push(0);
                key.encode(out);
                seed.encode(out);
            }
            TxOp::KvRead { key } => {
                out.push(1);
                key.encode(out);
            }
            TxOp::TpccNewOrder { warehouse, district, customer, lines, seed } => {
                out.push(2);
                warehouse.encode(out);
                district.encode(out);
                customer.encode(out);
                lines.encode(out);
                seed.encode(out);
            }
            TxOp::TpccPayment { warehouse, district, customer, amount_cents } => {
                out.push(3);
                warehouse.encode(out);
                district.encode(out);
                customer.encode(out);
                amount_cents.encode(out);
            }
            TxOp::Noop => out.push(4),
        }
    }
}

impl Decode for TxOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(TxOp::KvWrite { key: r.u64()?, seed: r.u64()? }),
            1 => Ok(TxOp::KvRead { key: r.u64()? }),
            2 => Ok(TxOp::TpccNewOrder {
                warehouse: r.u16()?,
                district: r.u8()?,
                customer: r.u16()?,
                lines: r.u8()?,
                seed: r.u64()?,
            }),
            3 => Ok(TxOp::TpccPayment {
                warehouse: r.u16()?,
                district: r.u8()?,
                customer: r.u16()?,
                amount_cents: r.u32()?,
            }),
            4 => Ok(TxOp::Noop),
            tag => Err(CodecError::BadTag { context: "TxOp", tag }),
        }
    }
}

impl Encode for Transaction {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.op.encode(out);
    }
}

impl Decode for Transaction {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Transaction { id: TxId::decode(r)?, op: TxOp::decode(r)? })
    }
}

// ---------------------------------------------------------------------------
// Certificates and blocks
// ---------------------------------------------------------------------------

impl Encode for CertKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            CertKind::Quorum => out.push(0),
            CertKind::Commit => out.push(1),
            CertKind::NewSlot => out.push(2),
            CertKind::NewView { formed_in } => {
                out.push(3);
                formed_in.encode(out);
            }
        }
    }
}

impl Decode for CertKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(CertKind::Quorum),
            1 => Ok(CertKind::Commit),
            2 => Ok(CertKind::NewSlot),
            3 => Ok(CertKind::NewView { formed_in: View::decode(r)? }),
            tag => Err(CodecError::BadTag { context: "CertKind", tag }),
        }
    }
}

impl Encode for Certificate {
    fn encode(&self, out: &mut Vec<u8>) {
        self.kind.encode(out);
        self.view.encode(out);
        self.slot.encode(out);
        self.block.encode(out);
        self.sigs.encode(out);
    }
}

impl Decode for Certificate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Certificate {
            kind: CertKind::decode(r)?,
            view: View::decode(r)?,
            slot: Slot::decode(r)?,
            block: BlockId::decode(r)?,
            sigs: decode_sigs(r)?,
        })
    }
}

/// A certificate's signature list, read straight into its shared slice: a
/// signer and a signature are a fixed 36 bytes, so the length prefix says
/// how many bytes to take, and the list is allocated once.
fn decode_sigs(r: &mut Reader<'_>) -> Result<Arc<[(ReplicaId, Signature)]>, CodecError> {
    const SIG: usize = 4 + 32;
    // `seq_len` caps the count at `MAX_SEQ_LEN`, so the product fits.
    let len = r.seq_len("Vec")?;
    let bytes = r.take(len * SIG)?;
    Ok(bytes
        .chunks_exact(SIG)
        .map(|c| {
            let id = u32::from_be_bytes(c[..4].try_into().expect("4 bytes"));
            (ReplicaId(id), Signature(c[4..].try_into().expect("32 bytes")))
        })
        .collect())
}

impl Encode for TimeoutCert {
    fn encode(&self, out: &mut Vec<u8>) {
        self.view.encode(out);
        self.sigs.encode(out);
    }
}

impl Decode for TimeoutCert {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(TimeoutCert { view: View::decode(r)?, sigs: Vec::decode(r)? })
    }
}

impl Encode for Block {
    fn encode(&self, out: &mut Vec<u8>) {
        self.proposer.encode(out);
        self.view.encode(out);
        self.slot.encode(out);
        self.parent.encode(out);
        self.justify.encode(out);
        self.carry.encode(out);
        self.txs.encode(out);
    }
}

impl Decode for Block {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let proposer = ReplicaId::decode(r)?;
        let view = View::decode(r)?;
        let slot = Slot::decode(r)?;
        let parent = BlockId::decode(r)?;
        let justify = Certificate::decode(r)?;
        let carry = Option::<BlockId>::decode(r)?;
        let txs = Vec::<Transaction>::decode(r)?;
        // Reconstruct through the public constructors so the cached id is
        // recomputed from content (a forged id field cannot survive), and
        // reject encodings whose parent disagrees with justify/carry.
        let block = match carry {
            Some(c) => Block::new_with_carry(proposer, view, slot, justify, c, txs),
            None => Block::new(proposer, view, slot, justify, txs),
        };
        if block.parent != parent {
            return Err(CodecError::Inconsistent { context: "Block.parent" });
        }
        Ok(block)
    }
}

impl Encode for Arc<Block> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl Decode for Arc<Block> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Arc::new(Block::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertKind;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.encoded();
        let back = T::decode_exact(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(&0u8);
        roundtrip(&0xabcdu16);
        roundtrip(&0xdead_beefu32);
        roundtrip(&u64::MAX);
        roundtrip(&Some(7u32));
        roundtrip(&Option::<u32>::None);
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&(ReplicaId(4), View(9)));
    }

    #[test]
    fn id_roundtrips() {
        roundtrip(&ReplicaId(3));
        roundtrip(&ClientId(12));
        roundtrip(&View(99));
        roundtrip(&Slot(5));
        roundtrip(&BlockId::test(1));
    }

    #[test]
    fn tx_roundtrips() {
        roundtrip(&Transaction::kv_write(7, 9, 1234, 5678));
        roundtrip(&Transaction::new(
            TxId::new(ClientId(1), 2),
            TxOp::TpccNewOrder { warehouse: 3, district: 4, customer: 5, lines: 6, seed: 7 },
        ));
        roundtrip(&Transaction::new(
            TxId::new(ClientId(1), 2),
            TxOp::TpccPayment { warehouse: 3, district: 4, customer: 5, amount_cents: 600 },
        ));
        roundtrip(&Transaction::new(TxId::new(ClientId(0), 0), TxOp::Noop));
        roundtrip(&Transaction::new(TxId::new(ClientId(0), 0), TxOp::KvRead { key: 5 }));
    }

    #[test]
    fn cert_roundtrips() {
        roundtrip(&Certificate::genesis());
        let c = Certificate {
            kind: CertKind::NewView { formed_in: View(8) },
            view: View(5),
            slot: Slot(2),
            block: BlockId::test(3),
            sigs: [(ReplicaId(0), Signature([7u8; 32])), (ReplicaId(1), Signature([9u8; 32]))]
                .into(),
        };
        roundtrip(&c);
    }

    #[test]
    fn block_roundtrip_preserves_id() {
        let txs = (0..10).map(|i| Transaction::kv_write(1, i, i * 3, i)).collect();
        let b = Block::new(ReplicaId(2), View(4), Slot(1), Certificate::genesis(), txs);
        let bytes = b.encoded();
        let back = Block::decode_exact(&bytes).expect("decode");
        assert_eq!(back, b);
        assert_eq!(back.id(), b.id());
    }

    #[test]
    fn carry_block_roundtrip() {
        let b = Block::new_with_carry(
            ReplicaId(2),
            View(4),
            Slot(1),
            Certificate::genesis(),
            BlockId::test(5),
            vec![],
        );
        let back = Block::decode_exact(&b.encoded()).expect("decode");
        assert_eq!(back, b);
        assert_eq!(back.id(), b.id());
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let b = Block::new(ReplicaId(2), View(4), Slot(1), Certificate::genesis(), vec![]);
        let bytes = b.encoded();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(Block::decode_exact(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = View(3).encoded();
        bytes.push(0xff);
        assert_eq!(View::decode_exact(&bytes), Err(CodecError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut bytes = Vec::new();
        (u64::MAX).encode(&mut bytes); // absurd Vec length
        assert!(matches!(Vec::<u64>::decode_exact(&bytes), Err(CodecError::LengthOverflow { .. })));
    }

    #[test]
    fn bad_enum_tag_rejected() {
        assert!(matches!(
            TxOp::decode_exact(&[250]),
            Err(CodecError::BadTag { context: "TxOp", .. })
        ));
        assert!(matches!(
            CertKind::decode_exact(&[9]),
            Err(CodecError::BadTag { context: "CertKind", .. })
        ));
    }
}
