//! Journal record types and their wire encoding.
//!
//! Records reuse the `hs1-types` codec (the same format that crosses the
//! TCP wire), so a journaled block is byte-identical to a proposed one
//! and the codec's property tests cover both paths.

use std::sync::Arc;

use hs1_crypto::Digest;
use hs1_types::codec::{CodecError, Decode, Encode, Reader};
use hs1_types::{Block, Certificate, View};

/// One durable event in a replica's write-ahead journal (paper §4.2).
///
/// The record set mirrors exactly what [`hs1_core::Persistence`] emits:
/// commit decisions (with full bodies, so replay re-executes
/// deterministically), adopted certificates, entered views, the
/// speculation edges needed to re-derive the local-ledger's live
/// speculation, and checkpoint markers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JournalRecord {
    /// A block reached a commit decision (written before the global-ledger
    /// apply).
    Decided(Arc<Block>),
    /// The replica adopted this certificate as its highest.
    Cert(Certificate),
    /// The replica entered this view.
    ViewChange(View),
    /// A block executed speculatively into a fresh local-ledger overlay.
    SpecMark(Arc<Block>),
    /// The top `blocks` overlays were discarded (Definition 4.7 rollback).
    SpecRollback { blocks: u32 },
    /// A checkpoint covering `chain_len` committed blocks (genesis
    /// included) with `state_root` was durably written. Informational: the
    /// authoritative data lives in the checkpoint file; recovery uses the
    /// marker only for diagnostics.
    CheckpointMark { chain_len: u64, state_root: Digest },
}

impl JournalRecord {
    /// Short name for logs and error messages.
    pub(crate) fn kind_name(&self) -> &'static str {
        match self {
            JournalRecord::Decided(_) => "Decided",
            JournalRecord::Cert(_) => "Cert",
            JournalRecord::ViewChange(_) => "ViewChange",
            JournalRecord::SpecMark(_) => "SpecMark",
            JournalRecord::SpecRollback { .. } => "SpecRollback",
            JournalRecord::CheckpointMark { .. } => "CheckpointMark",
        }
    }
}

impl Encode for JournalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            JournalRecord::Decided(b) => {
                out.push(0);
                b.encode(out);
            }
            JournalRecord::Cert(c) => {
                out.push(1);
                c.encode(out);
            }
            JournalRecord::ViewChange(v) => {
                out.push(2);
                v.encode(out);
            }
            JournalRecord::SpecMark(b) => {
                out.push(3);
                b.encode(out);
            }
            JournalRecord::SpecRollback { blocks } => {
                out.push(4);
                blocks.encode(out);
            }
            JournalRecord::CheckpointMark { chain_len, state_root } => {
                out.push(5);
                chain_len.encode(out);
                state_root.encode(out);
            }
        }
    }
}

impl Decode for JournalRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(JournalRecord::Decided(Arc::<Block>::decode(r)?)),
            1 => Ok(JournalRecord::Cert(Certificate::decode(r)?)),
            2 => Ok(JournalRecord::ViewChange(View::decode(r)?)),
            3 => Ok(JournalRecord::SpecMark(Arc::<Block>::decode(r)?)),
            4 => Ok(JournalRecord::SpecRollback { blocks: u32::decode(r)? }),
            5 => Ok(JournalRecord::CheckpointMark {
                chain_len: u64::decode(r)?,
                state_root: Digest::decode(r)?,
            }),
            tag => Err(CodecError::BadTag { context: "JournalRecord", tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs1_types::{ReplicaId, Slot, Transaction};

    fn roundtrip(rec: JournalRecord) {
        let bytes = rec.encoded();
        let back = JournalRecord::decode_exact(&bytes).expect("decode");
        assert_eq!(back, rec);
        assert!(!rec.kind_name().is_empty());
    }

    #[test]
    fn all_variants_roundtrip() {
        let block = Arc::new(Block::new(
            ReplicaId(1),
            View(3),
            Slot(1),
            Certificate::genesis(),
            vec![Transaction::kv_write(1, 7, 8, 9)],
        ));
        roundtrip(JournalRecord::Decided(block.clone()));
        roundtrip(JournalRecord::Cert(Certificate::genesis()));
        roundtrip(JournalRecord::ViewChange(View(42)));
        roundtrip(JournalRecord::SpecMark(block));
        roundtrip(JournalRecord::SpecRollback { blocks: 3 });
        roundtrip(JournalRecord::CheckpointMark { chain_len: 17, state_root: Digest([9u8; 32]) });
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(matches!(
            JournalRecord::decode_exact(&[200]),
            Err(CodecError::BadTag { context: "JournalRecord", .. })
        ));
    }
}
