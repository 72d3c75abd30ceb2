//! The snapshot image: what actually crosses the wire during state sync.
//!
//! An image is the state-identity slice of a durable
//! [`hs1_storage::Checkpoint`] — the materialized KV entries, the logical
//! record count, and the committed log — *excluding* the serving
//! peer's consensus position (view / certificate), so that any two honest
//! peers whose checkpoints cover the same chain position produce
//! **byte-identical payloads**. That determinism is what the `f + 1`
//! manifest-agreement rule (see the crate docs) and cross-peer chunk
//! resumption rest on.
//!
//! Payload layout (the `hs1-types` codec, like everything on the wire):
//!
//! ```text
//! [u64 record_count][Vec<(u64,u64)> entries, key-sorted]
//! [CommittedLog: u64 len][Digest base][Vec<(BlockId, Digest)> window]
//! ```
//!
//! The log is the chain's length, its running hash just below the window,
//! and the window's ids each with the hash after it: O(window), so an
//! image is O(state), however long the chain. The window is the newest
//! `CommittedLog::KEEP` ids (the whole chain while it is shorter): set by
//! the chain's height alone, so honest peers' payloads agree whenever
//! their engines last pruned. A log that is empty, whose window is longer
//! than it, or whose hashes do not chain from its base does not decode.
//!
//! The payload is split into fixed-size chunks; the manifest carries one
//! CRC32 per chunk (the integrity index) plus the image's `state_root`,
//! which the assembler recomputes from the decoded entries before
//! installing anything.

use hs1_crypto::Digest;
use hs1_ledger::KvStore;
use hs1_storage::crc32::crc32;
use hs1_storage::Checkpoint;
use hs1_types::codec::{Decode, Encode, Reader};
use hs1_types::message::{SnapshotChunkMsg, SnapshotManifestMsg};
use hs1_types::{Certificate, CommittedLog, View};

use crate::SyncError;

/// Default chunk size. Small enough that one chunk is far below the
/// transport's frame and sequence limits, large enough that a
/// multi-megabyte image takes tens of round trips, not thousands.
pub(crate) const DEFAULT_CHUNK_BYTES: u32 = 256 * 1024;

/// A decoded (or to-be-encoded) snapshot image.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SnapshotImage {
    /// Logical record count of the committed store.
    pub record_count: u64,
    /// Materialized writes, sorted by key (canonical ordering — required
    /// for byte-identical payloads across peers).
    pub entries: Vec<(u64, u64)>,
    /// The committed chain the store is the state of.
    pub log: CommittedLog,
    /// `state_root()` of the store the image describes. For decoded
    /// images this is *recomputed from the entries*, never read from the
    /// wire.
    pub state_root: Digest,
}

impl SnapshotImage {
    /// Snapshot a live store + log (tests; the serving path uses
    /// [`SnapshotImage::from_checkpoint`]).
    #[cfg(test)]
    pub(crate) fn capture(store: &KvStore, log: &CommittedLog) -> SnapshotImage {
        let mut entries: Vec<(u64, u64)> = store.materialized().collect();
        entries.sort_unstable();
        SnapshotImage {
            record_count: store.record_count(),
            entries,
            log: log.clone(),
            state_root: store.state_root(),
        }
    }

    /// The image a durable checkpoint serves (checkpoint entries are
    /// already key-sorted).
    pub(crate) fn from_checkpoint(ckpt: &Checkpoint) -> SnapshotImage {
        SnapshotImage {
            record_count: ckpt.record_count,
            entries: ckpt.entries.clone(),
            log: ckpt.log.clone(),
            state_root: ckpt.state_root,
        }
    }

    /// Rebuild the committed store this image describes.
    pub fn restore_store(&self) -> KvStore {
        KvStore::from_parts(self.record_count, self.entries.iter().copied())
    }

    /// Canonical payload bytes (deterministic across honest peers).
    pub(crate) fn payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.entries.len() * 16 + self.log.ids().len() * 64);
        self.record_count.encode(&mut out);
        self.entries.encode(&mut out);
        self.log.encode(&mut out);
        out
    }

    /// Decode an assembled payload, recomputing the state root from the
    /// decoded entries and enforcing the structural invariants a hostile
    /// serializer could violate.
    pub fn decode_payload(bytes: &[u8]) -> Result<SnapshotImage, SyncError> {
        let mut r = Reader::new(bytes);
        let record_count = u64::decode(&mut r)?;
        let entries = Vec::<(u64, u64)>::decode(&mut r)?;
        let log = CommittedLog::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(SyncError::Malformed("trailing bytes after image"));
        }
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(SyncError::Malformed("entries not strictly key-sorted"));
        }
        let state_root = KvStore::from_parts(record_count, entries.iter().copied()).state_root();
        Ok(SnapshotImage { record_count, entries, log, state_root })
    }

    /// Build the manifest describing `payload` (the encoding of `self`)
    /// split into `chunk_bytes`-sized chunks, annotated with the serving
    /// peer's consensus position.
    pub(crate) fn manifest(
        &self,
        payload: &[u8],
        chunk_bytes: u32,
        view: View,
        high_cert: Certificate,
    ) -> SnapshotManifestMsg {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        SnapshotManifestMsg {
            chain_len: self.log.len() as u64,
            chain_head: self.log.head(),
            state_root: self.state_root,
            record_count: self.record_count,
            total_bytes: payload.len() as u64,
            chunk_bytes,
            chunk_crcs: payload.chunks(chunk_bytes as usize).map(crc32).collect(),
            view,
            high_cert,
        }
    }

    /// Cut chunk `index` out of `payload` (serving side).
    pub(crate) fn chunk(
        payload: &[u8],
        state_root: Digest,
        chunk_bytes: u32,
        index: u32,
    ) -> Option<SnapshotChunkMsg> {
        let start = (index as usize).checked_mul(chunk_bytes as usize)?;
        if start >= payload.len() {
            return None;
        }
        let end = (start + chunk_bytes as usize).min(payload.len());
        Some(SnapshotChunkMsg { state_root, index, data: payload[start..end].to_vec() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs1_types::codec::CodecError;
    use hs1_types::BlockId;

    /// Genesis, then `BlockId::test(1..n)`, the newest `keep` ids held.
    fn log(n: u64, keep: usize) -> CommittedLog {
        let mut log = CommittedLog::from_ids((1..n).map(BlockId::test));
        log.trim(keep);
        log
    }

    fn sample_image() -> SnapshotImage {
        let mut store = KvStore::with_records(1000);
        for k in 0..200u64 {
            store.put(k * 3, k * k + 1);
        }
        SnapshotImage::capture(&store, &log(40, 16))
    }

    #[test]
    fn payload_roundtrip_reproduces_root_and_chain() {
        let img = sample_image();
        let payload = img.payload();
        let back = SnapshotImage::decode_payload(&payload).expect("decode");
        assert_eq!(back, img);
        assert_eq!(back.restore_store().state_root(), img.state_root);
    }

    #[test]
    fn payload_is_deterministic_across_capture_orders() {
        // Same observable state reached through different write orders
        // must produce identical payload bytes (the agreement rule
        // compares CRCs across peers).
        let mut a = KvStore::with_records(100);
        let mut b = KvStore::with_records(100);
        a.put(1, 10);
        a.put(2, 20);
        b.put(2, 20);
        b.put(1, 10);
        let log = log(2, 8);
        assert_eq!(
            SnapshotImage::capture(&a, &log).payload(),
            SnapshotImage::capture(&b, &log).payload()
        );
    }

    #[test]
    fn from_checkpoint_matches_direct_capture() {
        let mut store = KvStore::with_records(50);
        store.put(7, 700);
        let log = log(30, 8);
        let ckpt = Checkpoint::capture(9, View(3), None, &store, &log);
        assert_eq!(SnapshotImage::from_checkpoint(&ckpt), SnapshotImage::capture(&store, &log));
    }

    #[test]
    fn chunking_covers_payload_exactly() {
        let img = sample_image();
        let payload = img.payload();
        let m = img.manifest(&payload, 100, View(1), Certificate::genesis());
        assert!(m.well_formed());
        assert_eq!(m.chunk_count() as u64, (payload.len() as u64).div_ceil(100));
        let mut rebuilt = Vec::new();
        for i in 0..m.chunk_count() {
            let c = SnapshotImage::chunk(&payload, img.state_root, 100, i).expect("chunk");
            assert_eq!(crc32(&c.data), m.chunk_crcs[i as usize], "chunk {i} CRC");
            rebuilt.extend_from_slice(&c.data);
        }
        assert_eq!(rebuilt, payload);
        assert!(SnapshotImage::chunk(&payload, img.state_root, 100, m.chunk_count()).is_none());
    }

    #[test]
    fn hostile_payloads_rejected() {
        let img = sample_image();

        // Unsorted entries (a non-canonical serialization of the same
        // state would break cross-peer CRC agreement silently).
        let mut shuffled = img.clone();
        shuffled.entries.swap(0, 1);
        assert_eq!(
            SnapshotImage::decode_payload(&shuffled.payload()),
            Err(SyncError::Malformed("entries not strictly key-sorted"))
        );

        // Hostile logs. The log follows the key-sorted entries; its
        // header is the length, the base hash and the window's length.
        let payload = img.payload();
        let log_at = 16 + 16 * img.entries.len();
        let window = img.log.ids().len() as u64;
        let patched = |at: usize, bytes: &[u8]| {
            let mut p = payload.clone();
            p[at..at + bytes.len()].copy_from_slice(bytes);
            SnapshotImage::decode_payload(&p)
        };
        let inconsistent = |context| Err(SyncError::Codec(CodecError::Inconsistent { context }));
        // Empty.
        assert_eq!(patched(log_at, &0u64.to_be_bytes()), inconsistent("CommittedLog.len"));
        // A window longer than the log.
        let short = (window - 1).to_be_bytes();
        assert_eq!(patched(log_at, &short), inconsistent("CommittedLog.window"));
        // Hashes that do not chain: from the base, between entries, or
        // from genesis for a window that starts there.
        let hashes = inconsistent("CommittedLog.hashes");
        assert_eq!(patched(log_at + 8, &[0xAB; 4]), hashes);
        assert_eq!(patched(log_at + 48 + 5 * 64 + 40, &[0xAB; 4]), hashes);
        assert_eq!(patched(log_at + 48 + 5 * 64, &[0xAB; 4]), hashes, "an id swapped");
        let mut anchorless = img.clone();
        anchorless.log = log(3, 8);
        let anchorless = anchorless.payload();
        let mut forged = anchorless.clone();
        forged[log_at + 48] ^= 1; // genesis's id
        assert_eq!(SnapshotImage::decode_payload(&forged), hashes);
        assert!(SnapshotImage::decode_payload(&anchorless).is_ok());

        // Truncation and trailing garbage fail cleanly.
        assert!(SnapshotImage::decode_payload(&payload[..payload.len() - 1]).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert_eq!(
            SnapshotImage::decode_payload(&trailing),
            Err(SyncError::Malformed("trailing bytes after image"))
        );
    }

    #[test]
    fn decoded_root_is_recomputed_not_trusted() {
        // Tamper with one entry value post-encode: the decode succeeds
        // (bytes are well-formed) but the recomputed root differs from
        // the original image's — exactly the check the sync client runs
        // against the agreed root.
        let img = sample_image();
        let mut tampered = img.clone();
        tampered.entries[0].1 ^= 1;
        let back = SnapshotImage::decode_payload(&tampered.payload()).expect("well-formed");
        assert_ne!(back.state_root, img.state_root);
    }
}
