//! The ledger image: a committed store as its key-sorted writes, plus
//! the committed log it is the state of. A checkpoint file holds one
//! between its consensus position and its state root, and state sync
//! serves exactly those bytes, so honest replicas at one height serve
//! one payload byte for byte.
//!
//! Layout (the `hs1-types` codec, as on the wire):
//!
//! ```text
//! [u64 record_count][Vec<(u64,u64)> entries, strictly key-sorted]
//! [CommittedLog: u64 len][Digest base][Vec<(BlockId, Digest)> window]
//! ```
//!
//! The log is O(window), not O(history): the chain's length, its running
//! hash just below the window, and the window's ids, each with the hash
//! after it. A replica's storage writes its newest `CommittedLog::KEEP`
//! ids, so the window depends on the chain's height alone.
//!
//! The state root is not encoded: the decoder recomputes it from the
//! entries. Entries out of key order (a non-canonical encoding of one
//! state would break cross-peer agreement silently), a log that is
//! empty, whose window is longer than it or whose hashes do not chain,
//! a truncation and trailing bytes do not decode.

use hs1_crypto::Digest;
use hs1_ledger::KvStore;
use hs1_types::codec::{CodecError, Decode, Encode, Reader};
use hs1_types::CommittedLog;

/// A committed store and the chain it is the state of.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LedgerImage {
    /// Logical record count of the committed store.
    pub record_count: u64,
    /// Materialized writes, strictly sorted by key.
    pub entries: Vec<(u64, u64)>,
    /// The committed chain the store is the state of.
    pub log: CommittedLog,
    /// `state_root()` of the store. Computed from the entries, never
    /// read from bytes.
    pub state_root: Digest,
}

impl LedgerImage {
    /// Image `store`, the state of `log`.
    pub fn capture(store: &KvStore, log: &CommittedLog) -> LedgerImage {
        let mut entries: Vec<(u64, u64)> = store.materialized().collect();
        entries.sort_unstable();
        let record_count = store.record_count();
        let state_root = hs1_ledger::state_root(record_count, &entries);
        LedgerImage { record_count, entries, log: log.clone(), state_root }
    }

    /// Rebuild the committed store this image describes.
    pub fn restore_store(&self) -> KvStore {
        KvStore::from_parts(self.record_count, self.entries.iter().copied())
    }
}

impl Encode for LedgerImage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.record_count.encode(out);
        self.entries.encode(out);
        self.log.encode(out);
    }
}

impl Decode for LedgerImage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let record_count = u64::decode(r)?;
        let entries = Vec::<(u64, u64)>::decode(r)?;
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(CodecError::Inconsistent { context: "LedgerImage.entries" });
        }
        let log = CommittedLog::decode(r)?;
        let state_root = hs1_ledger::state_root(record_count, &entries);
        Ok(LedgerImage { record_count, entries, log, state_root })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{Checkpoint, CHECKPOINT_MAGIC};
    use crate::disk::Disk;
    use crate::frame::put_frame;
    use crate::StorageError;
    use hs1_types::{BlockId, Certificate, View};
    use std::io::Write;
    use std::path::Path;

    /// Genesis, then `BlockId::test(1..n)`, the newest `keep` ids held.
    fn log(n: u64, keep: usize) -> CommittedLog {
        let mut log = CommittedLog::from_ids((1..n).map(BlockId::test));
        log.trim(keep);
        log
    }

    fn sample_image() -> LedgerImage {
        let mut store = KvStore::with_records(1000);
        for k in 0..200u64 {
            store.put(k * 3, k * k + 1);
        }
        LedgerImage::capture(&store, &log(40, 16))
    }

    #[test]
    fn payload_roundtrip_reproduces_root_and_chain() {
        let img = sample_image();
        let back = LedgerImage::decode_exact(&img.encoded()).expect("decode");
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
            LedgerImage::capture(&a, &log).encoded(),
            LedgerImage::capture(&b, &log).encoded()
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
        let back = LedgerImage::decode_exact(&tampered.encoded()).expect("well-formed");
        assert_ne!(back.state_root, img.state_root);
    }

    /// Every hostile image fails the one decoder twice: as a payload a
    /// peer served, and framed, CRC and all, inside a checkpoint file,
    /// which then reads as corrupt.
    #[test]
    fn hostile_payloads_rejected() {
        let img = sample_image();
        let payload = img.encoded();
        let checkpoint = |image: &[u8]| -> Result<Checkpoint, StorageError> {
            let mut bytes = CHECKPOINT_MAGIC.to_vec();
            put_frame(&mut bytes, |out| {
                (7u64, View(3)).encode(out);
                None::<Certificate>.encode(out);
                out.extend_from_slice(image);
                img.state_root.encode(out);
            });
            let (disk, path) = (Disk::memory(), Path::new("ckpt-000000000007.ckpt"));
            disk.create(path).unwrap().write_all(&bytes).unwrap();
            Checkpoint::read(&disk, path)
        };
        assert_eq!(checkpoint(&payload).unwrap().image, img, "the honest image reads back");
        let rejected = |what: &str, bad: &[u8], want: CodecError| {
            assert_eq!(LedgerImage::decode_exact(bad), Err(want), "{what}");
            assert!(
                matches!(
                    checkpoint(bad),
                    Err(StorageError::Corrupt { detail: "undecodable checkpoint", .. })
                ),
                "{what}, in a checkpoint"
            );
        };
        let inconsistent = |context| CodecError::Inconsistent { context };

        // Unsorted entries.
        let mut shuffled = img.clone();
        shuffled.entries.swap(0, 1);
        rejected("unsorted", &shuffled.encoded(), inconsistent("LedgerImage.entries"));

        // Hostile logs. The log follows the key-sorted entries; its
        // header is the length, the base hash and the window's length.
        let log_at = 16 + 16 * img.entries.len();
        let window = img.log.ids().len() as u64;
        let patched = |at: usize, bytes: &[u8]| {
            let mut p = payload.clone();
            p[at..at + bytes.len()].copy_from_slice(bytes);
            p
        };
        rejected("empty", &patched(log_at, &0u64.to_be_bytes()), inconsistent("CommittedLog.len"));
        let short = (window - 1).to_be_bytes();
        rejected(
            "window past the length",
            &patched(log_at, &short),
            inconsistent("CommittedLog.window"),
        );
        // Hashes that do not chain: from the base, between entries, an id
        // swapped, or from genesis for a window that starts there.
        let hashes = inconsistent("CommittedLog.hashes");
        rejected("base", &patched(log_at + 8, &[0xAB; 4]), hashes.clone());
        rejected("entry hash", &patched(log_at + 48 + 5 * 64 + 40, &[0xAB; 4]), hashes.clone());
        rejected("an id swapped", &patched(log_at + 48 + 5 * 64, &[0xAB; 4]), hashes.clone());
        let mut anchorless = img.clone();
        anchorless.log = log(3, 8);
        let mut forged = anchorless.encoded();
        forged[log_at + 48] ^= 1; // genesis's id
        rejected("genesis forged", &forged, hashes);
        assert!(LedgerImage::decode_exact(&anchorless.encoded()).is_ok());

        // Truncation and trailing bytes.
        rejected("truncated", &payload[..payload.len() - 1], CodecError::UnexpectedEof);
        let mut trailing = payload.clone();
        trailing.push(0);
        rejected("trailing", &trailing, CodecError::TrailingBytes { remaining: 1 });
    }
}
