//! Ledger checkpoints: a serialized [`KvStore`] image plus the committed
//! log and consensus position, letting recovery skip journal replay of
//! everything behind it (and the journal truncate its old segments).
//!
//! File layout: `ckpt-<journal_seq>.ckpt` containing
//!
//! ```text
//! [8-byte magic "HS1CKPT2"][u32 len][u32 crc32(payload)][payload]
//! payload = [u64 journal_seq][u64 view][Option<Certificate> high_cert]
//!           [u64 record_count][Vec<(u64,u64)> entries, key-sorted]
//!           [CommittedLog: u64 len][Digest base][Vec<(BlockId, Digest)> window]
//!           [Digest state_root]
//! ```
//!
//! The log is O(window), not O(history): the chain's length, its running
//! hash just below the window, and the window's ids, each with the hash
//! after it. A replica's storage writes its newest `CommittedLog::KEEP`
//! ids, so the window depends on the chain's height alone. A file whose
//! log does not decode (empty, a window longer than the log, hashes that
//! do not chain) is corrupt. No reader of the older magic is kept.
//!
//! Writes go through a temp file + rename so a crash mid-checkpoint
//! leaves either the old checkpoint or the new one, never a half file;
//! a corrupt newest checkpoint falls back to an older one.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::crc32::crc32;
use crate::disk::Disk;
use crate::StorageError;
use hs1_crypto::Digest;
use hs1_ledger::KvStore;
use hs1_types::codec::{CodecError, Decode, Encode, Reader};
use hs1_types::{Certificate, CommittedLog, View};

/// Magic bytes opening every checkpoint file.
pub(crate) const CHECKPOINT_MAGIC: [u8; 8] = *b"HS1CKPT2";

/// A durable snapshot of a replica's committed state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Checkpoint {
    /// Journal records with `seq <= journal_seq` are covered by this
    /// snapshot; replay starts after it.
    pub journal_seq: u64,
    /// Highest view entered when the snapshot was taken.
    pub view: View,
    /// Highest certificate adopted when the snapshot was taken.
    pub high_cert: Option<Certificate>,
    /// Logical record count of the committed store.
    pub record_count: u64,
    /// Materialized writes, sorted by key (deterministic encoding).
    pub entries: Vec<(u64, u64)>,
    /// The committed chain the store is the state of.
    pub log: CommittedLog,
    /// `state_root()` of the committed store (integrity cross-check).
    pub state_root: Digest,
}

impl Checkpoint {
    /// Snapshot `store` + `log` at consensus position (`view`,
    /// `high_cert`), covering the journal through `journal_seq`.
    pub fn capture(
        journal_seq: u64,
        view: View,
        high_cert: Option<Certificate>,
        store: &KvStore,
        log: &CommittedLog,
    ) -> Checkpoint {
        let mut entries: Vec<(u64, u64)> = store.materialized().collect();
        entries.sort_unstable();
        Checkpoint {
            journal_seq,
            view,
            high_cert,
            record_count: store.record_count(),
            entries,
            log: log.clone(),
            state_root: store.state_root(),
        }
    }

    /// Rebuild the committed store this checkpoint snapshotted.
    pub(crate) fn restore_store(&self) -> KvStore {
        KvStore::from_parts(self.record_count, self.entries.iter().copied())
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.journal_seq.encode(&mut out);
        self.view.encode(&mut out);
        self.high_cert.encode(&mut out);
        self.record_count.encode(&mut out);
        self.entries.encode(&mut out);
        self.log.encode(&mut out);
        self.state_root.encode(&mut out);
        out
    }

    fn decode_payload(payload: &[u8]) -> Result<Checkpoint, CodecError> {
        let mut r = Reader::new(payload);
        let ckpt = Checkpoint {
            journal_seq: u64::decode(&mut r)?,
            view: View::decode(&mut r)?,
            high_cert: Option::decode(&mut r)?,
            record_count: u64::decode(&mut r)?,
            entries: Vec::decode(&mut r)?,
            log: CommittedLog::decode(&mut r)?,
            state_root: Digest::decode(&mut r)?,
        };
        if r.remaining() != 0 {
            return Err(CodecError::TrailingBytes { remaining: r.remaining() });
        }
        Ok(ckpt)
    }

    /// Durably write this checkpoint into `dir` on `disk` and delete older
    /// checkpoint files. Returns the final path.
    pub fn write(&self, disk: &Disk, dir: &Path) -> Result<PathBuf, StorageError> {
        disk.create_dir_all(dir)?;
        let payload = self.encode_payload();
        let mut bytes = Vec::with_capacity(payload.len() + 16);
        bytes.extend_from_slice(&CHECKPOINT_MAGIC);
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_be_bytes());
        bytes.extend_from_slice(&payload);

        let final_path = checkpoint_path(dir, self.journal_seq);
        let tmp_path = final_path.with_extension("tmp");
        let mut f = disk.create(&tmp_path)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
        disk.rename(&tmp_path, &final_path)?;
        // The rename's directory entry must be durable *before* anything
        // this checkpoint is the sole cover for (older checkpoints, the
        // journal segments behind it) gets deleted — otherwise a power
        // loss could persist the unlinks but not the rename.
        disk.sync_dir(dir)?;

        for (seq, path) in checkpoint_files(disk, dir)? {
            if seq < self.journal_seq {
                let _ = disk.remove(&path);
            }
        }
        Ok(final_path)
    }

    /// Read and validate one checkpoint file.
    pub(crate) fn read(disk: &Disk, path: &Path) -> Result<Checkpoint, StorageError> {
        let corrupt = |detail: &'static str| StorageError::Corrupt {
            file: path.display().to_string(),
            offset: 0,
            detail,
        };
        let bytes = disk.read(path)?;
        if bytes.len() < 16 || bytes[..8] != CHECKPOINT_MAGIC {
            return Err(corrupt("bad checkpoint magic"));
        }
        let len = u32::from_be_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_be_bytes(bytes[12..16].try_into().expect("4 bytes"));
        if bytes.len() != 16 + len {
            return Err(corrupt("checkpoint length mismatch"));
        }
        let payload = &bytes[16..];
        if crc32(payload) != crc {
            return Err(corrupt("checkpoint CRC mismatch"));
        }
        let ckpt = Self::decode_payload(payload).map_err(|_| corrupt("undecodable checkpoint"))?;
        if ckpt.restore_store().state_root() != ckpt.state_root {
            return Err(corrupt("checkpoint state root mismatch"));
        }
        Ok(ckpt)
    }

    /// `journal_seq` of the newest checkpoint *file* in `dir` on `disk`, by name
    /// alone — no read or validation. A cheap staleness probe for caches
    /// (e.g. the snapshot server) that would otherwise re-decode a
    /// multi-megabyte checkpoint just to learn nothing changed.
    pub fn latest_seq(disk: &Disk, dir: &Path) -> Result<Option<u64>, StorageError> {
        Ok(checkpoint_files(disk, dir)?.last().map(|(seq, _)| *seq))
    }

    /// Newest valid checkpoint in `dir` on `disk`, skipping corrupt ones
    /// (newest first). `None` when no valid checkpoint exists.
    pub fn load_latest(disk: &Disk, dir: &Path) -> Result<Option<Checkpoint>, StorageError> {
        let mut files = checkpoint_files(disk, dir)?;
        files.reverse(); // newest first
        for (_, path) in files {
            match Checkpoint::read(disk, &path) {
                Ok(ckpt) => return Ok(Some(ckpt)),
                Err(StorageError::Corrupt { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }
}

fn checkpoint_path(dir: &Path, journal_seq: u64) -> PathBuf {
    dir.join(format!("ckpt-{journal_seq:012}.ckpt"))
}

/// Checkpoint files in `dir`, sorted oldest first.
pub(crate) fn checkpoint_files(
    disk: &Disk,
    dir: &Path,
) -> Result<Vec<(u64, PathBuf)>, StorageError> {
    let mut out = Vec::new();
    for path in disk.list(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if let Some(seq) = name.strip_prefix("ckpt-").and_then(|s| s.strip_suffix(".ckpt")) {
            if let Ok(seq) = seq.parse::<u64>() {
                out.push((seq, path));
            }
        }
    }
    out.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use std::fs;

    fn sample(journal_seq: u64) -> Checkpoint {
        let mut store = KvStore::with_records(100);
        store.put(7, 700);
        store.put(3, 42);
        let mut log = CommittedLog::from_ids((1..40).map(hs1_types::BlockId::test));
        log.trim(8);
        Checkpoint::capture(journal_seq, View(9), Some(Certificate::genesis()), &store, &log)
    }

    #[test]
    fn write_read_roundtrip() {
        let tmp = TempDir::new("ckpt-roundtrip");
        let ckpt = sample(41);
        let path = ckpt.write(&Disk::default(), tmp.path()).unwrap();
        let back = Checkpoint::read(&Disk::default(), &path).unwrap();
        assert_eq!(back, ckpt);
        let store = back.restore_store();
        assert_eq!(store.get(3), Some(42));
        assert_eq!(store.get(7), Some(700));
        assert_eq!(store.state_root(), ckpt.state_root);
    }

    #[test]
    fn newer_checkpoint_replaces_older() {
        let tmp = TempDir::new("ckpt-replace");
        sample(10).write(&Disk::default(), tmp.path()).unwrap();
        sample(20).write(&Disk::default(), tmp.path()).unwrap();
        let files = checkpoint_files(&Disk::default(), tmp.path()).unwrap();
        assert_eq!(files.len(), 1, "older checkpoint deleted");
        let latest = Checkpoint::load_latest(&Disk::default(), tmp.path()).unwrap().unwrap();
        assert_eq!(latest.journal_seq, 20);
    }

    #[test]
    fn corrupt_checkpoint_rejected_and_skipped() {
        let tmp = TempDir::new("ckpt-corrupt");
        sample(10).write(&Disk::default(), tmp.path()).unwrap();
        let newer = sample(20).write(&Disk::default(), tmp.path()).unwrap();
        // Writing 20 deleted 10; re-create 10 to have a fallback.
        sample(10).write(&Disk::default(), tmp.path()).unwrap();
        // Corrupt the newest in place.
        let mut bytes = fs::read(&newer).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newer, &bytes).unwrap();
        assert!(matches!(
            Checkpoint::read(&Disk::default(), &newer),
            Err(StorageError::Corrupt { .. })
        ));
        // load_latest falls back to the older, valid one.
        let latest = Checkpoint::load_latest(&Disk::default(), tmp.path()).unwrap().unwrap();
        assert_eq!(latest.journal_seq, 10);
    }

    /// A file whose CRC is right but whose log is hostile: empty, a window
    /// longer than the log, or hashes that do not chain from the base.
    #[test]
    fn hostile_logs_are_rejected_on_read() {
        let tmp = TempDir::new("ckpt-hostile");
        let ckpt = sample(5);
        let payload = ckpt.encode_payload();
        // The log is followed only by the 32-byte state root.
        let log_at = payload.len() - 32 - ckpt.log.encoded().len();
        let window_len = ckpt.log.ids().len() as u64;
        let patch = |at: usize, bytes: &[u8]| {
            let mut p = payload.clone();
            p[at..at + bytes.len()].copy_from_slice(bytes);
            p
        };
        for (what, bad) in [
            ("empty", patch(log_at, &0u64.to_be_bytes())),
            ("window past the length", patch(log_at, &(window_len - 1).to_be_bytes())),
            ("base that does not chain", patch(log_at + 8, &[0xAB; 4])),
            ("entry hash that does not chain", patch(log_at + 48 + 3 * 64 + 40, &[0xAB; 4])),
        ] {
            let mut bytes = CHECKPOINT_MAGIC.to_vec();
            bytes.extend_from_slice(&(bad.len() as u32).to_be_bytes());
            bytes.extend_from_slice(&crc32(&bad).to_be_bytes());
            bytes.extend_from_slice(&bad);
            let path = tmp.path().join("ckpt-000000000005.ckpt");
            fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(
                    Checkpoint::read(&Disk::default(), &path),
                    Err(StorageError::Corrupt { detail: "undecodable checkpoint", .. })
                ),
                "{what}"
            );
        }
    }

    #[test]
    fn empty_dir_has_no_checkpoint() {
        let tmp = TempDir::new("ckpt-empty");
        fs::create_dir_all(tmp.path()).unwrap();
        assert!(Checkpoint::load_latest(&Disk::default(), tmp.path()).unwrap().is_none());
    }
}
