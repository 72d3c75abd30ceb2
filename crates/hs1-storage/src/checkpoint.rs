//! Ledger checkpoints: a [`LedgerImage`] at a consensus position, letting
//! recovery skip journal replay of everything behind it (and the journal
//! truncate its old segments).
//!
//! File layout: `ckpt-<journal_seq>.ckpt`, the magic and one frame
//! (`frame.rs`, as a journal record is framed):
//!
//! ```text
//! [8-byte magic "HS1CKPT2"][u32 len][u32 crc32(payload)][payload]
//! payload = [u64 journal_seq][u64 view][Option<Certificate> high_cert]
//!           [LedgerImage][Digest state_root]
//! ```
//!
//! The image's bytes are what state sync serves. A file whose frame or
//! image does not read (see `image.rs`), or whose stored root is not the
//! root of its entries, is corrupt. No reader of the older magic is kept.
//!
//! Writes go through a temp file + rename so a crash mid-checkpoint
//! leaves either the old checkpoint or the new one, never a half file;
//! a corrupt newest checkpoint falls back to an older one.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::disk::{Disk, Numbered};
use crate::frame::{put_frame, read_frame};
use crate::image::LedgerImage;
use crate::StorageError;
use hs1_crypto::Digest;
use hs1_types::codec::{CodecError, Decode, Encode, Reader};
use hs1_types::{Certificate, View};

/// Magic bytes opening every checkpoint file.
pub(crate) const CHECKPOINT_MAGIC: [u8; 8] = *b"HS1CKPT2";

/// Checkpoint files, numbered by the journal seq they cover.
pub(crate) const CHECKPOINTS: Numbered = Numbered { prefix: "ckpt-", suffix: ".ckpt" };

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
    /// The committed store and the chain it is the state of.
    pub image: LedgerImage,
}

impl Encode for Checkpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.journal_seq.encode(out);
        self.view.encode(out);
        self.high_cert.encode(out);
        self.image.encode(out);
        self.image.state_root.encode(out);
    }
}

impl Decode for Checkpoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let ckpt = Checkpoint {
            journal_seq: u64::decode(r)?,
            view: View::decode(r)?,
            high_cert: Option::decode(r)?,
            image: LedgerImage::decode(r)?,
        };
        if Digest::decode(r)? != ckpt.image.state_root {
            return Err(CodecError::Inconsistent { context: "Checkpoint.state_root" });
        }
        Ok(ckpt)
    }
}

impl Checkpoint {
    /// Durably write this checkpoint into `dir` on `disk` and delete older
    /// checkpoint files. Returns the final path.
    pub fn write(&self, disk: &Disk, dir: &Path) -> Result<PathBuf, StorageError> {
        disk.create_dir_all(dir)?;
        let mut bytes = CHECKPOINT_MAGIC.to_vec();
        put_frame(&mut bytes, |out| self.encode(out));

        let final_path = CHECKPOINTS.path(dir, self.journal_seq);
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

        for (seq, path) in CHECKPOINTS.list(disk, dir)? {
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
        if !bytes.starts_with(&CHECKPOINT_MAGIC) {
            return Err(corrupt("bad checkpoint magic"));
        }
        let (payload, end) =
            read_frame(&bytes, CHECKPOINT_MAGIC.len(), u32::MAX).map_err(corrupt)?;
        if end != bytes.len() {
            return Err(corrupt("trailing bytes after the frame"));
        }
        Checkpoint::decode_exact(payload).map_err(|_| corrupt("undecodable checkpoint"))
    }

    /// `journal_seq` of the newest checkpoint *file* in `dir` on `disk`, by name
    /// alone — no read or validation. A cheap staleness probe for caches
    /// (e.g. the snapshot server) that would otherwise re-decode a
    /// multi-megabyte checkpoint just to learn nothing changed.
    pub fn latest_seq(disk: &Disk, dir: &Path) -> Result<Option<u64>, StorageError> {
        Ok(CHECKPOINTS.list(disk, dir)?.last().map(|(seq, _)| *seq))
    }

    /// Newest valid checkpoint in `dir` on `disk`, skipping corrupt ones
    /// (newest first). `None` when no valid checkpoint exists.
    pub fn load_latest(disk: &Disk, dir: &Path) -> Result<Option<Checkpoint>, StorageError> {
        for (_, path) in CHECKPOINTS.list(disk, dir)?.into_iter().rev() {
            match Checkpoint::read(disk, &path) {
                Ok(ckpt) => return Ok(Some(ckpt)),
                Err(StorageError::Corrupt { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use hs1_ledger::KvStore;
    use hs1_types::CommittedLog;
    use std::fs;

    fn sample(journal_seq: u64) -> Checkpoint {
        let mut store = KvStore::with_records(100);
        store.put(7, 700);
        store.put(3, 42);
        let mut log = CommittedLog::from_ids((1..40).map(hs1_types::BlockId::test));
        log.trim(8);
        let image = LedgerImage::capture(&store, &log);
        Checkpoint { journal_seq, view: View(9), high_cert: Some(Certificate::genesis()), image }
    }

    #[test]
    fn write_read_roundtrip() {
        let tmp = TempDir::new("ckpt-roundtrip");
        let ckpt = sample(41);
        let path = ckpt.write(&Disk::default(), tmp.path()).unwrap();
        let back = Checkpoint::read(&Disk::default(), &path).unwrap();
        assert_eq!(back, ckpt);
        let store = back.image.restore_store();
        assert_eq!(store.get(3), Some(42));
        assert_eq!(store.get(7), Some(700));
        assert_eq!(store.state_root(), ckpt.image.state_root);
    }

    #[test]
    fn newer_checkpoint_replaces_older() {
        let tmp = TempDir::new("ckpt-replace");
        sample(10).write(&Disk::default(), tmp.path()).unwrap();
        sample(20).write(&Disk::default(), tmp.path()).unwrap();
        let files = CHECKPOINTS.list(&Disk::default(), tmp.path()).unwrap();
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

    #[test]
    fn hostile_logs_are_rejected_on_read() {
        let tmp = TempDir::new("ckpt-hostile");
        let ckpt = sample(5);
        let payload = ckpt.encoded();
        // The image's log is followed only by the 32-byte state root.
        let log_at = payload.len() - 32 - ckpt.image.log.encoded().len();
        let window_len = ckpt.image.log.ids().len() as u64;
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
            assert!(
                matches!(
                    Checkpoint::decode_exact(&bad),
                    Err(CodecError::Inconsistent { context }) if context.starts_with("CommittedLog.")
                ),
                "{what}: the log is what fails"
            );
            let mut bytes = CHECKPOINT_MAGIC.to_vec();
            put_frame(&mut bytes, |out| out.extend_from_slice(&bad));
            let path = CHECKPOINTS.path(tmp.path(), 5);
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
