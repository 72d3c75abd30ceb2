//! The append-only write-ahead journal: length+CRC-framed records in
//! rotated segment files.
//!
//! Layout on disk (one directory per replica):
//!
//! ```text
//! wal-000000000000.seg     segment whose first record has seq 0
//! wal-000000000417.seg     segment whose first record has seq 417
//! ```
//!
//! Each segment starts with an 8-byte magic, followed by frames:
//!
//! ```text
//! [u32 len][u32 crc32(payload)][payload = JournalRecord encoding]
//! ```
//!
//! Record sequence numbers are implicit: a segment's filename carries the
//! seq of its first record, and rotation names the next segment with the
//! next seq, so numbering stays dense across rotations and prunes.
//!
//! Durability is batched: [`SyncPolicy`] controls how many appends may sit
//! in the OS page cache before an `fsync`. Recovery tolerates exactly the
//! failures this can produce — a *torn tail* (partial or CRC-invalid final
//! frames in the **last** segment) is truncated; corruption anywhere else
//! is a hard [`StorageError::Corrupt`].

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::crc32::crc32;
use crate::disk::{Disk, DiskFile};
use crate::record::JournalRecord;
use crate::StorageError;
use hs1_types::codec::{Decode, Encode};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"HS1WAL01";

/// Largest frame recovery will accept (matches the codec's own sequence
/// sanity limit; a frame beyond this is corruption, not data).
const MAX_FRAME_BYTES: u32 = 64 << 20;

/// When appended records are flushed to stable storage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncPolicy {
    /// `fsync` after every append (maximum durability, minimum throughput).
    Always,
    /// `fsync` after every `n` appends (bounded loss window; the default).
    EveryN(u32),
    /// Never `fsync` explicitly (OS decides; crash may tear the tail).
    Never,
}

/// Journal tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct JournalConfig {
    /// Rotate to a fresh segment once the active one exceeds this size.
    pub segment_bytes: u64,
    pub sync: SyncPolicy,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig { segment_bytes: 1 << 20, sync: SyncPolicy::EveryN(32) }
    }
}

/// What [`Journal::open`] found on disk.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every intact record, `(seq, record)`, in append order.
    pub records: Vec<(u64, JournalRecord)>,
    /// Bytes dropped from a torn tail (0 on a clean shutdown).
    pub truncated_bytes: u64,
}

/// Summary of a streaming replay ([`Journal::open_streaming`]).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ReplayStats {
    /// Intact records streamed to the sink.
    pub records: u64,
    /// Bytes dropped from a torn tail (0 on a clean shutdown).
    pub truncated_bytes: u64,
}

/// Per-record sink for streaming replay. Returning an error aborts the
/// open (fail-stop; used for the checkpoint-coverage continuity check).
pub(crate) type ReplaySink<'a> = dyn FnMut(u64, JournalRecord) -> Result<(), StorageError> + 'a;

/// The append half of the write-ahead log.
#[derive(Debug)]
pub struct Journal {
    disk: Disk,
    dir: PathBuf,
    cfg: JournalConfig,
    writer: BufWriter<DiskFile>,
    /// Bytes written to the active segment (header included).
    seg_bytes: u64,
    next_seq: u64,
    unsynced: u32,
    /// Total `fsync` calls issued (metric).
    pub fsyncs: u64,
    /// Total frame bytes appended since open (metric).
    pub bytes_appended: u64,
}

impl Journal {
    /// Open (or create) the journal in `dir` on the host's file system,
    /// collecting every intact record into a [`Replay`] and truncating a
    /// torn tail in place.
    ///
    /// Prefer `Journal::open_streaming` when the records are folded and
    /// discarded (recovery): collecting a long journal into a `Vec` first
    /// costs O(history) memory for no benefit.
    pub fn open(dir: &Path, cfg: JournalConfig) -> Result<(Journal, Replay), StorageError> {
        let mut replay = Replay::default();
        let (journal, stats) =
            Self::open_streaming(&Disk::default(), dir, cfg, &mut |seq, rec| {
                replay.records.push((seq, rec));
                Ok(())
            })?;
        replay.truncated_bytes = stats.truncated_bytes;
        Ok((journal, replay))
    }

    /// Open (or create) the journal in `dir` on `disk`, streaming every
    /// intact record through `sink` in append order (torn tails truncated
    /// in place, exactly as [`Journal::open`]). Recovery of an
    /// arbitrarily long journal folds each record as it is decoded and
    /// never materializes the record list.
    pub(crate) fn open_streaming(
        disk: &Disk,
        dir: &Path,
        cfg: JournalConfig,
        sink: &mut ReplaySink<'_>,
    ) -> Result<(Journal, ReplayStats), StorageError> {
        disk.create_dir_all(dir)?;
        let mut segments = segment_files(disk, dir)?;
        if segments.is_empty() {
            let path = segment_path(dir, 0);
            new_segment(disk, &path)?;
            disk.sync_dir(dir)?;
            segments.push((0, path));
        }

        let mut stats = ReplayStats::default();
        let (mut in_active, mut seg_bytes) = (0, 0);
        let last_idx = segments.len() - 1;
        for (idx, (start_seq, path)) in segments.iter().enumerate() {
            let is_last = idx == last_idx;
            (in_active, seg_bytes) =
                read_segment(disk, path, *start_seq, is_last, sink, &mut stats)?;
        }

        let (active_start, active_path) = segments.last().expect("at least one segment");
        let journal = Journal {
            disk: disk.clone(),
            dir: dir.to_path_buf(),
            cfg,
            writer: BufWriter::new(disk.append(active_path)?),
            seg_bytes,
            next_seq: active_start + in_active,
            unsynced: 0,
            fsyncs: 0,
            bytes_appended: 0,
        };
        Ok((journal, stats))
    }

    /// Sequence number the next append will get.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append one record; returns its sequence number.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<u64, StorageError> {
        let payload = rec.encoded();
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&crc32(&payload).to_be_bytes());
        frame.extend_from_slice(&payload);
        self.writer.write_all(&frame)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.seg_bytes += frame.len() as u64;
        self.bytes_appended += frame.len() as u64;
        self.unsynced += 1;
        match self.cfg.sync {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::EveryN(n) if self.unsynced >= n => self.sync()?,
            _ => {}
        }
        if self.seg_bytes >= self.cfg.segment_bytes {
            self.rotate()?;
        }
        Ok(seq)
    }

    /// Flush buffered frames and `fsync` the active segment.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.writer.flush()?;
        if self.unsynced > 0 {
            self.writer.get_ref().sync_data()?;
            self.unsynced = 0;
            self.fsyncs += 1;
        }
        Ok(())
    }

    /// Delete every non-active segment whose records all have
    /// `seq <= upto` (they are covered by a durable checkpoint).
    pub(crate) fn prune_upto(&mut self, upto: u64) -> Result<usize, StorageError> {
        let segments = segment_files(&self.disk, &self.dir)?;
        let mut removed = 0;
        // Segment i covers [start_i, start_{i+1}); the last (active)
        // segment is never deleted.
        for pair in segments.windows(2) {
            let (_, ref path) = pair[0];
            let (next_start, _) = pair[1];
            if next_start <= upto + 1 {
                self.disk.remove(path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    fn rotate(&mut self) -> Result<(), StorageError> {
        self.sync()?;
        let path = segment_path(&self.dir, self.next_seq);
        new_segment(&self.disk, &path)?;
        self.disk.sync_dir(&self.dir)?;
        self.writer = BufWriter::new(self.disk.append(&path)?);
        self.seg_bytes = SEGMENT_MAGIC.len() as u64;
        Ok(())
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

fn segment_path(dir: &Path, start_seq: u64) -> PathBuf {
    dir.join(format!("wal-{start_seq:012}.seg"))
}

/// Create `path` holding only the segment header, durably. Its directory
/// entry is the caller's to sync.
fn new_segment(disk: &Disk, path: &Path) -> std::io::Result<()> {
    let mut f = disk.create(path)?;
    f.write_all(&SEGMENT_MAGIC)?;
    f.sync_data()
}

/// Segment files in `dir`, sorted by starting sequence number.
pub(crate) fn segment_files(disk: &Disk, dir: &Path) -> Result<Vec<(u64, PathBuf)>, StorageError> {
    let mut out = Vec::new();
    for path in disk.list(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if let Some(seq) = name.strip_prefix("wal-").and_then(|s| s.strip_suffix(".seg")) {
            if let Ok(seq) = seq.parse::<u64>() {
                out.push((seq, path));
            }
        }
    }
    out.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// Read one segment, streaming each intact record into `sink`. A torn
/// tail (incomplete or CRC-invalid trailing frames) is truncated in
/// place — but only in the last segment; anywhere else it is corruption.
/// Returns the number of records emitted from this segment and the bytes
/// it keeps. Memory is bounded by the segment size, never by total
/// journal length.
fn read_segment(
    disk: &Disk,
    path: &Path,
    start_seq: u64,
    is_last: bool,
    sink: &mut ReplaySink<'_>,
    stats: &mut ReplayStats,
) -> Result<(u64, u64), StorageError> {
    let buf = disk.read(path)?;

    let corrupt = |offset: usize, detail: &'static str| StorageError::Corrupt {
        file: path.display().to_string(),
        offset: offset as u64,
        detail,
    };
    let mut truncate_at: Option<usize> = None;

    if buf.len() < SEGMENT_MAGIC.len() || buf[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        if is_last {
            // Crash during rotation: the header never hit the disk whole.
            truncate_at = Some(0);
        } else {
            return Err(corrupt(0, "bad segment magic"));
        }
    }

    let mut pos = SEGMENT_MAGIC.len();
    let mut seq = start_seq;
    if truncate_at.is_none() {
        loop {
            if pos == buf.len() {
                break; // clean end
            }
            let frame_start = pos;
            if buf.len() - pos < 8 {
                if is_last {
                    truncate_at = Some(frame_start);
                    break;
                }
                return Err(corrupt(frame_start, "partial frame header"));
            }
            let len = u32::from_be_bytes(buf[pos..pos + 4].try_into().expect("4 bytes"));
            let crc = u32::from_be_bytes(buf[pos + 4..pos + 8].try_into().expect("4 bytes"));
            pos += 8;
            if len > MAX_FRAME_BYTES || buf.len() - pos < len as usize {
                if is_last {
                    truncate_at = Some(frame_start);
                    break;
                }
                return Err(corrupt(frame_start, "partial frame payload"));
            }
            let payload = &buf[pos..pos + len as usize];
            pos += len as usize;
            if crc32(payload) != crc {
                if is_last {
                    truncate_at = Some(frame_start);
                    break;
                }
                return Err(corrupt(frame_start, "frame CRC mismatch"));
            }
            // CRC-valid payload that fails to decode is structural
            // corruption, not a tear — always fatal.
            let record = JournalRecord::decode_exact(payload)
                .map_err(|_| corrupt(frame_start, "undecodable record"))?;
            sink(seq, record)?;
            stats.records += 1;
            seq += 1;
        }
    }

    let mut kept = buf.len();
    if let Some(at) = truncate_at {
        stats.truncated_bytes += (buf.len() - at) as u64;
        if at < SEGMENT_MAGIC.len() {
            // Rewrite the header so the segment is appendable again.
            new_segment(disk, path)?;
            kept = SEGMENT_MAGIC.len();
        } else {
            disk.truncate(path, at as u64)?;
            kept = at;
        }
    }
    Ok((seq - start_seq, kept as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use hs1_types::View;
    use std::fs::{self, File, OpenOptions};

    fn rec(v: u64) -> JournalRecord {
        JournalRecord::ViewChange(View(v))
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let tmp = TempDir::new("journal-basic");
        {
            let (mut j, replay) = Journal::open(tmp.path(), JournalConfig::default()).unwrap();
            assert!(replay.records.is_empty());
            for v in 0..10 {
                assert_eq!(j.append(&rec(v)).unwrap(), v);
            }
            j.sync().unwrap();
        }
        let (j, replay) = Journal::open(tmp.path(), JournalConfig::default()).unwrap();
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.records.len(), 10);
        for (i, (seq, r)) in replay.records.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(*r, rec(i as u64));
        }
        assert_eq!(j.next_seq(), 10);
    }

    #[test]
    fn rotation_keeps_sequence_dense() {
        let tmp = TempDir::new("journal-rotate");
        let cfg = JournalConfig { segment_bytes: 64, sync: SyncPolicy::Never };
        {
            let (mut j, _) = Journal::open(tmp.path(), cfg).unwrap();
            for v in 0..50 {
                j.append(&rec(v)).unwrap();
            }
            assert!(
                segment_files(&Disk::default(), tmp.path()).unwrap().len() > 1,
                "tiny segments force rotation"
            );
        }
        let (j, replay) = Journal::open(tmp.path(), cfg).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (0..50).collect::<Vec<_>>());
        assert_eq!(j.next_seq(), 50);
    }

    #[test]
    fn torn_tail_is_truncated_and_journal_reusable() {
        let tmp = TempDir::new("journal-torn");
        {
            let (mut j, _) = Journal::open(tmp.path(), JournalConfig::default()).unwrap();
            for v in 0..5 {
                j.append(&rec(v)).unwrap();
            }
            j.sync().unwrap();
        }
        // Tear the tail: chop the last 3 bytes of the only segment.
        let seg = segment_files(&Disk::default(), tmp.path()).unwrap().pop().unwrap().1;
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 3).unwrap();

        let (mut j, replay) = Journal::open(tmp.path(), JournalConfig::default()).unwrap();
        assert_eq!(replay.records.len(), 4, "last record dropped");
        assert!(replay.truncated_bytes > 0);
        assert_eq!(j.next_seq(), 4);
        // The journal keeps working after truncation.
        assert_eq!(j.append(&rec(99)).unwrap(), 4);
        j.sync().unwrap();
        let (_, replay) = Journal::open(tmp.path(), JournalConfig::default()).unwrap();
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.records[4].1, rec(99));
    }

    #[test]
    fn corrupt_crc_in_tail_truncates_corrupt_middle_rejects() {
        let tmp = TempDir::new("journal-crc");
        {
            let (mut j, _) = Journal::open(tmp.path(), JournalConfig::default()).unwrap();
            for v in 0..6 {
                j.append(&rec(v)).unwrap();
            }
            j.sync().unwrap();
        }
        let seg = segment_files(&Disk::default(), tmp.path()).unwrap().pop().unwrap().1;
        let bytes = fs::read(&seg).unwrap();

        // Flip one payload byte of the final frame: torn tail → truncated.
        let mut tail_bad = bytes.clone();
        let last = tail_bad.len() - 1;
        tail_bad[last] ^= 0xFF;
        fs::write(&seg, &tail_bad).unwrap();
        let (_, replay) = Journal::open(tmp.path(), JournalConfig::default()).unwrap();
        assert_eq!(replay.records.len(), 5, "only the corrupted final record dropped");

        // Flip a byte in the *first* frame instead, with valid frames
        // after it: recovery rejects only once the segment is not last, so
        // simulate by adding a second segment after the corrupted one.
        fs::write(&seg, &bytes).unwrap();
        let mut mid_bad = bytes.clone();
        mid_bad[SEGMENT_MAGIC.len() + 9] ^= 0xFF; // payload byte of frame 0
        fs::write(&seg, &mid_bad).unwrap();
        let next = segment_path(tmp.path(), 6);
        let mut f = File::create(&next).unwrap();
        f.write_all(&SEGMENT_MAGIC).unwrap();
        drop(f);
        let err = Journal::open(tmp.path(), JournalConfig::default()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { detail: "frame CRC mismatch", .. }), "{err}");
    }

    #[test]
    fn prune_removes_covered_segments_only() {
        let tmp = TempDir::new("journal-prune");
        let cfg = JournalConfig { segment_bytes: 64, sync: SyncPolicy::Never };
        let (mut j, _) = Journal::open(tmp.path(), cfg).unwrap();
        for v in 0..60 {
            j.append(&rec(v)).unwrap();
        }
        let before = segment_files(&Disk::default(), tmp.path()).unwrap().len();
        assert!(before > 2);
        // Prune everything covered up to seq 30: every segment entirely
        // below 30 goes; the active one stays no matter what.
        let removed = j.prune_upto(30).unwrap();
        assert!(removed > 0);
        assert_eq!(segment_files(&Disk::default(), tmp.path()).unwrap().len(), before - removed);
        let (_, replay) = Journal::open(tmp.path(), cfg).unwrap();
        assert!(replay.records.iter().all(|(s, _)| *s > 20), "early records gone");
        assert!(replay.records.iter().any(|(s, _)| *s == 59), "recent records kept");
    }

    #[test]
    fn sync_policy_batches_fsyncs() {
        let tmp = TempDir::new("journal-sync");
        let cfg = JournalConfig { segment_bytes: 1 << 20, sync: SyncPolicy::EveryN(8) };
        let (mut j, _) = Journal::open(tmp.path(), cfg).unwrap();
        for v in 0..32 {
            j.append(&rec(v)).unwrap();
        }
        assert_eq!(j.fsyncs, 4, "32 appends at EveryN(8) = 4 fsyncs");

        let tmp2 = TempDir::new("journal-sync-always");
        let cfg = JournalConfig { segment_bytes: 1 << 20, sync: SyncPolicy::Always };
        let (mut j2, _) = Journal::open(tmp2.path(), cfg).unwrap();
        for v in 0..5 {
            j2.append(&rec(v)).unwrap();
        }
        assert_eq!(j2.fsyncs, 5);
    }
}
