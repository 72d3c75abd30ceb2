//! [`ReplicaStorage`]: the journal-backed [`Persistence`] implementation
//! a durable replica installs after recovery.
//!
//! Error policy: journal append/sync failures are **fail-stop** (panic) —
//! a replica that silently loses its write-ahead log would violate the
//! recovery safety argument the moment it restarts. Checkpoint failures
//! are tolerated: the journal stays complete, so the only cost is replay
//! time and disk (the failure is counted in
//! [`ReplicaStorage::checkpoint_failures`]).

use std::path::PathBuf;
use std::sync::Arc;

use crate::checkpoint::Checkpoint;
use crate::disk::Disk;
use crate::image::LedgerImage;
use crate::journal::{Journal, JournalConfig};
use crate::record::JournalRecord;
use crate::recovery::{recover, RecoveryInfo};
use crate::StorageError;
use hs1_core::persist::{Persistence, RecoveredState};
use hs1_ledger::KvStore;
use hs1_obs::Obs;
use hs1_types::{Block, BlockId, Certificate, CommittedLog, View};

/// Tuning for a replica's durable storage.
#[derive(Clone, Copy, Debug)]
pub struct StorageConfig {
    /// Segment rotation and fsync batching of the journal.
    pub journal: JournalConfig,
    /// Take a checkpoint (and truncate journal segments behind it) at
    /// every committed height that is a multiple of this, so honest
    /// replicas checkpoint the same heights. `0` disables checkpointing.
    pub checkpoint_every: u64,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig { journal: JournalConfig::default(), checkpoint_every: 512 }
    }
}

/// Journal + checkpoint storage for one replica.
pub struct ReplicaStorage {
    disk: Disk,
    dir: PathBuf,
    journal: Journal,
    checkpoint_every: u64,
    commits_since_checkpoint: u64,
    /// Seq of the most recent append (checkpoint coverage marker).
    last_seq: Option<u64>,
    /// Highest journaled view (goes into checkpoints).
    view: View,
    /// Highest journaled certificate (goes into checkpoints).
    high_cert: Option<Certificate>,
    /// The committed chain as journaled (goes into checkpoints): built by
    /// recovery, advanced by `on_commit`, replaced by `install_snapshot`,
    /// and trimmed at each checkpoint to [`CommittedLog::KEEP`] ids.
    log: CommittedLog,
    /// Checkpoint attempts that failed (journal kept intact).
    pub checkpoint_failures: u64,
    /// Segment-prune attempts that failed after a successful checkpoint
    /// (costs disk only; the checkpoint itself is counted as written).
    pub prune_failures: u64,
    /// Checkpoints successfully written.
    pub checkpoints_written: u64,
    /// Diagnostics from the recovery pass that opened this storage.
    pub recovery_info: RecoveryInfo,
    /// Observability sink (noop unless installed; see `hs1-obs`).
    obs: Obs,
    /// Journal byte/fsync totals already reported to `obs` (delta cursor).
    bytes_reported: u64,
    fsyncs_reported: u64,
}

impl ReplicaStorage {
    /// Open `dir` on `disk`, running recovery. Returns the state to feed
    /// [`hs1_core::Replica::restore`] (call it *before*
    /// `set_persistence`, so the replay is not re-journaled) and the
    /// storage to install afterwards.
    pub fn open(
        disk: &Disk,
        dir: impl Into<PathBuf>,
        cfg: StorageConfig,
    ) -> Result<(RecoveredState, ReplicaStorage), StorageError> {
        let dir = dir.into();
        let recovered = recover(disk, &dir, cfg.journal)?;
        let next = recovered.journal.next_seq();
        let storage = ReplicaStorage {
            disk: disk.clone(),
            dir,
            journal: recovered.journal,
            checkpoint_every: cfg.checkpoint_every,
            commits_since_checkpoint: 0,
            last_seq: next.checked_sub(1),
            view: recovered.state.view,
            high_cert: recovered.state.high_cert.clone(),
            log: recovered.log,
            checkpoint_failures: 0,
            prune_failures: 0,
            checkpoints_written: 0,
            recovery_info: recovered.info,
            obs: Obs::noop(),
            bytes_reported: 0,
            fsyncs_reported: 0,
        };
        Ok((recovered.state, storage))
    }

    /// Durably adopt a state-synced image: journal the consensus
    /// position (view + certificate, with the same sync discipline the
    /// live hooks use), then write the image as the checkpoint. A crash
    /// after this recovers from the installed checkpoint instead of
    /// re-syncing — and the journal gains the coverage record the
    /// recovery continuity check demands.
    ///
    /// Call *after* feeding the image to `Replica::restore` and *before*
    /// installing this storage as the engine's persistence (mirroring
    /// the recovery wiring).
    pub fn install_snapshot(
        &mut self,
        mut image: LedgerImage,
        view: View,
        high_cert: Option<Certificate>,
    ) {
        self.on_view(view);
        if let Some(cert) = high_cert {
            self.on_cert(&cert);
        }
        image.log.trim(CommittedLog::KEEP);
        self.log = image.log.clone();
        self.checkpoint(image);
    }

    /// Report journal byte/fsync growth since the last call.
    fn note_journal(&mut self) {
        if !self.obs.enabled() {
            return;
        }
        let bytes = self.journal.bytes_appended;
        if bytes > self.bytes_reported {
            self.obs.counter("journal_bytes", 0, bytes - self.bytes_reported);
            self.bytes_reported = bytes;
        }
        let fsyncs = self.journal.fsyncs;
        if fsyncs > self.fsyncs_reported {
            self.obs.counter("fsyncs", 0, fsyncs - self.fsyncs_reported);
            self.fsyncs_reported = fsyncs;
        }
    }

    /// `journal.sync()` with the fail-stop policy and fsync latency
    /// attribution (wall time goes to a histogram only — never the trace).
    fn sync_journal(&mut self) {
        let before = self.journal.fsyncs;
        let started = self.obs.enabled().then(std::time::Instant::now);
        if let Err(e) = self.journal.sync() {
            panic!("journal sync failed: {e}");
        }
        if let Some(t0) = started {
            if self.journal.fsyncs > before {
                self.obs.observe_nanos("fsync_ns", t0.elapsed().as_nanos() as u64);
            }
        }
        self.note_journal();
    }

    fn append(&mut self, rec: JournalRecord) {
        match self.journal.append(&rec) {
            Ok(seq) => self.last_seq = Some(seq),
            // Fail-stop: an unwritable journal invalidates recovery.
            Err(e) => panic!("journal append ({}) failed: {e}", rec.kind_name()),
        }
        self.note_journal();
    }

    /// Write `image` as the checkpoint covering everything journaled so
    /// far. Its log is the journaled one, trimmed to its newest
    /// [`CommittedLog::KEEP`] ids: the window depends on the chain's height
    /// alone, so two honest replicas at one height write the same image,
    /// and serve it byte for byte.
    fn checkpoint(&mut self, image: LedgerImage) {
        // The checkpoint claims coverage of everything journaled so far;
        // that claim must not outrun the journal's own durability.
        self.sync_journal();
        let Some(journal_seq) = self.last_seq else { return };
        let mark = JournalRecord::CheckpointMark {
            chain_len: image.log.len() as u64,
            state_root: image.state_root,
        };
        let ckpt =
            Checkpoint { journal_seq, view: self.view, high_cert: self.high_cert.clone(), image };
        match ckpt.write(&self.disk, &self.dir) {
            Ok(_) => {
                self.append(mark);
                let _ = self.journal.sync();
                if self.journal.prune_upto(journal_seq).is_err() {
                    // Pruning is an optimization; a failure only costs
                    // disk (the checkpoint itself succeeded).
                    self.prune_failures += 1;
                }
                self.checkpoints_written += 1;
                self.commits_since_checkpoint = 0;
                self.obs.counter("checkpoints_written", 0, 1);
            }
            Err(_) => {
                // Journal remains complete; recovery just replays more.
                self.checkpoint_failures += 1;
                self.obs.counter("checkpoint_failures", 0, 1);
            }
        }
        self.note_journal();
    }
}

impl Persistence for ReplicaStorage {
    /// Storage emits *metrics only* (fsync count + wall latency, journal
    /// bytes, checkpoint events) — never trace events, so attaching an
    /// observer cannot perturb the simulator's byte-identical traces.
    fn set_observer(&mut self, obs: Obs) {
        self.obs = obs;
    }

    fn on_commit(&mut self, block: &Arc<Block>) {
        self.append(JournalRecord::Decided(block.clone()));
        self.log.push(block.id());
        self.commits_since_checkpoint += 1;
    }

    fn on_speculate(&mut self, block: &Arc<Block>) {
        self.append(JournalRecord::SpecMark(block.clone()));
        // Speculative responses reach clients immediately; make the mark
        // durable before the engine's answer can leave the process.
        self.sync_journal();
    }

    fn on_rollback(&mut self, blocks: usize) {
        self.append(JournalRecord::SpecRollback { blocks: blocks as u32 });
    }

    fn on_cert(&mut self, cert: &Certificate) {
        let better = self.high_cert.as_ref().map(|h| cert.rank() > h.rank()).unwrap_or(true);
        if better {
            self.high_cert = Some(cert.clone());
        }
        self.append(JournalRecord::Cert(cert.clone()));
        // The adopted certificate gates which proposals this replica may
        // vote for; losing it on crash would weaken the lock the quorum
        // intersection argument depends on. Make it durable before any
        // vote ranked against it can leave.
        self.sync_journal();
    }

    fn on_view(&mut self, view: View) {
        self.view = self.view.max(view);
        self.append(JournalRecord::ViewChange(view));
        // Vote safety: every vote cast in view v is preceded by entering
        // v, and engines refuse to vote at or below the *recovered* view.
        // That guarantee only holds if the ViewChange record is durable
        // before any vote of view v can leave the process — so this sync
        // must not ride the batching window. (Decided/Spec records keep
        // the configured SyncPolicy batching.)
        self.sync_journal();
    }

    /// At aligned heights, not a count since the last checkpoint: a step
    /// that commits several blocks, a restart or an installed snapshot
    /// would otherwise move a replica's next checkpoint, and peers'
    /// manifests would stop agreeing.
    fn wants_checkpoint(&self) -> bool {
        let height = self.log.len() as u64 - 1;
        self.checkpoint_every > 0
            && self.commits_since_checkpoint > 0
            && height.is_multiple_of(self.checkpoint_every)
    }

    /// The engine's window `chain` is only checked, in debug builds,
    /// against the tail of the journaled log.
    fn write_checkpoint(&mut self, store: &KvStore, chain: &[BlockId]) {
        debug_assert!(
            chain.iter().rev().zip(self.log.ids().rev()).all(|(a, b)| *a == b),
            "the engine's window {chain:?} is not the tail of the journaled log {:?}",
            self.log
        );
        self.log.trim(CommittedLog::KEEP);
        self.checkpoint(LedgerImage::capture(store, &self.log));
    }

    fn sync(&mut self) {
        self.sync_journal();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CHECKPOINTS;
    use crate::journal::SyncPolicy;
    use crate::testutil::TempDir;
    use hs1_types::{ReplicaId, Slot, Transaction};
    use std::io::Write;

    fn chain_block(view: u64, parent: &Arc<Block>, tag: u64) -> Arc<Block> {
        let justify = Certificate {
            kind: hs1_types::CertKind::Quorum,
            view: parent.view,
            slot: if parent.is_genesis() { Slot::GENESIS } else { Slot(1) },
            block: parent.id(),
            sigs: [].into(),
        };
        Arc::new(Block::new(
            ReplicaId(0),
            View(view),
            Slot(1),
            justify,
            vec![Transaction::kv_write(1, tag, tag * 31, tag)],
        ))
    }

    #[test]
    fn commit_counter_drives_checkpoints_and_pruning() {
        let tmp = TempDir::new("rs-checkpoint");
        let cfg = StorageConfig {
            journal: JournalConfig { segment_bytes: 512, sync: SyncPolicy::Always },
            checkpoint_every: 4,
        };
        let (state, mut storage) = ReplicaStorage::open(&Disk::default(), tmp.path(), cfg).unwrap();
        assert!(state.is_empty());

        let mut store = KvStore::with_records(10);
        let mut chain = vec![hs1_types::Block::genesis_id()];
        let mut parent = hs1_types::Block::genesis();
        for i in 1..=10u64 {
            let b = chain_block(i, &parent, i);
            storage.on_view(View(i));
            storage.on_commit(&b);
            store.put(i, i);
            chain.push(b.id());
            parent = b;
            if storage.wants_checkpoint() {
                storage.write_checkpoint(&store, &chain);
            }
        }
        assert_eq!(storage.checkpoints_written, 2, "10 commits / every 4");
        assert_eq!(storage.checkpoint_failures, 0);
        drop(storage);

        // Recovery starts from the newest checkpoint: 8 commits covered,
        // 2 replayed as decided bodies.
        let (state, storage) = ReplicaStorage::open(&Disk::default(), tmp.path(), cfg).unwrap();
        assert!(state.committed_store.is_some());
        assert_eq!(state.committed_log.len(), 9, "genesis + 8 checkpointed blocks");
        assert_eq!(state.committed_log.ids().collect::<Vec<_>>(), chain[..9]);
        assert_eq!(state.decided.len(), 2);
        assert_eq!(state.view, View(10));
        assert!(storage.recovery_info.checkpoint_seq.is_some());
        let restored = state.committed_store.unwrap();
        for i in 1..=8u64 {
            assert_eq!(restored.get(i), Some(i));
        }
    }

    #[test]
    fn install_snapshot_recovers_like_a_checkpoint() {
        let tmp = TempDir::new("rs-install");
        let cfg = StorageConfig {
            journal: JournalConfig { sync: SyncPolicy::Always, ..JournalConfig::default() },
            ..StorageConfig::default()
        };

        // A synced image: 3 committed blocks' worth of state.
        let mut store = KvStore::with_records(10);
        store.put(1, 100);
        store.put(2, 200);
        let mut log = CommittedLog::from_ids((1..40).map(BlockId::test));
        log.trim(3);
        let root = store.state_root();

        {
            let (state, mut storage) =
                ReplicaStorage::open(&Disk::default(), tmp.path(), cfg).unwrap();
            assert!(state.is_empty(), "fresh dir");
            let image = LedgerImage::capture(&store, &log);
            storage.install_snapshot(image, View(7), Some(Certificate::genesis()));
            assert_eq!(storage.checkpoints_written, 1);
            // Storage stays usable for live journaling afterwards.
            storage.on_view(View(8));
        }

        let (state, storage) = ReplicaStorage::open(&Disk::default(), tmp.path(), cfg).unwrap();
        assert!(storage.recovery_info.checkpoint_seq.is_some());
        assert_eq!(state.view, View(8));
        assert_eq!(state.committed_log, log);
        assert_eq!(state.committed_store.expect("installed store").state_root(), root);
        assert!(state.decided.is_empty());
    }

    /// The storage keeps its own log: a checkpoint holds its newest
    /// `CommittedLog::KEEP` ids, however long the journal, so with a store
    /// of one size a checkpoint file is one size at every height. Recovery
    /// extends the log by the decisions journaled after the checkpoint.
    #[test]
    fn checkpoints_keep_a_fixed_window_of_the_log() {
        let tmp = TempDir::new("rs-window");
        let cfg = StorageConfig {
            journal: JournalConfig { segment_bytes: 1 << 20, sync: SyncPolicy::Never },
            checkpoint_every: 2500,
        };
        let (_, mut storage) = ReplicaStorage::open(&Disk::default(), tmp.path(), cfg).unwrap();
        let store = KvStore::with_records(10);
        // The engine's window, as it prunes every 64 views.
        let mut engine = CommittedLog::new();
        let mut parent = hs1_types::Block::genesis();
        let mut sizes = Vec::new();
        for i in 1..=10_100u64 {
            let b = chain_block(i, &parent, i);
            storage.on_commit(&b);
            engine.push(b.id());
            if i.is_multiple_of(CommittedLog::PRUNE_EVERY) {
                engine.trim(CommittedLog::KEEP);
            }
            parent = b;
            if storage.wants_checkpoint() {
                let window: Vec<BlockId> = engine.ids().collect();
                storage.write_checkpoint(&store, &window);
                let (_, newest) =
                    CHECKPOINTS.list(&Disk::default(), tmp.path()).unwrap().pop().unwrap();
                sizes.push(std::fs::metadata(newest).unwrap().len());
            }
        }
        assert_eq!(sizes.len(), 4, "checkpoints at 2,500 to 10,000 commits: {sizes:?}");
        assert!(sizes.iter().all(|&s| s == sizes[0]), "{sizes:?}");
        let ckpt = Checkpoint::load_latest(&Disk::default(), tmp.path())
            .unwrap()
            .expect("a checkpoint at 10,000 commits");
        assert_eq!(
            (ckpt.image.log.len(), ckpt.image.log.ids().len()),
            (10_001, CommittedLog::KEEP)
        );
        drop(storage);
        let (state, storage) = ReplicaStorage::open(&Disk::default(), tmp.path(), cfg).unwrap();
        assert_eq!(state.committed_log, ckpt.image.log);
        assert_eq!(state.decided.len(), 100);
        assert_eq!(storage.log.len(), 10_101);
        assert_eq!(storage.log.hash(), engine.hash());
    }

    #[test]
    fn reopen_without_checkpoint_replays_everything() {
        let tmp = TempDir::new("rs-nockpt");
        let cfg = StorageConfig {
            journal: JournalConfig { sync: SyncPolicy::Always, ..JournalConfig::default() },
            checkpoint_every: 0,
        };
        let (_, mut storage) = ReplicaStorage::open(&Disk::default(), tmp.path(), cfg).unwrap();
        let b1 = chain_block(1, &hs1_types::Block::genesis(), 1);
        storage.on_speculate(&b1);
        storage.on_commit(&b1);
        assert!(!storage.wants_checkpoint(), "checkpointing disabled");
        drop(storage);

        let (state, _) = ReplicaStorage::open(&Disk::default(), tmp.path(), cfg).unwrap();
        assert!(state.committed_store.is_none());
        assert_eq!(state.decided.len(), 1);
        assert!(state.speculated.is_empty(), "spec promoted by the commit");
    }

    /// One replica storage's life on the host's file system and on a
    /// memory disk, step for step: open, journal across segment
    /// rotations, checkpoint and prune, drop with appends unsynced, then
    /// reopen as is, after a torn tail, and after one flipped CRC byte.
    /// After every step both disks hold the same files with the same
    /// bytes, and every reopen recovers the same state.
    #[test]
    fn a_memory_disk_keeps_what_the_host_disk_keeps() {
        let tmp = TempDir::new("rs-twin");
        let disks = [(Disk::default(), tmp.path().to_path_buf()), (Disk::memory(), "r0".into())];
        let cfg = StorageConfig {
            journal: JournalConfig { segment_bytes: 512, sync: SyncPolicy::EveryN(8) },
            checkpoint_every: 4,
        };
        // Each file's name and bytes, in name order.
        let image = |(disk, dir): &(Disk, PathBuf)| -> Vec<(String, Vec<u8>)> {
            let paths = disk.list(dir).unwrap();
            let name = |p: &PathBuf| p.file_name().unwrap().to_str().unwrap().to_string();
            paths.iter().map(|p| (name(p), disk.read(p).unwrap())).collect()
        };
        let reopen = |(disk, dir): &(Disk, PathBuf)| -> String {
            let (state, storage) = ReplicaStorage::open(disk, dir, cfg).unwrap();
            let ids = |blocks: &[Arc<Block>]| blocks.iter().map(|b| b.id()).collect::<Vec<_>>();
            format!(
                "{:?}",
                (
                    state.view,
                    &state.high_cert,
                    state.committed_store.as_ref().map(KvStore::state_root),
                    &state.committed_log,
                    ids(&state.decided),
                    ids(&state.speculated),
                    &storage.recovery_info,
                )
            )
        };
        // Rewrite the newest segment's bytes through `edit`.
        let damage = |(disk, dir): &(Disk, PathBuf), edit: &dyn Fn(&mut Vec<u8>)| {
            let (_, path) = crate::journal::SEGMENTS.list(disk, dir).unwrap().pop().unwrap();
            let mut bytes = disk.read(&path).unwrap();
            edit(&mut bytes);
            disk.create(&path).unwrap().write_all(&bytes).unwrap();
        };

        for at in &disks {
            let (state, mut storage) = ReplicaStorage::open(&at.0, &at.1, cfg).unwrap();
            assert!(state.is_empty());
            let mut store = KvStore::with_records(16);
            let mut chain = vec![hs1_types::Block::genesis_id()];
            let mut parent = hs1_types::Block::genesis();
            for i in 1..=10u64 {
                let b = chain_block(i, &parent, i);
                storage.on_view(View(i));
                storage.on_speculate(&b);
                storage.on_commit(&b);
                store.put(i, i);
                chain.push(b.id());
                parent = b;
                if storage.wants_checkpoint() {
                    storage.write_checkpoint(&store, &chain);
                }
            }
            assert_eq!(storage.checkpoints_written, 2);
            // A commit into the fsync batch, and the process ends.
            let fsyncs = storage.journal.fsyncs;
            storage.on_commit(&chain_block(11, &parent, 11));
            assert_eq!(storage.journal.fsyncs, fsyncs, "dropped mid-batch");
        }
        let [host, memory] = &disks;
        let files = image(host);
        assert_eq!(files, image(memory));
        let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names.iter().filter(|n| n.starts_with("ckpt-")).count(), 1, "{names:?}");
        assert!(names.iter().filter(|n| n.starts_with("wal-")).count() > 1, "{names:?}");
        assert!(!names.contains(&"wal-000000000000.seg"), "pruned behind the checkpoint");

        let clean = reopen(host);
        assert_eq!(clean, reopen(memory));
        assert_eq!(image(host), image(memory));

        for at in &disks {
            damage(at, &|bytes| bytes.truncate(bytes.len() - 3));
        }
        let torn = reopen(host);
        assert_eq!(torn, reopen(memory));
        assert_ne!(torn, clean, "the torn record is gone");
        assert_eq!(image(host), image(memory));

        // The CRC of the newest segment's last frame.
        let flip = |bytes: &mut Vec<u8>| {
            let mut last = crate::journal::SEGMENT_MAGIC.len();
            let mut at = last;
            while at < bytes.len() {
                last = at;
                at += 8 + u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            }
            bytes[last + 4] ^= 0x01;
        };
        for at in &disks {
            damage(at, &flip);
        }
        let flipped = reopen(host);
        assert_eq!(flipped, reopen(memory));
        assert_ne!(flipped, torn, "the record under the flipped CRC is gone");
        assert_eq!(image(host), image(memory));
    }
}
