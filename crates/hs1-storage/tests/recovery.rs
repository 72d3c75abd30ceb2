//! End-to-end recovery tests: real consensus engines over the in-crate
//! test harness, with a journal-backed replica crashed and restored.
//!
//! Covers the ISSUE-2 recovery checklist: crash points after every
//! journal record type, torn-tail truncation at arbitrary byte offsets,
//! corrupted-CRC rejection, and checkpoint→replay `state_root()`
//! convergence with a never-crashed replica.

use std::fs::{self, OpenOptions};
use std::path::Path;
use std::sync::Arc;

use hs1_core::persist::Persistence;
use hs1_core::testkit::TestNet;
use hs1_core::Fault;
use hs1_core::{build_replica, Replica};
use hs1_ledger::{ExecConfig, KvStore};
use hs1_storage::journal::SEGMENT_MAGIC;
use hs1_storage::testutil::TempDir;
use hs1_storage::{
    recover, JournalConfig, JournalRecord, ReplicaStorage, StorageConfig, SyncPolicy,
};
use hs1_types::{
    Block, Certificate, CommittedLog, ProtocolKind, ReplicaId, SimDuration, Slot, SystemConfig,
    Transaction, View,
};

fn cfg(n: usize) -> SystemConfig {
    let mut c = SystemConfig::new(n);
    c.view_timer = SimDuration::from_millis(10);
    c.delta = SimDuration::from_millis(1);
    c.batch_size = 4;
    c
}

fn hs1_engine(c: &SystemConfig, id: u32) -> Box<dyn Replica> {
    build_replica(
        ProtocolKind::HotStuff1,
        c.clone(),
        ReplicaId(id),
        Fault::Honest,
        ExecConfig::default(),
    )
}

fn txs(n: u64) -> Vec<Transaction> {
    (0..n).map(|i| Transaction::kv_write(1, i, i * 31 + 7, i)).collect()
}

/// Run a 4-replica HotStuff-1 cluster with replica 0 journal-backed,
/// long enough for every injected transaction to commit everywhere.
/// Returns (pre-crash log of r0, pre-crash root of r0, root of live r1).
fn run_durable_cluster(
    dir: &Path,
    storage_cfg: StorageConfig,
) -> (CommittedLog, hs1_crypto::Digest, hs1_crypto::Digest) {
    let c = cfg(4);
    let mut engines: Vec<Box<dyn Replica>> = (0..4).map(|i| hs1_engine(&c, i)).collect();
    let (state, storage) = ReplicaStorage::open(dir, storage_cfg).expect("open storage");
    assert!(state.is_empty(), "fresh directory");
    engines[0].set_persistence(Box::new(storage));

    let mut net = TestNet::new(engines, SimDuration::from_micros(200));
    net.inject(&txs(64));
    net.init();
    net.run_for(SimDuration::from_millis(200));
    net.assert_prefix_agreement(&[0, 1, 2, 3]);

    let chain = net.committed_log(0).clone();
    assert_eq!(net.engines[0].committed_log(), chain, "a short run holds every height");
    let root0 = net.engines[0].state_root();
    let root1 = net.engines[1].state_root();
    assert!(chain.len() > 20, "cluster made progress: {} blocks", chain.len());
    assert_eq!(root0, root1, "all transactions settled before the crash point");
    (chain, root0, root1)
    // Dropping the TestNet is the crash: no clean shutdown beyond the
    // journal's own Drop sync.
}

fn recovered_engine(dir: &Path, storage_cfg: StorageConfig) -> (Box<dyn Replica>, ReplicaStorage) {
    let (state, storage) = ReplicaStorage::open(dir, storage_cfg).expect("recover");
    let mut engine = hs1_engine(&cfg(4), 0);
    engine.restore(state);
    (engine, storage)
}

#[test]
fn journal_replay_converges_with_never_crashed_replica() {
    let tmp = TempDir::new("it-replay");
    let storage_cfg = StorageConfig {
        journal: JournalConfig { sync: SyncPolicy::Always, ..JournalConfig::default() },
        checkpoint_every: 0, // pure journal replay
    };
    let (chain, root0, root1) = run_durable_cluster(tmp.path(), storage_cfg);

    let (engine, storage) = recovered_engine(tmp.path(), storage_cfg);
    assert!(storage.recovery_info.checkpoint_seq.is_none());
    assert_eq!(engine.committed_log(), chain, "decided chain replayed exactly");
    assert_eq!(engine.state_root(), root0, "replay reproduces the pre-crash root");
    assert_eq!(engine.state_root(), root1, "…which equals a never-crashed replica's root");
    assert!(engine.current_view() >= View(1));
}

#[test]
fn checkpoint_then_replay_converges_with_never_crashed_replica() {
    let tmp = TempDir::new("it-ckpt");
    let storage_cfg = StorageConfig {
        // Force rotation so pruning has work.
        journal: JournalConfig { segment_bytes: 16 << 10, sync: SyncPolicy::EveryN(8) },
        checkpoint_every: 16,
    };
    let (chain, _root0, root1) = run_durable_cluster(tmp.path(), storage_cfg);

    let (engine, storage) = recovered_engine(tmp.path(), storage_cfg);
    assert!(
        storage.recovery_info.checkpoint_seq.is_some(),
        "recovery used a checkpoint: {:?}",
        storage.recovery_info
    );
    assert!(storage.recovery_info.skipped_records > 0, "checkpoint skipped journal prefix replay");
    assert_eq!(engine.committed_log(), chain);
    assert_eq!(
        engine.state_root(),
        root1,
        "checkpoint + tail replay converges with a never-crashed replica"
    );
}

#[test]
fn speculated_but_undecided_suffix_recovers_as_speculation() {
    let tmp = TempDir::new("it-spec");
    let storage_cfg = StorageConfig {
        journal: JournalConfig { sync: SyncPolicy::Always, ..JournalConfig::default() },
        checkpoint_every: 0,
    };
    let (chain, root0, _) = run_durable_cluster(tmp.path(), storage_cfg);

    // The run itself usually ends with a live overlay (the head block's
    // successor speculated but not yet decided); measure the baseline.
    let baseline = {
        let (_, storage) = ReplicaStorage::open(tmp.path(), storage_cfg).expect("open");
        storage.recovery_info.speculated_blocks
    };

    // Append a speculation mark with no matching Decided record: the
    // crash happened right after speculative execution.
    let head = chain.head();
    let spec_block = Arc::new(Block::new(
        ReplicaId(1),
        View(100_000),
        Slot(1),
        Certificate {
            kind: hs1_types::CertKind::Quorum,
            view: View(99_999),
            slot: Slot(1),
            block: head,
            sigs: [].into(),
        },
        txs(4),
    ));
    {
        let (_, mut storage) = ReplicaStorage::open(tmp.path(), storage_cfg).expect("open");
        storage.on_speculate(&spec_block);
    }

    let (engine, storage) = recovered_engine(tmp.path(), storage_cfg);
    assert_eq!(storage.recovery_info.speculated_blocks, baseline + 1);
    assert_eq!(engine.committed_log(), chain, "speculated block is NOT in the committed chain");
    assert_eq!(engine.state_root(), root0, "speculation left the committed state root untouched");
}

/// Byte offsets of every frame boundary in the (single) segment file.
fn frame_boundaries(seg: &Path) -> Vec<u64> {
    let buf = fs::read(seg).expect("read segment");
    let mut offsets = vec![SEGMENT_MAGIC.len() as u64];
    let mut pos = SEGMENT_MAGIC.len();
    while pos + 8 <= buf.len() {
        let len = u32::from_be_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        if pos > buf.len() {
            break;
        }
        offsets.push(pos as u64);
    }
    offsets
}

fn segment_file(dir: &Path) -> std::path::PathBuf {
    let mut segs: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name()?.to_str()?.to_string();
            (name.starts_with("wal-") && name.ends_with(".seg")).then_some(p)
        })
        .collect();
    segs.sort();
    assert_eq!(segs.len(), 1, "crash-point tests use a single segment");
    segs.pop().unwrap()
}

/// Write one representative record of every type through the Persistence
/// API, then crash the journal after each record (truncate at each frame
/// boundary) and assert recovery stays consistent at every cut.
#[test]
fn crash_point_after_every_record_type() {
    let base = TempDir::new("it-crashpoint");
    let storage_cfg = StorageConfig {
        journal: JournalConfig { sync: SyncPolicy::Always, ..JournalConfig::default() },
        checkpoint_every: 0,
    };

    let b1 = Arc::new(Block::new(ReplicaId(0), View(1), Slot(1), Certificate::genesis(), txs(2)));
    let b2 = Arc::new(Block::new(
        ReplicaId(1),
        View(2),
        Slot(1),
        Certificate {
            kind: hs1_types::CertKind::Quorum,
            view: View(1),
            slot: Slot(1),
            block: b1.id(),
            sigs: [].into(),
        },
        txs(3),
    ));
    {
        let (_, mut storage) = ReplicaStorage::open(base.path(), storage_cfg).expect("open");
        // One of each record type, in a protocol-plausible order:
        storage.on_view(View(1)); //                        ViewChange
        storage.on_cert(&Certificate::genesis()); //        Cert
        storage.on_speculate(&b1); //                       SpecMark
        storage.on_commit(&b1); //                          Decided (promotes b1)
        storage.on_speculate(&b2); //                       SpecMark
        storage.on_rollback(1); //                          SpecRollback
        let mut store = KvStore::with_records(4);
        store.put(1, 1);
        storage.write_checkpoint(&store, &[Block::genesis_id(), b1.id()]); // CheckpointMark
    }
    let seg = segment_file(base.path());
    let full = fs::read(&seg).expect("segment bytes");
    let cuts = frame_boundaries(&seg);
    assert!(cuts.len() >= 8, "one boundary per record plus the header: {cuts:?}");

    for (k, &cut) in cuts.iter().enumerate() {
        let dir = TempDir::new(&format!("it-crashpoint-{k}"));
        fs::write(dir.path().join("wal-000000000000.seg"), &full[..cut as usize]).unwrap();
        // The checkpoint file is only present for cuts that survived past
        // write_checkpoint; copy it always — recovery must handle a
        // checkpoint that is *ahead* of a truncated journal too.
        for entry in fs::read_dir(base.path()).unwrap() {
            let p = entry.unwrap().path();
            if p.extension().and_then(|e| e.to_str()) == Some("ckpt") {
                fs::copy(&p, dir.path().join(p.file_name().unwrap())).unwrap();
            }
        }

        let r =
            recover(dir.path(), JournalConfig { sync: SyncPolicy::Never, segment_bytes: 1 << 20 })
                .unwrap_or_else(|e| panic!("recovery failed at cut {k} (offset {cut}): {e}"));
        let decided: Vec<_> = r.state.decided.iter().map(|b| b.id()).collect();
        // Invariants at every crash point:
        // 1. nothing decided is still speculative;
        for s in &r.state.speculated {
            assert!(!decided.contains(&s.id()), "cut {k}: decided block still speculated");
        }
        // 2. the decided sequence is the journal prefix (b1 then nothing,
        //    since b2 was rolled back before deciding);
        assert!(decided.len() <= 1, "cut {k}: at most b1 decided");
        if k >= 4 && r.state.committed_store.is_none() {
            assert_eq!(decided, vec![b1.id()], "cut {k}: b1 decided after its record");
        }
        // 3. a view is never lost once its record is durable.
        if k >= 1 {
            assert!(r.state.view >= View(1), "cut {k}: recovered view regressed");
        }
    }
}

/// Cut the journal at *arbitrary byte offsets* (not frame boundaries):
/// recovery truncates the torn tail and keeps every complete record.
#[test]
fn torn_tail_at_arbitrary_offsets_recovers_prefix() {
    let base = TempDir::new("it-torn");
    let jcfg = JournalConfig { sync: SyncPolicy::Always, segment_bytes: 1 << 20 };
    {
        let (mut j, _) = hs1_storage::Journal::open(base.path(), jcfg).unwrap();
        for v in 1..=8 {
            j.append(&JournalRecord::ViewChange(View(v))).unwrap();
        }
    }
    let seg = segment_file(base.path());
    let full = fs::read(&seg).unwrap();
    let boundaries = frame_boundaries(&seg);

    // A cut strictly inside frame k leaves exactly k complete records.
    for cut in (SEGMENT_MAGIC.len() as u64 + 1)..full.len() as u64 {
        let dir = TempDir::new("it-torn-cut");
        fs::write(dir.path().join("wal-000000000000.seg"), &full[..cut as usize]).unwrap();
        let r = recover(dir.path(), jcfg).unwrap();
        let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(
            r.state.view,
            View(complete as u64),
            "cut at byte {cut}: {complete} complete records"
        );
        let expect_truncated = !boundaries.contains(&cut);
        assert_eq!(
            r.info.truncated_bytes > 0,
            expect_truncated,
            "cut at byte {cut}: truncation iff mid-frame"
        );
    }
}

/// A pruned journal whose sole cover (the checkpoint) is gone must fail
/// recovery loudly: replaying only the surviving suffix would silently
/// fabricate a shorter history.
#[test]
fn missing_checkpoint_behind_pruned_journal_is_rejected() {
    let tmp = TempDir::new("it-gap");
    let storage_cfg = StorageConfig {
        // Rotate often so pruning really deletes.
        journal: JournalConfig { segment_bytes: 256, sync: SyncPolicy::Always },
        checkpoint_every: 4,
    };
    {
        let (_, mut storage) = ReplicaStorage::open(tmp.path(), storage_cfg).expect("open");
        let mut store = KvStore::with_records(4);
        let mut chain = vec![Block::genesis_id()];
        let mut parent = Block::genesis();
        for i in 1..=12u64 {
            let b = Arc::new(Block::new(
                ReplicaId(0),
                View(i),
                Slot(1),
                Certificate {
                    kind: hs1_types::CertKind::Quorum,
                    view: parent.view,
                    slot: if parent.is_genesis() { Slot::GENESIS } else { Slot(1) },
                    block: parent.id(),
                    sigs: [].into(),
                },
                txs(2),
            ));
            storage.on_view(View(i));
            storage.on_commit(&b);
            store.put(i, i);
            chain.push(b.id());
            parent = b;
            if storage.wants_checkpoint() {
                storage.write_checkpoint(&store, &chain);
            }
        }
        assert!(storage.checkpoints_written > 0);
    }
    // Pruning must actually have removed early segments for the test to
    // mean anything.
    let first_seg = fs::read_dir(tmp.path())
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            let n = p.file_name()?.to_str()?.to_string();
            n.strip_prefix("wal-")?.strip_suffix(".seg")?.parse::<u64>().ok()
        })
        .min()
        .unwrap();
    assert!(first_seg > 0, "checkpointing pruned the journal prefix");

    // Delete the checkpoint: the journal now starts mid-history with no
    // cover. Recovery must fail stop, not return a truncated chain.
    for entry in fs::read_dir(tmp.path()).unwrap() {
        let p = entry.unwrap().path();
        if p.extension().and_then(|e| e.to_str()) == Some("ckpt") {
            fs::remove_file(p).unwrap();
        }
    }
    let err = recover(tmp.path(), JournalConfig { sync: SyncPolicy::Never, segment_bytes: 256 })
        .unwrap_err();
    assert!(
        matches!(
            &err,
            hs1_storage::StorageError::Corrupt {
                detail: "journal gap behind checkpoint coverage",
                ..
            }
        ),
        "got: {err}"
    );
}

/// Corruption *behind* the tail (a flipped byte in a sealed segment) is
/// rejected outright — silently skipping records would fake a shorter
/// history.
#[test]
fn corrupted_crc_in_sealed_segment_is_rejected() {
    let tmp = TempDir::new("it-crc");
    // Tiny segments: every record seals its own segment quickly.
    let jcfg = JournalConfig { sync: SyncPolicy::Always, segment_bytes: 32 };
    {
        let (mut j, _) = hs1_storage::Journal::open(tmp.path(), jcfg).unwrap();
        for v in 1..=4 {
            j.append(&JournalRecord::ViewChange(View(v))).unwrap();
        }
    }
    // Corrupt a payload byte in the first (sealed) segment.
    let mut segs: Vec<_> = fs::read_dir(tmp.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_str().unwrap().ends_with(".seg"))
        .collect();
    segs.sort();
    assert!(segs.len() > 1);
    let sealed = &segs[0];
    let mut bytes = fs::read(sealed).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    OpenOptions::new().write(true).open(sealed).unwrap();
    fs::write(sealed, &bytes).unwrap();

    let err = recover(tmp.path(), jcfg).unwrap_err();
    assert!(
        matches!(err, hs1_storage::StorageError::Corrupt { .. }),
        "sealed-segment corruption must fail recovery, got: {err}"
    );
}
