//! Recovery-time figure: wall-clock cost of catching a replica up to a
//! committed state, as a function of journal length, three ways:
//!
//! * **journal-only** — `hs1_storage::recover` replays (and re-executes)
//!   every committed block: O(history).
//! * **checkpoint+tail** — the newest checkpoint covers ~95% of the
//!   journal; only the tail replays.
//! * **snapshot** — the `hs1-statesync` path a *fresh* replica takes:
//!   pull the CRC-indexed chunks of a peer's checkpoint-derived image,
//!   verify each chunk and the assembled state root, and restore the
//!   engine from the image: O(state), flat in journal length. (Measured
//!   in-process, without the network round trips a deployment adds; the
//!   chaos sweep runs the same client over the simulator's network.)
//!
//! Not a paper figure — it characterizes the `hs1-storage` and
//! `hs1-statesync` subsystems. CSV lands in
//! `bench_results/fig_recovery.csv`, which is not committed: its rows are
//! wall-clock times, so no run reproduces them byte for byte.
//!
//! One assertion is not about time: a snapshot image holds the committed
//! log as a replica keeps it, a window, so at every swept length the image
//! bytes not spent on state entries stay under one fixed bound. A field
//! that grows with history fails the run.

use std::sync::Arc;
use std::time::Instant;

use hs1_core::persist::{Persistence, RecoveredState};
use hs1_core::Fault;
use hs1_core::{build_replica, Replica};
use hs1_ledger::ExecConfig;
use hs1_statesync::{SnapshotImage, SnapshotServer};
use hs1_storage::crc32;
use hs1_storage::testutil::TempDir;
use hs1_storage::{Disk, JournalConfig, ReplicaStorage, StorageConfig, SyncPolicy};
use hs1_types::message::{SnapshotChunkReqMsg, SnapshotReqMsg};
use hs1_types::{
    Block, BlockId, CertKind, Certificate, CommittedLog, Message, ReplicaId, Slot, SystemConfig,
    Transaction, View,
};

use super::FigureSink;

const TXS_PER_BLOCK: u64 = 8;

/// Image bytes that are not state entries: the record count, the entry
/// count, the log's length, base hash and window length (8 + 8 + 8 + 32 +
/// 8), and at most `CommittedLog::WINDOW` window entries of an id and a
/// hash.
const NON_ENTRY_BOUND: u64 = 64 + CommittedLog::WINDOW as u64 * 64;

/// Journal lengths swept, in blocks.
const SWEEP: [u64; 4] = [256, 1024, 4096, 16384];

/// Deterministic committed chain of `len` blocks, `TXS_PER_BLOCK` txs
/// each.
fn chain(len: u64) -> Vec<Arc<Block>> {
    let mut out = Vec::with_capacity(len as usize);
    let mut parent = Block::genesis();
    for v in 1..=len {
        let justify = Certificate {
            kind: CertKind::Quorum,
            view: parent.view,
            slot: if parent.is_genesis() { Slot::GENESIS } else { Slot(1) },
            block: parent.id(),
            sigs: [].into(),
        };
        let txs: Vec<Transaction> = (0..TXS_PER_BLOCK)
            .map(|i| Transaction::kv_write(1, v * TXS_PER_BLOCK + i, (v * 13 + i) % 100_000, v))
            .collect();
        let b = Arc::new(Block::new(ReplicaId(0), View(v), Slot(1), justify, txs));
        parent = b.clone();
        out.push(b);
    }
    out
}

/// Journal `blocks` commits into `dir`; checkpoint every `ckpt_every`
/// commits when nonzero. Returns the reference state root.
fn build_journal(
    dir: &std::path::Path,
    blocks: &[Arc<Block>],
    ckpt_every: u64,
) -> hs1_crypto::Digest {
    let cfg = StorageConfig {
        journal: JournalConfig { segment_bytes: 4 << 20, sync: SyncPolicy::EveryN(256) },
        checkpoint_every: ckpt_every,
    };
    let (_, mut storage) = ReplicaStorage::open(&Disk::default(), dir, cfg).expect("open");
    let mut exec = hs1_ledger::ExecutionEngine::new(ExecConfig::default());
    let mut log = CommittedLog::new();
    for (i, b) in blocks.iter().enumerate() {
        storage.on_view(View(i as u64 + 1));
        storage.on_speculate(b);
        storage.on_commit(b);
        exec.execute_committed(b.id(), &b.txs);
        log.push(b.id());
        // What a HotStuff-1 engine keeps: the storage checks its own log
        // against this window.
        if (i as u64 + 1).is_multiple_of(CommittedLog::PRUNE_EVERY) {
            log.trim(CommittedLog::KEEP);
        }
        if storage.wants_checkpoint() {
            let window: Vec<BlockId> = log.ids().collect();
            storage.write_checkpoint(exec.committed(), &window);
        }
    }
    storage.sync();
    exec.committed().state_root()
}

/// Time a full recovery (journal/checkpoint load + engine restore).
fn recover_once(dir: &std::path::Path, expect_root: hs1_crypto::Digest) -> (f64, u64, u64) {
    let cfg = StorageConfig::default();
    let t0 = Instant::now();
    let (state, storage) = ReplicaStorage::open(&Disk::default(), dir, cfg).expect("recover");
    let info = storage.recovery_info.clone();
    let mut eng = engine();
    eng.restore(state);
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(eng.state_root(), expect_root, "recovery must reproduce the state root");
    (elapsed_ms, info.replayed_records, info.skipped_records)
}

fn engine() -> Box<dyn Replica> {
    let kind = hs1_types::ProtocolKind::HotStuff1;
    build_replica(kind, SystemConfig::new(4), ReplicaId(0), Fault::Honest, ExecConfig::default())
}

/// Time the requester side of snapshot state sync against a prepared
/// serving peer: chunk pulls + CRC verification + assembly + payload
/// decode + root verification + engine restore. Returns
/// `(elapsed_ms, image_bytes, state_entries)`.
fn snapshot_catchup_once(
    dir: &std::path::Path,
    expect_root: hs1_crypto::Digest,
) -> (f64, u64, u64) {
    // The serving peer prepares (and caches) its snapshot once for any
    // number of joiners; that cost is not the joiner's.
    let mut server = SnapshotServer::new(dir);
    let req = Message::SnapshotReq(SnapshotReqMsg { have_chain_len: 1 });
    let Some(Message::SnapshotManifest(manifest)) = server.handle(&req) else {
        panic!("serving peer has a checkpoint to serve");
    };

    let t0 = Instant::now();
    let mut buf = Vec::with_capacity(manifest.total_bytes as usize);
    for i in 0..manifest.chunk_count() {
        let creq = Message::SnapshotChunkReq(SnapshotChunkReqMsg {
            state_root: manifest.state_root,
            index: i,
        });
        let Some(Message::SnapshotChunk(c)) = server.handle(&creq) else {
            panic!("chunk {i} served");
        };
        assert_eq!(crc32(&c.data), manifest.chunk_crcs[i as usize], "chunk CRC");
        buf.extend_from_slice(&c.data);
    }
    let image = SnapshotImage::decode_payload(&buf).expect("image decodes");
    assert_eq!(image.state_root, manifest.state_root, "assembled root matches manifest");
    let store = image.restore_store();
    let mut eng = engine();
    eng.restore(RecoveredState {
        view: manifest.view,
        high_cert: Some(manifest.high_cert.clone()),
        committed_store: Some(store),
        committed_log: image.log.clone(),
        decided: Vec::new(),
        speculated: Vec::new(),
    });
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(eng.state_root(), expect_root, "snapshot sync must reproduce the state root");
    assert_eq!(eng.committed_len(), image.log.len(), "the engine adopted the image's log");
    (elapsed_ms, manifest.total_bytes, image.entries.len() as u64)
}

pub(super) fn run(sink: &mut FigureSink) {
    sink.header("blocks,txs,mode,recover_ms,replayed_records,checkpoint_covered_records");
    for blocks in SWEEP {
        let chain = chain(blocks);

        // Journal-only recovery: replay (and re-execute) everything.
        let dir = TempDir::new("figrec-journal");
        let root = build_journal(dir.path(), &chain, 0);
        let (ms, replayed, skipped) = recover_once(dir.path(), root);
        println!(
            "  [journal-only   ] {blocks:>6} blocks ({:>7} txs): {ms:>9.2} ms  ({replayed} records replayed)",
            blocks * TXS_PER_BLOCK
        );
        sink.record(format!(
            "{blocks},{},journal,{ms:.3},{replayed},{skipped}",
            blocks * TXS_PER_BLOCK
        ));

        // Checkpointed recovery: the newest checkpoint covers ~95% of the
        // journal; only the tail replays.
        let dir = TempDir::new("figrec-ckpt");
        let every = (blocks / 20).max(1);
        let root = build_journal(dir.path(), &chain, every);
        let (ms, replayed, skipped) = recover_once(dir.path(), root);
        println!(
            "  [checkpoint+tail] {blocks:>6} blocks ({:>7} txs): {ms:>9.2} ms  ({replayed} records replayed, {skipped} covered)",
            blocks * TXS_PER_BLOCK
        );
        sink.record(format!(
            "{blocks},{},checkpoint,{ms:.3},{replayed},{skipped}",
            blocks * TXS_PER_BLOCK
        ));

        // Snapshot state sync: a fresh replica pulls a peer's image
        // covering the *whole* chain and installs it — no replay at all.
        // Flat in journal length; this is the O(state) column.
        let dir = TempDir::new("figrec-snap");
        let root = build_journal(dir.path(), &chain, blocks); // ckpt covers everything
        let (ms, bytes, entries) = snapshot_catchup_once(dir.path(), root);
        let non_entry = bytes - 16 * entries;
        assert!(
            non_entry <= NON_ENTRY_BOUND,
            "{blocks} blocks: {non_entry} image bytes beyond the state entries (bound \
             {NON_ENTRY_BOUND}): something in the image grows with history"
        );
        let covered = 3 * blocks; // view + spec + decide records per block
        println!(
            "  [snapshot-sync  ] {blocks:>6} blocks ({:>7} txs): {ms:>9.2} ms  ({bytes} image bytes, {entries} entries, 0 records replayed)",
            blocks * TXS_PER_BLOCK
        );
        sink.record(format!("{blocks},{},snapshot,{ms:.3},0,{covered}", blocks * TXS_PER_BLOCK));
    }
}
