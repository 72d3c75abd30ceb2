//! Golden pins of the bytes `hs1-storage` writes and `SnapshotServer`
//! serves: a checkpoint file, a journal segment holding every
//! `JournalRecord` kind, and the snapshot payload a peer downloads.
//!
//! The literals are FNV-1a-64 of each, taken before the checkpoint and
//! the snapshot image were collapsed onto one ledger image and one frame
//! codec. A change that moves them moves a format some disk or peer
//! already holds: no reader of an older checkpoint magic is kept.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hs1_core::persist::Persistence;
use hs1_crypto::KeyPair;
use hs1_ledger::KvStore;
use hs1_statesync::SnapshotServer;
use hs1_storage::testutil::TempDir;
use hs1_storage::{Checkpoint, Disk, JournalConfig, ReplicaStorage, StorageConfig, SyncPolicy};
use hs1_types::codec::Encode;
use hs1_types::message::{SnapshotChunkReqMsg, SnapshotReqMsg};
use hs1_types::{
    Block, CertKind, Certificate, Message, ReplicaId, Slot, SystemConfig, Transaction, View,
};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// A quorum certificate for `parent`, signed by replicas 0..3.
fn justify(parent: &Block) -> Certificate {
    if parent.is_genesis() {
        return Certificate::genesis();
    }
    let (kind, view, slot, block) = (CertKind::Quorum, parent.view, Slot(1), parent.id());
    let bytes = Certificate::signing_bytes(kind, view, slot, block);
    let seed = SystemConfig::new(4).deployment_seed;
    let sigs = (0..3)
        .map(|i| (ReplicaId(i), KeyPair::derive(seed, i).sign(kind.domain(), &bytes)))
        .collect();
    Certificate { kind, view, slot, block, sigs }
}

/// The file in `dir` whose name starts with `prefix`.
fn file(dir: &Path, prefix: &str) -> Vec<u8> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with(prefix))
        .collect();
    assert_eq!(names.len(), 1, "one {prefix} file: {names:?}");
    std::fs::read(names.pop().unwrap()).unwrap()
}

/// Every chunk of the snapshot `server` serves, in order.
fn served_payload(server: &mut SnapshotServer) -> Vec<u8> {
    let req = Message::SnapshotReq(SnapshotReqMsg { have_chain_len: 1 });
    let Some(Message::SnapshotManifest(m)) = server.handle(&req) else { panic!("no manifest") };
    let mut payload = Vec::new();
    for index in 0..m.chunk_count() {
        let req =
            Message::SnapshotChunkReq(SnapshotChunkReqMsg { state_root: m.state_root, index });
        let Some(Message::SnapshotChunk(c)) = server.handle(&req) else { panic!("chunk {index}") };
        payload.extend_from_slice(&c.data);
    }
    assert_eq!(payload.len() as u64, m.total_bytes);
    payload
}

/// Six blocks journaled through a replica's storage hooks (views,
/// certificates, speculation, one rollback, commits), a checkpoint after
/// the fifth commit, one more commit after it. Returns the checkpoint
/// file, the journal's only segment, the served payload and the store.
fn fixture(dir: &Path) -> (Vec<u8>, Vec<u8>, Vec<u8>, KvStore) {
    let cfg = StorageConfig {
        journal: JournalConfig { segment_bytes: 1 << 20, sync: SyncPolicy::Never },
        checkpoint_every: 0,
    };
    let (_, mut storage) = ReplicaStorage::open(&Disk::default(), dir, cfg).unwrap();
    let mut store = KvStore::with_records(1000);
    let mut chain = vec![Block::genesis_id()];
    let mut parent = Block::genesis();
    let mut checkpointed = None;
    for v in 1..=6u64 {
        let txs = vec![Transaction::kv_write(1, v, v * 37 % 11, v * 1000 + 7)];
        let b =
            Arc::new(Block::new(ReplicaId(v as u32 % 4), View(v), Slot(1), justify(&parent), txs));
        storage.on_view(View(v));
        storage.on_cert(&b.justify);
        storage.on_speculate(&b);
        if v == 3 {
            storage.on_rollback(1);
            storage.on_speculate(&b);
        }
        storage.on_commit(&b);
        store.put(v * 37 % 11, v * 1000 + 7);
        store.put(2000 + v, v);
        chain.push(b.id());
        parent = b;
        if v == 5 {
            storage.write_checkpoint(&store, &chain);
            checkpointed = Some(store.clone());
        }
    }
    drop(storage);
    let mut server = SnapshotServer::new(dir);
    (file(dir, "ckpt-"), file(dir, "wal-"), served_payload(&mut server), checkpointed.unwrap())
}

#[test]
fn storage_formats_are_pinned() {
    let tmp = TempDir::new("formats-pin");
    let (ckpt, segment, served, store) = fixture(tmp.path());
    let got = [fnv1a(&ckpt), fnv1a(&segment), fnv1a(&served)];
    let lens = [ckpt.len(), segment.len(), served.len()];
    assert_eq!(
        (got, lens),
        ([0x90bf_c674_3b45_c314, 0x7bf9_7a72_f9c7_56e4, 0xe87d_36cb_d97e_0b21], [834, 4196, 608]),
        "checkpoint, segment and served payload moved"
    );

    // The served payload is the checkpoint's payload minus its header
    // (journal coverage and consensus position) and its trailing root.
    let parsed = Checkpoint::load_latest(&Disk::default(), tmp.path()).unwrap().unwrap();
    let mut header = Vec::new();
    parsed.journal_seq.encode(&mut header);
    parsed.view.encode(&mut header);
    parsed.high_cert.encode(&mut header);
    let frame = 16; // magic, length, CRC
    assert_eq!(ckpt[frame..frame + header.len()], header[..]);
    let root = store.state_root();
    assert_eq!(ckpt[frame + header.len()..ckpt.len() - 32], served[..]);
    assert_eq!(ckpt[ckpt.len() - 32..], root.0);
}
