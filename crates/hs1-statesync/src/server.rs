//! The serving side of state sync: answer manifest and chunk requests
//! out of the newest durable checkpoint.

use std::path::PathBuf;

use hs1_crypto::Digest;
use hs1_storage::{crc32, Checkpoint, Disk, LedgerImage};
use hs1_types::codec::Encode;
use hs1_types::message::{SnapshotChunkMsg, SnapshotManifestMsg};
use hs1_types::{Certificate, Message, View};

/// Default chunk size. Small enough that one chunk is far below the
/// transport's frame and sequence limits, large enough that a
/// multi-megabyte image takes tens of round trips, not thousands.
const DEFAULT_CHUNK_BYTES: u32 = 256 * 1024;

/// One prepared (chunked, CRC-indexed) snapshot.
struct Served {
    /// `journal_seq` of the checkpoint the snapshot was derived from
    /// (cache key: rebuilt only when a newer checkpoint lands).
    ckpt_seq: u64,
    manifest: SnapshotManifestMsg,
    payload: Vec<u8>,
}

/// Serves snapshot manifests and chunks from a replica's storage
/// directory. Stateless towards peers: every request is answered from
/// the cached newest checkpoint (refreshed on manifest requests), so any
/// number of joiners can pull concurrently and a restart loses nothing.
pub struct SnapshotServer {
    disk: Disk,
    dir: PathBuf,
    chunk_bytes: u32,
    cache: Option<Served>,
}

impl SnapshotServer {
    /// Serve out of `dir` on the host's file system.
    pub fn new(dir: impl Into<PathBuf>) -> SnapshotServer {
        SnapshotServer::on(Disk::default(), dir.into())
    }

    /// Serve out of `dir` on `disk`.
    pub(crate) fn on(disk: Disk, dir: PathBuf) -> SnapshotServer {
        SnapshotServer { disk, dir, chunk_bytes: DEFAULT_CHUNK_BYTES, cache: None }
    }

    /// Serve chunks of `chunk_bytes` (tests use tiny chunks to force many
    /// round trips), dropping the prepared snapshot. The chunk size is
    /// part of the manifest's agreement key: every serving peer of a
    /// deployment must use the same value.
    pub fn with_chunk_bytes(self, chunk_bytes: u32) -> SnapshotServer {
        assert!(chunk_bytes > 0);
        SnapshotServer { chunk_bytes, cache: None, ..self }
    }

    /// Handle a state-sync request; `None` for everything else (and for
    /// requests this replica cannot serve — the requester's timeout and
    /// peer rotation handle silence).
    pub fn handle(&mut self, msg: &Message) -> Option<Message> {
        match msg {
            Message::SnapshotReq(_) => {
                self.refresh();
                let served = self.cache.as_ref()?;
                // Served even when the requester is not behind: a
                // manifest showing chain_len ≤ have is exactly what lets
                // the requester conclude — quickly, with f+1 agreement —
                // that replay is the right catch-up instead of waiting
                // out its sync budget on silence.
                Some(Message::SnapshotManifest(Box::new(served.manifest.clone())))
            }
            Message::SnapshotChunkReq(req) => {
                let served = self.cache.as_ref()?;
                if served.manifest.state_root != req.state_root {
                    return None; // stale download (checkpoint moved on)
                }
                let chunk =
                    chunk(&served.payload, req.state_root, served.manifest.chunk_bytes, req.index)?;
                Some(Message::SnapshotChunk(chunk))
            }
            _ => None,
        }
    }

    /// Rebuild the cached snapshot if a newer checkpoint exists on disk.
    /// A missing or corrupt checkpoint set simply leaves the cache as is
    /// (a replica that cannot serve stays silent). Staleness is probed
    /// from directory metadata alone, so the steady-state cost of a
    /// manifest request is a readdir — not a full checkpoint decode.
    fn refresh(&mut self) {
        let Ok(Some(newest_seq)) = Checkpoint::latest_seq(&self.disk, &self.dir) else { return };
        if self.cache.as_ref().map(|s| s.ckpt_seq) == Some(newest_seq) {
            return;
        }
        let Ok(Some(ckpt)) = Checkpoint::load_latest(&self.disk, &self.dir) else { return };
        let payload = ckpt.image.encoded();
        let high_cert = ckpt.high_cert.unwrap_or_else(Certificate::genesis);
        let manifest = manifest(&ckpt.image, &payload, self.chunk_bytes, ckpt.view, high_cert);
        self.cache = Some(Served { ckpt_seq: ckpt.journal_seq, manifest, payload });
    }
}

/// The manifest of `payload`, the encoding of `image`, split into
/// `chunk_bytes`-sized chunks (one CRC32 each) and annotated with the
/// serving peer's consensus position.
pub(crate) fn manifest(
    image: &LedgerImage,
    payload: &[u8],
    chunk_bytes: u32,
    view: View,
    high_cert: Certificate,
) -> SnapshotManifestMsg {
    assert!(chunk_bytes > 0, "chunk size must be positive");
    SnapshotManifestMsg {
        chain_len: image.log.len() as u64,
        chain_head: image.log.head(),
        state_root: image.state_root,
        record_count: image.record_count,
        total_bytes: payload.len() as u64,
        chunk_bytes,
        chunk_crcs: payload.chunks(chunk_bytes as usize).map(crc32).collect(),
        view,
        high_cert,
    }
}

/// Chunk `index` of `payload`, `None` past its end.
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

#[cfg(test)]
mod tests {
    use super::*;
    use hs1_ledger::KvStore;
    use hs1_storage::testutil::TempDir;
    use hs1_types::codec::Decode;
    use hs1_types::message::{SnapshotChunkReqMsg, SnapshotReqMsg};
    use hs1_types::{BlockId, CommittedLog};

    fn write_checkpoint(dir: &std::path::Path, seq: u64, tag: u64) -> Checkpoint {
        let mut store = KvStore::with_records(100);
        store.put(1, tag);
        let log = CommittedLog::from_ids([BlockId::test(tag)]);
        let image = LedgerImage::capture(&store, &log);
        let ckpt = Checkpoint { journal_seq: seq, view: View(seq), high_cert: None, image };
        ckpt.write(&Disk::default(), dir).expect("write checkpoint");
        ckpt
    }

    #[test]
    fn chunking_covers_payload_exactly() {
        let mut store = KvStore::with_records(1000);
        for k in 0..200u64 {
            store.put(k * 3, k * k + 1);
        }
        let img = LedgerImage::capture(&store, &CommittedLog::from_ids((1..40).map(BlockId::test)));
        let payload = img.encoded();
        let m = manifest(&img, &payload, 100, View(1), Certificate::genesis());
        assert!(m.well_formed());
        assert_eq!(m.chunk_count() as u64, (payload.len() as u64).div_ceil(100));
        let mut rebuilt = Vec::new();
        for i in 0..m.chunk_count() {
            let c = chunk(&payload, img.state_root, 100, i).expect("chunk");
            assert_eq!(crc32(&c.data), m.chunk_crcs[i as usize], "chunk {i} CRC");
            rebuilt.extend_from_slice(&c.data);
        }
        assert_eq!(rebuilt, payload);
        assert!(chunk(&payload, img.state_root, 100, m.chunk_count()).is_none());
    }

    #[test]
    fn serves_manifest_and_chunks_from_newest_checkpoint() {
        let tmp = TempDir::new("snapserver");
        write_checkpoint(tmp.path(), 5, 42);
        let mut server = SnapshotServer::new(tmp.path()).with_chunk_bytes(16);

        let req = Message::SnapshotReq(SnapshotReqMsg { have_chain_len: 1 });
        let Some(Message::SnapshotManifest(m)) = server.handle(&req) else {
            panic!("expected a manifest");
        };
        assert!(m.well_formed());
        assert_eq!(m.chain_len, 2);

        // Pull and reassemble every chunk; CRCs must line up.
        let mut payload = Vec::new();
        for i in 0..m.chunk_count() {
            let creq = Message::SnapshotChunkReq(SnapshotChunkReqMsg {
                state_root: m.state_root,
                index: i,
            });
            let Some(Message::SnapshotChunk(c)) = server.handle(&creq) else {
                panic!("expected chunk {i}");
            };
            assert_eq!(crc32(&c.data), m.chunk_crcs[i as usize]);
            payload.extend_from_slice(&c.data);
        }
        assert_eq!(payload.len() as u64, m.total_bytes);
        let image = LedgerImage::decode_exact(&payload).expect("image");
        assert_eq!(image.state_root, m.state_root);

        // Out-of-range and stale-root requests go unanswered.
        let oob = Message::SnapshotChunkReq(SnapshotChunkReqMsg {
            state_root: m.state_root,
            index: m.chunk_count(),
        });
        assert!(server.handle(&oob).is_none());
        let stale = Message::SnapshotChunkReq(SnapshotChunkReqMsg {
            state_root: hs1_crypto::Digest([9u8; 32]),
            index: 0,
        });
        assert!(server.handle(&stale).is_none());
    }

    #[test]
    fn serves_manifest_even_when_requester_is_not_behind() {
        // The not-ahead manifest is what lets a restarted-but-current
        // replica conclude `Declined` instead of waiting out its sync
        // budget on silence.
        let tmp = TempDir::new("snapserver-ahead");
        write_checkpoint(tmp.path(), 5, 42);
        let mut server = SnapshotServer::new(tmp.path());
        let req = Message::SnapshotReq(SnapshotReqMsg { have_chain_len: 2 });
        assert!(matches!(server.handle(&req), Some(Message::SnapshotManifest(_))));
    }

    #[test]
    fn empty_dir_stays_silent() {
        let tmp = TempDir::new("snapserver-empty");
        std::fs::create_dir_all(tmp.path()).unwrap();
        let mut server = SnapshotServer::new(tmp.path());
        let req = Message::SnapshotReq(SnapshotReqMsg { have_chain_len: 0 });
        assert!(server.handle(&req).is_none());
    }

    #[test]
    fn refresh_picks_up_newer_checkpoint() {
        let tmp = TempDir::new("snapserver-refresh");
        write_checkpoint(tmp.path(), 5, 42);
        let mut server = SnapshotServer::new(tmp.path());
        let req = Message::SnapshotReq(SnapshotReqMsg { have_chain_len: 0 });
        let Some(Message::SnapshotManifest(m1)) = server.handle(&req) else { panic!() };
        write_checkpoint(tmp.path(), 9, 77);
        let Some(Message::SnapshotManifest(m2)) = server.handle(&req) else { panic!() };
        assert_ne!(m1.state_root, m2.state_root, "newer checkpoint served");
        assert_eq!(m2.view, View(9));
    }

    /// Two honest replicas at one height serve one image, whenever their
    /// engines last pruned: the second engine skips a prune (a view jump
    /// past the boundary), and its replica restarts from its own disk on
    /// the way.
    #[test]
    fn replicas_at_one_height_serve_one_image() {
        use hs1_core::persist::Persistence;
        use hs1_storage::{JournalConfig, ReplicaStorage, StorageConfig, SyncPolicy};
        use hs1_types::{Block, CertKind, ReplicaId, Slot, Transaction};
        use std::sync::Arc;

        let cfg = StorageConfig {
            journal: JournalConfig { segment_bytes: 1 << 20, sync: SyncPolicy::Never },
            checkpoint_every: 500,
        };
        let dirs = [TempDir::new("snapserver-peer-a"), TempDir::new("snapserver-peer-b")];
        let open =
            |d: &TempDir| ReplicaStorage::open(&Disk::default(), d.path(), cfg).expect("open");
        let mut storages = vec![open(&dirs[0]).1, open(&dirs[1]).1];
        let mut engines = [CommittedLog::new(), CommittedLog::new()];
        let mut store = KvStore::with_records(100);
        let mut parent = Block::genesis();
        for v in 1..=3000u64 {
            let justify = Certificate {
                kind: CertKind::Quorum,
                view: parent.view,
                slot: if parent.is_genesis() { Slot::GENESIS } else { Slot(1) },
                block: parent.id(),
                sigs: [].into(),
            };
            let txs = vec![Transaction::kv_write(1, v, v % 50, v)];
            let b = Arc::new(Block::new(ReplicaId(0), View(v), Slot(1), justify, txs));
            store.put(v % 50, v);
            for (r, (storage, engine)) in storages.iter_mut().zip(&mut engines).enumerate() {
                storage.on_commit(&b);
                engine.push(b.id());
                let skipped = r == 1 && v == 2944;
                if v.is_multiple_of(CommittedLog::PRUNE_EVERY) && !skipped {
                    engine.trim(CommittedLog::KEEP);
                }
                if storage.wants_checkpoint() {
                    storage.write_checkpoint(&store, &engine.ids().collect::<Vec<_>>());
                }
            }
            parent = b;
            if v == 2500 {
                storages.pop();
                let (state, storage) = open(&dirs[1]);
                storages.push(storage);
                engines[1] = state.committed_log;
            }
        }
        assert_ne!(engines[0].ids().len(), engines[1].ids().len(), "windows of two lengths");

        let req = Message::SnapshotReq(SnapshotReqMsg { have_chain_len: 1 });
        let manifests: Vec<_> = dirs
            .iter()
            .map(|d| match SnapshotServer::new(d.path()).handle(&req) {
                Some(Message::SnapshotManifest(m)) => m,
                other => panic!("expected a manifest, got {other:?}"),
            })
            .collect();
        assert_eq!(manifests[0].chain_len, 3001);
        assert_eq!(manifests[0].state_key(), manifests[1].state_key());
        let [a, b] = dirs.map(|d| {
            Checkpoint::load_latest(&Disk::default(), d.path()).unwrap().expect("checkpoint")
        });
        assert_eq!(a.image.log.ids().len(), CommittedLog::KEEP);
        assert_eq!(a.image.encoded(), b.image.encoded());
    }
}
