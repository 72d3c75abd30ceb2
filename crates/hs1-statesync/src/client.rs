//! The requesting side of state sync: collect manifests until `f + 1`
//! peers agree on a snapshot identity, download and verify chunks,
//! rotate away from corrupt or lying peers, and hand back an installable
//! image.
//!
//! The client is a pure poll-driven state machine: its driver (the
//! [`crate::NodeShell`], or a test harness) feeds inbound messages to
//! [`SyncClient::on_message`], calls [`SyncClient::poll`] for
//! time-driven retries, and sends whatever `(peer, message)` pairs both
//! produce. Nothing here touches sockets or clocks: time is the
//! `SimTime` the caller passes in (the node's elapsed wall clock, the
//! simulator's virtual one), so every Byzantine scenario is unit-testable
//! deterministically. The shell, which both runtimes step, polls every
//! [`SYNC_TICK`] and installs the result with [`SyncedState::install`].

use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

use hs1_core::persist::RecoveredState;
use hs1_core::replica::Replica;
use hs1_crypto::{Digest, PublicKeyRegistry};
use hs1_storage::crc32;
use hs1_storage::ReplicaStorage;
use hs1_types::message::{
    SnapshotChunkMsg, SnapshotChunkReqMsg, SnapshotManifestMsg, SnapshotReqMsg,
};
use hs1_types::{Certificate, Message, ReplicaId, SimDuration, SimTime, SystemConfig, View};

use crate::image::SnapshotImage;

/// Tuning for one sync attempt.
#[derive(Clone, Debug)]
pub struct SyncConfig {
    pub system: SystemConfig,
    /// Snapshot transfer only pays off past this many blocks of gap;
    /// below it the client reports [`SyncPhase::Declined`] and the caller
    /// falls back to ordinary per-block fetch. (The heuristic: replay
    /// costs one round trip *and one re-execution* per block, snapshot
    /// costs O(state) once.) The node and the simulator's chaos
    /// restarts both decide with this one value.
    pub gap_threshold: u64,
    /// Re-send manifest requests at this cadence while collecting.
    pub manifest_retry: Duration,
    /// Re-send an unanswered chunk request after this long.
    pub chunk_retry: Duration,
    /// Give up on the sync and start the engine anyway after this long
    /// (a snapshot is an optimization; it must never wedge a join). The
    /// `NodeShell` measures it on the clock its runtime steps it with.
    pub overall_timeout: Duration,
}

impl SyncConfig {
    pub fn new(system: SystemConfig) -> SyncConfig {
        SyncConfig {
            system,
            gap_threshold: 64,
            manifest_retry: Duration::from_millis(250),
            chunk_retry: Duration::from_millis(500),
            overall_timeout: Duration::from_secs(10),
        }
    }
}

/// Prefer *full* agreement — every configured (unbanned) peer behind one
/// snapshot identity — for this long after the first manifest; only then
/// settle for the minimum `f + 1`. Waiting maximizes download fallbacks
/// when a group member turns out to serve garbage; a peer that is down
/// (or momentarily checkpointing a different position) costs exactly this
/// bounded extra wait, after which `f + 1` proceeds without it.
const FULL_AGREEMENT_GRACE: Duration = Duration::from_millis(400);

/// How often a syncing replica polls its client when no message arrives.
pub const SYNC_TICK: SimDuration = SimDuration::from_millis(20);

/// Has `span` passed since `at`?
fn elapsed(now: SimTime, at: SimTime, span: Duration) -> bool {
    now.since(at).0 >= span.as_nanos() as u64
}

/// Counters for observability and test assertions.
#[derive(Clone, Copy, Debug, Default)]
pub struct SyncStats {
    pub manifests_received: u64,
    pub manifests_rejected: u64,
    /// Peers in the agreement group when the download started.
    pub agreement_peers: u64,
    pub chunks_received: u64,
    pub bytes_received: u64,
    /// Chunks rejected against the manifest's CRC index.
    pub crc_rejections: u64,
    /// Assembled images rejected against the agreed state root.
    pub root_rejections: u64,
    /// Downloads restarted against a different peer.
    pub rotations: u64,
}

/// Where the sync stands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncPhase {
    /// Waiting for `f + 1` peers to agree on a snapshot identity.
    Collecting,
    /// Pulling chunks from one peer of the agreement group.
    Downloading,
    /// Image verified; take it with [`SyncClient::take_synced`].
    Done,
    /// Agreement reached but the gap is below `gap_threshold`: per-block
    /// replay is the better catch-up.
    Declined,
    /// Every peer of the agreement group failed verification.
    Failed,
}

/// The verified result: everything `Replica::restore` +
/// `ReplicaStorage::install_snapshot` need.
#[derive(Clone, Debug)]
pub struct SyncedState {
    pub image: SnapshotImage,
    /// Re-entry view, derived from the highest *verified* certificate
    /// among the agreement group (never from an unverifiable manifest
    /// claim — a lying `view` could mute the replica forever).
    pub view: View,
    pub high_cert: Certificate,
}

impl SyncedState {
    /// Restore the image into `engine` and, if the engine adopted it,
    /// journal it as a local checkpoint in `storage`, so a crash right
    /// after the sync recovers from disk instead of re-downloading. The
    /// engine refuses an image whose log does not extend its own; then
    /// the disk keeps its own history too. Returns whether it installed.
    pub(crate) fn install(self, engine: &mut dyn Replica, storage: &mut ReplicaStorage) -> bool {
        let store = self.image.restore_store();
        let log = self.image.log;
        engine.restore(RecoveredState {
            view: self.view,
            high_cert: Some(self.high_cert.clone()),
            committed_store: Some(store.clone()),
            committed_log: log.clone(),
            decided: Vec::new(),
            speculated: Vec::new(),
        });
        if (engine.committed_len(), engine.committed_head()) != (log.len(), log.head()) {
            return false;
        }
        storage.install_snapshot(&store, &log, self.view, Some(self.high_cert));
        true
    }
}

struct Download {
    from: ReplicaId,
    manifest: SnapshotManifestMsg,
    buf: Vec<u8>,
    next: u32,
    last_req: SimTime,
}

/// The sync state machine. See the module docs for the driving contract.
pub struct SyncClient {
    cfg: SyncConfig,
    registry: PublicKeyRegistry,
    peers: Vec<ReplicaId>,
    have_chain_len: u64,
    phase: SyncPhase,
    /// Latest acceptable manifest per peer. Ordered, so agreement and the
    /// re-entry certificate do not depend on a hasher's iteration order.
    manifests: BTreeMap<ReplicaId, SnapshotManifestMsg>,
    /// Peers that served a chunk or image that failed verification.
    banned: HashSet<ReplicaId>,
    /// Snapshot identity the agreement group converged on.
    agreed_key: Option<Digest>,
    download: Option<Download>,
    result: Option<SyncedState>,
    last_manifest_req: Option<SimTime>,
    /// When the first acceptable manifest arrived (starts the
    /// full-agreement grace clock).
    first_manifest_at: Option<SimTime>,
    pub stats: SyncStats,
}

impl SyncClient {
    /// `peers`: every replica id this client may pull from (its own id
    /// excluded by the caller). `have_chain_len`: committed chain length
    /// already on disk (genesis included).
    pub fn new(cfg: SyncConfig, peers: Vec<ReplicaId>, have_chain_len: u64) -> SyncClient {
        let registry = PublicKeyRegistry::derive(cfg.system.deployment_seed, cfg.system.n as u32);
        SyncClient {
            cfg,
            registry,
            peers,
            have_chain_len,
            phase: SyncPhase::Collecting,
            manifests: BTreeMap::new(),
            banned: HashSet::new(),
            agreed_key: None,
            download: None,
            result: None,
            last_manifest_req: None,
            first_manifest_at: None,
            stats: SyncStats::default(),
        }
    }

    pub fn phase(&self) -> SyncPhase {
        self.phase
    }

    /// Peers banned for serving data that failed verification (chunk CRC
    /// or assembled-root mismatch). Observability for the adversary
    /// tests and node-level diagnostics.
    pub fn banned_peers(&self) -> usize {
        self.banned.len()
    }

    /// The verified image, once `phase()` is [`SyncPhase::Done`].
    pub fn take_synced(&mut self) -> Option<SyncedState> {
        self.result.take()
    }

    /// Time-driven work: initial/retry manifest requests, chunk-request
    /// retries. Call at every loop tick.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<(ReplicaId, Message)>) {
        match self.phase {
            SyncPhase::Collecting => {
                // The grace clock can expire without a new manifest
                // arriving; re-evaluate agreement on time alone.
                self.try_agree(now, out);
                if self.phase != SyncPhase::Collecting {
                    return;
                }
                let due = self
                    .last_manifest_req
                    .map(|at| elapsed(now, at, self.cfg.manifest_retry))
                    .unwrap_or(true);
                if due {
                    self.last_manifest_req = Some(now);
                    let req = Message::SnapshotReq(SnapshotReqMsg {
                        have_chain_len: self.have_chain_len,
                    });
                    for &p in &self.peers {
                        if !self.banned.contains(&p) {
                            out.push((p, req.clone()));
                        }
                    }
                }
            }
            SyncPhase::Downloading => {
                let Some(dl) = &mut self.download else { return };
                if elapsed(now, dl.last_req, self.cfg.chunk_retry) {
                    // Silence is not proof of fault (the peer may be slow
                    // or the message lost): re-ask the same peer; the
                    // caller's overall deadline bounds a mute one.
                    dl.last_req = now;
                    out.push((
                        dl.from,
                        Message::SnapshotChunkReq(SnapshotChunkReqMsg {
                            state_root: dl.manifest.state_root,
                            index: dl.next,
                        }),
                    ));
                }
            }
            _ => {}
        }
    }

    /// Feed one inbound message. Non-statesync messages are ignored.
    pub fn on_message(
        &mut self,
        from: ReplicaId,
        msg: &Message,
        now: SimTime,
        out: &mut Vec<(ReplicaId, Message)>,
    ) {
        match msg {
            Message::SnapshotManifest(m) => self.on_manifest(from, m, now, out),
            Message::SnapshotChunk(c) => self.on_chunk(from, c, now, out),
            _ => {}
        }
    }

    fn on_manifest(
        &mut self,
        from: ReplicaId,
        m: &SnapshotManifestMsg,
        now: SimTime,
        out: &mut Vec<(ReplicaId, Message)>,
    ) {
        if !self.peers.contains(&from) || self.banned.contains(&from) {
            return;
        }
        // Reject what can be rejected without agreement: malformed chunk
        // math, or a certificate that does not verify against the
        // deployment registry (a forged manifest must not count towards —
        // or dilute — agreement). A manifest that is *not ahead* of us is
        // still accepted: f+1 of those is how the client learns quickly
        // that replay is the right catch-up (→ `Declined`).
        if !m.well_formed() || !m.high_cert.verify(&self.registry, self.cfg.system.quorum()) {
            self.stats.manifests_rejected += 1;
            return;
        }
        self.stats.manifests_received += 1;
        self.first_manifest_at.get_or_insert(now);
        self.manifests.insert(from, m.clone());
        if self.phase == SyncPhase::Collecting {
            self.try_agree(now, out);
        }
    }

    /// Group collected manifests by snapshot identity; commit to an
    /// identity once it has *every* responding peer behind it, or — after
    /// the full-agreement grace — at least `f + 1` distinct backers
    /// (preferring the longest chain when several qualify).
    fn try_agree(&mut self, now: SimTime, out: &mut Vec<(ReplicaId, Message)>) {
        let needed = self.cfg.system.f() + 1;
        let mut groups: BTreeMap<Digest, Vec<ReplicaId>> = BTreeMap::new();
        for (&peer, m) in &self.manifests {
            groups.entry(m.state_key()).or_default().push(peer);
        }
        let active = self.peers.iter().filter(|p| !self.banned.contains(p)).count();
        let grace_over = self
            .first_manifest_at
            .map(|at| elapsed(now, at, FULL_AGREEMENT_GRACE))
            .unwrap_or(false);
        let winner = groups
            .into_iter()
            .filter(|(_, peers)| peers.len() >= needed && (peers.len() == active || grace_over))
            .max_by_key(|(key, _)| {
                self.manifests.values().find(|m| m.state_key() == *key).expect("group").chain_len
            });
        let Some((key, mut peers)) = winner else { return };
        let chain_len =
            self.manifests.values().find(|m| m.state_key() == key).expect("group").chain_len;
        if chain_len < self.have_chain_len + self.cfg.gap_threshold {
            self.phase = SyncPhase::Declined;
            return;
        }
        peers.sort_unstable_by_key(|p| p.0);
        self.stats.agreement_peers = peers.len() as u64;
        self.agreed_key = Some(key);
        self.start_download(now, out);
    }

    /// Start (or restart, after a rotation) the download from the
    /// lowest-id unbanned peer whose manifest matches the agreed key.
    fn start_download(&mut self, now: SimTime, out: &mut Vec<(ReplicaId, Message)>) {
        let key = self.agreed_key.expect("agreement before download");
        let candidate = self
            .manifests
            .iter()
            .filter(|(p, m)| !self.banned.contains(p) && m.state_key() == key)
            .min_by_key(|(p, _)| p.0)
            .map(|(&p, m)| (p, m.clone()));
        let Some((from, manifest)) = candidate else {
            self.phase = SyncPhase::Failed;
            return;
        };
        self.phase = SyncPhase::Downloading;
        out.push((
            from,
            Message::SnapshotChunkReq(SnapshotChunkReqMsg {
                state_root: manifest.state_root,
                index: 0,
            }),
        ));
        self.download = Some(Download { from, manifest, buf: Vec::new(), next: 0, last_req: now });
    }

    /// Ban the current serving peer and restart against another member of
    /// the agreement group.
    fn rotate(&mut self, now: SimTime, out: &mut Vec<(ReplicaId, Message)>) {
        if let Some(dl) = self.download.take() {
            self.banned.insert(dl.from);
            self.manifests.remove(&dl.from);
        }
        self.stats.rotations += 1;
        self.start_download(now, out);
    }

    fn on_chunk(
        &mut self,
        from: ReplicaId,
        c: &SnapshotChunkMsg,
        now: SimTime,
        out: &mut Vec<(ReplicaId, Message)>,
    ) {
        if self.phase != SyncPhase::Downloading {
            return;
        }
        let Some(dl) = &mut self.download else { return };
        if from != dl.from || c.state_root != dl.manifest.state_root || c.index != dl.next {
            return; // stale or unsolicited
        }
        let expected_len = {
            let total = dl.manifest.total_bytes;
            let start = c.index as u64 * dl.manifest.chunk_bytes as u64;
            (total - start).min(dl.manifest.chunk_bytes as u64)
        };
        if c.data.len() as u64 != expected_len
            || crc32(&c.data) != dl.manifest.chunk_crcs[c.index as usize]
        {
            self.stats.crc_rejections += 1;
            self.rotate(now, out);
            return;
        }
        self.stats.chunks_received += 1;
        self.stats.bytes_received += c.data.len() as u64;
        dl.buf.extend_from_slice(&c.data);
        dl.next += 1;
        dl.last_req = now;
        if dl.next < dl.manifest.chunk_count() {
            out.push((
                dl.from,
                Message::SnapshotChunkReq(SnapshotChunkReqMsg {
                    state_root: dl.manifest.state_root,
                    index: dl.next,
                }),
            ));
            return;
        }
        self.finish(now, out);
    }

    /// All chunks in: decode, recompute the root, cross-check the agreed
    /// identity (root, record count, and the decoded log's length and head
    /// against the manifest's `chain_len` and `chain_head`), and derive
    /// the re-entry position from verified certificates only.
    fn finish(&mut self, now: SimTime, out: &mut Vec<(ReplicaId, Message)>) {
        let dl = self.download.take().expect("download in progress");
        let m = &dl.manifest;
        let verified = SnapshotImage::decode_payload(&dl.buf).ok().filter(|img| {
            img.state_root == m.state_root
                && img.log.len() as u64 == m.chain_len
                && img.log.head() == m.chain_head
                && img.record_count == m.record_count
        });
        let Some(image) = verified else {
            // CRC-clean bytes that decode to the wrong state: the
            // manifest itself lied. Rotate like any other fault.
            self.stats.root_rejections += 1;
            self.download = Some(dl); // rotate() bans download.from
            self.rotate(now, out);
            return;
        };
        // Re-entry position: the highest-ranked certificate among the
        // agreement group's manifests. Every one of them verified at
        // acceptance, so even a Byzantine group member can only offer a
        // *valid* certificate — at worst a stale one, which live
        // proposals correct in one view.
        let key = self.agreed_key.expect("agreed");
        let high_cert = self
            .manifests
            .values()
            .filter(|gm| gm.state_key() == key)
            .map(|gm| gm.high_cert.clone())
            .chain(std::iter::once(m.high_cert.clone()))
            .max_by_key(|c| c.rank())
            .expect("at least the serving manifest");
        let view = high_cert.view;
        self.result = Some(SyncedState { image, view, high_cert });
        self.phase = SyncPhase::Done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SnapshotServer;
    use hs1_crypto::KeyPair;
    use hs1_ledger::KvStore;
    use hs1_storage::testutil::TempDir;
    use hs1_storage::{Checkpoint, Disk};
    use hs1_types::{BlockId, CertKind, CommittedLog, Slot};
    use std::collections::HashMap;

    const CHUNK: u32 = 64;

    fn system() -> SystemConfig {
        SystemConfig::new(4)
    }

    fn sync_cfg(gap_threshold: u64) -> SyncConfig {
        SyncConfig { gap_threshold, ..SyncConfig::new(system()) }
    }

    /// The shared "cluster state" every honest server checkpoints: 30
    /// committed blocks (the newest 12 ids held), 50 materialized keys.
    fn cluster_checkpoint() -> (KvStore, CommittedLog) {
        let mut store = KvStore::with_records(200);
        for k in 0..50u64 {
            store.put(k, k * 11 + 3);
        }
        let mut log = CommittedLog::from_ids((1..30).map(BlockId::test));
        log.trim(12);
        (store, log)
    }

    /// Build an honest serving replica: its own dir, the shared
    /// checkpoint content (identical bytes across peers, as aligned
    /// checkpoints are in a real cluster).
    fn honest_server(tag: &str) -> (TempDir, SnapshotServer) {
        let tmp = TempDir::new(tag);
        let (store, log) = cluster_checkpoint();
        Checkpoint::capture(100, View(30), Some(Certificate::genesis()), &store, &log)
            .write(&Disk::default(), tmp.path())
            .expect("write checkpoint");
        let server = SnapshotServer::new(tmp.path()).with_chunk_bytes(CHUNK);
        (tmp, server)
    }

    /// Drive `client` against in-memory servers until it stops making
    /// progress. Returns the number of exchanged messages.
    fn run_to_completion(
        client: &mut SyncClient,
        servers: &mut HashMap<ReplicaId, SnapshotServer>,
    ) -> usize {
        let mut exchanged = 0;
        let now = SimTime::ZERO;
        let mut outbox: Vec<(ReplicaId, Message)> = Vec::new();
        client.poll(now, &mut outbox);
        // FIFO delivery (like a real transport): requests fan out in
        // order and replies land before later requests are processed.
        let mut queue: std::collections::VecDeque<(ReplicaId, Message)> =
            outbox.drain(..).collect();
        for _ in 0..10_000 {
            let Some((to, msg)) = queue.pop_front() else { break };
            exchanged += 1;
            let Some(server) = servers.get_mut(&to) else { continue };
            if let Some(reply) = server.handle(&msg) {
                client.on_message(to, &reply, now, &mut outbox);
                queue.extend(outbox.drain(..));
            }
        }
        exchanged
    }

    #[test]
    fn syncs_from_agreeing_honest_peers() {
        let mut servers = HashMap::new();
        let dirs: Vec<TempDir> = (0..3)
            .map(|i| {
                let (dir, server) = honest_server("syncclient-honest");
                servers.insert(ReplicaId(i), server);
                dir
            })
            .collect();
        let _keep = dirs;

        let peers = vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)];
        let mut client = SyncClient::new(sync_cfg(8), peers, 1);
        run_to_completion(&mut client, &mut servers);

        assert_eq!(client.phase(), SyncPhase::Done);
        let synced = client.take_synced().expect("image");
        let (store, log) = cluster_checkpoint();
        assert_eq!(synced.image.restore_store().state_root(), store.state_root());
        assert_eq!(synced.image.log, log);
        assert!(client.stats.agreement_peers >= 2, "f+1 = 2 manifests agreed");
        assert_eq!(client.stats.rotations, 0);
        assert!(client.stats.chunks_received > 1, "multi-chunk download");
    }

    #[test]
    fn single_lying_peer_cannot_trigger_a_download() {
        // One forged manifest (any state it likes) vs one honest one:
        // no f+1 agreement, the client keeps collecting.
        let (dir, mut honest) = honest_server("syncclient-lone");
        let _keep = dir;
        let req = Message::SnapshotReq(SnapshotReqMsg { have_chain_len: 1 });
        let Some(Message::SnapshotManifest(honest_manifest)) = honest.handle(&req) else {
            panic!()
        };
        let mut forged = honest_manifest.clone();
        forged.state_root = Digest([0xAA; 32]); // fabricated state

        let peers = vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)];
        let mut client = SyncClient::new(sync_cfg(8), peers, 1);
        let now = SimTime::ZERO;
        let mut out = Vec::new();
        client.on_message(ReplicaId(0), &Message::SnapshotManifest(forged), now, &mut out);
        client.on_message(
            ReplicaId(1),
            &Message::SnapshotManifest(honest_manifest.clone()),
            now,
            &mut out,
        );
        assert_eq!(client.phase(), SyncPhase::Collecting, "1 honest + 1 forged ≠ agreement");

        // A second honest backer gives f+1 — but the forger keeps full
        // agreement from forming, so the client waits out the grace.
        let later = now + SimDuration::from_secs(1);
        client.on_message(
            ReplicaId(2),
            &Message::SnapshotManifest(honest_manifest),
            later,
            &mut out,
        );
        assert_eq!(client.phase(), SyncPhase::Downloading, "f+1 settles it after the grace");
    }

    #[test]
    fn lying_manifest_group_is_caught_by_the_root_check() {
        // Model the last line of defense: chunks that pass every CRC but
        // assemble into a state whose recomputed root differs from the
        // advertised one. (Reaching this in practice needs ≥ f+1
        // colluders — outside the fault model — or a CRC collision; the
        // client still refuses to install.)
        let (store, log) = cluster_checkpoint();
        let image = SnapshotImage::capture(&store, &log);
        let mut tampered = image.clone();
        tampered.entries[3].1 ^= 0xFF;
        let payload = tampered.payload();
        let mut manifest = tampered.manifest(&payload, CHUNK, View(30), Certificate::genesis());
        manifest.state_root = image.state_root; // claim the honest root

        let peers = vec![ReplicaId(0), ReplicaId(1)];
        let mut client = SyncClient::new(sync_cfg(8), peers, 1);
        let now = SimTime::ZERO;
        let mut out = Vec::new();
        client.on_message(
            ReplicaId(0),
            &Message::SnapshotManifest(Box::new(manifest.clone())),
            now,
            &mut out,
        );
        client.on_message(
            ReplicaId(1),
            &Message::SnapshotManifest(Box::new(manifest.clone())),
            now,
            &mut out,
        );
        assert_eq!(client.phase(), SyncPhase::Downloading);

        // Serve the tampered chunks (CRCs match the tampered payload).
        for _ in 0..manifest.chunk_count() * 2 + 2 {
            let Some((to, Message::SnapshotChunkReq(req))) = out.pop() else {
                break;
            };
            let chunk =
                SnapshotImage::chunk(&payload, req.state_root, CHUNK, req.index).expect("chunk");
            client.on_message(to, &Message::SnapshotChunk(chunk), now, &mut out);
        }
        assert_eq!(client.phase(), SyncPhase::Failed, "both lying peers exhausted");
        assert_eq!(client.stats.root_rejections, 2);
        assert!(client.take_synced().is_none(), "nothing installable survived");
    }

    /// An image whose state is the agreed one but whose log is not the
    /// manifest's (another length, another head) is not installed.
    #[test]
    fn image_log_must_match_the_manifests_chain() {
        let (store, log) = cluster_checkpoint();
        let mut longer = log.clone();
        longer.push(BlockId::test(30));
        let mut other_head = CommittedLog::from_ids((1..29).map(BlockId::test));
        other_head.push(BlockId::test(77));
        for wrong in [longer, other_head] {
            let image = SnapshotImage::capture(&store, &wrong);
            let payload = image.payload();
            let mut manifest = image.manifest(&payload, CHUNK, View(30), Certificate::genesis());
            let honest = SnapshotImage::capture(&store, &log);
            (manifest.chain_len, manifest.chain_head) =
                (honest.log.len() as u64, honest.log.head());

            let mut client = SyncClient::new(sync_cfg(8), vec![ReplicaId(0), ReplicaId(1)], 1);
            let now = SimTime::ZERO;
            let mut out = Vec::new();
            for peer in [ReplicaId(0), ReplicaId(1)] {
                let m = Message::SnapshotManifest(Box::new(manifest.clone()));
                client.on_message(peer, &m, now, &mut out);
            }
            assert_eq!(client.phase(), SyncPhase::Downloading);
            for _ in 0..manifest.chunk_count() * 2 + 2 {
                let Some((to, Message::SnapshotChunkReq(req))) = out.pop() else { break };
                let chunk = SnapshotImage::chunk(&payload, req.state_root, CHUNK, req.index)
                    .expect("chunk");
                client.on_message(to, &Message::SnapshotChunk(chunk), now, &mut out);
            }
            assert_eq!(client.phase(), SyncPhase::Failed, "{:?}", wrong.len());
            assert_eq!(client.stats.root_rejections, 2);
        }
    }

    /// A quorum certificate for `block` at `view`, signed by `signers`.
    fn signed_cert(view: View, block: BlockId, signers: &[u32]) -> Certificate {
        let (kind, slot) = (CertKind::Quorum, Slot(1));
        let bytes = Certificate::signing_bytes(kind, view, slot, block);
        let seed = system().deployment_seed;
        let sigs = signers
            .iter()
            .map(|&i| (ReplicaId(i), KeyPair::derive(seed, i).sign(kind.domain(), &bytes)))
            .collect();
        Certificate { kind, view, slot, block, sigs }
    }

    /// Two valid certificates of one rank (a Byzantine leader aggregated
    /// two quorums for one view) back the agreed snapshot: every client
    /// fed the same manifests re-enters on the same one.
    #[test]
    fn reentry_certificate_does_not_depend_on_map_order() {
        let (store, log) = cluster_checkpoint();
        let image = SnapshotImage::capture(&store, &log);
        let payload = image.payload();
        let block = BlockId::test(29);
        let certs = [
            signed_cert(View(5), block, &[0, 1, 2]),
            signed_cert(View(6), block, &[0, 1, 2]),
            signed_cert(View(6), block, &[1, 2, 3]),
        ];
        let peers = [ReplicaId(0), ReplicaId(1), ReplicaId(2)];
        let mut chosen = Vec::new();
        for _ in 0..16 {
            let mut client = SyncClient::new(sync_cfg(8), peers.to_vec(), 1);
            let mut out = Vec::new();
            for (peer, cert) in peers.iter().zip(&certs) {
                let m = image.manifest(&payload, CHUNK, cert.view, cert.clone());
                client.on_message(
                    *peer,
                    &Message::SnapshotManifest(Box::new(m)),
                    SimTime::ZERO,
                    &mut out,
                );
            }
            while let Some((to, Message::SnapshotChunkReq(req))) = out.pop() {
                let chunk = SnapshotImage::chunk(&payload, req.state_root, CHUNK, req.index)
                    .expect("chunk");
                client.on_message(to, &Message::SnapshotChunk(chunk), SimTime::ZERO, &mut out);
            }
            assert_eq!(client.phase(), SyncPhase::Done);
            chosen.push(client.take_synced().expect("image").high_cert);
        }
        assert_eq!(chosen[0].view, View(6));
        assert!(
            chosen.iter().all(|c| *c == chosen[0]),
            "clients re-entered on different certificates"
        );
    }

    #[test]
    fn small_gap_declines_in_favor_of_block_replay() {
        let mut servers = HashMap::new();
        let dirs: Vec<TempDir> = (0..3)
            .map(|i| {
                let (dir, server) = honest_server("syncclient-gap");
                servers.insert(ReplicaId(i), server);
                dir
            })
            .collect();
        let _keep = dirs;

        // have 25 of 30 blocks; threshold 64 ⇒ replay is cheaper.
        let peers = vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)];
        let mut client = SyncClient::new(sync_cfg(64), peers, 25);
        run_to_completion(&mut client, &mut servers);
        assert_eq!(client.phase(), SyncPhase::Declined);
    }

    #[test]
    fn not_behind_at_all_declines_instead_of_stalling() {
        // A cleanly restarted replica at (or past) the cluster's snapshot
        // position must conclude `Declined` from the peers' not-ahead
        // manifests — not wait out its whole sync budget on silence.
        let mut servers = HashMap::new();
        let dirs: Vec<TempDir> = (0..3)
            .map(|i| {
                let (dir, server) = honest_server("syncclient-current");
                servers.insert(ReplicaId(i), server);
                dir
            })
            .collect();
        let _keep = dirs;

        let peers = vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)];
        let mut client = SyncClient::new(sync_cfg(8), peers, 30); // have == snapshot chain_len
        run_to_completion(&mut client, &mut servers);
        assert_eq!(client.phase(), SyncPhase::Declined);
    }

    #[test]
    fn manifest_with_unverifiable_cert_is_rejected() {
        let (dir, mut honest) = honest_server("syncclient-badcert");
        let _keep = dir;
        let req = Message::SnapshotReq(SnapshotReqMsg { have_chain_len: 1 });
        let Some(Message::SnapshotManifest(m)) = honest.handle(&req) else { panic!() };
        let mut bad = m;
        bad.high_cert = Certificate {
            kind: hs1_types::CertKind::Quorum,
            view: View(5),
            slot: hs1_types::Slot(1),
            block: BlockId::test(1),
            sigs: [].into(), // no quorum
        };
        let mut client = SyncClient::new(sync_cfg(8), vec![ReplicaId(0), ReplicaId(1)], 1);
        let mut out = Vec::new();
        client.on_message(ReplicaId(0), &Message::SnapshotManifest(bad), SimTime::ZERO, &mut out);
        assert_eq!(client.stats.manifests_rejected, 1);
        assert_eq!(client.stats.manifests_received, 0);
    }

    #[test]
    fn poll_retries_manifest_requests() {
        let mut client = SyncClient::new(sync_cfg(8), vec![ReplicaId(0), ReplicaId(1)], 1);
        let t0 = SimTime::ZERO;
        let mut out = Vec::new();
        client.poll(t0, &mut out);
        assert_eq!(out.len(), 2, "initial request to every peer");
        out.clear();
        client.poll(t0, &mut out);
        assert!(out.is_empty(), "no re-request before the retry window");
        client.poll(t0 + SimDuration::from_secs(1), &mut out);
        assert_eq!(out.len(), 2, "re-requested after the window");
    }
}
