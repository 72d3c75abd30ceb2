//! The replica runner: hosts an engine behind the TCP mesh, translating
//! between wall-clock time and the engine's virtual clock.
//!
//! A running replica is **one thread**. [`NodeRunner::run_for`] adopts
//! its mesh's reactor and loops: fire the engine timers that are due,
//! step self-addressed messages, then take one reactor turn — flush
//! what the engine queued with `writev`, sleep in `epoll_wait` until a
//! socket is ready or the next timer is due, and step the engine on
//! every frame that arrived. A message crosses no channel and wakes no
//! second thread between the socket and the engine, in either
//! direction. The snapshot-sync phase that may precede consensus runs
//! on the same thread: it waits on the mesh's inbox, which turns the
//! reactor, and the loop adopts the reactor when the engine starts.
//!
//! With [`NodeRunner::with_storage`] the node is *durable*: it recovers
//! from its write-ahead journal before joining the mesh (replaying the
//! checkpoint + journal into the engine), then journals every commit,
//! certificate, view, and speculation edge as it runs. A killed node
//! restarted on the same directory re-enters at its recovered view and
//! catches up to live peers through the `FetchBlock`/`FetchResp` path:
//! the first proposal it receives references a certificate whose block it
//! does not have, the engine requests the missing body from the proposer,
//! and commits walk the fetched chain back to the recovered head.
//!
//! Every durable node also *serves snapshots*: `SnapshotReq` /
//! `SnapshotChunkReq` messages are answered out of its newest checkpoint
//! (see `hs1-statesync`). With [`NodeRunner::with_state_sync`] the node
//! additionally runs the *requesting* side before joining consensus: if
//! `f + 1` peers agree on a snapshot that is further ahead than the
//! configured gap threshold, the node downloads and verifies the image,
//! installs it into the engine and its own storage, and only then starts
//! the engine — leaving just the short residual suffix to the per-block
//! fetch path. A fresh empty-disk replica joins a long-running cluster in
//! O(state) instead of O(history).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

use crate::http::HttpServer;
use crate::mesh::{Inbound, Mesh};
use hs1_adversary::AdversaryMutator;
use hs1_core::replica::{Action, Replica, Timer};
use hs1_crypto::Sha256;
use hs1_obs::Obs;
use hs1_statesync::{SnapshotServer, SyncClient, SyncConfig, SyncPhase, SyncStats, SYNC_TICK};
use hs1_storage::{RecoveryInfo, ReplicaStorage, StorageConfig, StorageError};
use hs1_types::message::ResponseMsg;
use hs1_types::{Message, ReplicaId, SimTime};

/// Node-level state-sync tuning: the protocol knobs plus the wall-clock
/// budget after which the node gives up and falls back to per-block
/// replay (snapshot sync is an optimization; it must never be able to
/// wedge a join).
#[derive(Clone, Debug)]
pub struct StateSyncConfig {
    pub sync: SyncConfig,
    /// Abandon the sync phase (and start consensus anyway) after this.
    pub overall_timeout: Duration,
}

impl StateSyncConfig {
    pub fn new(sync: SyncConfig) -> StateSyncConfig {
        StateSyncConfig { sync, overall_timeout: Duration::from_secs(10) }
    }
}

/// Hosts one engine on the mesh until `run_for` elapses.
pub struct NodeRunner {
    engine: Box<dyn Replica>,
    mesh: Mesh,
    start: Instant,
    timers: BinaryHeap<Reverse<(SimTime, u64, Timer)>>,
    timer_seq: u64,
    /// Snapshot serving side (installed for every durable node).
    server: Option<SnapshotServer>,
    /// Adversary layer over the *node-owned* outbound paths (snapshot
    /// serving lives outside the engine; engine traffic is made
    /// adversarial by wrapping the engine in
    /// `hs1_adversary::AdversaryEngine` instead).
    adversary: Option<AdversaryMutator>,
    /// Storage held back until the sync phase decides what to install
    /// (`with_state_sync` only).
    pending_sync: Option<(ReplicaStorage, StateSyncConfig)>,
    /// Observability sink (noop unless installed; see `hs1-obs`).
    obs: Obs,
    /// Non-statesync traffic that arrived during the sync phase, replayed
    /// into the engine when it starts.
    deferred: Vec<Inbound>,
    /// Committed blocks observed (for smoke-test introspection).
    pub committed_blocks: u64,
    /// Recovery diagnostics when the node was opened with storage.
    pub recovery: Option<RecoveryInfo>,
    /// Counters from the sync phase (`with_state_sync` only).
    pub sync_stats: Option<SyncStats>,
    /// Did the node install a verified snapshot (vs replay/fallback)?
    pub synced_via_snapshot: bool,
    /// Live introspection responder (see [`NodeRunner::serve_introspection`]).
    introspection: Option<HttpServer>,
    /// The `/status` body, refreshed by the node loop.
    status: Option<crate::http::StatusCell>,
    /// The recorder behind `/metrics` (auto-attached or caller-supplied).
    introspection_rec: Option<std::sync::Arc<std::sync::Mutex<hs1_obs::RecordingObserver>>>,
    /// Last `/status` refresh (throttles the refresh to ~4 Hz).
    status_at: Instant,
}

impl NodeRunner {
    pub fn new(engine: Box<dyn Replica>, mesh: Mesh) -> NodeRunner {
        NodeRunner {
            engine,
            mesh,
            start: Instant::now(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            server: None,
            adversary: None,
            pending_sync: None,
            obs: Obs::noop(),
            deferred: Vec::new(),
            committed_blocks: 0,
            recovery: None,
            sync_stats: None,
            synced_via_snapshot: false,
            introspection: None,
            status: None,
            introspection_rec: None,
            status_at: Instant::now(),
        }
    }

    /// Durable node: recover `engine` from the journal in `dir` (replay
    /// first, then install the journal as the engine's persistence), so
    /// a crash–restart cycle on the same directory resumes safely. The
    /// node serves snapshots to syncing peers out of the same directory.
    pub fn with_storage(
        mut engine: Box<dyn Replica>,
        mesh: Mesh,
        dir: impl AsRef<Path>,
        cfg: StorageConfig,
    ) -> Result<NodeRunner, StorageError> {
        let (state, storage) = ReplicaStorage::open(dir.as_ref(), cfg)?;
        let recovery = storage.recovery_info.clone();
        engine.restore(state);
        engine.set_persistence(Box::new(storage));
        let mut runner = NodeRunner::new(engine, mesh);
        runner.server = Some(SnapshotServer::new(dir.as_ref()));
        runner.recovery = Some(recovery);
        Ok(runner)
    }

    /// Durable node that *first* tries snapshot state sync: local journal
    /// recovery runs as in [`NodeRunner::with_storage`], but the engine
    /// is not started until the sync phase (the first part of
    /// [`NodeRunner::run_for`]) has either installed a verified peer
    /// snapshot on top of the recovered state or decided replay is the
    /// better catch-up (gap below threshold, no agreement in time).
    pub fn with_state_sync(
        mut engine: Box<dyn Replica>,
        mesh: Mesh,
        dir: impl AsRef<Path>,
        cfg: StorageConfig,
        sync_cfg: StateSyncConfig,
    ) -> Result<NodeRunner, StorageError> {
        let (state, storage) = ReplicaStorage::open(dir.as_ref(), cfg)?;
        let recovery = storage.recovery_info.clone();
        engine.restore(state);
        let mut runner = NodeRunner::new(engine, mesh);
        runner.server = Some(SnapshotServer::new(dir.as_ref()));
        runner.recovery = Some(recovery);
        runner.pending_sync = Some((storage, sync_cfg));
        Ok(runner)
    }

    /// Route the node-owned outbound paths (snapshot serving) through an
    /// `hs1-adversary` mutator — e.g. `AdversaryStrategy::CorruptSnapshot`
    /// makes this node serve chunks that fail the manifest's CRC index,
    /// which syncing peers must reject and rotate away from. One
    /// implementation serves the simulator and the TCP stack; see
    /// `hs1_adversary::AdversaryEngine` for the engine-traffic half.
    pub fn set_adversary(&mut self, mutator: AdversaryMutator) {
        self.adversary = Some(mutator);
    }

    /// Install an observability sink (typically wall-clocked:
    /// `Obs::recording(Clock::wall())`) in the node loop, the hosted
    /// engine, the transport, and — for durable nodes — the journal
    /// hooks. Node-level instrumentation is metrics-only: per-peer
    /// send/recv counters and queue-depth gauges; the mesh adds
    /// transport counters (bytes/frames/syscalls), per-peer outbound
    /// queue gauges, shed counters, and the send-stall histogram.
    pub fn set_observer(&mut self, obs: Obs) {
        self.engine.set_observer(obs.clone());
        self.obs = obs.with_actor(self.engine.id().0);
        self.mesh.set_observer(self.obs.clone());
    }

    /// Frames the transport has shed under backpressure (see
    /// [`crate::mesh::NetStats`]).
    pub fn shed_frames(&self) -> u64 {
        self.mesh.shed_frames()
    }

    /// Live transport counters for this node's mesh.
    pub fn net_stats(&self) -> crate::mesh::NetStatsSnapshot {
        self.mesh.stats()
    }

    /// Serve a snapshot response, mutated by the adversary layer when one
    /// is installed.
    fn serve_snapshot(&mut self, to: ReplicaId, msg: &Message) {
        let Some(server) = &mut self.server else { return };
        let Some(resp) = server.handle(msg) else { return };
        match &mut self.adversary {
            Some(adv) => {
                for (t, m) in adv.mutate(to, resp) {
                    self.mesh.send_replica(t, m);
                }
            }
            None => self.mesh.send_replica(to, resp),
        }
    }

    /// Snapshot chunk size served by this node. Deployment-wide setting:
    /// the chunk size is part of the manifest agreement key, so every
    /// serving replica must use the same value.
    pub fn set_snapshot_chunk_bytes(&mut self, chunk_bytes: u32) {
        if let Some(server) = &mut self.server {
            server.set_chunk_bytes(chunk_bytes);
        }
    }

    /// Serve live introspection endpoints (`GET /metrics`, `GET /status`)
    /// on `host:port` (`port` 0 picks an ephemeral port; the bound port
    /// is returned). If no observer is attached yet, a wall-clocked
    /// recording observer is attached automatically so `/metrics` has
    /// something to serve; if the caller already attached their own
    /// sink, use [`NodeRunner::serve_introspection_with`] and hand over
    /// the recorder so scrapes can snapshot it.
    pub fn serve_introspection(&mut self, host: &str, port: u16) -> std::io::Result<u16> {
        let rec = match &self.introspection_rec {
            Some(rec) => rec.clone(),
            None if self.obs.enabled() => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "an observer is already attached; use serve_introspection_with",
                ));
            }
            None => {
                let (obs, rec) = Obs::recording(hs1_obs::Clock::wall());
                self.set_observer(obs);
                rec
            }
        };
        self.serve_introspection_with(host, port, rec)
    }

    /// [`NodeRunner::serve_introspection`] with an explicit recorder —
    /// for harnesses that attached their own
    /// `Obs::recording`/[`hs1_obs::RecordingObserver`] (or a fan-out
    /// lane) and want `/metrics` served from it.
    pub fn serve_introspection_with(
        &mut self,
        host: &str,
        port: u16,
        rec: std::sync::Arc<std::sync::Mutex<hs1_obs::RecordingObserver>>,
    ) -> std::io::Result<u16> {
        use std::sync::{Arc, Mutex};
        let status = Arc::new(Mutex::new(String::from("{}\n")));
        let metrics_rec = rec.clone();
        let server = HttpServer::serve(
            host,
            port,
            Arc::new(move || metrics_rec.lock().expect("recorder").snapshot().to_prometheus()),
            status.clone(),
        )?;
        let port = server.port();
        self.introspection = Some(server);
        self.introspection_rec = Some(rec);
        self.status = Some(status);
        self.refresh_status();
        Ok(port)
    }

    /// Rebuild the `/status` JSON from live node state. Cheap enough to
    /// call at the loop's idle cadence; does nothing when introspection
    /// is off.
    fn refresh_status(&mut self) {
        let Some(cell) = &self.status else { return };
        let stats = self.mesh.stats();
        let mut peers = String::new();
        for (i, (peer, frames, bytes)) in self.mesh.queue_depths().into_iter().enumerate() {
            if i > 0 {
                peers.push(',');
            }
            peers.push_str(&format!(
                "{{\"peer\":{peer},\"queue_frames\":{frames},\"queue_bytes\":{bytes}}}"
            ));
        }
        let body = format!(
            "{{\"replica\":{},\"view\":{},\"chain_len\":{},\
             \"head\":\"{:016x}\",\"committed_blocks\":{},\"reconnects\":{},\
             \"frames_shed\":{},\"peers\":[{peers}]}}\n",
            self.engine.id().0,
            self.engine.current_view().0,
            self.engine.committed_len(),
            hs1_obs::block_key(self.engine.committed_head()),
            self.committed_blocks,
            stats.reconnects,
            stats.frames_shed,
        );
        *cell.lock().expect("status lock") = body;
        self.status_at = Instant::now();
    }

    /// Sever every connection and release the listen port (the "kill"
    /// half of a kill–restart cycle; peers reconnect lazily).
    pub fn shutdown(&self) {
        self.mesh.shutdown();
    }

    /// The hosted engine: its committed chain and state root, for the
    /// safety and convergence checks a cluster test runs.
    pub fn replica(&self) -> &dyn Replica {
        &*self.engine
    }

    fn now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_nanos() as u64)
    }

    /// Run the node loop for `duration` wall-clock time. A node built
    /// with [`NodeRunner::with_state_sync`] spends the start of the
    /// window in the sync phase (bounded by its `overall_timeout` and by
    /// `duration`), then runs consensus for the remainder. Returns at
    /// once if the mesh has been shut down.
    pub fn run_for(&mut self, duration: Duration) {
        let deadline = Instant::now() + duration;
        if let Some((mut storage, sync_cfg)) = self.pending_sync.take() {
            self.run_sync_phase(&mut storage, &sync_cfg, deadline);
            // Whatever the sync phase decided, the journal goes live now
            // (install_snapshot already ran inside on success).
            self.engine.set_persistence(Box::new(storage));
        }

        // From here on the reactor is this loop's: sends only queue, and
        // nothing reaches `inbox` but self-addressed sends.
        let Some(mut reactor) = self.mesh.adopt() else { return };
        self.start = Instant::now();
        let mut out = Vec::new();
        self.engine.on_init(self.now(), &mut out);
        self.dispatch(out);
        // Replay traffic that arrived while the sync phase held the
        // inbox: stale proposals seed the block store (shortening the
        // residual fetch), requests enter the mempool.
        for inbound in std::mem::take(&mut self.deferred) {
            self.handle_inbound(inbound);
        }
        loop {
            self.fire_due_timers();
            // Self-addressed sends (a leader's copy of its own proposal,
            // a vote for the view it leads) and frames read by turns taken
            // before adoption. Stepped before the next `epoll_wait`, or the
            // node would sleep on work it already holds.
            while let Some(inbound) = self.mesh.inbox.try_recv() {
                self.handle_inbound(inbound);
            }
            if self.obs.enabled() {
                self.obs.gauge("timer_queue_depth", 0, self.timers.len() as u64);
            }
            if self.status.is_some() && self.status_at.elapsed() >= Duration::from_millis(250) {
                self.refresh_status();
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let mut wait = match self.timers.peek() {
                Some(Reverse((at, _, _))) => {
                    left.min(Duration::from_nanos(at.0.saturating_sub(self.now().0)))
                }
                None => left,
            };
            // `poll` rounds a wait up to whole milliseconds: right for an
            // engine timer, wrong for the deadline that ends the loop. A
            // wait that would be rounded past it shrinks to the whole
            // milliseconds left; under one, the rest is slept out and the
            // last turn takes only what is ready.
            if Duration::from_millis(wait.as_nanos().div_ceil(1_000_000) as u64) > left {
                wait = Duration::from_millis(left.as_millis() as u64);
                if wait.is_zero() {
                    std::thread::sleep(left);
                }
            }
            reactor.turn(wait, &mut |inbound| self.handle_inbound(inbound));
        }
        // Put the last steps' output on the wire before going quiet.
        reactor.flush_connected();
        self.mesh.hand_back(reactor);
        self.refresh_status();
        self.obs.flush();
    }

    fn fire_due_timers(&mut self) {
        let now = self.now();
        while let Some(Reverse((at, _, timer))) = self.timers.peek().copied() {
            if at > now {
                break;
            }
            self.timers.pop();
            let mut out = Vec::new();
            self.engine.on_timer(timer, self.now(), &mut out);
            self.dispatch(out);
        }
    }

    fn handle_inbound(&mut self, inbound: Inbound) {
        if let Inbound::FromReplica(from, _) = &inbound {
            self.obs.counter("msgs_recv", from.0, 1);
        }
        match inbound {
            Inbound::FromReplica(from, msg) => match msg {
                // Serving side of state sync lives at the node layer;
                // engines never see snapshot traffic.
                Message::SnapshotReq(_) | Message::SnapshotChunkReq(_) => {
                    self.serve_snapshot(from, &msg);
                }
                // Stale sync-phase replies (e.g. a slow manifest).
                Message::SnapshotManifest(_) | Message::SnapshotChunk(_) => {}
                _ => {
                    let mut out = Vec::new();
                    self.engine.on_message(from, msg, self.now(), &mut out);
                    self.dispatch(out);
                }
            },
            Inbound::FromClient(_client, msg) => {
                if let Message::Request(_) = msg {
                    self.obs.counter("requests_recv", 0, 1);
                    let mut out = Vec::new();
                    self.engine.on_message(self.engine.id(), msg, self.now(), &mut out);
                    self.dispatch(out);
                }
            }
        }
    }

    /// The requesting side of snapshot state sync: drive the
    /// `hs1-statesync` client against the mesh until it finishes or the
    /// budget runs out, deferring all other traffic. On success the
    /// verified image is installed into the engine *and* journaled as a
    /// local checkpoint, so a crash right after the sync recovers from
    /// disk instead of re-downloading.
    fn run_sync_phase(
        &mut self,
        storage: &mut ReplicaStorage,
        cfg: &StateSyncConfig,
        run_deadline: Instant,
    ) {
        let me = self.engine.id();
        let peers: Vec<ReplicaId> =
            (0..self.mesh.n() as u32).map(ReplicaId).filter(|r| *r != me).collect();
        let have = self.engine.committed_len() as u64;
        let mut client = SyncClient::new(cfg.sync.clone(), peers, have);
        let deadline = run_deadline.min(Instant::now() + cfg.overall_timeout);

        let mut out: Vec<(ReplicaId, Message)> = Vec::new();
        let tick = Duration::from_nanos(SYNC_TICK.0);
        while Instant::now() < deadline {
            client.poll(self.now(), &mut out);
            for (to, msg) in out.drain(..) {
                self.mesh.send_replica(to, msg);
            }
            match client.phase() {
                SyncPhase::Done | SyncPhase::Declined | SyncPhase::Failed => break,
                SyncPhase::Collecting | SyncPhase::Downloading => {}
            }
            match self.mesh.inbox.recv_timeout(tick) {
                Ok(Inbound::FromReplica(from, msg)) => match &msg {
                    Message::SnapshotManifest(_) | Message::SnapshotChunk(_) => {
                        client.on_message(from, &msg, self.now(), &mut out);
                    }
                    Message::SnapshotReq(_) | Message::SnapshotChunkReq(_) => {
                        self.serve_snapshot(from, &msg);
                    }
                    _ => self.deferred.push(Inbound::FromReplica(from, msg)),
                },
                Ok(other) => self.deferred.push(other),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break, // shut down
            }
        }
        for (to, msg) in out.drain(..) {
            self.mesh.send_replica(to, msg);
        }

        self.sync_stats = Some(client.stats);
        if let Some(synced) = client.take_synced() {
            self.synced_via_snapshot = synced.install(&mut *self.engine, storage);
        }
    }

    fn dispatch(&mut self, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Send { to, msg } => {
                    self.obs.counter("msgs_sent", to.0, 1);
                    self.mesh.send_replica(to, msg)
                }
                Action::Broadcast { msg } => {
                    self.obs.counter("msgs_broadcast", 0, 1);
                    self.mesh.broadcast(msg)
                }
                Action::SetTimer { timer, at } => {
                    self.timer_seq += 1;
                    self.timers.push(Reverse((at, self.timer_seq, timer)));
                }
                Action::Executed { block, digest, kind } => {
                    // Fan out per-transaction responses to the issuing
                    // clients. The per-transaction result folds the block
                    // digest with the transaction id.
                    self.obs.counter("responses_sent", 0, block.txs.len() as u64);
                    for tx in &block.txs {
                        let mut h = Sha256::new();
                        h.update(&digest.0);
                        h.update_u64(tx.id.client.0 as u64);
                        h.update_u64(tx.id.seq);
                        let result = h.finalize();
                        self.mesh.send_client(
                            tx.id.client,
                            Message::Response(ResponseMsg {
                                tx: tx.id,
                                block: block.id(),
                                result,
                                kind,
                                view: block.view,
                            }),
                        );
                    }
                }
                Action::Committed { .. } => self.committed_blocks += 1,
                Action::RolledBack { .. } | Action::EnteredView { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{encode_frame, hello_bytes, PeerKind};
    use crate::mesh::tests::free_base_port;
    use hs1_core::persist::RecoveredState;
    use hs1_types::{BlockId, SimDuration, Transaction, View};
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::sync::{Arc, Mutex};

    /// A scripted engine. It arms a chain of `timers` timers, each
    /// `gap` after the previous one fired, logging how late each fired;
    /// and it forwards every message from a peer to itself once, logging
    /// when the peer's message and its own copy were stepped.
    struct Probe {
        id: ReplicaId,
        timers: u32,
        gap: SimDuration,
        armed_for: SimTime,
        late: Arc<Mutex<Vec<u64>>>,
        stepped: Arc<Mutex<Vec<(ReplicaId, SimTime)>>>,
    }

    impl Probe {
        fn arm(&mut self, now: SimTime, out: &mut Vec<Action>) {
            if self.timers > 0 {
                self.timers -= 1;
                self.armed_for = SimTime(now.0 + self.gap.0);
                out.push(Action::SetTimer {
                    timer: Timer::ViewTimeout(View(0)),
                    at: self.armed_for,
                });
            }
        }
    }

    impl Replica for Probe {
        fn id(&self) -> ReplicaId {
            self.id
        }
        fn on_init(&mut self, now: SimTime, out: &mut Vec<Action>) {
            self.arm(now, out);
        }
        fn on_message(
            &mut self,
            from: ReplicaId,
            msg: Message,
            now: SimTime,
            out: &mut Vec<Action>,
        ) {
            self.stepped.lock().unwrap().push((from, now));
            if from != self.id {
                out.push(Action::Send { to: self.id, msg });
            }
        }
        fn on_timer(&mut self, _timer: Timer, now: SimTime, out: &mut Vec<Action>) {
            self.late.lock().unwrap().push(now.0 - self.armed_for.0);
            self.arm(now, out);
        }
        fn enqueue_txs(&mut self, _txs: &[Transaction]) {}
        fn current_view(&self) -> View {
            View(0)
        }
        fn committed_head(&self) -> BlockId {
            BlockId::test(0)
        }
        fn committed_chain(&self) -> Vec<BlockId> {
            Vec::new()
        }
        fn set_persistence(&mut self, _persist: Box<dyn hs1_core::persist::Persistence>) {}
        fn restore(&mut self, _state: RecoveredState) {}
        fn state_root(&self) -> hs1_crypto::Digest {
            hs1_crypto::Digest([0; 32])
        }
    }

    type Logs = (Arc<Mutex<Vec<u64>>>, Arc<Mutex<Vec<(ReplicaId, SimTime)>>>);

    fn probe_node(n: usize, timers: u32, gap_us: u64) -> (NodeRunner, u16, Logs) {
        let base = free_base_port(n as u16);
        let late = Arc::new(Mutex::new(Vec::new()));
        let stepped = Arc::new(Mutex::new(Vec::new()));
        let probe = Probe {
            id: ReplicaId(0),
            timers,
            gap: SimDuration(gap_us * 1_000),
            armed_for: SimTime(0),
            late: late.clone(),
            stepped: stepped.clone(),
        };
        let mesh = Mesh::start(ReplicaId(0), n, "127.0.0.1", base).expect("bind");
        (NodeRunner::new(Box::new(probe), mesh), base, (late, stepped))
    }

    /// `epoll_wait(2)` sleeps whole milliseconds. A timer 200 µs away must cost
    /// one 1 ms sleep: rounded down it would spin through thousands of
    /// zero-timeout turns, and dropped it would wait for the 100 ms
    /// metrics tick.
    #[test]
    fn sub_millisecond_timers_fire_on_time_without_spinning() {
        const TIMERS: u32 = 20;
        let (mut node, _, (late, _)) = probe_node(1, TIMERS, 200);
        node.run_for(Duration::from_millis(80));
        let mut late = late.lock().unwrap().clone();
        assert_eq!(late.len(), TIMERS as usize, "every timer fired");
        late.sort_unstable();
        let median = late[late.len() / 2];
        assert!(median < 2_000_000, "a 200 us timer fired {median} ns late (median)");
        // One turn per timer, one to run out the clock, and slack for
        // spurious wake-ups.
        let turns = node.mesh.adopt().expect("parked reactor").turns;
        assert!(turns <= 2 * TIMERS as u64 + 8, "{turns} turns for {TIMERS} timers");
    }

    /// A step taken on a frame from the network sends to self (a leader's
    /// copy of its own proposal). The copy must be stepped before the
    /// loop sleeps again, not when the next unrelated wake-up comes.
    #[test]
    fn self_addressed_sends_are_stepped_before_the_next_sleep() {
        let (mut node, base, (_, stepped)) = probe_node(2, 0, 0);
        let peer = std::thread::spawn(move || {
            // Land in the middle of the node's first (long) sleep.
            std::thread::sleep(Duration::from_millis(30));
            let mut s = TcpStream::connect(("127.0.0.1", base)).expect("dial node");
            s.write_all(&hello_bytes(PeerKind::Replica(1))).expect("hello");
            let ping = Message::Request(Transaction::kv_write(1, 1, 2, 3));
            s.write_all(&encode_frame(&ping)).expect("frame");
            std::thread::sleep(Duration::from_millis(150));
        });
        node.run_for(Duration::from_millis(150));
        peer.join().expect("peer");
        let stepped = stepped.lock().unwrap().clone();
        assert_eq!(stepped.len(), 2, "the peer's frame and the self-copy: {stepped:?}");
        assert_eq!((stepped[0].0, stepped[1].0), (ReplicaId(1), ReplicaId(0)));
        let gap = stepped[1].1 .0 - stepped[0].1 .0;
        assert!(gap < 10_000_000, "self-copy stepped {gap} ns after the frame that caused it");
    }

    /// Nothing reads a node's sockets before `run_for`: a frame a peer
    /// wrote earlier waits in the kernel, and the loop's first turns read
    /// and step it instead of waiting out the run.
    #[test]
    fn a_frame_written_before_run_for_is_stepped_as_the_loop_starts() {
        let (mut node, base, (_, stepped)) = probe_node(2, 0, 0);
        let mut s = TcpStream::connect(("127.0.0.1", base)).expect("dial node");
        s.write_all(&hello_bytes(PeerKind::Replica(1))).expect("hello");
        s.write_all(&encode_frame(&Message::Request(Transaction::kv_write(1, 1, 2, 3)))).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(node.net_stats().rx_frames, 0, "no thread read the frame before run_for");
        node.run_for(Duration::from_millis(200));
        let (from, at) = stepped.lock().unwrap().first().copied().expect("the frame was stepped");
        assert_eq!(from, ReplicaId(1));
        assert!(at.0 < 20_000_000, "the frame was stepped {} ns into the run", at.0);
    }

    /// `epoll_wait(2)` rounds a wait up to whole milliseconds; the last one must
    /// not carry `run_for` past its deadline. A peer that connects
    /// mid-millisecond puts the loop off the millisecond grid, and a
    /// rounded last wait overshot by about a millisecond.
    #[test]
    fn run_for_ends_at_its_deadline() {
        let run = Duration::from_millis(20);
        let mut over: Vec<Duration> = (0..10)
            .map(|_| {
                let (mut node, base, _) = probe_node(2, 0, 0);
                let peer = std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_micros(3_500));
                    let mut s = TcpStream::connect(("127.0.0.1", base)).expect("dial node");
                    s.write_all(&hello_bytes(PeerKind::Replica(1))).expect("hello");
                    std::thread::sleep(run * 2);
                });
                let start = Instant::now();
                node.run_for(run);
                let elapsed = start.elapsed();
                peer.join().expect("peer");
                elapsed.saturating_sub(run)
            })
            .collect();
        over.sort_unstable();
        assert!(over[5] < Duration::from_micros(300), "overshoot: {over:?}");
    }

    /// `shutdown()` after `run_for` closes the parked reactor: the listen
    /// port is free the moment it returns.
    #[test]
    fn shutdown_after_a_run_frees_the_port_at_once() {
        let (mut node, base, _) = probe_node(1, 0, 0);
        node.run_for(Duration::from_millis(10));
        assert!(TcpListener::bind(("127.0.0.1", base)).is_err(), "still listening while parked");
        node.shutdown();
        let again = Mesh::start(ReplicaId(0), 1, "127.0.0.1", base).expect("rebind at once");
        // A second run adopts nothing and returns instead of hanging.
        node.run_for(Duration::from_secs(5));
        drop(again);
    }
}
