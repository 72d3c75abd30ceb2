//! The node shell: everything between a consensus engine and its
//! transport except sockets, the clock and client responses.
//!
//! A [`NodeShell`] is itself a [`Replica`], driven only by events, so the
//! TCP node (`hs1-net`) and the simulator (`hs1-sim`) step it exactly as
//! they would step an engine, and the chaos sweep runs the code a node
//! runs on sockets. Around the engine it owns:
//!
//! * **storage wiring** — [`NodeShell::open`] recovers the engine from
//!   its journal and installs the journal as the engine's persistence;
//! * **snapshot serving** — `SnapshotReq` / `SnapshotChunkReq` are
//!   answered out of the newest checkpoint, whether the engine runs or not;
//! * **state sync** — with a [`SyncConfig`], `on_init` starts a
//!   [`SyncClient`] instead of the engine, polled on [`SYNC_TIMER`]
//!   every [`SYNC_TICK`]. Every other message, client requests included,
//!   is deferred. When the client stops, or its `overall_timeout` runs
//!   out, the same step installs what it verified, hands the journal to
//!   the engine, runs the engine's `on_init`, and steps the deferred
//!   messages in arrival order;
//! * **Byzantine behaviour** — with [`NodeShell::set_adversary`], every
//!   message the engine sends a peer, and every snapshot reply, passes
//!   through one [`AdversaryMutator`]. The engine stays honest; only what
//!   leaves the shell lies.

use std::path::Path;

use hs1_adversary::AdversaryMutator;
use hs1_core::persist::{Persistence, RecoveredState};
use hs1_core::replica::{Action, PoolStats, Replica, Timer};
use hs1_crypto::Digest;
use hs1_obs::Obs;
use hs1_storage::{RecoveryInfo, ReplicaStorage, StorageConfig, StorageError};
use hs1_types::{
    BlockId, CommittedLog, Message, ReplicaId, SimDuration, SimTime, Transaction, View,
};

use crate::client::{SyncClient, SyncConfig, SyncPhase, SyncStats, SYNC_TICK};
use crate::server::SnapshotServer;

/// The shell's own poll timer. It takes the view timer of the genesis
/// view, which no engine arms (views start at 1), so `Timer`, which code
/// outside this workspace matches exhaustively, gains no variant. The
/// shell consumes each one it armed, the last of them after go-live too.
pub const SYNC_TIMER: Timer = Timer::ViewTimeout(View::GENESIS);

/// A replica catching up before its engine starts.
struct Syncing {
    client: SyncClient,
    /// The journal, held back until the sync decides what to install.
    storage: ReplicaStorage,
    budget: SimDuration,
    /// Set by `on_init`: when the sync gives up and the engine starts.
    deadline: SimTime,
    /// Everything but state-sync traffic, in arrival order.
    deferred: Vec<(ReplicaId, Message)>,
}

/// An engine with its storage, snapshot serving and state sync. See the
/// module docs.
pub struct NodeShell {
    engine: Box<dyn Replica>,
    server: Option<SnapshotServer>,
    mutator: Option<AdversaryMutator>,
    sync: Option<Syncing>,
    joined: Option<(bool, SyncStats)>,
    recovery: Option<RecoveryInfo>,
    /// A [`SYNC_TIMER`] is armed and not yet fired.
    tick_armed: bool,
}

impl NodeShell {
    /// A replica without storage: it serves no snapshots and never syncs.
    pub fn new(engine: Box<dyn Replica>) -> NodeShell {
        NodeShell {
            engine,
            server: None,
            mutator: None,
            sync: None,
            joined: None,
            recovery: None,
            tick_armed: false,
        }
    }

    /// A durable replica: recover `engine` from the journal in `dir` and
    /// serve snapshots out of it. With `sync`, the journal goes live only
    /// when the state sync that `on_init` starts is over; without, at once.
    pub fn open(
        mut engine: Box<dyn Replica>,
        dir: impl AsRef<Path>,
        cfg: StorageConfig,
        sync: Option<SyncConfig>,
    ) -> Result<NodeShell, StorageError> {
        let (state, storage) = ReplicaStorage::open(dir.as_ref(), cfg)?;
        let recovery = storage.recovery_info.clone();
        engine.restore(state);
        let sync = match sync {
            Some(cfg) => {
                let me = engine.id();
                let peers = (0..cfg.system.n as u32).map(ReplicaId).filter(|&p| p != me).collect();
                let budget = SimDuration::from_nanos(cfg.overall_timeout.as_nanos() as u64);
                let client = SyncClient::new(cfg, peers, engine.committed_len() as u64);
                let deadline = SimTime::MAX;
                Some(Syncing { client, storage, budget, deadline, deferred: Vec::new() })
            }
            None => {
                engine.set_persistence(Box::new(storage));
                None
            }
        };
        Ok(NodeShell {
            engine,
            server: Some(SnapshotServer::new(dir.as_ref())),
            mutator: None,
            sync,
            joined: None,
            recovery: Some(recovery),
            tick_armed: false,
        })
    }

    /// Make this replica Byzantine: relay everything it sends a peer
    /// through `mutator`, the engine's traffic and snapshot replies
    /// alike. A send to itself passes untouched, and a broadcast becomes
    /// one send per replica in id order, each mutated on its own. After
    /// every engine step the mutator may inject traffic of its own
    /// (`ForgeQuorum`), and a `FetchBlock` for a block it forged is
    /// answered here: the honest engine has never seen one.
    ///
    /// # Panics
    ///
    /// If `mutator` lies for a replica other than the engine's.
    pub fn set_adversary(&mut self, mutator: AdversaryMutator) {
        assert_eq!(mutator.id(), self.engine.id(), "mutator identity must match the engine");
        self.mutator = Some(mutator);
    }

    /// Snapshot chunk size served. Deployment-wide: the chunk size is part
    /// of the manifest's agreement key, so every serving replica must use
    /// the same value.
    pub fn set_snapshot_chunk_bytes(&mut self, chunk_bytes: u32) {
        self.server = self.server.take().map(|s| s.with_chunk_bytes(chunk_bytes));
    }

    /// What journal recovery found (durable replicas only).
    pub fn recovery(&self) -> Option<&RecoveryInfo> {
        self.recovery.as_ref()
    }

    /// Is the engine running (no state sync pending or in progress)?
    pub fn is_live(&self) -> bool {
        self.sync.is_none()
    }

    /// Once, after the step that ended a state sync: whether it installed
    /// a snapshot, and the client's counters.
    pub fn take_joined(&mut self) -> Option<(bool, SyncStats)> {
        self.joined.take()
    }

    fn serve(&mut self, to: ReplicaId, msg: &Message, out: &mut Vec<Action>) {
        let Some(resp) = self.server.as_mut().and_then(|s| s.handle(msg)) else { return };
        match &mut self.mutator {
            Some(m) => relay(m, to, resp, out),
            None => out.push(Action::Send { to, msg: resp }),
        }
    }

    /// Run one engine step into `out`. With a mutator set, what the step
    /// emitted is relayed through it, and then it may inject.
    fn step(
        &mut self,
        out: &mut Vec<Action>,
        call: impl FnOnce(&mut dyn Replica, &mut Vec<Action>),
    ) {
        let Some(mutator) = &mut self.mutator else { return call(&mut *self.engine, out) };
        let start = out.len();
        call(&mut *self.engine, out);
        let me = self.engine.id();
        for action in out.split_off(start) {
            match action {
                Action::Send { to, msg } if to != me => relay(mutator, to, msg, out),
                Action::Broadcast { msg } => {
                    for to in (0..mutator.n() as u32).map(ReplicaId) {
                        if to == me {
                            out.push(Action::Send { to, msg: msg.clone() });
                        } else {
                            relay(mutator, to, msg.clone(), out);
                        }
                    }
                }
                other => out.push(other),
            }
        }
        if let Some(sends) = mutator.maybe_forge(self.engine.current_view()) {
            out.extend(sends.into_iter().map(|(to, msg)| Action::Send { to, msg }));
        }
    }

    /// Hand `msg` to the engine, unless it fetches a block the mutator
    /// forged.
    fn deliver(&mut self, from: ReplicaId, msg: Message, now: SimTime, out: &mut Vec<Action>) {
        if let (Some(m), Message::FetchBlock { id }) = (&self.mutator, &msg) {
            if let Some(block) = m.forged_block(*id) {
                return out.push(Action::Send { to: from, msg: Message::FetchResp { block } });
            }
        }
        self.step(out, |engine, out| engine.on_message(from, msg, now, out));
    }

    /// Send what the client produced, and start the engine once the
    /// client has stopped or the budget is spent.
    fn advance(&mut self, sent: Vec<(ReplicaId, Message)>, now: SimTime, out: &mut Vec<Action>) {
        out.extend(sent.into_iter().map(|(to, msg)| Action::Send { to, msg }));
        let Some(sync) = &self.sync else { return };
        let running = matches!(sync.client.phase(), SyncPhase::Collecting | SyncPhase::Downloading);
        if running && now < sync.deadline {
            return;
        }
        let Syncing { mut client, mut storage, deferred, .. } = self.sync.take().expect("syncing");
        let installed =
            client.take_synced().is_some_and(|s| s.install(&mut *self.engine, &mut storage));
        self.engine.set_persistence(Box::new(storage));
        self.joined = Some((installed, client.stats));
        self.step(out, |engine, out| engine.on_init(now, out));
        for (from, msg) in deferred {
            self.deliver(from, msg, now, out);
        }
    }

    fn tick(&mut self, now: SimTime, out: &mut Vec<Action>) {
        let Some(sync) = &mut self.sync else { return };
        let mut sent = Vec::new();
        sync.client.poll(now, &mut sent);
        self.advance(sent, now, out);
        if self.sync.is_some() {
            out.push(Action::SetTimer { timer: SYNC_TIMER, at: now + SYNC_TICK });
            self.tick_armed = true;
        }
    }
}

impl Replica for NodeShell {
    fn id(&self) -> ReplicaId {
        self.engine.id()
    }

    fn on_init(&mut self, now: SimTime, out: &mut Vec<Action>) {
        match &mut self.sync {
            Some(sync) => {
                sync.deadline = now + sync.budget;
                self.tick(now, out);
            }
            None => self.step(out, |engine, out| engine.on_init(now, out)),
        }
    }

    fn on_message(&mut self, from: ReplicaId, msg: Message, now: SimTime, out: &mut Vec<Action>) {
        match msg {
            Message::SnapshotReq(_) | Message::SnapshotChunkReq(_) => self.serve(from, &msg, out),
            // A late reply after go-live is dropped.
            Message::SnapshotManifest(_) | Message::SnapshotChunk(_) => {
                let Some(sync) = &mut self.sync else { return };
                let mut sent = Vec::new();
                sync.client.on_message(from, &msg, now, &mut sent);
                self.advance(sent, now, out);
            }
            msg => match &mut self.sync {
                Some(sync) => sync.deferred.push((from, msg)),
                None => self.deliver(from, msg, now, out),
            },
        }
    }

    fn on_timer(&mut self, timer: Timer, now: SimTime, out: &mut Vec<Action>) {
        if timer == SYNC_TIMER && self.tick_armed {
            self.tick_armed = false;
            self.tick(now, out);
        } else {
            self.step(out, |engine, out| engine.on_timer(timer, now, out));
        }
    }

    fn enqueue_txs(&mut self, txs: &[Transaction]) {
        self.engine.enqueue_txs(txs);
    }

    fn pool_stats(&self) -> PoolStats {
        self.engine.pool_stats()
    }

    fn current_view(&self) -> View {
        self.engine.current_view()
    }

    fn committed_head(&self) -> BlockId {
        self.engine.committed_head()
    }

    fn committed_chain(&self) -> Vec<BlockId> {
        self.engine.committed_chain()
    }

    fn committed_log(&self) -> CommittedLog {
        self.engine.committed_log()
    }

    fn committed_len(&self) -> usize {
        self.engine.committed_len()
    }

    fn set_observer(&mut self, obs: Obs) {
        self.engine.set_observer(obs);
    }

    fn set_persistence(&mut self, persist: Box<dyn Persistence>) {
        self.engine.set_persistence(persist);
    }

    fn restore(&mut self, state: RecoveredState) {
        self.engine.restore(state);
    }

    fn state_root(&self) -> Digest {
        self.engine.state_root()
    }
}

/// Send `msg` to `to` as `mutator` rewrites it.
fn relay(mutator: &mut AdversaryMutator, to: ReplicaId, msg: Message, out: &mut Vec<Action>) {
    out.extend(mutator.mutate(to, msg).into_iter().map(|(to, msg)| Action::Send { to, msg }));
}
