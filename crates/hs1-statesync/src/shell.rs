//! The node shell: everything between a consensus engine and its
//! transport except sockets and the clock.
//!
//! A [`NodeShell`] wraps an engine and is driven only by events: the TCP
//! node (`hs1-net`) and the simulator (`hs1-sim`) step it through its own
//! `on_init`, `on_message` and `on_timer`, read the engine through
//! [`NodeShell::engine`], and carry out the [`Action`]s a step emits, so
//! the chaos sweep runs the code a node runs on sockets. Around the
//! engine the shell owns:
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
//! * **superseded timers** — a timer for an earlier view than the latest
//!   the engine armed of its kind is dropped when it fires (the engine
//!   acts on a timer for its current view only). A runtime fires every
//!   timer it armed when due, or drops one [`NodeShell::is_superseded`]
//!   names first;
//! * **Byzantine behaviour** — with [`NodeShell::set_adversary`], every
//!   message the engine sends a peer, and every snapshot reply, passes
//!   through one [`AdversaryMutator`]. The engine stays honest; only what
//!   leaves the shell lies.
//!
//! A client's answers to an `Action::Executed` are
//! [`hs1_core::client::responses`], in both runtimes.

use std::path::Path;

use hs1_adversary::AdversaryMutator;
use hs1_core::replica::{Action, Replica, Timer};
use hs1_obs::Obs;
use hs1_storage::{RecoveryInfo, ReplicaStorage, StorageConfig, StorageError};
use hs1_types::{Message, ReplicaId, SimDuration, SimTime, View};

use crate::client::{SyncClient, SyncConfig, SyncPhase, SyncStats, SYNC_TICK};
use crate::server::SnapshotServer;

/// The shell's own poll timer. It takes the view timer of the genesis
/// view, which no engine arms (views start at 1), so `Timer`, which code
/// outside this workspace matches exhaustively, gains no variant. The
/// shell consumes every one, the last of them after go-live too.
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
    /// The latest view the engine armed each timer kind for, by [`kind_of`].
    armed: [View; 3],
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
            armed: [View::GENESIS; 3],
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
        let server = Some(SnapshotServer::new(dir.as_ref()));
        Ok(NodeShell { server, sync, recovery: Some(recovery), ..NodeShell::new(engine) })
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

    /// Run one engine step into `out` and note the timers it armed. With a
    /// mutator set, what the step emitted is relayed through it, and then
    /// it may inject.
    fn step(
        &mut self,
        out: &mut Vec<Action>,
        call: impl FnOnce(&mut dyn Replica, &mut Vec<Action>),
    ) {
        let start = out.len();
        call(&mut *self.engine, out);
        for action in &out[start..] {
            if let Action::SetTimer { timer, .. } = *action {
                let (kind, view) = kind_of(timer);
                self.armed[kind] = self.armed[kind].max(view);
            }
        }
        let Some(mutator) = &mut self.mutator else { return };
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
        }
    }

    /// The engine, for what a runtime reports or checks.
    pub fn engine(&self) -> &dyn Replica {
        &*self.engine
    }

    /// Install an observability sink in the engine and its journal hooks.
    pub fn set_observer(&mut self, obs: Obs) {
        self.engine.set_observer(obs);
    }

    /// Start: the state sync if the shell has one, else the engine.
    pub fn on_init(&mut self, now: SimTime, out: &mut Vec<Action>) {
        match &mut self.sync {
            Some(sync) => {
                sync.deadline = now + sync.budget;
                self.tick(now, out);
            }
            None => self.step(out, |engine, out| engine.on_init(now, out)),
        }
    }

    /// A message from `from`: snapshot traffic is the shell's, the rest
    /// goes to the engine, or waits while the state sync runs.
    pub fn on_message(
        &mut self,
        from: ReplicaId,
        msg: Message,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
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

    /// A timer the runtime armed fell due: the shell's poll, or an
    /// engine timer, which the engine sees unless it is superseded.
    pub fn on_timer(&mut self, timer: Timer, now: SimTime, out: &mut Vec<Action>) {
        if timer == SYNC_TIMER {
            self.tick(now, out);
        } else if !self.is_superseded(timer) {
            self.step(out, |engine, out| engine.on_timer(timer, now, out));
        }
    }

    /// Has the engine armed `timer`'s kind for a later view since? Then
    /// the shell drops it when it fires, and a runtime may drop it at
    /// once rather than wake for it. The poll is never superseded while
    /// the shell syncs: the engine arms nothing until it starts.
    pub fn is_superseded(&self, timer: Timer) -> bool {
        let (kind, view) = kind_of(timer);
        view < self.armed[kind]
    }
}

/// A timer's kind, as an index into `NodeShell::armed`, and its view.
fn kind_of(timer: Timer) -> (usize, View) {
    match timer {
        Timer::ViewTimeout(v) => (0, v),
        Timer::LeaderWait(v) => (1, v),
        Timer::ProposeAt(v) => (2, v),
    }
}

/// Send `msg` to `to` as `mutator` rewrites it.
fn relay(mutator: &mut AdversaryMutator, to: ReplicaId, msg: Message, out: &mut Vec<Action>) {
    out.extend(mutator.mutate(to, msg).into_iter().map(|(to, msg)| Action::Send { to, msg }));
}
