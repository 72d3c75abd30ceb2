//! The replica runner: hosts an engine, inside its `hs1-statesync`
//! [`NodeShell`], behind the TCP mesh, translating between wall-clock
//! time and the shell's virtual clock.
//!
//! A running replica is **one thread**. [`NodeRunner::run_for`] turns
//! its mesh's reactor on one loop: fire the timers that are due, step
//! the shell on every frame the last turn read and every self-addressed
//! message, in order, then take one reactor turn — flush what the shell
//! queued with `writev`, sleep in `epoll_wait` until a socket is ready or
//! the next timer is due, and queue every frame that arrived. A message
//! crosses no channel and wakes no second thread between the socket and
//! the engine, in either direction.
//!
//! The runner keeps only sockets and the clock: it fires each timer the
//! shell asks for when due, unless the shell names it superseded first,
//! and sends each client the [`hs1_core::client::responses`] to an
//! `Action::Executed`. Everything else between engine and transport is
//! the shell's, and the simulator steps the same shell:
//!
//! * With [`NodeRunner::with_storage`] the node is *durable*: it recovers
//!   from its write-ahead journal before joining the mesh, then journals
//!   every commit, certificate, view, and speculation edge as it runs. A
//!   killed node restarted on the same directory re-enters at its
//!   recovered view and catches up through the `FetchBlock`/`FetchResp`
//!   path: the first proposal it receives references a certificate whose
//!   block it does not have, the engine requests the missing body, and
//!   commits walk the fetched chain back to the recovered head.
//! * Every durable node *serves snapshots*: `SnapshotReq` /
//!   `SnapshotChunkReq` are answered out of its newest checkpoint.
//! * With [`NodeRunner::with_state_sync`] the node first runs the
//!   *requesting* side: if `f + 1` peers agree on a snapshot further
//!   ahead than the gap threshold, it downloads and verifies the image
//!   and installs it into the engine and its own storage. Consensus
//!   traffic and requests that arrive meanwhile are deferred and stepped
//!   when the engine starts, so a fresh empty-disk replica joins a
//!   long-running cluster in O(state) instead of O(history).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::http::{HttpServer, Recorder, StatusCell};
use crate::mesh::{Inbound, Mesh};
use hs1_adversary::AdversaryMutator;
use hs1_core::client::responses;
use hs1_core::replica::{Action, Replica, Timer};
use hs1_obs::Obs;
use hs1_statesync::{NodeShell, SyncConfig, SyncStats};
use hs1_storage::{RecoveryInfo, StorageConfig, StorageError};
use hs1_types::{Message, SimTime};

/// Hosts one engine, inside its [`NodeShell`], on the mesh until
/// `run_for` elapses.
pub struct NodeRunner {
    shell: NodeShell,
    mesh: Mesh,
    start: Instant,
    timers: BinaryHeap<Reverse<(SimTime, u64, Timer)>>,
    timer_seq: u64,
    /// The one action buffer every step writes into; `dispatch` drains
    /// it, so a step allocates nothing for its output.
    out: Vec<Action>,
    /// Observability sink (noop unless installed; see `hs1-obs`).
    obs: Obs,
    /// Committed blocks observed (for smoke-test introspection).
    pub committed_blocks: u64,
    /// Recovery diagnostics when the node was opened with storage.
    pub recovery: Option<RecoveryInfo>,
    /// Counters from the state sync (`with_state_sync` only), once it
    /// has ended.
    pub sync_stats: Option<SyncStats>,
    /// Did the node install a verified snapshot (vs replay/fallback)?
    pub synced_via_snapshot: bool,
    /// Live introspection responder (see [`NodeRunner::serve_introspection_with`]).
    introspection: Option<HttpServer>,
    /// The `/status` body, refreshed by the node loop.
    status: Option<StatusCell>,
    /// Last `/status` refresh (throttles the refresh to ~4 Hz).
    status_at: Instant,
}

impl NodeRunner {
    pub fn new(engine: Box<dyn Replica>, mesh: Mesh) -> NodeRunner {
        NodeRunner::with_shell(NodeShell::new(engine), mesh)
    }

    /// Durable node: recover `engine` from the journal in `dir` (replay
    /// first, then install the journal as the engine's persistence), so
    /// a crash–restart cycle on the same directory resumes safely. The
    /// node serves snapshots to syncing peers out of the same directory.
    pub fn with_storage(
        engine: Box<dyn Replica>,
        mesh: Mesh,
        dir: impl AsRef<Path>,
        cfg: StorageConfig,
    ) -> Result<NodeRunner, StorageError> {
        Ok(NodeRunner::with_shell(NodeShell::open(engine, dir, cfg, None)?, mesh))
    }

    /// Durable node that *first* tries snapshot state sync: local journal
    /// recovery runs as in [`NodeRunner::with_storage`], but the engine
    /// starts only once the sync has either installed a verified peer
    /// snapshot on top of the recovered state or decided replay is the
    /// better catch-up (gap below threshold, no agreement within
    /// `overall_timeout`).
    pub fn with_state_sync(
        engine: Box<dyn Replica>,
        mesh: Mesh,
        dir: impl AsRef<Path>,
        cfg: StorageConfig,
        sync: SyncConfig,
    ) -> Result<NodeRunner, StorageError> {
        Ok(NodeRunner::with_shell(NodeShell::open(engine, dir, cfg, Some(sync))?, mesh))
    }

    fn with_shell(shell: NodeShell, mesh: Mesh) -> NodeRunner {
        NodeRunner {
            recovery: shell.recovery().cloned(),
            shell,
            mesh,
            start: Instant::now(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            out: Vec::new(),
            obs: Obs::noop(),
            committed_blocks: 0,
            sync_stats: None,
            synced_via_snapshot: false,
            introspection: None,
            status: None,
            status_at: Instant::now(),
        }
    }

    /// Make this node Byzantine: everything it sends a peer, consensus
    /// traffic and snapshot replies alike, passes through `mutator` (see
    /// [`NodeShell::set_adversary`]). `AdversaryStrategy::Equivocate`
    /// double-votes on the wire; `CorruptSnapshot` serves chunks that
    /// fail the manifest's CRC index, which syncing peers must reject and
    /// rotate away from. The engine itself stays honest.
    pub fn set_adversary(&mut self, mutator: AdversaryMutator) {
        self.shell.set_adversary(mutator);
    }

    /// Install an observability sink (typically wall-clocked:
    /// `Obs::recording(Clock::wall())`) in the node loop, the hosted
    /// engine, the transport, and — for durable nodes — the journal
    /// hooks. Node-level instrumentation is metrics-only: per-peer
    /// send/recv counters and queue-depth gauges; the mesh adds
    /// transport counters (bytes/frames/syscalls), per-peer outbound
    /// queue gauges, shed counters, and the send-stall histogram.
    pub fn set_observer(&mut self, obs: Obs) {
        self.shell.set_observer(obs.clone());
        self.obs = obs.with_actor(self.shell.engine().id().0);
        self.mesh.reactor().obs = self.obs.clone();
    }

    /// Live transport counters for this node's mesh.
    pub fn net_stats(&self) -> crate::mesh::NetStatsSnapshot {
        self.mesh.reactor().stats
    }

    /// Snapshot chunk size served by this node. Deployment-wide setting:
    /// the chunk size is part of the manifest agreement key, so every
    /// serving replica must use the same value.
    pub fn set_snapshot_chunk_bytes(&mut self, chunk_bytes: u32) {
        self.shell.set_snapshot_chunk_bytes(chunk_bytes);
    }

    /// Serve live introspection endpoints (`GET /metrics`, `GET /status`)
    /// on `host:port` (`port` 0 picks an ephemeral port; the bound port
    /// is returned). `/metrics` is served from `rec`: the recorder of the
    /// `Obs::recording`/[`hs1_obs::RecordingObserver`] (or fan-out lane)
    /// the caller attached.
    pub fn serve_introspection_with(
        &mut self,
        host: &str,
        port: u16,
        rec: Recorder,
    ) -> std::io::Result<u16> {
        let status = StatusCell::default();
        let server = HttpServer::serve(
            host,
            port,
            std::sync::Arc::new(move || rec.lock().expect("recorder").snapshot().to_prometheus()),
            status.clone(),
        )?;
        let port = server.port();
        self.introspection = Some(server);
        self.status = Some(status);
        self.refresh_status();
        Ok(port)
    }

    /// Rebuild the `/status` JSON from live node state. Cheap enough to
    /// call at the loop's idle cadence; does nothing when introspection
    /// is off.
    fn refresh_status(&mut self) {
        let Some(cell) = &self.status else { return };
        let stats = self.mesh.reactor().stats;
        let mut peers = String::new();
        for (i, (peer, frames, bytes)) in self.mesh.reactor().queue_depths().into_iter().enumerate()
        {
            if i > 0 {
                peers.push(',');
            }
            peers.push_str(&format!(
                "{{\"peer\":{peer},\"queue_frames\":{frames},\"queue_bytes\":{bytes}}}"
            ));
        }
        let engine = self.shell.engine();
        let body = format!(
            "{{\"replica\":{},\"view\":{},\"chain_len\":{},\
             \"head\":\"{:016x}\",\"committed_blocks\":{},\"reconnects\":{},\
             \"frames_shed\":{},\"peers\":[{peers}]}}\n",
            engine.id().0,
            engine.current_view().0,
            engine.committed_len(),
            hs1_obs::block_key(engine.committed_head()),
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
        self.shell.engine()
    }

    fn now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_nanos() as u64)
    }

    /// Run the node loop for `duration` wall-clock time: [`NodeRunner::run_until`]
    /// with nothing that ends it early.
    pub fn run_for(&mut self, duration: Duration) {
        self.run_until(Instant::now() + duration, |_| false);
    }

    /// Run the node loop until `deadline`, or until `done` answers true;
    /// it is asked once per turn, after the turn's frames are stepped. A
    /// node built with [`NodeRunner::with_state_sync`] syncs first (its
    /// shell defers consensus traffic meanwhile), then runs consensus for
    /// the remainder, all on this one loop. Returns at once if the mesh
    /// has been shut down.
    pub fn run_until(&mut self, deadline: Instant, mut done: impl FnMut(&NodeRunner) -> bool) {
        if self.mesh.reactor().is_closed() {
            return;
        }
        self.start = Instant::now();
        self.step(|shell, now, out| shell.on_init(now, out));
        loop {
            self.fire_due_timers();
            // Frames the last turn read, and self-addressed sends (a
            // leader's copy of its own proposal, a vote for the view it
            // leads), in the order they came. Stepped before the next
            // `epoll_wait`, or the node would sleep on work it already
            // holds.
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
            if left.is_zero() || done(self) {
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
            self.mesh.reactor().turn(wait);
        }
        // Put the last steps' output on the wire before going quiet.
        self.mesh.reactor().flush_connected();
        if let Some((installed, stats)) = self.shell.take_joined() {
            self.synced_via_snapshot = installed;
            self.sync_stats = Some(stats);
        }
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
            self.step(|shell, now, out| shell.on_timer(timer, now, out));
        }
    }

    fn handle_inbound(&mut self, inbound: Inbound) {
        let (from, msg) = match inbound {
            Inbound::FromReplica(from, msg) => {
                self.obs.counter("msgs_recv", from.0, 1);
                (from, msg)
            }
            Inbound::FromClient(_, msg @ Message::Request(_)) => {
                self.obs.counter("requests_recv", 0, 1);
                (self.shell.engine().id(), msg)
            }
            Inbound::FromClient(..) => return,
        };
        self.step(|shell, now, out| shell.on_message(from, msg, now, out));
    }

    /// Step the shell into the action buffer, then carry the actions out.
    fn step(&mut self, f: impl FnOnce(&mut NodeShell, SimTime, &mut Vec<Action>)) {
        let (now, mut out) = (self.now(), std::mem::take(&mut self.out));
        f(&mut self.shell, now, &mut out);
        self.dispatch(out);
    }

    /// Carry out one step's actions, draining `actions`, which becomes the
    /// buffer the next step writes into. Sends only queue: they go out at
    /// the top of the loop's next turn.
    fn dispatch(&mut self, mut actions: Vec<Action>) {
        let mut net = self.mesh.reactor();
        for a in actions.drain(..) {
            match a {
                Action::Send { to, msg } => {
                    self.obs.counter("msgs_sent", to.0, 1);
                    net.send_replica(to, msg)
                }
                Action::Broadcast { msg } => {
                    self.obs.counter("msgs_broadcast", 0, 1);
                    net.broadcast(msg)
                }
                Action::SetTimer { timer, at } => {
                    // A superseded timer would wake the loop only to be dropped.
                    let shell = &self.shell;
                    self.timers.retain(|Reverse((_, _, old))| !shell.is_superseded(*old));
                    self.timer_seq += 1;
                    self.timers.push(Reverse((at, self.timer_seq, timer)));
                }
                Action::Executed { block, digest, kind } => {
                    self.obs.counter("responses_sent", 0, block.txs.len() as u64);
                    for r in responses(&block, digest, kind) {
                        net.send_client(r.tx.client, Message::Response(r));
                    }
                }
                Action::Committed { .. } => self.committed_blocks += 1,
                Action::RolledBack { .. } | Action::EnteredView { .. } => {}
            }
        }
        self.out = actions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{encode_frame, hello_bytes, PeerKind};
    use crate::test_ports::free_base_port;
    use hs1_core::persist::RecoveredState;
    use hs1_types::{BlockId, ReplicaId, SimDuration, Transaction, View};
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// A scripted engine. It arms a chain of `timers` timers, each
    /// `gap` after the previous one fired, logging how late each fired;
    /// and it forwards every message from a peer to itself once, logging
    /// when the peer's message and its own copy were stepped.
    struct Probe {
        id: ReplicaId,
        timers: u32,
        gap: SimDuration,
        armed_for: SimTime,
        late: Sender<u64>,
        stepped: Sender<(ReplicaId, SimTime)>,
    }

    impl Probe {
        fn arm(&mut self, now: SimTime, out: &mut Vec<Action>) {
            if self.timers > 0 {
                self.timers -= 1;
                self.armed_for = SimTime(now.0 + self.gap.0);
                out.push(Action::SetTimer {
                    timer: Timer::ViewTimeout(View(1)),
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
            self.stepped.send((from, now)).unwrap();
            if from != self.id {
                out.push(Action::Send { to: self.id, msg });
            }
        }
        fn on_timer(&mut self, _timer: Timer, now: SimTime, out: &mut Vec<Action>) {
            self.late.send(now.0 - self.armed_for.0).unwrap();
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

    type Logs = (Receiver<u64>, Receiver<(ReplicaId, SimTime)>);

    fn probe_node(n: usize, timers: u32, gap_us: u64) -> (NodeRunner, u16, Logs) {
        let base = free_base_port(n as u16);
        let (late, late_rx) = channel();
        let (stepped, stepped_rx) = channel();
        let probe = Probe {
            id: ReplicaId(0),
            timers,
            gap: SimDuration(gap_us * 1_000),
            armed_for: SimTime(0),
            late,
            stepped,
        };
        let mesh = Mesh::start(ReplicaId(0), n, "127.0.0.1", base).expect("bind");
        (NodeRunner::new(Box::new(probe), mesh), base, (late_rx, stepped_rx))
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
        let mut late: Vec<u64> = late.try_iter().collect();
        assert_eq!(late.len(), TIMERS as usize, "every timer fired");
        late.sort_unstable();
        let median = late[late.len() / 2];
        assert!(median < 2_000_000, "a 200 us timer fired {median} ns late (median)");
        // One turn per timer, one to run out the clock, and slack for
        // spurious wake-ups.
        let turns = node.mesh.reactor().turns;
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
        let stepped: Vec<_> = stepped.try_iter().collect();
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
        let (from, at) = stepped.try_recv().expect("the frame was stepped");
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

    /// `shutdown()` after `run_for` closes the reactor: the listen port is
    /// free the moment it returns.
    #[test]
    fn shutdown_after_a_run_frees_the_port_at_once() {
        let (mut node, base, _) = probe_node(1, 0, 0);
        node.run_for(Duration::from_millis(10));
        assert!(TcpListener::bind(("127.0.0.1", base)).is_err(), "still listening between runs");
        node.shutdown();
        let again = Mesh::start(ReplicaId(0), 1, "127.0.0.1", base).expect("rebind at once");
        // A second run on the closed mesh returns instead of hanging.
        node.run_for(Duration::from_secs(5));
        drop(again);
    }
}
