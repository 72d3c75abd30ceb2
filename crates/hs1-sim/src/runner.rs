//! The discrete-event loop: replicas + network model + resource model +
//! client oracle — plus, when a chaos plan is installed, scheduled
//! partition/heal transitions and replica crash-restart.
//!
//! Every replica is an `hs1-statesync` [`NodeShell`], the one a TCP node
//! runs, stepped through its own `on_init` / `on_message` / `on_timer`:
//! the runner keeps only time, the network and resource models, and the
//! oracles. A restarted replica recovers
//! through its shell's `hs1-storage` journal and catches up through its
//! shell's state sync, which defers consensus traffic and requests while
//! it runs, as on a node; every durable replica's shell answers snapshot
//! requests over the modeled network.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

use crate::chaos::{ChaosEventKind, ChaosPlan};
use crate::cost::CostModel;
use crate::net::NetModel;
use crate::openloop::{ArrivalGen, OpenLoop};
use crate::oracle::{ClientOracle, LatencyHist};
use hs1_adversary::AdversaryStrategy;
use hs1_core::invariants::{self, Committed, Observation};
use hs1_core::persist::RecoveredState;
use hs1_core::replica::{Action, Replica, Timer};
use hs1_crypto::Digest;
use hs1_obs::{block_key, Obs, Stage};
use hs1_statesync::NodeShell;
use hs1_storage::{Disk, StorageError};
use hs1_types::{
    Block, BlockId, ClientId, CommittedLog, Message, ProtocolKind, ReplicaId, ReplyKind,
    SimDuration, SimTime, SplitMix64, Transaction, View,
};
use hs1_workloads::Workload;

const RESPONSE_BYTES_PER_TX: usize = 96;

/// Pseudo-actor id for harness-level trace events (client-oracle
/// finality, per-block submit means) — distinct from any replica id.
pub(crate) const ORACLE_ACTOR: u32 = u32::MAX;

enum Ev {
    /// Message bytes arrived at `to`; it now queues for CPU.
    Deliver { from: ReplicaId, to: ReplicaId, msg: Message },
    /// CPU processing finished; invoke the engine. `inc` is the target's
    /// incarnation at enqueue time: a crash kills in-flight processing.
    Handle { from: ReplicaId, to: ReplicaId, msg: Message, inc: u32 },
    /// `inc` guards against timers armed by a pre-crash incarnation.
    Timer { at: ReplicaId, timer: Timer, inc: u32 },
    /// A client request lands at every replica that is up.
    Submit { tx: Transaction },
    /// The CPU finished the submission step that produced `actions`;
    /// they leave now (see `SimRunner::on_submit`).
    Acted { at: ReplicaId, actions: Vec<Action>, inc: u32 },
    /// The next open-loop arrival fires (schedules its successor).
    OpenArrival,
    /// A scheduled chaos transition (partition/heal/crash/restart).
    Chaos { kind: ChaosEventKind },
}

/// Chaos-injection counters (all zero on fault-free runs).
#[derive(Clone, Debug, Default)]
pub struct ChaosStats {
    /// Messages lost to link faults, partitions, or a down receiver.
    pub dropped_msgs: u64,
    /// Extra copies delivered by link duplication.
    pub duplicated_msgs: u64,
    /// Copies delivered with a chaos reorder delay.
    pub reordered_msgs: u64,
    pub partitions: u64,
    pub crashes: u64,
    pub restarts: u64,
    /// Restarts that installed a snapshot their `SyncClient` downloaded.
    pub snapshot_syncs: u64,
    /// Restarts whose `SyncClient` declined (gap under
    /// `SyncConfig::gap_threshold`) or failed, and so caught up through
    /// per-block fetch replay.
    pub replay_catchups: u64,
    /// Bit-rot events applied to a downed replica's storage.
    pub bitrot_events: u64,
    /// Recoveries that (correctly) fail-stopped on unrecoverable rot —
    /// the replica stays down rather than rejoining with bad state.
    pub bitrot_failstops: u64,
    /// Snapshot downloads a restarted replica's `SyncClient` moved to
    /// another peer after a chunk or image failed verification.
    pub snapshot_rotations: u64,
    /// Adversarial backups (replicas whose shell lies) this run.
    pub adversaries: u64,
    /// Restarted replicas still syncing when the run ended (a replica
    /// that fail-stopped is down, not syncing). Not in the fingerprint.
    pub stuck_syncs: u64,
}

/// Everything the runner needs to crash-restart replicas mid-run:
/// per-replica memory disks holding the journals (bit rot flips bits on
/// them), and the restart itself — replica `i`'s fresh engine in a shell
/// that recovers from its disk and then syncs with its peers.
pub(crate) struct ChaosRuntime {
    pub disks: Vec<Disk>,
    pub reopen: Box<dyn Fn(usize) -> Result<NodeShell, StorageError>>,
}

/// Post-crash placeholder: keeps the dead replica's last committed chain
/// (the runner's record of it) and state root visible to the invariant and
/// recovery checks.
struct Downed {
    id: ReplicaId,
    log: CommittedLog,
    root: Digest,
    view: View,
}

impl Replica for Downed {
    fn id(&self) -> ReplicaId {
        self.id
    }
    fn on_init(&mut self, _now: SimTime, _out: &mut Vec<Action>) {}
    fn on_message(&mut self, _f: ReplicaId, _m: Message, _n: SimTime, _o: &mut Vec<Action>) {}
    fn on_timer(&mut self, _t: Timer, _n: SimTime, _o: &mut Vec<Action>) {}
    fn enqueue_txs(&mut self, _txs: &[Transaction]) {}
    fn current_view(&self) -> View {
        self.view
    }
    fn committed_head(&self) -> BlockId {
        self.log.head()
    }
    fn committed_chain(&self) -> Vec<BlockId> {
        self.log.ids().collect()
    }
    fn committed_log(&self) -> CommittedLog {
        self.log.clone()
    }
    fn set_persistence(&mut self, _p: Box<dyn hs1_core::Persistence>) {}
    fn restore(&mut self, _rs: RecoveredState) {}
    fn state_root(&self) -> Digest {
        self.root
    }
}

/// Open-loop client state: the arrival stream plus the bookkeeping the
/// duplicate-submitting adversary and the round-robin client pool need.
struct OpenState {
    gen: ArrivalGen,
    cfg: OpenLoop,
    next_client: u32,
    /// Arrivals fired so far (drives `duplicate_every`).
    arrivals: u64,
    /// The previous fresh transaction (what a duplicate resubmits).
    last_tx: Option<Transaction>,
}

/// Aggregated counters produced by a run.
#[derive(Clone, Debug, Default)]
pub(crate) struct RunStats {
    pub finalized_txs: u64,
    pub committed_blocks: u64,
    pub rollbacks: u64,
    pub views_entered: u64,
    pub orphaned_blocks: u64,
    /// Open-loop transactions offered inside the measurement window
    /// (fresh arrivals only; zero on closed-loop runs).
    pub offered_txs: u64,
    /// Submissions no replica's mempool admitted (every one that was up
    /// was at its bound) inside the measurement window: backpressure.
    pub admission_drops: u64,
    /// Submissions every replica that was up dropped as duplicates at
    /// admission (whole-run total).
    pub requests_deduped: u64,
    /// Replica responses observed by the client oracle (spec, committed).
    pub responses: (u64, u64),
    pub mean_latency_ms: f64,
    pub p50_latency_ms: f64,
    pub p99_latency_ms: f64,
    pub invariant_violations: Vec<String>,
    pub chaos: ChaosStats,
}

pub(crate) struct SimRunner {
    shells: Vec<NodeShell>,
    /// Each replica's committed chain as its engine's steps committed it,
    /// every height kept (see [`resync`] for the exceptions): harness
    /// memory, where a replica keeps a window. The fingerprint and the
    /// oracles read these.
    logs: Vec<CommittedLog>,
    net: NetModel,
    cost: CostModel,
    quorum: usize,

    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// Scheduled events by heap index. A slot is emptied when its event
    /// runs and then reused, so a run holds the messages in flight, not
    /// every message it ever scheduled.
    events: Vec<Option<Ev>>,
    free: Vec<usize>,
    seq: u64,
    now: SimTime,
    cpu_free: Vec<SimTime>,
    nic_free: Vec<SimTime>,
    rng: SplitMix64,

    oracle: ClientOracle,
    workload: Box<dyn Workload>,
    client_seq: HashMap<ClientId, u64>,
    request_delay: SimDuration,
    /// Open-loop arrival machinery; `None` = closed-loop clients.
    open_loop: Option<OpenState>,

    /// All proposed blocks in flight (for counting orphans).
    proposed: HashMap<BlockId, Arc<Block>>,
    committed_first: HashSet<BlockId>,
    /// Every block the client oracle took as final, with its view.
    finals: Vec<(BlockId, View)>,
    /// Highest view of a block committed anywhere.
    frontier: View,

    // -- chaos state (inert on fault-free runs) -----------------------------
    /// Crash-restart machinery; `None` disables mid-run crash handling.
    chaos_rt: Option<ChaosRuntime>,
    /// Replicas currently down (messages, requests and timers to them
    /// are dropped).
    crashed: Vec<bool>,
    /// Bumped at every crash; stale Handle/Timer events are discarded.
    incarnation: Vec<u32>,
    /// Per-replica timer-rate factors (clock-skew axis; 1.0 = nominal).
    timer_rate: Vec<f64>,
    /// Replicas whose on-disk state was rotted since their last crash:
    /// the recovery oracle switches from "preserve everything" to
    /// "fail-stop or clean prefix, never silent divergence".
    bitrot: Vec<bool>,
    /// Seed the bit-flip positions derive from (the plan seed).
    chaos_seed: u64,
    /// `(time, committed_blocks)` at the last heal/rejoin: liveness must
    /// resume after it.
    liveness_mark: Option<(SimTime, u64)>,
    /// Consecutive live leaders the protocol needs to commit a block.
    commit_run: usize,

    warmup_end: SimTime,
    window_end: SimTime,
    hist: LatencyHist,
    stats: RunStats,
    /// Observability sink shared with every engine; the runner drives its
    /// manual clock to `now` so trace timestamps are sim-time (and thus
    /// byte-reproducible per seed).
    obs: Obs,
    /// The one action buffer every step writes into, drained by `absorb`.
    out: Vec<Action>,
}

impl SimRunner {
    pub(crate) fn new(
        shells: Vec<NodeShell>,
        net: NetModel,
        cost: CostModel,
        protocol: ProtocolKind,
        f: usize,
        workload: Box<dyn Workload>,
        seed: u64,
    ) -> SimRunner {
        let n = shells.len();
        let mut rng = SplitMix64::new(seed ^ 0x51e5);
        let request_delay = (0..n)
            .map(|r| net.client_delay(ReplicaId(r as u32), &mut rng))
            .min()
            .unwrap_or(SimDuration::ZERO);
        SimRunner {
            quorum: n - f,
            oracle: ClientOracle::new(n, f, protocol),
            logs: shells.iter().map(|s| s.engine().committed_log()).collect(),
            shells,
            net,
            cost,
            heap: BinaryHeap::new(),
            events: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            cpu_free: vec![SimTime::ZERO; n],
            nic_free: vec![SimTime::ZERO; n],
            rng,
            workload,
            client_seq: HashMap::new(),
            request_delay,
            open_loop: None,
            proposed: HashMap::new(),
            committed_first: HashSet::new(),
            finals: Vec::new(),
            frontier: View::GENESIS,
            chaos_rt: None,
            crashed: vec![false; n],
            incarnation: vec![0; n],
            timer_rate: vec![1.0; n],
            bitrot: vec![false; n],
            chaos_seed: 0,
            liveness_mark: None,
            // A k-chain of certified blocks, then the leader whose
            // proposal carries the last certificate.
            commit_run: if protocol == ProtocolKind::HotStuff { 4 } else { 3 },
            warmup_end: SimTime::ZERO,
            window_end: SimTime::MAX,
            hist: LatencyHist::default(),
            stats: RunStats::default(),
            obs: Obs::noop(),
            out: Vec::new(),
        }
    }

    fn n(&self) -> usize {
        self.shells.len()
    }

    /// Install an observability sink in the runner and every engine. The
    /// sink's clock should be [`hs1_obs::Clock::manual`]; the runner
    /// advances it to sim-time before each event, so all trace timestamps
    /// are deterministic per seed. Pure observer: fingerprints are
    /// identical with or without a recording sink.
    pub(crate) fn set_observer(&mut self, obs: Obs) {
        for s in self.shells.iter_mut() {
            s.set_observer(obs.clone());
        }
        self.obs = obs;
    }

    /// Install a chaos plan: link faults go to the network model, the
    /// scheduled transitions enter the event heap, and (when the plan
    /// crashes replicas) `rt` supplies the storage dirs, engine factory
    /// and sync config the restart path needs.
    pub(crate) fn install_chaos(&mut self, plan: &ChaosPlan, rt: Option<ChaosRuntime>) {
        self.net.install_chaos(plan);
        if plan.has_crashes() {
            assert!(rt.is_some(), "a plan with crash events needs a ChaosRuntime");
        }
        self.chaos_rt = rt;
        self.chaos_seed = plan.seed;
        if plan.skew.len() == self.n() {
            self.timer_rate = plan.skew.clone();
        }
        for ev in &plan.events {
            self.push(ev.at, Ev::Chaos { kind: ev.kind.clone() });
        }
    }

    /// Record which replicas lie: the chaos plan's adversaries merged with
    /// the scenario's own, each with a mutator on its shell. The one place
    /// the count is set.
    pub(crate) fn note_adversaries(&mut self, set: &[(usize, AdversaryStrategy)]) {
        self.stats.chaos.adversaries = set.len() as u64;
    }

    fn push(&mut self, at: SimTime, ev: Ev) {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.events.push(None);
            self.events.len() - 1
        });
        self.events[idx] = Some(ev);
        self.heap.push(Reverse((at, self.seq, idx)));
        self.seq += 1;
    }

    /// Spawn `clients` closed-loop clients, staggered over the first
    /// millisecond.
    pub(crate) fn spawn_clients(&mut self, clients: usize) {
        for c in 0..clients {
            let client = ClientId(c as u32);
            let submit = SimTime::ZERO + SimDuration::from_nanos((c as u64) * 1_000);
            self.issue_tx(client, submit);
        }
    }

    /// Install open-loop clients instead of [`SimRunner::spawn_clients`]:
    /// transactions arrive on `cfg`'s schedule regardless of finality, so
    /// the run can be driven past saturation. The arrival RNG is a fork of
    /// the runner's stream — closed-loop runs consume zero extra draws, so
    /// their event sequences (and fingerprints) are untouched.
    pub(crate) fn spawn_open_loop(&mut self, cfg: OpenLoop) {
        let mut gen = ArrivalGen::new(&cfg, self.rng.fork(0x09e4_10ad));
        let first = gen.next_arrival();
        self.open_loop = Some(OpenState { gen, cfg, next_client: 0, arrivals: 0, last_tx: None });
        self.push(first, Ev::OpenArrival);
    }

    fn issue_tx(&mut self, client: ClientId, submit: SimTime) -> Transaction {
        let seq = self.client_seq.entry(client).or_insert(0);
        let tx = self.workload.next_tx(client, *seq);
        *seq += 1;
        self.oracle.note_submit(tx.id, submit);
        self.push(submit + self.request_delay, Ev::Submit { tx });
        tx
    }

    /// One open-loop arrival: issue a fresh transaction (or, for the
    /// duplicate-submitting adversary's turns, resubmit the previous one)
    /// and schedule the next arrival. Arrivals stop at the end of the
    /// measurement window — the drain phase measures completion, not new
    /// offered load.
    fn on_open_arrival(&mut self) {
        let Some(st) = self.open_loop.as_mut() else { return };
        st.arrivals += 1;
        let dup_tx =
            if st.cfg.duplicate_every > 0 && st.arrivals.is_multiple_of(st.cfg.duplicate_every) {
                st.last_tx
            } else {
                None
            };
        let client = ClientId(st.next_client);
        if dup_tx.is_none() {
            st.next_client = (st.next_client + 1) % st.cfg.clients.max(1) as u32;
        }
        match dup_tx {
            // Same TxId, resubmitted: admission dedup must drop it.
            Some(tx) => self.push(self.now + self.request_delay, Ev::Submit { tx }),
            None => {
                if self.now >= self.warmup_end && self.now <= self.window_end {
                    self.stats.offered_txs += 1;
                }
                let tx = self.issue_tx(client, self.now);
                self.open_loop.as_mut().expect("still installed").last_tx = Some(tx);
            }
        }
        let next = self.open_loop.as_mut().expect("still installed").gen.next_arrival();
        if next <= self.window_end {
            self.push(next, Ev::OpenArrival);
        }
    }

    /// Run the measured experiment: `warmup` then `window` of measurement,
    /// then a short drain for invariant checking. Returns the stats.
    pub(crate) fn run(&mut self, warmup: SimDuration, window: SimDuration) -> RunStats {
        self.warmup_end = SimTime::ZERO + warmup;
        self.window_end = self.warmup_end + window;
        self.obs.set_now(self.now.0);
        // Initialize engines.
        for i in 0..self.n() {
            self.step_replica(i, |e, now, out| e.on_init(now, out));
        }
        let drain_until = self.window_end + SimDuration::from_millis(250);
        while let Some(Reverse((at, _, idx))) = self.heap.pop() {
            if at > drain_until {
                break;
            }
            self.now = at;
            self.obs.set_now(at.0);
            let ev = self.events[idx].take().expect("an event runs once");
            self.free.push(idx);
            self.step(ev);
        }
        self.finish();
        self.stats.clone()
    }

    fn step(&mut self, ev: Ev) {
        match ev {
            Ev::Deliver { from, to, msg } => {
                let i = to.0 as usize;
                if self.crashed[i] {
                    // The receiving process is down; the bytes vanish.
                    self.stats.chaos.dropped_msgs += 1;
                    return;
                }
                let start = self.now.max(self.cpu_free[i]);
                let cost = self.cost.recv_cost(&msg, self.quorum);
                let done = start + cost;
                self.cpu_free[i] = done;
                self.push(done, Ev::Handle { from, to, msg, inc: self.incarnation[i] });
            }
            Ev::Handle { from, to, msg, inc } => {
                let i = to.0 as usize;
                if inc != self.incarnation[i] || self.crashed[i] {
                    // A crash killed the processing mid-flight.
                    self.stats.chaos.dropped_msgs += 1;
                    return;
                }
                self.step_replica(i, |e, now, out| e.on_message(from, msg, now, out));
            }
            Ev::Timer { at, timer, inc } => {
                let i = at.0 as usize;
                if self.crashed[i] || inc != self.incarnation[i] {
                    return;
                }
                self.step_replica(i, |e, now, out| e.on_timer(timer, now, out));
            }
            Ev::Submit { tx } => self.on_submit(tx),
            Ev::Acted { at, mut actions, inc } => {
                let i = at.0 as usize;
                // A crash killed the step's output before it left.
                if !self.crashed[i] && inc == self.incarnation[i] {
                    self.absorb(at, &mut actions);
                }
            }
            Ev::OpenArrival => self.on_open_arrival(),
            Ev::Chaos { kind } => self.on_chaos(kind),
        }
    }

    /// A submission reaches every replica that is up as a
    /// `Message::Request`: clients send each request to all replicas, off
    /// the consensus critical path (§7 Implementation). Each pool admits
    /// it, drops it as a duplicate or — at its bound — refuses it, on its
    /// own; admission costs nothing. A step that acts on it (a held leader
    /// proposing) is charged as a delivered request's: it queues for the
    /// replica's CPU, pays `recv_cost`, and its actions leave when that is
    /// done.
    fn on_submit(&mut self, tx: Transaction) {
        let (mut refused, mut deduped, mut depth) = (true, true, 0);
        for i in 0..self.n() {
            if self.crashed[i] {
                continue;
            }
            let (me, msg) = (ReplicaId(i as u32), Message::Request(tx));
            let cost = self.cost.recv_cost(&msg, self.quorum);
            let before = self.shells[i].engine().pool_stats();
            let mut out = std::mem::take(&mut self.out);
            self.shells[i].on_message(me, msg, self.now, &mut out);
            // Recorded now: a crash may still drop these actions before
            // they leave, but the engine has committed.
            self.stepped(i, &out);
            let after = self.shells[i].engine().pool_stats();
            refused &= after.refused > before.refused;
            deduped &= after.deduped > before.deduped;
            depth = depth.max(after.depth);
            if !out.is_empty() {
                let done = self.now.max(self.cpu_free[i]) + cost;
                self.cpu_free[i] = done;
                let actions = std::mem::take(&mut out);
                self.push(done, Ev::Acted { at: me, actions, inc: self.incarnation[i] });
            }
            self.out = out;
        }
        if refused {
            // Backpressure: nobody holds the transaction, so it is not in
            // flight either.
            self.oracle.take_submit(tx.id);
            if self.now >= self.warmup_end && self.now <= self.window_end {
                self.stats.admission_drops += 1;
            }
            self.obs.with_actor(ORACLE_ACTOR).counter("admission_drops", 0, 1);
            return;
        }
        if deduped {
            self.stats.requests_deduped += 1;
            self.obs.with_actor(ORACLE_ACTOR).counter("requests_deduped", 0, 1);
        }
        if self.obs.enabled() {
            // Queueing gauges, stamped at the harness actor: the deepest
            // pool and transactions submitted but not yet finalized.
            let o = self.obs.with_actor(ORACLE_ACTOR);
            o.gauge("mempool_depth", 0, depth as u64);
            o.gauge("inflight_txs", 0, self.oracle.pending() as u64);
        }
    }

    fn send_one(&mut self, from: ReplicaId, to: ReplicaId, msg: Message) {
        // Register proposals for orphan tracking.
        if let Message::Propose(p) = &msg {
            if let std::collections::hash_map::Entry::Vacant(e) = self.proposed.entry(p.block.id())
            {
                e.insert(p.block.clone());
                if self.obs.enabled() {
                    // Queue wait (submit → first proposal), in sim-time
                    // nanoseconds. Histograms are metrics-only (never in
                    // the trace), and this one is seed-deterministic.
                    let o = self.obs.with_actor(ORACLE_ACTOR);
                    for t in &p.block.txs {
                        if let Some(s) = self.oracle.submit_time(t.id) {
                            o.observe_nanos("queue_wait_ns", self.now.since(s).0);
                        }
                    }
                }
            }
        }
        let i = from.0 as usize;
        if from == to {
            // Loopback skips the NIC (and chaos: a process cannot lose a
            // message to itself).
            self.push(self.now + SimDuration::from_micros(1), Ev::Deliver { from, to, msg });
            return;
        }
        let delivery = self.net.link_delivery(from, to, &mut self.rng);
        if delivery.copies == 0 {
            // Lost in flight; the sender still paid to transmit it.
            self.stats.chaos.dropped_msgs += 1;
            let size = msg.modeled_wire_size();
            let start = self.now.max(self.nic_free[i]);
            self.nic_free[i] = start + self.cost.tx_time(size);
            return;
        }
        let size = msg.modeled_wire_size();
        let start = self.now.max(self.nic_free[i]);
        let done = start + self.cost.tx_time(size);
        self.nic_free[i] = done;
        if delivery.copies > 1 {
            self.stats.chaos.duplicated_msgs += (delivery.copies - 1) as u64;
        }
        for c in 0..delivery.copies as usize {
            let extra = delivery.extra[c];
            if extra > SimDuration::ZERO {
                self.stats.chaos.reordered_msgs += 1;
            }
            let arrival = done + self.net.replica_delay(from, to, &mut self.rng) + extra;
            self.push(arrival, Ev::Deliver { from, to, msg: msg.clone() });
        }
    }

    fn on_chaos(&mut self, kind: ChaosEventKind) {
        match kind {
            ChaosEventKind::PartitionStart { side } => {
                self.net.set_partition(&side);
                self.stats.chaos.partitions += 1;
            }
            ChaosEventKind::PartitionHeal => {
                self.net.heal_partition();
                self.liveness_mark = Some((self.now, self.stats.committed_blocks));
            }
            ChaosEventKind::Crash { replica } => self.crash_replica(replica as usize),
            ChaosEventKind::BitRot { replica, flips } => self.apply_bitrot(replica, flips),
            ChaosEventKind::Restart { replica } => self.restart_replica(replica as usize),
        }
    }

    /// Storage bit rot: flip `flips` seeded bits across the downed
    /// replica's journal segments and checkpoints. Only meaningful while
    /// the replica is down (a live journal holds open handles and would
    /// not reread the flipped regions until recovery anyway).
    fn apply_bitrot(&mut self, replica: u32, flips: u32) {
        let i = replica as usize;
        if i >= self.n() || !self.crashed[i] {
            return;
        }
        let Some(rt) = self.chaos_rt.as_ref() else { return };
        let mut files = rt.disks[i].files().expect("chaos journals are on memory disks");
        let paths: Vec<PathBuf> = files
            .keys()
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-") || n.starts_with("ckpt-"))
            })
            .cloned()
            .collect();
        if paths.is_empty() {
            return;
        }
        // Positions derive from the plan seed (+ a per-event counter), so
        // a replayed run flips the same bits in the same files.
        let mut rng = SplitMix64::new(
            self.chaos_seed
                ^ 0xb17_1207
                ^ ((replica as u64) << 40)
                ^ self.stats.chaos.bitrot_events,
        );
        for _ in 0..flips {
            let bytes = files.get_mut(&paths[rng.next_range(paths.len() as u64) as usize]);
            let Some(bytes) = bytes.filter(|b| !b.is_empty()) else { continue };
            let off = rng.next_range(bytes.len() as u64) as usize;
            bytes[off] ^= 1u8 << rng.next_range(8);
        }
        drop(files);
        self.bitrot[i] = true;
        self.stats.chaos.bitrot_events += 1;
    }

    /// Kill replica `i`: all process state is gone (the engine is swapped
    /// for a [`Downed`] placeholder so the invariant checker still sees
    /// its last committed chain); only its journal directory survives.
    fn crash_replica(&mut self, i: usize) {
        if i >= self.n() || self.crashed[i] {
            return;
        }
        self.crashed[i] = true;
        self.incarnation[i] += 1;
        self.stats.chaos.crashes += 1;
        let log = self.logs[i].clone();
        let root = self.shells[i].engine().state_root();
        let view = self.shells[i].engine().current_view();
        // Dropping the old engine closes its journal handles, like a
        // process exit would.
        let downed = Downed { id: ReplicaId(i as u32), log, root, view };
        self.shells[i] = NodeShell::new(Box::new(downed));
    }

    /// Bring replica `i` back in a new shell: it recovers through the
    /// real `hs1-storage` path, then its `hs1-statesync` client asks the
    /// peers for snapshot manifests and either downloads and installs an
    /// image (the gap is past `SyncConfig::gap_threshold`) or declines,
    /// leaving the gap to per-block fetch replay. The shell defers
    /// consensus traffic and requests until then; [`SimRunner::stepped`]
    /// sees it go live.
    fn restart_replica(&mut self, i: usize) {
        if i >= self.n() || !self.crashed[i] {
            return;
        }
        let Some(rt) = self.chaos_rt.as_ref() else { return };
        self.stats.chaos.restarts += 1;
        let rotted = self.bitrot[i];
        let mut shell = match (rt.reopen)(i) {
            Ok(shell) => shell,
            Err(e) => {
                if rotted {
                    // Fail-stop is the *correct* answer to unrecoverable
                    // rot: the replica stays down (within the f budget —
                    // rot only targets the crashing replica) rather than
                    // rejoining on corrupt state. Liveness must resume
                    // among the remaining n − 1, where the protocol can
                    // commit with them (see `check_liveness`).
                    self.stats.chaos.bitrot_failstops += 1;
                    self.liveness_mark = Some((self.now, self.stats.committed_blocks));
                } else {
                    // A replica that cannot recover a *clean* journal is
                    // a finding the sweep surfaces.
                    self.stats
                        .invariant_violations
                        .push(format!("replica {i} recovery failed: {e}"));
                }
                return;
            }
        };
        self.bitrot[i] = false;
        let own = Committed::of(shell.engine());
        let at_crash = Committed::of(self.shells[i].engine());
        self.stats.invariant_violations.extend(invariants::check_recovery(&at_crash, &own, rotted));
        resync(&mut self.logs[i], &own.log);

        shell.set_observer(self.obs.clone());
        self.shells[i] = shell;
        self.crashed[i] = false;
        self.step_replica(i, |e, now, out| e.on_init(now, out));
    }

    /// Step replica `i` into the action buffer, record what the step
    /// committed, and carry its actions out.
    fn step_replica(
        &mut self,
        i: usize,
        f: impl FnOnce(&mut NodeShell, SimTime, &mut Vec<Action>),
    ) {
        let mut out = std::mem::take(&mut self.out);
        f(&mut self.shells[i], self.now, &mut out);
        self.stepped(i, &out);
        self.absorb(ReplicaId(i as u32), &mut out);
        self.out = out;
    }

    /// Replica `i` took a step that produced `out`. Record what it
    /// committed, or, if the step ended its state sync, catch the record
    /// up with what its engine now holds and count the outcome.
    fn stepped(&mut self, i: usize, out: &[Action]) {
        let Some((installed, stats)) = self.shells[i].take_joined() else {
            for a in out {
                if let Action::Committed { block } = a {
                    self.logs[i].push(block.id());
                }
            }
            return;
        };
        // A fresh process has idle resources.
        self.cpu_free[i] = self.now;
        self.nic_free[i] = self.now;
        self.liveness_mark = Some((self.now, self.stats.committed_blocks));
        resync(&mut self.logs[i], &self.shells[i].engine().committed_log());
        self.stats.chaos.snapshot_rotations += stats.rotations;
        if installed {
            self.stats.chaos.snapshot_syncs += 1;
        } else {
            self.stats.chaos.replay_catchups += 1;
        }
    }

    /// Carry out `actions`, draining them.
    fn absorb(&mut self, from: ReplicaId, actions: &mut Vec<Action>) {
        for a in actions.drain(..) {
            match a {
                Action::Send { to, msg } => self.send_one(from, to, msg),
                Action::Broadcast { msg } => {
                    for r in 0..self.n() {
                        self.send_one(from, ReplicaId(r as u32), msg.clone());
                    }
                }
                Action::SetTimer { timer, at } => {
                    let at =
                        if at <= self.now { self.now + SimDuration::from_nanos(1) } else { at };
                    // Clock skew: a replica whose clock runs at rate r
                    // sees every timer interval stretched/compressed by
                    // r. Exact skip at 1.0 keeps fault-free runs
                    // bit-identical.
                    let rate = self.timer_rate[from.0 as usize];
                    let at = if rate == 1.0 {
                        at
                    } else {
                        // Truncation must not collapse the 1 ns
                        // forward-progress clamp above to zero.
                        let delay = at.since(self.now).0 as f64 * rate;
                        self.now + SimDuration::from_nanos((delay as u64).max(1))
                    };
                    let inc = self.incarnation[from.0 as usize];
                    self.push(at, Ev::Timer { at: from, timer, inc });
                }
                Action::Executed { block, digest, kind } => {
                    self.on_executed(from, block, digest, kind)
                }
                Action::Committed { block } => self.on_committed(block),
                Action::RolledBack { blocks } => self.stats.rollbacks += blocks as u64,
                Action::EnteredView { .. } => {
                    if from == ReplicaId(0) {
                        self.stats.views_entered += 1;
                    }
                }
            }
        }
    }

    fn on_executed(&mut self, from: ReplicaId, block: Arc<Block>, digest: Digest, kind: ReplyKind) {
        if !self.committed_first.contains(&block.id()) {
            self.proposed.entry(block.id()).or_insert_with(|| block.clone());
        }
        let i = from.0 as usize;
        // Responses serialize through the replica's NIC.
        let bytes = block.txs.len() * RESPONSE_BYTES_PER_TX;
        let start = self.now.max(self.nic_free[i]);
        let done = start + self.cost.tx_time(bytes);
        self.nic_free[i] = done;
        let arrival = done + self.net.client_delay(from, &mut self.rng);
        if self.obs.enabled() {
            // Stamped at client arrival: the moment this replica's answer
            // became observable (the quantity finality is defined over).
            self.obs.with_actor(from.0).stage_at(
                Stage::Responded,
                block_key(block.id()),
                arrival.0,
            );
        }
        match kind {
            ReplyKind::Speculative => self.stats.responses.0 += 1,
            ReplyKind::Committed => self.stats.responses.1 += 1,
        }
        if let Some(fin) = self.oracle.on_response(from, block.id(), digest, kind, arrival) {
            self.on_finality(block, fin);
        }
    }

    fn on_finality(&mut self, block: Arc<Block>, fin: SimTime) {
        if self.obs.enabled() {
            let key = block_key(block.id());
            let oracle = self.obs.with_actor(ORACLE_ACTOR);
            oracle.point_at("finality", key, block.txs.len() as u64, fin.0);
            // Mean submit time of the block's transactions: the t0 the
            // critical-path analysis anchors its hop decomposition at.
            let submits: Vec<u64> = block
                .txs
                .iter()
                .filter_map(|t| self.oracle.submit_time(t.id))
                .map(|s| s.0)
                .collect();
            if !submits.is_empty() {
                let mean = submits.iter().sum::<u64>() / submits.len() as u64;
                oracle.point_at("submit_mean", key, mean, fin.0);
            }
        }
        self.finals.push((block.id(), block.view));
        let closed_loop = self.open_loop.is_none();
        for tx in &block.txs {
            let Some(submit) = self.oracle.take_submit(tx.id) else {
                // Final a second time: a leader that had not stored the
                // first block proposed it again, and both committed. The
                // client had its answer; counted, not served twice.
                self.obs.with_actor(ORACLE_ACTOR).counter("duplicate_finals", 0, 1);
                continue;
            };
            if fin >= self.warmup_end && fin <= self.window_end {
                self.stats.finalized_txs += 1;
                self.hist.record(fin.since(submit).0);
            }
            // Closed loop: the client issues its next transaction. Open
            // loop: arrivals are scheduled by the arrival process alone.
            if closed_loop {
                let client = tx.id.client;
                self.issue_tx(client, fin);
            }
        }
    }

    fn on_committed(&mut self, block: Arc<Block>) {
        let id = block.id();
        let first = self.committed_first.insert(id);
        self.proposed.remove(&id);
        if !first {
            return;
        }
        self.stats.committed_blocks += 1;
        // Any still-pending block of an earlier view than a committed one
        // can never commit (chains commit in rank order). Counted here,
        // over what every replica proposed; each engine returns the
        // transactions of the orphans it stored to its own pool.
        self.frontier = self.frontier.max(block.view);
        let pending = self.proposed.len();
        self.proposed.retain(|_, b| b.view >= block.view);
        self.stats.orphaned_blocks += (pending - self.proposed.len()) as u64;
    }

    fn finish(&mut self) {
        self.stats.mean_latency_ms = self.hist.mean_ms();
        self.stats.p50_latency_ms = self.hist.quantile_ms(0.5);
        self.stats.p99_latency_ms = self.hist.quantile_ms(0.99);
        // The harness's records of the chains, with each engine's root.
        let replicas = self.shells.iter().map(NodeShell::engine).zip(&self.logs);
        let obs = Observation {
            replicas: replicas
                .map(|(e, log)| Committed { id: e.id(), log: log.clone(), root: e.state_root() })
                .collect(),
            finals: std::mem::take(&mut self.finals),
            frontier: self.frontier,
        };
        self.stats.invariant_violations.extend(invariants::check(&obs));
        self.stats.chaos.stuck_syncs =
            (0..self.n()).filter(|&i| !self.crashed[i] && !self.shells[i].is_live()).count() as u64;
        self.check_liveness();
    }

    /// Post-GST liveness: after the last partition heal / replica rejoin,
    /// the cluster must commit again (given it had room to) — if the
    /// replicas up and live can commit at all. Leaders rotate round-robin, so
    /// a replica down for good (a bit-rot fail-stop) caps the run of
    /// consecutive live leaders at n − 1: at n = 4 that is the three a
    /// 2-chain needs and one short of 3-chain HotStuff's four.
    fn check_liveness(&mut self) {
        let n = self.n();
        let live_run = (0..2 * n)
            .scan(0, |run, i| {
                let out = self.crashed[i % n] || !self.shells[i % n].is_live();
                *run = if out { 0 } else { *run + 1 };
                Some(*run)
            })
            .max()
            .unwrap_or(0);
        if let Some((at, height)) = self.liveness_mark.filter(|_| live_run >= self.commit_run) {
            let slack = SimDuration::from_millis(100);
            if at + slack < self.window_end && self.stats.committed_blocks <= height {
                self.stats.invariant_violations.push(format!(
                    "no commits after faults quiesced at {:.3}s (height stuck at {height})",
                    at.as_secs_f64()
                ));
            }
        }
    }
}

/// Bring the harness's record of a restarted replica to what its engine
/// now holds: the record up to the engine's head, then whatever the engine
/// committed past it. A restart that parted from the replica's own history
/// (`check_recovery` reports it), or a snapshot whose window starts past
/// the record's head, starts the record over from the engine's window.
fn resync(record: &mut CommittedLog, engine: &CommittedLog) {
    match record.diverge(engine) {
        Ok(None) if engine.len() <= record.len() && engine.len() > record.start() => {
            record.truncate(engine.len())
        }
        Ok(None) if engine.len() > record.len() && engine.start() <= record.len() => {
            for id in engine.ids_from(record.len()) {
                record.push(id);
            }
        }
        _ => *record = engine.clone(),
    }
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl SimRunner {
    /// Order-stable digest of the run's observable outcome: per-replica
    /// committed chains and state roots, invariant violations, and the
    /// headline counters. Two runs of the same seed + chaos plan must
    /// produce identical fingerprints — the byte-for-byte replay
    /// guarantee the chaos sweep prints seeds for.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (e, log) in self.shells.iter().map(NodeShell::engine).zip(&self.logs) {
            for id in log.ids() {
                h = fnv1a(h, &id.0 .0);
            }
            h = fnv1a(h, &e.state_root().0);
            h = fnv1a(h, &e.current_view().0.to_le_bytes());
        }
        for v in &self.stats.invariant_violations {
            h = fnv1a(h, v.as_bytes());
        }
        for c in [
            self.stats.finalized_txs,
            self.stats.committed_blocks,
            self.stats.rollbacks,
            self.stats.offered_txs,
            self.stats.admission_drops,
            self.stats.requests_deduped,
            self.stats.chaos.dropped_msgs,
            self.stats.chaos.duplicated_msgs,
            self.stats.chaos.snapshot_syncs,
            self.stats.chaos.bitrot_events,
            self.stats.chaos.bitrot_failstops,
            self.stats.chaos.snapshot_rotations,
        ] {
            h = fnv1a(h, &c.to_le_bytes());
        }
        h
    }

    /// Per-replica committed-chain lengths (debug/inspection).
    pub(crate) fn committed_lengths(&self) -> Vec<usize> {
        self.logs.iter().map(CommittedLog::len).collect()
    }

    /// Per-replica state roots (debug/inspection).
    pub(crate) fn state_roots(&self) -> Vec<Digest> {
        self.shells.iter().map(|s| s.engine().state_root()).collect()
    }

    /// Per-replica current views (debug/inspection).
    pub(crate) fn current_views(&self) -> Vec<u64> {
        self.shells.iter().map(|s| s.engine().current_view().0).collect()
    }
}
