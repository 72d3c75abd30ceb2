//! The discrete-event loop: engines + network model + resource model +
//! client oracle — plus, when a chaos plan is installed, scheduled
//! partition/heal transitions and replica crash-restart through the real
//! `hs1-storage` recovery path.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

use crate::chaos::{ChaosEventKind, ChaosPlan};
use crate::cost::CostModel;
use crate::net::NetModel;
use crate::openloop::{ArrivalGen, OpenLoop};
use crate::oracle::{ClientOracle, LatencyHist};
use crate::statesync::CatchupModel;
use hs1_adversary::AdversaryStrategy;
use hs1_core::invariants::{self, Committed, Observation};
use hs1_core::persist::{Persistence, RecoveredState};
use hs1_core::replica::{Action, Replica, Timer};
use hs1_obs::{block_key, Obs, Stage};
use hs1_storage::{ReplicaStorage, StorageConfig};
use hs1_types::{
    Block, BlockId, ClientId, Message, ProtocolKind, ReplicaId, ReplyKind, SimDuration, SimTime,
    SplitMix64, Transaction, View,
};
use hs1_workloads::Workload;

const RESPONSE_BYTES_PER_TX: usize = 96;

/// Pseudo-actor id for harness-level trace events (client-oracle
/// finality, per-block submit means) — distinct from any replica id.
pub const ORACLE_ACTOR: u32 = u32::MAX;

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
    /// Recovery (and, if chosen, the modeled snapshot transfer) finished;
    /// the replica rejoins the network.
    RestartDone { replica: ReplicaId, inc: u32 },
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
    /// Restarts whose gap made `CatchupModel` choose snapshot transfer.
    pub snapshot_syncs: u64,
    /// Restarts that caught up through per-block fetch replay.
    pub replay_catchups: u64,
    /// Bit-rot events applied to a downed replica's storage.
    pub bitrot_events: u64,
    /// Recoveries that (correctly) fail-stopped on unrecoverable rot —
    /// the replica stays down rather than rejoining with bad state.
    pub bitrot_failstops: u64,
    /// Modeled snapshot-download rotations away from chunk-corrupting
    /// adversarial peers.
    pub snapshot_rotations: u64,
    /// Adversarial backups wrapped around engines this run.
    pub adversaries: u64,
}

/// Everything the runner needs to crash-restart replicas mid-run:
/// per-replica journal directories, the storage config those journals
/// use, a factory for fresh engine instances, and the catch-up cost
/// model that prices replay vs snapshot at restart time.
pub struct ChaosRuntime {
    pub dirs: Vec<PathBuf>,
    pub storage: StorageConfig,
    pub rebuild: Box<dyn Fn(usize) -> Box<dyn Replica>>,
    pub catchup: CatchupModel,
    /// Override the model-derived snapshot threshold (blocks of gap).
    pub catchup_threshold: Option<u64>,
}

/// Post-crash placeholder: keeps the dead replica's last committed chain
/// and state root visible to the invariant and recovery checks.
struct Downed {
    id: ReplicaId,
    chain: Vec<BlockId>,
    root: hs1_crypto::Digest,
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
        *self.chain.last().expect("genesis always committed")
    }
    fn committed_chain(&self) -> Vec<BlockId> {
        self.chain.clone()
    }
    fn set_persistence(&mut self, _p: Box<dyn hs1_core::Persistence>) {}
    fn restore(&mut self, _rs: RecoveredState) {}
    fn state_root(&self) -> hs1_crypto::Digest {
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
pub struct RunStats {
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

pub struct SimRunner {
    engines: Vec<Box<dyn Replica>>,
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
    /// Replicas currently down (messages and timers are dropped).
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
    /// Adversary strategy per replica (None = honest), used by the
    /// modeled snapshot path.
    adversary: Vec<Option<AdversaryStrategy>>,
    /// Every proposed block body ever seen (never pruned): the archive a
    /// modeled snapshot install draws bodies from.
    bodies: HashMap<BlockId, Arc<Block>>,
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
}

impl SimRunner {
    pub fn new(
        engines: Vec<Box<dyn Replica>>,
        net: NetModel,
        cost: CostModel,
        protocol: ProtocolKind,
        f: usize,
        workload: Box<dyn Workload>,
        seed: u64,
    ) -> SimRunner {
        let n = engines.len();
        let mut rng = SplitMix64::new(seed ^ 0x51e5);
        let request_delay = (0..n)
            .map(|r| net.client_delay(ReplicaId(r as u32), &mut rng))
            .min()
            .unwrap_or(SimDuration::ZERO);
        SimRunner {
            quorum: n - f,
            oracle: ClientOracle::new(n, f, protocol),
            engines,
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
            adversary: vec![None; n],
            bodies: HashMap::new(),
            liveness_mark: None,
            // A k-chain of certified blocks, then the leader whose
            // proposal carries the last certificate.
            commit_run: if protocol == ProtocolKind::HotStuff { 4 } else { 3 },
            warmup_end: SimTime::ZERO,
            window_end: SimTime::MAX,
            hist: LatencyHist::default(),
            stats: RunStats::default(),
            obs: Obs::noop(),
        }
    }

    fn n(&self) -> usize {
        self.engines.len()
    }

    /// Install an observability sink in the runner and every engine. The
    /// sink's clock should be [`hs1_obs::Clock::manual`]; the runner
    /// advances it to sim-time before each event, so all trace timestamps
    /// are deterministic per seed. Pure observer: fingerprints are
    /// identical with or without a recording sink.
    pub fn set_observer(&mut self, obs: Obs) {
        for e in self.engines.iter_mut() {
            e.set_observer(obs.clone());
        }
        self.obs = obs;
    }

    /// Install a chaos plan: link faults go to the network model, the
    /// scheduled transitions enter the event heap, and (when the plan
    /// crashes replicas) `rt` supplies the storage dirs + engine factory
    /// the restart path needs.
    pub fn install_chaos(&mut self, plan: &ChaosPlan, rt: Option<ChaosRuntime>) {
        self.net.install_chaos(plan);
        if plan.has_crashes() {
            assert!(rt.is_some(), "a plan with crash events needs a ChaosRuntime");
        }
        self.chaos_rt = rt;
        self.chaos_seed = plan.seed;
        if plan.skew.len() == self.n() {
            self.timer_rate = plan.skew.clone();
        }
        self.note_adversaries(
            &plan.adversaries.iter().map(|&(r, s)| (r as usize, s)).collect::<Vec<_>>(),
        );
        for ev in &plan.events {
            self.push(ev.at, Ev::Chaos { kind: ev.kind.clone() });
        }
    }

    /// Record which replicas run behind an adversary wrapper (the
    /// scenario wraps them; the runner needs the placement for the
    /// modeled snapshot path). Overrides whatever the installed plan
    /// declared — the scenario passes the merged plan + explicit set.
    pub fn note_adversaries(&mut self, set: &[(usize, AdversaryStrategy)]) {
        self.adversary = vec![None; self.n()];
        for &(r, s) in set {
            if r < self.n() {
                self.adversary[r] = Some(s);
            }
        }
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
    pub fn spawn_clients(&mut self, clients: usize) {
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
    pub fn spawn_open_loop(&mut self, cfg: OpenLoop) {
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
    pub fn run(&mut self, warmup: SimDuration, window: SimDuration) -> RunStats {
        self.warmup_end = SimTime::ZERO + warmup;
        self.window_end = self.warmup_end + window;
        self.obs.set_now(self.now.0);
        // Initialize engines.
        for i in 0..self.n() {
            let mut out = Vec::new();
            self.engines[i].on_init(self.now, &mut out);
            self.absorb(ReplicaId(i as u32), out);
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
                if self.crashed[i] || inc != self.incarnation[i] {
                    // A crash killed the processing mid-flight.
                    self.stats.chaos.dropped_msgs += 1;
                    return;
                }
                let mut out = Vec::new();
                self.engines[i].on_message(from, msg, self.now, &mut out);
                self.absorb(to, out);
            }
            Ev::Timer { at, timer, inc } => {
                let i = at.0 as usize;
                if self.crashed[i] || inc != self.incarnation[i] {
                    return;
                }
                let mut out = Vec::new();
                self.engines[i].on_timer(timer, self.now, &mut out);
                self.absorb(at, out);
            }
            Ev::Submit { tx } => self.on_submit(tx),
            Ev::Acted { at, actions, inc } => {
                let i = at.0 as usize;
                // A crash killed the step's output before it left.
                if !self.crashed[i] && inc == self.incarnation[i] {
                    self.absorb(at, actions);
                }
            }
            Ev::OpenArrival => self.on_open_arrival(),
            Ev::Chaos { kind } => self.on_chaos(kind),
            Ev::RestartDone { replica, inc } => {
                let i = replica.0 as usize;
                if inc != self.incarnation[i] {
                    return;
                }
                self.crashed[i] = false;
                // A fresh process has idle resources.
                self.cpu_free[i] = self.now;
                self.nic_free[i] = self.now;
                let mut out = Vec::new();
                self.engines[i].on_init(self.now, &mut out);
                self.absorb(replica, out);
                self.liveness_mark = Some((self.now, self.stats.committed_blocks));
            }
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
            let before = self.engines[i].pool_stats();
            let mut out = Vec::new();
            self.engines[i].on_message(me, msg, self.now, &mut out);
            let after = self.engines[i].pool_stats();
            refused &= after.refused > before.refused;
            deduped &= after.deduped > before.deduped;
            depth = depth.max(after.depth);
            if !out.is_empty() {
                let done = self.now.max(self.cpu_free[i]) + cost;
                self.cpu_free[i] = done;
                self.push(done, Ev::Acted { at: me, actions: out, inc: self.incarnation[i] });
            }
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
        // Register proposals for orphan tracking and the body archive.
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
            if self.chaos_rt.is_some() {
                self.bodies.entry(p.block.id()).or_insert_with(|| p.block.clone());
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
        let mut files: Vec<PathBuf> = match std::fs::read_dir(&rt.dirs[i]) {
            Ok(rd) => rd
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .map(|n| n.starts_with("wal-") || n.starts_with("ckpt-"))
                        .unwrap_or(false)
                })
                .collect(),
            Err(_) => return,
        };
        files.sort();
        if files.is_empty() {
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
            let path = &files[rng.next_range(files.len() as u64) as usize];
            let Ok(mut bytes) = std::fs::read(path) else { continue };
            if bytes.is_empty() {
                continue;
            }
            let off = rng.next_range(bytes.len() as u64) as usize;
            bytes[off] ^= 1u8 << rng.next_range(8);
            let _ = std::fs::write(path, bytes);
        }
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
        let chain = self.engines[i].committed_chain();
        let root = self.engines[i].state_root();
        let view = self.engines[i].current_view();
        // Dropping the old engine closes its journal handles, like a
        // process exit would.
        self.engines[i] = Box::new(Downed { id: ReplicaId(i as u32), chain, root, view });
    }

    /// Bring replica `i` back through the real `hs1-storage` recovery
    /// path, then decide — with the calibrated [`CatchupModel`] — whether
    /// the gap to the live cluster warrants a modeled snapshot install
    /// (`hs1-statesync`'s decision point) or per-block fetch replay. The
    /// replica rejoins the network at `now` plus the modeled transfer
    /// time via [`Ev::RestartDone`].
    fn restart_replica(&mut self, i: usize) {
        if i >= self.n() || !self.crashed[i] {
            return;
        }
        let Some(rt) = self.chaos_rt.as_ref() else { return };
        self.stats.chaos.restarts += 1;
        let rotted = self.bitrot[i];
        let (state, mut storage) = match ReplicaStorage::open(&rt.dirs[i], rt.storage) {
            Ok(v) => v,
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
        let mut engine = (rt.rebuild)(i);
        engine.restore(state);
        let own = Committed::of(&*engine);
        let at_crash = Committed::of(&*self.engines[i]);
        self.stats.invariant_violations.extend(invariants::check_recovery(&at_crash, &own, rotted));

        // Gap to the live cluster, measured against the longest committed
        // chain of any up replica.
        let peer = (0..self.n())
            .filter(|&p| p != i && !self.crashed[p])
            .map(|p| self.engines[p].committed_chain())
            .max_by_key(|c| c.len())
            .unwrap_or_default();
        let gap = peer.len().saturating_sub(own.chain.len()) as u64;

        let mut model = rt.catchup.clone();
        model.chain_len = peer.len() as u64;
        // Materialized state grows with commit history (writes upper-bound
        // the distinct keys an image must carry).
        model.state_entries = model.chain_len * model.txs_per_block;
        let threshold = rt.catchup_threshold.unwrap_or_else(|| model.crossover_blocks());

        // The f+1-manifest trust boundary under adversaries: snapshot
        // agreement needs f+1 *honest* up peers behind one manifest key
        // (a chunk-corrupting adversary serves an honest manifest — its
        // lie is only detectable per chunk). Without that margin, the
        // joiner falls back to per-block replay.
        let up_peers: Vec<usize> = (0..self.n()).filter(|&p| p != i && !self.crashed[p]).collect();
        let corrupt_snapshot =
            |p: &usize| self.adversary[*p] == Some(AdversaryStrategy::CorruptSnapshot);
        let honest_up = up_peers.iter().filter(|p| !corrupt_snapshot(p)).count();
        let f = self.n() - self.quorum;
        let agreement_possible = honest_up > f;

        let mut delay = SimDuration::ZERO;
        if gap > 0 && gap >= threshold && agreement_possible {
            // Snapshot decision: install the peers' committed suffix as a
            // verified image (bodies come from the runner's archive — the
            // modeled analog of chunk transfer) and charge the modeled
            // transfer time before the replica rejoins. Blocks the
            // cluster commits *during* the transfer are the model's
            // residual; the live fetch path replays them organically.
            let suffix: Option<Vec<Arc<Block>>> =
                peer[own.chain.len()..].iter().map(|id| self.bodies.get(id).cloned()).collect();
            if let Some(suffix) = suffix {
                let peer_view = (0..self.n())
                    .filter(|&p| p != i && !self.crashed[p])
                    .map(|p| self.engines[p].current_view())
                    .max()
                    .unwrap_or(View::GENESIS);
                engine.restore(RecoveredState {
                    view: peer_view,
                    decided: suffix.clone(),
                    ..Default::default()
                });
                // Mirror `ReplicaStorage::install_snapshot`: the adopted
                // suffix must be journaled before going live, or the next
                // recovery replays new commits onto a pre-sync base.
                for b in &suffix {
                    storage.on_commit(b);
                }
                storage.on_view(peer_view);
                storage.sync();
                delay = model.snapshot_time();
                // hs1-statesync downloads from the lowest-id agreeing
                // peer and rotates on a CRC-failing chunk: every
                // chunk-corrupting adversary ahead of the first honest
                // peer costs one rejected chunk round trip before the
                // ban/rotate moves on.
                let rotations = up_peers.iter().take_while(|p| corrupt_snapshot(p)).count() as u64;
                if rotations > 0 {
                    let per_rotation = model.rtt + model.cost.tx_time(model.chunk_bytes as usize);
                    delay += per_rotation * rotations;
                    self.stats.chaos.snapshot_rotations += rotations;
                }
                self.stats.chaos.snapshot_syncs += 1;
            } else {
                // Archive miss (should not happen — every proposal is
                // archived); fall back to live replay.
                self.stats.chaos.replay_catchups += 1;
            }
        } else if gap > 0 {
            self.stats.chaos.replay_catchups += 1;
        }

        engine.set_observer(self.obs.clone());
        engine.set_persistence(Box::new(storage));
        self.engines[i] = engine;
        let inc = self.incarnation[i];
        self.push(self.now + delay, Ev::RestartDone { replica: ReplicaId(i as u32), inc });
    }

    fn absorb(&mut self, from: ReplicaId, actions: Vec<Action>) {
        for a in actions {
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
                Action::Executed { block, kind, .. } => self.on_executed(from, block, kind),
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

    fn on_executed(&mut self, from: ReplicaId, block: Arc<Block>, kind: ReplyKind) {
        if !self.committed_first.contains(&block.id()) {
            self.proposed.entry(block.id()).or_insert_with(|| block.clone());
        }
        let i = from.0 as usize;
        // Durable deployments fsync the journal record (SpecMark or
        // Decided, per policy) before the response may leave; the fsync
        // also occupies the replica's CPU lane.
        let fsync = match kind {
            ReplyKind::Speculative if self.cost.disk.fsync_on_speculate => self.cost.disk.fsync,
            ReplyKind::Committed if self.cost.disk.fsync_on_commit => self.cost.disk.fsync,
            _ => SimDuration::ZERO,
        };
        let ready = if fsync > SimDuration::ZERO {
            self.cpu_free[i] = self.now.max(self.cpu_free[i]) + fsync;
            self.cpu_free[i]
        } else {
            self.now
        };
        // Responses serialize through the replica's NIC.
        let bytes = block.txs.len() * RESPONSE_BYTES_PER_TX;
        let start = ready.max(self.nic_free[i]);
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
        if let Some(fin) = self.oracle.on_response(from, block.id(), kind, arrival) {
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
        let obs = Observation {
            replicas: self.engines.iter().map(|e| Committed::of(&**e)).collect(),
            finals: std::mem::take(&mut self.finals),
            frontier: self.frontier,
        };
        self.stats.invariant_violations.extend(invariants::check(&obs));
        self.check_liveness();
    }

    /// Post-GST liveness: after the last partition heal / replica rejoin,
    /// the cluster must commit again (given it had room to) — if the
    /// replicas still up can commit at all. Leaders rotate round-robin, so
    /// a replica down for good (a bit-rot fail-stop) caps the run of
    /// consecutive live leaders at n − 1: at n = 4 that is the three a
    /// 2-chain needs and one short of 3-chain HotStuff's four.
    fn check_liveness(&mut self) {
        let n = self.n();
        let live_run = (0..2 * n)
            .scan(0, |run, i| {
                *run = if self.crashed[i % n] { 0 } else { *run + 1 };
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
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for e in &self.engines {
            for id in e.committed_chain() {
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
    pub fn committed_lengths(&self) -> Vec<usize> {
        self.engines.iter().map(|e| e.committed_chain().len()).collect()
    }
    /// Per-replica current views (debug/inspection).
    pub fn current_views(&self) -> Vec<u64> {
        self.engines.iter().map(|e| e.current_view().0).collect()
    }
}
