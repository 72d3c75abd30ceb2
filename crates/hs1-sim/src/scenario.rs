//! Scenario builder + report: the public face of the simulator.
//!
//! ```
//! use hs1_sim::{Scenario, ProtocolKind};
//!
//! let report = Scenario::new(ProtocolKind::HotStuff1)
//!     .replicas(4)
//!     .batch_size(16)
//!     .clients(64)
//!     .sim_seconds(0.5)
//!     .run();
//! assert!(report.committed_txs > 0);
//! assert!(report.invariants_ok());
//! ```

use crate::chaos::ChaosPlan;
use crate::cost::CostModel;
use crate::net::NetModel;
use crate::openloop::OpenLoop;
use crate::regions::{spread, Region};
use crate::runner::{ChaosRuntime, ChaosStats, SimRunner};
use hs1_adversary::{AdversaryMutator, AdversaryStrategy};
use hs1_core::build_replica;
use hs1_core::Fault;
use hs1_crypto::Digest;
use hs1_ledger::ExecConfig;
use hs1_obs::Obs;
use hs1_statesync::{NodeShell, SyncConfig};
use hs1_storage::{Disk, JournalConfig, StorageConfig, StorageError, SyncPolicy};
use hs1_types::{ProtocolKind, ReplicaId, SimDuration, SimTime, SystemConfig};
use hs1_workloads::{TpccGen, Workload, YcsbGen};

/// The journal directory of a chaos replica, on its own memory disk.
const JOURNAL_DIR: &str = "journal";

/// Which workload drives the clients (§7 "Workloads").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadKind {
    /// YCSB: 600k-record KV store, zipfian writes (the default).
    Ycsb,
    /// TPC-C: warehouse/order management, NewOrder + Payment mix.
    Tpcc,
}

/// A complete experiment description.
#[derive(Clone)]
pub struct Scenario {
    pub protocol: ProtocolKind,
    pub n: usize,
    pub batch_size: usize,
    pub clients: usize,
    pub sim_seconds: f64,
    pub warmup_seconds: f64,
    pub view_timer: SimDuration,
    pub delta: SimDuration,
    pub workload: WorkloadKind,
    pub seed: u64,
    pub placement: Option<Vec<Region>>,
    pub client_region: Region,
    pub injected: Vec<(usize, SimDuration)>,
    pub faults: Vec<(usize, Fault)>,
    /// Adversarial backups, each a mutator on its replica's shell (see
    /// `hs1-adversary`): explicit entries here are merged with — and
    /// override — whatever the chaos plan derives.
    pub adversaries: Vec<(usize, AdversaryStrategy)>,
    pub(crate) cost: CostModel,
    /// Deterministic fault schedule (see [`crate::chaos`]).
    pub chaos: Option<ChaosPlan>,
    /// Observability sink threaded into every engine, the storage layer,
    /// and the runner (see `hs1-obs`). Pure observer: attaching one must
    /// not change the report's fingerprint. `None` runs with no-op hooks.
    pub observer: Option<Obs>,
    /// Open-loop client configuration. `Some` replaces the closed-loop
    /// clients entirely: `clients` is ignored, arrivals follow the
    /// configured process, and mempool admission control engages (see
    /// `crate::openloop`).
    pub open_loop: Option<OpenLoop>,
    /// Every replica's mempool admission bound
    /// (`SystemConfig::mempool_cap`; `0` = unbounded). `None` is unbounded
    /// for closed-loop clients, who never outrun finality, and 4,096
    /// under an open loop.
    pub mempool_cap: Option<usize>,
}

impl Scenario {
    pub fn new(protocol: ProtocolKind) -> Scenario {
        Scenario {
            protocol,
            n: 4,
            batch_size: 100,
            clients: 400,
            sim_seconds: 2.0,
            warmup_seconds: 0.5,
            view_timer: SimDuration::from_millis(10),
            delta: SimDuration::from_millis(1),
            workload: WorkloadKind::Ycsb,
            seed: 42,
            placement: None,
            client_region: Region::NorthVirginia,
            injected: Vec::new(),
            faults: Vec::new(),
            adversaries: Vec::new(),
            cost: CostModel::default(),
            chaos: None,
            observer: None,
            open_loop: None,
            mempool_cap: None,
        }
    }

    /// Drive the run with open-loop clients (offered load in tx/s)
    /// instead of the closed-loop pool.
    pub fn open_loop(mut self, cfg: OpenLoop) -> Self {
        self.open_loop = Some(cfg);
        self
    }

    /// Bound every replica's mempool at `cap` proposable transactions
    /// (`0` = unbounded).
    pub fn mempool_cap(mut self, cap: usize) -> Self {
        self.mempool_cap = Some(cap);
        self
    }

    /// The horizon [`ChaosPlan::generate`] should use for this scenario:
    /// faults stay inside the first ~65% of the run so the post-GST
    /// liveness invariant has a fault-free tail to observe.
    pub fn chaos_horizon(&self) -> SimTime {
        let span = self.warmup_seconds + self.sim_seconds * 0.65;
        SimTime::ZERO + SimDuration::from_secs_f64(span)
    }

    /// Install a chaos plan (derive one with [`ChaosPlan::generate`],
    /// typically at [`Scenario::chaos_horizon`]).
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Attach an observability sink (build one with
    /// [`Obs::recording`] over a manual clock). The runner drives the
    /// clock to sim-time, so recorded traces are byte-reproducible per
    /// seed.
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.observer = Some(obs);
        self
    }

    pub fn replicas(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    pub fn batch_size(mut self, b: usize) -> Self {
        self.batch_size = b;
        self
    }

    pub fn clients(mut self, c: usize) -> Self {
        self.clients = c;
        self
    }

    pub fn sim_seconds(mut self, s: f64) -> Self {
        self.sim_seconds = s;
        self
    }

    pub fn warmup_seconds(mut self, s: f64) -> Self {
        self.warmup_seconds = s;
        self
    }

    pub fn view_timer(mut self, d: SimDuration) -> Self {
        self.view_timer = d;
        self
    }

    pub fn workload(mut self, w: WorkloadKind) -> Self {
        self.workload = w;
        self
    }

    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Spread replicas uniformly over the first `count` paper regions.
    pub fn geo_regions(mut self, count: usize) -> Self {
        self.placement = Some(spread(self.n, count));
        self
    }

    /// Explicit placement (e.g. a Virginia/London split).
    pub fn placement(mut self, p: Vec<Region>) -> Self {
        self.placement = Some(p);
        self
    }

    pub fn clients_in(mut self, r: Region) -> Self {
        self.client_region = r;
        self
    }

    /// Inject `delay` on the first `k` replicas' links (Fig. 9).
    pub fn inject_delay(mut self, k: usize, delay: SimDuration) -> Self {
        self.injected = (0..k).map(|i| (i, delay)).collect();
        self
    }

    /// Assign `fault` to `count` replicas, chosen as the replicas whose
    /// leader turns are spread round-robin (ids 1, 1+⌈n/count⌉, ...). The
    /// paper varies "the number of slow/faulty leaders".
    pub fn faulty_leaders(mut self, count: usize, fault: Fault) -> Self {
        if count == 0 {
            return self;
        }
        let stride = (self.n / count).max(1);
        self.faults = (0..count).map(|i| ((1 + i * stride) % self.n, fault.clone())).collect();
        self
    }

    pub fn with_fault(mut self, replica: usize, fault: Fault) -> Self {
        self.faults.push((replica, fault));
        self
    }

    /// Make `replica` a Byzantine backup playing `strategy` (see
    /// `hs1-adversary`): its shell relays what it sends through that
    /// strategy's mutator. Its engine stays honest internally; its
    /// outbound traffic lies.
    pub fn with_adversary(mut self, replica: usize, strategy: AdversaryStrategy) -> Self {
        self.adversaries.push((replica, strategy));
        self
    }

    /// Execute the scenario.
    pub fn run(self) -> Report {
        let mut cfg = SystemConfig::new(self.n);
        cfg.batch_size = self.batch_size;
        cfg.view_timer = self.view_timer;
        cfg.delta = self.delta;
        cfg.deployment_seed = self.seed;
        cfg.mempool_cap =
            self.mempool_cap.unwrap_or(if self.open_loop.is_some() { 4096 } else { 0 });
        let f = cfg.f();

        let placement =
            self.placement.clone().unwrap_or_else(|| vec![Region::NorthVirginia; self.n]);
        let mut net = NetModel::from_regions(&placement, self.client_region);
        for (r, d) in &self.injected {
            net.inject(ReplicaId(*r as u32), *d);
        }

        let exec = match self.workload {
            WorkloadKind::Ycsb => ExecConfig { ycsb_records: YcsbGen::PAPER_RECORDS },
            WorkloadKind::Tpcc => ExecConfig { ycsb_records: 0 },
        };
        let workload: Box<dyn Workload> = match self.workload {
            WorkloadKind::Ycsb => Box::new(YcsbGen::paper_default(self.seed)),
            WorkloadKind::Tpcc => Box::new(TpccGen::paper_default(self.seed)),
        };

        // Effective adversary placement: the chaos plan's seed-derived
        // set, with explicit `with_adversary` entries overriding the
        // same replica.
        let mut adversaries: Vec<(usize, AdversaryStrategy)> = self
            .chaos
            .as_ref()
            .map(|p| p.adversaries.iter().map(|&(r, s)| (r as usize, s)).collect())
            .unwrap_or_default();
        for &(r, s) in &self.adversaries {
            adversaries.retain(|(pr, _)| *pr != r);
            adversaries.push((r, s));
        }
        // A restarted replica catches up as a node would.
        let sync = SyncConfig::new(cfg.clone());
        // Chaos journals are small and sync often, so crash-restart
        // recovers through the real hs1-storage path with work to do.
        let storage_cfg = StorageConfig {
            journal: JournalConfig { segment_bytes: 256 * 1024, sync: SyncPolicy::EveryN(8) },
            checkpoint_every: 64,
        };
        // The one place a simulated replica is built: at start-up, and
        // again by the chaos crash-restart path, over its journal on
        // `disk` when it has one. An adversary's shell relays its traffic
        // through one mutator. A restarted adversary stays adversarial:
        // its shell gets a fresh mutator (a fresh mutation stream) and,
        // as on TCP, its engine an empty mempool.
        let build = {
            let (protocol, seed) = (self.protocol, self.seed);
            let (faults, adversaries) = (self.faults.clone(), adversaries.clone());
            move |i: usize,
                  disk: Option<(&Disk, Option<SyncConfig>)>|
                  -> Result<NodeShell, StorageError> {
                let me = ReplicaId(i as u32);
                let fault = faults
                    .iter()
                    .find(|(r, _)| *r == i)
                    .map(|(_, fl)| fl.clone())
                    .unwrap_or(Fault::Honest);
                let engine = build_replica(protocol, cfg.clone(), me, fault, exec);
                let mut shell = match disk {
                    Some((disk, sync)) => {
                        NodeShell::open(engine, disk, JOURNAL_DIR, storage_cfg, sync)?
                    }
                    None => NodeShell::new(engine),
                };
                if let Some(&(_, strategy)) = adversaries.iter().find(|(r, _)| *r == i) {
                    let seed = seed ^ 0xad5e_ed00 ^ ((me.0 as u64) << 16);
                    let mutator = AdversaryMutator::new(strategy, cfg.clone(), protocol, me, seed);
                    shell.set_adversary(mutator);
                }
                Ok(shell)
            }
        };
        // Chaos: durable journals, each on a disk in memory that outlives
        // its replica's crash, and a way to reopen a replica on its own.
        let (engines, chaos_rt) = match &self.chaos {
            Some(plan) if plan.has_crashes() => {
                assert_eq!(plan.n, self.n, "chaos plan sized for a different deployment");
                let disks: Vec<Disk> = (0..self.n).map(|_| Disk::memory()).collect();
                let open = {
                    let disks = disks.clone();
                    move |i: usize, sync| build(i, Some((&disks[i], sync)))
                };
                let engines =
                    (0..self.n).map(|i| open(i, None).expect("open fresh chaos journal")).collect();
                let reopen = Box::new(move |i| open(i, Some(sync.clone())));
                (engines, Some(ChaosRuntime { disks, reopen }))
            }
            plan => {
                if let Some(plan) = plan {
                    assert_eq!(plan.n, self.n, "chaos plan sized for a different deployment");
                }
                let shells = (0..self.n).map(|i| build(i, None).expect("no storage to open"));
                (shells.collect(), None)
            }
        };

        let mut runner =
            SimRunner::new(engines, net, self.cost.clone(), self.protocol, f, workload, self.seed);
        if let Some(obs) = &self.observer {
            runner.set_observer(obs.clone());
        }
        if let Some(plan) = &self.chaos {
            runner.install_chaos(plan, chaos_rt);
        }
        runner.note_adversaries(&adversaries);
        match &self.open_loop {
            Some(cfg) => runner.spawn_open_loop(cfg.clone()),
            None => runner.spawn_clients(self.clients),
        }
        let stats = runner.run(
            SimDuration::from_secs_f64(self.warmup_seconds),
            SimDuration::from_secs_f64(self.sim_seconds),
        );
        let fingerprint = runner.fingerprint();
        let replica_views = runner.current_views();
        let replica_chain_lens = runner.committed_lengths();
        let replica_roots = runner.state_roots();

        Report {
            protocol: self.protocol,
            n: self.n,
            f,
            batch_size: self.batch_size,
            workload: self.workload,
            sim_seconds: self.sim_seconds,
            committed_txs: stats.finalized_txs,
            throughput_tps: stats.finalized_txs as f64 / self.sim_seconds,
            offered_txs: stats.offered_txs,
            admission_drops: stats.admission_drops,
            requests_deduped: stats.requests_deduped,
            mean_latency_ms: stats.mean_latency_ms,
            p50_latency_ms: stats.p50_latency_ms,
            p99_latency_ms: stats.p99_latency_ms,
            committed_blocks: stats.committed_blocks,
            orphaned_blocks: stats.orphaned_blocks,
            rollbacks: stats.rollbacks,
            views_entered: stats.views_entered,
            invariant_violations: stats.invariant_violations,
            chaos: stats.chaos,
            fingerprint,
            replica_views,
            replica_chain_lens,
            replica_roots,
            observer: self.observer,
        }
    }
}

/// Results of one scenario run.
#[derive(Clone, Debug)]
pub struct Report {
    pub protocol: ProtocolKind,
    pub n: usize,
    pub f: usize,
    pub batch_size: usize,
    pub workload: WorkloadKind,
    pub sim_seconds: f64,
    /// Transactions finalized by clients inside the measurement window.
    pub committed_txs: u64,
    pub throughput_tps: f64,
    /// Open-loop transactions offered inside the measurement window
    /// (zero on closed-loop runs).
    pub offered_txs: u64,
    /// Submissions refused by mempool admission control in-window.
    pub admission_drops: u64,
    /// Duplicate submissions dropped by admission dedup (whole run).
    pub requests_deduped: u64,
    pub mean_latency_ms: f64,
    pub p50_latency_ms: f64,
    pub p99_latency_ms: f64,
    pub committed_blocks: u64,
    pub orphaned_blocks: u64,
    pub rollbacks: u64,
    pub views_entered: u64,
    pub invariant_violations: Vec<String>,
    /// Chaos-injection counters (all zero on fault-free runs).
    pub chaos: ChaosStats,
    /// Order-stable digest of the run's observable outcome (committed
    /// chains, state roots, violations). Two runs of the same scenario
    /// seed + chaos plan produce identical fingerprints — the replay
    /// guarantee the chaos sweep's shrinker depends on.
    pub fingerprint: u64,
    /// Per-replica view at end of run (chaos-failure diagnostics).
    pub replica_views: Vec<u64>,
    /// Per-replica committed-chain length at end of run.
    pub replica_chain_lens: Vec<usize>,
    /// Per-replica state root at end of run.
    pub replica_roots: Vec<Digest>,
    /// The observability sink the run was traced into, if any (carried so
    /// [`Report::ensure_invariants`] can flush it before a hard exit).
    pub observer: Option<Obs>,
}

impl Report {
    pub fn invariants_ok(&self) -> bool {
        self.invariant_violations.is_empty()
    }

    /// Offered load measured in-window, tx/s (0 on closed-loop runs).
    pub(crate) fn offered_tps(&self) -> f64 {
        self.offered_txs as f64 / self.sim_seconds
    }

    /// Fraction of in-window submissions refused at admission.
    pub fn drop_rate(&self) -> f64 {
        if self.offered_txs == 0 {
            0.0
        } else {
            self.admission_drops as f64 / self.offered_txs as f64
        }
    }

    /// Hard gate: print any invariant violation to stderr and exit
    /// non-zero. Examples, benches and the chaos sweep all route through
    /// this so a safety regression can never scroll past as advisory
    /// output (CI runs them with `set -e` semantics).
    pub fn ensure_invariants(&self, label: &str) {
        if self.invariants_ok() {
            return;
        }
        eprintln!(
            "INVARIANT VIOLATION [{label}] ({} violations):",
            self.invariant_violations.len()
        );
        for v in &self.invariant_violations {
            eprintln!("  - {v}");
        }
        // A violating run is exactly the one whose trace matters: flush
        // the observer (writing any configured JSONL dump) before dying.
        if let Some(obs) = &self.observer {
            obs.flush();
        }
        std::process::exit(1);
    }

    /// One-line summary for bench output.
    pub fn row(&self) -> String {
        format!(
            "{:<22} n={:<3} batch={:<6} tput={:>10.0} tx/s  lat(mean/p50/p99)={:>8.2}/{:>8.2}/{:>8.2} ms  blocks={} orphaned={} rollbacks={}",
            self.protocol.name(),
            self.n,
            self.batch_size,
            self.throughput_tps,
            self.mean_latency_ms,
            self.p50_latency_ms,
            self.p99_latency_ms,
            self.committed_blocks,
            self.orphaned_blocks,
            self.rollbacks,
        )
    }

    /// CSV row (matches [`Report::csv_header`]).
    pub(crate) fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{:?},{:.0},{:.3},{:.3},{:.3},{},{},{}",
            self.protocol.name(),
            self.n,
            self.f,
            self.batch_size,
            self.workload,
            self.throughput_tps,
            self.mean_latency_ms,
            self.p50_latency_ms,
            self.p99_latency_ms,
            self.committed_blocks,
            self.orphaned_blocks,
            self.rollbacks,
        )
    }

    pub(crate) fn csv_header() -> &'static str {
        "protocol,n,f,batch,workload,throughput_tps,mean_ms,p50_ms,p99_ms,blocks,orphaned,rollbacks"
    }
}
