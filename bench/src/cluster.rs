//! Boots the system under test: four real `NodeRunner`s over reactor
//! `Mesh`es on loopback, each on its own named thread, all in this
//! process.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

use hs1_core::{build_replica, Fault, Replica};
use hs1_ledger::ExecConfig;
use hs1_net::mesh::{Backend, Mesh, MeshConfig, NetStatsSnapshot};
use hs1_net::node::NodeRunner;
use hs1_storage::StorageConfig;
use hs1_types::{ProtocolKind, ReplicaId, SimDuration, SystemConfig};

use crate::trace::{TimedReplica, Tracer};

/// Replicas in every workload (`f = 1`).
pub const N: usize = 4;

/// The deployment every workload shares; only these fields differ.
#[derive(Clone)]
pub struct ClusterSpec {
    pub protocol: ProtocolKind,
    /// Journal under this directory (one subdirectory per replica).
    pub storage_dir: Option<PathBuf>,
    /// This replica never sends anything.
    pub silent: Option<u32>,
}

/// Consensus settings common to all workloads.
pub fn system_config() -> SystemConfig {
    let mut sys = SystemConfig::new(N);
    sys.batch_size = 64;
    sys.view_timer = SimDuration::from_millis(100);
    sys.delta = SimDuration::from_millis(10);
    sys
}

/// What one replica reports when its run ends.
pub struct NodeReport {
    pub net: NetStatsSnapshot,
    pub committed_blocks: u64,
}

/// A booted cluster. Replicas run until the deadline they were started
/// with; [`Cluster::join`] waits for them.
pub struct Cluster {
    pub base_port: u16,
    nodes: Vec<JoinHandle<NodeReport>>,
}

/// Reserve a contiguous run of `n` free loopback ports (the idiom of
/// `tests/tcp_smoke.rs`).
pub fn free_base_port(n: u16) -> std::io::Result<u16> {
    for _ in 0..64 {
        let base = TcpListener::bind("127.0.0.1:0")?.local_addr()?.port();
        if base.checked_add(n).is_none() {
            continue;
        }
        if (0..n).all(|i| TcpListener::bind(("127.0.0.1", base + i)).is_ok()) {
            return Ok(base);
        }
    }
    Err(std::io::Error::other("no contiguous free loopback ports"))
}

impl Cluster {
    /// Start the replicas and return once each has built its engine,
    /// bound its listener and opened its storage, so a client can dial at
    /// once. Each replica then runs until `deadline`. With a `tracer`,
    /// each engine is wrapped in a [`TimedReplica`].
    pub fn boot(
        spec: &ClusterSpec,
        deadline: Instant,
        tracer: Option<Arc<Tracer>>,
    ) -> std::io::Result<Cluster> {
        let base_port = free_base_port(N as u16)?;
        let ready = Arc::new(Barrier::new(N + 1));
        let mut nodes = Vec::with_capacity(N);
        for id in 0..N as u32 {
            let (spec, ready, tracer) = (spec.clone(), ready.clone(), tracer.clone());
            let node =
                std::thread::Builder::new().name(format!("engine-{id}")).spawn(move || {
                    let fault = if spec.silent == Some(id) { Fault::Silent } else { Fault::Honest };
                    let bare = build_replica(
                        spec.protocol,
                        system_config(),
                        ReplicaId(id),
                        fault,
                        ExecConfig::default(),
                    );
                    let engine: Box<dyn Replica> = match tracer {
                        Some(tracer) => Box::new(TimedReplica::new(bare, tracer)),
                        None => bare,
                    };
                    let cfg = MeshConfig { backend: Backend::Reactor, ..MeshConfig::default() };
                    let runner = Mesh::start_with(ReplicaId(id), N, "127.0.0.1", base_port, cfg)
                        .map_err(|e| format!("bind: {e}"))
                        .and_then(|mesh| match &spec.storage_dir {
                            Some(dir) => NodeRunner::with_storage(
                                engine,
                                mesh,
                                dir.join(format!("r{id}")),
                                StorageConfig::default(),
                            )
                            .map_err(|e| format!("open storage: {e}")),
                            None => Ok(NodeRunner::new(engine, mesh)),
                        });
                    // Reach the barrier even on failure, or boot() hangs.
                    ready.wait();
                    let mut runner = runner.unwrap_or_else(|e| panic!("replica {id}: {e}"));
                    runner.run_for(deadline.saturating_duration_since(Instant::now()));
                    let report = NodeReport {
                        net: runner.net_stats(),
                        committed_blocks: runner.committed_blocks,
                    };
                    runner.shutdown();
                    report
                })?;
            nodes.push(node);
        }
        ready.wait();
        Ok(Cluster { base_port, nodes })
    }

    /// Wait for every replica to reach its deadline. A replica that
    /// panicked is an error naming it.
    pub fn join(self) -> Result<Vec<NodeReport>, String> {
        let mut reports = Vec::with_capacity(self.nodes.len());
        for (id, node) in self.nodes.into_iter().enumerate() {
            reports.push(node.join().map_err(|_| format!("replica {id} panicked"))?);
        }
        Ok(reports)
    }
}
