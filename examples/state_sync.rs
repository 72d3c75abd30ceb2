//! A fresh replica with an **empty disk** joins a live TCP cluster
//! mid-run and converges to the live peers' state root via snapshot
//! state transfer (`hs1-statesync`) — including rotating away from a
//! peer that serves corrupted chunks.
//!
//! ```text
//! cargo run --release --example state_sync
//! ```
//!
//! Choreography (wall-clock):
//!
//! * `t=0.0s` — replicas 0–2 start over loopback TCP, each durable
//!   (journal + periodic checkpoints) and therefore snapshot-serving.
//!   Replica 0 is configured to corrupt every snapshot chunk it serves.
//! * `t=0.3s` — a closed-loop client starts issuing transactions
//!   (tolerating the not-yet-started replica 3).
//! * `t=3.0s` — replica 3 starts with an **empty data directory**. It
//!   collects snapshot manifests until `f + 1 = 2` peers agree on a
//!   snapshot identity, downloads the image — rejecting replica 0's
//!   corrupt chunk by CRC and rotating to the next peer — verifies the
//!   assembled state root against the agreed manifest, installs it into
//!   engine + journal, and only then joins consensus. The residual
//!   suffix arrives through the ordinary `FetchBlock` path.
//! * `t=7.0s` — everything stops; all four replicas must report the same
//!   committed `state_root()`.

use std::time::Duration;

use hotstuff1::adversary::{AdversaryMutator, AdversaryStrategy};
use hotstuff1::consensus::{build_replica, Fault};
use hotstuff1::ledger::ExecConfig;
use hotstuff1::net::client_driver::ClientDriver;
use hotstuff1::net::mesh::Mesh;
use hotstuff1::net::node::NodeRunner;
use hotstuff1::statesync::SyncConfig;
use hotstuff1::storage::{JournalConfig, StorageConfig, SyncPolicy};
use hotstuff1::types::{ClientId, ProtocolKind, ReplicaId, SimDuration, SystemConfig};

fn config(n: usize) -> SystemConfig {
    let mut cfg = SystemConfig::new(n);
    cfg.view_timer = SimDuration::from_millis(100);
    cfg.delta = SimDuration::from_millis(10);
    cfg.batch_size = 32;
    cfg
}

const CHUNK_BYTES: u32 = 4096;

fn main() {
    let n = 4;
    let base_port = 43720u16;
    let protocol = ProtocolKind::HotStuff1;
    let total = Duration::from_secs(7);
    let join_at = Duration::from_secs(3);

    let root_dir = std::env::temp_dir().join(format!("hs1-state-sync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root_dir);
    // Frequent checkpoints keep a fresh servable snapshot around. Note
    // the pre-join cluster runs *degraded*: with replica 3 absent, every
    // fourth view times out on a dead leader, so the chain grows slowly
    // until the join heals the rotation (visible in the chain lengths).
    let storage_cfg = StorageConfig {
        journal: JournalConfig { segment_bytes: 1 << 20, sync: SyncPolicy::EveryN(64) },
        checkpoint_every: 8,
    };

    println!("state_sync: 3 durable replicas over TCP; replica 3 joins at t=3s with an empty disk");
    println!("  data dir        : {}", root_dir.display());
    println!("  replica 0       : serves CORRUPTED snapshot chunks (fault injection)");

    // Replicas 0..2: durable, snapshot-serving, run the whole window.
    let mut live = Vec::new();
    for id in 0..3u32 {
        let dir = root_dir.join(format!("replica-{id}"));
        live.push(std::thread::spawn(move || {
            let engine = build_replica(
                protocol,
                config(n),
                ReplicaId(id),
                Fault::Honest,
                ExecConfig::default(),
            );
            let mesh = Mesh::start(ReplicaId(id), n, "127.0.0.1", base_port).expect("bind");
            let mut runner =
                NodeRunner::with_storage(engine, mesh, &dir, storage_cfg).expect("open storage");
            runner.set_snapshot_chunk_bytes(CHUNK_BYTES);
            if id == 0 {
                // Byzantine serving via the hs1-adversary layer: every
                // chunk this node serves fails the manifest's CRC index.
                runner.set_adversary(AdversaryMutator::new(
                    AdversaryStrategy::CorruptSnapshot,
                    config(n),
                    protocol,
                    ReplicaId(id),
                    0xc0de,
                ));
            }
            runner.run_for(total);
            (runner.replica().state_root(), runner.replica().committed_len())
        }));
    }

    // Replica 3: born at t=3s with nothing on disk; snapshot-syncs in.
    let dir3 = root_dir.join("replica-3");
    let joiner = std::thread::spawn(move || {
        std::thread::sleep(join_at);
        let engine =
            build_replica(protocol, config(n), ReplicaId(3), Fault::Honest, ExecConfig::default());
        let mesh = Mesh::start(ReplicaId(3), n, "127.0.0.1", base_port).expect("bind");
        let sync_cfg = SyncConfig {
            gap_threshold: 4,
            manifest_retry: Duration::from_millis(150),
            chunk_retry: Duration::from_millis(300),
            overall_timeout: Duration::from_secs(3),
            ..SyncConfig::new(config(n))
        };
        let mut runner = NodeRunner::with_state_sync(engine, mesh, &dir3, storage_cfg, sync_cfg)
            .expect("open empty storage");
        assert_eq!(runner.replica().committed_len(), 1, "nothing but genesis before the sync");
        runner.run_for(total - join_at);
        let stats = runner.sync_stats.expect("sync phase ran");
        (
            runner.replica().state_root(),
            runner.replica().committed_len(),
            runner.synced_via_snapshot,
            stats,
        )
    });

    // Closed-loop client against the live trio (replica 3 not yet up).
    std::thread::sleep(Duration::from_millis(300));
    let f = SystemConfig::new(n).f();
    let mut client = ClientDriver::connect(ClientId(0), n, "127.0.0.1", base_port, protocol, f)
        .expect("connect");
    let samples = client.run_closed_loop(Duration::from_millis(5200)).expect("client loop");
    drop(client);

    let (root3, chain3, via_snapshot, stats) = joiner.join().expect("replica 3");
    let results: Vec<_> = live.into_iter().map(|h| h.join().expect("replica")).collect();

    println!("  [t=7.0s] all replicas stopped");
    for (i, (root, chain)) in results.iter().enumerate() {
        println!("  replica {i}: {chain} chain blocks, root {root:?}");
    }
    println!("  replica 3: {chain3} chain blocks, root {root3:?} (joined mid-run)");
    println!(
        "  sync: {} manifests, agreement of {}, {} chunks / {} bytes, {} CRC rejection(s), {} rotation(s)",
        stats.manifests_received,
        stats.agreement_peers,
        stats.chunks_received,
        stats.bytes_received,
        stats.crc_rejections,
        stats.rotations,
    );
    println!("  client finalized {} transactions", samples.len());

    assert!(!samples.is_empty(), "client reached finality while the cluster ran");
    assert!(via_snapshot, "replica 3 must have installed a snapshot, not replayed history");
    assert!(stats.crc_rejections >= 1, "replica 0's corrupt chunk must have been rejected");
    assert!(stats.rotations >= 1, "sync must have completed via another peer");
    assert!(chain3 > 1, "replica 3 holds a committed chain");
    for (i, (root, _)) in results.iter().enumerate() {
        assert_eq!(
            *root, root3,
            "replica {i} and the freshly joined replica 3 must agree on the state root"
        );
    }
    println!("\nfresh replica joined via snapshot transfer and matches the live state root");

    let _ = std::fs::remove_dir_all(&root_dir);
}
