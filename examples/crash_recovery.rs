//! Kill a journal-backed replica in a live TCP cluster, restart it from
//! its write-ahead journal, and watch it converge with the peers that
//! never crashed (paper §4.2 "Recovery Mechanism").
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```
//!
//! Choreography (wall-clock):
//!
//! * `t=0.0s` — four HotStuff-1 replicas start over loopback TCP;
//!   replica 3 journals every commit/cert/view/speculation to disk.
//! * `t=0.3s` — a closed-loop client starts issuing transactions.
//! * `t=2.0s` — replica 3 is killed (connections severed, no clean
//!   shutdown beyond the journal's own durability).
//! * `t≈2.2s` — replica 3 restarts on the same port: recovery replays
//!   checkpoint + journal, the engine re-enters at its recovered view,
//!   and the `FetchBlock`/`FetchResp` path pulls the blocks it missed.
//! * `t=6.0s` — everything stops; all four replicas must report the same
//!   committed `state_root()`.

use std::time::Duration;

use hotstuff1::consensus::{build_replica, Fault};
use hotstuff1::ledger::ExecConfig;
use hotstuff1::net::client_driver::ClientDriver;
use hotstuff1::net::mesh::Mesh;
use hotstuff1::net::node::NodeRunner;
use hotstuff1::storage::{JournalConfig, StorageConfig, SyncPolicy};
use hotstuff1::types::{ClientId, ProtocolKind, ReplicaId, SimDuration, SystemConfig};

fn config(n: usize) -> SystemConfig {
    let mut cfg = SystemConfig::new(n);
    cfg.view_timer = SimDuration::from_millis(150);
    cfg.delta = SimDuration::from_millis(15);
    cfg.batch_size = 32;
    cfg
}

fn main() {
    let n = 4;
    let base_port = 43710u16;
    let protocol = ProtocolKind::HotStuff1;
    let total = Duration::from_secs(6);
    let crash_at = Duration::from_secs(2);
    let downtime = Duration::from_millis(200);

    let dir = std::env::temp_dir().join(format!("hs1-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage_cfg = StorageConfig {
        journal: JournalConfig { segment_bytes: 1 << 20, sync: SyncPolicy::EveryN(64) },
        checkpoint_every: 1024,
    };

    println!("crash_recovery: 4 replicas over TCP, replica 3 journal-backed");
    println!("  journal dir     : {}", dir.display());

    // Replicas 0..2: plain in-memory nodes, run the whole window.
    let mut live = Vec::new();
    for id in 0..3u32 {
        live.push(std::thread::spawn(move || {
            let engine = build_replica(
                protocol,
                config(n),
                ReplicaId(id),
                Fault::Honest,
                ExecConfig::default(),
            );
            let mesh = Mesh::start(ReplicaId(id), n, "127.0.0.1", base_port).expect("bind");
            let mut runner = NodeRunner::new(engine, mesh);
            runner.run_for(total);
            (
                runner.committed_blocks,
                runner.replica().state_root(),
                runner.replica().committed_len(),
            )
        }));
    }

    // Replica 3: journal-backed; killed at `crash_at`, restarted after
    // `downtime` on the same port and journal directory.
    let dir3 = dir.clone();
    let durable = std::thread::spawn(move || {
        let engine =
            build_replica(protocol, config(n), ReplicaId(3), Fault::Honest, ExecConfig::default());
        let mesh = Mesh::start(ReplicaId(3), n, "127.0.0.1", base_port).expect("bind");
        let mut runner =
            NodeRunner::with_storage(engine, mesh, &dir3, storage_cfg).expect("open storage");
        runner.run_for(crash_at);
        let crashed_at_blocks = runner.replica().committed_len();
        runner.shutdown(); // sever connections, free the port — the "kill"
        drop(runner); //        journal Drop syncs whatever was buffered
        println!("  [t=2.0s] replica 3 killed with {crashed_at_blocks} committed blocks");
        std::thread::sleep(downtime);

        let engine =
            build_replica(protocol, config(n), ReplicaId(3), Fault::Honest, ExecConfig::default());
        let mesh = Mesh::start(ReplicaId(3), n, "127.0.0.1", base_port).expect("rebind");
        let mut runner =
            NodeRunner::with_storage(engine, mesh, &dir3, storage_cfg).expect("recover");
        let info = runner.recovery.clone().expect("recovery ran");
        println!(
            "  [t≈2.2s] replica 3 restarted: {} blocks recovered ({} journal records replayed, checkpoint: {})",
            runner.replica().committed_len() - 1,
            info.replayed_records,
            info.checkpoint_seq.map_or("none".into(), |s| format!("seq {s}")),
        );
        assert!(
            runner.replica().committed_len() >= crashed_at_blocks.saturating_sub(64),
            "recovery must not lose more than the fsync batching window"
        );
        runner.run_for(total - crash_at - downtime);
        (runner.committed_blocks, runner.replica().state_root(), runner.replica().committed_len())
    });

    // Closed-loop client against the full cluster (tolerates the dead
    // replica while it is down).
    std::thread::sleep(Duration::from_millis(300));
    let f = SystemConfig::new(n).f();
    let mut client = ClientDriver::connect(ClientId(0), n, "127.0.0.1", base_port, protocol, f)
        .expect("connect");
    let samples = client.run_closed_loop(Duration::from_millis(4500)).expect("client loop");
    drop(client);

    let (blocks3, root3, chain3) = durable.join().expect("replica 3");
    let results: Vec<_> = live.into_iter().map(|h| h.join().expect("replica")).collect();

    println!("  [t=6.0s] all replicas stopped");
    for (i, (blocks, root, chain)) in results.iter().enumerate() {
        println!("  replica {i}: {chain} chain blocks ({blocks} commits seen), root {root:?}");
    }
    println!(
        "  replica 3: {chain3} chain blocks ({blocks3} commits seen), root {root3:?} (recovered)"
    );
    println!("  client finalized {} transactions across the crash", samples.len());

    assert!(!samples.is_empty(), "client reached finality across the crash window");
    assert!(results.iter().all(|(b, _, _)| *b > 0), "live replicas made progress");
    for (i, (_, root, _)) in results.iter().enumerate() {
        assert_eq!(
            *root, root3,
            "replica {i} and recovered replica 3 must agree on the committed state root"
        );
    }
    println!("\nrecovered replica reached the same committed state root as live peers");

    let _ = std::fs::remove_dir_all(&dir);
}
