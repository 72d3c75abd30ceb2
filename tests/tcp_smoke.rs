//! TCP smoke tests: the same engines the simulator runs, over real
//! loopback sockets with real signatures.
//!
//! CI-robustness rules: loopback only, base ports reserved at run time
//! below the kernel's ephemeral range (see [`free_base_port`]), every
//! receive bounded by a timeout. The full 4-replica closed-loop
//! deployment needs multi-second wall-clock runs, so it is
//! `#[ignore]`-gated; run it with `cargo test -- --ignored`.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hotstuff1::adversary::{AdversaryMutator, AdversaryStrategy};
use hotstuff1::consensus::invariants::{self, Committed, Observation};
use hotstuff1::consensus::{build_replica, Fault};
use hotstuff1::ledger::ExecConfig;
use hotstuff1::net::client_driver::ClientDriver;
use hotstuff1::net::mesh::{Inbound, Mesh};
use hotstuff1::net::node::NodeRunner;
use hotstuff1::statesync::SyncConfig;
use hotstuff1::storage::{StorageConfig, SyncPolicy};
use hotstuff1::types::{
    ClientId, CommittedLog, Message, ProtocolKind, ReplicaId, SimDuration, SystemConfig,
    Transaction,
};

/// Reserve a contiguous run of `n` free loopback ports and return the base.
///
/// A replica may bind seconds after the reservation (the snapshot joiner,
/// a replica restarted from its journal), so a port must stay free without
/// being held. The kernel hands its ephemeral range to every `bind(:0)`
/// probe and to the local end of every outbound connection, in this test
/// and in the ones running beside it; a base the OS picked sits inside
/// that range. So the ports come from below it, from one cursor per
/// process that never hands a port out twice. The cursor starts at an
/// offset taken from the process id, which keeps two runs of this binary
/// apart; a run holding a port somebody else has bound is skipped.
fn free_base_port(n: u16) -> u16 {
    /// Linux's default `ip_local_port_range` starts at 32768.
    const RANGE: std::ops::Range<u16> = 10_000..30_000;
    static NEXT: Mutex<u16> = Mutex::new(0);
    let mut next = NEXT.lock().expect("port cursor");
    if *next == 0 {
        *next = RANGE.start + (std::process::id() % 190) as u16 * 100;
    }
    while *next + n <= RANGE.end {
        let base = *next;
        *next += n;
        if (0..n).all(|i| TcpListener::bind(("127.0.0.1", base + i)).is_ok()) {
            return base;
        }
    }
    panic!("could not find {n} contiguous free loopback ports below {}", RANGE.end);
}

/// How long a node loop that waits on a predicate may take before the
/// test gives up on it: a bound against a hang, never a schedule.
const PATIENCE: Duration = Duration::from_secs(60);

/// A flag the test raises and node loops wait on through
/// `NodeRunner::run_until`.
fn flag() -> Arc<AtomicBool> {
    Arc::new(AtomicBool::new(false))
}

/// Mesh-level smoke: two replicas connect lazily over real sockets and
/// deliver framed messages both ways. No wall-clock sleeps — every wait is
/// a bounded `recv_timeout`.
#[test]
fn mesh_delivers_messages_between_replicas() {
    let n = 2;
    let base_port = free_base_port(n as u16);
    let mesh0 = Mesh::start(ReplicaId(0), n, "127.0.0.1", base_port).expect("bind replica 0");
    let mesh1 = Mesh::start(ReplicaId(1), n, "127.0.0.1", base_port).expect("bind replica 1");

    let ping = Message::Request(Transaction::kv_write(1, 1, 42, 7));
    mesh0.send_replica(ReplicaId(1), ping.clone());
    match mesh1.inbox.recv_timeout(Duration::from_secs(5)) {
        Ok(Inbound::FromReplica(from, msg)) => {
            assert_eq!(from, ReplicaId(0));
            assert_eq!(msg, ping);
        }
        other => panic!("expected ping from replica 0, got {:?}", other.map(|_| "wrong kind")),
    }

    // Reverse direction uses a fresh connection (lazy connect on send).
    let pong = Message::Request(Transaction::kv_write(2, 2, 43, 8));
    mesh1.send_replica(ReplicaId(0), pong.clone());
    match mesh0.inbox.recv_timeout(Duration::from_secs(5)) {
        Ok(Inbound::FromReplica(from, msg)) => {
            assert_eq!(from, ReplicaId(1));
            assert_eq!(msg, pong);
        }
        other => panic!("expected pong from replica 1, got {:?}", other.map(|_| "wrong kind")),
    }

    // Self-send loops back through the inbox without touching the network.
    mesh0.send_replica(ReplicaId(0), ping.clone());
    match mesh0.inbox.recv_timeout(Duration::from_secs(5)) {
        Ok(Inbound::FromReplica(from, msg)) => {
            assert_eq!(from, ReplicaId(0));
            assert_eq!(msg, ping);
        }
        other => panic!("expected self-delivery, got {:?}", other.map(|_| "wrong kind")),
    }
}

/// Full deployment: 4 replicas plus one closed-loop client, all
/// in-process. Needs ~3 s of real wall-clock per run, hence ignored by
/// default; CI exercises it in a dedicated `--ignored` step.
#[test]
#[ignore = "multi-second wall-clock run; execute with cargo test -- --ignored"]
fn four_replicas_and_a_client_over_tcp() {
    let n = 4;
    let base_port = free_base_port(n as u16);
    let protocol = ProtocolKind::HotStuff1;
    let run = Duration::from_secs(3);

    let mut handles = Vec::new();
    for id in 0..n as u32 {
        handles.push(std::thread::spawn(move || {
            let mut cfg = SystemConfig::new(n);
            cfg.view_timer = SimDuration::from_millis(150);
            cfg.delta = SimDuration::from_millis(15);
            cfg.batch_size = 16;
            let engine =
                build_replica(protocol, cfg, ReplicaId(id), Fault::Honest, ExecConfig::default());
            let mesh = Mesh::start(ReplicaId(id), n, "127.0.0.1", base_port).expect("bind");
            let mut runner = NodeRunner::new(engine, mesh);
            runner.run_for(run);
            (runner.committed_blocks, Committed::of(runner.replica()))
        }));
    }

    std::thread::sleep(Duration::from_millis(300));
    let f = SystemConfig::new(n).f();
    let mut client = ClientDriver::connect(ClientId(0), n, "127.0.0.1", base_port, protocol, f)
        .expect("connect");
    let samples = client.run_closed_loop(run - Duration::from_millis(700)).expect("client");

    let (committed, replicas) = join_cluster(handles);
    assert!(committed.iter().all(|&c| c > 0), "every replica commits over TCP: {committed:?}");
    assert!(!samples.is_empty(), "client reached early finality over TCP");
    let violations = invariants::check(&Observation { replicas, ..Observation::default() });
    assert!(violations.is_empty(), "safety over TCP: {violations:?}");
}

/// A cluster with no client holds its views instead of spinning them: a
/// leader with an empty pool and nothing to answer proposes on its
/// `ProposeAt` (105 ms into a view here), so two idle seconds cost under a
/// hundred frames where free-running views cost about 100,000. Then a
/// client arrives, and each of its requests releases a held leader at
/// once: every request is final well inside one view timer.
#[test]
#[ignore = "multi-second wall-clock run; execute with cargo test -- --ignored"]
fn idle_cluster_holds_instead_of_spinning() {
    use hotstuff1::obs::{Clock, Obs};
    let n = 4;
    let base_port = free_base_port(n as u16);
    let protocol = ProtocolKind::HotStuff1;
    let (idle, load) = (Duration::from_secs(2), Duration::from_secs(1));
    let view_timer = Duration::from_millis(150);

    let mut handles = Vec::new();
    let mut recorders = Vec::new();
    let stop = flag();
    for id in 0..n as u32 {
        let (obs, rec) = Obs::recording(Clock::wall());
        recorders.push(rec);
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            let mut cfg = SystemConfig::new(n);
            cfg.view_timer = SimDuration::from_millis(view_timer.as_millis() as u64);
            cfg.delta = SimDuration::from_millis(15);
            cfg.batch_size = 16;
            let engine =
                build_replica(protocol, cfg, ReplicaId(id), Fault::Honest, ExecConfig::default());
            let mesh = Mesh::start(ReplicaId(id), n, "127.0.0.1", base_port).expect("bind");
            let mut runner = NodeRunner::new(engine, mesh);
            runner.set_observer(obs);
            runner.run_until(Instant::now() + PATIENCE, |_| stop.load(Ordering::Relaxed));
            (runner.committed_blocks, Committed::of(runner.replica()))
        }));
    }

    // The reactors publish their counters on the metrics tick.
    std::thread::sleep(idle);
    let frames: u64 = recorders
        .iter()
        .map(|rec| rec.lock().expect("recorder").snapshot().counter_total("net_tx_frames"))
        .sum();
    assert!(frames < 1_000, "{frames} frames sent by an idle cluster in {idle:?}");

    let f = SystemConfig::new(n).f();
    let mut client = ClientDriver::connect(ClientId(0), n, "127.0.0.1", base_port, protocol, f)
        .expect("connect");
    let samples = client.run_closed_loop(load).expect("client");
    drop(client);
    stop.store(true, Ordering::Relaxed);

    let (committed, replicas) = join_cluster(handles);
    assert!(committed.iter().all(|&c| c > 0), "every replica commits: {committed:?}");
    assert!(samples.len() >= 50, "{} requests final in {load:?}", samples.len());
    let slowest = samples.iter().map(|&(_, us)| us).max().unwrap_or(0);
    assert!(
        Duration::from_micros(slowest) < view_timer,
        "a request waited {slowest} µs: it did not release a held leader"
    );
    let violations = invariants::check(&Observation { replicas, ..Observation::default() });
    assert!(violations.is_empty(), "safety over TCP: {violations:?}");
}

/// Join the replica threads, which return their commit count and committed
/// state, in replica order. Each replica holds a window of its committed
/// ids however long it ran: at most `CommittedLog::WINDOW`.
fn join_cluster(
    handles: Vec<std::thread::JoinHandle<(u64, Committed)>>,
) -> (Vec<u64>, Vec<Committed>) {
    let (committed, replicas): (Vec<u64>, Vec<Committed>) =
        handles.into_iter().map(|h| h.join().expect("replica")).unzip();
    for r in &replicas {
        let (held, len) = (r.log.ids().len(), r.log.len());
        assert!(
            held <= CommittedLog::WINDOW,
            "replica {:?} holds {held} of {len} committed ids",
            r.id
        );
    }
    (committed, replicas)
}

/// One replica never sends anything, so every fourth view dies and the
/// block proposed just before it is never certified (its votes went to the
/// dead leader). The requests it carried must be proposed again by the
/// replicas that stored it: an open-loop client, which never resubmits,
/// sees every request final.
#[test]
#[ignore = "multi-second wall-clock run; execute with cargo test -- --ignored"]
fn silent_replica_loses_no_request_over_tcp() {
    let n = 4;
    let base_port = free_base_port(n as u16);
    let protocol = ProtocolKind::HotStuff1;

    let mut handles = Vec::new();
    let stop = flag();
    for id in 0..n as u32 {
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            let mut cfg = SystemConfig::new(n);
            cfg.view_timer = SimDuration::from_millis(20);
            cfg.delta = SimDuration::from_millis(2);
            cfg.batch_size = 16;
            let fault = if id == 3 { Fault::Silent } else { Fault::Honest };
            let engine = build_replica(protocol, cfg, ReplicaId(id), fault, ExecConfig::default());
            let mesh = Mesh::start(ReplicaId(id), n, "127.0.0.1", base_port).expect("bind");
            let mut runner = NodeRunner::new(engine, mesh);
            runner.run_until(Instant::now() + PATIENCE, |_| stop.load(Ordering::Relaxed));
            (runner.committed_blocks, Committed::of(runner.replica()))
        }));
    }

    std::thread::sleep(Duration::from_millis(300));
    let f = SystemConfig::new(n).f();
    let mut client = ClientDriver::connect(ClientId(0), n, "127.0.0.1", base_port, protocol, f)
        .expect("connect");
    // The drain ends when every request is final; `PATIENCE` only bounds
    // it, so a request still not final when it ends was lost, not late.
    // The replicas run until it has ended.
    let started = Instant::now();
    let report = client.run_open_loop(Duration::from_secs(2), 500, PATIENCE).expect("client");
    let took = started.elapsed();
    drop(client);
    stop.store(true, Ordering::Relaxed);

    let (committed, replicas) = join_cluster(handles);
    assert!(committed[..3].iter().all(|&c| c > 0), "the live replicas commit: {committed:?}");
    assert_eq!(report.submitted, 1000);
    assert_eq!(
        report.finalized, report.submitted,
        "every request final under its first id (the open loop and its drain took {took:?})"
    );
    // The silent replica only withholds its messages; its local state is
    // honest and is checked with the rest.
    let violations = invariants::check(&Observation { replicas, ..Observation::default() });
    assert!(violations.is_empty(), "safety over TCP: {violations:?}");
}

/// Kill a journal-backed replica mid-run, restart it from its journal,
/// and require it to converge to the same committed `state_root()` as the
/// replicas that never crashed (ISSUE 2 acceptance: journal replay +
/// `FetchBlock` catch-up over real TCP).
#[test]
#[ignore = "multi-second wall-clock run; execute with cargo test -- --ignored"]
fn killed_replica_recovers_from_journal_over_tcp() {
    let n = 4;
    let base_port = free_base_port(n as u16);
    let protocol = ProtocolKind::HotStuff1;
    let total = Duration::from_secs(4);
    let crash_at = Duration::from_millis(1500);
    let downtime = Duration::from_millis(200);

    let dir = std::env::temp_dir().join(format!("hs1-tcp-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage_cfg = StorageConfig {
        segment_bytes: 1 << 20,
        sync: SyncPolicy::EveryN(64),
        checkpoint_every: 512,
    };

    fn config(n: usize) -> SystemConfig {
        let mut cfg = SystemConfig::new(n);
        cfg.view_timer = SimDuration::from_millis(150);
        cfg.delta = SimDuration::from_millis(15);
        cfg.batch_size = 16;
        cfg
    }

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
            runner.replica().state_root()
        }));
    }

    let dir3 = dir.clone();
    let durable = std::thread::spawn(move || {
        let engine =
            build_replica(protocol, config(n), ReplicaId(3), Fault::Honest, ExecConfig::default());
        let mesh = Mesh::start(ReplicaId(3), n, "127.0.0.1", base_port).expect("bind");
        let mut runner =
            NodeRunner::with_storage(engine, mesh, &dir3, storage_cfg).expect("open storage");
        runner.run_for(crash_at);
        let at_crash = Committed::of(runner.replica());
        assert!(at_crash.log.len() > 1, "replica 3 committed before the kill");
        runner.shutdown();
        drop(runner);
        std::thread::sleep(downtime);

        let engine =
            build_replica(protocol, config(n), ReplicaId(3), Fault::Honest, ExecConfig::default());
        let mesh = Mesh::start(ReplicaId(3), n, "127.0.0.1", base_port).expect("rebind");
        let mut runner =
            NodeRunner::with_storage(engine, mesh, &dir3, storage_cfg).expect("recover");
        let recovered = Committed::of(runner.replica());
        assert_eq!(invariants::check_recovery(&at_crash, &recovered, false), None);
        runner.run_for(total - crash_at - downtime);
        runner.replica().state_root()
    });

    // Drive transactions across the crash window; the client tolerates
    // the dead replica while it is down.
    let client_start = Duration::from_millis(300);
    std::thread::sleep(client_start);
    let f = SystemConfig::new(n).f();
    let mut client = ClientDriver::connect(ClientId(0), n, "127.0.0.1", base_port, protocol, f)
        .expect("connect");
    let samples = client.run_closed_loop(Duration::from_millis(2700)).expect("client");
    drop(client);

    let root3 = durable.join().expect("durable replica");
    let roots: Vec<_> = live.into_iter().map(|h| h.join().expect("replica")).collect();
    // A closed-loop client submits a request when the one before became
    // final, so the latencies before a sample add up to a lower bound on
    // when it was submitted. A client wedged on a request the crash window
    // swallowed has samples too, all from before it.
    let restart_us = (crash_at + downtime - client_start).as_micros() as u64;
    let mut submitted_us = 0;
    let after_restart = samples
        .iter()
        .filter(|(_, latency_us)| {
            let submitted = submitted_us;
            submitted_us += latency_us;
            submitted >= restart_us
        })
        .count();
    assert!(
        after_restart > 0,
        "no request submitted after the restart became final ({} samples before it)",
        samples.len()
    );
    for (i, root) in roots.iter().enumerate() {
        assert_eq!(*root, root3, "replica {i} and recovered replica 3 agree on state root");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// ISSUE 3 acceptance: a fresh replica with an empty data dir joins a
/// live 4-node TCP cluster mid-run and converges to the live peers'
/// state root via snapshot transfer — with one peer serving corrupted
/// chunks, which the joiner must reject by CRC and rotate past.
#[test]
#[ignore = "multi-second wall-clock run; execute with cargo test -- --ignored"]
fn fresh_replica_joins_via_snapshot_over_tcp() {
    let n = 4;
    let base_port = free_base_port(n as u16);
    let protocol = ProtocolKind::HotStuff1;
    let total = Duration::from_secs(7);
    let join_at = Duration::from_secs(3);

    let root_dir = std::env::temp_dir().join(format!("hs1-tcp-statesync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root_dir);
    // Small checkpoint cadence: the pre-join cluster runs degraded
    // (every fourth view times out on the absent replica 3's leader
    // turn), so commits are slow until the join; a servable checkpoint
    // must exist well before t=3s even on a loaded CI machine.
    let storage_cfg =
        StorageConfig { segment_bytes: 1 << 20, sync: SyncPolicy::EveryN(64), checkpoint_every: 8 };

    fn config(n: usize) -> SystemConfig {
        let mut cfg = SystemConfig::new(n);
        cfg.view_timer = SimDuration::from_millis(100);
        cfg.delta = SimDuration::from_millis(10);
        cfg.batch_size = 16;
        cfg
    }

    // Replicas 0..2: durable (⇒ snapshot-serving); replica 0 corrupts
    // every chunk it serves.
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
            runner.set_snapshot_chunk_bytes(4096);
            if id == 0 {
                // The adversary layer (hs1-adversary) corrupts every
                // snapshot chunk this node serves; the joiner must
                // CRC-reject them and rotate to an honest peer.
                runner.set_adversary(AdversaryMutator::new(
                    AdversaryStrategy::CorruptSnapshot,
                    config(n),
                    protocol,
                    ReplicaId(id),
                    0xc0de,
                ));
            }
            runner.run_for(total);
            runner.replica().state_root()
        }));
    }

    // Replica 3: empty disk, joins at t=3s via state sync.
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
        assert_eq!(runner.replica().committed_len(), 1, "empty disk: genesis only");
        runner.run_for(total - join_at);
        (
            runner.replica().state_root(),
            runner.synced_via_snapshot,
            runner.sync_stats.expect("sync ran"),
        )
    });

    // Client traffic while replica 3 is absent, through its join, and a
    // quiet tail for convergence.
    std::thread::sleep(Duration::from_millis(300));
    let f = SystemConfig::new(n).f();
    let mut client = ClientDriver::connect(ClientId(0), n, "127.0.0.1", base_port, protocol, f)
        .expect("connect (tolerating the absent replica)");
    let samples = client.run_closed_loop(Duration::from_millis(5200)).expect("client");
    drop(client);

    let (root3, via_snapshot, stats) = joiner.join().expect("joiner");
    let roots: Vec<_> = live.into_iter().map(|h| h.join().expect("replica")).collect();

    assert!(!samples.is_empty(), "client reached finality");
    assert!(via_snapshot, "joiner must install a snapshot, not replay history");
    assert!(stats.crc_rejections >= 1, "corrupt chunk from replica 0 rejected");
    assert!(stats.rotations >= 1, "sync completed via another peer");
    for (i, root) in roots.iter().enumerate() {
        assert_eq!(*root, root3, "replica {i} and the joiner agree on the state root");
    }
    let _ = std::fs::remove_dir_all(&root_dir);
}

/// A replica restarts with its disk more than a window behind the cluster:
/// its own head is below the window of the log the peers' snapshot holds,
/// where the two logs cannot be compared. It adopts the image whole,
/// installs it on its disk, and commits with the cluster again.
///
/// Replica 3 runs on one disk until it has committed there, then on an
/// empty second disk (joining by snapshot) while the cluster commits at
/// full speed, until the cluster has passed the first disk by more than a
/// window and a checkpoint, and then restarts on the first disk, where
/// its first commit ends the load. Each phase ends on what it waits for:
/// a loaded host makes the test slower, not wrong. A higher offered rate
/// commits fewer blocks: the client's own work takes the cores.
#[test]
#[ignore = "multi-second wall-clock run; execute with cargo test -- --ignored"]
fn replica_a_window_behind_rejoins_via_snapshot_over_tcp() {
    let n = 4;
    let base_port = free_base_port(n as u16);
    let protocol = ProtocolKind::HotStuff1;

    let root_dir = std::env::temp_dir().join(format!("hs1-tcp-stale-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root_dir);
    let storage_cfg = StorageConfig {
        segment_bytes: 1 << 20,
        sync: SyncPolicy::EveryN(64),
        checkpoint_every: 64,
    };
    fn config(n: usize) -> SystemConfig {
        let mut cfg = SystemConfig::new(n);
        cfg.view_timer = SimDuration::from_millis(100);
        cfg.delta = SimDuration::from_millis(10);
        cfg.batch_size = 16;
        cfg
    }
    let sync_cfg = SyncConfig {
        gap_threshold: 4,
        manifest_retry: Duration::from_millis(150),
        chunk_retry: Duration::from_millis(300),
        overall_timeout: Duration::from_secs(2),
        ..SyncConfig::new(config(n))
    };

    let (rejoined_flag, stop) = (flag(), flag());
    let mut live = Vec::new();
    for id in 0..3u32 {
        let dir = root_dir.join(format!("replica-{id}"));
        let stop = stop.clone();
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
            runner.run_until(Instant::now() + PATIENCE, |_| stop.load(Ordering::Relaxed));
            (runner.committed_blocks, Committed::of(runner.replica()))
        }));
    }

    let (stale_dir, swap_dir) = (root_dir.join("replica-3"), root_dir.join("replica-3-swap"));
    let (rejoined, stop3) = (rejoined_flag.clone(), stop.clone());
    let replica3 = std::thread::spawn(move || {
        let engine = || {
            build_replica(protocol, config(n), ReplicaId(3), Fault::Honest, ExecConfig::default())
        };
        let mesh = || Mesh::start(ReplicaId(3), n, "127.0.0.1", base_port).expect("bind");
        let mut stale =
            NodeRunner::with_storage(engine(), mesh(), &stale_dir, storage_cfg).expect("open");
        stale.run_until(Instant::now() + PATIENCE, |r| r.replica().committed_len() > 1);
        let on_disk = Committed::of(stale.replica());
        assert!(on_disk.log.len() > 1, "replica 3 committed on its first disk");
        stale.shutdown();
        drop(stale);

        // The peers' newest checkpoint trails their head by up to
        // `checkpoint_every` blocks, and its image holds the window
        // behind it.
        let past =
            on_disk.log.len() + CommittedLog::WINDOW + 2 * storage_cfg.checkpoint_every as usize;
        let sync = sync_cfg.clone();
        let mut swap = NodeRunner::with_state_sync(engine(), mesh(), &swap_dir, storage_cfg, sync)
            .expect("open the empty disk");
        swap.run_until(Instant::now() + PATIENCE, |r| r.replica().committed_len() > past);
        let passed = swap.replica().committed_len();
        assert!(passed > past, "the cluster reached {passed} blocks, not past {past}");
        swap.shutdown();
        drop(swap);

        let mut back =
            NodeRunner::with_state_sync(engine(), mesh(), &stale_dir, storage_cfg, sync_cfg)
                .expect("recover the stale disk");
        assert_eq!(back.replica().committed_len(), on_disk.log.len(), "the disk's own chain");
        back.run_until(Instant::now() + PATIENCE, |r| {
            if r.committed_blocks > 0 {
                rejoined.store(true, Ordering::Relaxed);
            }
            stop3.load(Ordering::Relaxed)
        });
        (on_disk, back.synced_via_snapshot, back.committed_blocks, Committed::of(back.replica()))
    });

    // Load until replica 3 commits on its first disk again (or its thread
    // has ended early, with the panic the join below reports): open-loop
    // rounds, each under a client id of its own, so no round resubmits
    // another's requests.
    std::thread::sleep(Duration::from_millis(300));
    let f = SystemConfig::new(n).f();
    let (mut finalized, mut round) = (0, 0);
    while !rejoined_flag.load(Ordering::Relaxed) && !replica3.is_finished() {
        let mut client =
            ClientDriver::connect(ClientId(round), n, "127.0.0.1", base_port, protocol, f)
                .expect("connect");
        let report = client
            .run_open_loop(Duration::from_millis(500), 500, Duration::from_millis(200))
            .expect("client");
        finalized += report.finalized;
        round += 1;
    }
    // A quiet tail of ten view timers, so what the last round made final
    // is committed everywhere before the state roots are compared.
    std::thread::sleep(Duration::from_secs(1));
    stop.store(true, Ordering::Relaxed);

    let (on_disk, via_snapshot, committed_after, rejoined) = replica3.join().expect("replica 3");
    let (committed, mut replicas) = join_cluster(live);
    assert!(committed.iter().all(|&c| c > 0), "the live replicas commit: {committed:?}");
    assert!(finalized > 0, "client reached finality");
    assert!(via_snapshot, "the stale replica must adopt the snapshot");
    assert!(
        rejoined.log.start() > on_disk.log.len(),
        "the disk ({} blocks) was a window behind the image (window from {})",
        on_disk.log.len(),
        rejoined.log.start()
    );
    assert!(committed_after > 0, "the rejoined replica commits with the cluster");
    for r in &replicas {
        assert_eq!(
            r.root, rejoined.root,
            "replica {:?} and replica 3 agree on the state root",
            r.id
        );
    }
    replicas.push(rejoined);
    let violations = invariants::check(&Observation { replicas, ..Observation::default() });
    assert!(violations.is_empty(), "safety over TCP: {violations:?}");
    let _ = std::fs::remove_dir_all(&root_dir);
}

/// ISSUE 10 satellite: observer re-attachment across a crash-restart on
/// the TCP path. One shared wall-clock recorder watches replica 3
/// through a kill + `with_storage` restart; every `net_*` and storage
/// counter must stay monotone across the re-attach, and both the network
/// and the journal must keep reporting through the second incarnation.
#[test]
#[ignore = "multi-second wall-clock run; execute with cargo test -- --ignored"]
fn observer_survives_replica_restart_over_tcp() {
    use hotstuff1::obs::{Clock, Obs};

    let n = 4;
    let base_port = free_base_port(n as u16);
    let protocol = ProtocolKind::HotStuff1;
    let total = Duration::from_secs(4);
    let crash_at = Duration::from_millis(1500);
    let downtime = Duration::from_millis(200);

    let dir = std::env::temp_dir().join(format!("hs1-tcp-obs-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage_cfg = StorageConfig {
        segment_bytes: 1 << 20,
        sync: SyncPolicy::EveryN(64),
        checkpoint_every: 512,
    };

    fn config(n: usize) -> SystemConfig {
        let mut cfg = SystemConfig::new(n);
        cfg.view_timer = SimDuration::from_millis(150);
        cfg.delta = SimDuration::from_millis(15);
        cfg.batch_size = 16;
        cfg
    }

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
            runner.replica().state_root()
        }));
    }

    let dir3 = dir.clone();
    let durable = std::thread::spawn(move || {
        // One recorder for both incarnations of replica 3: the counters
        // it accumulates must never step backwards when the restarted
        // runner re-attaches.
        let (obs, rec) = Obs::recording(Clock::wall());
        let counters = |names: &[&str]| -> Vec<u64> {
            let snap = rec.lock().expect("recorder").snapshot();
            names.iter().map(|n| snap.counter_total(n)).collect()
        };
        const WATCHED: [&str; 6] = [
            "net_tx_frames",
            "net_rx_frames",
            "net_tx_bytes",
            "net_rx_bytes",
            "fsyncs",
            "journal_bytes",
        ];

        let engine =
            build_replica(protocol, config(n), ReplicaId(3), Fault::Honest, ExecConfig::default());
        let mesh = Mesh::start(ReplicaId(3), n, "127.0.0.1", base_port).expect("bind");
        let mut runner =
            NodeRunner::with_storage(engine, mesh, &dir3, storage_cfg).expect("open storage");
        runner.set_observer(obs.with_actor(3));
        runner.run_for(crash_at);
        runner.shutdown();
        drop(runner);
        let at_crash = counters(&WATCHED);
        assert!(at_crash[0] > 0, "first incarnation sent frames");
        assert!(at_crash[4] > 0, "first incarnation fsynced its journal");
        std::thread::sleep(downtime);

        let engine =
            build_replica(protocol, config(n), ReplicaId(3), Fault::Honest, ExecConfig::default());
        let mesh = Mesh::start(ReplicaId(3), n, "127.0.0.1", base_port).expect("rebind");
        let mut runner =
            NodeRunner::with_storage(engine, mesh, &dir3, storage_cfg).expect("recover");
        runner.set_observer(obs.with_actor(3));
        runner.run_for(total - crash_at - downtime);
        let root = runner.replica().state_root();
        runner.shutdown();
        drop(runner);

        let at_end = counters(&WATCHED);
        for (i, name) in WATCHED.iter().enumerate() {
            assert!(
                at_end[i] >= at_crash[i],
                "{name} went backwards across the restart: {} -> {}",
                at_crash[i],
                at_end[i],
            );
        }
        // The re-attached observer must still be live on both the network
        // and the storage paths, not just non-regressing.
        assert!(at_end[1] > at_crash[1], "net_rx_frames advanced after the re-attach");
        assert!(at_end[4] > at_crash[4], "fsyncs advanced after the re-attach");
        root
    });

    std::thread::sleep(Duration::from_millis(300));
    let f = SystemConfig::new(n).f();
    let mut client = ClientDriver::connect(ClientId(0), n, "127.0.0.1", base_port, protocol, f)
        .expect("connect");
    let samples = client.run_closed_loop(Duration::from_millis(2700)).expect("client");
    drop(client);

    let root3 = durable.join().expect("durable replica");
    let roots: Vec<_> = live.into_iter().map(|h| h.join().expect("replica")).collect();
    assert!(!samples.is_empty(), "client reached finality across the crash");
    for (i, root) in roots.iter().enumerate() {
        assert_eq!(*root, root3, "replica {i} and restarted replica 3 agree on state root");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// ISSUE 10 acceptance: live introspection endpoints on a running
/// 4-replica TCP cluster. Each replica serves `/metrics` (Prometheus
/// text) and `/status` (JSON) from its reactor-fed recorder; curling
/// both mid-run must return well-formed payloads and must not perturb
/// consensus (all state roots converge). With `HS1_TRACE_DIR` set, the
/// per-replica wall-clock traces are causally joined via first-contact
/// alignment and written out for the CI artifact.
#[cfg(unix)]
#[test]
#[ignore = "multi-second wall-clock run; execute with cargo test -- --ignored"]
fn introspection_endpoints_serve_a_live_tcp_cluster() {
    use hotstuff1::obs::{Alignment, Clock, ClusterTrace, Obs, TraceEvent};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let n = 4;
    let base_port = free_base_port(n as u16);
    let protocol = ProtocolKind::HotStuff1;
    let run = Duration::from_secs(3);

    let (port_tx, port_rx) = std::sync::mpsc::channel::<(u32, u16)>();
    let mut handles = Vec::new();
    for id in 0..n as u32 {
        let port_tx = port_tx.clone();
        handles.push(std::thread::spawn(move || {
            let mut cfg = SystemConfig::new(n);
            cfg.view_timer = SimDuration::from_millis(150);
            cfg.delta = SimDuration::from_millis(15);
            cfg.batch_size = 16;
            let engine =
                build_replica(protocol, cfg, ReplicaId(id), Fault::Honest, ExecConfig::default());
            let mesh = Mesh::start(ReplicaId(id), n, "127.0.0.1", base_port).expect("bind");
            let mut runner = NodeRunner::new(engine, mesh);
            let (obs, rec) = Obs::recording(Clock::wall());
            runner.set_observer(obs.with_actor(id));
            let http_port = runner
                .serve_introspection_with("127.0.0.1", 0, rec.clone())
                .expect("introspection server");
            port_tx.send((id, http_port)).expect("report port");
            runner.run_for(run);
            let events = rec.lock().expect("recorder").trace().to_vec();
            (runner.replica().state_root(), runner.committed_blocks, events)
        }));
    }
    drop(port_tx);
    let mut http_ports = vec![0u16; n];
    for _ in 0..n {
        let (id, port) = port_rx.recv_timeout(Duration::from_secs(5)).expect("port");
        http_ports[id as usize] = port;
    }

    // Client load so the endpoints are sampled on a cluster that is
    // actually committing.
    std::thread::sleep(Duration::from_millis(300));
    let f = SystemConfig::new(n).f();
    let mut client = ClientDriver::connect(ClientId(0), n, "127.0.0.1", base_port, protocol, f)
        .expect("connect");
    let client_thread = std::thread::spawn(move || {
        client.run_closed_loop(run - Duration::from_millis(700)).expect("client")
    });

    // Curl every replica mid-run.
    std::thread::sleep(Duration::from_millis(700));
    let get = |port: u16, path: &str| -> String {
        let mut conn = TcpStream::connect(("127.0.0.1", port)).expect("connect http");
        conn.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        conn.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes()).expect("request");
        let mut body = String::new();
        conn.read_to_string(&mut body).expect("response");
        body
    };
    for (id, &port) in http_ports.iter().enumerate() {
        let metrics = get(port, "/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200"), "replica {id}: /metrics 200");
        assert!(metrics.contains("text/plain; version=0.0.4"), "replica {id}: prom content type");
        assert!(metrics.contains("# TYPE "), "replica {id}: typed metric families");
        assert!(metrics.contains("hs1_net_tx_frames_total"), "replica {id}: reactor counters");

        let status = get(port, "/status");
        assert!(status.starts_with("HTTP/1.0 200"), "replica {id}: /status 200");
        assert!(status.contains("application/json"), "replica {id}: json content type");
        let body = status.split("\r\n\r\n").nth(1).unwrap_or_default();
        for field in ["\"replica\"", "\"view\"", "\"chain_len\"", "\"head\"", "\"peers\""] {
            assert!(body.contains(field), "replica {id}: /status has {field}: {body}");
        }
        assert!(get(port, "/nope").starts_with("HTTP/1.0 404"), "replica {id}: 404 elsewhere");
    }

    let samples = client_thread.join().expect("client thread");
    let results: Vec<_> = handles.into_iter().map(|h| h.join().expect("replica")).collect();
    assert!(!samples.is_empty(), "client reached finality with introspection attached");
    assert!(results.iter().all(|(_, c, _)| *c > 0), "every replica committed");
    for (i, (root, _, _)) in results.iter().enumerate() {
        assert_eq!(*root, results[0].0, "replica {i} agrees on the state root");
    }

    // CI artifact: causally join the four wall-clock traces (first-contact
    // alignment — no shared clock over TCP) and export them.
    if let Ok(dir) = std::env::var("HS1_TRACE_DIR") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("trace dir");
        let sources: Vec<Vec<TraceEvent>> = results.into_iter().map(|(_, _, ev)| ev).collect();
        let merged = ClusterTrace::merge(sources, Alignment::FirstContact);
        std::fs::write(dir.join("cluster.jsonl"), merged.to_jsonl()).expect("cluster.jsonl");
        std::fs::write(
            dir.join("trace.perfetto.json"),
            hotstuff1::obs::perfetto::chrome_trace_json(&merged.events),
        )
        .expect("perfetto export");
        assert!(!merged.events.is_empty(), "merged TCP trace is non-empty");
    }
}

/// ISSUE 9 acceptance: one replica's reads are stalled behind a
/// throttling proxy for seconds. The cluster must keep committing (the
/// bounded per-peer queues shed stale frames instead of blocking the
/// engine on the slowest peer — the shed counter must be nonzero), and
/// once the proxy releases, the stalled replica must catch up through
/// the fetch path and converge to the same committed state root.
#[cfg(unix)]
#[test]
#[ignore = "multi-second wall-clock run; execute with cargo test -- --ignored"]
fn slow_peer_backpressure_sheds_and_cluster_keeps_committing() {
    use hotstuff1::net::mesh::MeshConfig;
    use hotstuff1::net::poll::set_recv_buffer;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let n = 4;
    // base..base+3 are the advertised ports; base+4 is replica 3's real
    // (hidden) listen port. The proxy owns advertised port base+3.
    let base_port = free_base_port(n as u16 + 1);
    let real_port3 = base_port + 4;
    let proxy_port = base_port + 3;
    let protocol = ProtocolKind::HotStuff1;
    let total = Duration::from_secs(9);
    let release_at = Duration::from_secs(4);

    fn config(n: usize) -> SystemConfig {
        let mut cfg = SystemConfig::new(n);
        cfg.view_timer = SimDuration::from_millis(150);
        cfg.delta = SimDuration::from_millis(15);
        cfg.batch_size = 16;
        cfg
    }

    // --- Throttling proxy in front of replica 3 -------------------------
    // While `throttled`, the toward-3 pump simply stops reading: its tiny
    // inherited receive buffer fills, then each sender's (shrunken) send
    // buffer fills, and kernel backpressure reaches the senders' bounded
    // queues — which must shed rather than block their engines.
    let throttled = Arc::new(AtomicBool::new(true));
    // Replica bytes the proxy forwarded toward 3; sampled at release
    // time to prove the throttle actually engaged.
    let gated_bytes = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let gated_at_release = Arc::new(std::sync::atomic::AtomicU64::new(u64::MAX));
    let proxy = TcpListener::bind(("127.0.0.1", proxy_port)).expect("bind proxy");
    set_recv_buffer(proxy.as_raw_fd(), 2048).expect("shrink proxy rcvbuf");
    {
        let throttled = throttled.clone();
        let gated_bytes = gated_bytes.clone();
        std::thread::spawn(move || {
            fn pump(
                mut r: TcpStream,
                mut w: TcpStream,
                gate: Option<Arc<AtomicBool>>,
                counter: Arc<std::sync::atomic::AtomicU64>,
            ) {
                let mut buf = [0u8; 16 * 1024];
                loop {
                    if let Some(g) = &gate {
                        while g.load(Ordering::Relaxed) {
                            std::thread::sleep(Duration::from_millis(25));
                        }
                    }
                    match r.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(got) => {
                            if gate.is_some() {
                                counter.fetch_add(got as u64, Ordering::Relaxed);
                            }
                            if w.write_all(&buf[..got]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
            for conn in proxy.incoming() {
                let Ok(mut down) = conn else { break };
                // Peek the 5-byte hello: only replica→replica traffic is
                // throttled — the client's (blocking) socket passes
                // freely so offered load stays up during the stall.
                let mut hello = [0u8; 5];
                if down.read_exact(&mut hello).is_err() {
                    continue;
                }
                let Ok(mut up) = TcpStream::connect(("127.0.0.1", real_port3)) else { continue };
                if up.write_all(&hello).is_err() {
                    continue;
                }
                let gate = (hello[0] == 0).then(|| throttled.clone());
                let (down_r, down_w) = (down.try_clone().expect("clone"), down);
                let (up_r, up_w) = (up.try_clone().expect("clone"), up);
                let (c1, c2) = (gated_bytes.clone(), gated_bytes.clone());
                // Toward replica 3: gated for replicas. Responses from 3: free.
                std::thread::spawn(move || pump(down_r, up_w, gate, c1));
                std::thread::spawn(move || pump(up_r, down_w, None, c2));
            }
        });
    }

    // Replicas 0..2: tight byte caps + small kernel send buffers so the
    // stall is visible within the test window; at full speed these caps
    // are far above the steady-state queue depth.
    let mut fast = Vec::new();
    for id in 0..3u32 {
        fast.push(std::thread::spawn(move || {
            let engine = build_replica(
                protocol,
                config(n),
                ReplicaId(id),
                Fault::Honest,
                ExecConfig::default(),
            );
            let cfg = MeshConfig {
                queue_frames: 48,
                queue_bytes: 5 * 1024,
                send_buffer: Some(2048),
                ..MeshConfig::default()
            };
            let mesh =
                Mesh::start_with(ReplicaId(id), n, "127.0.0.1", base_port, cfg).expect("bind");
            let mut runner = NodeRunner::new(engine, mesh);
            runner.run_for(total);
            (runner.replica().state_root(), runner.net_stats().frames_shed, runner.committed_blocks)
        }));
    }

    // Replica 3: listens on the hidden real port; everyone reaches it
    // through the proxy at its advertised port.
    let slow = std::thread::spawn(move || {
        let engine =
            build_replica(protocol, config(n), ReplicaId(3), Fault::Honest, ExecConfig::default());
        let cfg = MeshConfig { listen_port: Some(real_port3), ..MeshConfig::default() };
        let mesh =
            Mesh::start_with(ReplicaId(3), n, "127.0.0.1", base_port, cfg).expect("bind real");
        let mut runner = NodeRunner::new(engine, mesh);
        runner.run_for(total);
        runner.replica().state_root()
    });

    // Release the throttle at t=4s.
    {
        let throttled = throttled.clone();
        let gated_bytes = gated_bytes.clone();
        let gated_at_release = gated_at_release.clone();
        std::thread::spawn(move || {
            std::thread::sleep(release_at);
            gated_at_release.store(gated_bytes.load(Ordering::Relaxed), Ordering::Relaxed);
            throttled.store(false, Ordering::Relaxed);
        });
    }

    // Open-loop client traffic through the stall and past the release —
    // enough offered load that proposal frames toward the stalled peer
    // overrun its bounded queue within the stall window. The client then
    // drains until every request is final, and the replicas run on for the
    // rest of the window, twelve view timers at the least and eighteen
    // when the drain has nothing to wait for: the state roots are compared
    // when `run_for` returns, and a replica still fetching its way back
    // (replica 3, or one that shed frames of its own under load) has a
    // root of its own until it is quiet.
    std::thread::sleep(Duration::from_millis(300));
    let f = SystemConfig::new(n).f();
    let mut client = ClientDriver::connect(ClientId(0), n, "127.0.0.1", base_port, protocol, f)
        .expect("connect");
    let report = client
        .run_open_loop(Duration::from_millis(5900), 1500, Duration::from_secs(1))
        .expect("client");
    drop(client);

    let root3 = slow.join().expect("slow replica");
    let results: Vec<_> = fast.into_iter().map(|h| h.join().expect("replica")).collect();

    assert!(report.finalized > 0, "cluster kept reaching finality while replica 3 was stalled");
    assert_eq!(
        gated_at_release.load(Ordering::Relaxed),
        0,
        "the proxy must not have leaked replica traffic before the release"
    );
    let total_shed: u64 = results.iter().map(|(_, shed, _)| shed).sum();
    assert!(
        total_shed > 0,
        "the bounded queues must have shed frames for the stalled peer (got 0)"
    );
    assert!(
        results.iter().all(|(_, _, commits)| *commits > 0),
        "every fast replica kept committing through the stall"
    );
    for (i, (root, _, _)) in results.iter().enumerate() {
        assert_eq!(
            *root, root3,
            "replica {i} and the previously stalled replica 3 agree on the state root"
        );
    }
}
