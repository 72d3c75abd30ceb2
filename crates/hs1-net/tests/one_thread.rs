//! The ownership model of the transport, seen from outside the crate: a
//! running replica is one thread, and only a bare `Mesh` keeps a
//! background `reactor-N` thread.

use std::net::TcpListener;
use std::sync::Mutex;
use std::time::Duration;

use hs1_core::{build_replica, Fault};
use hs1_ledger::ExecConfig;
use hs1_net::client_driver::ClientDriver;
use hs1_net::mesh::{Inbound, Mesh};
use hs1_net::node::NodeRunner;
use hs1_obs::{Clock, EventKind, Obs, Stage};
use hs1_types::{
    ClientId, Message, ProtocolKind, ReplicaId, SimDuration, SystemConfig, Transaction,
};

/// Both tests look at this process's thread names, so they take turns.
static THREADS: Mutex<()> = Mutex::new(());

fn free_base_port(n: u16) -> u16 {
    for _ in 0..32 {
        let probe = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let base = probe.local_addr().expect("addr").port();
        drop(probe);
        if base.checked_add(n).is_some()
            && (0..n).all(|i| TcpListener::bind(("127.0.0.1", base + i)).is_ok())
        {
            return base;
        }
    }
    panic!("could not find {n} contiguous free loopback ports");
}

/// Names of this process's `reactor-*` threads.
#[cfg(target_os = "linux")]
fn reactor_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("reactor-"))
        .collect();
    names.sort();
    names
}

/// A thread names itself once it runs, so a fresh one shows up a moment
/// after `spawn` returns: wait (bounded) for `want` reactor threads.
#[cfg(target_os = "linux")]
fn await_reactor_threads(want: &[&str]) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while reactor_threads() != want {
        assert!(std::time::Instant::now() < deadline, "reactor threads: {:?}", reactor_threads());
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_running_replica_is_one_thread_and_commits_at_once() {
    let _turn = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let n = 4usize;
    let base = free_base_port(n as u16);
    let run = Duration::from_millis(600);
    // Every listener is up before anyone dials.
    let meshes: Vec<Mesh> = (0..n as u32)
        .map(|id| Mesh::start(ReplicaId(id), n, "127.0.0.1", base).expect("bind"))
        .collect();
    #[cfg(target_os = "linux")]
    await_reactor_threads(&["reactor-0", "reactor-1", "reactor-2", "reactor-3"]);
    let mut nodes = Vec::new();
    for (id, mesh) in meshes.into_iter().enumerate() {
        nodes.push(std::thread::spawn(move || {
            let mut sys = SystemConfig::new(n);
            sys.view_timer = SimDuration::from_millis(150);
            sys.delta = SimDuration::from_millis(15);
            let engine = build_replica(
                ProtocolKind::HotStuff1,
                sys,
                ReplicaId(id as u32),
                Fault::Honest,
                ExecConfig::default(),
            );
            let mut runner = NodeRunner::new(engine, mesh);
            let (obs, rec) = Obs::recording(Clock::wall());
            runner.set_observer(obs);
            runner.run_for(run);
            runner.shutdown();
            let first_commit = rec.lock().expect("recorder").trace().iter().find_map(|e| {
                matches!(e.kind, EventKind::Stage { stage: Stage::Committed, .. })
                    .then(|| Duration::from_nanos(e.at))
            });
            (runner.committed_blocks, first_commit)
        }));
    }
    // Loaded: an idle cluster's leaders hold their proposals until
    // `ProposeAt`, 105 ms into a view here.
    let f = SystemConfig::new(n).f();
    let mut client =
        ClientDriver::connect(ClientId(0), n, "127.0.0.1", base, ProtocolKind::HotStuff1, f)
            .expect("connect");
    client.run_closed_loop(run / 2).expect("client");
    drop(client);
    #[cfg(target_os = "linux")]
    assert_eq!(reactor_threads(), Vec::<String>::new(), "a running replica has no second thread");

    for (id, node) in nodes.into_iter().enumerate() {
        let (committed, first_commit) = node.join().expect("replica");
        assert!(committed > 0, "replica {id} commits while running single-threaded");
        // A closed loop runs views back to back, and every other step is
        // a message a replica sends itself. If the loop slept on those it
        // would wake on the 100 ms metrics tick.
        let first_commit = first_commit.expect("a commit event");
        assert!(
            first_commit < Duration::from_millis(50),
            "replica {id}: first commit after {first_commit:?}"
        );
    }
    // Every runner shut down after its run: the ports are free already.
    for port in base..base + n as u16 {
        TcpListener::bind(("127.0.0.1", port)).expect("port free once shutdown() returned");
    }
}

/// The contract `bench/src/lab.rs` and the tests rely on:
/// with no node running it, a mesh moves bytes by itself.
#[test]
fn a_bare_mesh_delivers_on_its_background_thread() {
    let _turn = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let base = free_base_port(2);
    let a = Mesh::start(ReplicaId(0), 2, "127.0.0.1", base).expect("mesh a");
    let b = Mesh::start(ReplicaId(1), 2, "127.0.0.1", base).expect("mesh b");
    #[cfg(target_os = "linux")]
    await_reactor_threads(&["reactor-0", "reactor-1"]);
    let ping = Message::Request(Transaction::kv_write(1, 1, 42, 7));
    a.send_replica(ReplicaId(1), ping.clone());
    match b.inbox.recv_timeout(Duration::from_secs(5)) {
        Ok(Inbound::FromReplica(from, msg)) => assert_eq!((from, msg), (ReplicaId(0), ping)),
        _ => panic!("expected the ping from replica 0"),
    }
    a.shutdown();
    b.shutdown();
    #[cfg(target_os = "linux")]
    assert_eq!(reactor_threads(), Vec::<String>::new(), "shutdown joins the thread");
}
