//! The ownership model of the transport, seen from outside the crate: no
//! mesh has a thread of its own. A running replica is one thread, and a
//! bare `Mesh`, a client's among them, moves its bytes on the thread that
//! calls it.

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

/// Reserve `n` contiguous free loopback ports and return the base: from
/// one cursor per process below the kernel's ephemeral range (which the
/// client's dials draw their local ports from), starting at an offset
/// taken from the process id. A run holding a port somebody else has
/// bound is skipped.
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

/// Names of this process's `reactor-*` and `client-*` threads: no mesh
/// has a thread of its own, so there must never be one.
fn mesh_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("reactor-") || comm.starts_with("client-"))
        .collect()
}

#[test]
fn a_running_replica_is_one_thread_and_commits_at_once() {
    let n = 4usize;
    let base = free_base_port(n as u16);
    let run = Duration::from_millis(600);
    // Every listener is up before anyone dials.
    let meshes: Vec<Mesh> = (0..n as u32)
        .map(|id| Mesh::start(ReplicaId(id), n, "127.0.0.1", base).expect("bind"))
        .collect();
    assert_eq!(mesh_threads(), Vec::<String>::new(), "a mesh starts no thread");
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
    assert_eq!(mesh_threads(), Vec::<String>::new(), "a running client has no thread either");
    drop(client);
    assert_eq!(mesh_threads(), Vec::<String>::new(), "nor does one dropped, nor a running replica");

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

/// The contract `bench/src/lab.rs` and the tests rely on: with no node
/// running it, a mesh moves bytes on the threads that call it — the
/// sender's turn writes the frame, the receiver's wait reads it.
#[test]
fn a_bare_mesh_delivers_on_the_callers_thread() {
    let base = free_base_port(2);
    let a = Mesh::start(ReplicaId(0), 2, "127.0.0.1", base).expect("mesh a");
    let b = Mesh::start(ReplicaId(1), 2, "127.0.0.1", base).expect("mesh b");
    let ping = Message::Request(Transaction::kv_write(1, 1, 42, 7));
    a.send_replica(ReplicaId(1), ping.clone());
    match b.inbox.recv_timeout(Duration::from_secs(5)) {
        Ok(Inbound::FromReplica(from, msg)) => assert_eq!((from, msg), (ReplicaId(0), ping)),
        _ => panic!("expected the ping from replica 0"),
    }
    assert_eq!(mesh_threads(), Vec::<String>::new(), "a bare mesh has no thread either");
    a.shutdown();
    b.shutdown();
}
