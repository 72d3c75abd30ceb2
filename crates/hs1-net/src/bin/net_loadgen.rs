//! Wall-clock transport load generator: drives a real 4-replica
//! consensus deployment on one localhost box with an open-loop client at
//! stepped offered rates and emits `bench_results/fig_net_knee.csv`;
//! the goodput rows show where the TCP path knees.
//!
//! ```text
//! cargo run --release -p hs1-net --bin net_loadgen -- [--out PATH]
//! ```

use std::io::Write as _;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use hs1_core::{build_replica, Fault};
use hs1_ledger::ExecConfig;
use hs1_net::client_driver::ClientDriver;
use hs1_net::mesh::Mesh;
use hs1_net::node::NodeRunner;
use hs1_obs::{Clock, Histogram, Obs};
use hs1_types::{ClientId, ProtocolKind, ReplicaId, SimDuration, SystemConfig};

/// Offered rates (tx/s).
const CLUSTER_RATES: [u64; 3] = [2_000, 8_000, 24_000];

/// Reserve a contiguous run of `n` free loopback ports (same idiom as
/// tests/tcp_smoke.rs).
fn free_base_port(n: u16) -> u16 {
    for _ in 0..32 {
        let probe = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let base = probe.local_addr().expect("addr").port();
        drop(probe);
        if base.checked_add(n).is_none() {
            continue;
        }
        let all_free = (0..n).all(|i| TcpListener::bind(("127.0.0.1", base + i)).map(drop).is_ok());
        if all_free {
            return base;
        }
    }
    panic!("could not find {n} contiguous free loopback ports");
}

/// Send-stall summary for one rate: sample count plus p50/p99 of the
/// `net_send_stall_ns` histogram the reactor records when a partial
/// write leaves a peer's flush blocked on `POLLOUT`.
#[derive(Clone, Copy)]
struct StallSummary {
    count: u64,
    p50_ns: u64,
    p99_ns: u64,
}

fn stall_summary(h: &Histogram) -> StallSummary {
    StallSummary { count: h.count(), p50_ns: h.quantile(0.5), p99_ns: h.quantile(0.99) }
}

struct ClusterRow {
    offered: u64,
    submitted: u64,
    finalized: u64,
    goodput: f64,
    tx_frames: u64,
    write_calls: u64,
    shed: u64,
    stalls: StallSummary,
}

/// One 4-replica consensus run with an open-loop client at `rate` tx/s.
fn cluster_run(rate: u64) -> ClusterRow {
    let n = 4usize;
    let base_port = free_base_port(n as u16);
    let protocol = ProtocolKind::HotStuff1;
    let run_for = Duration::from_millis(1500);
    let mut sys = SystemConfig::new(n);
    sys.view_timer = SimDuration::from_millis(100);
    sys.delta = SimDuration::from_millis(10);
    sys.batch_size = 64;

    let stats = Arc::new(std::sync::Mutex::new((0u64, 0u64, 0u64, Histogram::default())));
    let mut replicas = Vec::new();
    for id in 0..n as u32 {
        let sys = sys.clone();
        let stats = stats.clone();
        replicas.push(std::thread::spawn(move || {
            let engine =
                build_replica(protocol, sys, ReplicaId(id), Fault::Honest, ExecConfig::default());
            let mesh = Mesh::start(ReplicaId(id), n, "127.0.0.1", base_port).expect("bind replica");
            let mut runner = NodeRunner::new(engine, mesh);
            let (obs, rec) = Obs::recording(Clock::wall());
            runner.set_observer(obs);
            runner.run_for(run_for);
            let s = runner.net_stats();
            runner.shutdown();
            let rec = rec.lock().unwrap();
            let mut agg = stats.lock().unwrap();
            agg.0 += s.tx_frames;
            agg.1 += s.write_calls;
            agg.2 += s.frames_shed;
            if let Some(h) = rec.histogram(id, "net_send_stall_ns") {
                agg.3.merge(h);
            }
        }));
    }

    std::thread::sleep(Duration::from_millis(150));
    let f = SystemConfig::new(n).f();
    let mut client = ClientDriver::connect(ClientId(0), n, "127.0.0.1", base_port, protocol, f)
        .expect("connect client");
    let window = Duration::from_millis(1000);
    let report = client.run_open_loop(window, rate, Duration::from_millis(200)).expect("open loop");
    drop(client);
    for r in replicas {
        let _ = r.join();
    }
    let agg = stats.lock().unwrap();
    let (tx_frames, write_calls, shed) = (agg.0, agg.1, agg.2);
    let stalls = stall_summary(&agg.3);
    ClusterRow {
        offered: rate,
        submitted: report.submitted,
        finalized: report.finalized,
        goodput: report.finalized as f64 / window.as_secs_f64(),
        tx_frames,
        write_calls,
        shed,
        stalls,
    }
}

fn main() {
    let mut out_path = String::from("bench_results/fig_net_knee.csv");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown arg {other}");
                std::process::exit(2);
            }
        }
    }

    let mut csv = String::from(
        "leg,backend,offered,delivered,elapsed_ms,fps,goodput_tps,tx_frames,write_calls,frames_per_call,shed\n",
    );

    eprintln!("4 replicas, open-loop client, rates {CLUSTER_RATES:?}");
    let mut rows = Vec::new();
    for rate in CLUSTER_RATES {
        let row = cluster_run(rate);
        eprintln!(
            "  offered {rate}/s: submitted {}, finalized {}, goodput {:.0}/s",
            row.submitted, row.finalized, row.goodput
        );
        let fpc = row.tx_frames as f64 / row.write_calls.max(1) as f64;
        csv.push_str(&format!(
            "cluster,reactor,{},{},,,{:.0},{},{},{:.2},{}\n",
            row.offered, row.finalized, row.goodput, row.tx_frames, row.write_calls, fpc, row.shed
        ));
        rows.push(row);
    }

    // Backpressure summary: send-stall latency and frames shed by the
    // bounded-queue policy.
    let ms = |ns: u64| ns as f64 / 1e6;
    eprintln!("send-stall / shed per rate (net_send_stall_ns):");
    eprintln!("  {:<16} {:>8} {:>12} {:>12} {:>8}", "offered", "stalls", "p50", "p99", "shed");
    for row in &rows {
        let s = row.stalls;
        eprintln!(
            "  {:<16} {:>8} {:>9.3}ms {:>9.3}ms {:>8}",
            row.offered,
            s.count,
            ms(s.p50_ns),
            ms(s.p99_ns),
            row.shed
        );
    }

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut file = std::fs::File::create(&out_path).expect("create csv");
    file.write_all(csv.as_bytes()).expect("write csv");
    eprintln!("wrote {out_path}");
}
