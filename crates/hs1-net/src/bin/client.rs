//! `hs1-client` — closed-loop client against a local HotStuff-1 cluster.
//!
//! Usage: `hs1-client <n> [protocol] [base_port] [seconds]`, with the
//! protocol tokens of `hs1-replica`. Any argument that does not parse
//! prints usage and exits 2.

use std::time::Duration;

use hs1_net::client_driver::ClientDriver;
use hs1_net::DEFAULT_BASE_PORT;
use hs1_obs::{Clock, Obs};
use hs1_types::{ClientId, ProtocolKind, SystemConfig};

/// `<n> [protocol] [base_port] [seconds]`, or `None` unless every
/// argument parses and `n >= 4`.
fn parse(args: &[String]) -> Option<(usize, ProtocolKind, u16, u64)> {
    let [n, rest @ ..] = args else { return None };
    if rest.len() > 3 {
        return None;
    }
    let n: usize = n.parse().ok()?;
    let protocol =
        rest.first().map_or(Some(ProtocolKind::HotStuff1), |s| ProtocolKind::from_token(s))?;
    let base_port = rest.get(1).map_or(Ok(DEFAULT_BASE_PORT), |s| s.parse()).ok()?;
    let seconds = rest.get(2).map_or(Ok(10), |s| s.parse()).ok()?;
    (n >= 4).then_some((n, protocol, base_port, seconds))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((n, protocol, base_port, seconds)) = parse(&args) else {
        eprintln!("usage: hs1-client <n> [hs|hs2|hs1|basic|slotted] [base_port] [seconds]");
        std::process::exit(2);
    };

    let f = SystemConfig::new(n).f();
    let mut driver = ClientDriver::connect(ClientId(0), n, "127.0.0.1", base_port, protocol, f)
        .expect("connect to cluster");
    let samples = driver.run_closed_loop(Duration::from_secs(seconds)).expect("run");
    if samples.is_empty() {
        println!("no transactions finalized");
        return;
    }
    let mean_us: u64 = samples.iter().map(|(_, us)| us).sum::<u64>() / samples.len() as u64;
    println!(
        "{} transactions finalized, mean latency {:.2} ms",
        samples.len(),
        mean_us as f64 / 1000.0
    );
    // Re-route the per-sample data through the shared metrics snapshot
    // formatter so the TCP summary uses the same schema as sim reports.
    let (obs, rec) = Obs::recording(Clock::wall());
    obs.counter("txs_finalized", 0, samples.len() as u64);
    for (_, us) in &samples {
        obs.observe_nanos("client_e2e_ns", us * 1000);
    }
    print!("{}", rec.lock().expect("recorder").snapshot().to_table());
}
