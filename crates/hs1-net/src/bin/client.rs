//! `hs1-client` — closed-loop client against a local HotStuff-1 cluster.
//!
//! Usage: `hs1-client <n> [protocol] [base_port] [seconds]`, with the
//! protocol tokens of `hs1-replica`. Any argument that does not parse,
//! and a port range past 65535, prints usage and exits 2. A run in which
//! no transaction finalized (no cluster up, or too few replicas live)
//! exits 1.

use std::time::Duration;

use hs1_net::client_driver::ClientDriver;
use hs1_net::DEFAULT_BASE_PORT;
use hs1_obs::{Clock, Obs};
use hs1_types::{ClientId, ProtocolKind, SystemConfig};

/// `<n> [protocol] [base_port] [seconds]`, or `None` unless every
/// argument parses, `n >= 4` and `base_port + n - 1 <= 65535`.
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
    let ports_fit = base_port as usize + n.saturating_sub(1) <= u16::MAX as usize;
    (n >= 4 && ports_fit).then_some((n, protocol, base_port, seconds))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((n, protocol, base_port, seconds)) = parse(&args) else {
        eprintln!("usage: hs1-client <n> [hs|hs2|hs1|basic|slotted] [base_port] [seconds]");
        std::process::exit(2);
    };

    let f = SystemConfig::new(n).f();
    let mut driver = ClientDriver::connect(ClientId(0), n, "127.0.0.1", base_port, protocol, f)
        .expect("client mesh");
    let samples = driver.run_closed_loop(Duration::from_secs(seconds)).expect("run");
    if samples.is_empty() {
        eprintln!("no transactions finalized");
        std::process::exit(1);
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

#[cfg(test)]
mod tests {
    #[test]
    fn a_port_range_past_65535_is_rejected() {
        let parse =
            |line: &str| super::parse(&line.split(' ').map(String::from).collect::<Vec<_>>());
        assert!(parse("4 hs1 65534").is_none(), "replica 3 would wrap to port 1");
        assert!(parse("4 hs1 65532").is_some(), "replica 3 listens on 65535");
    }
}
