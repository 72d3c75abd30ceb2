//! `hs1-replica` — run one replica of a HotStuff-1 deployment over TCP.
//!
//! Usage: `hs1-replica <id> <n> [protocol] [base_port] [seconds]`
//! where protocol is a `ProtocolKind::token`: hs, hs2, hs1, basic or
//! slotted. Replica `i` listens on `base_port + i`. Any argument that
//! does not parse, and a port range past 65535, prints usage and exits 2.

#![warn(unreachable_pub)]

use std::time::Duration;

use hs1_core::{build_replica, Fault};
use hs1_ledger::ExecConfig;
use hs1_net::mesh::Mesh;
use hs1_net::node::NodeRunner;
use hs1_net::DEFAULT_BASE_PORT;
use hs1_obs::{Clock, Obs};
use hs1_types::{ProtocolKind, ReplicaId, SystemConfig};

/// `<id> <n> [protocol] [base_port] [seconds]`, or `None` unless every
/// argument parses, `n >= 4`, `id < n` and `base_port + n - 1 <= 65535`.
fn parse(args: &[String]) -> Option<(u32, usize, ProtocolKind, u16, u64)> {
    let [id, n, rest @ ..] = args else { return None };
    if rest.len() > 3 {
        return None;
    }
    let (id, n): (u32, usize) = (id.parse().ok()?, n.parse().ok()?);
    let protocol =
        rest.first().map_or(Some(ProtocolKind::HotStuff1), |s| ProtocolKind::from_token(s))?;
    let base_port = rest.get(1).map_or(Ok(DEFAULT_BASE_PORT), |s| s.parse()).ok()?;
    let seconds = rest.get(2).map_or(Ok(30), |s| s.parse()).ok()?;
    let ports_fit = base_port as usize + n.saturating_sub(1) <= u16::MAX as usize;
    (n >= 4 && (id as usize) < n && ports_fit).then_some((id, n, protocol, base_port, seconds))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((id, n, protocol, base_port, seconds)) = parse(&args) else {
        eprintln!("usage: hs1-replica <id> <n> [hs|hs2|hs1|basic|slotted] [base_port] [seconds]");
        std::process::exit(2);
    };

    let mut cfg = SystemConfig::new(n);
    cfg.view_timer = hs1_types::SimDuration::from_millis(200);
    cfg.delta = hs1_types::SimDuration::from_millis(20);
    cfg.batch_size = 64;
    let engine = build_replica(protocol, cfg, ReplicaId(id), Fault::Honest, ExecConfig::default());
    let mesh = Mesh::start(ReplicaId(id), n, "127.0.0.1", base_port).expect("bind");
    println!("replica {id}/{n} [{}] on port {}", protocol.name(), base_port + id as u16);
    let mut runner = NodeRunner::new(engine, mesh);
    // Wall-clock observer: the summary below shares the metrics schema
    // with the simulator's snapshots (byte-identical traces are only
    // promised under the sim's manual clock).
    let (obs, rec) = Obs::recording(Clock::wall());
    runner.set_observer(obs);
    runner.run_for(Duration::from_secs(seconds));
    println!("replica {id} done: {} blocks committed", runner.committed_blocks);
    print!("{}", rec.lock().expect("recorder").snapshot().to_table());
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_port_range_past_65535_is_rejected() {
        let parse =
            |line: &str| super::parse(&line.split(' ').map(String::from).collect::<Vec<_>>());
        assert!(parse("3 4 hs1 65534 1").is_none(), "replica 3 would wrap to port 1");
        assert!(parse("3 4 hs1 65532 1").is_some(), "replica 3 listens on 65535");
    }
}
