//! A TCP client driver: broadcasts requests to every replica and
//! applies the paper's finality rules to the streamed responses.
//!
//! The driver is a client [`Mesh`] plus a [`FinalityTracker`]. The mesh
//! listens on nothing: it dials each replica when it has a request for
//! it and reads the responses on the connection it dialed. A replica
//! that restarts, or was down at startup, is redialed with the jittered
//! backoff replicas use among themselves, and requests queued for it
//! meanwhile go out on the new connection. Without this, every restart
//! would cost the client for good one of the ≤ f connections its
//! quorums can tolerate losing. No thread is spawned: the loops below
//! move the mesh's bytes through the calls they make on it.
//!
//! Two drive modes: [`ClientDriver::run_closed_loop`] (one outstanding
//! request, resubmitted on finality — the latency probe) and
//! [`ClientDriver::run_open_loop`] (submissions paced at an offered
//! rate regardless of completions — the saturation probe).

use std::time::{Duration, Instant};

use crate::mesh::{Inbound, Mesh};
use hs1_core::client::FinalityTracker;
use hs1_types::{ClientId, Message, ProtocolKind, Transaction, TxId, TxOp};

/// Latency sample: (tx, microseconds to finality).
pub(crate) type Sample = (TxId, u64);

/// Counters from an open-loop run.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpenLoopReport {
    pub submitted: u64,
    pub finalized: u64,
    /// Redials of a replica link that had been connected before.
    pub reconnects: u64,
}

/// Drives one client id against a local cluster.
pub struct ClientDriver {
    id: ClientId,
    mesh: Mesh,
    tracker: FinalityTracker,
}

impl ClientDriver {
    /// Build the client's mesh for the `n` replicas at
    /// `host:base_port + i`. Nothing is dialed yet: each replica is
    /// dialed with the first request, and one that is unreachable (down,
    /// or not yet started) is redialed as the session runs — finality
    /// quorums are collected from the live majority meanwhile, the same
    /// tolerance a BFT client needs at submission time anyway.
    /// `InvalidInput` if `base_port + n - 1` would pass 65535.
    pub fn connect(
        id: ClientId,
        n: usize,
        host: &str,
        base_port: u16,
        protocol: ProtocolKind,
        f: usize,
    ) -> std::io::Result<ClientDriver> {
        let mesh = Mesh::client(id, n, host, base_port)?;
        Ok(ClientDriver { id, mesh, tracker: FinalityTracker::new(n, f, protocol) })
    }

    /// Broadcast one request. A replica whose link is down gets it when
    /// the link redials; quorums only need the live majority.
    fn submit(&self, seq: u64) -> TxId {
        let tx = Transaction::new(
            TxId::new(self.id, seq),
            TxOp::KvWrite { key: seq * 31 + self.id.0 as u64, seed: seq },
        );
        let id = tx.id;
        self.mesh.broadcast(Message::Request(tx));
        id
    }

    /// Count one inbound frame toward finality: the transaction it made
    /// final, if any.
    fn finalizes(&mut self, inbound: Inbound) -> Option<TxId> {
        match inbound {
            Inbound::FromReplica(from, Message::Response(resp)) => {
                self.tracker.on_response(from, &resp).map(|(tx, _)| tx)
            }
            _ => None,
        }
    }

    /// Run a closed loop for `duration`; returns finality latency samples.
    pub fn run_closed_loop(&mut self, duration: Duration) -> std::io::Result<Vec<Sample>> {
        let deadline = Instant::now() + duration;
        let mut samples = Vec::new();
        let mut seq = 0u64;
        let mut current = self.submit(seq);
        let mut submitted_at = Instant::now();
        // A request can stall (see the resend below); resubmit it
        // periodically rather than wedging the loop.
        let mut last_activity = Instant::now();
        while Instant::now() < deadline {
            if let Ok(inbound) = self.mesh.inbox.recv_timeout(Duration::from_millis(20)) {
                if self.finalizes(inbound) == Some(current) {
                    samples.push((current, submitted_at.elapsed().as_micros() as u64));
                    seq += 1;
                    current = self.submit(seq);
                    submitted_at = Instant::now();
                    last_activity = Instant::now();
                }
            } else if last_activity.elapsed() > Duration::from_millis(500) {
                // Mempools dedup by TxId, so re-broadcasting the same
                // transaction is safe. It is also useful: it reaches a
                // replica that lost the first copy, written into a
                // connection that was dying or refused at a full pool.
                // A request whose block was orphaned needs no resend —
                // every replica that stored the block has put it back in
                // its pool — and the resend is dropped as a duplicate.
                let _ = self.submit(seq);
                last_activity = Instant::now();
            }
        }
        Ok(samples)
    }

    /// Submit at a paced offered rate for `duration` regardless of
    /// completions, then drain responses until every request is final or
    /// `drain` has passed. This is the saturation probe:
    /// `finalized / duration` is goodput.
    pub fn run_open_loop(
        &mut self,
        duration: Duration,
        rate_per_sec: u64,
        drain: Duration,
    ) -> std::io::Result<OpenLoopReport> {
        let start = Instant::now();
        let deadline = start + duration;
        let interval = Duration::from_nanos(1_000_000_000 / rate_per_sec.max(1));
        // Total arrivals the schedule owes over `duration`: a loop that
        // falls behind catches up to it, never past it.
        let target = (duration.as_secs_f64() * rate_per_sec as f64).round() as u64;
        let mut report = OpenLoopReport::default();
        let mut finalized = 0u64;
        while Instant::now() < deadline {
            // Submit everything the pacing schedule owes us.
            while report.submitted < target
                && start + interval * report.submitted as u32 <= Instant::now()
            {
                self.submit(report.submitted);
                report.submitted += 1;
            }
            while let Some(inbound) = self.mesh.inbox.try_recv() {
                if self.finalizes(inbound).is_some() {
                    finalized += 1;
                }
            }
            let next = start + interval * report.submitted as u32;
            if let Some(wait) = next.checked_duration_since(Instant::now()) {
                if let Ok(inbound) = self.mesh.inbox.recv_timeout(wait.min(interval)) {
                    if self.finalizes(inbound).is_some() {
                        finalized += 1;
                    }
                }
            }
        }
        // A silent spell does not end the drain: a dead leader's view is a
        // view timer of silence before the next block answers.
        let drain_deadline = Instant::now() + drain;
        while finalized < report.submitted {
            let Some(left) = drain_deadline.checked_duration_since(Instant::now()) else { break };
            if let Ok(inbound) = self.mesh.inbox.recv_timeout(left) {
                if self.finalizes(inbound).is_some() {
                    finalized += 1;
                }
            }
        }
        report.finalized = finalized;
        report.reconnects = self.mesh.reactor().stats.reconnects;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replica ports past 65535 are refused.
    #[test]
    fn a_port_range_past_65535_is_invalid_input() {
        let hs1 = ProtocolKind::HotStuff1;
        let Err(e) = ClientDriver::connect(ClientId(0), 4, "127.0.0.1", 65534, hs1, 1) else {
            panic!("ports 65534..=65537 were accepted");
        };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
    }
}
