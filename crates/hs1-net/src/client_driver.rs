//! A TCP client driver: broadcasts requests to every replica and
//! applies the paper's finality rules to the streamed responses.
//!
//! Connections are *links*, not sockets: when a replica restarts (or
//! was down at startup), its link redials with jittered exponential
//! backoff on the next submission instead of staying dead for the rest
//! of the session — without this, every restart permanently cost the
//! client one of the ≤ f connections its quorums can tolerate losing.
//!
//! Two drive modes: [`ClientDriver::run_closed_loop`] (one outstanding
//! request, resubmitted on finality — the latency probe) and
//! [`ClientDriver::run_open_loop`] (submissions paced at an offered
//! rate regardless of completions — the saturation probe).

use std::io::{Error, ErrorKind};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use crate::framing::{self, PeerKind};
use crate::reactor::jittered;
use hs1_core::client::FinalityTracker;
use hs1_types::message::ResponseMsg;
use hs1_types::{ClientId, Message, ProtocolKind, ReplicaId, SplitMix64, Transaction, TxId, TxOp};

/// Latency sample: (tx, microseconds to finality).
pub type Sample = (TxId, u64);

/// First redial delay; doubles (with jitter) up to [`RECONNECT_MAX`].
const RECONNECT_BASE: Duration = Duration::from_millis(50);
const RECONNECT_MAX: Duration = Duration::from_secs(2);

/// One replica connection with its redial state.
struct Link {
    replica: ReplicaId,
    port: u16,
    stream: Option<TcpStream>,
    /// Next delay to wait after a failure (exponential).
    delay: Duration,
    /// Earliest time another dial attempt is allowed.
    next_attempt: Instant,
}

/// Counters from an open-loop run.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpenLoopReport {
    pub submitted: u64,
    pub finalized: u64,
    /// Reconnect dials that succeeded after a link died.
    pub reconnects: u64,
}

/// Drives one client id against a local cluster.
pub struct ClientDriver {
    id: ClientId,
    host: String,
    links: Vec<Link>,
    responses: Receiver<(ReplicaId, ResponseMsg)>,
    response_tx: Sender<(ReplicaId, ResponseMsg)>,
    tracker: FinalityTracker,
    /// Backoff jitter.
    rng: SplitMix64,
    pub reconnects: u64,
}

impl ClientDriver {
    /// Connect to the `n` replicas at `host:base_port + i`. Up to `f`
    /// replicas may be unreachable (down, or not yet started): their
    /// links start in backoff and are redialed as the session runs —
    /// finality quorums are collected from the live majority meanwhile,
    /// the same tolerance a BFT client needs at submission time anyway.
    /// `InvalidInput` if `base_port + n - 1` would pass 65535.
    pub fn connect(
        id: ClientId,
        n: usize,
        host: &str,
        base_port: u16,
        protocol: ProtocolKind,
        f: usize,
    ) -> std::io::Result<ClientDriver> {
        if base_port as usize + n.saturating_sub(1) > u16::MAX as usize {
            let msg = format!("{n} replica ports from {base_port} pass 65535");
            return Err(Error::new(ErrorKind::InvalidInput, msg));
        }
        let (tx, rx) = channel();
        let mut driver = ClientDriver {
            id,
            host: host.to_string(),
            links: (0..n)
                .map(|r| Link {
                    replica: ReplicaId(r as u32),
                    port: base_port + r as u16,
                    stream: None,
                    delay: RECONNECT_BASE,
                    next_attempt: Instant::now(),
                })
                .collect(),
            responses: rx,
            response_tx: tx,
            tracker: FinalityTracker::new(n, f, protocol),
            rng: SplitMix64::new(0xC11E_17D0 ^ ((id.0 as u64) << 20 | base_port as u64)),
            reconnects: 0,
        };
        let mut unreachable = 0usize;
        let mut last_err = None;
        for i in 0..n {
            if let Err(e) = driver.dial(i) {
                unreachable += 1;
                last_err = Some(e);
            }
        }
        if unreachable > f {
            return Err(last_err.expect("unreachable > f implies an error"));
        }
        Ok(driver)
    }

    /// Put link `i` in backoff after a failure: no dial before its delay
    /// (jittered) has passed, and the next delay twice as long.
    fn back_off(&mut self, i: usize) {
        let link = &mut self.links[i];
        link.next_attempt = Instant::now() + jittered(link.delay, &mut self.rng);
        link.delay = (link.delay * 2).min(RECONNECT_MAX);
    }

    /// Dial link `i`: connect, identify, spawn the reader thread for the
    /// response stream. On failure the link's backoff state advances.
    fn dial(&mut self, i: usize) -> std::io::Result<()> {
        let (host, port, replica) = (self.host.clone(), self.links[i].port, self.links[i].replica);
        let attempt = (|| {
            let mut stream = TcpStream::connect((host.as_str(), port))?;
            stream.set_nodelay(true)?;
            framing::send_hello(&mut stream, PeerKind::Client(self.id.0))?;
            Ok::<TcpStream, std::io::Error>(stream)
        })();
        match attempt {
            Ok(stream) => {
                let mut read_half = stream.try_clone()?;
                let tx = self.response_tx.clone();
                std::thread::Builder::new()
                    .name(format!("client-{}-r{}", self.id.0, replica.0))
                    .spawn(move || {
                        while let Ok(msg) = framing::read_msg(&mut read_half) {
                            if let Message::Response(resp) = msg {
                                if tx.send((replica, resp)).is_err() {
                                    break;
                                }
                            }
                        }
                    })?;
                let link = &mut self.links[i];
                link.stream = Some(stream);
                link.delay = RECONNECT_BASE;
                Ok(())
            }
            Err(e) => {
                self.back_off(i);
                Err(e)
            }
        }
    }

    /// Broadcast one request, redialing any dead link whose backoff has
    /// expired. Per-link write failures kill that link (it re-enters
    /// backoff); quorums only need the live majority.
    fn submit(&mut self, seq: u64) -> TxId {
        let tx = Transaction::new(
            TxId::new(self.id, seq),
            TxOp::KvWrite { key: seq * 31 + self.id.0 as u64, seed: seq },
        );
        let msg = Message::Request(tx);
        let now = Instant::now();
        for i in 0..self.links.len() {
            if self.links[i].stream.is_none()
                && now >= self.links[i].next_attempt
                && self.dial(i).is_ok()
            {
                self.reconnects += 1;
            }
            if let Some(stream) = &mut self.links[i].stream {
                if framing::write_msg(stream, &msg).is_err() {
                    // The replica went away mid-session: sever and let
                    // the backoff path bring the link back later.
                    self.links[i].stream = None;
                    self.back_off(i);
                }
            }
        }
        tx.id
    }

    /// Run a closed loop for `duration`; returns finality latency samples.
    pub fn run_closed_loop(&mut self, duration: Duration) -> std::io::Result<Vec<Sample>> {
        let deadline = Instant::now() + duration;
        let mut samples = Vec::new();
        let mut seq = 0u64;
        let mut current = self.submit(seq);
        let mut submitted_at = Instant::now();
        // A request submitted while < quorum replicas were reachable can
        // stall; resubmit it periodically rather than wedging the loop.
        let mut last_activity = Instant::now();
        while Instant::now() < deadline {
            if let Ok((from, resp)) = self.responses.recv_timeout(Duration::from_millis(20)) {
                if self.tracker.on_response(from, &resp).is_some() && resp.tx == current {
                    samples.push((current, submitted_at.elapsed().as_micros() as u64));
                    seq += 1;
                    current = self.submit(seq);
                    submitted_at = Instant::now();
                    last_activity = Instant::now();
                }
            } else if last_activity.elapsed() > Duration::from_millis(500) {
                // Mempools dedup by TxId, so re-broadcasting the same
                // transaction (now that links may have recovered) is safe.
                // It is also useful: it reaches a replica that was down,
                // or refused the request at a full pool, the first time.
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
        // Total arrivals the schedule can ever owe: a submit() that
        // blocks on a saturated socket must not turn into a catch-up
        // burst beyond the offered rate once it returns.
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
            while let Ok((from, resp)) = self.responses.try_recv() {
                if self.tracker.on_response(from, &resp).is_some() {
                    finalized += 1;
                }
            }
            if report.submitted % 4096 == 0 {
                self.tracker.gc();
            }
            let next = start + interval * report.submitted as u32;
            if let Some(wait) = next.checked_duration_since(Instant::now()) {
                if let Ok((from, resp)) = self.responses.recv_timeout(wait.min(interval)) {
                    if self.tracker.on_response(from, &resp).is_some() {
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
            if let Ok((from, resp)) = self.responses.recv_timeout(left) {
                if self.tracker.on_response(from, &resp).is_some() {
                    finalized += 1;
                }
            }
        }
        report.finalized = finalized;
        report.reconnects = self.reconnects;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replica ports past 65535 are refused before anything is dialed.
    #[test]
    fn a_port_range_past_65535_is_invalid_input() {
        let hs1 = ProtocolKind::HotStuff1;
        let Err(e) = ClientDriver::connect(ClientId(0), 4, "127.0.0.1", 65534, hs1, 1) else {
            panic!("ports 65534..=65537 were accepted");
        };
        assert_eq!(e.kind(), ErrorKind::InvalidInput);
    }
}
