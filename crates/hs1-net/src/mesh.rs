//! The peer mesh: connections between replicas and to clients behind
//! one small API (`send_replica` / `broadcast` / `send_client` /
//! `inbox`), over the readiness-driven transport of the private
//! `reactor` module: every socket nonblocking, per-peer bounded
//! `crate::framing::FrameQueue`s drained with writev coalescing,
//! oldest-first shedding under backpressure, and jittered exponential
//! redial of dead peers.
//!
//! Sending never blocks the caller on the network: a frame is encoded
//! once and pushed into a bounded queue, and a slow peer's oldest frames
//! are shed instead of waited for.
//!
//! A replica's mesh ([`Mesh::start`]) listens on its port and dials its
//! peers; a client's (`Mesh::client`) listens on nothing, dials every
//! replica, and reads the responses on the connections it dialed.
//!
//! The mesh has no thread of its own; the thread that calls it moves its
//! bytes. A [`crate::node::NodeRunner`] takes the reactor for the length
//! of `run_for` and turns it on its own loop, so a running replica is one
//! thread. Any other holder — a client, tests, the benchmark's layer
//! lab — turns it through
//! the calls it makes: a send takes one turn that does not wait, and
//! [`Inbox::recv_timeout`] takes turns until a frame arrives. Frames read
//! on those turns, and every self-addressed send, wait in [`Mesh::inbox`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::framing::{encode_frame, PeerKind};
use crate::reactor::{self, Reactor};
use hs1_obs::Obs;
use hs1_types::{ClientId, Message, ReplicaId};

/// Inbound event delivered to the node loop.
pub enum Inbound {
    FromReplica(ReplicaId, Message),
    FromClient(ClientId, Message),
}

/// The transport a mesh runs on. There is one; the type remains because
/// [`MeshConfig::backend`] is part of the configuration callers spell out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// Readiness-driven event loop (nonblocking sockets + `epoll(7)`,
    /// writev coalescing, bounded queues, reconnect).
    Reactor,
}

/// Transport tuning. [`MeshConfig::default`] is what every production
/// entry point ([`Mesh::start`]) uses; tests shrink the queue caps and
/// send buffer to make backpressure observable quickly.
#[derive(Clone, Debug)]
pub struct MeshConfig {
    /// Inert: every mesh runs on [`Backend::Reactor`].
    pub backend: Backend,
    /// Per-peer outbound queue cap in frames; beyond it the oldest
    /// unsent frames are shed.
    pub queue_frames: usize,
    /// Per-peer outbound queue cap in bytes.
    pub queue_bytes: usize,
    /// First reconnect delay after a peer connection dies; doubles per
    /// failed attempt (with ±50% jitter) up to `reconnect_max`.
    pub reconnect_base: Duration,
    pub reconnect_max: Duration,
    /// Bound on one dial attempt (loopback dials resolve instantly;
    /// this caps the stall a blackholed peer could cause the thread
    /// turning the reactor — for a running node, the engine's).
    pub connect_timeout: Duration,
    /// Listen on this port instead of `base_port + me` (lets tests
    /// interpose a proxy at the advertised port).
    pub listen_port: Option<u16>,
    /// Shrink `SO_SNDBUF` on dialed peer connections so kernel-buffer
    /// backpressure reaches the bounded queues quickly (tests only;
    /// `None` keeps the OS default).
    pub send_buffer: Option<usize>,
    /// How often the reactor publishes queue gauges / counter deltas to
    /// the attached observer.
    pub metrics_interval: Duration,
}

impl Default for MeshConfig {
    fn default() -> MeshConfig {
        MeshConfig {
            backend: Backend::Reactor,
            queue_frames: 8192,
            queue_bytes: 16 << 20,
            reconnect_base: Duration::from_millis(50),
            reconnect_max: Duration::from_secs(2),
            connect_timeout: Duration::from_millis(250),
            listen_port: None,
            send_buffer: None,
            metrics_interval: Duration::from_millis(100),
        }
    }
}

/// Transport counters, kept by the send paths and the reactor.
/// Exposed raw for harnesses ([`Mesh::stats`]) and
/// mirrored into `hs1-obs` counters by the reactor's metrics tick.
#[derive(Default)]
pub(crate) struct NetStats {
    /// Frames fully handed to the kernel.
    pub tx_frames: AtomicU64,
    pub tx_bytes: AtomicU64,
    /// `writev` calls issued (the coalescing ratio is
    /// `tx_frames / write_calls`).
    pub write_calls: AtomicU64,
    pub rx_frames: AtomicU64,
    pub rx_bytes: AtomicU64,
    pub read_calls: AtomicU64,
    /// Frames shed oldest-first by the bounded-queue backpressure
    /// policy (slow or disconnected peers).
    pub frames_shed: AtomicU64,
    /// Successful re-dials of a peer that had been connected before.
    pub reconnects: AtomicU64,
}

/// Point-in-time copy of `NetStats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStatsSnapshot {
    pub tx_frames: u64,
    pub tx_bytes: u64,
    pub write_calls: u64,
    pub rx_frames: u64,
    pub rx_bytes: u64,
    pub read_calls: u64,
    pub frames_shed: u64,
    pub reconnects: u64,
}

impl NetStats {
    pub(crate) fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            tx_frames: self.tx_frames.load(Ordering::Relaxed),
            tx_bytes: self.tx_bytes.load(Ordering::Relaxed),
            write_calls: self.write_calls.load(Ordering::Relaxed),
            rx_frames: self.rx_frames.load(Ordering::Relaxed),
            rx_bytes: self.rx_bytes.load(Ordering::Relaxed),
            read_calls: self.read_calls.load(Ordering::Relaxed),
            frames_shed: self.frames_shed.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
        }
    }
}

/// What has arrived at a mesh and not been taken yet: frames read on a
/// turn no node took, and self-addressed sends, in order. While no node
/// has adopted the reactor it lives here, so that waiting for a frame is
/// what turns it.
pub struct Inbox {
    /// `None` while a node runs the mesh, and after shutdown.
    reactor: Mutex<Option<Reactor>>,
    ready: Mutex<VecDeque<Inbound>>,
}

impl Inbox {
    /// Take the next frame, turning the reactor on this thread until one
    /// arrives or `timeout` has passed. `Disconnected` once the mesh is
    /// shut down and nothing is left.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Inbound, RecvTimeoutError> {
        let start = Instant::now();
        loop {
            if let Some(inbound) = self.try_recv() {
                return Ok(inbound);
            }
            let left = timeout.saturating_sub(start.elapsed());
            if !self.turn(left) {
                return Err(RecvTimeoutError::Disconnected);
            }
            if left.is_zero() {
                return self.try_recv().ok_or(RecvTimeoutError::Timeout);
            }
        }
    }

    /// The next frame already here; turns nothing.
    pub(crate) fn try_recv(&self) -> Option<Inbound> {
        self.ready.lock().expect("inbox lock").pop_front()
    }

    fn push(&self, inbound: Inbound) {
        self.ready.lock().expect("inbox lock").push_back(inbound);
    }

    /// One turn of the reactor, waiting at most `wait`; `false` if a node
    /// has it or the mesh is shut down.
    fn turn(&self, wait: Duration) -> bool {
        let mut reactor = self.reactor.lock().expect("reactor lock");
        let Some(reactor) = reactor.as_mut() else { return false };
        reactor.turn(wait, &mut |inbound| self.push(inbound));
        true
    }
}

/// The mesh of a single replica or client process.
pub struct Mesh {
    me: PeerKind,
    n: usize,
    shared: Arc<reactor::Shared>,
    pub inbox: Inbox,
}

impl Mesh {
    /// Bind the listener for `me` and start the transport.
    pub fn start(me: ReplicaId, n: usize, host: &str, base_port: u16) -> std::io::Result<Mesh> {
        Mesh::start_with(me, n, host, base_port, MeshConfig::default())
    }

    /// Bind and start with explicit transport tuning. Replica `i` listens
    /// on `base_port + i`: `InvalidInput` if `me` is not below `n` or
    /// `base_port + n - 1` would pass 65535.
    pub fn start_with(
        me: ReplicaId,
        n: usize,
        host: &str,
        base_port: u16,
        cfg: MeshConfig,
    ) -> std::io::Result<Mesh> {
        if me.0 as usize >= n {
            let msg = format!("replica {} of {n}", me.0);
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg));
        }
        Mesh::open(PeerKind::Replica(me.0), n, host, base_port, cfg)
    }

    /// The mesh of client `id`: it binds no listener, and every replica
    /// `0..n` at `base_port + i` is a peer it dials when it has traffic
    /// for it. A replica answers on the connection the client dialed, so
    /// responses arrive as [`Inbound::FromReplica`]. `InvalidInput` if
    /// `base_port + n - 1` would pass 65535.
    pub(crate) fn client(
        id: ClientId,
        n: usize,
        host: &str,
        base_port: u16,
    ) -> std::io::Result<Mesh> {
        Mesh::open(PeerKind::Client(id.0), n, host, base_port, MeshConfig::default())
    }

    fn open(
        me: PeerKind,
        n: usize,
        host: &str,
        base_port: u16,
        cfg: MeshConfig,
    ) -> std::io::Result<Mesh> {
        if base_port as usize + n.saturating_sub(1) > u16::MAX as usize {
            let msg = format!("{n} replica ports from {base_port} pass 65535");
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg));
        }
        let (shared, reactor) = reactor::start(me, n, host, base_port, cfg)?;
        let inbox = Inbox { reactor: Mutex::new(Some(reactor)), ready: Mutex::default() };
        Ok(Mesh { me, n, shared, inbox })
    }

    /// Transport counters (live; see [`NetStats`]).
    pub(crate) fn stats(&self) -> NetStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Live per-peer outbound queue depths, `(peer, frames, bytes)` —
    /// the instantaneous values behind the `net_out_queue_*` gauges.
    pub(crate) fn queue_depths(&self) -> Vec<(usize, u64, u64)> {
        self.shared.queue_depths()
    }

    /// Attach an observability sink: the reactor publishes per-peer
    /// queue gauges, transport counters, and the send-stall histogram
    /// through it. A no-op while a node runs the mesh, or once it is
    /// shut down.
    pub(crate) fn set_observer(&self, obs: Obs) {
        if let Some(reactor) = self.inbox.reactor.lock().expect("reactor lock").as_mut() {
            reactor.obs = obs;
        }
    }

    /// Take the reactor: the caller becomes the one thread that turns it,
    /// frames it decodes go to the caller's sink, and sends on the mesh
    /// only queue. `None` once the mesh is shut down.
    pub(crate) fn adopt(&self) -> Option<Reactor> {
        self.inbox.reactor.lock().expect("reactor lock").take()
    }

    /// Return an adopted reactor; calls on the mesh turn it again.
    pub(crate) fn hand_back(&self, reactor: Reactor) {
        *self.inbox.reactor.lock().expect("reactor lock") = Some(reactor);
    }

    /// Tear the mesh down: sever every live connection and release the
    /// listen port. Idempotent. After this the node can be "restarted"
    /// in-process by building a fresh [`Mesh`] on the same port, which
    /// is how the crash-recovery example kills a node; the port is
    /// genuinely free on return.
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        if let Some(reactor) = self.adopt() {
            reactor.close();
        }
    }

    /// Send to a replica. Never blocks on the network: the frame is
    /// queued (shedding the peer's oldest frames past the cap).
    /// Connections are established lazily and redialed with backoff
    /// after failures.
    pub fn send_replica(&self, to: ReplicaId, msg: Message) {
        if PeerKind::Replica(to.0) == self.me {
            self.inbox.push(Inbound::FromReplica(to, msg));
            return;
        }
        self.shared.enqueue_replica(to.0, encode_frame(&msg));
        self.inbox.turn(Duration::ZERO);
    }

    /// Send to every replica; a replica's own copy goes to its inbox.
    pub(crate) fn broadcast(&self, msg: Message) {
        // Encode once; every peer queue shares the same frame.
        let frame = encode_frame(&msg);
        for r in 0..self.n as u32 {
            if PeerKind::Replica(r) != self.me {
                self.shared.enqueue_replica(r, frame.clone());
            }
        }
        if let PeerKind::Replica(me) = self.me {
            self.inbox.push(Inbound::FromReplica(ReplicaId(me), msg));
        }
        self.inbox.turn(Duration::ZERO);
    }

    /// Send a response to a connected client (no-op if unknown).
    pub(crate) fn send_client(&self, to: ClientId, msg: Message) {
        self.shared.enqueue_client(to.0, encode_frame(&msg));
        self.inbox.turn(Duration::ZERO);
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hs1_obs::Clock;
    use hs1_types::Transaction;
    use std::net::TcpListener;
    use std::time::Instant;

    /// Reserve `n` contiguous free loopback ports and return the base.
    ///
    /// The ports come from below the kernel's ephemeral range, which every
    /// `bind(:0)` probe and the local end of every dial draw from, so a
    /// reserved port is not handed to a socket of a test running beside
    /// this one. One cursor per process never hands a port out twice; it
    /// starts at an offset taken from the process id, which keeps two test
    /// processes apart. A run holding a port somebody else has bound is
    /// skipped.
    pub(crate) fn free_base_port(n: u16) -> u16 {
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

    fn request(seq: u64) -> Message {
        Message::Request(Transaction::kv_write(0, seq, seq, seq))
    }

    /// The replica ports run from `base_port` to `base_port + n - 1`; a
    /// range that passes 65535 is refused, not wrapped round to port 1.
    #[test]
    fn a_port_range_past_65535_is_invalid_input() {
        let Err(e) = Mesh::start(ReplicaId(3), 4, "127.0.0.1", 65534) else {
            panic!("ports 65534..65537 were accepted");
        };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
    }

    /// Regression: per-peer `net_out_queue_*` gauges must report the
    /// *current* depth every tick — including 0 once a peer's queue
    /// drains — not hold the last nonzero sample. A last-value gauge
    /// that is only published `if depth > 0` would pass every
    /// queue-buildup test and still lie forever after the drain.
    #[test]
    fn queue_gauges_report_zero_after_drain() {
        let n = 2usize;
        let base = free_base_port(n as u16);
        let cfg = MeshConfig {
            backend: Backend::Reactor,
            metrics_interval: Duration::from_millis(5),
            ..MeshConfig::default()
        };
        let a = Mesh::start_with(ReplicaId(0), n, "127.0.0.1", base, cfg.clone()).expect("mesh a");
        let (obs, rec) = Obs::recording(Clock::wall());
        a.set_observer(obs.with_actor(0));

        // Peer 1 is down: frames pile up in its queue; a metrics tick
        // must observe a nonzero gauge.
        for seq in 0..64 {
            a.send_replica(ReplicaId(1), request(seq));
        }
        let depths = a.queue_depths();
        assert_eq!(depths.len(), 1, "one peer besides me");
        assert!(depths[0].1 > 0, "the queue built up");
        // Turn the mesh until a tick has published the nonzero depth.
        let gauge = |name: &str| {
            let snap = rec.lock().unwrap().snapshot();
            snap.rows
                .iter()
                .find(|r| r.kind == "gauge" && r.name == name && r.idx == 1)
                .map(|r| r.value)
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while gauge("net_out_queue_frames").unwrap_or(0) == 0 {
            assert!(Instant::now() < deadline, "nonzero queue gauge never published");
            let _ = a.inbox.recv_timeout(Duration::from_millis(2));
        }

        // Bring peer 1 up and turn both meshes; the queue drains and the
        // *published* gauge must come back to exactly 0.
        let b = Mesh::start_with(ReplicaId(1), n, "127.0.0.1", base, cfg).expect("mesh b");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (frames, bytes) = (gauge("net_out_queue_frames"), gauge("net_out_queue_bytes"));
            if frames == Some(0) && bytes == Some(0) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "queue gauges stuck at {frames:?} frames / {bytes:?} bytes after drain"
            );
            let _ = a.inbox.recv_timeout(Duration::from_millis(2));
            let _ = b.inbox.recv_timeout(Duration::ZERO);
        }
        drop(b);
        drop(a);
    }
}
