//! The peer mesh: connections between replicas and to clients behind
//! one small API (`send_replica` / `broadcast` / `inbox`), over the
//! readiness-driven transport of the private `reactor` module: every
//! socket nonblocking, per-peer bounded
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
//! A mesh is one reactor behind one cell, and it has no thread of its
//! own: the thread that calls it moves its bytes. A
//! [`crate::node::NodeRunner`] turns it on its own loop, and its sends
//! only queue until the next turn, so a running replica is one thread.
//! Any other holder — a client, tests, the benchmark's layer lab — turns
//! it through the calls it makes: a send takes one turn that does not
//! wait, and [`Inbox::recv_timeout`] takes turns until a frame arrives.
//! Every frame a turn reads, and every self-addressed send, waits in the
//! reactor's queue until [`Inbox::recv_timeout`] or the node loop takes
//! it.

use std::cell::{RefCell, RefMut};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

use crate::framing::PeerKind;
use crate::reactor::Reactor;
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
    /// Listen on this port instead of `base_port + me` (lets tests
    /// interpose a proxy at the advertised port).
    pub listen_port: Option<u16>,
    /// Shrink `SO_SNDBUF` on dialed peer connections so kernel-buffer
    /// backpressure reaches the bounded queues quickly (tests only;
    /// `None` keeps the OS default).
    pub send_buffer: Option<usize>,
}

impl Default for MeshConfig {
    fn default() -> MeshConfig {
        MeshConfig {
            backend: Backend::Reactor,
            queue_frames: 8192,
            queue_bytes: 16 << 20,
            listen_port: None,
            send_buffer: None,
        }
    }
}

/// Transport counters, kept by the reactor. Read whole by harnesses
/// ([`crate::node::NodeRunner::net_stats`]) and published as `hs1-obs`
/// counter deltas by the reactor's metrics tick.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStatsSnapshot {
    /// Frames fully handed to the kernel.
    pub tx_frames: u64,
    pub tx_bytes: u64,
    /// `writev` calls issued (the coalescing ratio is
    /// `tx_frames / write_calls`).
    pub write_calls: u64,
    pub rx_frames: u64,
    pub rx_bytes: u64,
    pub read_calls: u64,
    /// Frames shed oldest-first by the bounded-queue backpressure
    /// policy (slow or disconnected peers).
    pub frames_shed: u64,
    /// Successful re-dials of a peer that had been connected before.
    pub reconnects: u64,
}

/// The mesh's reactor, behind the one cell every call on the mesh goes
/// through. Waiting for a frame here is what turns it.
pub struct Inbox {
    reactor: RefCell<Reactor>,
}

impl Inbox {
    /// Take the next frame, turning the reactor on this thread until one
    /// arrives or `timeout` has passed. `Disconnected` once the mesh is
    /// shut down and nothing is left.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Inbound, RecvTimeoutError> {
        let start = Instant::now();
        let mut reactor = self.reactor.borrow_mut();
        loop {
            if let Some(inbound) = reactor.take() {
                return Ok(inbound);
            }
            if reactor.is_closed() {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = timeout.saturating_sub(start.elapsed());
            reactor.turn(left);
            if left.is_zero() {
                return reactor.take().ok_or(RecvTimeoutError::Timeout);
            }
        }
    }

    /// The next frame already here; turns nothing.
    pub(crate) fn try_recv(&self) -> Option<Inbound> {
        self.reactor.borrow_mut().take()
    }
}

/// The mesh of a single replica or client process.
pub struct Mesh {
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
        let reactor = Reactor::start(me, n, host, base_port, cfg)?;
        Ok(Mesh { inbox: Inbox { reactor: RefCell::new(reactor) } })
    }

    /// The reactor itself: its counters, queue depths and observer, and
    /// for a node's loop, sends that only queue and the turns it takes.
    pub(crate) fn reactor(&self) -> RefMut<'_, Reactor> {
        self.inbox.reactor.borrow_mut()
    }

    /// Tear the mesh down: sever every live connection and release the
    /// listen port. Idempotent. After this the node can be "restarted"
    /// in-process by building a fresh [`Mesh`] on the same port, which
    /// is how the crash-recovery example kills a node; the port is
    /// genuinely free on return.
    pub fn shutdown(&self) {
        self.reactor().close();
    }

    /// Send to a replica, then take one turn that does not wait. Never
    /// blocks on the network: the frame is queued (shedding the peer's
    /// oldest frames past the cap). Connections are established lazily
    /// and redialed with backoff after failures.
    pub fn send_replica(&self, to: ReplicaId, msg: Message) {
        let mut reactor = self.reactor();
        reactor.send_replica(to, msg);
        reactor.turn(Duration::ZERO);
    }

    /// Send to every replica, then take one turn that does not wait; a
    /// replica's own copy goes to its inbox.
    pub(crate) fn broadcast(&self, msg: Message) {
        let mut reactor = self.reactor();
        reactor.broadcast(msg);
        reactor.turn(Duration::ZERO);
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ports::free_base_port;
    use hs1_obs::{Clock, Obs};
    use hs1_types::Transaction;

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
        let a = Mesh::start(ReplicaId(0), n, "127.0.0.1", base).expect("mesh a");
        a.reactor().metrics_interval = Duration::from_millis(5);
        let (obs, rec) = Obs::recording(Clock::wall());
        a.reactor().obs = obs.with_actor(0);

        // Peer 1 is down: frames pile up in its queue; a metrics tick
        // must observe a nonzero gauge.
        for seq in 0..64 {
            a.send_replica(ReplicaId(1), request(seq));
        }
        let depths = a.reactor().queue_depths();
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
        let b = Mesh::start(ReplicaId(1), n, "127.0.0.1", base).expect("mesh b");
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
