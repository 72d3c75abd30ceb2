//! The peer mesh: connections between replicas and to clients behind
//! one small API (`send_replica` / `broadcast` / `send_client` /
//! `inbox`), over the readiness-driven transport of the private
//! `reactor` module: every socket nonblocking, per-peer bounded
//! [`crate::framing::FrameQueue`]s drained with writev coalescing,
//! oldest-first shedding under backpressure, and jittered exponential
//! redial of dead peers.
//!
//! Sending never blocks the caller on the network: a frame is encoded
//! once and pushed into a bounded queue, and a slow peer's oldest frames
//! are shed instead of waited for.
//!
//! Who moves the bytes depends on who holds the mesh. A bare `Mesh`
//! (tests, load generators, the benchmark's layer lab) runs a background
//! `reactor-N` thread that writes the queues out and delivers decoded
//! frames to [`Mesh::inbox`]. A [`crate::node::NodeRunner`] takes that
//! reactor over for the length of `run_for` and turns it on its own
//! thread, so a running replica is one thread; only self-addressed sends
//! still travel through `inbox`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::framing::encode_frame;
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
    /// Readiness-driven event loop (nonblocking sockets + `poll(2)`,
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

/// Transport counters, shared across the send paths and the reactor.
/// Exposed raw for harnesses ([`Mesh::stats`]) and
/// mirrored into `hs1-obs` counters by the reactor's metrics tick.
#[derive(Default)]
pub struct NetStats {
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

/// Point-in-time copy of [`NetStats`].
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
    pub fn snapshot(&self) -> NetStatsSnapshot {
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

/// Where a mesh's [`Reactor`] is.
enum Driver {
    /// A bare mesh: the background `reactor-N` thread turns it.
    Thread(std::thread::JoinHandle<Reactor>),
    /// Handed back by a node after `run_for`; nobody turns it.
    Parked(Box<Reactor>),
    /// Adopted by a running node, or shut down.
    Absent,
}

/// The mesh of a single replica process.
pub struct Mesh {
    me: ReplicaId,
    n: usize,
    shared: Arc<reactor::Shared>,
    driver: Mutex<Driver>,
    stats: Arc<NetStats>,
    pub inbox: Receiver<Inbound>,
    inbox_tx: Sender<Inbound>,
}

impl Mesh {
    /// Bind the listener for `me` and start the transport.
    pub fn start(me: ReplicaId, n: usize, host: &str, base_port: u16) -> std::io::Result<Mesh> {
        Mesh::start_with(me, n, host, base_port, MeshConfig::default())
    }

    /// Bind and start with explicit transport tuning.
    pub fn start_with(
        me: ReplicaId,
        n: usize,
        host: &str,
        base_port: u16,
        cfg: MeshConfig,
    ) -> std::io::Result<Mesh> {
        let (inbox_tx, inbox) = channel();
        let stats = Arc::new(NetStats::default());
        let (shared, thread) =
            reactor::start(me, n, host, base_port, cfg, stats.clone(), inbox_tx.clone())?;
        let driver = Mutex::new(Driver::Thread(thread));
        Ok(Mesh { me, n, shared, driver, stats, inbox, inbox_tx })
    }

    /// Deployment size this mesh was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Transport counters (live; see [`NetStats`]).
    pub fn stats(&self) -> NetStatsSnapshot {
        self.stats.snapshot()
    }

    /// Frames shed by the backpressure policy so far.
    pub fn shed_frames(&self) -> u64 {
        self.stats.frames_shed.load(Ordering::Relaxed)
    }

    /// Live per-peer outbound queue depths, `(peer, frames, bytes)` —
    /// the instantaneous values behind the `net_out_queue_*` gauges.
    pub fn queue_depths(&self) -> Vec<(usize, u64, u64)> {
        self.shared.queue_depths()
    }

    /// Attach an observability sink: the reactor publishes per-peer
    /// queue gauges, transport counters, and the send-stall histogram
    /// through it.
    pub fn set_observer(&self, obs: Obs) {
        self.shared.set_observer(obs);
    }

    /// Take the reactor from wherever it is, stopping the background
    /// thread if that still has it (`Err` if the thread panicked).
    fn take_reactor(&self) -> Option<std::thread::Result<Reactor>> {
        let driver =
            std::mem::replace(&mut *self.driver.lock().expect("driver lock"), Driver::Absent);
        match driver {
            Driver::Thread(thread) => {
                self.shared.stop_thread();
                Some(thread.join())
            }
            Driver::Parked(reactor) => Some(Ok(*reactor)),
            Driver::Absent => None,
        }
    }

    /// Take the reactor over from the background thread (or from where
    /// [`Mesh::hand_back`] parked it): the caller becomes the one thread
    /// that turns it, and frames it decodes go to the caller's sink, not
    /// to `inbox`. `None` once the mesh is shut down.
    pub(crate) fn adopt(&self) -> Option<Reactor> {
        self.take_reactor().map(|reactor| reactor.expect("reactor thread panicked"))
    }

    /// Return an adopted reactor. It stays parked — connections open,
    /// nothing read or written — until the next [`Mesh::adopt`] or
    /// [`Mesh::shutdown`].
    pub(crate) fn hand_back(&self, reactor: Reactor) {
        *self.driver.lock().expect("driver lock") = Driver::Parked(Box::new(reactor));
    }

    /// Tear the mesh down: sever every live connection and release the
    /// listen port. Idempotent. After this the node can be "restarted"
    /// in-process by building a fresh [`Mesh`] on the same port, which
    /// is how the crash-recovery example kills a node; the port is
    /// genuinely free on return.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
        if let Some(Ok(reactor)) = self.take_reactor() {
            reactor.close();
        }
    }

    /// Send to a replica. Never blocks on the network: the frame is
    /// queued (shedding the peer's oldest frames past the cap).
    /// Connections are established lazily and redialed with backoff
    /// after failures.
    pub fn send_replica(&self, to: ReplicaId, msg: Message) {
        if to == self.me {
            let _ = self.inbox_tx.send(Inbound::FromReplica(self.me, msg));
            return;
        }
        self.shared.enqueue_replica(to.0, encode_frame(&msg));
    }

    pub fn broadcast(&self, msg: Message) {
        // Encode once; every peer queue shares the same frame.
        let frame = encode_frame(&msg);
        for r in 0..self.n as u32 {
            if r != self.me.0 {
                self.shared.enqueue_replica(r, frame.clone());
            }
        }
        let _ = self.inbox_tx.send(Inbound::FromReplica(self.me, msg));
    }

    /// Send a response to a connected client (no-op if unknown).
    pub fn send_client(&self, to: ClientId, msg: Message) {
        self.shared.enqueue_client(to.0, encode_frame(&msg));
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

    pub(crate) fn free_base_port(n: u16) -> u16 {
        for _ in 0..32 {
            let probe = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
            let base = probe.local_addr().expect("addr").port();
            drop(probe);
            if base.checked_add(n).is_none() {
                continue;
            }
            let all_free =
                (0..n).all(|i| TcpListener::bind(("127.0.0.1", base + i)).map(drop).is_ok());
            if all_free {
                return base;
            }
        }
        panic!("could not find {n} contiguous free loopback ports");
    }

    fn request(seq: u64) -> Message {
        Message::Request(Transaction::kv_write(0, seq, seq, seq))
    }

    /// Adoption must not wait out the background thread's `poll`: with
    /// no traffic and the only deadline ten seconds away, it is the waker
    /// that brings the reactor back.
    #[test]
    fn adopting_a_sleeping_reactor_returns_promptly() {
        let base = free_base_port(1);
        let cfg = MeshConfig { metrics_interval: Duration::from_secs(10), ..MeshConfig::default() };
        let mesh = Mesh::start_with(ReplicaId(0), 1, "127.0.0.1", base, cfg).expect("mesh");
        let deadline = Instant::now() + Duration::from_secs(5);
        while !mesh.shared.is_sleeping() {
            assert!(Instant::now() < deadline, "reactor thread never went to sleep");
            std::thread::yield_now();
        }
        let asked = Instant::now();
        let reactor = mesh.adopt().expect("a live mesh has a reactor");
        assert!(asked.elapsed() < Duration::from_secs(1), "adopt took {:?}", asked.elapsed());
        assert!(mesh.adopt().is_none(), "one reactor, one owner");
        mesh.hand_back(reactor);
        assert!(mesh.adopt().is_some(), "a parked reactor can be adopted again");
        mesh.shutdown();
        assert!(mesh.adopt().is_none(), "nothing to adopt after shutdown");
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
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let depths = a.queue_depths();
            assert_eq!(depths.len(), 1, "one peer besides me");
            if depths[0].1 > 0 {
                break;
            }
            assert!(Instant::now() < deadline, "queue never built up");
        }
        // Wait until a tick has published the nonzero depth.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = rec.lock().unwrap().snapshot();
            let gauge = snap
                .rows
                .iter()
                .find(|r| r.kind == "gauge" && r.name == "net_out_queue_frames" && r.idx == 1)
                .map(|r| r.value);
            if gauge.is_some_and(|v| v > 0) {
                break;
            }
            assert!(Instant::now() < deadline, "nonzero queue gauge never published");
            std::thread::sleep(Duration::from_millis(2));
        }

        // Bring peer 1 up; the queue drains and the *published* gauge
        // must come back to exactly 0.
        let b = Mesh::start_with(ReplicaId(1), n, "127.0.0.1", base, cfg).expect("mesh b");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snap = rec.lock().unwrap().snapshot();
            let frames = snap
                .rows
                .iter()
                .find(|r| r.kind == "gauge" && r.name == "net_out_queue_frames" && r.idx == 1)
                .map(|r| r.value);
            let bytes = snap
                .rows
                .iter()
                .find(|r| r.kind == "gauge" && r.name == "net_out_queue_bytes" && r.idx == 1)
                .map(|r| r.value);
            if frames == Some(0) && bytes == Some(0) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "queue gauges stuck at {frames:?} frames / {bytes:?} bytes after drain"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(b);
        drop(a);
    }
}
