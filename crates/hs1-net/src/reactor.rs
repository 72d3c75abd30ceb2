//! The readiness-driven transport.
//!
//! A [`Reactor`] owns every socket of one mesh, nonblocking, and makes
//! progress one [`Reactor::turn`] at a time. Whoever calls `turn` is the
//! transport's only thread:
//!
//! * a running replica ([`crate::node::NodeRunner::run_for`]) adopts its
//!   mesh's reactor and turns it on its own loop, so one thread reads a
//!   frame, steps the engine on it and writes the engine's answer;
//! * a bare [`crate::mesh::Mesh`] has nobody to do that, so a background
//!   `reactor-N` thread turns it and feeds decoded frames to `inbox`.
//!
//! ```text
//!   one turn (node loop or reactor-N thread)
//!   ─────────────────────────────────────────────────────────────────
//!   dial peers with queued traffic (backoff expired)
//!   flush every FrameQueue      writev, ≤64 frames per syscall
//!   poll(listener, waker, conns)    ≤ the caller's wait, the next
//!                                   backoff expiry or metrics tick
//!   accept / handshake
//!   read + decode frames ──► sink(Inbound)
//!        node loop:   engine.on_message ──► send_* ──► FrameQueue
//!                     (encode once, enforce caps, shed oldest);
//!                     flushed at the top of the next turn
//!        bare mesh:   inbox.send
//! ```
//!
//! `send_*` from the turning thread only pushes into a queue. From any
//! other thread it also writes one wakeup byte, and only if the turning
//! thread is asleep in `poll`.
//!
//! Backpressure: a slow peer's queue coalesces (frames pile up and go
//! out in big writev batches when the socket drains), then sheds
//! oldest-first past the caps — the engines already tolerate loss of
//! stale consensus traffic via timeouts, and blocking the proposer on
//! the slowest peer is exactly the failure mode this transport removes.
//! Reconnect: a dead peer link enters jittered exponential backoff
//! (base doubling to a max, ±50% jitter so a restarted replica isn't
//! hammered in lockstep) and is redialed as soon as traffic for it
//! exists. A dial blocks the turning thread for at most
//! `connect_timeout`; a refused loopback dial returns at once.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::mem::take;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::framing::{hello_bytes, parse_hello, Frame, FrameQueue, FrameReader, PeerKind};
use crate::mesh::{Inbound, MeshConfig, NetStats, NetStatsSnapshot};
use crate::poll::{poll_fds, set_send_buffer, PollFd, WakeReceiver, Waker, POLLIN, POLLOUT};
use hs1_obs::Obs;
use hs1_types::{ClientId, Message, ReplicaId};

/// State shared between the sending side ([`crate::mesh::Mesh`]) and
/// whichever thread turns the [`Reactor`].
pub(crate) struct Shared {
    me: u32,
    n: usize,
    cfg: MeshConfig,
    /// Per-replica outbound queues (`queues[me]` is unused).
    queues: Vec<Mutex<FrameQueue>>,
    /// Outbound queues of currently-connected clients.
    client_queues: Mutex<HashMap<u32, Arc<Mutex<FrameQueue>>>>,
    shutting_down: AtomicBool,
    /// Asks the background thread to return its [`Reactor`] (shutdown,
    /// or a node adopting it).
    stop_thread: AtomicBool,
    /// True while the reactor is (about to be) blocked in `poll`; lets
    /// the hot enqueue path skip the wakeup syscall when the reactor is
    /// already running.
    sleeping: AtomicBool,
    /// Bumped on every enqueue; the reactor rechecks it after raising
    /// `sleeping` so an enqueue in the gap is never slept through.
    pending_epoch: AtomicU64,
    obs: Mutex<Obs>,
    stats: Arc<NetStats>,
    waker: Waker,
}

impl Shared {
    pub(crate) fn enqueue_replica(&self, peer: u32, frame: Frame) {
        if self.shutting_down.load(Ordering::Relaxed) || peer as usize >= self.n {
            return;
        }
        let shed = {
            let mut q = self.queues[peer as usize].lock().expect("queue lock");
            q.push(frame);
            q.enforce_caps(self.cfg.queue_frames, self.cfg.queue_bytes)
        };
        if shed > 0 {
            self.stats.frames_shed.fetch_add(shed, Ordering::Relaxed);
        }
        self.notify();
    }

    pub(crate) fn enqueue_client(&self, client: u32, frame: Frame) {
        if self.shutting_down.load(Ordering::Relaxed) {
            return;
        }
        let Some(queue) = self.client_queues.lock().expect("clients lock").get(&client).cloned()
        else {
            return; // unknown client: drop
        };
        let shed = {
            let mut q = queue.lock().expect("client queue lock");
            q.push(frame);
            q.enforce_caps(self.cfg.queue_frames, self.cfg.queue_bytes)
        };
        if shed > 0 {
            self.stats.frames_shed.fetch_add(shed, Ordering::Relaxed);
        }
        self.notify();
    }

    pub(crate) fn set_observer(&self, obs: Obs) {
        *self.obs.lock().expect("obs lock") = obs;
        self.notify();
    }

    /// Current depth of every peer's outbound queue:
    /// `(peer, frames, bytes)` for each peer except `me`. The same
    /// numbers the metrics tick publishes as `net_out_queue_*` gauges,
    /// read on demand for the `/status` introspection endpoint.
    pub(crate) fn queue_depths(&self) -> Vec<(usize, u64, u64)> {
        (0..self.n)
            .filter(|&peer| peer as u32 != self.me)
            .map(|peer| {
                let q = self.queues[peer].lock().expect("queue lock");
                (peer, q.len() as u64, q.bytes() as u64)
            })
            .collect()
    }

    /// Stop accepting frames; [`Reactor::close`] does the rest.
    pub(crate) fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Make the background thread return from [`Reactor::run`], waking
    /// it if it is asleep in `poll`.
    pub(crate) fn stop_thread(&self) {
        self.stop_thread.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    #[cfg(test)]
    pub(crate) fn is_sleeping(&self) -> bool {
        self.sleeping.load(Ordering::SeqCst)
    }

    fn notify(&self) {
        self.pending_epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleeping.load(Ordering::SeqCst) {
            self.waker.wake();
        }
    }
}

/// Bind the listener, spawn the background thread that turns the
/// reactor until someone adopts it, and hand back the shared state and
/// the join handle that yields the [`Reactor`].
pub(crate) fn start(
    me: ReplicaId,
    n: usize,
    host: &str,
    base_port: u16,
    cfg: MeshConfig,
    stats: Arc<NetStats>,
    inbox: Sender<Inbound>,
) -> std::io::Result<(Arc<Shared>, std::thread::JoinHandle<Reactor>)> {
    let listen_port = cfg.listen_port.unwrap_or(base_port + me.0 as u16);
    let listener = TcpListener::bind((host, listen_port))?;
    listener.set_nonblocking(true)?;
    let (waker, wake_rx) = Waker::pair()?;
    let shared = Arc::new(Shared {
        me: me.0,
        n,
        cfg,
        queues: (0..n).map(|_| Mutex::new(FrameQueue::new())).collect(),
        client_queues: Mutex::new(HashMap::new()),
        shutting_down: AtomicBool::new(false),
        stop_thread: AtomicBool::new(false),
        sleeping: AtomicBool::new(false),
        pending_epoch: AtomicU64::new(0),
        obs: Mutex::new(Obs::noop()),
        stats,
        waker,
    });
    let reactor = Reactor {
        shared: shared.clone(),
        host: host.to_string(),
        base_port,
        listener,
        wake_rx,
        conns: HashMap::new(),
        next_token: 0,
        links: (0..n).map(|_| Link::Idle).collect(),
        ever_connected: vec![false; n],
        rng: 0x9E37_79B9 ^ ((me.0 as u64) << 32 | base_port as u64),
        obs_local: Obs::noop(),
        emitted: NetStatsSnapshot::default(),
        last_tick: Instant::now(),
        turns: 0,
        fds: Vec::new(),
        tokens: Vec::new(),
    };
    let handle = std::thread::Builder::new()
        .name(format!("reactor-{}", me.0))
        .spawn(move || reactor.run(inbox))?;
    Ok((shared, handle))
}

/// Outbound link state for one replica peer.
enum Link {
    /// No connection and no recent failure; dialed as soon as traffic
    /// for the peer exists.
    Idle,
    Connected {
        token: u64,
    },
    /// Waiting out the jittered exponential backoff after a failure.
    Backoff {
        until: Instant,
        delay: Duration,
    },
}

enum ConnKind {
    /// Accepted, waiting for the 5-byte hello.
    HandshakeIn { buf: [u8; 5], got: usize },
    /// Accepted from replica `id` (read side of the peer's dial).
    ReplicaIn(u32),
    /// Accepted from client `id`; responses drain through `queue`.
    ClientIn { id: u32, queue: Arc<Mutex<FrameQueue>> },
    /// Dialed to replica `id` (write side; peers never write back here).
    ReplicaOut(u32),
}

struct Conn {
    stream: TcpStream,
    kind: ConnKind,
    reader: FrameReader,
    /// Ask poll for POLLOUT (a flush hit `WouldBlock`).
    want_write: bool,
    /// When the current send stall began (kernel buffer full).
    stall_since: Option<Instant>,
}

/// Every socket of one mesh and the state to drive them. Exactly one
/// thread at a time calls [`Reactor::turn`].
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    host: String,
    base_port: u16,
    listener: TcpListener,
    wake_rx: WakeReceiver,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    links: Vec<Link>,
    ever_connected: Vec<bool>,
    /// SplitMix64 state for backoff jitter.
    rng: u64,
    /// Copy of the attached observer, refreshed each metrics tick.
    obs_local: Obs,
    /// Counter values already published to the observer.
    emitted: NetStatsSnapshot,
    last_tick: Instant,
    /// Turns taken so far (tests bound it to show the loop does not spin).
    pub(crate) turns: u64,
    /// The poll set of the current turn and the connection tokens beside
    /// it; `tokens` also lists what [`Reactor::flush_connected`] flushes.
    /// Kept between turns so a turn allocates nothing.
    fds: Vec<PollFd>,
    tokens: Vec<u64>,
}

impl Reactor {
    /// The background driver of a bare mesh: turn, feeding `inbox`,
    /// until asked to stop; then give the reactor to whoever asked.
    fn run(mut self, inbox: Sender<Inbound>) -> Reactor {
        while !self.shared.stop_thread.swap(false, Ordering::SeqCst) {
            self.turn(Duration::MAX, &mut |inbound| {
                let _ = inbox.send(inbound);
            });
        }
        self
    }

    /// One pass of the event loop: dial and flush what is queued, sleep
    /// in `poll` for at most `wait` (less if a deadline of the reactor's
    /// own comes first), then accept, read and hand every decoded frame
    /// to `sink`. Frames `sink` enqueues go out at the top of the next
    /// turn.
    pub(crate) fn turn(&mut self, wait: Duration, sink: &mut dyn FnMut(Inbound)) {
        self.turns += 1;
        let epoch = self.shared.pending_epoch.load(Ordering::SeqCst);
        self.dial_pending();
        self.flush_connected();
        self.tick_metrics(false);

        let (mut fds, mut tokens) = (take(&mut self.fds), take(&mut self.tokens));
        fds.clear();
        tokens.clear();
        fds.push(PollFd::new(self.wake_rx.raw_fd(), POLLIN));
        fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
        for (&token, conn) in &self.conns {
            let mut events = POLLIN;
            if conn.want_write {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            tokens.push(token);
        }

        self.shared.sleeping.store(true, Ordering::SeqCst);
        let timeout = if self.shared.pending_epoch.load(Ordering::SeqCst) != epoch {
            0 // an enqueue raced our pre-sleep window: don't sleep
        } else {
            self.poll_timeout_ms(wait)
        };
        let _ = poll_fds(&mut fds, timeout);
        self.shared.sleeping.store(false, Ordering::SeqCst);

        if fds[0].readable() {
            self.wake_rx.drain();
        }
        if fds[1].readable() {
            self.accept_new();
        }
        for (i, &token) in tokens.iter().enumerate() {
            let fd = fds[2 + i];
            if fd.readable() {
                self.handle_readable(token, sink);
            }
            if fd.writable() && self.conns.contains_key(&token) {
                self.flush_token(token);
            }
        }
        (self.fds, self.tokens) = (fds, tokens);
    }

    /// Sever every connection and release the listen port. Queues are
    /// emptied so a mesh rebuilt on the same port starts clean; the
    /// final tick publishes whatever counters remain.
    pub(crate) fn close(mut self) {
        self.conns.clear();
        for q in &self.shared.queues {
            q.lock().expect("queue lock").clear();
        }
        self.shared.client_queues.lock().expect("clients lock").clear();
        self.tick_metrics(true);
        self.obs_local.flush();
    }

    /// Milliseconds `poll` may sleep: until `wait` runs out, a backoff
    /// with pending traffic expires, or the next metrics tick is due.
    /// `poll(2)` counts whole milliseconds, so the wait is rounded *up*:
    /// a deadline 200 µs away costs one 1 ms sleep, where rounding down
    /// would spin on a zero timeout until it passed.
    fn poll_timeout_ms(&self, wait: Duration) -> i32 {
        let now = Instant::now();
        let tick_deadline =
            (self.last_tick + self.shared.cfg.metrics_interval).saturating_duration_since(now);
        let mut nearest = wait.min(tick_deadline);
        for (peer, link) in self.links.iter().enumerate() {
            if let Link::Backoff { until, .. } = link {
                if !self.shared.queues[peer].lock().expect("queue lock").is_empty() {
                    nearest = nearest.min(until.saturating_duration_since(now));
                }
            }
        }
        nearest.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
    }

    fn next_rand(&mut self) -> u64 {
        // SplitMix64: tiny, seedable, good enough for backoff jitter.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `delay` with ±50% jitter: uniform in `[delay/2, delay*3/2)`.
    fn jittered(&mut self, delay: Duration) -> Duration {
        let nanos = delay.as_nanos().max(1) as u64;
        Duration::from_nanos(nanos / 2 + self.next_rand() % nanos)
    }

    /// Dial every disconnected peer that has traffic waiting and whose
    /// backoff (if any) has expired.
    fn dial_pending(&mut self) {
        let now = Instant::now();
        for peer in 0..self.shared.n {
            if peer as u32 == self.shared.me {
                continue;
            }
            match self.links[peer] {
                Link::Connected { .. } => continue,
                Link::Backoff { until, .. } if until > now => continue,
                _ => {}
            }
            if self.shared.queues[peer].lock().expect("queue lock").is_empty() {
                continue;
            }
            match self.dial(peer as u32) {
                Ok(stream) => {
                    if self.ever_connected[peer] {
                        self.shared.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                        if self.obs_local.enabled() {
                            self.obs_local.counter("net_reconnects", peer as u32, 1);
                        }
                    }
                    self.ever_connected[peer] = true;
                    let token = self.insert_conn(stream, ConnKind::ReplicaOut(peer as u32));
                    self.links[peer] = Link::Connected { token };
                }
                Err(_) => {
                    let delay = match self.links[peer] {
                        Link::Backoff { delay, .. } => {
                            (delay * 2).min(self.shared.cfg.reconnect_max)
                        }
                        _ => self.shared.cfg.reconnect_base,
                    };
                    let jitter = self.jittered(delay);
                    self.links[peer] = Link::Backoff { until: now + jitter, delay };
                }
            }
        }
    }

    /// One dial attempt: connect (bounded), handshake while still in
    /// blocking mode (5 bytes into an empty send buffer cannot stall),
    /// then go nonblocking.
    fn dial(&mut self, peer: u32) -> std::io::Result<TcpStream> {
        let addr = (self.host.as_str(), self.base_port + peer as u16)
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no addr"))?;
        let mut stream = TcpStream::connect_timeout(&addr, self.shared.cfg.connect_timeout)?;
        stream.set_nodelay(true)?;
        if let Some(bytes) = self.shared.cfg.send_buffer {
            let _ = set_send_buffer(stream.as_raw_fd(), bytes);
        }
        stream.write_all(&hello_bytes(PeerKind::Replica(self.shared.me)))?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    fn insert_conn(&mut self, stream: TcpStream, kind: ConnKind) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.conns.insert(
            token,
            Conn { stream, kind, reader: FrameReader::new(), want_write: false, stall_since: None },
        );
        token
    }

    fn accept_new(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    self.insert_conn(stream, ConnKind::HandshakeIn { buf: [0; 5], got: 0 });
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Flush every connected replica link and client connection with
    /// queued frames.
    pub(crate) fn flush_connected(&mut self) {
        let mut tokens = take(&mut self.tokens);
        tokens.clear();
        tokens.extend(self.links.iter().filter_map(|l| match l {
            Link::Connected { token } => Some(*token),
            _ => None,
        }));
        for &token in &tokens {
            self.flush_token(token);
        }
        tokens.clear();
        tokens.extend(
            self.conns
                .iter()
                .filter(|(_, c)| matches!(c.kind, ConnKind::ClientIn { .. }))
                .map(|(&t, _)| t),
        );
        for &token in &tokens {
            self.flush_token(token);
        }
        self.tokens = tokens;
    }

    /// Drain one connection's queue into its socket. Disconnects on
    /// write errors.
    fn flush_token(&mut self, token: u64) {
        let res = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let client_queue;
            let queue: &Mutex<FrameQueue> = match &conn.kind {
                ConnKind::ReplicaOut(p) => &self.shared.queues[*p as usize],
                ConnKind::ClientIn { queue, .. } => {
                    client_queue = queue.clone();
                    &client_queue
                }
                _ => return,
            };
            let mut q = queue.lock().expect("queue lock");
            if q.is_empty() {
                conn.want_write = false;
                return;
            }
            q.write_to(&mut conn.stream)
        };
        self.finish_flush(token, res);
    }

    fn finish_flush(&mut self, token: u64, res: std::io::Result<crate::framing::WriteProgress>) {
        match res {
            Ok(p) => {
                if p.bytes > 0 {
                    self.shared.stats.tx_bytes.fetch_add(p.bytes, Ordering::Relaxed);
                    self.shared.stats.tx_frames.fetch_add(p.frames, Ordering::Relaxed);
                    self.shared.stats.write_calls.fetch_add(p.calls, Ordering::Relaxed);
                }
                let Some(conn) = self.conns.get_mut(&token) else { return };
                if p.would_block {
                    conn.want_write = true;
                    if conn.stall_since.is_none() {
                        conn.stall_since = Some(Instant::now());
                    }
                } else {
                    conn.want_write = false;
                    if let Some(t0) = conn.stall_since.take() {
                        if self.obs_local.enabled() {
                            self.obs_local
                                .observe_nanos("net_send_stall_ns", t0.elapsed().as_nanos() as u64);
                        }
                    }
                }
            }
            Err(_) => self.disconnect(token),
        }
    }

    fn handle_readable(&mut self, token: u64, sink: &mut dyn FnMut(Inbound)) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        // Finish the handshake first; data may follow in the same burst.
        if let ConnKind::HandshakeIn { buf, got } = &mut conn.kind {
            loop {
                match conn.stream.read(&mut buf[*got..]) {
                    Ok(0) => {
                        self.disconnect(token);
                        return;
                    }
                    Ok(n) => {
                        *got += n;
                        if *got == buf.len() {
                            break;
                        }
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                    Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.disconnect(token);
                        return;
                    }
                }
            }
            let hello = *buf;
            match parse_hello(&hello) {
                Ok(PeerKind::Replica(id)) => {
                    conn.kind = ConnKind::ReplicaIn(id);
                    // The peer just proved it is alive: skip any backoff
                    // still pending from dial failures while it was down,
                    // so queued traffic for it (e.g. the reply to the
                    // message it is about to send) flows immediately.
                    if let Some(link @ Link::Backoff { .. }) = self.links.get_mut(id as usize) {
                        *link = Link::Idle;
                    }
                }
                Ok(PeerKind::Client(id)) => {
                    let queue = Arc::new(Mutex::new(FrameQueue::new()));
                    conn.kind = ConnKind::ClientIn { id, queue: queue.clone() };
                    // A reconnecting client replaces its stale queue.
                    self.shared.client_queues.lock().expect("clients lock").insert(id, queue);
                }
                Err(_) => {
                    self.disconnect(token);
                    return;
                }
            }
        }

        let Some(conn) = self.conns.get_mut(&token) else { return };
        let outcome = conn.reader.read_from(&mut conn.stream);
        match outcome {
            Ok(o) => {
                if o.bytes > 0 {
                    self.shared.stats.rx_bytes.fetch_add(o.bytes, Ordering::Relaxed);
                    self.shared
                        .stats
                        .rx_frames
                        .fetch_add(o.messages.len() as u64, Ordering::Relaxed);
                    self.shared.stats.read_calls.fetch_add(o.calls, Ordering::Relaxed);
                }
                let from = match &conn.kind {
                    ConnKind::ReplicaIn(id) | ConnKind::ReplicaOut(id) => Sender2::Replica(*id),
                    ConnKind::ClientIn { id, .. } => Sender2::Client(*id),
                    ConnKind::HandshakeIn { .. } => return, // still incomplete
                };
                let eof = o.eof;
                for msg in o.messages {
                    sink(from.wrap(msg));
                }
                if eof {
                    self.disconnect(token);
                }
            }
            Err(_) => self.disconnect(token),
        }
    }

    fn disconnect(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else { return };
        match conn.kind {
            ConnKind::ReplicaOut(peer) => {
                // A half-sent frame cannot resume on a new connection.
                self.shared.queues[peer as usize].lock().expect("queue lock").abandon_partial();
                let delay = self.shared.cfg.reconnect_base;
                let jitter = self.jittered(delay);
                self.links[peer as usize] = Link::Backoff { until: Instant::now() + jitter, delay };
            }
            ConnKind::ClientIn { id, queue } => {
                let mut map = self.shared.client_queues.lock().expect("clients lock");
                // Only remove the registration if it is still ours (a
                // reconnected client may have replaced it already).
                if map.get(&id).is_some_and(|cur| Arc::ptr_eq(cur, &queue)) {
                    map.remove(&id);
                }
            }
            _ => {}
        }
    }

    /// Publish counters/gauges to the attached observer. Runs at
    /// `metrics_interval` (and once at shutdown with `force`).
    fn tick_metrics(&mut self, force: bool) {
        if !force && self.last_tick.elapsed() < self.shared.cfg.metrics_interval {
            return;
        }
        self.last_tick = Instant::now();
        self.obs_local = self.shared.obs.lock().expect("obs lock").clone();
        if !self.obs_local.enabled() {
            return;
        }
        let snap = self.shared.stats.snapshot();
        let deltas = [
            ("net_tx_frames", snap.tx_frames - self.emitted.tx_frames),
            ("net_tx_bytes", snap.tx_bytes - self.emitted.tx_bytes),
            ("net_writev_calls", snap.write_calls - self.emitted.write_calls),
            ("net_rx_frames", snap.rx_frames - self.emitted.rx_frames),
            ("net_rx_bytes", snap.rx_bytes - self.emitted.rx_bytes),
            ("net_read_calls", snap.read_calls - self.emitted.read_calls),
            ("net_frames_shed", snap.frames_shed - self.emitted.frames_shed),
        ];
        for (name, delta) in deltas {
            if delta > 0 {
                self.obs_local.counter(name, 0, delta);
            }
        }
        self.emitted = snap;
        for peer in 0..self.shared.n {
            if peer as u32 == self.shared.me {
                continue;
            }
            let (frames, bytes) = {
                let q = self.shared.queues[peer].lock().expect("queue lock");
                (q.len() as u64, q.bytes() as u64)
            };
            self.obs_local.gauge("net_out_queue_frames", peer as u32, frames);
            self.obs_local.gauge("net_out_queue_bytes", peer as u32, bytes);
        }
    }
}

/// Tiny helper naming the inbound attribution of a connection.
#[derive(Clone, Copy)]
enum Sender2 {
    Replica(u32),
    Client(u32),
}

impl Sender2 {
    fn wrap(self, msg: Message) -> Inbound {
        match self {
            Sender2::Replica(id) => Inbound::FromReplica(ReplicaId(id), msg),
            Sender2::Client(id) => Inbound::FromClient(ClientId(id), msg),
        }
    }
}
