//! The readiness-driven transport.
//!
//! A [`Reactor`] is the whole of one mesh: its sockets, nonblocking, the
//! outbound queue of every replica peer and of every client connection,
//! the frames read and not yet taken, and its counters. It has one owner
//! and no thread of its own, and makes progress one [`Reactor::turn`] at
//! a time on the thread that owns it:
//!
//! * a running replica ([`crate::node::NodeRunner::run_for`]) turns its
//!   mesh's reactor on its own loop, so one thread reads a frame, steps
//!   the engine on it and writes the engine's answer;
//! * a bare [`crate::mesh::Mesh`] is turned by the calls made on it: a
//!   send takes one turn that does not wait, and
//!   [`crate::mesh::Inbox::recv_timeout`] takes turns until a frame
//!   arrives.
//!
//! ```text
//!   one turn (node loop, or a call on a bare mesh)
//!   ─────────────────────────────────────────────────────────────────
//!   dial peers with queued traffic (backoff expired)
//!   flush every FrameQueue      writev, ≤64 frames per syscall
//!   epoll_wait                      ≤ the caller's wait, the next
//!                                   backoff expiry or metrics tick
//!   for each ready fd only:
//!     accept / handshake
//!     read + decode frames ──► the ready queue, beside self-sends
//!        node loop:   take ──► engine.on_message ──► send_* ──► FrameQueue
//!                     (encode once, enforce caps, shed oldest);
//!                     flushed at the top of the next turn
//!        bare mesh:   taken by recv_timeout
//! ```
//!
//! Nothing wakes a turn early: a frame is queued by the thread that turns
//! the reactor next, so no frame waits on a thread asleep in
//! `epoll_wait`.
//!
//! Readiness: the listener and every connection are registered in one
//! level-triggered `epoll(7)` instance when they appear (`start`,
//! `insert_conn`) and deregistered in `disconnect` before the socket
//! closes, so a turn pays one wait call and walks only the ready fds.
//! Each fd is registered under a token: a connection's never repeats,
//! even when the kernel reuses its fd number, so an event for a
//! connection closed earlier in the same batch finds nothing and is
//! skipped. A connection asks for `EPOLLOUT` only while a flush is
//! blocked on a full send buffer, and the interest changes only when
//! that does.
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
//! [`CONNECT_TIMEOUT`]; a refused loopback dial returns at once.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::mem::take;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::framing::{
    encode_frame_in, hello_bytes, parse_hello, Frame, FrameQueue, FrameReader, PeerKind, READ_CHUNK,
};
use crate::mesh::{Inbound, MeshConfig, NetStatsSnapshot};
use crate::poll::{set_send_buffer, Epoll, EpollEvent, EPOLLIN, EPOLLOUT};
use hs1_obs::Obs;
use hs1_types::{ClientId, IdHash, Message, ReplicaId, SplitMix64};

/// `delay` with ±50% jitter: uniform in `[delay/2, delay*3/2)`, so peers
/// do not redial a restarted replica in lockstep.
fn jittered(delay: Duration, rng: &mut SplitMix64) -> Duration {
    let nanos = delay.as_nanos().max(1) as u64;
    Duration::from_nanos(nanos / 2 + rng.next_u64() % nanos)
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
    /// Accepted from client `id`; its responses drain through `queue`.
    ClientIn { id: u32, queue: FrameQueue },
    /// Dialed to replica `id`. A replica peer never writes back here; a
    /// replica a client dialed writes its responses here.
    ReplicaOut(u32),
}

struct Conn {
    stream: TcpStream,
    kind: ConnKind,
    reader: FrameReader,
    /// Registered for `EPOLLOUT` (a flush hit `WouldBlock`).
    want_write: bool,
    /// When the current send stall began (kernel buffer full).
    stall_since: Option<Instant>,
}

/// Token of the listener, the one fd that is not a connection; a
/// connection's token counts up from 0 and never reaches it.
const LISTENER_TOKEN: u64 = u64::MAX;

/// Ready fds taken from the kernel per wait; more wait for the next turn.
const EVENTS_PER_WAIT: usize = 64;

/// First reconnect delay after a peer connection dies; doubles per failed
/// attempt (with ±50% jitter) up to [`RECONNECT_MAX`].
const RECONNECT_BASE: Duration = Duration::from_millis(50);
const RECONNECT_MAX: Duration = Duration::from_secs(2);

/// Bound on one dial attempt (loopback dials resolve instantly; this caps
/// the stall a blackholed peer could cause the thread turning the
/// reactor — for a running node, the engine's).
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// How often the reactor publishes queue gauges and counter deltas to
/// the attached observer.
const METRICS_INTERVAL: Duration = Duration::from_millis(100);

/// Every socket, queue and counter of one mesh, and the state to drive
/// them. It has one owner, the thread that calls [`Reactor::turn`].
pub(crate) struct Reactor {
    /// Who this mesh says it is in the hello of every dial.
    me: PeerKind,
    n: usize,
    cfg: MeshConfig,
    host: String,
    base_port: u16,
    /// `None` for a client, which only dials, and once closed.
    listener: Option<TcpListener>,
    /// Keyed by this reactor's own tokens, which no peer picks, so the map
    /// hashes them with [`IdHash`], not SipHash.
    conns: HashMap<u64, Conn, IdHash>,
    next_token: u64,
    /// Per-replica outbound queues (a replica's own is unused).
    queues: Vec<FrameQueue>,
    links: Vec<Link>,
    ever_connected: Vec<bool>,
    /// The token of each client's newest connection: its responses go
    /// out on that connection's queue.
    clients: HashMap<u32, u64>,
    /// Frames read and self-addressed sends not taken yet, in order.
    ready: VecDeque<Inbound>,
    /// Set by [`Reactor::close`]: no frame is queued, read or written
    /// after it.
    closed: bool,
    pub(crate) stats: NetStatsSnapshot,
    /// Backoff jitter.
    rng: SplitMix64,
    /// The attached observer: queue gauges, transport counters and the
    /// send-stall histogram go out through it.
    pub(crate) obs: Obs,
    /// Counter values already published to the observer.
    emitted: NetStatsSnapshot,
    last_tick: Instant,
    /// [`METRICS_INTERVAL`]; tests shorten or stretch it.
    pub(crate) metrics_interval: Duration,
    /// Turns taken so far (tests bound it to show the loop does not spin).
    pub(crate) turns: u64,
    /// The interest set: the listener and every connection.
    epoll: Epoll,
    /// What one wait reports, and the tokens [`Reactor::flush_connected`]
    /// flushes. Kept between turns so a turn allocates nothing.
    events: Vec<EpollEvent>,
    tokens: Vec<u64>,
    /// The frames one read decodes, drained into `ready`, and the bytes
    /// of the frame being encoded: kept, so a read allocates nothing for
    /// its frames and an encode nothing but the frame.
    decoded: Vec<Message>,
    encoding: Vec<u8>,
    /// The one buffer every connection reads into; a connection keeps
    /// only a frame the read left incomplete.
    read_buf: Box<[u8]>,
}

impl Reactor {
    /// Build the reactor of one mesh. A replica binds its listener; a
    /// client binds nothing and only dials. The replica ports
    /// `base_port + i` for `i < n` must fit in a `u16`
    /// ([`crate::mesh::Mesh::start_with`] checks).
    pub(crate) fn start(
        me: PeerKind,
        n: usize,
        host: &str,
        base_port: u16,
        cfg: MeshConfig,
    ) -> std::io::Result<Reactor> {
        let epoll = Epoll::new()?;
        // The tag keeps client i's backoff jitter apart from replica i's.
        let (listener, tag, id) = match me {
            PeerKind::Replica(id) => {
                let listener =
                    TcpListener::bind((host, cfg.listen_port.unwrap_or(base_port + id as u16)))?;
                listener.set_nonblocking(true)?;
                epoll.add(listener.as_raw_fd(), LISTENER_TOKEN, EPOLLIN)?;
                (Some(listener), 0u64, id)
            }
            PeerKind::Client(id) => (None, 1, id),
        };
        Ok(Reactor {
            me,
            n,
            cfg,
            host: host.to_string(),
            base_port,
            listener,
            conns: HashMap::default(),
            next_token: 0,
            queues: (0..n).map(|_| FrameQueue::new()).collect(),
            links: (0..n).map(|_| Link::Idle).collect(),
            ever_connected: vec![false; n],
            clients: HashMap::new(),
            ready: VecDeque::new(),
            closed: false,
            stats: NetStatsSnapshot::default(),
            rng: SplitMix64::new(0x9E37_79B9 ^ ((id as u64) << 32 | tag << 16 | base_port as u64)),
            obs: Obs::noop(),
            emitted: NetStatsSnapshot::default(),
            last_tick: Instant::now(),
            metrics_interval: METRICS_INTERVAL,
            turns: 0,
            epoll,
            events: vec![EpollEvent::default(); EVENTS_PER_WAIT],
            tokens: Vec::new(),
            decoded: Vec::new(),
            encoding: Vec::new(),
            read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
        })
    }

    /// Send to a replica: to this mesh's own [`Reactor::take`] queue if it
    /// is `to`, else encoded into `to`'s bounded queue, shedding its
    /// oldest frames past the caps. Goes out at the top of the next turn.
    pub(crate) fn send_replica(&mut self, to: ReplicaId, msg: Message) {
        if PeerKind::Replica(to.0) == self.me {
            self.ready.push_back(Inbound::FromReplica(to, msg));
        } else {
            let frame = encode_frame_in(&mut self.encoding, &msg);
            self.queue_replica(to.0, frame);
        }
    }

    /// Send to every replica; a replica's own copy is queued for
    /// [`Reactor::take`]. The frame is encoded once and shared by every
    /// peer's queue.
    pub(crate) fn broadcast(&mut self, msg: Message) {
        let frame = encode_frame_in(&mut self.encoding, &msg);
        for peer in 0..self.n as u32 {
            if PeerKind::Replica(peer) != self.me {
                self.queue_replica(peer, frame.clone());
            }
        }
        if let PeerKind::Replica(me) = self.me {
            self.ready.push_back(Inbound::FromReplica(ReplicaId(me), msg));
        }
    }

    /// Send a response to a connected client, on its newest connection;
    /// dropped if none is open.
    pub(crate) fn send_client(&mut self, to: ClientId, msg: Message) {
        let Some(conn) = self.clients.get(&to.0).and_then(|token| self.conns.get_mut(token)) else {
            return;
        };
        if let ConnKind::ClientIn { queue, .. } = &mut conn.kind {
            queue.push(encode_frame_in(&mut self.encoding, &msg));
            self.stats.frames_shed +=
                queue.enforce_caps(self.cfg.queue_frames, self.cfg.queue_bytes);
        }
    }

    fn queue_replica(&mut self, peer: u32, frame: Frame) {
        if self.closed || peer as usize >= self.n {
            return;
        }
        let queue = &mut self.queues[peer as usize];
        queue.push(frame);
        self.stats.frames_shed += queue.enforce_caps(self.cfg.queue_frames, self.cfg.queue_bytes);
    }

    /// The next frame read or sent to self, if any; turns nothing.
    pub(crate) fn take(&mut self) -> Option<Inbound> {
        self.ready.pop_front()
    }

    /// Has [`Reactor::close`] run?
    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    /// One pass of the event loop: dial and flush what is queued, sleep
    /// in `epoll_wait` for at most `wait` (less if a deadline of the
    /// reactor's own comes first), then accept, read and queue every
    /// decoded frame for [`Reactor::take`]. Does nothing once closed.
    pub(crate) fn turn(&mut self, wait: Duration) {
        if self.closed {
            return;
        }
        self.turns += 1;
        self.dial_pending();
        self.flush_connected();
        self.tick_metrics(false);

        let timeout = self.poll_timeout_ms(wait);
        let mut events = take(&mut self.events);
        let ready = self.epoll.wait(&mut events, timeout).unwrap_or(0);
        for event in &events[..ready] {
            match event.token() {
                LISTENER_TOKEN => self.accept_new(),
                token => {
                    if event.readable() {
                        self.handle_readable(token);
                    }
                    if event.writable() && self.conns.contains_key(&token) {
                        self.flush_token(token);
                    }
                }
            }
        }
        self.events = events;
    }

    /// Sever every connection and release the listen port, if any.
    /// Queues are emptied so a mesh rebuilt on the same port starts
    /// clean; the final tick publishes whatever counters remain. Frames
    /// already read stay for [`Reactor::take`]. Idempotent.
    pub(crate) fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.conns.clear();
        self.clients.clear();
        self.listener = None;
        self.queues.iter_mut().for_each(FrameQueue::clear);
        self.tick_metrics(true);
        self.obs.flush();
    }

    /// Current depth of every peer's outbound queue:
    /// `(peer, frames, bytes)` for each replica but this one. The same
    /// numbers the metrics tick publishes as `net_out_queue_*` gauges,
    /// read on demand for the `/status` introspection endpoint.
    pub(crate) fn queue_depths(&self) -> Vec<(usize, u64, u64)> {
        (0..self.n)
            .filter(|&peer| PeerKind::Replica(peer as u32) != self.me)
            .map(|peer| (peer, self.queues[peer].len() as u64, self.queues[peer].bytes() as u64))
            .collect()
    }

    /// Milliseconds `epoll_wait` may sleep: until `wait` runs out, a
    /// backoff with pending traffic expires, or the next metrics tick is
    /// due. `epoll_wait(2)` counts whole milliseconds, so the wait is
    /// rounded *up*: a deadline 200 µs away costs one 1 ms sleep, where
    /// rounding down would spin on a zero timeout until it passed.
    /// Without an observer there is no tick, and the clock is read only
    /// for a backoff with traffic waiting.
    fn poll_timeout_ms(&self, wait: Duration) -> i32 {
        let mut nearest = wait;
        let mut now = None;
        let mut now = || *now.get_or_insert_with(Instant::now);
        if self.obs.enabled() {
            nearest = nearest
                .min((self.last_tick + self.metrics_interval).saturating_duration_since(now()));
        }
        for (peer, link) in self.links.iter().enumerate() {
            if let Link::Backoff { until, .. } = link {
                if !self.queues[peer].is_empty() {
                    nearest = nearest.min(until.saturating_duration_since(now()));
                }
            }
        }
        nearest.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
    }

    /// Dial every disconnected peer that has traffic waiting and whose
    /// backoff (if any) has expired.
    fn dial_pending(&mut self) {
        for peer in 0..self.n {
            if PeerKind::Replica(peer as u32) == self.me
                || matches!(self.links[peer], Link::Connected { .. })
                || self.queues[peer].is_empty()
            {
                continue;
            }
            // Read only for a link that may dial: a connected mesh's turn
            // reads no clock here.
            let now = Instant::now();
            if matches!(self.links[peer], Link::Backoff { until, .. } if until > now) {
                continue;
            }
            match self
                .dial(peer as u32)
                .and_then(|s| self.insert_conn(s, ConnKind::ReplicaOut(peer as u32)))
            {
                Ok(token) => {
                    if self.ever_connected[peer] {
                        self.stats.reconnects += 1;
                        if self.obs.enabled() {
                            self.obs.counter("net_reconnects", peer as u32, 1);
                        }
                    }
                    self.ever_connected[peer] = true;
                    self.links[peer] = Link::Connected { token };
                }
                Err(_) => {
                    let delay = match self.links[peer] {
                        Link::Backoff { delay, .. } => (delay * 2).min(RECONNECT_MAX),
                        _ => RECONNECT_BASE,
                    };
                    let jitter = jittered(delay, &mut self.rng);
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
        let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        if let Some(bytes) = self.cfg.send_buffer {
            let _ = set_send_buffer(stream.as_raw_fd(), bytes);
        }
        stream.write_all(&hello_bytes(self.me))?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    /// Register a connection for reads and hand back its token.
    fn insert_conn(&mut self, stream: TcpStream, kind: ConnKind) -> std::io::Result<u64> {
        let token = self.next_token;
        self.epoll.add(stream.as_raw_fd(), token, EPOLLIN)?;
        self.next_token += 1;
        self.conns.insert(
            token,
            Conn { stream, kind, reader: FrameReader::new(), want_write: false, stall_since: None },
        );
        Ok(token)
    }

    /// Ask for `EPOLLOUT` on `token` while a flush is blocked, and stop
    /// once it is not; the interest set changes only when `want` does.
    /// A connection the kernel will not re-register is dropped.
    fn set_want_write(&mut self, token: u64, want: bool) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.want_write == want {
            return;
        }
        conn.want_write = want;
        let interest = if want { EPOLLIN | EPOLLOUT } else { EPOLLIN };
        if self.epoll.modify(conn.stream.as_raw_fd(), token, interest).is_err() {
            self.disconnect(token);
        }
    }

    fn accept_new(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    // One the kernel will not register is closed at once.
                    let _ = self.insert_conn(stream, ConnKind::HandshakeIn { buf: [0; 5], got: 0 });
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
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let queue = match &mut conn.kind {
            ConnKind::ReplicaOut(p) => &mut self.queues[*p as usize],
            ConnKind::ClientIn { queue, .. } => queue,
            _ => return,
        };
        let res = (!queue.is_empty()).then(|| queue.write_to(&mut conn.stream));
        match res {
            Some(res) => self.finish_flush(token, res),
            None => self.set_want_write(token, false),
        }
    }

    fn finish_flush(&mut self, token: u64, res: std::io::Result<crate::framing::WriteProgress>) {
        match res {
            Ok(p) => {
                if p.bytes > 0 {
                    self.stats.tx_bytes += p.bytes;
                    self.stats.tx_frames += p.frames;
                    self.stats.write_calls += p.calls;
                }
                let Some(conn) = self.conns.get_mut(&token) else { return };
                if p.would_block {
                    if conn.stall_since.is_none() {
                        conn.stall_since = Some(Instant::now());
                    }
                } else if let Some(t0) = conn.stall_since.take() {
                    if self.obs.enabled() {
                        self.obs.observe_nanos("net_send_stall_ns", t0.elapsed().as_nanos() as u64);
                    }
                }
                self.set_want_write(token, p.would_block);
            }
            Err(_) => self.disconnect(token),
        }
    }

    fn handle_readable(&mut self, token: u64) {
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
                    conn.kind = ConnKind::ClientIn { id, queue: FrameQueue::new() };
                    // A reconnecting client's responses take the new
                    // connection; the old one drains what it holds.
                    self.clients.insert(id, token);
                }
                Err(_) => {
                    self.disconnect(token);
                    return;
                }
            }
        }

        let Some(conn) = self.conns.get_mut(&token) else { return };
        let mut decoded = take(&mut self.decoded);
        let outcome = conn.reader.read_from(&mut conn.stream, &mut self.read_buf, &mut decoded);
        match outcome {
            Ok(o) => {
                if o.bytes > 0 {
                    self.stats.rx_bytes += o.bytes;
                    self.stats.rx_frames += decoded.len() as u64;
                    self.stats.read_calls += o.calls;
                }
                let kind = &conn.kind;
                self.ready.extend(decoded.drain(..).filter_map(|msg| match kind {
                    ConnKind::ReplicaIn(id) | ConnKind::ReplicaOut(id) => {
                        Some(Inbound::FromReplica(ReplicaId(*id), msg))
                    }
                    ConnKind::ClientIn { id, .. } => Some(Inbound::FromClient(ClientId(*id), msg)),
                    // The hello is read above, before any frame.
                    ConnKind::HandshakeIn { .. } => None,
                }));
                if o.eof {
                    self.disconnect(token);
                }
            }
            Err(_) => self.disconnect(token),
        }
        // What a failed drain decoded before its error goes with the
        // connection.
        decoded.clear();
        self.decoded = decoded;
    }

    /// Deregister and close a connection; its token is never reused.
    fn disconnect(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else { return };
        // Before the socket closes. Fails only if the fd was never added.
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        match conn.kind {
            ConnKind::ReplicaOut(peer) => {
                // A half-sent frame cannot resume on a new connection.
                self.queues[peer as usize].abandon_partial();
                let delay = RECONNECT_BASE;
                let jitter = jittered(delay, &mut self.rng);
                self.links[peer as usize] = Link::Backoff { until: Instant::now() + jitter, delay };
            }
            // Only remove the registration if it is still this
            // connection's (a reconnected client may have replaced it).
            ConnKind::ClientIn { id, .. } if self.clients.get(&id) == Some(&token) => {
                self.clients.remove(&id);
            }
            _ => {}
        }
    }

    /// Publish counters/gauges to the attached observer. Runs at
    /// `metrics_interval` (and once at shutdown with `force`).
    fn tick_metrics(&mut self, force: bool) {
        // With no observer there is nothing to publish: no clock is read.
        if !self.obs.enabled() || (!force && self.last_tick.elapsed() < self.metrics_interval) {
            return;
        }
        self.last_tick = Instant::now();
        let snap = self.stats;
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
                self.obs.counter(name, 0, delta);
            }
        }
        self.emitted = snap;
        for (peer, frames, bytes) in self.queue_depths() {
            self.obs.gauge("net_out_queue_frames", peer as u32, frames);
            self.obs.gauge("net_out_queue_bytes", peer as u32, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::encode_frame;
    use crate::mesh::Mesh;
    use crate::poll::{poll_fds, set_recv_buffer, PollFd, POLLIN};
    use crate::test_ports::free_base_port;
    use hs1_types::message::{ProposeMsg, ReplyKind, ResponseMsg};
    use hs1_types::{Block, Certificate, Slot, Transaction, View};

    fn request(seq: u64) -> Message {
        Message::Request(Transaction::kv_write(1, seq, seq, seq))
    }

    /// Turn `reactor` until `done` holds, failing after five seconds.
    fn turn_until(reactor: &mut Reactor, mut done: impl FnMut(&mut Reactor) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done(reactor) {
            assert!(Instant::now() < deadline, "gave up waiting");
            reactor.turn(Duration::from_millis(5));
        }
    }

    fn response(seq: u64) -> Message {
        Message::Response(ResponseMsg {
            tx: Transaction::kv_write(1, seq, seq, seq).id,
            block: Block::genesis_id(),
            result: Block::genesis_id().0,
            kind: ReplyKind::Speculative,
            view: View(1),
        })
    }

    fn seqs(got: &[Inbound]) -> Vec<u64> {
        got.iter()
            .filter_map(|inbound| match inbound {
                Inbound::FromReplica(ReplicaId(1), Message::Request(tx)) => Some(tx.id.seq),
                _ => None,
            })
            .collect()
    }

    /// A bare mesh is turned by the thread that sends: by the time
    /// `send_replica` returns it has dialed the peer and written the hello
    /// and the frame. The peer is a plain socket, and nothing calls into
    /// the mesh again while it accepts and reads.
    #[test]
    fn a_bare_mesh_has_written_the_frame_when_send_replica_returns() {
        let base = free_base_port(2);
        let peer = TcpListener::bind(("127.0.0.1", base + 1)).expect("peer listener");
        let mesh = Mesh::start(ReplicaId(0), 2, "127.0.0.1", base).expect("mesh");
        mesh.send_replica(ReplicaId(1), request(7));

        let mut ready = [PollFd::new(peer.as_raw_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut ready, 5_000).expect("poll"), 1, "the mesh dialed replica 1");
        let (s, _) = peer.accept().expect("accept");
        let frame = encode_frame(&request(7));
        assert_eq!(
            read_exactly(s, 5 + frame.len()),
            [&hello_bytes(PeerKind::Replica(0))[..], &frame].concat()
        );
    }

    /// The first `len` bytes `s` reads, waiting at most five seconds.
    fn read_exactly(mut s: TcpStream, len: usize) -> Vec<u8> {
        s.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
        let mut buf = vec![0; len];
        s.read_exact(&mut buf).expect("the bytes");
        buf
    }

    /// A client mesh binds no port, and its dial says who it is: the first
    /// bytes a replica reads are the client's hello, then its request.
    #[test]
    fn a_client_mesh_binds_nothing_and_says_client_in_its_hello() {
        let base = free_base_port(2);
        let client = Mesh::client(ClientId(9), 2, "127.0.0.1", base).expect("client mesh");
        for port in base..base + 2 {
            TcpListener::bind(("127.0.0.1", port))
                .expect("a client mesh leaves replica ports free");
        }
        let replica = TcpListener::bind(("127.0.0.1", base + 1)).expect("replica 1");
        client.send_replica(ReplicaId(1), request(3));

        let mut ready = [PollFd::new(replica.as_raw_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut ready, 5_000).expect("poll"), 1, "the client dialed replica 1");
        let (s, _) = replica.accept().expect("accept");
        assert_eq!(read_exactly(s, 5), hello_bytes(PeerKind::Client(9)));
    }

    /// A replica answers a client on the connection the client dialed, and
    /// a request the client queues while the replica is down reaches the
    /// replica's next mesh on the same port, over one redial.
    #[test]
    fn a_client_mesh_gets_replies_and_redials_a_restarted_replica() {
        let base = free_base_port(1);
        let client = Mesh::client(ClientId(4), 1, "127.0.0.1", base).expect("client mesh");
        let replica = Mesh::start(ReplicaId(0), 1, "127.0.0.1", base).expect("replica mesh");
        let recv = |mesh: &Mesh| mesh.inbox.recv_timeout(Duration::from_secs(5)).expect("a frame");

        client.broadcast(request(1));
        match recv(&replica) {
            Inbound::FromClient(ClientId(4), msg) => assert_eq!(msg, request(1)),
            _ => panic!("expected client 4's request"),
        }
        let reply = response(1);
        replica.reactor().send_client(ClientId(4), reply.clone());
        replica.reactor().turn(Duration::ZERO);
        match recv(&client) {
            Inbound::FromReplica(ReplicaId(0), msg) => assert_eq!(msg, reply),
            _ => panic!("expected replica 0's response"),
        }

        // The replica goes down; the client sees its connection close
        // before it queues the next request, so the request waits for the
        // redial instead of going into a dying socket.
        replica.shutdown();
        turn_until(&mut client.reactor(), |r| r.conns.is_empty());
        client.send_replica(ReplicaId(0), request(2));
        let restarted = Mesh::start(ReplicaId(0), 1, "127.0.0.1", base).expect("rebind");
        let mut got = None;
        turn_until(&mut client.reactor(), |_| {
            got =
                got.take().or_else(|| restarted.inbox.recv_timeout(Duration::from_millis(1)).ok());
            got.is_some()
        });
        match got {
            Some(Inbound::FromClient(ClientId(4), msg)) => assert_eq!(msg, request(2)),
            _ => panic!("expected client 4's queued request"),
        }
        assert_eq!(client.reactor().stats.reconnects, 1);
    }

    /// A client that dials again under the same id and then hangs up its
    /// first connection still gets its responses: they go out on the
    /// newest connection, and the old connection's close leaves that
    /// registration alone.
    #[test]
    fn a_client_that_redials_gets_responses_on_its_new_connection() {
        let base = free_base_port(1);
        let mesh = Mesh::start(ReplicaId(0), 1, "127.0.0.1", base).expect("mesh");
        let dial = |seq: u64| {
            let mut s = TcpStream::connect(("127.0.0.1", base)).expect("dial");
            s.write_all(&hello_bytes(PeerKind::Client(5))).expect("hello");
            s.write_all(&encode_frame(&request(seq))).expect("request");
            s
        };
        let recv = || mesh.inbox.recv_timeout(Duration::from_secs(5)).expect("a request");
        let first = dial(1);
        assert!(matches!(recv(), Inbound::FromClient(ClientId(5), _)));
        let second = dial(2);
        assert!(matches!(recv(), Inbound::FromClient(ClientId(5), _)));
        drop(first);
        turn_until(&mut mesh.reactor(), |r| r.conns.len() == 1);

        let reply = response(2);
        mesh.reactor().send_client(ClientId(5), reply.clone());
        mesh.reactor().turn(Duration::ZERO);
        let frame = encode_frame(&reply);
        assert_eq!(
            read_exactly(second, frame.len()),
            frame[..],
            "the reply took the new connection"
        );
    }

    /// A peer that hangs up and dials again, one connection at a time and
    /// then several back to back, has every frame delivered. Each closed
    /// connection leaves the interest set before its fd closes, so an fd
    /// number the kernel hands the next `accept` registers afresh under a
    /// new token, and an event for a connection closed earlier in the same
    /// batch is skipped.
    #[test]
    fn a_peer_that_redials_still_has_its_frames_delivered() {
        let base = free_base_port(2);
        let mesh = Mesh::start(ReplicaId(0), 2, "127.0.0.1", base).expect("mesh");
        let mut reactor = mesh.reactor();
        let mut got = Vec::new();
        let dial_send_close = |seq: u64| {
            let mut s = TcpStream::connect(("127.0.0.1", base)).expect("dial");
            s.write_all(&hello_bytes(PeerKind::Replica(1))).expect("hello");
            s.write_all(&encode_frame(&request(seq))).expect("frame");
        };
        for seq in 0..6 {
            dial_send_close(seq);
            turn_until(&mut reactor, |r| {
                got.extend(r.ready.drain(..));
                seqs(&got).len() > seq as usize && r.conns.is_empty()
            });
        }
        for seq in 6..12 {
            dial_send_close(seq);
        }
        turn_until(&mut reactor, |r| {
            got.extend(r.ready.drain(..));
            seqs(&got).len() == 12 && r.conns.is_empty()
        });
        let mut delivered = seqs(&got);
        assert_eq!(delivered[..6], [0, 1, 2, 3, 4, 5], "one connection at a time: in order");
        delivered.sort_unstable();
        assert_eq!(delivered, (0..12).collect::<Vec<_>>(), "every frame, once");
    }

    /// A replica and a client write their frames a few bytes at a time,
    /// turn about, so nearly every read ends inside a frame. Both read
    /// through the reactor's one buffer, and each one's frames arrive
    /// whole, in order, and under its own name.
    #[test]
    fn two_peers_cut_mid_frame_read_through_one_buffer() {
        let base = free_base_port(2);
        let mesh = Mesh::start(ReplicaId(0), 2, "127.0.0.1", base).expect("mesh");
        let mut reactor = mesh.reactor();
        let dial = |hello: PeerKind, seqs: std::ops::Range<u64>| {
            let s = TcpStream::connect(("127.0.0.1", base)).expect("dial");
            s.set_nodelay(true).expect("nodelay");
            let mut bytes = hello_bytes(hello).to_vec();
            seqs.for_each(|seq| bytes.extend_from_slice(&encode_frame(&request(seq))));
            (s, bytes)
        };
        let mut peers = [dial(PeerKind::Replica(1), 0..20), dial(PeerKind::Client(7), 100..120)];
        let mut got = Vec::new();
        let longest = peers.iter().map(|(_, bytes)| bytes.len()).max().unwrap_or(0);
        for at in (0..longest).step_by(7) {
            for (s, bytes) in &mut peers {
                if at < bytes.len() {
                    s.write_all(&bytes[at..(at + 7).min(bytes.len())]).expect("write");
                }
                reactor.turn(Duration::from_millis(1));
                got.extend(reactor.ready.drain(..));
            }
        }
        turn_until(&mut reactor, |r| {
            got.extend(r.ready.drain(..));
            got.len() == 40
        });
        let from_client: Vec<u64> = got
            .iter()
            .filter_map(|inbound| match inbound {
                Inbound::FromClient(ClientId(7), Message::Request(tx)) => Some(tx.id.seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs(&got), (0..20).collect::<Vec<_>>(), "replica 1's frames");
        assert_eq!(from_client, (100..120).collect::<Vec<_>>(), "client 7's frames");
    }

    /// `EPOLLOUT` is asked for while a flush is blocked on a full send
    /// buffer and dropped once the queue drains: an idle link that kept it
    /// would be reported writable on every wait, and the loop would spin.
    #[test]
    fn epollout_is_armed_on_would_block_and_cleared_after_the_drain() {
        let base = free_base_port(2);
        // Replica 1 is a bare socket that reads only when told to, with a
        // small receive window so the stall reaches the sender quickly.
        let peer = TcpListener::bind(("127.0.0.1", base + 1)).expect("peer listener");
        set_recv_buffer(peer.as_raw_fd(), 4096).expect("SO_RCVBUF");
        let cfg = MeshConfig {
            send_buffer: Some(4096),
            queue_frames: 1 << 20,
            queue_bytes: 1 << 30,
            ..MeshConfig::default()
        };
        let mesh = Mesh::start_with(ReplicaId(0), 2, "127.0.0.1", base, cfg).expect("mesh");
        mesh.reactor().metrics_interval = Duration::from_secs(10);
        let txs: Vec<Transaction> = (0..512).map(|i| Transaction::kv_write(0, i, i, i)).collect();
        let block = Block::new(ReplicaId(0), View(1), Slot::FIRST, Certificate::genesis(), txs);
        let propose =
            Message::Propose(ProposeMsg { block: std::sync::Arc::new(block), commit_cert: None });
        let frames = 64;
        let total = 5 + frames * encode_frame(&propose).len();
        for _ in 0..frames {
            mesh.send_replica(ReplicaId(1), propose.clone());
        }

        let mut reactor = mesh.reactor();
        turn_until(&mut reactor, |r| r.conns.values().any(|c| c.want_write));
        let (mut sink, _) = peer.accept().expect("the mesh dialed replica 1");
        sink.set_nonblocking(true).expect("nonblocking");
        let mut read = 0;
        let mut buf = vec![0u8; 64 * 1024];
        turn_until(&mut reactor, |r| {
            while let Ok(n) = sink.read(&mut buf) {
                read += n;
                if n == 0 {
                    break;
                }
            }
            read == total && !r.conns.values().any(|c| c.want_write)
        });
        assert_eq!(reactor.queue_depths(), vec![(1, 0, 0)], "the queue drained");

        // Idle now: each turn sleeps out its wait instead of waking at once
        // on a writable socket.
        let (turns, start) = (reactor.turns, Instant::now());
        while start.elapsed() < Duration::from_millis(100) {
            reactor.turn(Duration::from_millis(20));
        }
        let idle_turns = reactor.turns - turns;
        assert!(idle_turns <= 8, "{idle_turns} turns in 100 ms with nothing to do");
    }
}
