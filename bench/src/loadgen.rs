//! The load generator: one client id, four sockets, two threads.
//!
//! A BFT client must hear `n − f` replicas, so the one client dials every
//! replica. The sender thread (`lg-send`) writes the seeded request stream
//! — everything due at a wake-up goes out as one `write` per socket — and
//! the receiver thread (`lg-recv`) sleeps in `poll(2)` on the four sockets
//! and tallies responses. Both are named `lg-*` so their CPU time can be
//! reported on its own line and kept out of the system's.
//!
//! A request still undecided [`RESUBMIT_AFTER_NS`] after it was written is
//! written again under a fresh transaction id (`stream::resubmission`), as
//! an application would: the replicas never re-propose the transactions of
//! an orphaned block and drop a repeated id, so a request caught in a
//! failed view gets no answer however long the client waits. A request is
//! final when any of its submissions is; its latency runs from the first.
//!
//! Finality is decided by the benchmark's own [`Tally`], once per
//! sequence number. `hs1_core::client::FinalityTracker` is the reference
//! it is tested against, but it cannot serve here: it can only forget
//! decided transactions wholesale (`gc`), after which late replies
//! re-finalize them — on HotStuff-2 the third and fourth committed reply
//! form a second `f + 1` quorum.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use hs1_net::framing::{hello_bytes, FrameReader, PeerKind};
use hs1_net::poll::{poll_fds, PollFd, POLLIN};
use hs1_types::message::ResponseMsg;
use hs1_types::{Message, ReplyKind};

use crate::stats::SEC_NS;
use crate::stream::{push_frame, request_of, RequestStream, CLIENT};

/// How the sender paces itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// Fixed schedule: request `i` is due at `start + i / rate`, whether
    /// or not earlier ones have completed. Latency runs from the due time.
    Open { rate: u64 },
    /// Keep `outstanding` requests in flight; send the next when one
    /// completes. Latency runs from the send.
    Closed { outstanding: u64 },
}

/// Most requests one wake-up will put in a single write (bounds the
/// catch-up burst after a long stall).
const MAX_BURST: u64 = 4096;

/// How long the client waits for a request's finality before it submits
/// the request again: ten view timers, far beyond any latency a live view
/// gives, and half the drain, so that a request due at the very end of
/// the window still gets its second chance.
pub const RESUBMIT_AFTER_NS: u64 = SEC_NS;

/// Never-written marker in the per-sequence time arrays.
pub const UNSET: u64 = u64::MAX;

/// A 64-bit prefix of a block id or result digest: enough to tell groups
/// apart, small enough to keep a tally in 48 bytes.
fn prefix(bytes: &[u8; 32]) -> u64 {
    u64::from_be_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// Replies to one transaction that name the same block and result.
#[derive(Clone, Copy, Default, Debug)]
struct Group {
    block: u64,
    result: u64,
    /// Bitmask of replicas that sent this (block, result).
    who: u8,
    committed: u8,
}

/// Everything heard about one sequence number.
#[derive(Clone, Copy, Default, Debug)]
pub struct Slot {
    groups: [Group; 2],
    used: u8,
    /// Replies naming a third or later distinct (block, result).
    overflow: u8,
    /// 1 + index of the group that reached a quorum; 0 while undecided.
    decided: u8,
    /// Replies to the decided group that arrived after the decision, and
    /// how many of them were committed-kind.
    late: u8,
    late_committed: u8,
    /// A tracker that forgot the decision would have decided again.
    redecided: bool,
    /// A second (block, result) also gathered a quorum.
    conflict: bool,
    /// Two replicas reported different results for the same block.
    diverged: bool,
}

impl Slot {
    /// Block the client was told the transaction executed in.
    pub fn final_block(&self) -> Option<u64> {
        self.decided.checked_sub(1).map(|g| self.groups[g as usize].block)
    }

    /// Did two different (block, result) pairs each reach a quorum?
    pub fn conflict(&self) -> bool {
        self.conflict
    }

    /// Did replicas disagree on the result of executing one block?
    pub fn diverged(&self) -> bool {
        self.diverged
    }

    /// Would a tracker that forgot the decision have decided again?
    pub fn redecided(&self) -> bool {
        self.redecided
    }

    /// Distinct (block, result) pairs replicas reported.
    pub fn distinct_groups(&self) -> u32 {
        self.used as u32 + self.overflow as u32
    }
}

/// What one reply did to its transaction's tally.
#[derive(PartialEq, Eq, Debug)]
pub enum Heard {
    /// First reply for this sequence number.
    First,
    /// This reply completed a finality quorum.
    Final,
    Other,
}

/// The client's finality rule (paper §3, §4.1): `n − f` matching replies
/// of any kind on a speculating protocol, or `f + 1` matching committed
/// replies.
#[derive(Clone, Copy)]
struct Rule {
    n_minus_f: u8,
    f_plus_1: u8,
    speculative: bool,
}

impl Rule {
    fn met(self, total: u8, committed: u8) -> bool {
        (self.speculative && total >= self.n_minus_f) || committed >= self.f_plus_1
    }
}

/// Per-sequence-number reply tallies; each transaction is decided once.
pub struct Tally {
    rule: Rule,
    /// First submissions, by sequence number.
    pub slots: Vec<Slot>,
    /// Resubmissions, by the sequence number they went out under.
    pub resubmitted: HashMap<u64, Slot>,
    /// Replies whose sequence number the stream never issued.
    pub stray: u64,
}

impl Tally {
    pub fn new(n: usize, f: usize, speculative: bool) -> Tally {
        let rule = Rule { n_minus_f: (n - f) as u8, f_plus_1: (f + 1) as u8, speculative };
        Tally { rule, slots: Vec::new(), resubmitted: HashMap::new(), stray: 0 }
    }

    /// Feed one reply. `issued` is how many sequence numbers the stream
    /// has handed out; replies beyond it (or for another client) are
    /// strays. A resubmission is tallied on its own: [`Heard::First`] and
    /// [`Heard::Final`] are then about that submission, not the request.
    pub fn on_response(&mut self, from: u32, r: &ResponseMsg, issued: u64) -> Heard {
        let seq = request_of(r.tx.seq);
        if r.tx.client != CLIENT || seq >= issued || from >= 8 {
            self.stray += 1;
            return Heard::Other;
        }
        if seq as usize >= self.slots.len() {
            self.slots.resize(issued as usize, Slot::default());
        }
        let rule = self.rule;
        let slot = if seq == r.tx.seq {
            &mut self.slots[seq as usize]
        } else {
            self.resubmitted.entry(r.tx.seq).or_default()
        };
        let first = slot.used == 0;
        let (block, result) = (prefix(&r.block.0 .0), prefix(&r.result.0));
        let bit = 1u8 << from;
        let committed = r.kind == ReplyKind::Committed;
        let at = slot.groups[..slot.used as usize]
            .iter()
            .position(|g| g.block == block && g.result == result);
        let idx = match at {
            Some(i) => i,
            None if (slot.used as usize) < slot.groups.len() => {
                slot.diverged |= slot.groups[..slot.used as usize].iter().any(|g| g.block == block);
                slot.groups[slot.used as usize] = Group { block, result, who: 0, committed: 0 };
                slot.used += 1;
                slot.used as usize - 1
            }
            None => {
                slot.overflow = slot.overflow.saturating_add(1);
                return Heard::Other;
            }
        };
        let group = &mut slot.groups[idx];
        if group.who & bit != 0 {
            return Heard::Other; // duplicate responder
        }
        group.who |= bit;
        group.committed += committed as u8;
        if slot.decided == 0 {
            if rule.met(group.who.count_ones() as u8, group.committed) {
                slot.decided = idx as u8 + 1;
                return Heard::Final;
            }
        } else if slot.decided as usize == idx + 1 {
            slot.late += 1;
            slot.late_committed += committed as u8;
            slot.redecided |= rule.met(slot.late, slot.late_committed);
        } else {
            slot.conflict |= rule.met(group.who.count_ones() as u8, group.committed);
        }
        if first {
            Heard::First
        } else {
            Heard::Other
        }
    }
}

/// The client's four connections, identified to the replicas.
pub struct ClientConn {
    streams: Vec<TcpStream>,
}

impl ClientConn {
    /// Dial `n` replicas at `base_port + i` and send the client hello.
    pub fn dial(n: usize, base_port: u16) -> std::io::Result<ClientConn> {
        let mut streams = Vec::with_capacity(n);
        for i in 0..n {
            let mut s = TcpStream::connect(("127.0.0.1", base_port + i as u16))?;
            s.set_nodelay(true)?;
            s.write_all(&hello_bytes(PeerKind::Client(CLIENT.0)))?;
            streams.push(s);
        }
        Ok(ClientConn { streams })
    }
}

/// When the generator starts, measures and stops, in nanoseconds since
/// the run's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub epoch: Instant,
    /// First request due (warm-up begins).
    pub start_ns: u64,
    /// Sending stops here (the measured window ends).
    pub stop_ns: u64,
    /// The receiver gives up on stragglers here.
    pub drain_ns: u64,
}

impl Schedule {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn sleep_until(&self, at_ns: u64) {
        if let Some(wait) = at_ns.checked_sub(self.now_ns()) {
            std::thread::sleep(Duration::from_nanos(wait));
        }
    }
}

/// State the two generator threads share.
struct Shared {
    /// Requests that are final (the closed loop's credit source).
    returned: AtomicU64,
    /// The oldest request that is not final yet: the one the sender
    /// resubmits when it has waited too long.
    oldest_waiting: AtomicU64,
    /// Sequence numbers handed to the sockets so far.
    sent: AtomicU64,
    /// The window is over: no request will be sent for the first time.
    all_sent: AtomicBool,
}

/// Raw observations of one run, indexed by sequence number. Times are
/// nanoseconds since the schedule's epoch; [`UNSET`] means "never".
pub struct LoadReport {
    pub load: Load,
    pub start_ns: u64,
    /// When each request was written to the sockets.
    pub sent_ns: Vec<u64>,
    pub first_reply_ns: Vec<u64>,
    pub final_ns: Vec<u64>,
    /// What was heard about each request's first submission or, if that
    /// one was never decided, about the resubmission that was.
    pub slots: Vec<Slot>,
    /// Requests the client gave up waiting for and submitted again, once
    /// per resubmission, ascending.
    pub resubmitted: Vec<u64>,
    pub stray: u64,
    /// The sender could not write to this many sockets (they closed).
    pub dead_sockets: usize,
}

impl LoadReport {
    pub fn issued(&self) -> usize {
        self.sent_ns.len()
    }

    /// When request `seq` was due: its slot in the fixed schedule (open
    /// loop) or the moment it was sent (closed loop).
    pub fn due_ns(&self, seq: usize) -> u64 {
        match self.load {
            Load::Open { rate } => self.start_ns + seq as u64 * SEC_NS / rate,
            Load::Closed { .. } => self.sent_ns[seq],
        }
    }
}

/// A running generator; [`LoadGen::join`] collects the observations.
pub struct LoadGen {
    sender: JoinHandle<(Vec<u64>, Vec<u64>, usize)>,
    receiver: JoinHandle<(Tally, Vec<u64>, Vec<u64>)>,
    load: Load,
    start_ns: u64,
}

impl LoadGen {
    /// Start both threads. `speculative` selects the client rule: does
    /// the protocol answer before commit?
    pub fn start(
        conn: ClientConn,
        mut stream: RequestStream,
        load: Load,
        schedule: Schedule,
        speculative: bool,
    ) -> std::io::Result<LoadGen> {
        let n = conn.streams.len();
        let f = (n - 1) / 3;
        let shared = Arc::new(Shared {
            returned: AtomicU64::new(0),
            oldest_waiting: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            all_sent: AtomicBool::new(false),
        });
        let mut read_halves = Vec::with_capacity(n);
        for s in &conn.streams {
            read_halves.push(s.try_clone()?);
        }

        let sender_shared = shared.clone();
        let mut write_halves = conn.streams;
        let sender = std::thread::Builder::new().name("lg-send".into()).spawn(move || {
            let mut sent_ns: Vec<u64> = Vec::new();
            let mut resubmitted: Vec<u64> = Vec::new();
            // The last resubmission: (request, attempt, when).
            let mut again: Option<(u64, u64, u64)> = None;
            let mut alive = vec![true; write_halves.len()];
            let mut buf = Vec::with_capacity(64 * 1024);
            schedule.sleep_until(schedule.start_ns);
            loop {
                let now = schedule.now_ns();
                let next = stream.next_seq();
                let sending = now < schedule.stop_ns;
                let waiting = sender_shared.oldest_waiting.load(Ordering::Acquire);
                if !sending {
                    // From here on only the drain's stragglers are served.
                    sender_shared.all_sent.store(true, Ordering::Release);
                    if waiting >= next || now >= schedule.drain_ns {
                        break;
                    }
                }
                buf.clear();
                if waiting < next {
                    let (attempts, since) = match again {
                        Some((seq, attempt, at)) if seq == waiting => (attempt, at),
                        _ => (0, sent_ns[waiting as usize]),
                    };
                    if now >= since + RESUBMIT_AFTER_NS {
                        let tx = stream.resubmission(waiting, attempts + 1);
                        push_frame(&mut buf, &Message::Request(tx));
                        again = Some((waiting, attempts + 1, now));
                        resubmitted.push(waiting);
                    }
                }
                let owed = match load {
                    _ if !sending => 0,
                    Load::Open { rate } => {
                        let due = (now.saturating_sub(schedule.start_ns)) * rate / SEC_NS + 1;
                        due.saturating_sub(next)
                    }
                    Load::Closed { outstanding } => {
                        let done = sender_shared.returned.load(Ordering::Acquire);
                        outstanding.saturating_sub(next - done)
                    }
                };
                let burst = owed.min(MAX_BURST);
                for _ in 0..burst {
                    stream.push_next_frame(&mut buf);
                }
                if !buf.is_empty() {
                    // Publish before writing: a reply can come back before
                    // the last of the four writes returns.
                    sender_shared.sent.store(stream.next_seq(), Ordering::Release);
                    for (s, up) in write_halves.iter_mut().zip(alive.iter_mut()) {
                        if *up && s.write_all(&buf).is_err() {
                            *up = false;
                        }
                    }
                    let wrote = schedule.now_ns();
                    sent_ns.resize(sent_ns.len() + burst as usize, wrote);
                }
                match load {
                    Load::Open { rate } if sending => {
                        let next_due = schedule.start_ns + stream.next_seq() * SEC_NS / rate;
                        schedule.sleep_until(next_due.min(schedule.stop_ns));
                    }
                    // The receiver unparks us when credits come back.
                    _ if burst == 0 => std::thread::park_timeout(Duration::from_millis(1)),
                    _ => {}
                }
            }
            (sent_ns, resubmitted, alive.iter().filter(|up| !**up).count())
        })?;

        let wake: Thread = sender.thread().clone();
        let receiver = std::thread::Builder::new().name("lg-recv".into()).spawn(move || {
            let mut tally = Tally::new(n, f, speculative);
            let mut first_reply_ns: Vec<u64> = Vec::new();
            let mut final_ns: Vec<u64> = Vec::new();
            let mut readers: Vec<FrameReader> = (0..n).map(|_| FrameReader::new()).collect();
            let mut open = vec![true; n];
            let mut chunk = vec![0u8; 64 * 1024];
            let mut msgs = Vec::new();
            let mut oldest_waiting = 0usize;
            let mut finals = 0u64;
            loop {
                let now = schedule.now_ns();
                let all_in = shared.all_sent.load(Ordering::Acquire)
                    && finals == shared.sent.load(Ordering::Acquire);
                if now >= schedule.drain_ns || (all_in && now >= schedule.stop_ns) {
                    break;
                }
                let mut fds: Vec<PollFd> = read_halves
                    .iter()
                    .zip(&open)
                    .filter(|(_, up)| **up)
                    .map(|(s, _)| PollFd::new(s.as_raw_fd(), POLLIN))
                    .collect();
                if fds.is_empty() {
                    break;
                }
                let _ = poll_fds(&mut fds, 20);
                let mut ready = fds.iter();
                let mut returned = 0u64;
                for (i, stream) in read_halves.iter_mut().enumerate() {
                    if !open[i] || !ready.next().is_some_and(|fd| fd.readable()) {
                        continue;
                    }
                    // One read per readiness report: the socket stays
                    // blocking (its flags are shared with the sender's
                    // handle), and poll is level-triggered.
                    let got = match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => {
                            open[i] = false;
                            continue;
                        }
                        Ok(got) => got,
                    };
                    let at = schedule.now_ns();
                    msgs.clear();
                    if readers[i].push_bytes(&chunk[..got], &mut msgs).is_err() {
                        open[i] = false;
                        continue;
                    }
                    let issued = shared.sent.load(Ordering::Acquire);
                    first_reply_ns.resize(issued as usize, UNSET);
                    final_ns.resize(issued as usize, UNSET);
                    for msg in &msgs {
                        let Message::Response(r) = msg else { continue };
                        let seq = request_of(r.tx.seq) as usize;
                        // A request counts once, whichever of its
                        // submissions is heard of or decided first.
                        match tally.on_response(i as u32, r, issued) {
                            Heard::First if first_reply_ns[seq] == UNSET => {
                                first_reply_ns[seq] = at
                            }
                            Heard::Final if final_ns[seq] == UNSET => {
                                final_ns[seq] = at;
                                returned += 1;
                            }
                            _ => {}
                        }
                    }
                }
                if returned > 0 {
                    finals += returned;
                    while final_ns.get(oldest_waiting).is_some_and(|&at| at != UNSET) {
                        oldest_waiting += 1;
                    }
                    shared.oldest_waiting.store(oldest_waiting as u64, Ordering::Release);
                    shared.returned.fetch_add(returned, Ordering::Release);
                    wake.unpark();
                }
            }
            (tally, first_reply_ns, final_ns)
        })?;

        Ok(LoadGen { sender, receiver, load, start_ns: schedule.start_ns })
    }

    pub fn join(self) -> LoadReport {
        let (sent_ns, resubmitted, dead_sockets) =
            self.sender.join().expect("sender thread panicked");
        let (tally, mut first_reply_ns, mut final_ns) =
            self.receiver.join().expect("receiver thread panicked");
        let issued = sent_ns.len();
        first_reply_ns.resize(issued, UNSET);
        final_ns.resize(issued, UNSET);
        let mut slots = tally.slots;
        slots.resize(issued, Slot::default());
        for (wire_seq, slot) in tally.resubmitted {
            let first = &mut slots[request_of(wire_seq) as usize];
            if first.decided == 0 && slot.decided != 0 {
                *first = slot;
            }
        }
        LoadReport {
            load: self.load,
            start_ns: self.start_ns,
            sent_ns,
            first_reply_ns,
            final_ns,
            slots,
            resubmitted,
            stray: tally.stray,
            dead_sockets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs1_core::client::FinalityTracker;
    use hs1_crypto::Digest;
    use hs1_types::{BlockId, ProtocolKind, ReplicaId, SplitMix64, TxId, View};

    fn resp(seq: u64, block: u64, result: u8, kind: ReplyKind) -> ResponseMsg {
        ResponseMsg {
            tx: TxId::new(CLIENT, seq),
            block: BlockId::test(block),
            result: Digest([result; 32]),
            kind,
            view: View(1),
        }
    }

    /// The benchmark's tally and the system's `FinalityTracker` must
    /// decide the same transactions, on the same reply, for the same
    /// block — on random reply orders that include conflicting blocks,
    /// conflicting results, duplicates and both reply kinds.
    #[test]
    fn tally_agrees_with_the_systems_finality_tracker() {
        for (protocol, speculative) in
            [(ProtocolKind::HotStuff1, true), (ProtocolKind::HotStuff2, false)]
        {
            let mut rng = SplitMix64::new(0xF1A7);
            let mut tally = Tally::new(4, 1, speculative);
            let mut tracker = FinalityTracker::new(4, 1, protocol);
            let mut finals = 0;
            for _ in 0..4000 {
                let seq = rng.next_range(64);
                let from = rng.next_range(4) as u32;
                // Two candidate groups per transaction: even sequence
                // numbers disagree on the block, odd ones on the result.
                let odd = rng.chance(0.2);
                let (block, result) = if seq.is_multiple_of(2) {
                    (1 + u64::from(odd), 7)
                } else {
                    (1, 7 + u8::from(odd))
                };
                let kind = if speculative && rng.chance(0.7) {
                    ReplyKind::Speculative
                } else {
                    ReplyKind::Committed
                };
                let r = resp(seq, block, result, kind);
                let ours = tally.on_response(from, &r, 64);
                let theirs = tracker.on_response(ReplicaId(from), &r);
                assert_eq!(ours == Heard::Final, theirs.is_some(), "seq {seq} from {from}");
                if let Some((_, told)) = theirs {
                    finals += 1;
                    assert_eq!(tally.slots[seq as usize].final_block(), Some(prefix(&told.0 .0)));
                }
            }
            assert!(finals > 30, "the script must exercise decisions, got {finals}");
        }
    }

    #[test]
    fn a_resubmission_is_tallied_apart_from_the_first_submission() {
        let mut tally = Tally::new(4, 1, true);
        let mut stream = RequestStream::new(1);
        let sent: Vec<_> = (0..4).map(|_| stream.next_tx()).collect();
        let again = stream.resubmission(2, 1).id.seq;
        assert_eq!(request_of(again), sent[2].id.seq);
        // Two replicas speculated on a block that was then orphaned; the
        // resubmission lands in another block and gathers the quorum.
        let orphan = resp(2, 1, 7, ReplyKind::Speculative);
        assert_eq!(tally.on_response(0, &orphan, 4), Heard::First);
        assert_eq!(tally.on_response(1, &orphan, 4), Heard::Other);
        let retry = resp(again, 5, 7, ReplyKind::Speculative);
        assert_eq!(tally.on_response(0, &retry, 4), Heard::First);
        assert_eq!(tally.on_response(1, &retry, 4), Heard::Other);
        assert_eq!(tally.on_response(2, &retry, 4), Heard::Final);
        assert_eq!(tally.slots[2].final_block(), None);
        assert_eq!(tally.resubmitted[&again].final_block(), Some(prefix(&BlockId::test(5).0 .0)));
        assert_eq!(tally.stray, 0);
        // A resubmission of a request the stream never issued is a stray.
        let never = resp(again + 2, 5, 7, ReplyKind::Speculative);
        assert_eq!(tally.on_response(0, &never, 4), Heard::Other);
        assert_eq!(tally.stray, 1);
    }

    #[test]
    fn late_quorum_is_counted_once_not_refinalized() {
        // HotStuff-2: replies 1 and 2 decide; 3 and 4 would decide again
        // in a tracker that had forgotten the first decision.
        let mut tally = Tally::new(4, 1, false);
        let r = resp(2, 1, 7, ReplyKind::Committed);
        assert_eq!(tally.on_response(0, &r, 4), Heard::First);
        assert_eq!(tally.on_response(1, &r, 4), Heard::Final);
        assert_eq!(tally.on_response(2, &r, 4), Heard::Other);
        assert!(!tally.slots[2].redecided());
        assert_eq!(tally.on_response(3, &r, 4), Heard::Other);
        assert!(tally.slots[2].redecided());
        assert_eq!(tally.slots[2].distinct_groups(), 1);
        // A second group is a conflict only once it, too, has a quorum.
        let other = resp(2, 9, 7, ReplyKind::Committed);
        assert_eq!(tally.on_response(0, &other, 4), Heard::Other);
        assert!(!tally.slots[2].conflict());
        assert_eq!(tally.on_response(1, &other, 4), Heard::Other);
        assert!(tally.slots[2].conflict());
        assert_eq!(tally.slots[2].distinct_groups(), 2);
        assert!(!tally.slots[2].diverged(), "different blocks may differ in result");
        // The same block with another result is replicas diverging.
        let r3 = resp(3, 1, 7, ReplyKind::Committed);
        tally.on_response(0, &r3, 4);
        tally.on_response(1, &resp(3, 1, 8, ReplyKind::Committed), 4);
        assert!(tally.slots[3].diverged());
        // Sequence numbers the stream never issued are strays.
        assert_eq!(tally.on_response(0, &resp(99, 1, 7, ReplyKind::Committed), 4), Heard::Other);
        assert_eq!(tally.stray, 1);
    }
}
