//! The minimal router the allocator tests drive four engines on: a
//! time-ordered event queue, a fixed hop, and one client request a view
//! to every replica, a read or a write at random, half and half, as
//! `bench/`'s stream sends them (so bodies come in several sizes). It
//! keeps no log but each proposed body's size, and every recipient gets
//! its own decoded copy of a message, as over a wire, so no body is
//! shared between engines.
//!
//! Each allocator test is its own binary, because each installs a
//! counting global allocator that sees the whole process.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use hs1_core::{build_replica, Action, Fault, Replica, Timer};
use hs1_ledger::ExecConfig;
use hs1_types::codec::{Decode, Encode};
use hs1_types::{
    BlockId, ClientId, IdHash, Message, ProtocolKind, ReplicaId, SimDuration, SimTime, SplitMix64,
    SystemConfig, Transaction, TxId, TxOp, View,
};

/// Replicas in every cluster the router runs.
pub const N: usize = 4;

/// A delivery to replica `to` at `at`; `seq` keeps equal times in send
/// order.
pub struct Event {
    at: SimTime,
    seq: u64,
    to: usize,
    what: What,
}

pub enum What {
    Msg(ReplicaId, Box<Message>),
    Timer(Timer),
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

pub struct Router {
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    now: SimTime,
    hop: SimDuration,
    /// Requests sent so far: one a view, to every replica.
    requests: u64,
    /// Picks each request's operation and key.
    rng: SplitMix64,
    /// The encoded size of every block proposed, by id.
    pub body_bytes: HashMap<BlockId, usize, IdHash>,
    /// The one action buffer every step writes into, drained after it.
    out: Vec<Action>,
}

impl Router {
    pub fn new() -> Router {
        Router {
            queue: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            hop: SimDuration::from_micros(200),
            requests: 0,
            rng: SplitMix64::new(7),
            body_bytes: HashMap::default(),
            out: Vec::new(),
        }
    }

    fn push(&mut self, at: SimTime, to: usize, what: What) {
        self.seq += 1;
        self.queue.push(Reverse(Event { at, seq: self.seq, to, what }));
    }

    /// Each recipient gets its own decoded copy, as over a wire.
    fn send(&mut self, from: usize, to: usize, msg: &Message) {
        let copy = Message::decode_exact(&msg.encoded()).expect("a message decodes");
        self.push(self.now + self.hop, to, What::Msg(ReplicaId(from as u32), Box::new(copy)));
    }

    /// Carry out what replica `from`'s last step left in the buffer.
    fn absorb(&mut self, from: usize) {
        let mut out = std::mem::take(&mut self.out);
        for a in out.drain(..) {
            match a {
                Action::Send { to, msg } => self.send(from, to.0 as usize, &msg),
                Action::Broadcast { msg } => {
                    if let Message::Propose(p) = &msg {
                        self.body_bytes.insert(p.block.id(), p.block.encoded().len());
                    }
                    (0..N).for_each(|to| self.send(from, to, &msg))
                }
                Action::SetTimer { timer, at } => {
                    self.push(at.max(self.now), from, What::Timer(timer))
                }
                Action::EnteredView { .. } if from == 0 => {
                    self.requests += 1;
                    let key = self.rng.next_range(64);
                    let op = if self.rng.chance(0.5) {
                        TxOp::KvRead { key }
                    } else {
                        TxOp::KvWrite { key, seed: 7 }
                    };
                    let tx = Transaction::new(TxId::new(ClientId(1), self.requests), op);
                    for to in 0..N {
                        let me = ReplicaId(to as u32);
                        self.push(self.now, to, What::Msg(me, Box::new(Message::Request(tx))));
                    }
                }
                _ => {}
            }
        }
        self.out = out;
    }

    /// Start `engines`, then deliver events until replica 0 is in view
    /// `until`. `step` makes each engine step on one event into the
    /// router's action buffer, so a test can measure around it.
    pub fn run(
        &mut self,
        engines: &mut [Box<dyn Replica>],
        until: View,
        mut step: impl FnMut(&mut dyn Replica, What, SimTime, &mut Vec<Action>),
    ) {
        if self.seq == 0 {
            for (i, e) in engines.iter_mut().enumerate() {
                e.on_init(self.now, &mut self.out);
                self.absorb(i);
            }
        }
        while engines[0].current_view() < until {
            let Reverse(ev) = self.queue.pop().expect("the cluster never goes quiet");
            self.now = ev.at;
            step(engines[ev.to].as_mut(), ev.what, self.now, &mut self.out);
            self.absorb(ev.to);
        }
    }
}

/// Four honest HotStuff-1 engines.
pub fn engines() -> Vec<Box<dyn Replica>> {
    let cfg = SystemConfig::new(N);
    (0..N as u32)
        .map(|i| {
            let (id, exec) = (ReplicaId(i), ExecConfig::default());
            build_replica(ProtocolKind::HotStuff1, cfg.clone(), id, Fault::Honest, exec)
        })
        .collect()
}

/// One engine step on `what`, as a runtime takes it.
pub fn step(e: &mut dyn Replica, what: What, now: SimTime, out: &mut Vec<Action>) {
    match what {
        What::Msg(from, msg) => e.on_message(from, *msg, now, out),
        What::Timer(timer) => e.on_timer(timer, now, out),
    }
}
