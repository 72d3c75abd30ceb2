//! A miniature deterministic event loop for in-crate protocol tests.
//!
//! Delivers every message after a fixed hop latency and fires timers in
//! order — no bandwidth/CPU modeling (that lives in `hs1-sim`). Useful for
//! asserting protocol-level behavior: commits, speculation, rollbacks,
//! view progression, attack outcomes.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use crate::invariants::{self, Committed, Observation};
use crate::replica::{Action, Replica, Timer};
use hs1_types::{
    Block, BlockId, CommittedLog, Message, ReplicaId, ReplyKind, SimDuration, SimTime, View,
};

#[derive(Debug)]
enum Ev {
    Msg { from: ReplicaId, to: ReplicaId, msg: Box<Message> },
    Timer { at: ReplicaId, timer: Timer },
}

/// A recorded observable event.
#[derive(Clone, Debug)]
pub enum Obs {
    Executed { at: ReplicaId, block: Arc<Block>, kind: ReplyKind },
    Committed { at: ReplicaId, block: Arc<Block> },
    RolledBack { at: ReplicaId, blocks: usize },
    EnteredView { at: ReplicaId, view: View },
}

/// Network-level loss for tests: a message `(from, to, msg)` for which
/// the rule returns `true` is never delivered.
pub type Loss = Box<dyn FnMut(ReplicaId, ReplicaId, &Message) -> bool>;

pub struct TestNet {
    pub engines: Vec<Box<dyn Replica>>,
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// Each slot is emptied when its event is delivered.
    events: Vec<Option<Ev>>,
    pub now: SimTime,
    seq: u64,
    pub hop: SimDuration,
    pub log: Vec<Obs>,
    pub drop: Loss,
    /// Messages sent so far by [`Message::kind_name`], one per recipient
    /// (a broadcast counts `n`), whether or not `drop` then took them.
    pub sent: BTreeMap<&'static str, u64>,
    /// Each replica's committed chain as its `Action::Committed`s told it,
    /// every height kept: harness memory, not the replica's.
    committed: Vec<CommittedLog>,
}

impl TestNet {
    pub fn new(engines: Vec<Box<dyn Replica>>, hop: SimDuration) -> TestNet {
        TestNet {
            committed: engines.iter().map(|e| e.committed_log()).collect(),
            engines,
            heap: BinaryHeap::new(),
            events: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            hop,
            log: Vec::new(),
            drop: Box::new(|_, _, _| false),
            sent: BTreeMap::new(),
        }
    }

    pub fn n(&self) -> usize {
        self.engines.len()
    }

    fn push_event(&mut self, at: SimTime, ev: Ev) {
        let idx = self.events.len();
        self.events.push(Some(ev));
        self.heap.push(Reverse((at, self.seq, idx)));
        self.seq += 1;
    }

    fn send(&mut self, from: ReplicaId, to: ReplicaId, msg: Message) {
        *self.sent.entry(msg.kind_name()).or_default() += 1;
        if !(self.drop)(from, to, &msg) {
            self.push_event(self.now + self.hop, Ev::Msg { from, to, msg: Box::new(msg) });
        }
    }

    fn absorb(&mut self, from: ReplicaId, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Send { to, msg } => self.send(from, to, msg),
                Action::Broadcast { msg } => {
                    for r in 0..self.n() {
                        self.send(from, ReplicaId(r as u32), msg.clone());
                    }
                }
                Action::SetTimer { timer, at } => {
                    let at =
                        if at <= self.now { self.now + SimDuration::from_nanos(1) } else { at };
                    self.push_event(at, Ev::Timer { at: from, timer });
                }
                Action::Executed { block, kind, .. } => {
                    self.log.push(Obs::Executed { at: from, block, kind })
                }
                Action::Committed { block } => {
                    self.committed[from.0 as usize].push(block.id());
                    self.log.push(Obs::Committed { at: from, block })
                }
                Action::RolledBack { blocks } => {
                    self.log.push(Obs::RolledBack { at: from, blocks })
                }
                Action::EnteredView { view } => self.log.push(Obs::EnteredView { at: from, view }),
            }
        }
    }

    /// Initialize every engine.
    pub fn init(&mut self) {
        for i in 0..self.n() {
            let mut out = Vec::new();
            self.engines[i].on_init(self.now, &mut out);
            let from = ReplicaId(i as u32);
            self.absorb(from, out);
        }
    }

    /// Run until `deadline` or the event queue drains.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(Reverse((at, _, idx))) = self.heap.pop() {
            if at > deadline {
                // Not yet due; put back and stop.
                self.heap.push(Reverse((at, u64::MAX, idx)));
                self.now = deadline;
                return;
            }
            self.now = at;
            let ev = self.events[idx].take().expect("an event is delivered once");
            let mut out = Vec::new();
            match ev {
                Ev::Msg { from, to, msg } => {
                    let i = to.0 as usize;
                    self.engines[i].on_message(from, *msg, self.now, &mut out);
                    self.absorb(to, out);
                }
                Ev::Timer { at: rid, timer } => {
                    let i = rid.0 as usize;
                    self.engines[i].on_timer(timer, self.now, &mut out);
                    self.absorb(rid, out);
                }
            }
        }
        self.now = deadline;
    }

    /// Run for `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Deliver every transaction to every engine now, as the
    /// `Message::Request` a client sends each replica, and act on what the
    /// engines do with it (a held leader proposes).
    pub fn inject(&mut self, txs: &[hs1_types::Transaction]) {
        for i in 0..self.n() {
            let me = ReplicaId(i as u32);
            for tx in txs {
                let mut out = Vec::new();
                self.engines[i].on_message(me, Message::Request(*tx), self.now, &mut out);
                self.absorb(me, out);
            }
        }
    }

    /// Blocks committed at replica `r`, in order (excluding genesis).
    pub fn committed_at(&self, r: usize) -> Vec<BlockId> {
        self.committed[r].ids().filter(|id| *id != Block::genesis_id()).collect()
    }

    /// Replica `r`'s committed chain as the harness recorded it: every
    /// height, where the replica keeps a window.
    pub fn committed_log(&self, r: usize) -> &CommittedLog {
        &self.committed[r]
    }

    /// Assert the safety invariants ([`invariants::check`]) over the listed
    /// replicas, on the harness's records of their chains.
    pub fn assert_prefix_agreement(&self, replicas: &[usize]) {
        let replicas = replicas
            .iter()
            .map(|&r| Committed {
                id: ReplicaId(r as u32),
                log: self.committed[r].clone(),
                root: self.engines[r].state_root(),
            })
            .collect();
        let violations = invariants::check(&Observation { replicas, ..Observation::default() });
        assert!(violations.is_empty(), "safety violated: {violations:?}");
    }

    /// Count speculative executions logged at replica `r`.
    pub fn speculations_at(&self, r: usize) -> usize {
        self.log
            .iter()
            .filter(|o| {
                matches!(o, Obs::Executed { at, kind: ReplyKind::Speculative, .. } if at.0 as usize == r)
            })
            .count()
    }

    /// Total rollback events at replica `r`.
    pub fn rollbacks_at(&self, r: usize) -> usize {
        self.log
            .iter()
            .filter_map(|o| match o {
                Obs::RolledBack { at, blocks } if at.0 as usize == r => Some(*blocks),
                _ => None,
            })
            .sum()
    }
}
