//! A replica's heap is its window, not its history. Four HotStuff-1
//! engines run 10,000 views on a minimal router that keeps no log, and a
//! counting global allocator measures what each engine holds at the end:
//! all of its heap, and the part of it in allocations of 4 KiB or more,
//! which is where a window-sized table or deque lives. Dropping an engine
//! frees exactly what it owns, because the router hands every replica a
//! decoded copy of each message and so no body is shared between engines.
//!
//! This file holds one test on purpose: the allocator counts the whole
//! process, and a second test running beside it would count too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use hs1_core::{build_replica, Action, Fault, Replica, Timer};
use hs1_ledger::ExecConfig;
use hs1_types::codec::{Decode, Encode};
use hs1_types::{
    Message, ProtocolKind, ReplicaId, SimDuration, SimTime, SystemConfig, Transaction, View,
};

/// Live bytes, and live bytes in allocations of at least [`LARGE`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
static LIVE_LARGE: AtomicUsize = AtomicUsize::new(0);
const LARGE: usize = 4096;

struct Counting;

fn count(size: usize, add: bool) {
    let op =
        |c: &AtomicUsize| if add { c.fetch_add(size, Relaxed) } else { c.fetch_sub(size, Relaxed) };
    op(&LIVE);
    if size >= LARGE {
        op(&LIVE_LARGE);
    }
}

// SAFETY: every call goes to `System` with the caller's own arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size(), true);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        count(layout.size(), false);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            count(layout.size(), false);
            count(new_size, true);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Views the run must reach: about five windows of commits.
const VIEWS: u64 = 10_000;

/// Bounds on one engine's live heap after the run, all of it and the
/// part in large allocations: 1.25 times what was measured (959 KiB and
/// 153 KiB). The large part is the committed window's ids and the slots
/// of its bodies. A hash index over the window is 132 KiB or more, so
/// re-adding one breaks the second bound. Engines that held three hashed
/// copies of the window measured 1,622 KiB and 816 KiB.
const ENGINE_BUDGET: usize = 1_228_000;
const ENGINE_LARGE_BUDGET: usize = 196_000;

/// A delivery to replica `to` at `at`; `seq` keeps equal times in send
/// order.
struct Event {
    at: SimTime,
    seq: u64,
    to: usize,
    what: What,
}

enum What {
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

struct Router {
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    now: SimTime,
    hop: SimDuration,
    /// Requests sent so far: one a view, to every replica.
    requests: u64,
}

impl Router {
    fn push(&mut self, at: SimTime, to: usize, what: What) {
        self.seq += 1;
        self.queue.push(Reverse(Event { at, seq: self.seq, to, what }));
    }

    /// Each recipient gets its own decoded copy, as over a wire.
    fn send(&mut self, from: usize, to: usize, msg: &Message) {
        let copy = Message::decode_exact(&msg.encoded()).expect("a message decodes");
        self.push(self.now + self.hop, to, What::Msg(ReplicaId(from as u32), Box::new(copy)));
    }

    fn absorb(&mut self, from: usize, n: usize, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Send { to, msg } => self.send(from, to.0 as usize, &msg),
                Action::Broadcast { msg } => (0..n).for_each(|to| self.send(from, to, &msg)),
                Action::SetTimer { timer, at } => {
                    self.push(at.max(self.now), from, What::Timer(timer))
                }
                Action::EnteredView { .. } if from == 0 => {
                    self.requests += 1;
                    let tx = Transaction::kv_write(1, self.requests, self.requests % 64, 7);
                    for to in 0..n {
                        let me = ReplicaId(to as u32);
                        self.push(self.now, to, What::Msg(me, Box::new(Message::Request(tx))));
                    }
                }
                _ => {}
            }
        }
    }
}

#[test]
fn four_engines_hold_their_window_and_not_their_history() {
    let cfg = SystemConfig::new(4);
    let mut engines: Vec<Box<dyn Replica>> = (0..4)
        .map(|i| {
            let (id, exec) = (ReplicaId(i), ExecConfig::default());
            build_replica(ProtocolKind::HotStuff1, cfg.clone(), id, Fault::Honest, exec)
        })
        .collect();
    let mut net = Router {
        queue: BinaryHeap::new(),
        seq: 0,
        now: SimTime::ZERO,
        hop: SimDuration::from_micros(200),
        requests: 0,
    };
    for (i, e) in engines.iter_mut().enumerate() {
        let mut out = Vec::new();
        e.on_init(net.now, &mut out);
        net.absorb(i, 4, out);
    }
    while engines[0].current_view() < View(VIEWS) {
        let Reverse(ev) = net.queue.pop().expect("the cluster never goes quiet");
        net.now = ev.at;
        let mut out = Vec::new();
        match ev.what {
            What::Msg(from, msg) => engines[ev.to].on_message(from, *msg, net.now, &mut out),
            What::Timer(timer) => engines[ev.to].on_timer(timer, net.now, &mut out),
        }
        net.absorb(ev.to, 4, out);
    }
    let committed = engines[0].committed_len();
    assert!(committed > 9 * VIEWS as usize / 10, "{committed} blocks committed in {VIEWS} views");

    for (i, e) in engines.into_iter().enumerate() {
        let (live, large) = (LIVE.load(Relaxed), LIVE_LARGE.load(Relaxed));
        drop(e);
        let own = live - LIVE.load(Relaxed);
        let own_large = large - LIVE_LARGE.load(Relaxed);
        println!(
            "engine {i}: {:.1} KiB live, {:.1} KiB of it in allocations of {LARGE} B or more",
            own as f64 / 1024.0,
            own_large as f64 / 1024.0,
        );
        assert!(own < ENGINE_BUDGET, "engine {i} holds {own} B (budget {ENGINE_BUDGET} B)");
        assert!(
            own_large < ENGINE_LARGE_BUDGET,
            "engine {i} holds {own_large} B in large allocations (budget {ENGINE_LARGE_BUDGET} B)"
        );
    }
}
