//! Spans recorded from outside the program: shims over the two public
//! traits an engine talks through.
//!
//! [`TimedReplica`] wraps any `hs1_core::Replica` the way
//! `hs1_adversary::AdversaryEngine` does, but changes nothing: it times
//! each `on_message` / `on_timer` / `enqueue_txs` call and reads the
//! `Action`s the call produced. [`TimedPersistence`] does the same for the
//! engine's durability sink, so journal time shows as child spans of the
//! step that caused it and a step's self time is what remains.
//!
//! Spans stay in memory until the run ends. Recording is switched on and
//! off by the harness so one boot yields both traced and untraced
//! segments; commit/view/rollback events are kept regardless (they are a
//! few per view and the correctness checks need every commit).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use hs1_core::persist::{Persistence, RecoveredState};
use hs1_core::replica::{Action, Replica, Timer};
use hs1_crypto::Digest;
use hs1_ledger::KvStore;
use hs1_storage::JournalRecord;
use hs1_types::codec::Encode;
use hs1_types::{Block, BlockId, Certificate, Message, ReplicaId, SimTime, Transaction, View};

/// 64-bit prefix of a block id: the identifier spans of one block share
/// with the client's record of the `ResponseMsg.block` it was told.
pub fn block_key(id: BlockId) -> u64 {
    u64::from_be_bytes(id.0 .0[..8].try_into().expect("8 bytes"))
}

/// One timed call. `parent` is 1 + the index of the enclosing span in the
/// same replica's log, 0 for a root.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Block the call was about (0 when none).
    pub block: u64,
    /// Actions an engine step emitted; bytes a persistence call journaled.
    pub count: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A block reaching commit at one replica.
#[derive(Clone, Copy, Debug)]
pub struct Commit {
    pub at_ns: u64,
    pub block: u64,
    pub txs: u32,
}

/// Everything recorded at one replica.
#[derive(Default)]
pub struct ReplicaLog {
    pub spans: Vec<Span>,
    pub commits: Vec<Commit>,
    /// `EnteredView` instants.
    pub views_ns: Vec<u64>,
    /// `(instant, blocks discarded)` per `RolledBack`.
    pub rollbacks: Vec<(u64, u32)>,
    /// `(block, sequence number)` of every committed transaction, kept at
    /// replica 0 only (one honest copy is all the checks need).
    pub commit_seqs: Vec<(u64, u64)>,
    /// Index of the engine step now running (parent of persistence spans).
    open_step: Option<u32>,
}

/// The recorder the shims of one cluster share.
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    logs: Vec<Mutex<ReplicaLog>>,
}

impl Tracer {
    pub fn new(epoch: Instant, replicas: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch,
            on: AtomicBool::new(false),
            logs: (0..replicas).map(|_| Mutex::default()).collect(),
        })
    }

    /// Switch span recording on or off (events are always kept).
    pub fn record_spans(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn spans_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn log(&self, replica: usize) -> MutexGuard<'_, ReplicaLog> {
        // Each log is written by one engine thread; a poisoned lock means
        // that thread panicked and the run is lost anyway.
        self.logs[replica].lock().expect("trace log poisoned: an engine thread panicked")
    }

    pub fn replicas(&self) -> usize {
        self.logs.len()
    }
}

/// Span name for an inbound message, by kind. Chained protocols vote
/// inside `NewView`, so a `NewView` carrying a share is a vote.
fn message_span(msg: &Message) -> (&'static str, u64) {
    match msg {
        Message::Propose(p) => ("step.propose", block_key(p.block.id())),
        Message::Vote(v) => ("step.vote", block_key(v.vote.block)),
        Message::NewView(nv) => match &nv.vote {
            Some(vote) => ("step.vote", block_key(vote.block)),
            None => ("step.newview", block_key(nv.high_cert.block)),
        },
        Message::Request(_) => ("step.request", 0),
        Message::FetchBlock { id } => ("step.fetch", block_key(*id)),
        Message::FetchResp { block } => ("step.fetch", block_key(block.id())),
        _ => ("step.other", 0),
    }
}

/// A `Replica` that times every call into the engine it wraps.
pub struct TimedReplica {
    inner: Box<dyn Replica>,
    tracer: Arc<Tracer>,
    me: usize,
}

impl TimedReplica {
    pub fn new(inner: Box<dyn Replica>, tracer: Arc<Tracer>) -> TimedReplica {
        let me = inner.id().0 as usize;
        assert!(me < tracer.replicas(), "tracer sized for fewer replicas");
        TimedReplica { inner, tracer, me }
    }

    /// Run one engine call as a step span and harvest the events in the
    /// actions it appended to `out`.
    fn step(
        &mut self,
        name: &'static str,
        block: u64,
        out: &mut Vec<Action>,
        call: impl FnOnce(&mut dyn Replica, &mut Vec<Action>),
    ) {
        let before = out.len();
        let open = self.tracer.spans_on().then(|| {
            let start_ns = self.tracer.now_ns();
            let mut log = self.tracer.log(self.me);
            let idx = log.spans.len() as u32;
            log.spans.push(Span { name, start_ns, end_ns: start_ns, parent: 0, block, count: 0 });
            log.open_step = Some(idx);
            idx
        });
        call(self.inner.as_mut(), out);
        let end_ns = self.tracer.now_ns();
        let produced = &out[before..];
        if open.is_none() && !produced.iter().any(is_event) {
            return;
        }
        let mut log = self.tracer.log(self.me);
        if let Some(idx) = open {
            let span = &mut log.spans[idx as usize];
            span.end_ns = end_ns;
            span.count = produced.len() as u32;
            log.open_step = None;
        }
        for action in produced {
            match action {
                Action::Committed { block } => {
                    let key = block_key(block.id());
                    log.commits.push(Commit {
                        at_ns: end_ns,
                        block: key,
                        txs: block.txs.len() as u32,
                    });
                    if self.me == 0 {
                        log.commit_seqs.extend(block.txs.iter().map(|tx| (key, tx.id.seq)));
                    }
                }
                Action::EnteredView { .. } => log.views_ns.push(end_ns),
                Action::RolledBack { blocks } => log.rollbacks.push((end_ns, *blocks as u32)),
                _ => {}
            }
        }
    }
}

fn is_event(a: &Action) -> bool {
    matches!(a, Action::Committed { .. } | Action::EnteredView { .. } | Action::RolledBack { .. })
}

impl Replica for TimedReplica {
    fn id(&self) -> ReplicaId {
        self.inner.id()
    }

    fn on_init(&mut self, now: SimTime, out: &mut Vec<Action>) {
        self.step("step.init", 0, out, |e, out| e.on_init(now, out));
    }

    fn on_message(&mut self, from: ReplicaId, msg: Message, now: SimTime, out: &mut Vec<Action>) {
        let (name, block) = message_span(&msg);
        self.step(name, block, out, |e, out| e.on_message(from, msg, now, out));
    }

    fn on_timer(&mut self, timer: Timer, now: SimTime, out: &mut Vec<Action>) {
        let name = match timer {
            Timer::ViewTimeout(_) => "step.timer.view",
            Timer::LeaderWait(_) => "step.timer.wait",
            Timer::ProposeAt(_) => "step.timer.propose",
        };
        self.step(name, 0, out, |e, out| e.on_timer(timer, now, out));
    }

    fn enqueue_txs(&mut self, txs: &[Transaction]) {
        // The TCP runtime hands client requests in here, one per call.
        let mut none = Vec::new();
        self.step("step.request", 0, &mut none, |e, _| e.enqueue_txs(txs));
    }

    fn current_view(&self) -> View {
        self.inner.current_view()
    }

    fn committed_head(&self) -> BlockId {
        self.inner.committed_head()
    }

    fn committed_chain(&self) -> Vec<BlockId> {
        self.inner.committed_chain()
    }

    fn set_observer(&mut self, obs: hs1_obs::Obs) {
        self.inner.set_observer(obs);
    }

    fn set_persistence(&mut self, persist: Box<dyn Persistence>) {
        let timed = TimedPersistence { inner: persist, tracer: self.tracer.clone(), me: self.me };
        self.inner.set_persistence(Box::new(timed));
    }

    fn restore(&mut self, state: RecoveredState) {
        self.inner.restore(state);
    }

    fn state_root(&self) -> Digest {
        self.inner.state_root()
    }
}

/// A `Persistence` that times every call into the sink it wraps and
/// files the span under the engine step that made the call.
pub struct TimedPersistence {
    inner: Box<dyn Persistence>,
    tracer: Arc<Tracer>,
    me: usize,
}

impl TimedPersistence {
    /// `journaled` builds the record the call wrote, so its encoded size
    /// can be counted; it runs after the span has closed.
    fn call(
        &mut self,
        name: &'static str,
        block: u64,
        journaled: impl FnOnce() -> Option<JournalRecord>,
        call: impl FnOnce(&mut dyn Persistence),
    ) {
        if !self.tracer.spans_on() {
            return call(self.inner.as_mut());
        }
        let start_ns = self.tracer.now_ns();
        call(self.inner.as_mut());
        let end_ns = self.tracer.now_ns();
        // Journal framing: u32 length + u32 CRC ahead of the payload.
        let bytes = journaled().map_or(0, |rec| rec.encoded().len() as u32 + 8);
        let mut log = self.tracer.log(self.me);
        let parent = log.open_step.map_or(0, |idx| idx + 1);
        log.spans.push(Span { name, start_ns, end_ns, parent, block, count: bytes });
    }
}

impl Persistence for TimedPersistence {
    fn on_commit(&mut self, block: &Arc<Block>) {
        let rec = || Some(JournalRecord::Decided(block.clone()));
        self.call("persist.on_commit", block_key(block.id()), rec, |p| p.on_commit(block));
    }

    fn on_speculate(&mut self, block: &Arc<Block>) {
        let rec = || Some(JournalRecord::SpecMark(block.clone()));
        self.call("persist.on_speculate", block_key(block.id()), rec, |p| p.on_speculate(block));
    }

    fn on_rollback(&mut self, blocks: usize) {
        let rec = || Some(JournalRecord::SpecRollback { blocks: blocks as u32 });
        self.call("persist.on_rollback", 0, rec, |p| p.on_rollback(blocks));
    }

    fn on_cert(&mut self, cert: &Certificate) {
        let rec = || Some(JournalRecord::Cert(cert.clone()));
        self.call("persist.on_cert", block_key(cert.block), rec, |p| p.on_cert(cert));
    }

    fn on_view(&mut self, view: View) {
        let rec = || Some(JournalRecord::ViewChange(view));
        self.call("persist.on_view", 0, rec, |p| p.on_view(view));
    }

    fn wants_checkpoint(&self) -> bool {
        self.inner.wants_checkpoint()
    }

    fn write_checkpoint(&mut self, store: &KvStore, chain: &[BlockId]) {
        self.call("persist.checkpoint", 0, || None, |p| p.write_checkpoint(store, chain));
    }

    fn sync(&mut self) {
        self.call("persist.sync", 0, || None, |p| p.sync());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs1_core::{build_replica, Fault};
    use hs1_ledger::ExecConfig;
    use hs1_types::{ProtocolKind, SimDuration, SystemConfig};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A persistence sink that writes every call it receives into a
    /// shared script.
    struct Scripted(Arc<Mutex<Vec<String>>>);

    impl Persistence for Scripted {
        fn on_commit(&mut self, b: &Arc<Block>) {
            self.0.lock().unwrap().push(format!("commit {:?}", b.id()));
        }
        fn on_speculate(&mut self, b: &Arc<Block>) {
            self.0.lock().unwrap().push(format!("speculate {:?}", b.id()));
        }
        fn on_rollback(&mut self, blocks: usize) {
            self.0.lock().unwrap().push(format!("rollback {blocks}"));
        }
        fn on_cert(&mut self, c: &Certificate) {
            self.0.lock().unwrap().push(format!("cert {:?} {:?}", c.view, c.block));
        }
        fn on_view(&mut self, v: View) {
            self.0.lock().unwrap().push(format!("view {v:?}"));
        }
    }

    enum Ev {
        Msg(ReplicaId, usize, Box<Message>),
        Timer(usize, Timer),
    }

    /// Pump four engines through `views` views on a fixed-latency
    /// in-process network, returning every action of every step (as
    /// text, in order) and every persistence call.
    fn pump(wrap: Option<Arc<Tracer>>, views: u64) -> (Vec<String>, Vec<String>) {
        let n = 4;
        let mut cfg = SystemConfig::new(n);
        cfg.batch_size = 8;
        let script = Arc::new(Mutex::new(Vec::new()));
        let mut engines: Vec<Box<dyn Replica>> = (0..n as u32)
            .map(|id| {
                let bare = build_replica(
                    ProtocolKind::HotStuff1,
                    cfg.clone(),
                    ReplicaId(id),
                    // A silent replica forces timeouts and view changes.
                    if id == 3 { Fault::Silent } else { Fault::Honest },
                    ExecConfig::default(),
                );
                let mut engine: Box<dyn Replica> = match &wrap {
                    Some(tracer) => Box::new(TimedReplica::new(bare, tracer.clone())),
                    None => bare,
                };
                engine.set_persistence(Box::new(Scripted(script.clone())));
                engine
            })
            .collect();

        let hop = SimDuration::from_micros(200);
        let mut events: Vec<Option<Ev>> = Vec::new();
        let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
        let mut actions = Vec::new();
        let mut now = SimTime::ZERO;
        let mut absorb =
            |me: usize,
             now: SimTime,
             out: Vec<Action>,
             events: &mut Vec<Option<Ev>>,
             heap: &mut BinaryHeap<Reverse<(SimTime, usize)>>| {
                for a in out {
                    actions.push(format!("{me}@{}: {a:?}", now.0));
                    let mut schedule = |at: SimTime, ev: Ev| {
                        heap.push(Reverse((at, events.len())));
                        events.push(Some(ev));
                    };
                    match a {
                        Action::Send { to, msg } => schedule(
                            now + hop,
                            Ev::Msg(ReplicaId(me as u32), to.0 as usize, Box::new(msg)),
                        ),
                        Action::Broadcast { msg } => {
                            for to in 0..n {
                                schedule(
                                    now + hop,
                                    Ev::Msg(ReplicaId(me as u32), to, Box::new(msg.clone())),
                                );
                            }
                        }
                        Action::SetTimer { timer, at } => {
                            schedule(at.max(now), Ev::Timer(me, timer))
                        }
                        _ => {}
                    }
                }
            };

        for (me, engine) in engines.iter_mut().enumerate() {
            let txs: Vec<Transaction> =
                (0..200).map(|s| Transaction::kv_write(1, s, s % 17, s)).collect();
            engine.enqueue_txs(&txs);
            let mut out = Vec::new();
            engine.on_init(now, &mut out);
            absorb(me, now, out, &mut events, &mut heap);
        }
        while let Some(Reverse((at, idx))) = heap.pop() {
            now = at;
            let mut out = Vec::new();
            let me = match events[idx].take().expect("each event fires once") {
                Ev::Msg(from, to, msg) => {
                    engines[to].on_message(from, *msg, now, &mut out);
                    to
                }
                Ev::Timer(me, timer) => {
                    engines[me].on_timer(timer, now, &mut out);
                    me
                }
            };
            absorb(me, now, out, &mut events, &mut heap);
            if engines[0].current_view().0 >= views {
                break;
            }
        }
        let script = script.lock().unwrap().clone();
        (actions, script)
    }

    #[test]
    fn shims_are_transparent_over_a_scripted_fifty_view_pump() {
        let (bare_actions, bare_script) = pump(None, 50);
        let tracer = Tracer::new(Instant::now(), 4);
        tracer.record_spans(true);
        let (timed_actions, timed_script) = pump(Some(tracer.clone()), 50);
        assert!(bare_actions.len() > 500, "the pump must do real work");
        assert!(bare_actions.iter().any(|a| a.contains(": Committed {")));
        assert!(bare_script.iter().any(|c| c.starts_with("speculate")));
        assert_eq!(bare_actions, timed_actions, "action streams differ under the shim");
        assert_eq!(bare_script, timed_script, "persistence calls differ under the shim");

        // And the shim saw what happened: every commit, a span per step,
        // persistence spans filed under the step that caused them.
        let log = tracer.log(0);
        let commits =
            bare_actions.iter().filter(|a| a.starts_with("0@") && a.contains(": Committed {"));
        assert_eq!(log.commits.len(), commits.count());
        assert!(log.views_ns.len() >= 49);
        let children: Vec<&Span> = log.spans.iter().filter(|s| s.parent != 0).collect();
        assert!(!children.is_empty());
        for child in children {
            let parent = &log.spans[child.parent as usize - 1];
            assert!(child.name.starts_with("persist.") && parent.name.starts_with("step."));
            assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
            assert!(child.count > 0, "journal bytes are counted for {}", child.name);
        }
    }

    #[test]
    fn spans_off_keeps_events_only() {
        let tracer = Tracer::new(Instant::now(), 4);
        let _ = pump(Some(tracer.clone()), 12);
        let log = tracer.log(1);
        assert!(log.spans.is_empty());
        assert!(!log.commits.is_empty() && !log.views_ns.is_empty());
    }
}
