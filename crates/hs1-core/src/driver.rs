//! The view driver: the part of a replica every protocol shares.
//!
//! The paper presents its protocols as deltas — basic (§4) → streamlined
//! (§5) → slotting (§6) — over one skeleton: enter a view, collect
//! NewViews as its leader, propose, vote, leave the view on a vote or a
//! timeout and tell the pacemaker which ([`ViewEnd`]: an epoch boundary
//! is crossed at once on a vote and synchronized by Wish / TC after a
//! timeout), and fetch block bodies that never arrived. [`Engine`] is
//! that skeleton, written once; a [`Protocol`] supplies what the paper
//! says differs (the vote rule, where votes go, when to speculate, the
//! commit rule, the protocol's own message kinds).
//!
//! What a replica cannot use yet is the driver's too, one rule each:
//!
//! * **A certificate learned outside a proposal** ([`Driver::learn_cert`]):
//!   `P(v_lp)` is the highest-ranked valid certificate seen, adopted on
//!   receipt; a certified body that is missing is requested from the
//!   sender, never from this replica itself.
//! * **A proposal for a view already left** (`Engine::on_propose`): stored,
//!   so commit walks and `return_orphans` see it, and not acted on.
//! * **A message parked on a missing body** ([`Driver::parked`]): one
//!   queue, re-delivered in arrival order when a body arrives, then the
//!   stalled commit, then the leader's proposal check.
//!
//! A client request is a step like any message (`Message::Request`): the
//! mempool admits it, then the leader's proposal check runs. That is what
//! ends a streamlined leader's *hold* — with an empty pool and no block on
//! its certified branch still owing clients an answer, it defers its
//! proposal to the slow-leader `ProposeAt` (`chained.rs`). The hold cannot
//! cost a view timeout: `ProposeAt` fires 3Δ before the view deadline
//! ([`Engine::arm_slow_timer`]), which leaves the proposal Δ to reach the
//! replicas and the votes Δ to reach the next leader inside the view
//! timer each replica armed when it entered the view.
//!
//! The order of `Action`s pushed to `out` and of `Obs` emissions within a
//! step is part of the behaviour: the simulator consumes `out` in order
//! and traces are byte-compared across commits (`tests/observability.rs`).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::byzantine::Fault;
use crate::common::{CoreState, FetchTracker};
use crate::pacemaker::{Pacemaker, PmOutcome, ViewEnd};
use crate::persist::{Persistence, RecoveredState};
use crate::replica::{Action, PoolStats, Replica, Timer};
use hs1_ledger::ExecConfig;
use hs1_obs::{block_key, Obs, Stage};
use hs1_types::message::{NewViewMsg, ProposeMsg, VoteInfo};
use hs1_types::{
    Block, BlockId, Certificate, CommittedLog, Message, ReplicaId, SimTime, Slot, SystemConfig,
    View,
};

/// What a protocol adds to the driver. Hooks are associated functions over
/// the whole [`Engine`] because most of them re-enter the driver
/// (`exit_view`, `jump_to`, `commit_or_fetch`).
pub(crate) trait Protocol: Sized + Send {
    /// The protocol's share of the per-view leader [`Tally`].
    type Tally: Send;
    /// Committed block bodies kept behind the head when pruning.
    const PRUNE_KEEP: usize;

    fn new_tally(view: View) -> Self::Tally;

    /// The vote a NewView for `dest` carries at init and on a view timeout.
    fn newview_vote(_e: &mut Engine<Self>, _dest: View) -> Option<VoteInfo> {
        None
    }

    /// A NewView from a new sender reached the current view's tally. A
    /// certificate the tally forms goes through [`Driver::learn_formed_cert`].
    fn tally_newview(
        e: &mut Engine<Self>,
        from: ReplicaId,
        msg: NewViewMsg,
        now: SimTime,
        out: &mut Vec<Action>,
    );

    /// Leader of the current view, tally refreshed: propose if the
    /// protocol's ready condition holds.
    fn propose_if_ready(e: &mut Engine<Self>, now: SimTime, out: &mut Vec<Action>);

    /// `ProposeAt` fired in the current view, which this replica leads.
    fn on_propose_at(_e: &mut Engine<Self>, _now: SimTime, _out: &mut Vec<Action>) {}

    /// A proposal for the current view or a later one, from its view's
    /// leader, with a valid justify: the vote rule and destination,
    /// speculation, the commit rule.
    fn on_propose(
        e: &mut Engine<Self>,
        from: ReplicaId,
        msg: ProposeMsg,
        now: SimTime,
        out: &mut Vec<Action>,
    );

    /// The protocol's own message kinds.
    fn on_message(
        _e: &mut Engine<Self>,
        _from: ReplicaId,
        _msg: Message,
        _now: SimTime,
        _out: &mut Vec<Action>,
    ) {
    }

    /// The view changed (exit, jump or TC): reset per-view cursors.
    fn on_view_change(&mut self) {}

    /// A block enters the store through a proposal or a fetch.
    fn index_block(&mut self, _b: &Block) {}

    /// Every 64 views, after the store was pruned: drop indexes into
    /// pruned bodies.
    fn prune(&mut self, _core: &CoreState) {}

    /// Recovery (§4.2): the pre-crash incarnation may have voted anywhere
    /// up to `recovered`; never sign there again.
    fn raise_vote_floor(&mut self, recovered: View);
}

/// Leader bookkeeping for one view.
pub(crate) struct Tally<T> {
    pub(crate) view: View,
    /// NewView senders for this view (leader entry condition).
    pub(crate) senders: HashSet<ReplicaId>,
    pub(crate) wait_timer_armed: bool,
    pub(crate) slow_timer_armed: bool,
    pub(crate) deadline_passed: bool,
    /// The protocol's shares and flags.
    pub(crate) own: T,
}

/// State and helpers that need no protocol.
pub(crate) struct Driver {
    pub(crate) core: CoreState,
    pub(crate) pm: Pacemaker,
    pub(crate) fault: Fault,
    pub(crate) view: View,
    pub(crate) high_cert: Certificate,
    pub(crate) crashed: bool,
    /// Buffered NewView messages keyed by destination view.
    pub(crate) nv_buf: HashMap<u64, Vec<(ReplicaId, NewViewMsg)>>,
    /// Every message parked on a missing body (a proposal's justify or
    /// carry, a Prepare's certified block), in arrival order. Without this
    /// a single lost proposal cascades: every later proposal justifies a
    /// body the replica never got, so it stops voting for good.
    pub(crate) parked: Vec<(ReplicaId, Message)>,
    /// Outstanding block fetches (re-sent after a view timer on loss).
    pub(crate) fetching: FetchTracker,
    /// Commit target stalled on a missing ancestor (retried after fetch).
    pub(crate) retry_commit: Option<(BlockId, ReplicaId)>,
}

impl Driver {
    pub(crate) fn new(cfg: SystemConfig, me: ReplicaId, fault: Fault, exec: ExecConfig) -> Driver {
        Driver {
            core: CoreState::new(cfg.clone(), me, exec),
            pm: Pacemaker::new(cfg, me, SimTime::ZERO),
            crashed: matches!(fault, Fault::Silent),
            fault,
            view: View::GENESIS,
            high_cert: Certificate::genesis(),
            nv_buf: HashMap::new(),
            parked: Vec::new(),
            fetching: FetchTracker::new(),
            retry_commit: None,
        }
    }

    pub(crate) fn is_leader(&self) -> bool {
        self.core.cfg.leader_of(self.view) == self.core.me
    }

    fn check_crash(&mut self) -> bool {
        if let Fault::Crash { after_view } = self.fault {
            if self.view.0 > after_view {
                self.crashed = true;
            }
        }
        self.crashed
    }

    /// Replace `high_cert`, journaling strict rank advances (the
    /// prepared-certificate part of §4.2 recovery).
    pub(crate) fn set_high_cert(&mut self, cert: Certificate) {
        if cert.rank() > self.high_cert.rank() {
            self.core.persist.on_cert(&cert);
        }
        self.high_cert = cert;
    }

    /// The one rule for a certificate learned outside a proposal —
    /// carried by a NewView, NewSlot or Reject from `from`, or formed by
    /// this replica's own tally on `from`'s share: `P(v_lp)` is the
    /// highest-ranked valid certificate seen (Figs. 2, 4, 7). A certified
    /// body that never arrived is requested, not waited for: adopting a
    /// higher certificate earlier only makes this replica's votes stricter.
    pub(crate) fn learn_cert(
        &mut self,
        cert: &Certificate,
        from: ReplicaId,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        if cert.rank() <= self.high_cert.rank() || !self.core.cert_valid(cert) {
            return;
        }
        if !self.core.has_block(cert.block) {
            self.request_block(cert.block, from, now, out);
        }
        self.set_high_cert(cert.clone());
    }

    /// [`Driver::learn_cert`] for a certificate this replica's own tally
    /// formed (on `from`'s share). It is recorded as valid, not verified:
    /// its shares were, one by one, as they arrived. Recorded only if it
    /// is adopted, so a later, larger certificate for the same position
    /// does not displace the one this replica proposes on.
    pub(crate) fn learn_formed_cert(
        &mut self,
        cert: &Certificate,
        from: ReplicaId,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        if cert.rank() > self.high_cert.rank() {
            self.core.formed_cert(cert);
        }
        self.learn_cert(cert, from, now, out);
    }

    /// Request a block body from `from`, re-sending after a view timer if
    /// a prior fetch went unanswered (message loss must not deadlock
    /// catch-up). A replica never asks itself — `from` is this replica
    /// when its own proposal or tally names the body — but the next one.
    pub(crate) fn request_block(
        &mut self,
        id: BlockId,
        from: ReplicaId,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        if self.fetching.should_request(id, now, self.core.cfg.view_timer) {
            let me = self.core.me;
            let next = ReplicaId((me.0 + 1) % self.core.cfg.n as u32);
            let to = if from == me { next } else { from };
            out.push(Action::Send { to, msg: Message::FetchBlock { id } });
        }
    }

    /// Park `msg` until the `missing` bodies, requested from `from`, arrive.
    pub(crate) fn fetch_and_park(
        &mut self,
        missing: &[BlockId],
        from: ReplicaId,
        msg: Message,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        for &id in missing {
            self.request_block(id, from, now, out);
        }
        self.parked.push((from, msg));
    }

    /// Commit `target`, fetching missing ancestor bodies from `source`
    /// and retrying on arrival (a replica that dropped a late proposal
    /// must not stall its global-ledger permanently).
    pub(crate) fn commit_or_fetch(
        &mut self,
        target: BlockId,
        source: ReplicaId,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        if let Err(missing) = self.core.commit_chain(target, out) {
            self.request_block(missing, source, now, out);
            self.retry_commit = Some((target, source));
        }
    }

    /// Send `block` to everyone.
    pub(crate) fn broadcast_proposal(block: Arc<Block>, out: &mut Vec<Action>) {
        out.push(Action::Broadcast {
            msg: Message::Propose(ProposeMsg { block, commit_cert: None }),
        });
    }

    /// Equivocate (Appendix A.2): `victims` get `bait`, everyone else
    /// the conflicting `decoy`.
    pub(crate) fn equivocate(
        &self,
        victims: &[ReplicaId],
        bait: &Arc<Block>,
        decoy: &Arc<Block>,
        out: &mut Vec<Action>,
    ) {
        for to in (0..self.core.cfg.n as u32).map(ReplicaId) {
            let block = if victims.contains(&to) { bait } else { decoy }.clone();
            out.push(Action::Send {
                to,
                msg: Message::Propose(ProposeMsg { block, commit_cert: None }),
            });
        }
    }

    /// Highest certificate known with view ≤ `view − 2` (tail-forking and
    /// rollback-attack justify choice, Example 6.2).
    pub(crate) fn stale_cert(&self) -> Certificate {
        let limit = self.view.0.saturating_sub(2);
        // The scan walks a HashMap, whose order must not leak into
        // replayable behavior, so the order is total: rank, then the
        // certified block, then the block carrying the certificate (two
        // certificates for one block can differ in kind and signer set).
        std::iter::once((&self.high_cert, BlockId::NONE))
            .chain(self.core.blocks.values().map(|b| (&b.justify, b.id())))
            .filter(|(c, _)| c.view.0 <= limit && self.core.has_block(c.block))
            .max_by_key(|(c, carrier)| (c.rank(), c.block, *carrier))
            .map_or_else(Certificate::genesis, |(c, _)| c.clone())
    }
}

/// A replica: the shared [`Driver`], the current view's leader tally, and
/// the protocol policy `p`.
pub(crate) struct Engine<P: Protocol> {
    pub(crate) d: Driver,
    pub(crate) tally: Option<Tally<P::Tally>>,
    pub(crate) p: P,
}

impl<P: Protocol> Engine<P> {
    pub(crate) fn new(d: Driver, p: P) -> Engine<P> {
        Engine { d, tally: None, p }
    }

    // -- view lifecycle -----------------------------------------------------

    fn set_view(&mut self, v: View) {
        self.d.view = v;
        self.tally = None;
        self.p.on_view_change();
    }

    fn enter_view(&mut self, now: SimTime, out: &mut Vec<Action>) {
        let d = &mut self.d;
        d.pm.entered();
        d.core.persist.on_view(d.view);
        d.core.obs.span_begin("view", d.view.0);
        d.core.obs.counter("view_changes", 0, 1);
        out.push(Action::EnteredView { view: d.view });
        out.push(Action::SetTimer {
            timer: Timer::ViewTimeout(d.view),
            at: d.pm.deadline(d.view, now),
        });
        if d.view.0.is_multiple_of(CommittedLog::PRUNE_EVERY) {
            d.pm.prune_below(d.view);
            d.core.prune(P::PRUNE_KEEP);
            let v = d.view.0;
            d.nv_buf.retain(|&dv, _| dv >= v);
            // Parked messages whose fetch never resolved (dead or
            // Byzantine peer) are view-stale by now; drop them so the
            // queue stays bounded on long lossy runs.
            d.parked.retain(|(_, m)| match m {
                Message::Propose(p) => p.block.view.0 >= v,
                Message::Prepare(p) => p.cert.view.0 >= v,
                _ => false,
            });
            self.p.prune(&d.core);
        }
        self.maybe_propose(now, out);
    }

    /// Leave the current view for the next one. An epoch boundary reached
    /// on a vote is crossed at once; one reached on a timeout is
    /// synchronized first (see [`Pacemaker`]).
    pub(crate) fn exit_view(&mut self, why: ViewEnd, now: SimTime, out: &mut Vec<Action>) {
        self.d.core.obs.span_end("view", self.d.view.0);
        if self.d.pm.is_awaiting_tc() {
            // Parked, and released by a vote on the proposal for the very
            // view the replica is parked at.
            self.d.core.obs.counter("epoch_entered_jump", 0, 1);
        }
        self.set_view(self.d.view.next());
        let d = &mut self.d;
        match d.pm.completed_view(d.view, why, now, &d.core.kp, out) {
            PmOutcome::Enter => {
                if d.core.cfg.is_epoch_start(d.view) {
                    // After a timeout: a TC scheduled the epoch before this
                    // replica reached its boundary.
                    let reason = match why {
                        ViewEnd::Voted => "epoch_entered_vote",
                        ViewEnd::TimedOut => "epoch_entered_tc",
                    };
                    d.core.obs.counter(reason, 0, 1);
                }
                self.enter_view(now, out)
            }
            PmOutcome::AwaitTc => {
                d.core.obs.counter("epoch_syncs", 0, 1);
                // Loss recovery: if the Wish (or the TC it produces) is
                // dropped, this timer re-wishes instead of parking forever.
                out.push(Action::SetTimer {
                    timer: Timer::ViewTimeout(self.d.view),
                    at: now + self.d.core.cfg.view_timer,
                });
            }
        }
    }

    /// Jump directly into `v` (a valid proposal for a higher view proves
    /// progress happened without us).
    pub(crate) fn jump_to(&mut self, v: View, now: SimTime, out: &mut Vec<Action>) {
        let d = &self.d;
        d.core.obs.span_end("view", d.view.0);
        if d.pm.is_awaiting_tc() || d.core.cfg.epoch_start(v) != d.core.cfg.epoch_start(d.view) {
            d.core.obs.counter("epoch_entered_jump", 0, 1);
        }
        self.set_view(v);
        self.enter_view(now, out);
    }

    // -- leader role --------------------------------------------------------

    fn refresh_tally(&mut self, now: SimTime, out: &mut Vec<Action>) {
        let view = self.d.view;
        if self.tally.as_ref().map(|t| t.view) != Some(view) {
            self.tally = Some(Tally {
                view,
                senders: HashSet::new(),
                wait_timer_armed: false,
                slow_timer_armed: false,
                deadline_passed: false,
                own: P::new_tally(view),
            });
        }
        if let Some(msgs) = self.d.nv_buf.remove(&view.0) {
            for (from, msg) in msgs {
                self.tally_newview(from, msg, now, out);
            }
        }
    }

    fn tally_newview(
        &mut self,
        from: ReplicaId,
        msg: NewViewMsg,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let Some(t) = self.tally.as_mut() else { return };
        if t.view == msg.dest_view && t.senders.insert(from) {
            P::tally_newview(self, from, msg, now, out);
        }
    }

    fn on_newview(
        &mut self,
        from: ReplicaId,
        msg: NewViewMsg,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        // Adopted on receipt, whoever leads `dest_view`.
        self.d.learn_cert(&msg.high_cert, from, now, out);
        let d = &self.d;
        if msg.dest_view < d.view || d.core.cfg.leader_of(msg.dest_view) != d.core.me {
            return;
        }
        if msg.dest_view == self.d.view && self.tally.is_some() {
            self.tally_newview(from, msg, now, out);
        } else {
            self.d.nv_buf.entry(msg.dest_view.0).or_default().push((from, msg));
        }
    }

    pub(crate) fn maybe_propose(&mut self, now: SimTime, out: &mut Vec<Action>) {
        if !self.d.is_leader() || self.d.crashed || self.d.pm.is_awaiting_tc() {
            return;
        }
        self.refresh_tally(now, out);
        P::propose_if_ready(self, now, out);
    }

    /// The current view's tally; callers run under [`Engine::maybe_propose`]
    /// or a leader-only handler that checked it.
    pub(crate) fn tally_mut(&mut self) -> &mut Tally<P::Tally> {
        self.tally.as_mut().expect("tally exists")
    }

    /// Arm ShareTimer(v) once per view.
    pub(crate) fn arm_leader_wait(&mut self, now: SimTime, out: &mut Vec<Action>) {
        let view = self.d.view;
        let at = self.d.pm.share_deadline(view, now);
        let t = self.tally_mut();
        if !t.wait_timer_armed {
            t.wait_timer_armed = true;
            out.push(Action::SetTimer { timer: Timer::LeaderWait(view), at });
        }
    }

    /// Fig. 2 line 8 / Fig. 4 line 3: with a quorum of NewViews in, wait
    /// until P(v−1) is known, or all n NewViews, or ShareTimer(v).
    pub(crate) fn prev_cert_or_deadline(&mut self, now: SimTime, out: &mut Vec<Action>) -> bool {
        let cfg = &self.d.core.cfg;
        let (quorum, n) = (cfg.quorum(), cfg.n);
        let have_prev = Some(self.d.high_cert.view) == self.d.view.prev();
        let t = self.tally_mut();
        if t.senders.len() < quorum {
            return false;
        }
        let ready = have_prev || t.senders.len() >= n || t.deadline_passed;
        if !ready {
            self.arm_leader_wait(now, out);
        }
        ready
    }

    /// Leader-slowness (§6 D6, §7.3): arm `ProposeAt` for the end of the
    /// view window, leaving slack for one round to complete. Once per
    /// view: a slow leader that gets here again keeps waiting.
    pub(crate) fn arm_slow_timer(&mut self, now: SimTime, out: &mut Vec<Action>) {
        let t = self.tally_mut();
        if t.slow_timer_armed {
            return;
        }
        t.slow_timer_armed = true;
        let view = self.d.view;
        let at = self.d.pm.deadline(view, now) - self.d.core.cfg.delta * 3;
        out.push(Action::SetTimer { timer: Timer::ProposeAt(view), at: at.max(now) });
    }

    /// Store a block and absorb its transactions into the mempool filter.
    pub(crate) fn insert_block(&mut self, b: &Arc<Block>) {
        self.p.index_block(b);
        self.d.core.insert_block(b.clone());
    }

    /// Assemble, store and trace this leader's next block over a fresh
    /// batch.
    pub(crate) fn new_block(
        &mut self,
        slot: Slot,
        justify: Certificate,
        carry: Option<BlockId>,
    ) -> Arc<Block> {
        let (me, view) = (self.d.core.me, self.d.view);
        let batch = self.d.core.make_batch();
        let b = Arc::new(match carry {
            Some(c) => Block::new_with_carry(me, view, slot, justify, c, batch),
            None => Block::new(me, view, slot, justify, batch),
        });
        self.insert_block(&b);
        self.d.core.obs.stage(Stage::Proposed, block_key(b.id()));
        self.d.core.obs.counter("blocks_proposed", 0, 1);
        b
    }

    // -- backup role --------------------------------------------------------

    fn on_propose(
        &mut self,
        from: ReplicaId,
        msg: ProposeMsg,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let b = &msg.block;
        if b.proposer != self.d.core.cfg.leader_of(b.view) || from != b.proposer {
            return;
        }
        if !self.d.core.cert_valid(&b.justify) {
            return;
        }
        if b.view < self.d.view {
            // Stale (e.g. arrived after our view timeout): keep the body —
            // later commits and carries may walk through it, and its
            // transactions are returned to the pool if it ends up an
            // orphan — but take no action.
            self.insert_block(b);
            return;
        }
        P::on_propose(self, from, msg, now, out);
    }

    fn on_fetch_resp(&mut self, block: Arc<Block>, now: SimTime, out: &mut Vec<Action>) {
        // Only absorb blocks we actually asked for: a Byzantine peer must
        // not grow our store (or influence parked work) by pushing
        // unrequested bodies through the fetch path. Fetched blocks must
        // themselves chain to something valid; their own missing
        // ancestors are fetched when a commit walk needs them.
        if !self.d.fetching.is_inflight(block.id()) || !self.d.core.cert_valid(&block.justify) {
            return;
        }
        self.d.fetching.resolved(block.id());
        self.insert_block(&block);
        // Re-deliver everything parked on a missing body, in arrival order
        // (what is still short of one parks again; stale entries drop out
        // through the handlers' own view checks), then a commit stalled on
        // a missing ancestor, then a leader whose first slot waits on the
        // carry this may have been.
        for (from, msg) in std::mem::take(&mut self.d.parked) {
            self.on_message(from, msg, now, out);
        }
        if let Some((target, source)) = self.d.retry_commit.take() {
            self.d.commit_or_fetch(target, source, now, out);
        }
        self.maybe_propose(now, out);
    }

    fn send_newview(&mut self, dest: View, out: &mut Vec<Action>) {
        let vote = P::newview_vote(self, dest);
        out.push(Action::Send {
            to: self.d.core.cfg.leader_of(dest),
            msg: Message::NewView(NewViewMsg {
                dest_view: dest,
                high_cert: self.d.high_cert.clone(),
                vote,
            }),
        });
    }
}

impl<P: Protocol> Replica for Engine<P> {
    fn id(&self) -> ReplicaId {
        self.d.core.me
    }

    fn on_init(&mut self, now: SimTime, out: &mut Vec<Action>) {
        if self.d.crashed {
            return;
        }
        // Genesis view 0 auto-completes; every replica announces itself to
        // the leader of view 1 with its (genesis) high certificate. A
        // restored replica re-enters at its recovered view instead.
        if self.d.view < View(1) {
            self.d.view = View(1);
        }
        self.send_newview(self.d.view, out);
        self.enter_view(now, out);
    }

    fn on_message(&mut self, from: ReplicaId, msg: Message, now: SimTime, out: &mut Vec<Action>) {
        if self.d.check_crash() {
            return;
        }
        match msg {
            Message::Propose(m) => self.on_propose(from, m, now, out),
            Message::NewView(m) => {
                self.on_newview(from, m, now, out);
                self.maybe_propose(now, out);
            }
            Message::Wish(m) => self.d.pm.on_wish(from, &m, &self.d.core.registry, out),
            Message::Tc(tc) => {
                // A released waiter was parked in the current view, and
                // `v` may be *ahead* of it: a newer epoch's TC un-parks a
                // replica whose own epoch TC was lost beyond recovery
                // (see Pacemaker docs).
                if let Some(v) = self.d.pm.on_tc(&tc, &self.d.core.registry, now, out) {
                    self.d.core.obs.counter("epoch_entered_tc", 0, 1);
                    self.set_view(v);
                    self.enter_view(now, out);
                }
            }
            Message::FetchBlock { id } => {
                if let Some(b) = self.d.core.block(id) {
                    out.push(Action::Send {
                        to: from,
                        msg: Message::FetchResp { block: b.clone() },
                    });
                }
            }
            Message::FetchResp { block } => self.on_fetch_resp(block, now, out),
            Message::Request(tx) => {
                self.d.core.pool.offer(tx);
                // A leader holding for want of transactions proposes now.
                self.maybe_propose(now, out);
            }
            other => P::on_message(self, from, other, now, out),
        }
    }

    fn on_timer(&mut self, timer: Timer, now: SimTime, out: &mut Vec<Action>) {
        if self.d.check_crash() {
            return;
        }
        match timer {
            Timer::ViewTimeout(v) if v != self.d.view => {}
            Timer::ViewTimeout(v) if self.d.pm.is_awaiting_tc() => {
                // Parked at an epoch boundary: retry the Wish (ours or
                // the TC may have been lost) and keep the timer armed.
                self.d.core.obs.point("wish_retry", v.0, 0);
                self.d.core.obs.counter("wish_retries", 0, 1);
                self.d.pm.rewish(&self.d.core.kp, out);
                out.push(Action::SetTimer {
                    timer: Timer::ViewTimeout(v),
                    at: now + self.d.core.cfg.view_timer,
                });
            }
            Timer::ViewTimeout(v) => {
                // Fig. 2 / Fig. 4 lines 20–22 / Fig. 7 lines 27–31.
                self.send_newview(v.next(), out);
                self.exit_view(ViewEnd::TimedOut, now, out);
            }
            Timer::LeaderWait(v) => {
                if v == self.d.view {
                    if let Some(t) = self.tally.as_mut() {
                        t.deadline_passed = true;
                    }
                    self.maybe_propose(now, out);
                }
            }
            Timer::ProposeAt(v) => {
                if v == self.d.view && self.d.is_leader() {
                    P::on_propose_at(self, now, out);
                }
            }
        }
    }

    fn enqueue_txs(&mut self, txs: &[hs1_types::Transaction]) {
        for tx in txs {
            self.d.core.pool.offer(*tx);
        }
    }

    fn pool_stats(&self) -> PoolStats {
        self.d.core.pool.stats()
    }

    fn current_view(&self) -> View {
        self.d.view
    }

    fn committed_head(&self) -> BlockId {
        self.d.core.committed_head()
    }

    fn committed_chain(&self) -> Vec<BlockId> {
        self.d.core.committed_log().ids().collect()
    }

    fn committed_log(&self) -> CommittedLog {
        self.d.core.committed_log().clone()
    }

    fn committed_len(&self) -> usize {
        self.d.core.committed_log().len()
    }

    fn set_observer(&mut self, obs: Obs) {
        self.d.core.set_observer(obs);
    }

    fn set_persistence(&mut self, mut persist: Box<dyn Persistence>) {
        persist.set_observer(self.d.core.obs.clone());
        self.d.core.persist = persist;
    }

    fn restore(&mut self, rs: RecoveredState) {
        let (view, high_cert) = (rs.view, rs.high_cert.clone());
        // A refused image's view and certificate are refused with it.
        if !self.d.core.restore(rs) {
            return;
        }
        if view > self.d.view {
            self.d.view = view;
            self.p.raise_vote_floor(view);
        }
        if let Some(cert) = high_cert {
            if cert.rank() > self.d.high_cert.rank() {
                self.d.high_cert = cert;
            }
        }
    }

    fn state_root(&self) -> hs1_crypto::Digest {
        self.d.core.state_root()
    }
}
