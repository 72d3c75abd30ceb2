//! The streamlined (chained) protocols — paper §5, Fig. 4.
//!
//! One policy covers three protocols that share the message flow of
//! Fig. 4 — a single Propose/NewView phase per view, with votes sent to
//! the *next* leader:
//!
//! * **HotStuff** — 3-chain commit, no speculation: a block commits
//!   behind three consecutive certificates (7 half-phases).
//! * **HotStuff-2** — 2-chain prefix-commit rule, no speculation
//!   (5 half-phases).
//! * **HotStuff-1** — 2-chain plus speculation: replicas speculatively
//!   execute `B_{v−1}` on receiving the view-`v` proposal that certifies
//!   it, when the Prefix-Speculation and No-Gap rules hold (3 half-phases
//!   to the client's early finality confirmation).
//!
//! **A leader with nothing to answer holds its proposal.** A request
//! needs the view that proposes its block and the views whose proposals
//! carry that block to its answer: one more under HotStuff-1 (the
//! proposal that certifies it makes replicas speculate), two more under
//! HotStuff-2 and three under HotStuff (commit). A leader whose mempool is
//! empty and whose certified branch holds no block that still owes its
//! clients an answer — non-empty, uncommitted and, under HotStuff-1, not
//! speculated — has nothing a proposal would move. It waits until a
//! request arrives (`Message::Request` steps the engine) or until the
//! slow-leader `ProposeAt`, 3Δ before the view deadline, whichever is
//! first. That cannot cost a view timeout: the proposal reaches every
//! correct replica within Δ and the votes the next leader within another,
//! inside the view timer each replica armed when it entered the view. So
//! the hold changes when a view ends, never whether it ends on a vote;
//! votes, commits and speculation are untouched. A zero-load cluster runs
//! one view per view timer instead of one per round trip.

use crate::byzantine::Fault;
use crate::common::CoreState;
use crate::driver::{Driver, Engine, Protocol};
use crate::pacemaker::ViewEnd;
use crate::replica::Action;
use crate::shares::ShareTally;
use hs1_obs::{block_key, Stage};
use hs1_types::cert::CertKind;
use hs1_types::message::{NewViewMsg, ProposeMsg, VoteInfo};
use hs1_types::{BlockId, CommittedLog, Message, ReplicaId, SimTime, Slot, View};

pub(crate) struct Chained {
    /// Commit-rule depth: consecutive certificates that finalize a block
    /// (2 for HotStuff-2 / HotStuff-1, 3 for HotStuff).
    depth: u8,
    speculative: bool,
    /// Highest view this replica voted in (vote-once-per-view).
    last_voted: View,
    /// Highest view whose proposal was processed (equivocation guard).
    last_prop: View,
}

pub(crate) struct ChainedTally {
    /// Vote shares for blocks of view − 1.
    votes: ShareTally,
    proposed: bool,
    /// Held for want of anything to answer (module doc).
    held: bool,
}

impl Chained {
    pub(crate) fn new(depth: u8, speculative: bool) -> Chained {
        Chained { depth, speculative, last_voted: View::GENESIS, last_prop: View::GENESIS }
    }

    /// Does a block on the branch ending at `tip` still owe its clients an
    /// answer: non-empty, uncommitted and not speculated (the baselines
    /// never speculate)? A body this replica lacks is assumed to.
    fn owes_an_answer(core: &CoreState, tip: BlockId) -> bool {
        let mut id = tip;
        while !core.is_committed(id) {
            let Some(b) = core.block(id) else { return true };
            if !b.txs.is_empty() && core.exec.digest_of(id).is_none() {
                return true;
            }
            id = b.parent;
        }
        false
    }

    /// One block builder; the fault picks the justify and the recipients.
    fn do_propose(e: &mut Engine<Self>, out: &mut Vec<Action>) {
        let fault = e.d.fault.clone();
        let fresh = e.d.high_cert.clone();
        // TailFork ignores P(v−1) and extends the certificate of view
        // ≤ v−2 (Example 6.2), orphaning the previous leader's block.
        // RollbackAttack (Appendix A.2) sends that block to everyone but
        // its victims, who get X extending the fresh certificate (they
        // will speculate and later roll back); colluding faulty voters
        // help certify the conflicting block.
        let justify = if fault.colludes() { e.d.stale_cert() } else { fresh.clone() };
        let bait = match &fault {
            Fault::RollbackAttack { victims } => {
                Some((victims, e.new_block(Slot::FIRST, fresh, None)))
            }
            _ => None,
        };
        let b = e.new_block(Slot::FIRST, justify, None);
        if let Some(t) = e.tally.as_mut() {
            t.own.proposed = true;
        }
        match bait {
            Some((victims, x)) => e.d.equivocate(victims, &x, &b, out),
            None => Driver::broadcast_proposal(b, out),
        }
    }
}

impl Protocol for Chained {
    type Tally = ChainedTally;
    const PRUNE_KEEP: usize = CommittedLog::KEEP;

    fn new_tally(_view: View) -> ChainedTally {
        ChainedTally { votes: ShareTally::new(CertKind::Quorum), proposed: false, held: false }
    }

    fn tally_newview(
        e: &mut Engine<Self>,
        from: ReplicaId,
        msg: NewViewMsg,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let votes = &mut e.tally.as_mut().expect("tally exists").own.votes;
        if let Some(vote) = &msg.vote {
            if Some(vote.view) == e.d.view.prev() && vote.slot == Slot::FIRST {
                votes.insert(&e.d.core, from, vote);
            }
        }
        // Form P(v−1) as soon as a quorum of shares agrees on one block
        // (Fig. 4 lines 6–7), whether or not B_{v−1} itself has arrived.
        if let Some(cert) = votes.certificate(e.d.core.cfg.quorum()) {
            e.d.learn_formed_cert(&cert, from, now, out);
        }
    }

    fn propose_if_ready(e: &mut Engine<Self>, now: SimTime, out: &mut Vec<Action>) {
        if e.tally_mut().own.proposed || !e.prev_cert_or_deadline(now, out) {
            return;
        }
        // A slow leader proposes when ProposeAt fires.
        if matches!(e.d.fault, Fault::SlowLeader) {
            e.arm_slow_timer(now, out);
            return;
        }
        // So does one with nothing to answer, unless a request comes first.
        let idle = e.d.core.pool.stats().depth == 0;
        if idle && !Self::owes_an_answer(&e.d.core, e.d.high_cert.block) {
            if !std::mem::replace(&mut e.tally_mut().own.held, true) {
                e.d.core.obs.counter("proposals_held", 0, 1);
            }
            e.arm_slow_timer(now, out);
            return;
        }
        if e.tally_mut().own.held && !idle {
            e.d.core.obs.counter("hold_released_request", 0, 1);
        }
        Self::do_propose(e, out);
    }

    fn on_propose_at(e: &mut Engine<Self>, _now: SimTime, out: &mut Vec<Action>) {
        let (proposed, held) =
            e.tally.as_ref().map_or((false, false), |t| (t.own.proposed, t.own.held));
        if proposed {
            return;
        }
        if held {
            e.d.core.obs.counter("hold_released_timer", 0, 1);
        }
        Self::do_propose(e, out);
    }

    fn on_propose(
        e: &mut Engine<Self>,
        from: ReplicaId,
        msg: ProposeMsg,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let b = msg.block.clone();
        let pv = b.view;
        if b.slot != Slot::FIRST {
            return;
        }
        if pv <= e.p.last_prop {
            // A second proposal for a view already acted on: keep the
            // body, as for a stale one, but take no action.
            e.insert_block(&b);
            return;
        }
        if !e.d.core.has_block(b.justify.block) {
            e.d.fetch_and_park(&[b.justify.block], from, Message::Propose(msg), now, out);
            return;
        }
        e.insert_block(&b);
        e.d.core.obs.stage(Stage::Received, block_key(b.id()));
        if pv > e.d.view {
            e.jump_to(pv, now, out);
        }
        e.p.last_prop = pv;

        let justify = b.justify.clone();
        let jb = e.d.core.block(justify.block).expect("justify block present").clone();

        // 1. Commit rule (Fig. 4 lines 9–10; 3-chain for HotStuff).
        if justify.view.is_successor_of(jb.justify.view) && !justify.is_genesis() {
            if e.p.depth == 2 {
                e.d.commit_or_fetch(jb.parent, b.proposer, now, out);
            } else if let Some(jb1) = e.d.core.block(jb.justify.block).cloned() {
                if jb.justify.view.is_successor_of(jb1.justify.view) && !jb.justify.is_genesis() {
                    e.d.commit_or_fetch(jb1.parent, b.proposer, now, out);
                }
            }
        }

        // 2. Speculation (HotStuff-1 only; Fig. 4 lines 11–15).
        if e.p.speculative
            && pv.is_successor_of(justify.view) // No-Gap rule
            && e.d.core.is_committed(jb.parent) // Prefix Speculation rule
            && !jb.is_genesis()
        {
            e.d.core.speculate(&jb, out);
        }

        // 3. Vote (Fig. 4 lines 16–18): w ≥ v_lp; colluding faulty
        // replicas vote for any faulty leader's proposal.
        let old_rank = e.d.high_cert.rank();
        if justify.rank() >= old_rank {
            e.d.set_high_cert(justify.clone());
        }
        let vote_ok = justify.rank() >= old_rank || e.d.fault.colludes();
        if vote_ok && pv > e.p.last_voted && !e.d.crashed {
            e.p.last_voted = pv;
            e.d.core.obs.stage(Stage::Voted, block_key(b.id()));
            e.d.core.obs.counter("votes_sent", 0, 1);
            let share = e.d.core.sign_share(CertKind::Quorum, pv, Slot::FIRST, b.id());
            out.push(Action::Send {
                to: e.d.core.cfg.leader_of(pv.next()),
                msg: Message::NewView(NewViewMsg {
                    dest_view: pv.next(),
                    high_cert: e.d.high_cert.clone(),
                    vote: Some(VoteInfo { view: pv, slot: Slot::FIRST, block: b.id(), share }),
                }),
            });
            // 4. Exit the view (Fig. 4 line 19).
            e.exit_view(ViewEnd::Voted, now, out);
        }
    }

    fn raise_vote_floor(&mut self, recovered: View) {
        self.last_voted = self.last_voted.max(recovered);
        self.last_prop = self.last_prop.max(recovered);
    }
}
