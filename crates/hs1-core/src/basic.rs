//! Basic (non-streamlined) HotStuff-1 — paper §4, Fig. 2.
//!
//! Each view has two phases run by the *same* leader:
//!
//! 1. **Propose / ProposeVote** — the leader broadcasts
//!    `⟨Propose, B_v, v, P(v_lp), C(v_lc)⟩`; replicas vote back to the
//!    leader when `w ≥ v_lp`.
//! 2. **Prepare / NewView** — the leader aggregates `n − f` votes into
//!    `P(v)` and broadcasts it; replicas speculatively execute `B_v`
//!    (Prefix-Speculation + No-Gap rules), commit-vote with a threshold
//!    share `δ_C`, and send a NewView to the *next* leader, which may
//!    aggregate `C(v)`.
//!
//! Commit rules: traditional (a commit certificate `C(v)` arrives,
//! Def. 4.5) and prefix (a `P(v+1)` extending `P(v)` arrives, Def. 4.6).

use crate::driver::{Engine, Protocol};
use crate::pacemaker::ViewEnd;
use crate::replica::Action;
use crate::shares::ShareTally;
use hs1_obs::{block_key, Stage};
use hs1_types::cert::CertKind;
use hs1_types::message::{NewViewMsg, PrepareMsg, ProposeMsg, VoteInfo, VoteMsg};
use hs1_types::{BlockId, Certificate, CommittedLog, Message, ReplicaId, SimTime, Slot, View};

#[derive(Default)]
pub(crate) struct Basic {
    /// Highest known commit certificate `C(v_lc)`.
    high_commit: Option<Certificate>,
    last_voted: View,
}

pub(crate) struct BasicTally {
    /// Commit shares `δ_C` for `P(v−1)` carried in NewViews.
    commit_shares: ShareTally,
    /// ProposeVote shares for our proposal.
    prop_shares: ShareTally,
    proposed: Option<BlockId>,
    prepared: bool,
}

impl Basic {
    fn on_vote(e: &mut Engine<Self>, from: ReplicaId, msg: VoteMsg, out: &mut Vec<Action>) {
        let Some(t) = e.tally.as_mut() else { return };
        if msg.vote.view != t.view || Some(msg.vote.block) != t.own.proposed || t.own.prepared {
            return;
        }
        if !t.own.prop_shares.insert(&e.d.core, from, &msg.vote) {
            return;
        }
        // Fig. 2 lines 13–15: form P(v) and broadcast Prepare.
        if let Some(cert) = t.own.prop_shares.certificate(e.d.core.cfg.quorum()) {
            t.own.prepared = true;
            e.d.core.formed_cert(&cert);
            out.push(Action::Broadcast { msg: Message::Prepare(PrepareMsg { cert }) });
        }
    }

    fn on_prepare(
        e: &mut Engine<Self>,
        from: ReplicaId,
        msg: PrepareMsg,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let cert = msg.cert;
        let pv = cert.view;
        if pv < e.d.view || from != e.d.core.cfg.leader_of(pv) {
            return;
        }
        if cert.kind != CertKind::Quorum || !e.d.core.cert_valid(&cert) {
            return;
        }
        let Some(b) = e.d.core.block(cert.block) else {
            // The certified body never arrived (lost Propose): fetch it
            // and park the Prepare, or this replica cannot speculate,
            // commit-vote, or follow the prefix-commit rule this view.
            let missing = [cert.block];
            e.d.fetch_and_park(&missing, from, Message::Prepare(PrepareMsg { cert }), now, out);
            return;
        };
        if pv > e.d.view {
            e.jump_to(pv, now, out);
        }
        if cert.rank() > e.d.high_cert.rank() {
            e.d.set_high_cert(cert.clone());
        }

        // Prefix commit rule (Fig. 2 lines 22–23, Def. 4.6): P(v) extends
        // P(v−1) ⇒ commit up to B_{v−1}.
        if cert.view.is_successor_of(b.justify.view) && !cert.is_genesis() {
            e.d.commit_or_fetch(b.parent, from, now, out);
        }

        // Speculation (Fig. 2 lines 24–27): Prefix-Speculation rule; the
        // No-Gap rule holds because the certificate was formed in the
        // replica's current view.
        if e.d.core.is_committed(b.parent) && !b.is_genesis() {
            e.d.core.speculate(&b, out);
        }

        // Commit-vote δ_C to the next leader (Fig. 2 lines 28–30).
        let share = e.d.core.sign_share(CertKind::Commit, pv, Slot::FIRST, cert.block);
        let next = pv.next();
        out.push(Action::Send {
            to: e.d.core.cfg.leader_of(next),
            msg: Message::NewView(NewViewMsg {
                dest_view: next,
                high_cert: e.d.high_cert.clone(),
                vote: Some(VoteInfo { view: pv, slot: Slot::FIRST, block: cert.block, share }),
            }),
        });
        e.exit_view(ViewEnd::Voted, now, out);
    }
}

impl Protocol for Basic {
    type Tally = BasicTally;
    const PRUNE_KEEP: usize = CommittedLog::KEEP;

    fn new_tally(_view: View, spare: Option<BasicTally>) -> BasicTally {
        let (commit, prop) = spare.map(|t| (t.commit_shares, t.prop_shares)).unzip();
        BasicTally {
            commit_shares: ShareTally::reused(commit, CertKind::Commit),
            prop_shares: ShareTally::reused(prop, CertKind::Quorum),
            proposed: None,
            prepared: false,
        }
    }

    fn tally_newview(
        e: &mut Engine<Self>,
        from: ReplicaId,
        msg: NewViewMsg,
        _now: SimTime,
        _out: &mut Vec<Action>,
    ) {
        let prev = e.d.view.prev();
        let Some(vote) = msg.vote.filter(|v| Some(v.view) == prev) else { return };
        let shares = &mut e.tally.as_mut().expect("tally exists").own.commit_shares;
        shares.insert(&e.d.core, from, &vote);
        // Fig. 2 lines 11–12: aggregate C(v−1) from n − f commit shares.
        if let Some(cert) = shares.certificate(e.d.core.cfg.quorum()) {
            if e.p.high_commit.as_ref().map(|c| cert.rank() > c.rank()).unwrap_or(true) {
                e.p.high_commit = Some(cert);
            }
        }
    }

    fn propose_if_ready(e: &mut Engine<Self>, now: SimTime, out: &mut Vec<Action>) {
        if e.tally_mut().own.proposed.is_some() || !e.prev_cert_or_deadline(now, out) {
            return;
        }
        let b = e.new_block(Slot::FIRST, e.d.high_cert.clone(), None);
        e.tally_mut().own.proposed = Some(b.id());
        let commit_cert = e.p.high_commit.clone();
        out.push(Action::Broadcast { msg: Message::Propose(ProposeMsg { block: b, commit_cert }) });
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
        if !e.d.core.has_block(b.justify.block) {
            e.d.fetch_and_park(&[b.justify.block], from, Message::Propose(msg), now, out);
            return;
        }
        e.insert_block(&b);
        e.d.core.obs.stage(Stage::Received, block_key(b.id()));
        if pv > e.d.view {
            e.jump_to(pv, now, out);
        }

        // Traditional commit rule (Fig. 2 line 17): execute up to B_x for
        // the piggy-backed commit certificate C(x).
        if let Some(cc) = &msg.commit_cert {
            if cc.kind == CertKind::Commit && e.d.core.cert_valid(cc) {
                e.d.commit_or_fetch(cc.block, b.proposer, now, out);
            }
        }

        // Vote to prepare when w ≥ v_lp (Fig. 2 lines 18–20).
        if b.justify.rank() >= e.d.high_cert.rank() && pv > e.p.last_voted {
            if b.justify.rank() > e.d.high_cert.rank() {
                e.d.set_high_cert(b.justify.clone());
            }
            e.p.last_voted = pv;
            e.d.core.obs.stage(Stage::Voted, block_key(b.id()));
            e.d.core.obs.counter("votes_sent", 0, 1);
            let share = e.d.core.sign_share(CertKind::Quorum, pv, Slot::FIRST, b.id());
            out.push(Action::Send {
                to: b.proposer,
                msg: Message::Vote(VoteMsg {
                    vote: VoteInfo { view: pv, slot: Slot::FIRST, block: b.id(), share },
                }),
            });
        }
    }

    fn on_message(
        e: &mut Engine<Self>,
        from: ReplicaId,
        msg: Message,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        match msg {
            Message::Vote(m) => Self::on_vote(e, from, m, out),
            Message::Prepare(m) => Self::on_prepare(e, from, m, now, out),
            _ => {}
        }
    }

    fn raise_vote_floor(&mut self, recovered: View) {
        self.last_voted = self.last_voted.max(recovered);
    }
}
