//! Streamlined HotStuff-1 with adaptive slotting — paper §6, Figs. 6–7.
//!
//! Each leader owns a full view window τ and proposes as many *slots* as
//! network round-trips allow. Views advance on the pacemaker timer, slots
//! advance at network speed. The design elements reproduced here:
//!
//! * **Dual certificates** — NewSlot votes advance slots within a view;
//!   NewView votes (signed over the destination view, pinning the `fv`
//!   annotation) form New-View certificates across views (§6.1).
//! * **Carry blocks** — a first-slot proposal using "way (ii)" extends the
//!   leader's highest certificate and carries the lowest uncertified block
//!   `B_u` extending it (Definition 6.3), protecting the previous view's
//!   tail from forking (§6.2).
//! * **SafeSlot cases 1–4** — the vote-eligibility predicate (Fig. 7).
//! * **Four first-slot conditions** — a leader proposes once it (1) forms
//!   a New-View certificate, (2) hears from all n replicas, (3) reaches
//!   ShareTimer(v), or (4) can prove no higher certificate exists
//!   (Fig. 6 line 6).
//! * **Trusted previous leaders** — a NewView from a trusted `L_{v−1}`
//!   carrying a certificate formed in view `v−1` lets `L_v` propose at
//!   network speed; concealment revealed by a Reject marks `L_{v−1}`
//!   distrusted forever (§6.3, Fig. 6 lines 20–24).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::byzantine::Fault;
use crate::common::CoreState;
use crate::driver::{Driver, Engine, Protocol};
use crate::replica::Action;
use crate::shares::ShareTally;
use hs1_obs::{block_key, Stage};
use hs1_types::cert::CertKind;
use hs1_types::ids::Rank;
use hs1_types::message::{NewSlotMsg, NewViewMsg, ProposeMsg, RejectMsg, VoteInfo};
use hs1_types::{
    Block, BlockId, Certificate, CommittedLog, Message, ReplicaId, SimTime, Slot, View,
};

/// In which view a certificate was *formed* (for the trusted-leader fast
/// path): a NewSlot certificate is formed in its own view; a NewView
/// certificate is formed in `fv`.
fn formed_in(cert: &Certificate) -> Option<View> {
    match cert.kind {
        CertKind::NewSlot => Some(cert.view),
        CertKind::NewView { formed_in } => Some(formed_in),
        _ => None,
    }
}

pub(crate) struct SlottedTally {
    /// NEW_VIEW shares by the voted block position.
    nv_votes: ShareTally,
    /// NewSlot shares for the slot currently being certified.
    ns_shares: ShareTally,
    /// The block currently collecting NewSlot votes (our latest proposal).
    proposing: Option<(Slot, BlockId)>,
    first_proposed: bool,
    /// High certificate received from the previous leader's NewView (for
    /// Reject-based distrust detection, Fig. 6 lines 22–24).
    prev_leader_cert: Option<Certificate>,
    trusted_fast_path: bool,
}

pub(crate) struct Slotted {
    /// Next slot this replica will vote on in the current view.
    slot: Slot,
    /// No NewSlot vote is ever cast at or below this rank. Genesis in
    /// normal operation; raised past the recovered view on restore, since
    /// the per-view `slot` cursor does not survive a crash (§4.2).
    vote_floor: Rank,
    /// Highest voted block `B_h` (view, slot, id) — named in NewView votes.
    highest_voted: (Rank, BlockId),
    /// Leaders that concealed certificates (never trusted again).
    distrusted: HashSet<ReplicaId>,
    /// Child block of each certificate identity (cert.view, cert.slot,
    /// cert.block) → the block that extends it; used to locate carry
    /// blocks (Definition 6.3).
    cert_children: HashMap<(u64, u32, BlockId), BlockId>,
}

impl Slotted {
    pub(crate) fn new() -> Slotted {
        Slotted {
            slot: Slot::FIRST,
            vote_floor: Rank::GENESIS,
            highest_voted: (Rank::GENESIS, Block::genesis_id()),
            distrusted: HashSet::new(),
            cert_children: HashMap::new(),
        }
    }

    /// The carry block `B_u` for `cert` (Definition 6.3): the lowest
    /// uncertified block extending it, located via the justify index.
    fn carry_for(&self, cert: &Certificate) -> Option<BlockId> {
        self.cert_children.get(&(cert.view.0, cert.slot.0, cert.block)).copied()
    }

    // -- leader: first slot ---------------------------------------------------

    /// Propose the view's first slot. `deferred`: the slow-leader deferral
    /// already happened (this is the `ProposeAt` firing).
    fn propose_first(
        e: &mut Engine<Self>,
        justify: Certificate,
        carry: Option<BlockId>,
        deferred: bool,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        // Leader-slowness: defer the first slot to the end of the window.
        if matches!(e.d.fault, Fault::SlowLeader) && !deferred {
            return e.arm_slow_timer(now, out);
        }
        let b = e.new_block(Slot::FIRST, justify, carry);
        if let Some(t) = e.tally.as_mut() {
            t.own.first_proposed = true;
            t.own.proposing = Some((Slot::FIRST, b.id()));
        }
        let Fault::RollbackAttack { victims } = e.d.fault.clone() else {
            return Driver::broadcast_proposal(b, out);
        };
        // First-slot equivocation: victims receive the real proposal;
        // everyone else receives a conflicting one extending a stale
        // certificate (they reject or fork it).
        let alt_justify = e.d.stale_cert();
        let alt_carry = e.p.carry_for(&alt_justify).filter(|c| e.d.core.has_block(*c));
        let alt = e.new_block(Slot::FIRST, alt_justify, alt_carry);
        e.d.equivocate(&victims, &b, &alt, out);
    }

    // -- leader: subsequent slots ----------------------------------------------

    fn on_newslot(
        e: &mut Engine<Self>,
        from: ReplicaId,
        msg: NewSlotMsg,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        e.d.learn_cert(&msg.high_cert, from, now, out);
        if msg.view != e.d.view || !e.d.is_leader() {
            return;
        }
        let Some(t) = e.tally.as_mut().map(|t| &mut t.own) else { return };
        let Some((slot, block)) = t.proposing else { return };
        let v = &msg.vote;
        if msg.slot != slot || (v.view, v.slot, v.block) != (msg.view, slot, block) {
            return;
        }
        if !t.ns_shares.insert(&e.d.core, from, v) {
            return;
        }
        // Fig. 6 lines 16–19: form P(s, v) and immediately propose slot
        // s+1 (forming and proposing are atomic, so every certificate we
        // ever hand out has a known successor block).
        if let Some(cert) = t.ns_shares.certificate(e.d.core.cfg.quorum()) {
            t.ns_shares = ShareTally::new(CertKind::NewSlot);
            e.d.learn_formed_cert(&cert, from, now, out);
            let b = e.new_block(slot.next(), cert, None);
            e.tally_mut().own.proposing = Some((slot.next(), b.id()));
            Driver::broadcast_proposal(b, out);
        }
    }

    fn on_reject(
        e: &mut Engine<Self>,
        from: ReplicaId,
        msg: RejectMsg,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        e.d.learn_cert(&msg.high_cert, from, now, out);
        // Fig. 6 lines 22–24: if the previous leader sent us a *lower*
        // certificate formed in view v−1 while a higher one (also formed
        // in v−1) existed, it concealed — distrust it.
        let Some(prev) = e.d.view.prev() else { return };
        let Some(t) = e.tally.as_ref() else { return };
        if t.view != e.d.view || formed_in(&msg.high_cert) != Some(prev) {
            return;
        }
        if let Some(pl_cert) = &t.own.prev_leader_cert {
            if formed_in(pl_cert) == Some(prev) && pl_cert.rank() < msg.high_cert.rank() {
                e.p.distrusted.insert(e.d.core.cfg.leader_of(prev));
            }
        }
    }
}

/// SafeSlot (Fig. 7 lines 1–11). A first slot that lacks the carry `B_u`
/// its certificate calls for is still safe to a replica that holds no
/// `B_u` itself (`holds_successor` false): had `B_u` gathered the n − f
/// votes a certificate takes, f + 1 correct replicas would hold it and
/// refuse, leaving the proposal short of a quorum. Refused by all, a `B_u`
/// that reached nobody — lost, or withheld by a faulty leader — would stop
/// the chain for good.
fn safe_slot(
    ps: Slot,
    pv: View,
    justify: &Certificate,
    carry: Option<&Arc<Block>>,
    holds_successor: bool,
) -> bool {
    match (ps == Slot::FIRST, &justify.kind) {
        // Case 1: fresh New-View certificate formed by this view.
        (true, CertKind::NewView { formed_in }) if *formed_in == pv => carry.is_none(),
        // Case 2: older New-View certificate; must carry B_{1,fv}.
        (true, CertKind::NewView { formed_in }) => {
            carry.map_or(!holds_successor, |u| u.slot == Slot::FIRST && u.view == *formed_in)
        }
        // Case 3: New-Slot certificate; must carry B_{s_w+1, w}.
        (true, CertKind::NewSlot) => carry.map_or(!holds_successor, |u| {
            u.view == justify.view && u.slot.is_successor_of(justify.slot)
        }),
        // Case 4: later slots extend the previous slot of the same view.
        (false, CertKind::NewSlot) => {
            ps.is_successor_of(justify.slot) && justify.view == pv && carry.is_none()
        }
        // Genesis bootstrap (hard-coded certificate, §4.1 note).
        (true, CertKind::Quorum) if justify.is_genesis() && pv == View(1) => carry.is_none(),
        _ => false,
    }
}

impl Protocol for Slotted {
    type Tally = SlottedTally;
    const PRUNE_KEEP: usize = 2 * CommittedLog::KEEP;

    fn new_tally(view: View) -> SlottedTally {
        SlottedTally {
            nv_votes: ShareTally::new(CertKind::NewView { formed_in: view }),
            ns_shares: ShareTally::new(CertKind::NewSlot),
            proposing: None,
            first_proposed: false,
            prev_leader_cert: None,
            trusted_fast_path: false,
        }
    }

    /// Fig. 7 lines 27–31: a NEW_VIEW share over the highest voted block
    /// (genesis at init, so the first leader can assemble a
    /// condition-(1) certificate if it wants to).
    fn newview_vote(e: &mut Engine<Self>, dest: View) -> Option<VoteInfo> {
        let (rank, block) = e.p.highest_voted;
        let kind = CertKind::NewView { formed_in: dest };
        let share = e.d.core.sign_share(kind, rank.view, rank.slot, block);
        Some(VoteInfo { view: rank.view, slot: rank.slot, block, share })
    }

    fn tally_newview(
        e: &mut Engine<Self>,
        from: ReplicaId,
        msg: NewViewMsg,
        _now: SimTime,
        _out: &mut Vec<Action>,
    ) {
        let view = e.d.view;
        let prev_leader = view.prev().map(|p| e.d.core.cfg.leader_of(p));
        let t = &mut e.tally.as_mut().expect("tally exists").own;
        if let Some(vote) = &msg.vote {
            t.nv_votes.insert(&e.d.core, from, vote);
        }
        // Trusted fast path (§6.3, Fig. 6 line 20): the previous leader's
        // NewView carries a certificate formed in view v−1.
        if Some(from) == prev_leader {
            t.prev_leader_cert = Some(msg.high_cert.clone());
            if formed_in(&msg.high_cert) == view.prev() && !e.p.distrusted.contains(&from) {
                t.trusted_fast_path = true;
            }
        }
    }

    fn propose_if_ready(e: &mut Engine<Self>, now: SimTime, out: &mut Vec<Action>) {
        let cfg = &e.d.core.cfg;
        let (quorum, n, f) = (cfg.quorum(), cfg.n, cfg.f());
        let view = e.d.view;
        let high_rank = e.d.high_cert.rank();
        let t = e.tally.as_ref().expect("tally exists");
        if t.own.first_proposed {
            return;
        }

        // Condition (1): a New-View certificate can be formed.
        let formed = t.own.nv_votes.certificate(quorum);

        let senders = t.senders.len();
        // Condition (4): with k = n − senders unheard, no position above
        // our high certificate has f+1−k votes.
        let k = n.saturating_sub(senders);
        let cond4 = senders >= quorum && k <= f && !t.own.nv_votes.any_above(high_rank, f + 1 - k);
        let cond2 = senders >= n;
        let cond3 = t.deadline_passed;

        if formed.is_none() && !cond2 && !cond3 && !cond4 && !t.own.trusted_fast_path {
            if senders >= quorum {
                e.arm_leader_wait(now, out);
            }
            return;
        }

        let high_cert = e.d.high_cert.clone();
        // Genesis bootstrap: view 1 may always extend the hard-coded
        // certificate immediately.
        if view == View(1) && formed.is_none() {
            return Self::propose_first(e, high_cert, None, false, now, out);
        }

        if let Some(cert) = formed {
            // Way (i): extend the fresh New-View certificate.
            if matches!(e.d.fault, Fault::TailFork) {
                // Slotted tail-forking attempt: extend a stale certificate
                // without the mandated carry; correct replicas reject it
                // (SafeSlot), wasting only the attacker's own view (§6.2).
                return Self::propose_first(e, high_cert, None, false, now, out);
            }
            let me = e.d.core.me;
            e.d.learn_formed_cert(&cert, me, now, out);
            return Self::propose_first(e, cert, None, false, now, out);
        }

        // Way (ii): extend the highest certificate, carrying B_u.
        match e.p.carry_for(&high_cert) {
            Some(c) if !e.d.core.has_block(c) => {
                // Know the child id but not the body: fetch from anyone
                // (at least f+1 correct replicas voted for it).
                let me = e.d.core.me;
                e.d.request_block(c, me, now, out);
            }
            // `None`: no uncertified successor known. Only reachable when
            // the certificate arrived bare (not inside a child block);
            // propose extending it directly — SafeSlot cases will reject
            // if a successor existed at ≥ f+1 correct replicas.
            carry => Self::propose_first(e, high_cert, carry, false, now, out),
        }
    }

    fn on_propose_at(e: &mut Engine<Self>, now: SimTime, out: &mut Vec<Action>) {
        if !e.tally.as_ref().map(|t| t.own.first_proposed).unwrap_or(false) {
            // Slow leader finally proposes (one slot fits).
            let justify = e.d.high_cert.clone();
            let carry = e.p.carry_for(&justify).filter(|c| e.d.core.has_block(*c));
            Self::propose_first(e, justify, carry, true, now, out);
        }
    }

    fn on_propose(
        e: &mut Engine<Self>,
        from: ReplicaId,
        msg: ProposeMsg,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let b = msg.block.clone();
        let (pv, ps) = (b.view, b.slot);
        // Justify and carry blocks must be present before we can act.
        let missing: Vec<BlockId> = std::iter::once(b.justify.block)
            .chain(b.carry)
            .filter(|id| !e.d.core.has_block(*id))
            .collect();
        if !missing.is_empty() {
            e.d.fetch_and_park(&missing, from, Message::Propose(msg), now, out);
            return;
        }
        // Validate the carry chain: B_u must extend the same certificate.
        if let Some(c) = b.carry {
            let u = e.d.core.block(c).expect("carry present");
            let j = &b.justify;
            if u.justify.view != j.view || u.justify.slot != j.slot || u.justify.block != j.block {
                return;
            }
        }
        if pv > e.d.view {
            e.jump_to(pv, now, out);
        }
        if ps < e.p.slot {
            return; // already voted or rejected this slot
        }
        e.insert_block(&b);
        e.d.core.obs.stage(Stage::Received, block_key(b.id()));
        if Rank::new(pv, ps) <= e.p.vote_floor {
            // The pre-crash incarnation may already have voted at this
            // position (§4.2 recovery); keep the body for commit walks
            // but never sign here again.
            return;
        }

        let justify = b.justify.clone();
        let jb = e.d.core.block(justify.block).expect("justify present").clone();

        // Commit rule (Fig. 7 lines 13–16): the justify certificate
        // consecutively extends the previous certificate ⇒ commit up to
        // that certificate's block (carry blocks commit with their
        // first-slot block, via the ancestor walk).
        let jprev = &jb.justify;
        let consecutive = (justify.view == jprev.view && justify.slot.is_successor_of(jprev.slot))
            || (justify.view.is_successor_of(jprev.view) && justify.slot == Slot::FIRST);
        if consecutive && !justify.is_genesis() {
            e.d.commit_or_fetch(jprev.block, b.proposer, now, out);
        }

        // Speculation (Fig. 7 lines 17–20): No-Gap + Prefix-Speculation.
        let no_gap = (pv == justify.view && ps.is_successor_of(justify.slot))
            || (pv.is_successor_of(justify.view) && ps == Slot::FIRST);
        if no_gap && e.d.core.is_committed(jb.parent) && !jb.is_genesis() {
            e.d.core.speculate(&jb, out);
        }

        // Vote or reject (Fig. 7 lines 21–26).
        let carry_block = b.carry.and_then(|c| e.d.core.block(c).cloned());
        let holds_successor = e.p.carry_for(&justify).is_some();
        let safe = safe_slot(ps, pv, &justify, carry_block.as_ref(), holds_successor);
        let rank_ok = e.d.high_cert.rank() <= justify.rank();
        let msg = if safe && (rank_ok || e.d.fault.colludes()) {
            if justify.rank() > e.d.high_cert.rank() {
                e.d.set_high_cert(justify.clone());
            }
            let share = e.d.core.sign_share(CertKind::NewSlot, pv, ps, b.id());
            e.p.highest_voted = (Rank::new(pv, ps), b.id());
            e.d.core.obs.stage(Stage::Voted, block_key(b.id()));
            e.d.core.obs.counter("votes_sent", 0, 1);
            Message::NewSlot(NewSlotMsg {
                view: pv,
                slot: ps,
                high_cert: e.d.high_cert.clone(),
                vote: VoteInfo { view: pv, slot: ps, block: b.id(), share },
            })
        } else {
            Message::Reject(RejectMsg { view: pv, slot: ps, high_cert: e.d.high_cert.clone() })
        };
        out.push(Action::Send { to: b.proposer, msg });
        // Disable voting for this slot either way (Fig. 7 line 26).
        e.p.slot = ps.next();
    }

    fn on_message(
        e: &mut Engine<Self>,
        from: ReplicaId,
        msg: Message,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        match msg {
            Message::NewSlot(m) => Self::on_newslot(e, from, m, now, out),
            Message::Reject(m) => Self::on_reject(e, from, m, now, out),
            _ => {}
        }
    }

    fn on_view_change(&mut self) {
        self.slot = Slot::FIRST;
    }

    fn index_block(&mut self, b: &Block) {
        // Only the position SafeSlot lets a carry hold: a later view's
        // first slot names the same certificate and is not its `B_u`.
        let j = &b.justify;
        let successor = match j.kind {
            CertKind::NewView { formed_in } => b.view == formed_in && b.slot == Slot::FIRST,
            _ => b.view == j.view && b.slot.is_successor_of(j.slot),
        };
        if successor {
            self.cert_children.entry((j.view.0, j.slot.0, j.block)).or_insert_with(|| b.id());
        }
    }

    fn prune(&mut self, core: &CoreState) {
        self.cert_children.retain(|_, child| core.blocks.contains_key(child));
    }

    /// Conservative: treat every slot of the recovered view (and below)
    /// as voted — the per-view slot cursor is not journaled, so the floor
    /// blocks re-signing any position the pre-crash incarnation might
    /// have voted. `highest_voted` is left at its genesis default: that
    /// is a truthful *omission* of pre-crash votes (crash-fault
    /// semantics), whereas claiming a vote at a fabricated rank would be
    /// an equivocation NewView shares could aggregate.
    fn raise_vote_floor(&mut self, recovered: View) {
        self.vote_floor = Rank::new(recovered, Slot(u32::MAX));
    }
}
