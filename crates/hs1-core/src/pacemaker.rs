//! The pacemaker (paper §4.2.1, Fig. 3).
//!
//! **Fig. 3 as written.** Views are grouped into epochs of `f + 1`
//! consecutive views. At each epoch boundary replicas synchronize: every
//! replica sends a `Wish` share to the `f + 1` leaders of the next epoch;
//! a leader aggregates `n − f` shares into a timeout certificate `TC_v`
//! and broadcasts it; receivers relay the TC to the epoch leaders and set
//! `StartTime[v + k] = t + k·τ` for `k = 0..f`. The start time of view
//! `v + k` is also the timeout of view `v + k − 1`, and
//! `ShareTimer(v) = StartTime[v] + 3Δ`. Within an epoch a replica enters
//! the next view the moment it votes.
//!
//! At deployment start all replicas behave as if `TC_0` arrived at time 0
//! (synchronized start; the first epoch is scheduled from the origin).
//!
//! **What this code does instead.** The engine says *why* a view ended
//! ([`ViewEnd`]). A boundary reached on a **vote** is crossed the way an
//! intra-epoch view is: the replica sets `StartTime[v + k] = now + k·τ`
//! from its own clock, enters `v` and sends nothing. Only a boundary
//! reached on a **timeout** runs the Wish / TC round above, unchanged.
//! So a fault-free run sends no `Wish` and no `Tc`, and the round (two
//! hops on the critical path, 8 of the 14 replica-to-replica frames per
//! view at n = 4) is paid for where it is needed: after a view failed.
//! Slotted HotStuff-1 ends every view on its timer by design (§6), so it
//! runs the round at every boundary, as Fig. 3 has it.
//!
//! View synchronization is a liveness device: safety rests on the vote
//! rules and quorum intersection, never on when a view is entered, so
//! only liveness has to be argued.
//!
//! 1. *The evidence is the same as inside an epoch.* A proposal in the
//!    epoch's last view `v − 1` exists only after `n − f` replicas sent
//!    its leader a NewView, that is, had left `v − 2`: a replica that
//!    votes on it knows `n − f` replicas are one view behind it at most.
//!    That is what lets Fig. 3 advance on a vote between two views of
//!    one epoch; the boundary adds nothing to it.
//! 2. *A replica that missed that proposal* times out of `v − 1`,
//!    Wishes and parks. Nobody else Wishes for `v`, so no TC comes; the
//!    next proposal it receives releases it instead: the one for `v`,
//!    which it votes on where it stands, or a later one it jumps to
//!    ([`Pacemaker::entered`]). The others hold each view for one view
//!    timer at most, so that proposal is the first correct leader's after
//!    the replica parked; the re-wish ladder ([`Pacemaker::rewish`])
//!    covers the case that none comes.
//! 3. *If the optimistic epoch makes no progress* its views end on
//!    their timers, so the replicas that crossed on a vote reach the
//!    *next* boundary on a timeout and run the full round there, where
//!    the parked ones' second re-wish has escalated to. A boundary is
//!    crossed without a TC only while views are succeeding. The price is
//!    paid on the mixed path, when the last proposal reached some correct
//!    replicas and not others: the two groups meet at the next boundary,
//!    within f + 5 view timers where Fig. 3 as written takes f + 2
//!    (`protocol_behavior.rs`, `mixed_crossing_realigns_at_the_next_boundary`).
//! 4. *A TC never moves a schedule that exists* ([`Pacemaker::on_tc`]).
//!    A TC for `v` can reach a replica that scheduled `v` from its own
//!    clock when at most `f` correct replicas crossed on the vote and
//!    the rest, with faulty help, gathered `n − f` Wishes. That replica's
//!    timer for its current view is already armed from the local
//!    schedule and cannot be recalled, so re-anchoring could repair the
//!    later views of the epoch at best, at the cost of a second rule for
//!    one map. Keeping the first schedule leaves the replica early by at
//!    most the time the others took to time out and synchronize, for one
//!    epoch: it reaches the next boundary on a timeout (3), Wishes, and
//!    is re-aligned by that TC. The TC still releases a waiter, as a
//!    duplicate does.

use std::collections::{HashMap, HashSet};

use crate::replica::Action;
use hs1_crypto::{KeyPair, PublicKeyRegistry, Signature};
use hs1_types::cert::domains;
use hs1_types::message::WishMsg;
use hs1_types::{Message, ReplicaId, SimTime, SystemConfig, TimeoutCert, View};

/// Why the engine left a view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ViewEnd {
    /// It voted in it (Fig. 2 line 30, Fig. 4 line 19).
    Voted,
    /// `Timer::ViewTimeout` fired.
    TimedOut,
}

/// Verdict of [`Pacemaker::completed_view`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum PmOutcome {
    /// Enter the view immediately.
    Enter,
    /// Epoch boundary: a Wish was sent; hold until the TC arrives
    /// ([`Pacemaker::on_tc`] will return the view to enter).
    AwaitTc,
}

pub(crate) struct Pacemaker {
    cfg: SystemConfig,
    me: ReplicaId,
    /// StartTime[v] for views of epochs whose TC has been processed or
    /// that were entered on a vote.
    start_times: HashMap<u64, SimTime>,
    /// Wish shares collected per epoch-start view (leader role).
    wishes: HashMap<u64, Vec<(ReplicaId, Signature)>>,
    /// Epoch-start views whose TC we already formed/broadcast (leader) or
    /// processed (everyone).
    tc_done: HashSet<u64>,
    /// Formed/received TCs, kept so late (or retried) Wishes can be
    /// answered directly — a replica whose TC broadcast was lost must be
    /// able to recover by re-wishing.
    formed: HashMap<u64, TimeoutCert>,
    /// Epoch-start view we are waiting on (sent a Wish, not yet entered).
    awaiting: Option<View>,
    /// Fruitless [`Pacemaker::rewish`] retries since parking (drives the
    /// escalation ladder).
    rewish_count: u64,
}

impl Pacemaker {
    pub(crate) fn new(cfg: SystemConfig, me: ReplicaId, now: SimTime) -> Pacemaker {
        let mut pm = Pacemaker {
            cfg,
            me,
            start_times: HashMap::new(),
            wishes: HashMap::new(),
            tc_done: HashSet::new(),
            formed: HashMap::new(),
            awaiting: None,
            rewish_count: 0,
        };
        // Synchronized start: epoch 0 is scheduled from `now` (time 0).
        pm.schedule_epoch(View(0), now);
        pm
    }

    /// The timeout deadline of `view`: `StartTime[view] + τ`, or `now + τ`
    /// when the view's epoch schedule is unknown (catch-up path).
    pub(crate) fn deadline(&self, view: View, now: SimTime) -> SimTime {
        match self.start_times.get(&view.0) {
            Some(&start) => start + self.cfg.view_timer,
            None => now + self.cfg.view_timer,
        }
    }

    /// `ShareTimer(view) = StartTime[view] + 3Δ` (Fig. 3 line 2): when a
    /// leader may stop waiting for NewView messages.
    pub(crate) fn share_deadline(&self, view: View, now: SimTime) -> SimTime {
        match self.start_times.get(&view.0) {
            Some(&start) => start + self.cfg.delta * 3,
            None => now + self.cfg.delta * 3,
        }
    }

    /// The engine finished view `next − 1` for the reason `why` and wants
    /// to enter `next` (Fig. 3 CompletedView). An epoch boundary reached
    /// on a vote is scheduled from `now` and entered; one reached on a
    /// timeout is synchronized (module doc).
    pub(crate) fn completed_view(
        &mut self,
        next: View,
        why: ViewEnd,
        now: SimTime,
        kp: &KeyPair,
        out: &mut Vec<Action>,
    ) -> PmOutcome {
        if !self.cfg.is_epoch_start(next) || self.start_times.contains_key(&next.0) {
            return PmOutcome::Enter;
        }
        if why == ViewEnd::Voted {
            self.schedule_epoch(next, now);
            return PmOutcome::Enter;
        }
        // SynchronizeEpoch (Fig. 3 lines 8–10): Wish to the next epoch's
        // f + 1 leaders.
        let share = kp.sign(domains::WISH, &TimeoutCert::signing_bytes(next));
        for leader in self.cfg.epoch_leaders(next) {
            out.push(Action::Send {
                to: leader,
                msg: Message::Wish(WishMsg { view: next, share }),
            });
        }
        self.awaiting = Some(next);
        self.rewish_count = 0;
        PmOutcome::AwaitTc
    }

    /// Re-send the Wish for the awaited epoch (lossy-network retry: the
    /// original Wish, or the TC it should have produced, may have been
    /// dropped — without a retry the replica parks at the epoch boundary
    /// forever and enough parked replicas halt the deployment). The driver
    /// calls this from a retry timer armed while parked.
    ///
    /// Retries *escalate*: every second fruitless retry also wishes for
    /// the next epoch boundary above the last target. Parked replicas can
    /// fragment across different epochs — each short of a wish quorum for
    /// its own boundary (the holders of the old TC crashed, pruned it, or
    /// restarted past it) — and without escalation they all starve.
    /// Because leaders keep the shares they collect, every parked
    /// replica's escalation ladder sweeps through every epoch above its
    /// base, so some common epoch eventually accumulates `n − f` distinct
    /// shares; its TC then re-synchronizes everyone at once (paired with
    /// the newer-TC release in [`Pacemaker::on_tc`]). This mirrors the
    /// view escalation of production view synchronizers and touches
    /// liveness only — wishes for higher epochs are exactly what a
    /// replica whose timer keeps expiring would send anyway.
    pub(crate) fn rewish(&mut self, kp: &KeyPair, out: &mut Vec<Action>) {
        let Some(base) = self.awaiting else { return };
        self.rewish_count += 1;
        let k = self.rewish_count / 2;
        let target = View(base.0 + k * self.cfg.epoch_len());
        for v in [base, target] {
            let share = kp.sign(domains::WISH, &TimeoutCert::signing_bytes(v));
            for leader in self.cfg.epoch_leaders(v) {
                out.push(Action::Send {
                    to: leader,
                    msg: Message::Wish(WishMsg { view: v, share }),
                });
            }
            if target == base {
                break;
            }
        }
    }

    /// Leader role: collect a Wish share; broadcast the TC at quorum
    /// (Fig. 3 lines 11–13).
    pub(crate) fn on_wish(
        &mut self,
        from: ReplicaId,
        msg: &WishMsg,
        registry: &PublicKeyRegistry,
        out: &mut Vec<Action>,
    ) {
        let v = msg.view;
        if !self.cfg.is_epoch_start(v) || !self.cfg.epoch_leaders(v).contains(&self.me) {
            return;
        }
        if self.tc_done.contains(&v.0) {
            // The TC exists; this Wish is a loss-recovery retry (or just
            // late). Answer the sender directly instead of ignoring it,
            // or a replica whose TC was dropped stays parked forever.
            if let Some(tc) = self.formed.get(&v.0) {
                out.push(Action::Send { to: from, msg: Message::Tc(tc.clone()) });
            }
            return;
        }
        if !registry.verify(from.0, domains::WISH, &TimeoutCert::signing_bytes(v), &msg.share) {
            return;
        }
        let shares = self.wishes.entry(v.0).or_default();
        if shares.iter().any(|(r, _)| *r == from) {
            return;
        }
        shares.push((from, msg.share));
        if shares.len() >= self.cfg.quorum() {
            let tc = TimeoutCert { view: v, sigs: shares.clone() };
            self.tc_done.insert(v.0);
            self.formed.insert(v.0, tc.clone());
            out.push(Action::Broadcast { msg: Message::Tc(tc) });
        }
    }

    /// Process a timeout certificate (Fig. 3 lines 14–18): relay to the
    /// epoch leaders, set the epoch's start times, and return the view to
    /// enter if we were waiting on this TC.
    pub(crate) fn on_tc(
        &mut self,
        tc: &TimeoutCert,
        registry: &PublicKeyRegistry,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> Option<View> {
        let v = tc.view;
        if !self.cfg.is_epoch_start(v) || self.start_times.contains_key(&v.0) {
            // Scheduled epoch, by an earlier copy of this TC or from the
            // local clock on a vote: the first schedule stands (module
            // doc, point 4); still release a waiter.
            return self.release_if_awaiting(v);
        }
        if !tc.verify(registry, self.cfg.quorum()) {
            return None;
        }
        // Relay to the epoch leaders (non-leaders only, Fig. 3 line 15).
        if !self.cfg.epoch_leaders(v).contains(&self.me) {
            for leader in self.cfg.epoch_leaders(v) {
                out.push(Action::Send { to: leader, msg: Message::Tc(tc.clone()) });
            }
        }
        self.schedule_epoch(v, now);
        self.tc_done.insert(v.0);
        self.formed.insert(v.0, tc.clone());
        self.release_if_awaiting(v)
    }

    /// `StartTime[v + k] = now + k·τ` for the epoch starting at `v`.
    fn schedule_epoch(&mut self, v: View, now: SimTime) {
        for k in 0..self.cfg.epoch_len() {
            self.start_times.insert(v.0 + k, now + self.cfg.view_timer * k);
        }
    }

    fn release_if_awaiting(&mut self, v: View) -> Option<View> {
        let w = self.awaiting?;
        // Exact match enters the awaited view. A TC for a *newer* epoch
        // releases the waiter too: it is quorum-signed proof the cluster
        // synchronized past the awaited boundary while this replica's
        // Wish/TC exchange was lost beyond recovery — e.g. every replica
        // that had formed the old TC crashed (pacemaker state is process
        // state) or pruned it. Without this, a parked replica whose
        // epoch leaders lost the TC is disenfranchised forever, and a
        // second fault (a Byzantine backup corrupting the fetch path
        // that would otherwise rescue it via a proposal jump) can stall
        // the whole deployment. Found by the chaos sweep's
        // Byzantine-backup axis.
        if v >= w && self.start_times.contains_key(&v.0) {
            self.awaiting = None;
            return Some(v);
        }
        None
    }

    /// The engine entered a view, whichever way (the next one after a
    /// vote or a timeout, a TC, or a jump on a valid proposal). Views only
    /// go up, so a wait at a boundary is over.
    pub(crate) fn entered(&mut self) {
        self.awaiting = None;
    }

    /// Is the replica parked at an epoch boundary waiting for a TC?
    pub(crate) fn is_awaiting_tc(&self) -> bool {
        self.awaiting.is_some()
    }

    /// Drop start-time entries for views far below `view` (bounded memory).
    pub(crate) fn prune_below(&mut self, view: View) {
        let cut = view.0.saturating_sub(4 * self.cfg.epoch_len());
        self.start_times.retain(|&v, _| v >= cut);
        self.wishes.retain(|&v, _| v >= cut);
        self.tc_done.retain(|&v| v >= cut);
        self.formed.retain(|&v, _| v >= cut);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs1_types::SimDuration;

    fn setup(n: usize) -> (SystemConfig, Vec<KeyPair>, PublicKeyRegistry) {
        let cfg = SystemConfig::new(n);
        let kps = (0..n as u32).map(|i| KeyPair::derive(cfg.deployment_seed, i)).collect();
        let reg = PublicKeyRegistry::derive(cfg.deployment_seed, n as u32);
        (cfg, kps, reg)
    }

    /// A valid `TC_view` from the first `n − f` replicas.
    fn tc(cfg: &SystemConfig, kps: &[KeyPair], view: View) -> TimeoutCert {
        let bytes = TimeoutCert::signing_bytes(view);
        let sigs = (0..cfg.quorum())
            .map(|i| (ReplicaId(i as u32), kps[i].sign(domains::WISH, &bytes)))
            .collect();
        TimeoutCert { view, sigs }
    }

    /// Time out of the view below `next` (an unscheduled epoch start): park.
    fn park(pm: &mut Pacemaker, next: View, kp: &KeyPair) {
        let parked = pm.completed_view(next, ViewEnd::TimedOut, SimTime::ZERO, kp, &mut Vec::new());
        assert_eq!(parked, PmOutcome::AwaitTc);
    }

    #[test]
    fn bootstrap_schedule() {
        let (cfg, _, _) = setup(4); // f = 1, epoch_len = 2, τ = 10ms
        let pm = Pacemaker::new(cfg.clone(), ReplicaId(0), SimTime::ZERO);
        assert_eq!(pm.deadline(View(0), SimTime::ZERO), SimTime::ZERO + cfg.view_timer);
        assert_eq!(pm.deadline(View(1), SimTime::ZERO), SimTime::ZERO + cfg.view_timer * 2);
        // Views outside epoch 0 fall back to now + τ.
        let now = SimTime::ZERO + SimDuration::from_millis(55);
        assert_eq!(pm.deadline(View(9), now), now + cfg.view_timer);
    }

    #[test]
    fn intra_epoch_views_enter_immediately() {
        let (cfg, kps, _) = setup(4);
        let mut pm = Pacemaker::new(cfg, ReplicaId(0), SimTime::ZERO);
        let mut out = Vec::new();
        for why in [ViewEnd::Voted, ViewEnd::TimedOut] {
            let entered = pm.completed_view(View(1), why, SimTime::ZERO, &kps[0], &mut out);
            assert_eq!(entered, PmOutcome::Enter);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn epoch_boundary_after_a_vote_is_scheduled_from_the_local_clock() {
        let (cfg, kps, _) = setup(7); // f = 2, epoch_len = 3, boundary at view 3
        let mut pm = Pacemaker::new(cfg.clone(), ReplicaId(0), SimTime::ZERO);
        let mut out = Vec::new();
        let t = SimTime::ZERO + SimDuration::from_millis(7);
        let entered = pm.completed_view(View(3), ViewEnd::Voted, t, &kps[0], &mut out);
        assert_eq!(entered, PmOutcome::Enter);
        assert!(out.is_empty(), "a voted crossing sends nothing");
        assert!(!pm.is_awaiting_tc());
        // f + 1 start times from `t`; the next epoch is still unscheduled.
        let later = t + SimDuration::from_millis(500);
        for k in 0..3 {
            assert_eq!(pm.deadline(View(3 + k), later), t + cfg.view_timer * (k + 1));
        }
        assert_eq!(pm.deadline(View(6), later), later + cfg.view_timer);
    }

    #[test]
    fn epoch_boundary_sends_wishes_to_epoch_leaders() {
        let (cfg, kps, _) = setup(4); // epoch boundary at view 2
        let mut pm = Pacemaker::new(cfg.clone(), ReplicaId(0), SimTime::ZERO);
        let mut out = Vec::new();
        let t = SimTime::ZERO + SimDuration::from_millis(20);
        let parked = pm.completed_view(View(2), ViewEnd::TimedOut, t, &kps[0], &mut out);
        assert_eq!(parked, PmOutcome::AwaitTc);
        let dests: Vec<_> = out
            .iter()
            .map(|a| match a {
                Action::Send { to, msg: Message::Wish(w) } => {
                    assert_eq!(w.view, View(2));
                    *to
                }
                other => panic!("unexpected action {other:?}"),
            })
            .collect();
        assert_eq!(dests, cfg.epoch_leaders(View(2)));
        assert!(pm.is_awaiting_tc());
        // Nothing was scheduled: the epoch's start times come with the TC.
        assert_eq!(pm.deadline(View(2), t), t + cfg.view_timer);
        assert_eq!(pm.deadline(View(3), t), t + cfg.view_timer);
    }

    #[test]
    fn leader_forms_tc_from_quorum_of_wishes() {
        let (cfg, kps, reg) = setup(4); // quorum 3; leaders of view 2 epoch: R2, R3
        let mut pm = Pacemaker::new(cfg.clone(), ReplicaId(2), SimTime::ZERO);
        let mut out = Vec::new();
        for i in 0..3u32 {
            let share = kps[i as usize].sign(domains::WISH, &TimeoutCert::signing_bytes(View(2)));
            pm.on_wish(ReplicaId(i), &WishMsg { view: View(2), share }, &reg, &mut out);
        }
        let tcs: Vec<_> =
            out.iter().filter(|a| matches!(a, Action::Broadcast { msg: Message::Tc(_) })).collect();
        assert_eq!(tcs.len(), 1, "exactly one TC broadcast");
    }

    #[test]
    fn duplicate_and_invalid_wishes_ignored() {
        let (cfg, kps, reg) = setup(4);
        let mut pm = Pacemaker::new(cfg, ReplicaId(2), SimTime::ZERO);
        let mut out = Vec::new();
        let share = kps[0].sign(domains::WISH, &TimeoutCert::signing_bytes(View(2)));
        pm.on_wish(ReplicaId(0), &WishMsg { view: View(2), share }, &reg, &mut out);
        pm.on_wish(ReplicaId(0), &WishMsg { view: View(2), share }, &reg, &mut out);
        // Forged share (wrong signer id).
        pm.on_wish(ReplicaId(1), &WishMsg { view: View(2), share }, &reg, &mut out);
        assert!(out.is_empty(), "no TC from 1 distinct valid share");
    }

    #[test]
    fn tc_sets_schedule_and_releases_waiter() {
        let (cfg, kps, reg) = setup(4);
        let mut pm = Pacemaker::new(cfg.clone(), ReplicaId(0), SimTime::ZERO);
        let mut out = Vec::new();
        park(&mut pm, View(2), &kps[0]);

        let tc = tc(&cfg, &kps, View(2));
        let t = SimTime::ZERO + SimDuration::from_millis(42);
        let entered = pm.on_tc(&tc, &reg, t, &mut out);
        assert_eq!(entered, Some(View(2)));
        assert!(!pm.is_awaiting_tc());
        assert_eq!(pm.deadline(View(2), t), t + cfg.view_timer);
        assert_eq!(pm.deadline(View(3), t), t + cfg.view_timer * 2);
        // R0 is not an epoch-2 leader (leaders are R2, R3): it relays.
        let relays =
            out.iter().filter(|a| matches!(a, Action::Send { msg: Message::Tc(_), .. })).count();
        assert_eq!(relays, 2);
        // Duplicate TC: no second release, no second relay.
        out.clear();
        assert_eq!(pm.on_tc(&tc, &reg, t, &mut out), None);
        assert!(out.is_empty());
    }

    #[test]
    fn tc_for_an_epoch_scheduled_from_the_local_clock_keeps_that_schedule() {
        // Module doc, point 4. R0 crosses into view 2 on a vote at `t0`;
        // the others time out, Wish, and their TC reaches R0 at `t1`.
        let (cfg, kps, reg) = setup(4);
        let mut pm = Pacemaker::new(cfg.clone(), ReplicaId(0), SimTime::ZERO);
        let mut out = Vec::new();
        let t0 = SimTime::ZERO + SimDuration::from_millis(3);
        pm.completed_view(View(2), ViewEnd::Voted, t0, &kps[0], &mut out);
        let t1 = t0 + cfg.view_timer;
        assert_eq!(pm.on_tc(&tc(&cfg, &kps, View(2)), &reg, t1, &mut out), None);
        assert!(out.is_empty(), "no relay: the TC is treated as a duplicate");
        assert_eq!(pm.deadline(View(2), t1), t0 + cfg.view_timer);
        assert_eq!(pm.deadline(View(3), t1), t0 + cfg.view_timer * 2);
        // The next boundary, reached on a timeout, is synchronized and
        // takes its schedule from that TC.
        park(&mut pm, View(4), &kps[0]);
        let t2 = t0 + cfg.view_timer * 2;
        assert_eq!(pm.on_tc(&tc(&cfg, &kps, View(4)), &reg, t2, &mut out), Some(View(4)));
        assert_eq!(pm.deadline(View(4), t2), t2 + cfg.view_timer);
    }

    #[test]
    fn invalid_tc_rejected() {
        let (cfg, kps, reg) = setup(4);
        let mut pm = Pacemaker::new(cfg, ReplicaId(0), SimTime::ZERO);
        let mut out = Vec::new();
        park(&mut pm, View(2), &kps[0]);
        let bad = TimeoutCert { view: View(2), sigs: vec![] };
        assert_eq!(pm.on_tc(&bad, &reg, SimTime::ZERO, &mut out), None);
        assert!(pm.is_awaiting_tc());
    }

    #[test]
    fn share_deadline_uses_three_delta() {
        let (cfg, _, _) = setup(4);
        let pm = Pacemaker::new(cfg.clone(), ReplicaId(0), SimTime::ZERO);
        assert_eq!(
            pm.share_deadline(View(1), SimTime::ZERO),
            SimTime::ZERO + cfg.view_timer + cfg.delta * 3
        );
    }

    #[test]
    fn newer_epoch_tc_releases_a_parked_waiter() {
        // A replica parked at epoch boundary 2 whose TC(2) holders all
        // crashed or pruned it: a valid TC for a *later* epoch proves
        // the cluster moved on and must release the waiter forward.
        let (cfg, kps, reg) = setup(4);
        let mut pm = Pacemaker::new(cfg.clone(), ReplicaId(0), SimTime::ZERO);
        let mut out = Vec::new();
        park(&mut pm, View(2), &kps[0]);
        assert!(pm.is_awaiting_tc());

        let newer = tc(&cfg, &kps, View(8));
        let t = SimTime::ZERO + SimDuration::from_millis(70);
        assert_eq!(pm.on_tc(&newer, &reg, t, &mut out), Some(View(8)), "released forward");
        assert!(!pm.is_awaiting_tc());
        assert_eq!(pm.deadline(View(8), t), t + cfg.view_timer);
        // A *stale* TC (below the awaited boundary) must not release.
        let mut pm2 = Pacemaker::new(cfg.clone(), ReplicaId(0), SimTime::ZERO);
        park(&mut pm2, View(4), &kps[0]);
        let old = tc(&cfg, &kps, View(2));
        assert_eq!(pm2.on_tc(&old, &reg, t, &mut out), None);
        assert!(pm2.is_awaiting_tc(), "stale TC leaves the waiter parked");
    }

    #[test]
    fn jump_clears_wait() {
        let (cfg, kps, _) = setup(4);
        let mut pm = Pacemaker::new(cfg, ReplicaId(0), SimTime::ZERO);
        park(&mut pm, View(2), &kps[0]);
        assert!(pm.is_awaiting_tc());
        pm.entered();
        assert!(!pm.is_awaiting_tc());
    }
}
