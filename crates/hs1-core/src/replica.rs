//! The transport-agnostic replica interface.

use std::sync::Arc;

use crate::persist::{Persistence, RecoveredState};
use hs1_crypto::Digest;
use hs1_types::{Block, CommittedLog, Message, ReplicaId, ReplyKind, SimTime, View};

/// Outputs of an engine step, interpreted by the harness (simulator or TCP
/// runtime).
#[derive(Clone, Debug)]
pub enum Action {
    /// Send `msg` to one replica.
    Send { to: ReplicaId, msg: Message },
    /// Send `msg` to every replica (including the sender, via loopback).
    Broadcast { msg: Message },
    /// Arm a one-shot timer. A runtime fires every timer it armed, when
    /// due, into the node shell, which hands the engine only those whose
    /// view is the latest the engine armed of their kind.
    SetTimer { timer: Timer, at: SimTime },
    /// The replica executed `block` (speculatively or on commit) with
    /// result digest `digest`; the harness fans per-transaction responses
    /// out to clients. Emitted at most once per (block, kind) and not at
    /// all for the commit of a block that already produced a speculative
    /// response (paper §4.1: a replica responds on commit only if it had
    /// not sent a speculative response).
    Executed { block: Arc<Block>, digest: Digest, kind: ReplyKind },
    /// `block` became committed in chain order (metrics + invariants).
    Committed { block: Arc<Block> },
    /// The local-ledger discarded `blocks` speculated blocks (metric).
    RolledBack { blocks: usize },
    /// The replica entered `view` (metrics).
    EnteredView { view: View },
}

/// One-shot timer identities.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Timer {
    /// View timer (pacemaker deadline for `view`).
    ViewTimeout(View),
    /// Leader's ShareTimer(v) deadline: stop waiting for NewView messages
    /// and propose with the highest certificate known.
    LeaderWait(View),
    /// Deferred proposal (slow-leader strategy / slotted re-proposal).
    ProposeAt(View),
}

/// A replica's mempool as its harness sees it.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct PoolStats {
    /// Transactions the replica could still propose.
    pub depth: usize,
    /// Requests refused at the admission bound
    /// (`SystemConfig::mempool_cap`).
    pub refused: u64,
    /// Duplicate or replayed requests dropped at admission.
    pub deduped: u64,
}

/// A consensus replica as a pure state machine.
pub trait Replica: Send {
    fn id(&self) -> ReplicaId;

    /// Called once at deployment start.
    fn on_init(&mut self, now: SimTime, out: &mut Vec<Action>);

    /// Deliver a message from `from` (a replica or, for `Request`s, a
    /// client relay).
    fn on_message(&mut self, from: ReplicaId, msg: Message, now: SimTime, out: &mut Vec<Action>);

    /// A previously armed timer fired.
    fn on_timer(&mut self, timer: Timer, now: SimTime, out: &mut Vec<Action>);

    /// Offer client requests to the replica's mempool *without stepping the
    /// engine*: no leader proposes on them until its next step. Every
    /// runtime delivers requests as `Message::Request` through
    /// [`Replica::on_message`] instead (a streamlined leader holding for
    /// want of transactions proposes in that step). Kept only because
    /// `bench/`'s `TimedReplica` implements it; delete it once that stops.
    fn enqueue_txs(&mut self, txs: &[hs1_types::Transaction]);

    /// Mempool depth and admission counters. Engines override the
    /// default, which reports an empty pool.
    fn pool_stats(&self) -> PoolStats {
        PoolStats::default()
    }

    /// Current view (metrics/inspection).
    fn current_view(&self) -> View;

    /// Highest committed block id (invariant checking).
    fn committed_head(&self) -> hs1_types::BlockId;

    /// The committed ids the replica still holds, oldest first, ending at
    /// the head: the window of its [`CommittedLog`], back to the prune
    /// horizon (`PRUNE_KEEP` ids plus what up to 64 views committed since
    /// the last prune). It reaches genesis only on a short run; the length
    /// and the running hash over the whole chain are in
    /// [`Replica::committed_log`].
    fn committed_chain(&self) -> Vec<hs1_types::BlockId>;

    /// The committed chain: length, running hash, and the window of ids.
    /// Engines and wrappers override the default, which folds
    /// `committed_chain()` onto genesis and so is right only while that
    /// window still starts there.
    fn committed_log(&self) -> CommittedLog {
        CommittedLog::from_ids(self.committed_chain().into_iter().skip(1))
    }

    /// Length of the committed chain, genesis included. Engines and
    /// wrappers override the default, which builds `committed_log()` to
    /// count it.
    fn committed_len(&self) -> usize {
        self.committed_log().len()
    }

    /// Install an observability sink (see `hs1-obs`). Pure observer:
    /// attaching one must not change any engine output. The default
    /// ignores it (stateless test doubles need no instrumentation).
    fn set_observer(&mut self, _obs: hs1_obs::Obs) {}

    /// Install a durability sink. Must be called *after*
    /// [`Replica::restore`] (restore replays history; replaying through a
    /// live journal would double-write it) and before the first
    /// `on_init`/`on_message`. The sink shares the engine's observer,
    /// whichever of the two is installed first.
    fn set_persistence(&mut self, persist: Box<dyn Persistence>);

    /// Rebuild state from a recovered journal + checkpoint. Called once,
    /// before `on_init`; the engine re-enters at the recovered view and
    /// never votes at or below it again (§4.2 recovery safety).
    fn restore(&mut self, state: RecoveredState);

    /// Root of the committed global-ledger state (recovery convergence
    /// checks: a recovered replica must reach the same root as live
    /// peers).
    fn state_root(&self) -> Digest;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A message is moved by value on every hop of a TCP replica's hot
    /// path: the frame decoder's vector → `Reactor::ready` →
    /// `Inbox::try_recv` → `NodeRunner::handle_inbound` →
    /// `NodeShell::on_message` → `NodeShell::deliver` → the engine, and
    /// out again as an action: the step's `Vec<Action>` →
    /// `NodeRunner::dispatch` → `Mesh::send_replica`/`broadcast`. The largest variant sets what
    /// every hop copies, so the snapshot manifest, which only state sync
    /// sends, is boxed; a variant larger than a `NewView` shows here.
    #[test]
    fn messages_and_actions_stay_the_size_of_a_new_view() {
        use std::mem::size_of;
        // A `NewView` and its tag; before the box, 208 B and 216 B.
        assert_eq!(size_of::<hs1_types::message::NewViewMsg>(), 176);
        assert_eq!(size_of::<Message>(), 184);
        assert_eq!(size_of::<Action>(), 192);
    }
}
