//! Durability hooks: the consensus ↔ storage boundary (paper §4.2
//! "Recovery Mechanism").
//!
//! Engines are pure state machines; everything a restarting replica needs
//! to rejoin safely flows through the [`Persistence`] trait at the moment
//! it becomes protocol-relevant:
//!
//! * [`Persistence::on_commit`] — a block reached a commit decision and is
//!   about to be applied to the global-ledger (write-ahead: the hook runs
//!   *before* execution, so replay re-executes deterministically).
//! * [`Persistence::on_speculate`] / [`Persistence::on_rollback`] — the
//!   local-ledger overlay stack changed. A recovering replica must never
//!   treat a speculated-but-rolled-back prefix as final; journaling both
//!   edges lets recovery re-derive exactly the overlays that were live.
//! * [`Persistence::on_cert`] / [`Persistence::on_view`] — the prepared
//!   certificate and pacemaker view, so a restarted replica re-enters at
//!   (not below) its previous position and cannot double-vote.
//!
//! The default implementation [`NoopPersistence`] keeps the simulator
//! deterministic and allocation-free by default; `hs1-storage` provides
//! the journal-backed implementation.

use std::sync::Arc;

use hs1_ledger::KvStore;
use hs1_obs::Obs;
use hs1_types::{Block, BlockId, Certificate, CommittedLog, View};

/// Where a replica's durable events go. All methods are fire-and-forget
/// from the engine's perspective; implementations own their error policy
/// (a production system would escalate an unwritable journal).
pub trait Persistence: Send {
    /// `block` reached a commit decision (called in chain order, before
    /// the block is applied to the global-ledger).
    fn on_commit(&mut self, block: &Arc<Block>);

    /// `block` is about to execute speculatively into a fresh overlay.
    fn on_speculate(&mut self, block: &Arc<Block>);

    /// The top `blocks` overlays of the local-ledger were discarded.
    fn on_rollback(&mut self, blocks: usize);

    /// The replica adopted a higher-ranked certificate.
    fn on_cert(&mut self, cert: &Certificate);

    /// The replica entered `view`.
    fn on_view(&mut self, view: View);

    /// Should the commit path take a checkpoint now? Implementations
    /// typically count commits since the last checkpoint.
    fn wants_checkpoint(&self) -> bool {
        false
    }

    /// Snapshot the committed store (called by the commit path right after
    /// the commits that made [`Persistence::wants_checkpoint`] true, with
    /// no speculation promoted in between). `chain` is the window of
    /// committed ids the engine still holds, oldest first: a sink that
    /// keeps its own [`hs1_types::CommittedLog`] from `on_commit` may
    /// cross-check it and keep as many ids.
    fn write_checkpoint(&mut self, store: &KvStore, chain: &[BlockId]) {
        let _ = (store, chain);
    }

    /// Flush buffered writes to stable storage.
    fn sync(&mut self) {}

    /// The engine's observability sink, handed over whenever the engine
    /// gains an observer or this sink (in either order). A sink that
    /// reports nothing ignores it.
    fn set_observer(&mut self, _obs: Obs) {}
}

/// No durability: the deterministic default for simulation and tests.
#[derive(Default, Clone, Copy, Debug)]
pub struct NoopPersistence;

impl Persistence for NoopPersistence {
    fn on_commit(&mut self, _block: &Arc<Block>) {}
    fn on_speculate(&mut self, _block: &Arc<Block>) {}
    fn on_rollback(&mut self, _blocks: usize) {}
    fn on_cert(&mut self, _cert: &Certificate) {}
    fn on_view(&mut self, _view: View) {}
}

/// Everything recovery reconstructs from the journal + newest checkpoint,
/// handed to [`crate::Replica::restore`] before the engine starts.
///
/// Restore order (enforced by `CoreState::restore`): install the
/// checkpointed committed store with its log, replay `decided` bodies in
/// commit order (re-executing deterministically), then re-derive the
/// speculative overlay stack from `speculated`. The engine itself adopts
/// `view` / `high_cert` and refuses to vote at or below `view` again.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// Highest view the replica had entered (genesis when never journaled).
    pub view: View,
    /// Highest-ranked certificate the replica had adopted.
    pub high_cert: Option<Certificate>,
    /// Committed base store from the newest valid checkpoint.
    pub committed_store: Option<KvStore>,
    /// The committed chain `committed_store` is the state of (read only
    /// with a store): its length, running hash and window of ids.
    pub committed_log: CommittedLog,
    /// Decided block bodies journaled after the checkpoint, in commit
    /// order.
    pub decided: Vec<Arc<Block>>,
    /// The speculative overlay stack live at crash time, oldest first.
    pub speculated: Vec<Arc<Block>>,
}

impl RecoveredState {
    /// True when there is nothing to restore (fresh deployment).
    pub fn is_empty(&self) -> bool {
        self.view == View::GENESIS
            && self.high_cert.is_none()
            && self.committed_store.is_none()
            && self.decided.is_empty()
            && self.speculated.is_empty()
    }
}
