//! The recovery driver: newest valid checkpoint + journal replay →
//! [`RecoveredState`] (paper §4.2 "Recovery Mechanism").
//!
//! The replay folds journal records with the *same* semantics the live
//! engine applied them with, so the reconstructed state is exactly what
//! the pre-crash incarnation had made durable:
//!
//! * `Decided(b)` promotes `b` out of the speculative stack if it is the
//!   oldest overlay, discards the whole stack otherwise (mirroring
//!   `ExecutionEngine::execute_committed`), and appends `b` to the decided
//!   chain and to the storage's own committed log.
//! * `SpecMark` / `SpecRollback` push and pop the overlay stack.
//! * `Cert` / `ViewChange` advance monotonically by rank / view.
//!
//! Whatever remains on the stack at the end is the
//! speculated-but-undecided suffix: it is *re-derived as speculation*
//! (never as committed state), which is the paper's rollback-safety
//! requirement for recovering replicas.

use std::path::Path;
use std::sync::Arc;

use crate::checkpoint::Checkpoint;
use crate::disk::Disk;
use crate::journal::{Journal, JournalConfig};
use crate::record::JournalRecord;
use crate::StorageError;
use hs1_core::persist::RecoveredState;
use hs1_types::{Block, CommittedLog};

/// Diagnostics from one recovery pass.
#[derive(Debug, Default, Clone)]
pub struct RecoveryInfo {
    /// Records folded into the recovered state.
    pub replayed_records: u64,
    /// Records skipped because a checkpoint already covered them.
    pub skipped_records: u64,
    /// Bytes dropped from a torn journal tail.
    pub truncated_bytes: u64,
    /// `journal_seq` of the checkpoint used, if any.
    pub checkpoint_seq: Option<u64>,
    /// Blocks in the recovered decided chain (checkpoint + replay).
    pub decided_blocks: u64,
    /// Overlays re-derived as live speculation.
    pub speculated_blocks: u64,
}

/// Everything [`recover`] hands back: the reopened journal (positioned
/// for appending) plus the state to feed `Replica::restore`.
#[derive(Debug)]
pub struct Recovered {
    pub journal: Journal,
    pub state: RecoveredState,
    pub info: RecoveryInfo,
    /// The committed log as the disk has it: the checkpoint's, extended by
    /// every journaled decision after it.
    pub log: CommittedLog,
}

/// Run recovery over `dir` on `disk`: load the newest valid checkpoint, then
/// *stream* the journal through the fold (truncating a torn tail in
/// place) into a [`RecoveredState`].
///
/// Streaming matters for long journals: records covered by the
/// checkpoint are skipped without ever being retained, and fold-only
/// records (certs, views, rollbacks) are dropped as soon as they are
/// applied. Peak memory is the active segment buffer plus what the
/// recovered state itself must hold (post-checkpoint decided bodies and
/// the live speculation stack) — not O(journal length).
pub fn recover(disk: &Disk, dir: &Path, cfg: JournalConfig) -> Result<Recovered, StorageError> {
    disk.create_dir_all(dir)?;
    let checkpoint = Checkpoint::load_latest(disk, dir)?;

    // Continuity rule: the surviving journal must begin inside the
    // checkpoint's coverage (or at seq 0 with no checkpoint). A gap means
    // pruned segments whose sole cover — the checkpoint — is gone or
    // corrupt; replaying past it would silently fabricate a shorter
    // history, so fail stop instead. Checked on the first streamed record
    // (and against `next_seq` below when the journal is empty).
    let covered_through = checkpoint.as_ref().map(|c| c.journal_seq + 1).unwrap_or(0);
    let gap_error = |at: u64| StorageError::Corrupt {
        file: dir.display().to_string(),
        offset: at,
        detail: "journal gap behind checkpoint coverage",
    };

    let mut info = RecoveryInfo {
        checkpoint_seq: checkpoint.as_ref().map(|c| c.journal_seq),
        ..RecoveryInfo::default()
    };

    let mut state = RecoveredState::default();
    if let Some(ckpt) = &checkpoint {
        state.view = ckpt.view;
        state.high_cert = ckpt.high_cert.clone();
        state.committed_store = Some(ckpt.restore_store());
        state.committed_log = ckpt.log.clone();
        info.decided_blocks = ckpt.log.len() as u64 - 1; // genesis
    }
    let mut log = state.committed_log.clone();
    let skip_upto = checkpoint.as_ref().map(|c| c.journal_seq);

    let mut spec: Vec<Arc<Block>> = Vec::new();
    let mut first_seq: Option<u64> = None;
    let (journal, stats) = Journal::open_streaming(disk, dir, cfg, &mut |seq, rec| {
        if first_seq.is_none() {
            first_seq = Some(seq);
            if seq > covered_through {
                return Err(gap_error(seq));
            }
        }
        if let Some(upto) = skip_upto {
            if seq <= upto {
                info.skipped_records += 1;
                return Ok(());
            }
        }
        info.replayed_records += 1;
        match rec {
            JournalRecord::Decided(b) => {
                // Mirror `execute_committed`: promote the oldest overlay if
                // it is this block, otherwise every live overlay conflicts
                // with the commit and is discarded.
                if spec.first().map(|s| s.id()) == Some(b.id()) {
                    spec.remove(0);
                } else {
                    spec.clear();
                }
                log.push(b.id());
                state.decided.push(b);
                info.decided_blocks += 1;
            }
            JournalRecord::Cert(c) => {
                let better = state.high_cert.as_ref().map(|h| c.rank() > h.rank()).unwrap_or(true);
                if better {
                    state.high_cert = Some(c);
                }
            }
            JournalRecord::ViewChange(v) => state.view = state.view.max(v),
            JournalRecord::SpecMark(b) => spec.push(b),
            JournalRecord::SpecRollback { blocks } => {
                let keep = spec.len().saturating_sub(blocks as usize);
                spec.truncate(keep);
            }
            JournalRecord::CheckpointMark { .. } => {}
        }
        Ok(())
    })?;
    if first_seq.is_none() && journal.next_seq() > covered_through {
        return Err(gap_error(journal.next_seq()));
    }

    info.truncated_bytes = stats.truncated_bytes;
    info.speculated_blocks = spec.len() as u64;
    state.speculated = spec;

    Ok(Recovered { journal, state, info, log })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::SyncPolicy;
    use crate::testutil::TempDir;
    use hs1_types::{Certificate, ReplicaId, Slot, Transaction, View};

    fn cfg() -> JournalConfig {
        JournalConfig { segment_bytes: 1 << 16, sync: SyncPolicy::Always }
    }

    fn block(view: u64, parent_justify: Certificate, tag: u64) -> Arc<Block> {
        Arc::new(Block::new(
            ReplicaId(0),
            View(view),
            Slot(1),
            parent_justify,
            vec![Transaction::kv_write(1, tag, tag, tag)],
        ))
    }

    #[test]
    fn empty_dir_recovers_empty_state() {
        let tmp = TempDir::new("recovery-empty");
        let r = recover(&Disk::default(), tmp.path(), cfg()).unwrap();
        assert!(r.state.is_empty());
        assert_eq!(r.info.replayed_records, 0);
    }

    #[test]
    fn spec_then_decide_promotes_out_of_overlay() {
        let tmp = TempDir::new("recovery-promote");
        let b1 = block(1, Certificate::genesis(), 1);
        {
            let (mut j, _) = Journal::open(tmp.path(), cfg()).unwrap();
            j.append(&JournalRecord::SpecMark(b1.clone())).unwrap();
            j.append(&JournalRecord::Decided(b1.clone())).unwrap();
        }
        let r = recover(&Disk::default(), tmp.path(), cfg()).unwrap();
        assert_eq!(r.state.decided.len(), 1);
        assert!(r.state.speculated.is_empty(), "decided block left the overlay stack");
    }

    #[test]
    fn undecided_speculation_is_rederived_not_committed() {
        let tmp = TempDir::new("recovery-spec");
        let b1 = block(1, Certificate::genesis(), 1);
        let b2 = block(2, Certificate::genesis(), 2);
        {
            let (mut j, _) = Journal::open(tmp.path(), cfg()).unwrap();
            j.append(&JournalRecord::Decided(b1.clone())).unwrap();
            j.append(&JournalRecord::SpecMark(b2.clone())).unwrap();
        }
        let r = recover(&Disk::default(), tmp.path(), cfg()).unwrap();
        assert_eq!(r.state.decided.len(), 1);
        assert_eq!(r.state.speculated.len(), 1);
        assert_eq!(r.state.speculated[0].id(), b2.id());
    }

    #[test]
    fn rolled_back_speculation_never_resurfaces() {
        let tmp = TempDir::new("recovery-rollback");
        let b1 = block(1, Certificate::genesis(), 1);
        {
            let (mut j, _) = Journal::open(tmp.path(), cfg()).unwrap();
            j.append(&JournalRecord::SpecMark(b1.clone())).unwrap();
            j.append(&JournalRecord::SpecRollback { blocks: 1 }).unwrap();
        }
        let r = recover(&Disk::default(), tmp.path(), cfg()).unwrap();
        assert!(r.state.speculated.is_empty());
        assert!(r.state.decided.is_empty());
    }

    #[test]
    fn conflicting_decide_clears_overlay_stack() {
        let tmp = TempDir::new("recovery-conflict");
        let b1 = block(1, Certificate::genesis(), 1);
        let b2 = block(2, Certificate::genesis(), 2);
        {
            let (mut j, _) = Journal::open(tmp.path(), cfg()).unwrap();
            j.append(&JournalRecord::SpecMark(b1.clone())).unwrap();
            // A different block decides: execute_committed would have
            // rolled the overlay back without a SpecRollback record.
            j.append(&JournalRecord::Decided(b2.clone())).unwrap();
        }
        let r = recover(&Disk::default(), tmp.path(), cfg()).unwrap();
        assert!(r.state.speculated.is_empty(), "conflicting commit cleared speculation");
        assert_eq!(r.state.decided.len(), 1);
    }

    #[test]
    fn view_and_cert_advance_monotonically() {
        let tmp = TempDir::new("recovery-view");
        {
            let (mut j, _) = Journal::open(tmp.path(), cfg()).unwrap();
            j.append(&JournalRecord::ViewChange(View(5))).unwrap();
            j.append(&JournalRecord::ViewChange(View(3))).unwrap();
            j.append(&JournalRecord::Cert(Certificate::genesis())).unwrap();
        }
        let r = recover(&Disk::default(), tmp.path(), cfg()).unwrap();
        assert_eq!(r.state.view, View(5));
        assert_eq!(r.state.high_cert, Some(Certificate::genesis()));
    }
}
