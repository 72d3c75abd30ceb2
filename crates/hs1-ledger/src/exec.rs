//! Deterministic transaction execution over the speculative store.
//!
//! The engine owns the replica's [`SpeculativeStore`] and exposes the
//! three operations the consensus engines need (paper Fig. 2/4/7 backup
//! roles):
//!
//! * [`ExecutionEngine::execute_speculative`] — run a block into a fresh
//!   local-ledger overlay and return the result digest sent to clients.
//! * [`ExecutionEngine::execute_committed`] — run (or promote) a block
//!   into the global-ledger on commit.
//! * [`ExecutionEngine::rollback_conflicting`] — Definition 4.7: discard
//!   speculated blocks that conflict with a new branch.
//!
//! Execution is integer-only (paper §4.1 "Note on execution model") and
//! runs through the conflict-partitioned batch executor in [`crate::par`],
//! whose wave schedule guarantees that any two correct replicas — at any
//! worker count — produce bit-identical digests and state roots.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use crate::kv::KvStore;
use crate::par;
use crate::spec::SpeculativeStore;
use hs1_crypto::{Digest, Sha256};
use hs1_obs::Obs;
use hs1_types::{BlockId, Transaction};

/// Default executor worker count: `HS1_EXEC_WORKERS` when set (the CI
/// thread-count matrix pins 1 and N), else the machine's available
/// parallelism capped at 8. Any value yields bit-identical results; this
/// only tunes wall-clock speed.
pub fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        if let Some(w) = std::env::var("HS1_EXEC_WORKERS").ok().and_then(|s| s.parse().ok()) {
            return usize::max(w, 1);
        }
        std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(1)
    })
}

/// Which logical database the deployment serves, and how wide the
/// executor's worker pool is.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// YCSB logical record count (the paper uses 600k).
    pub ycsb_records: u64,
    /// TPC-C warehouse count (4 ≈ the paper's 260k records).
    pub tpcc_warehouses: u16,
    /// Executor worker threads (see [`default_workers`]); results are
    /// bit-identical at every value, including 1.
    pub workers: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { ycsb_records: 600_000, tpcc_warehouses: 4, workers: default_workers() }
    }
}

/// Per-replica execution engine: speculative store + digest bookkeeping.
#[derive(Clone, Debug)]
pub struct ExecutionEngine {
    store: SpeculativeStore,
    /// Result digest of every *live* executed block: speculated (not yet
    /// rolled back) or recently committed. Rollback prunes the rolled-back
    /// blocks' entries — a discarded block's digest must not be served
    /// again until the block is actually re-executed — and
    /// [`ExecutionEngine::forget_digest`] drops committed ones once they
    /// are far behind the head.
    digests: HashMap<BlockId, Digest>,
    /// Worker threads for the conflict-partitioned batch executor.
    workers: usize,
    /// Count of transactions executed (including re-executions after
    /// rollback; metric).
    executed_txs: u64,
    /// Observability sink (no-op by default). Wave counts and critical-
    /// path slots are deterministic counters; batch execute time is
    /// wall-measured and therefore confined to a histogram.
    obs: Obs,
}

impl ExecutionEngine {
    pub fn new(config: ExecConfig) -> ExecutionEngine {
        // YCSB records occupy low keys; TPC-C rows live under table tags
        // (tpcc::pack), so one store serves both workloads.
        let base = KvStore::with_records(config.ycsb_records);
        ExecutionEngine {
            store: SpeculativeStore::new(base),
            digests: HashMap::new(),
            workers: config.workers.max(1),
            executed_txs: 0,
            obs: Obs::noop(),
        }
    }

    /// Install an observability sink (pure observer; see `hs1-obs`).
    pub fn set_observer(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Speculatively execute `txs` as block `block` (into a fresh
    /// local-ledger overlay). Returns the result digest for client
    /// responses.
    pub fn execute_speculative(&mut self, block: BlockId, txs: &[Transaction]) -> Digest {
        self.store.begin_speculation(block);
        let digest = self.run_block(block, txs, true);
        self.digests.insert(block, digest);
        digest
    }

    /// Execute `txs` as block `block` directly into the global-ledger
    /// (commit path). If the block is currently the oldest speculated
    /// overlay its effects are *promoted* instead of re-executed.
    pub fn execute_committed(&mut self, block: BlockId, txs: &[Transaction]) -> Digest {
        if self.store.speculated().first() == Some(&block) {
            self.store.promote_oldest(block);
            return self.digests[&block];
        }
        // Any remaining speculation conflicts with this commit (a
        // speculated block at the same height on another branch): its
        // digests die with its overlays.
        for b in self.store.speculated() {
            self.digests.remove(&b);
        }
        self.store.rollback_all();
        let digest = self.run_block(block, txs, false);
        self.digests.insert(block, digest);
        digest
    }

    /// Roll back every speculated block that is not in `keep` (the new
    /// branch's already-speculated prefix). Returns how many blocks were
    /// rolled back (Definition 4.7). Rolled-back blocks' digests are
    /// pruned: a digest must never outlive the effects it attests to.
    ///
    /// Linear in the speculation depth (`keep` is hashed once), so a deep
    /// pipeline pays O(depth), not O(depth²), on the hot rollback path.
    pub fn rollback_conflicting(&mut self, keep: &[BlockId]) -> usize {
        let speculated = self.store.speculated();
        let keep: HashSet<BlockId> = keep.iter().copied().collect();
        // The deepest speculated prefix entirely within `keep` survives.
        let mut retain = 0;
        for b in &speculated {
            if keep.contains(b) {
                retain += 1;
            } else {
                break;
            }
        }
        if retain == speculated.len() {
            return 0;
        }
        for b in &speculated[retain..] {
            self.digests.remove(b);
        }
        if retain == 0 {
            self.store.rollback_all()
        } else {
            self.store.rollback_above(speculated[retain - 1])
        }
    }

    /// Digest of a previously executed block, if any.
    pub fn digest_of(&self, block: BlockId) -> Option<Digest> {
        self.digests.get(&block).copied()
    }

    /// Drop the digest of a block committed long ago (bounded memory on
    /// long runs). A digest is read when its block is speculated or
    /// committed, never afterwards.
    pub fn forget_digest(&mut self, block: BlockId) {
        self.digests.remove(&block);
    }

    /// How many digests are held.
    pub fn digest_count(&self) -> usize {
        self.digests.len()
    }

    /// Replace the committed base store with a recovered checkpoint image
    /// (§4.2 recovery). The engine must not be mid-speculation: recovery
    /// installs the checkpoint first and re-derives overlays afterwards.
    /// All digest bookkeeping is dropped — it described the pre-restore
    /// history, and recovery re-executes whatever is still live.
    pub fn restore_committed(&mut self, store: KvStore) {
        assert_eq!(self.store.depth(), 0, "restore_committed under active speculation");
        self.digests.clear();
        self.store = SpeculativeStore::new(store);
    }

    pub fn store(&self) -> &SpeculativeStore {
        &self.store
    }

    pub fn rollback_count(&self) -> u64 {
        self.store.rollback_count()
    }

    pub fn executed_txs(&self) -> u64 {
        self.executed_txs
    }

    /// Is `block` speculated but not yet committed?
    pub fn is_speculating(&self, block: BlockId) -> bool {
        self.store.is_speculating(block)
    }

    // -- internals ---------------------------------------------------------

    /// Execute one block through the conflict-partitioned batch executor
    /// ([`crate::par`]) and fold the result digest. The digest is a pure
    /// function of (block id, batch, pre-state): per-transaction result
    /// values are hashed in batch order regardless of how many workers
    /// computed them.
    fn run_block(&mut self, block: BlockId, txs: &[Transaction], speculative: bool) -> Digest {
        let started = self.obs.enabled().then(std::time::Instant::now);
        let outcome = par::execute_batch(&self.store, txs, self.workers);
        if let Some(t0) = started {
            // Wall time goes to the histogram only — never the trace.
            self.obs.observe_nanos("exec_batch_ns", t0.elapsed().as_nanos() as u64);
            self.obs.counter("exec_batches", 0, 1);
            self.obs.counter("exec_waves", 0, outcome.waves as u64);
            self.obs.counter("exec_critical_slots", 0, outcome.critical_slots);
            self.obs.counter("exec_txs", 0, txs.len() as u64);
        }
        if speculative {
            self.store.apply_speculative(outcome.writes);
        } else {
            self.store.apply_committed(outcome.writes);
        }
        let mut h = Sha256::new();
        h.update(b"hs1-exec");
        h.update(&block.0 .0);
        for (tx, r) in txs.iter().zip(&outcome.results) {
            h.update_u64(tx.id.client.0 as u64);
            h.update_u64(tx.id.seq);
            h.update_u64(*r);
        }
        self.executed_txs += txs.len() as u64;
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcc;
    use hs1_types::tx::TxId;
    use hs1_types::{ClientId, TxOp};

    fn txs(n: u64) -> Vec<Transaction> {
        (0..n).map(|i| Transaction::kv_write(1, i, i * 7, i)).collect()
    }

    #[test]
    fn speculative_and_committed_digests_agree() {
        let batch = txs(20);
        let mut a = ExecutionEngine::new(ExecConfig::default());
        let mut b = ExecutionEngine::new(ExecConfig::default());
        let da = a.execute_speculative(BlockId::test(1), &batch);
        let db = b.execute_committed(BlockId::test(1), &batch);
        assert_eq!(da, db, "speculation must not change results");
    }

    #[test]
    fn promote_skips_reexecution() {
        let batch = txs(5);
        let mut e = ExecutionEngine::new(ExecConfig::default());
        let d1 = e.execute_speculative(BlockId::test(1), &batch);
        let executed_before = e.executed_txs();
        let d2 = e.execute_committed(BlockId::test(1), &batch);
        assert_eq!(d1, d2);
        assert_eq!(e.executed_txs(), executed_before, "promotion re-executes nothing");
        assert_eq!(e.store().depth(), 0);
    }

    #[test]
    fn conflicting_commit_rolls_back_speculation() {
        let mut e = ExecutionEngine::new(ExecConfig::default());
        e.execute_speculative(BlockId::test(1), &txs(3));
        // A different block commits at this height: speculation discarded.
        let batch2: Vec<_> = (0..3).map(|i| Transaction::kv_write(2, i, i, i + 9)).collect();
        e.execute_committed(BlockId::test(2), &batch2);
        assert_eq!(e.rollback_count(), 1);
        assert!(!e.is_speculating(BlockId::test(1)));
    }

    #[test]
    fn rollback_conflicting_keeps_matching_prefix() {
        let mut e = ExecutionEngine::new(ExecConfig::default());
        e.execute_speculative(BlockId::test(1), &txs(1));
        assert_eq!(e.rollback_conflicting(&[BlockId::test(1)]), 0, "no conflict");
        assert_eq!(e.rollback_conflicting(&[BlockId::test(9)]), 1, "conflict rolls back");
        assert_eq!(e.store().depth(), 0);
    }

    #[test]
    fn rollback_then_reexecute_same_state() {
        let batch_a = txs(10);
        let batch_b: Vec<_> = (0..10).map(|i| Transaction::kv_write(3, i, i * 7, i + 1)).collect();

        // Replica X speculates A, rolls back, then commits B.
        let mut x = ExecutionEngine::new(ExecConfig::default());
        x.execute_speculative(BlockId::test(10), &batch_a);
        x.rollback_conflicting(&[]);
        let dx = x.execute_committed(BlockId::test(11), &batch_b);

        // Replica Y never saw A.
        let mut y = ExecutionEngine::new(ExecConfig::default());
        let dy = y.execute_committed(BlockId::test(11), &batch_b);

        assert_eq!(dx, dy, "rollback erased every speculative effect");
        for key in 0..100 {
            assert_eq!(x.store().get(key), y.store().get(key));
        }
    }

    #[test]
    fn tpcc_neworder_allocates_sequential_oids() {
        let mut e = ExecutionEngine::new(ExecConfig::default());
        let no = |seq| Transaction {
            id: TxId::new(ClientId(1), seq),
            op: TxOp::TpccNewOrder { warehouse: 1, district: 2, customer: 7, lines: 5, seed: seq },
        };
        e.execute_committed(BlockId::test(1), &[no(0), no(1)]);
        let oid_key = tpcc::district_next_oid(1, 2);
        assert_eq!(e.store().get(oid_key), Some(2), "two orders allocated");
        // Order lines materialized for both orders.
        assert!(e.store().get(tpcc::order_line(1, 2, 0, 0)).is_some());
        assert!(e.store().get(tpcc::order_line(1, 2, 1, 0)).is_some());
    }

    #[test]
    fn tpcc_payment_moves_money() {
        let mut e = ExecutionEngine::new(ExecConfig::default());
        let pay = Transaction {
            id: TxId::new(ClientId(1), 0),
            op: TxOp::TpccPayment { warehouse: 1, district: 1, customer: 42, amount_cents: 500 },
        };
        e.execute_committed(BlockId::test(1), &[pay]);
        assert_eq!(e.store().get(tpcc::warehouse_ytd(1)), Some(500));
        assert_eq!(e.store().get(tpcc::district_ytd(1, 1)), Some(500));
        assert_eq!(e.store().get(tpcc::customer_payments(1, 1, 42)), Some(1));
        assert_eq!(e.store().get(tpcc::customer_balance(1, 1, 42)), Some(0u64.wrapping_sub(500)));
    }

    #[test]
    fn digest_depends_on_block_and_order() {
        let batch = txs(4);
        let mut e = ExecutionEngine::new(ExecConfig::default());
        let d1 = e.execute_speculative(BlockId::test(1), &batch);
        e.rollback_conflicting(&[]);
        let d2 = e.execute_speculative(BlockId::test(2), &batch);
        assert_ne!(d1, d2, "digest binds the block id");

        let mut rev = batch.clone();
        rev.reverse();
        let mut e2 = ExecutionEngine::new(ExecConfig::default());
        let d3 = e2.execute_committed(BlockId::test(1), &rev);
        assert_ne!(d1, d3, "digest binds execution order");
    }

    #[test]
    fn digest_of_lookup() {
        let mut e = ExecutionEngine::new(ExecConfig::default());
        assert_eq!(e.digest_of(BlockId::test(1)), None);
        let d = e.execute_committed(BlockId::test(1), &txs(2));
        assert_eq!(e.digest_of(BlockId::test(1)), Some(d));
    }

    /// Regression (ISSUE 6): a rolled-back block's digest must be gone
    /// until the block is re-executed — `digest_of` serving a digest for
    /// discarded effects let a replica answer for state it no longer had.
    #[test]
    fn rollback_prunes_digests_until_reexecution() {
        let batch = txs(6);
        let mut e = ExecutionEngine::new(ExecConfig::default());
        let d1 = e.execute_speculative(BlockId::test(1), &batch);
        assert_eq!(e.digest_of(BlockId::test(1)), Some(d1));
        assert_eq!(e.rollback_conflicting(&[]), 1);
        assert_eq!(
            e.digest_of(BlockId::test(1)),
            None,
            "digest must not survive the rollback of its effects"
        );
        // Re-execution restores both the digest and the lookup.
        let d2 = e.execute_speculative(BlockId::test(1), &batch);
        assert_eq!(d1, d2);
        assert_eq!(e.digest_of(BlockId::test(1)), Some(d2));
    }

    /// Same pruning on the conflicting-commit path: the implicit
    /// `rollback_all` inside `execute_committed` discards digests of the
    /// speculation it destroys (but keeps the committed block's own).
    #[test]
    fn conflicting_commit_prunes_speculative_digests() {
        let mut e = ExecutionEngine::new(ExecConfig::default());
        e.execute_speculative(BlockId::test(1), &txs(3));
        let batch2: Vec<_> = (0..3).map(|i| Transaction::kv_write(2, i, i, i + 9)).collect();
        let d2 = e.execute_committed(BlockId::test(2), &batch2);
        assert_eq!(e.digest_of(BlockId::test(1)), None, "rolled-back digest pruned");
        assert_eq!(e.digest_of(BlockId::test(2)), Some(d2), "committed digest kept");
    }

    /// And on restore: a recovered checkpoint invalidates every digest of
    /// the pre-restore history.
    #[test]
    fn restore_committed_drops_stale_digests() {
        let mut e = ExecutionEngine::new(ExecConfig::default());
        e.execute_committed(BlockId::test(1), &txs(3));
        e.restore_committed(KvStore::with_records(10));
        assert_eq!(e.digest_of(BlockId::test(1)), None);
    }

    /// Depth-64 pipeline: a partial-prefix rollback keeps exactly the
    /// matching prefix (and its digests) and prunes the rest. Exercises
    /// the linear prefix scan at depth far beyond protocol use.
    #[test]
    fn deep_pipeline_partial_rollback() {
        const DEPTH: u64 = 64;
        const KEEP: usize = 40;
        let mut e = ExecutionEngine::new(ExecConfig::default());
        let mut digests = Vec::new();
        for i in 0..DEPTH {
            let batch = vec![Transaction::kv_write(1, i, i, i * 3)];
            digests.push(e.execute_speculative(BlockId::test(i + 1), &batch));
        }
        assert_eq!(e.store().depth(), DEPTH as usize);
        let keep: Vec<BlockId> = (0..KEEP as u64).map(|i| BlockId::test(i + 1)).collect();
        assert_eq!(e.rollback_conflicting(&keep), DEPTH as usize - KEEP);
        assert_eq!(e.store().depth(), KEEP);
        for (i, digest) in digests.iter().enumerate() {
            let id = BlockId::test(i as u64 + 1);
            if i < KEEP {
                assert_eq!(e.digest_of(id), Some(*digest), "kept prefix digest survives");
                assert!(e.is_speculating(id));
            } else {
                assert_eq!(e.digest_of(id), None, "rolled-back digest pruned");
                assert!(!e.is_speculating(id));
            }
        }
        // A keep-list that skips the bottom of the stack keeps nothing.
        let mut e2 = ExecutionEngine::new(ExecConfig::default());
        for i in 0..4u64 {
            e2.execute_speculative(BlockId::test(i + 1), &[Transaction::kv_write(1, i, i, i)]);
        }
        assert_eq!(e2.rollback_conflicting(&[BlockId::test(2)]), 4, "non-prefix keep rolls all");
        assert_eq!(e2.store().depth(), 0);
    }

    #[test]
    fn restore_committed_reproduces_state_root() {
        let batch = txs(10);
        let mut live = ExecutionEngine::new(ExecConfig::default());
        live.execute_committed(BlockId::test(1), &batch);
        let snapshot = KvStore::from_parts(
            live.store().committed_store().record_count(),
            live.store().committed_store().materialized(),
        );

        let mut recovered = ExecutionEngine::new(ExecConfig::default());
        recovered.restore_committed(snapshot);
        assert_eq!(
            recovered.store().committed_store().state_root(),
            live.store().committed_store().state_root()
        );
        // Execution continues identically on top of the restored base.
        let batch2: Vec<_> = (0..5).map(|i| Transaction::kv_write(2, i, i + 3, i)).collect();
        let d1 = live.execute_committed(BlockId::test(2), &batch2);
        let d2 = recovered.execute_committed(BlockId::test(2), &batch2);
        assert_eq!(d1, d2);
    }

    /// A batch exercising every write path: YCSB writes, reads, TPC-C
    /// NewOrder and Payment.
    fn mixed_batch() -> Vec<Transaction> {
        let mut out = txs(5);
        out.push(Transaction { id: TxId::new(ClientId(9), 100), op: TxOp::KvRead { key: 7 } });
        out.push(Transaction {
            id: TxId::new(ClientId(9), 101),
            op: TxOp::TpccNewOrder { warehouse: 1, district: 3, customer: 11, lines: 4, seed: 77 },
        });
        out.push(Transaction {
            id: TxId::new(ClientId(9), 102),
            op: TxOp::TpccPayment { warehouse: 1, district: 3, customer: 11, amount_cents: 250 },
        });
        out
    }

    #[test]
    fn execute_rollback_reexecute_yields_identical_state_root() {
        let batch = mixed_batch();
        let mut e = ExecutionEngine::new(ExecConfig::default());
        let pristine_root = e.store().committed_store().state_root();

        // Execute speculatively, then roll the block back.
        let d1 = e.execute_speculative(BlockId::test(1), &batch);
        assert_eq!(
            e.store().committed_store().state_root(),
            pristine_root,
            "speculation must not touch committed state"
        );
        assert_eq!(e.rollback_conflicting(&[]), 1);
        assert_eq!(
            e.store().committed_store().state_root(),
            pristine_root,
            "rollback restores the pre-speculation state root"
        );

        // Re-execute the same block: identical result digest, and after
        // promotion the committed root matches a replica that committed
        // the block directly without ever speculating.
        let d2 = e.execute_speculative(BlockId::test(1), &batch);
        assert_eq!(d1, d2, "re-execution after rollback reproduces the digest");
        let d3 = e.execute_committed(BlockId::test(1), &batch);
        assert_eq!(d1, d3);

        let mut direct = ExecutionEngine::new(ExecConfig::default());
        direct.execute_committed(BlockId::test(1), &batch);
        assert_eq!(
            e.store().committed_store().state_root(),
            direct.store().committed_store().state_root(),
            "rollback + re-execute converges to the directly-committed state root"
        );
    }
}
