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
//! Execution is integer-only and sequential (paper §4.1 "Note on
//! execution model"): one private function, `run_block`, applies a block's
//! transactions in block order, so the digest and the state root are a
//! function of the ordered batch and the pre-state, and any two correct
//! replicas produce the same ones.

use std::collections::{HashMap, HashSet};

use crate::kv::{Key, KvStore, Value};
use crate::spec::SpeculativeStore;
use crate::tpcc;
use hs1_crypto::{Digest, Sha256};
use hs1_obs::Obs;
use hs1_types::{BlockId, Transaction, TxOp};

/// Which logical database the deployment serves.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// YCSB logical record count (the paper uses 600k). TPC-C rows live
    /// above it under table tags and are created on first write.
    pub ycsb_records: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { ycsb_records: 600_000 }
    }
}

/// Per-replica execution engine: speculative store + digest bookkeeping.
#[derive(Clone, Debug)]
pub struct ExecutionEngine {
    store: SpeculativeStore,
    /// Result digest of every speculated block not rolled back. Rollback
    /// prunes the rolled-back blocks' entries: a discarded block's digest
    /// must not be served again until the block is actually re-executed.
    /// A block that commits takes its digest to `head`.
    digests: HashMap<BlockId, Digest>,
    /// The committed head and its digest. A committed block's digest is
    /// read only while it is the head; the one below it is dropped.
    head: Option<(BlockId, Digest)>,
    /// Count of transactions executed (including re-executions after
    /// rollback; metric).
    executed_txs: u64,
    /// Observability sink (no-op by default). Batch and transaction
    /// counts are deterministic counters; batch execute time is
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
            head: None,
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
        let digest = if self.store.speculated().first() == Some(&block) {
            self.store.promote_oldest(block);
            self.digests.remove(&block).expect("a speculated block has a digest")
        } else {
            // Any remaining speculation conflicts with this commit (a
            // speculated block at the same height on another branch): its
            // digests die with its overlays.
            self.digests.clear();
            self.store.rollback_all();
            self.run_block(block, txs, false)
        };
        self.head = Some((block, digest));
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

    /// Digest of a live speculated block or of the committed head.
    pub fn digest_of(&self, block: BlockId) -> Option<Digest> {
        match self.head {
            Some((id, digest)) if id == block => Some(digest),
            _ => self.digests.get(&block).copied(),
        }
    }

    /// Replace the committed base store with a recovered checkpoint image
    /// (§4.2 recovery). The engine must not be mid-speculation: recovery
    /// installs the checkpoint first and re-derives overlays afterwards.
    /// All digest bookkeeping is dropped — it described the pre-restore
    /// history, and recovery re-executes whatever is still live.
    pub fn restore_committed(&mut self, store: KvStore) {
        assert_eq!(self.store.depth(), 0, "restore_committed under active speculation");
        self.digests.clear();
        self.head = None;
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

    /// Execute one block: apply its transactions in block order against
    /// the store plus the block's own earlier writes, hand the write set
    /// to the store, and fold the result digest over the block id and
    /// then, per transaction, its id and result value.
    fn run_block(&mut self, block: BlockId, txs: &[Transaction], speculative: bool) -> Digest {
        let started = self.obs.enabled().then(std::time::Instant::now);
        let mut writes: HashMap<Key, Value> = HashMap::new();
        let results: Vec<u64> =
            txs.iter().map(|tx| apply_tx(&self.store, &mut writes, tx)).collect();
        if let Some(t0) = started {
            // Wall time goes to the histogram only — never the trace.
            self.obs.observe_nanos("exec_batch_ns", t0.elapsed().as_nanos() as u64);
            self.obs.counter("exec_batches", 0, 1);
            self.obs.counter("exec_txs", 0, txs.len() as u64);
        }
        if speculative {
            self.store.apply_speculative(writes);
        } else {
            self.store.apply_committed(writes);
        }
        let mut h = Sha256::new();
        h.update(b"hs1-exec");
        h.update(&block.0 .0);
        for (tx, r) in txs.iter().zip(&results) {
            h.update_u64(tx.id.client.0 as u64);
            h.update_u64(tx.id.seq);
            h.update_u64(*r);
        }
        self.executed_txs += txs.len() as u64;
        h.finalize()
    }
}

/// Read `key` as this point of the block sees it: the block's own earlier
/// writes, then the store (overlays above committed base). Missing keys
/// read as 0.
fn read(store: &SpeculativeStore, writes: &HashMap<Key, Value>, key: Key) -> u64 {
    writes.get(&key).copied().unwrap_or_else(|| store.get(key).unwrap_or(0))
}

/// Apply one transaction, writing into `writes` and returning the result
/// value that feeds the block digest. This is the single definition of
/// transaction semantics.
fn apply_tx(store: &SpeculativeStore, writes: &mut HashMap<Key, Value>, tx: &Transaction) -> u64 {
    match tx.op {
        TxOp::KvWrite { key, seed } => {
            let new = crate::kv::initial_value(seed ^ tx.id.seq);
            writes.insert(key, new);
            new
        }
        TxOp::KvRead { key } => read(store, writes, key),
        TxOp::TpccNewOrder { warehouse, district, customer, lines, seed } => {
            // Allocate the next order id for the district.
            let oid_key = tpcc::district_next_oid(warehouse, district);
            let oid = read(store, writes, oid_key) as u32;
            writes.insert(oid_key, oid as u64 + 1);
            let mut total = 0u64;
            for line in 0..lines {
                let item = tpcc::item_for(seed, line);
                let stock_key = tpcc::stock_qty(warehouse, item);
                let qty = read(store, writes, stock_key);
                // Restock when depleted, matching the TPC-C rule
                // (s_quantity += 91 when below threshold).
                let new_qty = if qty < 10 { qty + 91 } else { qty - 1 };
                writes.insert(stock_key, new_qty);
                let ol_key = tpcc::order_line(warehouse, district, oid, line);
                let amount = (item as u64 % 9_999) + 1;
                writes.insert(ol_key, amount);
                total += amount;
            }
            // Record the total against the customer's order history via
            // the digest return value.
            total ^ ((customer as u64) << 32) ^ oid as u64
        }
        TxOp::TpccPayment { warehouse, district, customer, amount_cents } => {
            let w_key = tpcc::warehouse_ytd(warehouse);
            let w_ytd = read(store, writes, w_key) + amount_cents as u64;
            writes.insert(w_key, w_ytd);
            let d_key = tpcc::district_ytd(warehouse, district);
            let d_ytd = read(store, writes, d_key) + amount_cents as u64;
            writes.insert(d_key, d_ytd);
            let bal_key = tpcc::customer_balance(warehouse, district, customer);
            let bal = read(store, writes, bal_key).wrapping_sub(amount_cents as u64);
            writes.insert(bal_key, bal);
            let cnt_key = tpcc::customer_payments(warehouse, district, customer);
            let cnt = read(store, writes, cnt_key) + 1;
            writes.insert(cnt_key, cnt);
            bal
        }
        TxOp::Noop => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs1_types::tx::TxId;
    use hs1_types::ClientId;

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

    /// Digests are held for the speculated blocks and the committed head
    /// only: a block's digest leaves when the next one commits.
    #[test]
    fn digest_of_lookup() {
        let mut e = ExecutionEngine::new(ExecConfig::default());
        assert_eq!(e.digest_of(BlockId::test(1)), None);
        let d = e.execute_committed(BlockId::test(1), &txs(2));
        assert_eq!(e.digest_of(BlockId::test(1)), Some(d));
        let d2 = e.execute_speculative(BlockId::test(2), &txs(3));
        assert_eq!(e.digest_of(BlockId::test(1)), Some(d));
        assert_eq!(e.execute_committed(BlockId::test(2), &txs(3)), d2);
        assert_eq!(e.digest_of(BlockId::test(1)), None, "no longer the head");
        assert_eq!(e.digest_of(BlockId::test(2)), Some(d2));
    }

    #[test]
    fn empty_batch() {
        let mut e = ExecutionEngine::new(ExecConfig { ycsb_records: 10 });
        let root = e.store().committed_store().state_root();
        let d = e.execute_committed(BlockId::test(1), &[]);
        assert_eq!(e.digest_of(BlockId::test(1)), Some(d));
        assert_eq!(e.executed_txs(), 0);
        assert_eq!(e.store().committed_store().state_root(), root, "an empty block writes nothing");
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
