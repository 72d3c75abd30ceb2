//! Deterministic transaction execution over the committed store and at
//! most one speculated block.
//!
//! The engine holds the replica's global-ledger (a [`KvStore`]) and its
//! local-ledger, and exposes the three operations the consensus engines
//! need (paper Fig. 2/4/7 backup roles):
//!
//! * [`ExecutionEngine::execute_speculative`] — run a block into the
//!   local-ledger and return the result digest sent to clients.
//! * [`ExecutionEngine::execute_committed`] — run (or promote) a block
//!   into the global-ledger on commit.
//! * [`ExecutionEngine::rollback_conflicting`] — Definition 4.7: discard
//!   a speculated block that conflicts with a new branch.
//!
//! HotStuff-1's Prefix Speculation rule (§4, Fig. 4 lines 12–15) lets a
//! replica speculate a block only on a committed parent, so the
//! local-ledger is one block's write set, not a stack: a block reads the
//! committed store and its own earlier writes, and nothing else.
//!
//! Execution is integer-only and sequential (paper §4.1 "Note on
//! execution model"): one private function, `run_block`, applies a block's
//! transactions in block order, so the digest and the state root are a
//! function of the ordered batch and the pre-state, and any two correct
//! replicas produce the same ones.

use std::collections::HashMap;

use crate::kv::{Key, KvStore, Value};
use crate::spec::LocalLedger;
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

/// Per-replica execution engine: the committed store, at most one
/// speculated block above it, and the committed head's digest.
#[derive(Clone, Debug)]
pub struct ExecutionEngine {
    /// The committed store and the speculated block not rolled back, if
    /// any. Rollback drops the speculated block with its digest: a
    /// discarded block's digest must not be served again until the block
    /// is actually re-executed. A block that commits takes its digest to
    /// `head`.
    ledger: LocalLedger,
    /// The committed head and its digest. A committed block's digest is
    /// read only while it is the head; the one below it is dropped.
    head: Option<(BlockId, Digest)>,
    /// Observability sink (no-op by default). Batch and transaction
    /// counts are deterministic counters; batch execute time is
    /// wall-measured and therefore confined to a histogram.
    obs: Obs,
}

impl ExecutionEngine {
    pub fn new(config: ExecConfig) -> ExecutionEngine {
        // YCSB records occupy low keys; TPC-C rows live under table tags
        // (tpcc::pack), so one store serves both workloads.
        ExecutionEngine {
            ledger: LocalLedger::new(KvStore::with_records(config.ycsb_records)),
            head: None,
            obs: Obs::noop(),
        }
    }

    /// Install an observability sink (pure observer; see `hs1-obs`).
    pub fn set_observer(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Speculatively execute `txs` as block `block` into the local-ledger.
    /// Returns the result digest for client responses.
    ///
    /// Panics if a block is already speculated: the caller rolls it back
    /// first (its parent is committed, so any live speculation conflicts).
    pub fn execute_speculative(&mut self, block: BlockId, txs: &[Transaction]) -> Digest {
        let (digest, writes) = self.run_block(block, txs);
        self.ledger.speculate(block, digest, writes);
        digest
    }

    /// Execute `txs` as block `block` directly into the global-ledger
    /// (commit path). If `block` is the speculated block its effects are
    /// *promoted* instead of re-executed.
    pub fn execute_committed(&mut self, block: BlockId, txs: &[Transaction]) -> Digest {
        // Any other speculation conflicts with this commit (a block at the
        // same height on another branch): `commit` dropped it with its
        // digest.
        let digest = match self.ledger.commit(block) {
            Some(promoted) => promoted,
            None => {
                let (digest, writes) = self.run_block(block, txs);
                self.ledger.apply_committed(writes);
                digest
            }
        };
        self.head = Some((block, digest));
        digest
    }

    /// Roll back the speculated block unless it is in `keep` (the new
    /// branch's already-speculated prefix). Returns how many blocks were
    /// rolled back, 0 or 1 (Definition 4.7). The rolled-back block's
    /// digest goes with it: a digest must never outlive the effects it
    /// attests to.
    pub fn rollback_conflicting(&mut self, keep: &[BlockId]) -> usize {
        self.ledger.rollback_unless(keep)
    }

    /// Digest of the live speculated block or of the committed head.
    pub fn digest_of(&self, block: BlockId) -> Option<Digest> {
        match (self.head, self.ledger.speculated()) {
            (Some((id, digest)), _) if id == block => Some(digest),
            (_, Some((id, digest))) if id == block => Some(digest),
            _ => None,
        }
    }

    /// Replace the committed store with a recovered checkpoint image
    /// (§4.2 recovery). The engine must not be mid-speculation: recovery
    /// installs the checkpoint first and re-speculates afterwards. The
    /// head's digest is dropped — it described the pre-restore history,
    /// and recovery re-executes whatever is still live.
    pub fn restore_committed(&mut self, store: KvStore) {
        self.ledger.restore(store);
        self.head = None;
    }

    /// The committed global-ledger state.
    pub fn committed(&self) -> &KvStore {
        self.ledger.committed()
    }

    // -- internals ---------------------------------------------------------

    /// Execute one block: apply its transactions in block order against
    /// the committed store plus the block's own earlier writes, and fold
    /// the result digest over the block id and then, per transaction, its
    /// id and result value. Returns the digest and the block's write set.
    fn run_block(&mut self, block: BlockId, txs: &[Transaction]) -> (Digest, HashMap<Key, Value>) {
        let started = self.obs.enabled().then(std::time::Instant::now);
        let mut writes = self.ledger.write_set();
        let mut h = Sha256::new();
        h.update(b"hs1-exec");
        h.update(&block.0 .0);
        for tx in txs {
            let result = apply_tx(self.ledger.committed(), &mut writes, tx);
            h.update_u64(tx.id.client.0 as u64);
            h.update_u64(tx.id.seq);
            h.update_u64(result);
        }
        if let Some(t0) = started {
            // Wall time goes to the histogram only — never the trace.
            self.obs.observe_nanos("exec_batch_ns", t0.elapsed().as_nanos() as u64);
            self.obs.counter("exec_batches", 0, 1);
            self.obs.counter("exec_txs", 0, txs.len() as u64);
        }
        (h.finalize(), writes)
    }
}

/// Read `key` as this point of the block sees it: the block's own earlier
/// writes, then the committed store. Missing keys read as 0.
fn read(store: &KvStore, writes: &HashMap<Key, Value>, key: Key) -> u64 {
    writes.get(&key).copied().unwrap_or_else(|| store.get(key).unwrap_or(0))
}

/// Apply one transaction, writing into `writes` and returning the result
/// value that feeds the block digest. This is the single definition of
/// transaction semantics.
fn apply_tx(store: &KvStore, writes: &mut HashMap<Key, Value>, tx: &Transaction) -> u64 {
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
    use hs1_types::ClientId;
    use hs1_types::TxId;

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

    /// What a read of `key` sees: the speculated block's writes over the
    /// committed store.
    fn read_through(e: &ExecutionEngine, key: Key) -> Option<Value> {
        e.ledger.get(key)
    }

    #[test]
    fn read_your_speculation() {
        let mut e = ExecutionEngine::new(ExecConfig { ycsb_records: 100 });
        let before = e.committed().get(5);
        e.execute_speculative(BlockId::test(1), &[Transaction::kv_write(1, 0, 5, 9)]);
        let written = read_through(&e, 5);
        assert_ne!(written, before, "the speculated write is visible");
        assert_eq!(read_through(&e, 6), e.committed().get(6), "unwritten keys read through");
        assert_eq!(e.committed().get(5), before, "committed state untouched");
    }

    #[test]
    fn rollback_restores_committed_state() {
        let mut e = ExecutionEngine::new(ExecConfig { ycsb_records: 100 });
        let pristine: Vec<_> = (0..10).map(|k| read_through(&e, k)).collect();
        let batch: Vec<_> = (0..10).map(|k| Transaction::kv_write(1, k, k, k + 1000)).collect();
        e.execute_speculative(BlockId::test(1), &batch);
        let during: Vec<_> = (0..10).map(|k| read_through(&e, k)).collect();
        assert_ne!(pristine, during, "the speculation is visible");
        assert_eq!(e.rollback_conflicting(&[]), 1);
        let after: Vec<_> = (0..10).map(|k| read_through(&e, k)).collect();
        assert_eq!(pristine, after);
    }

    /// The next block's write set reuses the one a rollback or commit
    /// emptied: nothing of the old block's writes survives into it.
    #[test]
    fn a_reused_write_set_starts_empty() {
        let mut e = ExecutionEngine::new(ExecConfig { ycsb_records: 100 });
        let pristine: Vec<_> = (0..10).map(|k| read_through(&e, k)).collect();
        let batch: Vec<_> = (0..10).map(|k| Transaction::kv_write(1, k, k, k + 1000)).collect();
        e.execute_speculative(BlockId::test(1), &batch);
        e.rollback_conflicting(&[]);
        e.execute_speculative(BlockId::test(2), &[Transaction::kv_write(1, 20, 50, 1)]);
        let after: Vec<_> = (0..10).map(|k| read_through(&e, k)).collect();
        assert_eq!(pristine, after, "the rolled-back writes are gone");
        e.execute_committed(BlockId::test(2), &[]);
        e.execute_committed(BlockId::test(3), &[Transaction::kv_write(1, 21, 60, 2)]);
        assert_eq!((0..10).map(|k| read_through(&e, k)).collect::<Vec<_>>(), pristine);
    }

    #[test]
    fn promote_then_speculate_again() {
        let mut e = ExecutionEngine::new(ExecConfig { ycsb_records: 100 });
        e.execute_speculative(BlockId::test(1), &[Transaction::kv_write(1, 0, 1, 11)]);
        e.execute_committed(BlockId::test(1), &[]);
        let promoted = e.committed().get(1);
        e.execute_speculative(BlockId::test(2), &[Transaction::kv_write(1, 1, 1, 22)]);
        assert_ne!(read_through(&e, 1), promoted, "the new speculation reads first");
        e.rollback_conflicting(&[]);
        assert_eq!(read_through(&e, 1), promoted, "rollback stops at the promoted block");
    }

    #[test]
    fn promote_skips_reexecution() {
        let batch = txs(5);
        let mut e = ExecutionEngine::new(ExecConfig::default());
        let d1 = e.execute_speculative(BlockId::test(1), &batch);
        // Commit the same block with no transactions: a promotion takes the
        // speculated digest and writes, so the empty batch is never run.
        let d2 = e.execute_committed(BlockId::test(1), &[]);
        assert_eq!(d1, d2, "promotion re-executes nothing");
        let mut direct = ExecutionEngine::new(ExecConfig::default());
        direct.execute_committed(BlockId::test(1), &batch);
        assert_eq!(e.committed().state_root(), direct.committed().state_root());
        assert!(e.ledger.speculated().is_none());
    }

    #[test]
    fn conflicting_commit_rolls_back_speculation() {
        let mut e = ExecutionEngine::new(ExecConfig::default());
        e.execute_speculative(BlockId::test(1), &txs(3));
        // A different block commits at this height: speculation discarded.
        let batch2: Vec<_> = (0..3).map(|i| Transaction::kv_write(2, i, i, i + 9)).collect();
        e.execute_committed(BlockId::test(2), &batch2);
        let mut direct = ExecutionEngine::new(ExecConfig::default());
        direct.execute_committed(BlockId::test(2), &batch2);
        assert_eq!(e.committed().state_root(), direct.committed().state_root());
        assert!(e.ledger.speculated().is_none());
    }

    #[test]
    fn rollback_conflicting_keeps_matching_prefix() {
        let mut e = ExecutionEngine::new(ExecConfig::default());
        e.execute_speculative(BlockId::test(1), &txs(1));
        assert_eq!(e.rollback_conflicting(&[BlockId::test(1)]), 0, "no conflict");
        assert_eq!(e.rollback_conflicting(&[BlockId::test(9)]), 1, "conflict rolls back");
        assert_eq!(e.rollback_conflicting(&[]), 0, "nothing left to roll back");
        assert!(e.ledger.speculated().is_none());
    }

    #[test]
    #[should_panic(expected = "already speculated")]
    fn speculating_over_live_speculation_panics() {
        let mut e = ExecutionEngine::new(ExecConfig::default());
        e.execute_speculative(BlockId::test(1), &txs(1));
        e.execute_speculative(BlockId::test(2), &txs(1));
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
            assert_eq!(x.committed().get(key), y.committed().get(key));
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
        assert_eq!(e.committed().get(oid_key), Some(2), "two orders allocated");
        // Order lines materialized for both orders.
        assert!(e.committed().get(tpcc::order_line(1, 2, 0, 0)).is_some());
        assert!(e.committed().get(tpcc::order_line(1, 2, 1, 0)).is_some());
    }

    #[test]
    fn tpcc_payment_moves_money() {
        let mut e = ExecutionEngine::new(ExecConfig::default());
        let pay = Transaction {
            id: TxId::new(ClientId(1), 0),
            op: TxOp::TpccPayment { warehouse: 1, district: 1, customer: 42, amount_cents: 500 },
        };
        e.execute_committed(BlockId::test(1), &[pay]);
        assert_eq!(e.committed().get(tpcc::warehouse_ytd(1)), Some(500));
        assert_eq!(e.committed().get(tpcc::district_ytd(1, 1)), Some(500));
        assert_eq!(e.committed().get(tpcc::customer_payments(1, 1, 42)), Some(1));
        assert_eq!(
            e.committed().get(tpcc::customer_balance(1, 1, 42)),
            Some(0u64.wrapping_sub(500))
        );
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
        let root = e.committed().state_root();
        let d = e.execute_committed(BlockId::test(1), &[]);
        assert_eq!(e.digest_of(BlockId::test(1)), Some(d));
        assert_eq!(e.committed().state_root(), root, "an empty block writes nothing");
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

    #[test]
    fn restore_committed_reproduces_state_root() {
        let batch = txs(10);
        let mut live = ExecutionEngine::new(ExecConfig::default());
        live.execute_committed(BlockId::test(1), &batch);
        let snapshot =
            KvStore::from_parts(live.committed().record_count(), live.committed().materialized());

        let mut recovered = ExecutionEngine::new(ExecConfig::default());
        recovered.restore_committed(snapshot);
        assert_eq!(recovered.committed().state_root(), live.committed().state_root());
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
        let pristine_root = e.committed().state_root();

        // Execute speculatively, then roll the block back.
        let d1 = e.execute_speculative(BlockId::test(1), &batch);
        assert_eq!(
            e.committed().state_root(),
            pristine_root,
            "speculation must not touch committed state"
        );
        assert_eq!(e.rollback_conflicting(&[]), 1);
        assert_eq!(
            e.committed().state_root(),
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
            e.committed().state_root(),
            direct.committed().state_root(),
            "rollback + re-execute converges to the directly-committed state root"
        );
    }
}
