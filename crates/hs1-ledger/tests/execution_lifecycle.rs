//! Property test: the speculation lifecycle never changes what a block
//! means.
//!
//! Random YCSB+TPC-C batches, with key ranges squeezed so conflicts are
//! *dense*, plus deliberately crafted conflict chains, go through the
//! full one-phase speculation lifecycle (speculate, roll back,
//! re-speculate, commit by promotion) on one engine and through the
//! committed-only path on another. Both must end at bit-identical block
//! digests and committed state root. One golden row pins those values
//! across refactors of the executor. Uses the in-repo SplitMix64 (no
//! external property-testing dependency).

use hs1_crypto::Digest;
use hs1_ledger::{ExecConfig, ExecutionEngine};
use hs1_types::TxId;
use hs1_types::{BlockId, ClientId, SplitMix64, Transaction, TxOp};

/// Large enough that every block re-reads and overwrites its own earlier
/// writes many times over the squeezed key ranges below.
const BATCH: usize = 600;

/// A random transaction biased toward conflicts: YCSB keys drawn from a
/// tiny range, TPC-C coordinates from 2 warehouses × 3 districts.
fn random_tx(rng: &mut SplitMix64, seq: u64) -> Transaction {
    let client = ClientId(1 + rng.next_range(4) as u32);
    let id = TxId::new(client, seq);
    let op = match rng.next_range(10) {
        0..=3 => TxOp::KvWrite { key: rng.next_range(48), seed: rng.next_u64() },
        4..=5 => TxOp::KvRead { key: rng.next_range(48) },
        6..=7 => TxOp::TpccNewOrder {
            warehouse: 1 + rng.next_range(2) as u16,
            district: rng.next_range(3) as u8,
            customer: rng.next_range(20) as u16,
            lines: 1 + rng.next_range(6) as u8,
            seed: rng.next_u64(),
        },
        8 => TxOp::TpccPayment {
            warehouse: 1 + rng.next_range(2) as u16,
            district: rng.next_range(3) as u8,
            customer: rng.next_range(20) as u16,
            amount_cents: 1 + rng.next_range(10_000) as u32,
        },
        _ => TxOp::Noop,
    };
    Transaction::new(id, op)
}

fn random_batch(rng: &mut SplitMix64, len: usize) -> Vec<Transaction> {
    (0..len as u64).map(|seq| random_tx(rng, seq)).collect()
}

/// Block digests in order, then the committed state root.
type Outcome = (Vec<Digest>, Digest);

/// Commit `blocks` directly, never speculating.
fn committed_path(blocks: &[Vec<Transaction>]) -> Outcome {
    let mut e = ExecutionEngine::new(ExecConfig::default());
    let digests = blocks
        .iter()
        .enumerate()
        .map(|(i, txs)| e.execute_committed(BlockId::test(i as u64 + 1), txs))
        .collect();
    (digests, e.committed().state_root())
}

/// Speculate, roll back, re-speculate, then promote by committing: the
/// full one-phase speculation lifecycle, per block.
fn lifecycle_path(blocks: &[Vec<Transaction>], label: &str) -> Outcome {
    let mut e = ExecutionEngine::new(ExecConfig::default());
    let mut digests = Vec::new();
    for (i, txs) in blocks.iter().enumerate() {
        let id = BlockId::test(i as u64 + 1);
        let d1 = e.execute_speculative(id, txs);
        // Roll the speculation back and re-derive it: the rollback path
        // must erase every effect.
        assert_eq!(e.rollback_conflicting(&[]), 1, "{label}: rollback");
        assert_eq!(e.digest_of(id), None, "{label}: stale digest");
        let d2 = e.execute_speculative(id, txs);
        assert_eq!(d1, d2, "{label}: re-execution diverged");
        // Promote into the committed base.
        let d3 = e.execute_committed(id, txs);
        assert_eq!(d1, d3, "{label}: promotion digest");
        digests.push(d3);
    }
    (digests, e.committed().state_root())
}

/// Both paths must end at the same digests and state root.
fn assert_paths_agree(blocks: &[Vec<Transaction>], label: &str) -> Outcome {
    let committed = committed_path(blocks);
    let lifecycle = lifecycle_path(blocks, label);
    assert_eq!(committed.0, lifecycle.0, "{label}: digest mismatch between paths");
    assert_eq!(committed.1, lifecycle.1, "{label}: state root mismatch between paths");
    committed
}

#[test]
fn random_mixed_batches_committed_path() {
    let mut rng = SplitMix64::new(0x009a_11e7);
    for case in 0..8 {
        let blocks: Vec<_> = (0..3).map(|_| random_batch(&mut rng, BATCH)).collect();
        let (digests, root) = assert_paths_agree(&blocks, &format!("mixed case {case}"));
        if case == 0 {
            // Golden row, generated at e16ad44 (the last commit with the
            // wave executor) at one worker: `apply_tx` means what it did.
            assert_eq!(
                digests[2].to_hex(),
                "06417c31af57fca857d30d207096cad7a69c229c3ae0c7bc9e95529d51ad3a8d"
            );
            assert_eq!(
                root.to_hex(),
                "00f51ec381732cef83ce853ee46ca5df7dfb5cc0e7a5574f54a31fa0596d56f8"
            );
        }
    }
}

#[test]
fn random_mixed_batches_speculative_path() {
    let mut rng = SplitMix64::new(0x00de_ad51);
    for case in 0..4 {
        let blocks: Vec<_> = (0..2).map(|_| random_batch(&mut rng, BATCH)).collect();
        assert_paths_agree(&blocks, &format!("speculative case {case}"));
    }
}

/// Every transaction hits one of three keys: each read must see the
/// latest earlier write of the same block, not the store's value.
#[test]
fn pathological_conflict_chain() {
    let mut rng = SplitMix64::new(7);
    let batch: Vec<_> = (0..BATCH as u64)
        .map(|seq| {
            let key = rng.next_range(3);
            if rng.chance(0.3) {
                Transaction { id: TxId::new(ClientId(1), seq), op: TxOp::KvRead { key } }
            } else {
                Transaction::kv_write(1, seq, key, rng.next_u64())
            }
        })
        .collect();
    assert_paths_agree(&[batch], "conflict chain");
}

/// Conflict-free distinct-key batch: no transaction reads another's write.
#[test]
fn conflict_free_batch() {
    let batch: Vec<_> =
        (0..BATCH as u64).map(|seq| Transaction::kv_write(1, seq, seq * 13, seq)).collect();
    assert_paths_agree(&[batch], "conflict-free");
}

/// TPC-C only: RMW chains through warehouse/district YTD counters plus
/// order-line inserts keyed by the order id the same block allocated.
#[test]
fn tpcc_only_batches() {
    let mut rng = SplitMix64::new(0x7bcc);
    for case in 0..4 {
        let batch: Vec<_> = (0..BATCH as u64)
            .map(|seq| {
                let warehouse = 1 + rng.next_range(2) as u16;
                let district = rng.next_range(4) as u8;
                let customer = rng.next_range(30) as u16;
                let op = if rng.chance(0.5) {
                    TxOp::TpccNewOrder {
                        warehouse,
                        district,
                        customer,
                        lines: 1 + rng.next_range(10) as u8,
                        seed: rng.next_u64(),
                    }
                } else {
                    TxOp::TpccPayment {
                        warehouse,
                        district,
                        customer,
                        amount_cents: 1 + rng.next_range(50_000) as u32,
                    }
                };
                Transaction::new(TxId::new(ClientId(2), seq), op)
            })
            .collect();
        assert_paths_agree(&[batch], &format!("tpcc case {case}"));
    }
}
