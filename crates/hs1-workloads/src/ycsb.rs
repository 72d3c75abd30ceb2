//! YCSB workload: "key-value store write operations that access a database
//! of 600k records" (§7, Workloads), with the standard Zipfian key chooser.

use crate::zipf::Zipfian;
use crate::Workload;
use hs1_types::{ClientId, SplitMix64, Transaction, TxId, TxOp};

/// YCSB write-only generator (the paper's configuration).
#[derive(Clone, Debug)]
pub struct YcsbGen {
    records: u64,
    zipf: Zipfian,
    rng: SplitMix64,
    /// Fraction of reads (0.0 = paper's write-only configuration).
    read_fraction: f64,
}

impl YcsbGen {
    pub const PAPER_RECORDS: u64 = 600_000;

    /// The paper's configuration: 600k records, zipfian writes.
    pub fn paper_default(seed: u64) -> YcsbGen {
        YcsbGen::new(Self::PAPER_RECORDS, 0.99, 0.0, seed)
    }

    pub fn new(records: u64, theta: f64, read_fraction: f64, seed: u64) -> YcsbGen {
        YcsbGen {
            records,
            zipf: Zipfian::new(records, theta),
            rng: SplitMix64::new(seed ^ 0x5943_5342), // "YCSB"
            read_fraction,
        }
    }

    /// Scatter a zipfian rank across the key space so hot keys are not
    /// clustered at the low end (YCSB's fnv-hash scramble, simplified).
    fn scramble(&self, rank: u64) -> u64 {
        let mut z = rank.wrapping_mul(0xff51_afd7_ed55_8ccd);
        z ^= z >> 33;
        z % self.records
    }
}

impl Workload for YcsbGen {
    fn next_tx(&mut self, client: ClientId, seq: u64) -> Transaction {
        let rank = self.zipf.sample(&mut self.rng);
        let key = self.scramble(rank);
        let op = if self.read_fraction > 0.0 && self.rng.chance(self.read_fraction) {
            TxOp::KvRead { key }
        } else {
            TxOp::KvWrite { key, seed: self.rng.next_u64() }
        };
        Transaction::new(TxId::new(client, seq), op)
    }

    fn name(&self) -> &'static str {
        "YCSB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_write_only() {
        let mut g = YcsbGen::paper_default(7);
        for seq in 0..1000 {
            let tx = g.next_tx(ClientId(1), seq);
            assert!(matches!(tx.op, TxOp::KvWrite { .. }));
            assert_eq!(tx.id.seq, seq);
            match tx.op {
                TxOp::KvWrite { key, .. } => assert!(key < YcsbGen::PAPER_RECORDS),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn read_fraction_respected() {
        let mut g = YcsbGen::new(1000, 0.5, 0.5, 3);
        let reads = (0..2000)
            .filter(|&s| matches!(g.next_tx(ClientId(0), s).op, TxOp::KvRead { .. }))
            .count();
        assert!((800..1200).contains(&reads), "reads {reads}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = YcsbGen::paper_default(11);
        let mut b = YcsbGen::paper_default(11);
        for seq in 0..100 {
            assert_eq!(a.next_tx(ClientId(2), seq), b.next_tx(ClientId(2), seq));
        }
    }

    #[test]
    fn scramble_spreads_hot_keys() {
        let g = YcsbGen::paper_default(1);
        let k0 = g.scramble(0);
        let k1 = g.scramble(1);
        assert_ne!(k0, k1);
        assert!(k0.abs_diff(k1) > 1_000, "adjacent ranks land far apart");
    }
}
