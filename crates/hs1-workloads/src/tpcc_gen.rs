//! TPC-C workload generator: NewOrder/Payment mix.
//!
//! The standard TPC-C mix is 45% NewOrder / 43% Payment / 12% read-only
//! transactions; normalized to the two read-write transactions the
//! executor implements, that is ~51% NewOrder / 49% Payment.

use crate::Workload;
use hs1_ledger::tpcc::{CUSTOMERS_PER_DISTRICT, DISTRICTS_PER_WAREHOUSE};
use hs1_types::{ClientId, SplitMix64, Transaction, TxId, TxOp};

#[derive(Clone, Debug)]
pub struct TpccGen {
    warehouses: u16,
    rng: SplitMix64,
    neworder_fraction: f64,
}

impl TpccGen {
    /// 4 warehouses ≈ the paper's 260k-record database.
    pub fn paper_default(seed: u64) -> TpccGen {
        TpccGen::new(4, seed)
    }

    pub(crate) fn new(warehouses: u16, seed: u64) -> TpccGen {
        assert!(warehouses > 0);
        TpccGen {
            warehouses,
            rng: SplitMix64::new(seed ^ 0x5450_4343), // "TPCC"
            neworder_fraction: 0.51,
        }
    }
}

impl Workload for TpccGen {
    fn next_tx(&mut self, client: ClientId, seq: u64) -> Transaction {
        let warehouse = self.rng.next_range(self.warehouses as u64) as u16;
        let district = self.rng.next_range(DISTRICTS_PER_WAREHOUSE as u64) as u8;
        let customer = self.rng.next_range(CUSTOMERS_PER_DISTRICT as u64) as u16;
        let op = if self.rng.chance(self.neworder_fraction) {
            // ol_cnt uniform in 5..=15 per the TPC-C spec.
            let lines = 5 + self.rng.next_range(11) as u8;
            TxOp::TpccNewOrder { warehouse, district, customer, lines, seed: self.rng.next_u64() }
        } else {
            // Payment amount uniform in $1.00..$5000.00 per the spec.
            let amount_cents = 100 + self.rng.next_range(499_901) as u32;
            TxOp::TpccPayment { warehouse, district, customer, amount_cents }
        };
        Transaction::new(TxId::new(client, seq), op)
    }

    fn name(&self) -> &'static str {
        "TPC-C"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_ratio() {
        let mut g = TpccGen::paper_default(5);
        let mut neworders = 0;
        let mut payments = 0;
        for seq in 0..10_000 {
            match g.next_tx(ClientId(0), seq).op {
                TxOp::TpccNewOrder { .. } => neworders += 1,
                TxOp::TpccPayment { .. } => payments += 1,
                other => panic!("unexpected op {other:?}"),
            }
        }
        let frac = neworders as f64 / (neworders + payments) as f64;
        assert!((0.46..0.56).contains(&frac), "neworder fraction {frac}");
    }

    #[test]
    fn coordinates_in_range() {
        let mut g = TpccGen::new(8, 2);
        for seq in 0..5000 {
            match g.next_tx(ClientId(1), seq).op {
                TxOp::TpccNewOrder { warehouse, district, customer, lines, .. } => {
                    assert!(warehouse < 8);
                    assert!(district < DISTRICTS_PER_WAREHOUSE as u8);
                    assert!(customer < CUSTOMERS_PER_DISTRICT);
                    assert!((5..=15).contains(&lines));
                }
                TxOp::TpccPayment { warehouse, district, customer, amount_cents } => {
                    assert!(warehouse < 8);
                    assert!(district < DISTRICTS_PER_WAREHOUSE as u8);
                    assert!(customer < CUSTOMERS_PER_DISTRICT);
                    assert!((100..=500_000).contains(&amount_cents));
                }
                other => panic!("unexpected op {other:?}"),
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = TpccGen::paper_default(9);
        let mut b = TpccGen::paper_default(9);
        for seq in 0..50 {
            assert_eq!(a.next_tx(ClientId(3), seq), b.next_tx(ClientId(3), seq));
        }
    }
}
