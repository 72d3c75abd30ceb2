//! Transactions. Kept `Copy` and fixed-size (~32 bytes) so that blocks of
//! thousands of transactions stay cheap to clone/share inside the
//! simulator; the *wire* cost of a transaction is modeled separately by the
//! network cost model.

use crate::ids::ClientId;

/// Transaction identifier: issuing client plus a per-client sequence
/// number. Globally unique because clients are unique.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TxId {
    pub client: ClientId,
    pub seq: u64,
}

impl TxId {
    pub fn new(client: ClientId, seq: u64) -> TxId {
        TxId { client, seq }
    }
}

/// The operation a transaction performs. YCSB operations target the KV
/// executor; TPC-C operations target the warehouse executor. `seed`
/// parameters deterministically expand into full payloads at execution
/// time, so storing a transaction costs a few words regardless of the
/// modeled payload size.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxOp {
    /// YCSB-style write of a derived value to `key`.
    KvWrite { key: u64, seed: u64 },
    /// YCSB-style read of `key` (result folded into the reply digest).
    KvRead { key: u64 },
    /// TPC-C NewOrder: order `lines` items for a customer.
    TpccNewOrder { warehouse: u16, district: u8, customer: u16, lines: u8, seed: u64 },
    /// TPC-C Payment: pay `amount_cents` on a customer account.
    TpccPayment { warehouse: u16, district: u8, customer: u16, amount_cents: u32 },
    /// No-op (used by empty filler blocks in tests).
    Noop,
}

/// A client transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Transaction {
    pub id: TxId,
    pub op: TxOp,
}

impl Transaction {
    pub fn new(id: TxId, op: TxOp) -> Transaction {
        Transaction { id, op }
    }

    /// Convenience constructor for tests.
    pub fn kv_write(client: u32, seq: u64, key: u64, seed: u64) -> Transaction {
        Transaction { id: TxId::new(ClientId(client), seq), op: TxOp::KvWrite { key, seed } }
    }

    /// The modeled wire size of this transaction in bytes (id + op header +
    /// the payload the paper's YCSB/TPC-C transactions would carry). Used
    /// by the simulator's bandwidth model, not by the in-memory codec.
    pub(crate) fn modeled_wire_size(&self) -> usize {
        match self.op {
            // key + 100-byte YCSB field (the paper uses YCSB write ops).
            TxOp::KvWrite { .. } => 12 + 8 + 100,
            TxOp::KvRead { .. } => 12 + 8,
            // NewOrder carries ~`lines` order lines of ~8 bytes plus ids.
            TxOp::TpccNewOrder { lines, .. } => 12 + 16 + lines as usize * 8,
            TxOp::TpccPayment { .. } => 12 + 16,
            TxOp::Noop => 12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txid_ordering_groups_by_client() {
        let a = TxId::new(ClientId(1), 5);
        let b = TxId::new(ClientId(1), 6);
        let c = TxId::new(ClientId(2), 0);
        assert!(a < b && b < c);
    }

    #[test]
    fn tx_is_small() {
        // The simulator shares blocks via Arc; a compact Transaction keeps
        // blocks of 10k transactions in the hundreds of KB.
        assert!(std::mem::size_of::<Transaction>() <= 40);
    }

    #[test]
    fn wire_sizes() {
        let w = Transaction::kv_write(1, 1, 42, 7);
        assert_eq!(w.modeled_wire_size(), 120);
        let no = Transaction::new(
            TxId::new(ClientId(0), 0),
            TxOp::TpccNewOrder { warehouse: 1, district: 2, customer: 3, lines: 10, seed: 1 },
        );
        assert_eq!(no.modeled_wire_size(), 12 + 16 + 80);
    }
}
