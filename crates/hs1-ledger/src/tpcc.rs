//! TPC-C table substrate.
//!
//! The paper evaluates TPC-C as "OLTP operations that access a database of
//! 260k records, simulating a complex warehouse and order management
//! environment" (§7, Workloads). This module maps the TPC-C tables used by
//! the NewOrder and Payment transactions onto the shared `u64 → u64` store
//! by packing (table, warehouse, district, customer/item) coordinates into
//! key space. All arithmetic is integer (cents), so execution is exactly
//! deterministic across replicas.

use crate::kv::Key;

/// Table tags occupy the top byte of the key space, keeping TPC-C rows
/// disjoint from YCSB records (which live at small keys).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub(crate) enum Table {
    /// Warehouse YTD balance, keyed by warehouse.
    WarehouseYtd = 1,
    /// District YTD balance, keyed by (warehouse, district).
    DistrictYtd = 2,
    /// District next-order-id counter, keyed by (warehouse, district).
    DistrictNextOid = 3,
    /// Customer balance in cents, keyed by (warehouse, district, customer).
    CustomerBalance = 4,
    /// Customer payment count, keyed by (warehouse, district, customer).
    CustomerPayments = 5,
    /// Stock quantity, keyed by (warehouse, item).
    StockQty = 6,
    /// Order line record, keyed by (warehouse, district, order, line).
    OrderLine = 7,
}

/// Standard TPC-C cardinalities (scaled by warehouse count).
pub const DISTRICTS_PER_WAREHOUSE: u16 = 10;
pub const CUSTOMERS_PER_DISTRICT: u16 = 3000;
pub(crate) const ITEMS: u32 = 100_000;

/// Pack a table coordinate into the shared key space.
pub(crate) fn pack(table: Table, warehouse: u16, district: u8, entity: u32, line: u8) -> Key {
    ((table as u64) << 56)
        | ((warehouse as u64) << 40)
        | ((district as u64) << 32)
        | ((entity as u64) << 8)
        | line as u64
}

pub(crate) fn warehouse_ytd(w: u16) -> Key {
    pack(Table::WarehouseYtd, w, 0, 0, 0)
}

pub(crate) fn district_ytd(w: u16, d: u8) -> Key {
    pack(Table::DistrictYtd, w, d, 0, 0)
}

pub(crate) fn district_next_oid(w: u16, d: u8) -> Key {
    pack(Table::DistrictNextOid, w, d, 0, 0)
}

pub(crate) fn customer_balance(w: u16, d: u8, c: u16) -> Key {
    pack(Table::CustomerBalance, w, d, c as u32, 0)
}

pub(crate) fn customer_payments(w: u16, d: u8, c: u16) -> Key {
    pack(Table::CustomerPayments, w, d, c as u32, 0)
}

pub(crate) fn stock_qty(w: u16, item: u32) -> Key {
    pack(Table::StockQty, w, 0, item, 0)
}

pub(crate) fn order_line(w: u16, d: u8, oid: u32, line: u8) -> Key {
    pack(Table::OrderLine, w, d, oid, line)
}

/// Deterministically pick an item id from a seed and line number (uniform
/// over the item table; the workload generator imposes its own skew).
pub(crate) fn item_for(seed: u64, line: u8) -> u32 {
    let mut z = seed.wrapping_add(line as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (z % ITEMS as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_disjoint_across_tables() {
        let keys = [
            warehouse_ytd(1),
            district_ytd(1, 1),
            district_next_oid(1, 1),
            customer_balance(1, 1, 1),
            customer_payments(1, 1, 1),
            stock_qty(1, 1),
            order_line(1, 1, 1, 1),
        ];
        let distinct: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len());
    }

    #[test]
    fn keys_are_disjoint_across_coordinates() {
        assert_ne!(customer_balance(1, 2, 3), customer_balance(1, 3, 2));
        assert_ne!(stock_qty(1, 5), stock_qty(2, 5));
        assert_ne!(order_line(1, 1, 10, 1), order_line(1, 1, 10, 2));
    }

    #[test]
    fn tpcc_keys_clear_of_ycsb_range() {
        // YCSB keys are < 600_000; every TPC-C key has a table tag in the
        // top byte.
        assert!(warehouse_ytd(0) > 10_000_000);
        assert!(order_line(0, 0, 0, 0) > 10_000_000);
    }

    #[test]
    fn item_picker_in_range_and_deterministic() {
        for seed in 0..100u64 {
            for line in 0..10u8 {
                let i = item_for(seed, line);
                assert!(i < ITEMS);
                assert_eq!(i, item_for(seed, line));
            }
        }
    }
}
