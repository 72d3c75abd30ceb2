//! Workload generators for the HotStuff-1 evaluation (§7 "Workloads"):
//!
//! * [`YcsbGen`] — YCSB-style key-value writes over 600k records with
//!   a Zipfian key chooser (`zipf::Zipfian`, the YCSB reference
//!   algorithm).
//! * [`TpccGen`] — TPC-C NewOrder/Payment mix at the standard
//!   45/43 ratio (normalized to the two transactions the executor
//!   implements).
//!
//! Generators are deterministic functions of their seed, so a simulation
//! seed pins the entire workload.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod tpcc_gen;
mod ycsb;
mod zipf;

pub use tpcc_gen::TpccGen;
pub use ycsb::YcsbGen;

use hs1_types::{ClientId, Transaction};

/// A source of client transactions. `next_tx` issues the `seq`-th
/// transaction of `client`.
pub trait Workload {
    fn next_tx(&mut self, client: ClientId, seq: u64) -> Transaction;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}
