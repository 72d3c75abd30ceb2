//! Execution substrate: the global-ledger / local-ledger pair of
//! HotStuff-1 (§3 "Rollback", §4.2 "Conflict Resolution").
//!
//! * [`kv`] — a sparse deterministic key-value store. The paper's YCSB
//!   table (600k records) and TPC-C database (260k records) are
//!   represented *logically*: a read of a never-written key returns a
//!   value derived deterministically from the key, which is
//!   indistinguishable from pre-loading while costing no memory.
//! * [`spec`] — [`spec::SpeculativeStore`]: a committed base store plus an
//!   ordered stack of per-block write overlays (the local-ledger).
//!   Rollback pops overlays down to the common ancestor (Definition 4.7).
//! * [`exec`] — [`exec::ExecutionEngine`]: deterministic, sequential
//!   transaction execution (YCSB + TPC-C ops) producing per-block result
//!   digests that clients match quorums on.
//! * [`tpcc`] — TPC-C table encoding and operation semantics.

pub mod exec;
pub mod kv;
pub mod spec;
pub mod tpcc;

pub use exec::{ExecConfig, ExecutionEngine};
pub use kv::KvStore;
pub use spec::SpeculativeStore;
