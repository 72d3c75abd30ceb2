//! Execution substrate: the global-ledger / local-ledger pair of
//! HotStuff-1 (§3 "Rollback", §4.2 "Conflict Resolution").
//!
//! * `kv` — a sparse deterministic key-value store. The paper's YCSB
//!   table (600k records) and TPC-C database (260k records) are
//!   represented *logically*: a read of a never-written key returns a
//!   value derived deterministically from the key, which is
//!   indistinguishable from pre-loading while costing no memory.
//! * `spec` — the local-ledger: the committed store plus at most one
//!   speculated block's write set. Rollback drops the speculated block
//!   (Definition 4.7); a commit promotes it or drops it.
//! * `exec` — [`ExecutionEngine`]: deterministic, sequential transaction
//!   execution (YCSB + TPC-C ops) over the local-ledger, producing
//!   per-block result digests that clients match quorums on.
//! * [`tpcc`] — TPC-C table encoding and operation semantics.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod exec;
mod kv;
mod spec;
pub mod tpcc;

pub use exec::{ExecConfig, ExecutionEngine};
pub use kv::{state_root, KvStore};
