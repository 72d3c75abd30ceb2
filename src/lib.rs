//! # hotstuff1 — facade crate
//!
//! Re-exports the public API of the HotStuff-1 reproduction workspace.
//! See the individual crates for details:
//!
//! * [`crypto`] — SHA-256 / HMAC / keyed signatures ([`hs1_crypto`])
//! * [`types`] — blocks, certificates, messages, wire codec ([`hs1_types`])
//! * [`ledger`] — execution substrate with speculative rollback ([`hs1_ledger`])
//! * [`workloads`] — YCSB and TPC-C generators ([`hs1_workloads`])
//! * [`consensus`] — the protocol engines ([`hs1_core`])
//! * [`adversary`] — backup-side Byzantine strategies as a message-mutation
//!   layer over any engine ([`hs1_adversary`])
//! * [`obs`] — deterministic tracing + metrics observer layer ([`hs1_obs`])
//! * [`storage`] — durable journal, checkpoints, crash recovery ([`hs1_storage`])
//! * [`statesync`] — snapshot state transfer for fast catch-up ([`hs1_statesync`])
//! * [`sim`] — deterministic discrete-event simulator, including the
//!   seeded chaos subsystem, its seed sweep, shrinker and replay, and the
//!   paper's figures ([`hs1_sim`], [`hs1_sim::chaos`], [`hs1_sim::sweep`],
//!   [`hs1_sim::figures`])
//! * [`net`] — real TCP transport ([`hs1_net`])
//!
//! ## Quickstart
//!
//! Run a 4-replica streamlined HotStuff-1 deployment under the simulator:
//!
//! ```
//! use hotstuff1::sim::{Scenario, ProtocolKind};
//!
//! let report = Scenario::new(ProtocolKind::HotStuff1)
//!     .replicas(4)
//!     .batch_size(16)
//!     .clients(64)
//!     .sim_seconds(1.0)
//!     .run();
//! assert!(report.committed_txs > 0);
//! assert!(report.invariants_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub use hs1_adversary as adversary;
pub use hs1_core as consensus;
pub use hs1_crypto as crypto;
pub use hs1_ledger as ledger;
pub use hs1_net as net;
pub use hs1_obs as obs;
pub use hs1_sim as sim;
pub use hs1_statesync as statesync;
pub use hs1_storage as storage;
pub use hs1_types as types;
pub use hs1_workloads as workloads;
