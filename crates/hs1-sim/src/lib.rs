//! Deterministic discrete-event cluster simulator.
//!
//! This crate replaces the paper's AWS c3.4xlarge testbed (DESIGN.md
//! substitution #1). The three resources that shape the paper's numbers
//! are modeled explicitly:
//!
//! * **link latency** — a per-pair one-way latency matrix derived from the
//!   replicas' region placement ([`regions`]), plus per-replica injected
//!   delays (Fig. 9 experiments);
//! * **NIC bandwidth** — every outbound message serializes through the
//!   sender's NIC at a configured rate, so a leader broadcasting a batch
//!   to `n − 1` peers pays O(n) transmission time (the O(n) throughput
//!   decay of Fig. 8a);
//! * **CPU** — signature verification, per-transaction hashing and
//!   execution occupy the receiving replica's CPU in FIFO order (the
//!   batch-size saturation of Fig. 8c).
//!
//! Clients are modeled in aggregate by `oracle::ClientOracle`: replica
//! execution events (speculative or committed) are turned into response
//! arrival times at the clients, and finality is determined exactly per
//! the paper's quorum rules (`n − f` matching speculative responses for
//! HotStuff-1, `f + 1` committed responses for the baselines).
//!
//! The [`chaos`] module layers seeded fault schedules on top — per-link
//! message loss/duplication/reordering, partitions, and crash-restart
//! through the `hs1-statesync` node shell a TCP node runs (journal
//! recovery, then state sync) — with every run
//! replayable byte-for-byte from its seed (see the `hs1-chaos` crate for
//! the sweep/shrink/replay tooling and the README "Chaos harness"
//! section for the workflow).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod chaos;
mod cost;
mod net;
mod openloop;
mod oracle;
pub mod regions;
mod runner;
mod scenario;

pub use chaos::{ChaosConfig, ChaosEvent, ChaosEventKind, ChaosPlan, LinkAxis};
pub use cost::DiskModel;
pub use hs1_adversary::AdversaryStrategy;
pub use hs1_types::ProtocolKind;
pub use openloop::{ArrivalKind, OpenLoop};
pub use scenario::{Report, Scenario, WorkloadKind};
