//! Snapshot state transfer: O(state) catch-up for lagging and fresh
//! replicas (paper §4.2, extended past the local disk).
//!
//! `hs1-storage` recovery ends at the replica's own journal; a replica
//! whose committed chain has fallen far behind a live cluster — or that
//! starts on an empty disk — would otherwise crawl the gap one
//! `FetchBlock` round trip (and one re-execution) per block: O(history)
//! work that grows every run. This crate transfers a verified *snapshot
//! image* instead, so rejoining costs O(state) regardless of chain
//! length, and only the short residual suffix is replayed through the
//! ordinary fetch path.
//!
//! * `server` — [`SnapshotServer`]: serves the newest `hs1-storage`
//!   checkpoint's [`hs1_storage::LedgerImage`] — its bytes as they sit
//!   in the checkpoint file, between the consensus position and the
//!   state root — as a manifest (one CRC32 per fixed-size chunk) and
//!   chunks. Honest peers whose checkpoints cover one chain position
//!   serve byte-identical payloads, which the agreement rule below and
//!   cross-peer resumption rest on.
//! * `client` — [`SyncClient`]: the requesting state machine. It decodes
//!   the assembled payload with the image's one validating decoder, which
//!   recomputes the state root, and installs the verified image as the
//!   replica's checkpoint (`ReplicaStorage::install_snapshot`).
//! * [`NodeShell`] — an engine with its storage, snapshot serving, state
//!   sync and timer filter, stepped by the TCP node and the simulator
//!   alike: the one place a `SyncClient` is driven.
//!
//! ## Trust model
//!
//! Blocks do not embed state commitments, so a state root cannot be
//! checked against a certificate chain alone; a single peer could serve a
//! perfectly self-consistent image of a state that never existed. The
//! joiner therefore applies the classic BFT read rule (PBFT's stable
//! checkpoint argument): it downloads nothing until **`f + 1` distinct
//! peers advertise byte-identical snapshot identities**
//! ([`hs1_types::message::SnapshotManifestMsg::state_key`]). With at most
//! `f` Byzantine replicas, at least one honest peer stands behind any
//! such root. After that, every chunk is CRC-checked against the agreed
//! manifest and the assembled image's recomputed `state_root` must equal
//! the agreed root — a corrupt or lying chunk is rejected and the
//! download restarts against a different peer of the agreement group.
//! Consensus-position hints (`view`, `high_cert`) are *not* covered by
//! agreement; the client adopts only a certificate that verifies against
//! the deployment registry, and derives the re-entry view from it.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod client;
mod server;
mod shell;

pub use client::{SyncClient, SyncConfig, SyncPhase, SyncStats, SYNC_TICK};
pub use server::SnapshotServer;
pub use shell::{NodeShell, SYNC_TIMER};
