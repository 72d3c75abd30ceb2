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
//! * [`image`] — [`image::SnapshotImage`]: the chunked, CRC-indexed wire
//!   form of a durable checkpoint (materialized KV entries + committed
//!   chain ids).
//! * [`server`] — [`server::SnapshotServer`]: serves manifests and chunks
//!   derived from the newest `hs1-storage` checkpoint.
//! * [`client`] — [`client::SyncClient`]: the requesting state machine.
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

pub mod client;
pub mod image;
pub mod server;

pub use client::{SyncClient, SyncConfig, SyncPhase, SyncStats, SyncedState, SYNC_TICK};
pub use image::{SnapshotImage, DEFAULT_CHUNK_BYTES};
pub use server::SnapshotServer;

use hs1_types::codec::CodecError;

/// State-sync failure (always recoverable by rotating peers or falling
/// back to per-block replay; nothing here is fail-stop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncError {
    /// The payload did not decode as a snapshot image.
    Codec(CodecError),
    /// The payload decoded but violated a structural invariant.
    Malformed(&'static str),
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::Codec(e) => write!(f, "snapshot payload codec error: {e}"),
            SyncError::Malformed(detail) => write!(f, "malformed snapshot image: {detail}"),
        }
    }
}

impl std::error::Error for SyncError {}

impl From<CodecError> for SyncError {
    fn from(e: CodecError) -> Self {
        SyncError::Codec(e)
    }
}
