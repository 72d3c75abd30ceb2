//! Durable storage for HotStuff-1 replicas: write-ahead journal, ledger
//! checkpoints, and crash recovery (paper §4.2 "Recovery Mechanism").
//!
//! HotStuff-1 executes blocks *speculatively* before commit, which makes
//! durability subtle: a restarting replica must never treat a
//! speculated-but-rolled-back prefix as final, yet must recover its
//! pacemaker view, prepared certificate, and committed ledger to rejoin
//! safely. This crate provides exactly that, std-only:
//!
//! * `frame` — the one length + CRC32 frame journal records and
//!   checkpoint files are written in and read back through.
//! * `journal` — [`Journal`], an append-only segmented WAL of framed
//!   records ([`JournalRecord`], encoded with the `hs1-types` wire
//!   codec), fsync batching, and segment rotation.
//! * `image` — [`LedgerImage`]: a committed store as key-sorted entries
//!   plus the committed chain, with one validating decoder. A checkpoint
//!   file holds one, and state sync serves its bytes.
//! * `checkpoint` — [`Checkpoint`]: a ledger image at a consensus
//!   position; journal segments behind a durable checkpoint are
//!   truncated.
//! * `recovery` — replays checkpoint → journal, validating CRCs and
//!   truncating torn tails, and re-derives the speculation live at crash
//!   time as *speculation* (never as committed state).
//! * `replica_store` — [`ReplicaStorage`], the
//!   [`hs1_core::Persistence`] implementation a durable replica installs.
//! * `disk` — [`Disk`], the only way the above reach files: the host's
//!   file system, or a disk in memory for the simulator's crash-restarts.
//!
//! Wiring (see `hs1-net`'s node runner and the `crash_recovery` example):
//!
//! ```no_run
//! use hs1_storage::{Disk, ReplicaStorage, StorageConfig};
//! # let mut engine = hs1_core::build_replica(
//! #     hs1_types::ProtocolKind::HotStuff1,
//! #     hs1_types::SystemConfig::new(4),
//! #     hs1_types::ReplicaId(0),
//! #     hs1_core::Fault::Honest,
//! #     hs1_ledger::ExecConfig::default(),
//! # );
//! let (state, storage) =
//!     ReplicaStorage::open(&Disk::default(), "replica-0.wal", StorageConfig::default())?;
//! engine.restore(state);                       // replay first...
//! engine.set_persistence(Box::new(storage));   // ...then go durable
//! # Ok::<(), hs1_storage::StorageError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod checkpoint;
mod crc32;
mod disk;
mod frame;
mod image;
mod journal;
mod record;
mod recovery;
mod replica_store;
pub mod testutil;

pub use checkpoint::Checkpoint;
pub use crc32::crc32;
pub use disk::Disk;
pub use image::LedgerImage;
pub use journal::{Journal, JournalConfig, Replay, SyncPolicy, SEGMENT_MAGIC};
pub use record::JournalRecord;
pub use recovery::{recover, RecoveryInfo};
pub use replica_store::{ReplicaStorage, StorageConfig};

use hs1_types::codec::CodecError;

/// Storage failure.
#[derive(Debug)]
pub enum StorageError {
    Io(std::io::Error),
    Codec(CodecError),
    /// Integrity violation outside the recoverable torn-tail case.
    Corrupt {
        file: String,
        offset: u64,
        detail: &'static str,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Codec(e) => write!(f, "storage codec error: {e}"),
            StorageError::Corrupt { file, offset, detail } => {
                write!(f, "corrupt storage file {file} at offset {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<CodecError> for StorageError {
    fn from(e: CodecError) -> Self {
        StorageError::Codec(e)
    }
}
