//! Core data types shared by every crate of the HotStuff-1 reproduction.
//!
//! * `ids` — replica/client identifiers, [`View`], [`Slot`], and
//!   [`IdHash`], the hasher of maps keyed by ids a replica minted
//! * `time` — virtual clock types used by engines and the simulator
//! * `rng` — deterministic splitmix64 RNG (no external crates)
//! * `tx` — fixed-size transaction representation (YCSB / TPC-C ops)
//! * [`cert`] — certificates (quorums of signature shares) and timeout
//!   certificates; ordering and extension relations
//! * `block` — blocks, block ids, the hard-coded genesis
//! * `committed` — [`CommittedLog`], the committed chain as a replica
//!   keeps it: length, running hash, and a window of recent ids
//! * [`message`] — the complete wire message set of all five protocols
//! * [`codec`] — hand-rolled binary wire format ([`codec::Encode`] /
//!   [`codec::Decode`]), property-tested for roundtripping
//! * `config` — system configuration (`n`, `f`, timers, protocol choice)

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod block;
pub mod cert;
pub mod codec;
mod committed;
mod config;
mod ids;
pub mod message;
mod rng;
mod time;
mod tx;

pub use block::{Block, BlockId};
pub use cert::{CertKind, Certificate, TimeoutCert};
pub use codec::{Decode, Encode};
pub use committed::CommittedLog;
pub use config::{ProtocolKind, SystemConfig};
pub use ids::{ClientId, IdHash, Rank, ReplicaId, Slot, View};
pub use message::{Message, ReplyKind};
pub use rng::SplitMix64;
pub use time::{SimDuration, SimTime};
pub use tx::{Transaction, TxId, TxOp};
