//! Consensus engines for the HotStuff-1 reproduction.
//!
//! Every protocol is a pure state machine implementing [`replica::Replica`]:
//! inputs are `on_init` / `on_message` / `on_timer` callbacks carrying a
//! virtual `now`, outputs are [`replica::Action`]s. The same engine code
//! runs under the deterministic simulator (`hs1-sim`) and the TCP runtime
//! (`hs1-net`).
//!
//! An engine is **one view driver plus one protocol policy**. The driver
//! (`driver.rs`, `Engine<P: Protocol>`) owns what the paper's protocols
//! share: the view lifecycle, pacemaker glue, NewView tallying scaffold,
//! crash checks, persistence and observer hooks — and what a replica
//! cannot use yet: a certificate whose body is missing (adopted, body
//! fetched), a proposal for a view it has left (stored, not acted on) and
//! the one queue of messages parked on a missing body.
//! Each policy file transcribes one pseudocode figure and supplies only
//! what that figure changes: the vote rule, where the vote goes, when to
//! speculate, the commit rule, and the protocol's own message kinds.
//! [`build_replica`] is the only place a `ProtocolKind` is mapped to a
//! policy.
//!
//! | file | contents | paper reference |
//! |---|---|---|
//! | `driver.rs` | the view driver every protocol runs on: view lifecycle, leader tally, certificate adoption, stale proposals, parked work | Fig. 2/4/7 common skeleton, Fig. 3 glue |
//! | `basic.rs` | policy: basic (two-phase) HotStuff-1 | §4, Fig. 2 |
//! | `chained.rs` | policy: streamlined HotStuff (3-chain), HotStuff-2 (2-chain), HotStuff-1 (2-chain + speculation); a leader with nothing to answer holds its proposal | §5, Fig. 4 |
//! | `slotted.rs` | policy: HotStuff-1 with adaptive slotting | §6, Figs. 6–7 |
//! | `shares.rs` | share tally: verify on insert, dedup per sender, certificate at quorum | §7 implementation note |
//! | `pacemaker` | epoch view synchronizer: a boundary reached on a vote is crossed at once, one reached on a timeout runs the Wish / TC round | §4.2.1, Fig. 3 |
//! | `byzantine` | fault strategies: slow leader, tail-forking, rollback/equivocation, crash, silence | §7.3 |
//! | [`client`] | client-side quorum matching (early finality confirmation) | §3, §4.1 |
//! | [`invariants`] | the safety oracles over what a runtime observes: per-height agreement, equal chains ⇒ equal roots, no orphaned final block; commits survive recovery | §3, App. B, §4.2 |
//! | `common.rs` | replica state below the driver: block store, the mempool, commit (with orphan return) and speculate paths | — |
//! | `runset.rs` | transaction-id set as per-client runs of sequence numbers: every dedup filter's memory | — |
//! | [`persist`] | durability hooks ([`persist::Persistence`]) and recovered-state handoff | §4.2 recovery |
//! | `tests/memory_budget.rs`, `tests/step_allocations.rs` | four engines on one minimal router (`tests/common`), under a counting allocator: the heap an engine holds after 10,000 views, and what its steps allocate per view (only what the view keeps) | — |

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod basic;
mod byzantine;
mod chained;
pub mod client;
mod common;
mod driver;
pub mod invariants;
mod pacemaker;
pub mod persist;
pub mod replica;
mod runset;
mod shares;
mod slotted;
pub mod testkit;

pub use byzantine::Fault;
pub use persist::{Persistence, RecoveredState};
pub use replica::{Action, PoolStats, Replica, Timer};

use driver::{Driver, Engine};
use hs1_ledger::ExecConfig;
use hs1_types::{ProtocolKind, ReplicaId, SystemConfig};

/// Construct the engine for `kind` at replica `id` with fault strategy
/// `fault`. The only place a [`ProtocolKind`] is mapped to a protocol
/// policy; the simulator and the TCP runtime both build replicas here.
pub fn build_replica(
    kind: ProtocolKind,
    cfg: SystemConfig,
    id: ReplicaId,
    fault: Fault,
    exec: ExecConfig,
) -> Box<dyn Replica> {
    let d = Driver::new(cfg, id, fault, exec);
    match kind {
        // (commit-rule depth, speculative)
        ProtocolKind::HotStuff => Box::new(Engine::new(d, chained::Chained::new(3, false))),
        ProtocolKind::HotStuff2 => Box::new(Engine::new(d, chained::Chained::new(2, false))),
        ProtocolKind::HotStuff1 => Box::new(Engine::new(d, chained::Chained::new(2, true))),
        ProtocolKind::HotStuff1Basic => Box::new(Engine::new(d, basic::Basic::default())),
        ProtocolKind::HotStuff1Slotted => Box::new(Engine::new(d, slotted::Slotted::new())),
    }
}
