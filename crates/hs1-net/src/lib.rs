//! Real TCP transport: run the same engines multi-process on a LAN or
//! localhost. Unix only: everything rides on `poll(2)`.
//!
//! The threading model is **one thread per replica**. A running
//! [`node::NodeRunner`] reads its sockets, steps its engine and writes
//! the answers on one loop. Only a bare [`mesh::Mesh`] — one that no
//! node is running — keeps a background `reactor-N` thread, because
//! somebody has to move its bytes.
//!
//! * [`framing`] — length-prefixed frames with an identification
//!   handshake: blocking helpers for the client driver plus the
//!   nonblocking building blocks ([`framing::FrameQueue`] writev
//!   coalescing, [`framing::FrameReader`] incremental reassembly) used
//!   by the reactor.
//! * [`mesh`] — the peer mesh behind one stable API, over a
//!   readiness-driven reactor (nonblocking sockets + `poll(2)`, writev
//!   coalescing, bounded per-peer queues that shed oldest-first under
//!   backpressure, jittered-exponential reconnect).
//! * [`poll`] — the minimal std-only `poll(2)` wrapper and cross-thread
//!   waker the reactor runs on.
//! * [`node`] — [`node::NodeRunner`]: hosts a [`hs1_core::Replica`] behind
//!   the mesh and turns the mesh's reactor on its own loop, maps
//!   wall-clock time onto the engine's virtual clock, fires timers, and
//!   fans `Executed` actions out as per-transaction
//!   [`hs1_types::message::ResponseMsg`]s to connected clients. With
//!   [`node::NodeRunner::with_storage`] the node recovers from an
//!   `hs1-storage` journal before joining and journals durably while
//!   running (see `examples/crash_recovery.rs`); durable nodes also serve
//!   `hs1-statesync` snapshots, and [`node::NodeRunner::with_state_sync`]
//!   makes a lagging or fresh replica pull a verified snapshot before
//!   joining consensus (see `examples/state_sync.rs`).
//! * [`client_driver`] — a closed-loop client: broadcasts requests to all
//!   replicas and applies the paper's finality rules via
//!   [`hs1_core::client::FinalityTracker`]; reconnects with backoff when
//!   a replica restarts mid-session.
//! * [`http`] — a std-only HTTP/1.0 introspection responder built
//!   on the same [`poll`] primitives: `GET /metrics` serves Prometheus
//!   text, `GET /status` a live JSON summary of the hosted node. Wired
//!   into a running node by [`node::NodeRunner::serve_introspection`].
//!
//! Binaries `hs1-replica` and `hs1-client` (see `src/bin/`) wire these
//! into runnable processes; `examples/local_cluster_tcp.rs` runs a full
//! deployment inside one process.

#[cfg(not(unix))]
compile_error!("hs1-net is unix-only: its transport is built on poll(2)");

pub mod client_driver;
pub mod framing;
pub mod http;
pub mod mesh;
pub mod node;
pub mod poll;
mod reactor;

/// Default base port; replica `i` listens on `base + i`.
pub const DEFAULT_BASE_PORT: u16 = 42000;
