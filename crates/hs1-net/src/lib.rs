//! Real TCP transport: run the same engines multi-process on a LAN or
//! localhost. Linux only: the reactor waits on `epoll(7)`.
//!
//! The threading model is **one thread per replica**, and the transport
//! has no thread of its own. A running [`node::NodeRunner`] reads its
//! sockets, steps its engine and writes the answers on one loop. A bare
//! [`mesh::Mesh`] — one that no node is running, a client's among them —
//! moves its bytes on the thread that calls it: each send takes one turn
//! that does not wait, and waiting on [`mesh::Inbox::recv_timeout`] takes
//! turns until a frame arrives.
//!
//! * [`framing`] — length-prefixed frames with an identification
//!   handshake, and the nonblocking building blocks the reactor moves
//!   them with (`framing::FrameQueue` writev coalescing,
//!   [`framing::FrameReader`] incremental reassembly).
//! * [`mesh`] — the peer mesh behind one stable API, over a
//!   readiness-driven reactor (nonblocking sockets in a level-triggered
//!   `epoll(7)` interest set kept between turns, writev coalescing,
//!   bounded per-peer queues that shed oldest-first under backpressure,
//!   jittered-exponential reconnect).
//! * [`poll`] — the minimal std-only readiness primitives: the reactor's
//!   `epoll(7)` wrapper, and a `poll(2)` wrapper and cross-thread waker
//!   for callers that wait on a few sockets once. The only module allowed
//!   `unsafe` code (FFI onto libc symbols `std` already links).
//! * [`node`] — [`node::NodeRunner`]: hosts a [`hs1_core::Replica`],
//!   inside the `hs1-statesync` node shell the simulator steps too,
//!   behind the mesh. It turns the mesh's reactor on its own loop, maps
//!   wall-clock time onto the shell's virtual clock, fires timers, and
//!   fans `Executed` actions out as per-transaction
//!   [`hs1_types::message::ResponseMsg`]s to connected clients; the shell
//!   does the rest. With [`node::NodeRunner::with_storage`] the node
//!   recovers from an `hs1-storage` journal before joining and journals
//!   durably while running (see `examples/crash_recovery.rs`); durable
//!   nodes also serve `hs1-statesync` snapshots, and
//!   [`node::NodeRunner::with_state_sync`] makes a lagging or fresh
//!   replica pull a verified snapshot before its engine starts (see
//!   `examples/state_sync.rs`).
//! * [`client_driver`] — a client over a client mesh
//!   (`mesh::Mesh::client`, one that binds no listener), in a closed
//!   loop (the latency probe) or an open one (the saturation probe):
//!   broadcasts requests to all replicas and applies the paper's
//!   finality rules via [`hs1_core::client::FinalityTracker`]. A replica
//!   that restarts mid-session is redialed by the reactor's own backoff.
//! * `http` — a std-only HTTP/1.0 introspection responder built
//!   on the same [`poll`] primitives: `GET /metrics` serves Prometheus
//!   text, `GET /status` a live JSON summary of the hosted node. Wired
//!   into a running node by [`node::NodeRunner::serve_introspection_with`].
//!
//! Binaries `hs1-replica` and `hs1-client` (see `src/bin/`) wire these
//! into runnable processes; `examples/local_cluster_tcp.rs` runs a full
//! deployment inside one process.

#![deny(unsafe_code)]
#![warn(unreachable_pub)]

#[cfg(not(target_os = "linux"))]
compile_error!("hs1-net is Linux-only: its reactor waits on epoll(7)");

pub mod client_driver;
pub mod framing;
mod http;
pub mod mesh;
pub mod node;
#[allow(unsafe_code)]
pub mod poll;
mod reactor;
#[cfg(test)]
mod test_ports;

/// Default base port; replica `i` listens on `base + i`.
pub const DEFAULT_BASE_PORT: u16 = 42000;
