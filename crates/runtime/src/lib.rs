//! # asynciter-runtime
//!
//! Real multi-threaded runtimes for asynchronous iterations — the
//! workspace's stand-in for the paper's Cray T3E / IBM SP4 / Grid5000
//! campaigns (README § "Architecture"):
//!
//! - [`shared`] — the lock-free shared iterate vector: one atomic
//!   value+label slot per component, single writer per component,
//!   wait-free relaxed readers (Hogwild-style inconsistent snapshots,
//!   exactly the regime Definition 1 models).
//! - `race` (crate-private) — the linearised free-running harness both
//!   racing engines run on: the one opening (`RunControl::check` first),
//!   the `SeqCst` step ticket whose total order is the trace
//!   linearisation, the stop / converged flags, the per-worker step log,
//!   the residual-target and quiescence checks after a step, the scoped
//!   spawn / join that returns a worker's error as the run's and its
//!   panic as [`CoreError::WorkerPanicked`], and the one closing — a
//!   walk of the log in ticket order that counts Definition 2 and builds
//!   the dense [`asynciter_models::Trace`] only when one is kept.
//! - [`async_engine`] — the [`SharedMem`] backend, the shared-memory
//!   step body on that harness: free-running workers updating their
//!   blocks without any synchronisation; optional inner iterations with
//!   partial publishing (flexible communication) and injected load
//!   imbalance.
//! - [`sync_engine`] — the [`Barrier`] backend, the barrier-synchronous
//!   Jacobi baseline with the same work model (and the harness's
//!   opening, stop flag and join, so a failing worker releases its
//!   peers), for the async-vs-sync comparisons.
//! - [`cluster`] — the [`Cluster`] backend, the deterministic sharded
//!   message-passing engine: a seeded virtual cluster with per-worker
//!   mailboxes, latency models, hold/drop/duplicate faults and flexible
//!   partial exchange, observed step by step like the core loop, whose
//!   recorded traces replay bit-identically (exchange frequency:
//!   `cluster::tests::sparse_exchange_cuts_message_volume_and_converges`;
//!   routing: `tests/applications.rs::bellman_ford_message_passing_hostile_channel`).
//! - [`worker`] — the message-passing [`Worker`]: one shard owner's
//!   receive → produce → post step, driven by the `cluster` event loop,
//!   the `threaded` engine, the model checker's seam scopes and
//!   `asynciter-sim`'s discrete-event loop alike.
//! - [`transport`] — the socket-ready [`transport::Transport`] /
//!   [`transport::Endpoint`] seam: labelled block messages over
//!   swappable channels, with an in-process mpsc mesh, the fate-driven
//!   [`transport::FaultRouter`] and a fault-injecting decorator.
//! - [`threaded`] — the [`ThreadedCluster`] backend, the
//!   message-passing step body on the same harness: free-running worker
//!   threads owning shards, exchanging block messages through the
//!   transport seam; every recorded run keeps a producing-step trace
//!   that replays bit-identically through `Replay`.
//! - [`scratch`] — the recycling [`ScratchPool`] the multi-tenant
//!   service leases per-job workspaces from: clean leases are bitwise
//!   fresh (so pooling is invisible to the bit-identity oracles) and
//!   lease/return cycles are allocation-free after warm-up.
//! - [`termination`] — distributed termination detection in the spirit
//!   of El Baz \[22\]: the [`Quiesce`] rule, the per-worker quiescence
//!   tracker and the shared flush-window detector (experiment E10).
//! - [`imbalance`] — calibrated spin-work injection used to model
//!   heterogeneous processors.
//! - [`session`] — the one path under which all four backends are
//!   importable, and what their doors share.
//!
//! Every fallible function here returns [`asynciter_core::Result`]: a
//! fault is typed where it arises, so a session gets the same
//! [`CoreError`] variant for it whichever backend it names.
//!
//! [`CoreError`]: asynciter_core::CoreError
//! [`CoreError::WorkerPanicked`]: asynciter_core::CoreError::WorkerPanicked

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod async_engine;
pub mod cluster;
pub mod imbalance;
mod race;
pub mod scratch;
pub mod session;
pub mod shared;
pub mod sync_engine;
pub mod termination;
pub mod threaded;
pub mod transport;
pub mod worker;

pub use async_engine::SnapshotMode;
/// Re-exported from its home, `asynciter_models::channel`, for the
/// standalone benchmark.
pub use asynciter_models::channel::LinkModel;
pub use cluster::{ApplyPolicy, ClusterConfig, ClusterEngine, ClusterRunResult, ClusterStats};
pub use scratch::{PoolStats, ScratchLease, ScratchPool};
pub use session::{Barrier, Cluster, SharedMem, ThreadedCluster};
pub use shared::SharedVec;
pub use sync_engine::SpinBarrier;
pub use termination::Quiesce;
pub use threaded::{ThreadedClusterEngine, ThreadedConfig, ThreadedRunResult};
pub use transport::{
    BlockMessage, Endpoint, FaultEndpoint, FaultPlan, MpscTransport, SendFate, Transport,
};
pub use worker::{Worker, WorkerCounters};
