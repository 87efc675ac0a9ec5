//! # asynciter-runtime
//!
//! Real multi-threaded runtimes for asynchronous iterations — the
//! workspace's stand-in for the paper's Cray T3E / IBM SP4 / Grid5000
//! campaigns (see DESIGN.md §2 for the substitution argument):
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
//!   spawn / join that turns a worker's error or panic into the run's
//!   [`RuntimeError`], and the one closing — a walk of the log in ticket
//!   order that counts Definition 2 and builds the dense
//!   [`asynciter_models::Trace`] only when one is kept.
//! - [`async_engine`] — the [`SharedMem`] backend, the shared-memory
//!   step body on that harness: free-running workers updating their
//!   blocks without any synchronisation; optional inner iterations with
//!   partial publishing (flexible communication) and injected load
//!   imbalance.
//! - [`sync_engine`] — the [`Barrier`] backend, the barrier-synchronous
//!   Jacobi baseline with the same work model (and the harness's
//!   opening, stop flag and join, so a failing worker releases its
//!   peers), for the async-vs-sync comparisons (experiment E3).
//! - [`cluster`] — the [`Cluster`] backend, the deterministic sharded
//!   message-passing engine: a seeded virtual cluster with per-worker
//!   mailboxes, latency models, hold/drop/duplicate faults and flexible
//!   partial exchange, observed step by step like the core loop, whose
//!   recorded traces replay bit-identically (experiments E5/E6).
//! - [`worker`] — the message-passing [`Worker`]: one shard owner's
//!   receive → produce → post step, driven by the `cluster` event loop,
//!   the `threaded` engine and the model checker's seam scopes alike.
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

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod async_engine;
pub mod cluster;
pub mod error;
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
pub use cluster::{
    ApplyPolicy, ClusterConfig, ClusterEngine, ClusterRunResult, ClusterStats, LinkModel,
};
pub use error::RuntimeError;
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

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, RuntimeError>;
