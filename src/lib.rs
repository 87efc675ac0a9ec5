//! # asynciter — facade crate
//!
//! Asynchronous iterations with unbounded delays, out-of-order messages
//! and flexible communication (El-Baz, IPPS 2022), as one workspace
//! behind a single dependency.
//!
//! ## The unified `Session` API
//!
//! Every engine in the workspace executes the *same* iterate sequence —
//! Eq. (1) of the paper — so every run is expressed the same way: build a
//! [`prelude::Session`], pick a [`prelude::Backend`], read a
//! [`prelude::RunReport`]:
//!
//! ```
//! use asynciter::prelude::*;
//!
//! let op = asynciter::opt::linear::JacobiOperator::new(
//!     asynciter::numerics::sparse::tridiagonal(16, 4.0, -1.0),
//!     vec![1.0; 16],
//! ).unwrap();
//!
//! // Deterministic replay of a chaotic out-of-order schedule …
//! let replay = Session::new(&op)
//!     .steps(4_000)
//!     .schedule(ChaoticBounded::new(16, 4, 8, 12, false, 7))
//!     .record(RecordMode::Full)
//!     .backend(Replay)
//!     .run()
//!     .unwrap();
//!
//! // … and the same problem on free-running threads: same report shape.
//! // (A residual target, not a fixed budget: free-running workers may
//! // interleave arbitrarily coarsely, so "enough updates" is not a
//! // well-defined number — "run until converged" is.)
//! let threaded = Session::new(&op)
//!     .steps(5_000_000)
//!     .stopping(StoppingRule::Residual { eps: 1e-10, check_every: 16 })
//!     .backend(SharedMem { threads: 2, ..SharedMem::default() })
//!     .run()
//!     .unwrap();
//!
//! assert!(replay.final_residual < 1e-10);
//! assert!(threaded.final_residual < 1e-10);
//! ```
//!
//! Backends: [`prelude::Replay`], [`prelude::Flexible`] (Definition 3),
//! [`prelude::SharedMem`], [`prelude::Barrier`] (real threads),
//! [`prelude::Sim`] (deterministic discrete-event simulation),
//! [`prelude::Cluster`] (deterministic sharded message passing with
//! out-of-order / lost / duplicated messages and flexible partial
//! exchange — the paper's distributed regime, replayable bit for bit),
//! and [`prelude::ThreadedCluster`] (the same message-passing regime on
//! genuinely concurrent worker threads, whose racy runs still record a
//! trace that replays bit-identically through `Replay`).
//!
//! ## Crates
//!
//! - [`numerics`] — linear algebra, weighted max norms, RNG, statistics.
//! - [`models`] — the formal model: schedules, conditions (a)–(d),
//!   macro-iterations, epochs, Baudet's example.
//! - [`opt`] — operators and problems (prox-gradient, network flow,
//!   obstacle, Bellman–Ford, …).
//! - [`core`] — engines (Definitions 1 and 3), the [`prelude::Session`]
//!   API, contraction theory, stopping rules.
//! - [`runtime`] — multi-threaded shared-memory and message-passing
//!   runtimes.
//! - [`sim`] — deterministic discrete-event simulator (paper Figs. 1–2).
//! - [`report`] — CSV/ASCII-chart output used by the experiment binaries.
//! - [`conformance`] — the conformance fuzzer: seeded admissible-schedule
//!   generation, shrinking, and differential cross-backend oracles.
//! - [`mc`] — the bounded exhaustive model checker: every admissible
//!   interleaving of a small cluster scope, verified (not sampled), with
//!   shrinker-integrated counterexamples.
//! - [`service`] — the multi-tenant solver service: bounded admission
//!   queue with backpressure, pooled scratch workspaces, thousands of
//!   concurrent per-tenant `Session`s, batched report streaming — with
//!   tenant isolation proven as bit-identity against solo runs.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub use asynciter_conformance as conformance;
pub use asynciter_core as core;
pub use asynciter_mc as mc;
pub use asynciter_models as models;
pub use asynciter_numerics as numerics;
pub use asynciter_opt as opt;
pub use asynciter_report as report;
pub use asynciter_runtime as runtime;
pub use asynciter_service as service;
pub use asynciter_sim as sim;

/// One-stop imports for the unified execution API.
///
/// Brings in the [`Session`](asynciter_core::session::Session) builder,
/// all seven backends, the shared
/// report/control types, and the handful of model types almost every run
/// touches (schedules, partitions, stopping rules, the `Operator` trait).
pub mod prelude {
    pub use asynciter_core::session::{
        Backend, Flexible, Problem, RecordMode, Replay, RunControl, RunReport, Session,
    };
    pub use asynciter_core::stopping::StoppingRule;
    pub use asynciter_core::CoreError;
    pub use asynciter_models::partition::Partition;
    pub use asynciter_models::schedule::{
        BlockRoundRobin, ChaoticBounded, CyclicCoordinate, HeavyTailDelay, RecordedSchedule,
        ScheduleGen, SyncJacobi, UnboundedSqrtDelay,
    };
    pub use asynciter_models::trace::{LabelStore, Trace};
    pub use asynciter_numerics::norm::WeightedMaxNorm;
    pub use asynciter_opt::traits::Operator;
    pub use asynciter_runtime::session::{Barrier, Cluster, SharedMem, ThreadedCluster};
    pub use asynciter_runtime::{ApplyPolicy, LinkModel, SnapshotMode};
    pub use asynciter_sim::runner::SimConfig;
    pub use asynciter_sim::session::Sim;
}
