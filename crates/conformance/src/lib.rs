//! # asynciter-conformance
//!
//! The conformance fuzzer: an executable specification of the paper's
//! central claim — convergence under *any* admissible asynchronous
//! schedule, with unbounded delays, out-of-order messages and flexible
//! (partial) communication.
//!
//! Hand-written schedules exercise a handful of points in an infinite
//! space. This crate machine-generates thousands, following the
//! schedule-sequence view of Peng–Xu–Yan–Yin and the flexible model of
//! Mishchenko–Iutzeler–Malick:
//!
//! - [`plan`] — a seeded random **admissible-schedule generator**:
//!   [`plan::SchedulePlan`] samples a base generator from the
//!   `asynciter-models` schedule zoo and composes it with random
//!   delay/label/partial-update mutations, then wraps the stack in the
//!   guard combinators (`EnvelopeClamp`, `CoverageGuard`) so that every
//!   generated schedule *provably* satisfies the paper's admissibility
//!   conditions — each plan carries its own
//!   [`AdmissibilityWitness`](asynciter_models::AdmissibilityWitness).
//! - [`shrink`] — minimises any failing schedule to a small replayable
//!   counterexample `Trace` (prefix truncation, steering-set thinning,
//!   label freshening), built on the deterministic greedy machinery of
//!   the workspace `proptest` shim. Minimised traces are persisted via
//!   `trace_io` and committed as regression seeds.
//! - [`oracle`] — the replay law of Definition 1, written once: a
//!   recorded schedule replayed through Eq. (1) reproduces its run's
//!   iterates bit for bit. One replay door and [`oracle::record_and_replay`],
//!   comparing through `asynciter_core::compare`; the campaign oracles
//!   (metamorphic convergence, replay round-trip, flexible degradation,
//!   sim / cluster / threaded equivalence), the corpus check, the
//!   service leak shrinker and `mc`'s horizon property all call them.
//! - [`cluster`] — seeded **message-passing fuzz cases**
//!   ([`cluster::ClusterPlan`]): worker counts, link latency models and
//!   hold/drop/duplicate/partial channel faults for the sharded
//!   `Cluster` backend, whose executed schedules the cluster-equivalence
//!   oracle replays bit-identically through the Definition-1 engine.
//! - [`corpus`] — the committed seed corpus under `tests/corpus/`:
//!   canonical plans, trace files, and the fault fixtures produced by
//!   shrinking.
//! - [`service`] — the multi-tenant tier: seeded mixed workloads for
//!   the service layer, the tenant-equivalence oracle wrapper
//!   (isolation = bit-identity with solo runs), start-vector-leak
//!   shrinking, and the planted scratch-leak negative control.
//! - [`runner`] — the campaign driver behind the `conformance` binary
//!   (`--quick`/`--soak`), with JSON reporting through
//!   `asynciter-report`.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod cluster;
pub mod corpus;
pub mod oracle;
pub mod plan;
pub mod problems;
pub mod runner;
pub mod service;
pub mod shrink;

pub use cluster::ClusterPlan;
pub use plan::SchedulePlan;
pub use problems::{ConformanceProblem, ProblemKind};
pub use runner::{run_campaign, CampaignConfig, CampaignReport};
pub use shrink::shrink_trace;
