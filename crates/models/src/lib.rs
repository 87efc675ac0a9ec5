//! # asynciter-models
//!
//! The *formal model* of parallel/distributed asynchronous iterations from
//! El-Baz (IPPS 2022), implemented as executable objects:
//!
//! - [`schedule`] — the pair `(𝒮, ℒ)` of Definition 1: steering sequences
//!   (which components are updated at iteration `j`) and delay labels
//!   (which past iterates each update reads), as a streaming generator
//!   trait plus a library of generators covering every regime the paper
//!   discusses (synchronous, chaotic bounded-delay, out-of-order,
//!   unbounded `√j`, heavy-tailed, adversarial starvation).
//! - [`trace`] — recorded executions: the data on which the paper's
//!   analytic objects are computed.
//! - [`conditions`] — checkers for the paper's conditions (a), (b), (c)
//!   (Definition 1) and (d) (Chazan–Miranker/Miellou bounded delays).
//! - [`macroiter`] — the macro-iteration sequence of Definition 2, in both
//!   the literal form and the strict (Bertsekas box-semantics) form.
//! - [`epoch`] — the epoch sequence of Mishchenko–Iutzeler–Malick (SIOPT
//!   2020) that the paper compares against, plus freshness-violation
//!   diagnostics that quantify the paper's claim that epochs do not
//!   account for out-of-order messages.
//! - [`baudet`] — Baudet's classical two-processor example in which the
//!   delay on the slow component grows like `√j` yet condition (b) holds.
//! - [`analysis`] — delay statistics, staleness histograms and growth-rate
//!   fits used by the experiment harness.
//! - [`partition`] — component→machine maps shared by trace analysis and
//!   the runtimes.
//! - [`channel`] — the channel model under both discrete-event loops
//!   (`Sim`, `Cluster`): the [`channel::LinkModel`] latency distribution
//!   and the time-ordered [`channel::EventQueue`].
//! - [`trace_io`] — archive/replay serialisation for recorded traces.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod analysis;
pub mod baudet;
pub mod channel;
pub mod conditions;
pub mod epoch;
pub mod error;
pub mod macroiter;
pub mod partition;
pub mod schedule;
pub mod trace;
pub mod trace_io;

pub use conditions::{AdmissibilityWitness, DelayEnvelope};
pub use error::ModelError;
pub use partition::Partition;
pub use schedule::{ScheduleGen, StepBuf};
pub use trace::{LabelStore, Trace, TraceStep};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ModelError>;
