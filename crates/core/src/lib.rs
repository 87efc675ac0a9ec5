//! # asynciter-core
//!
//! Execution engines for asynchronous iterations, following El-Baz
//! (IPPS 2022) exactly:
//!
//! - [`engine`] — the deterministic [`Replay`] backend of Definition 1:
//!   given an operator `F`, an initial vector `x(0)` and a schedule
//!   `(𝒮, ℒ)`, it produces the iterate sequence of Eq. (1), assembling
//!   each update's read vector `x(l(j))` from the full update
//!   [`engine::History`] so that arbitrary (unbounded, out-of-order)
//!   labels are honoured bit-for-bit — the `m = 1`, no-partials case of:
//! - [`flexible`] — the [`Flexible`] backend of Definition 3 and the one
//!   step loop: updates run `m` inner iterations and *publish partial
//!   results*, and readers may consume those partials (sub-step labels);
//!   the engine can check — or enforce — the norm constraint (3).
//! - [`compare`] — what "the same run" means, written once: bit identity
//!   of two iterates ([`compare::same_bits`]), of two schedules, and of
//!   two [`RunReport`]s on the [`compare::Fields`] a law fixes
//!   ([`compare::same_run`]).
//! - [`theory`] — Theorem 1's `(1−ρ)^k` envelope, Perron weights for
//!   weighted-max-norm contraction certificates, and empirical contraction
//!   estimation.
//! - [`stopping`] — stopping rules: plain residual tests and the
//!   macro-iteration-based criterion in the spirit of Miellou–Spiteri–
//!   El Baz \[15\].
//! - [`observer`] — the one after-step [`Observer`] of the sequential
//!   engines (the loop above and the event loop of `asynciter-sim`): it
//!   streams Definition 2, keeps the trace, samples and evaluates the
//!   stopping rule.
//! - [`session`] — the **unified execution API**: one fluent [`Session`]
//!   builder, one [`session::Backend`] trait and one [`session::RunReport`]
//!   shared by every engine in the workspace (replay, flexible, the
//!   threaded runtimes of `asynciter-runtime`, the simulator of
//!   `asynciter-sim`). `Session` → [`session::Backend::run`] is the only
//!   way into the two engines above.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod compare;
pub mod engine;
pub mod error;
pub mod flexible;
pub mod observer;
pub mod session;
pub mod stopping;
pub mod theory;

pub use error::CoreError;
pub use observer::Observer;
pub use session::{Flexible, Problem, RecordMode, Replay, RunControl, RunReport, Session};
pub use stopping::{OnlineMacroTracker, StoppingRule};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
