//! # asynciter-sim
//!
//! A deterministic discrete-event simulator of processors and
//! communication links running asynchronous iterations — the instrument
//! that regenerates the paper's two figures:
//!
//! - **Fig. 1**: two processors with heterogeneous compute times perform
//!   updating phases and exchange values at the end of each phase; the
//!   timeline shows phases labelled by iteration numbers and arrows for
//!   the communications.
//! - **Fig. 2**: the same with *flexible communication* — partial updates
//!   (hatched arrows) leave mid-phase.
//!
//! Unlike the thread runtimes (which are real but nondeterministic), the
//! simulator gives exact, reproducible timelines with real arithmetic:
//! each simulated processor actually computes its block of the operator
//! from its local (stale) copies, so simulated runs converge/diverge for
//! real mathematical reasons.
//!
//! There is one door: `Session` → [`Sim`], which runs a [`SimConfig`]
//! straight off the session's problem and controls into the shared
//! `RunReport` — budget, error and residual sampling, every stopping
//! rule, streamed macro-iterations, and an [`asynciter_models::Trace`]
//! (for macro-iteration/epoch analysis) when recording is on.
//! [`Sim::run_with_timeline`] is the same run that also hands out the
//! [`timeline::Timeline`] the figures are rendered from.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod compute;
pub mod runner;
pub mod scenario;
pub mod session;
pub mod timeline;

pub use runner::SimConfig;
pub use session::Sim;
pub use timeline::{CommKind, Timeline};
