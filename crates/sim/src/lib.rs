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
//! each simulated processor is an `asynciter_runtime::Worker` — the
//! shard owner `Cluster` steps — that actually computes its block of the
//! operator from its local (stale) view, so simulated runs
//! converge/diverge for real mathematical reasons. Its channel is the
//! one `Cluster` uses (`asynciter_models::channel`: the `LinkModel`
//! latency draw and the time-ordered `EventQueue`); only the
//! compute-time models ([`compute`]) and the timeline are its own.
//!
//! There is one door: `Session` → [`Sim`], a plain backend struct like
//! `Cluster` — one compute model per processor, the link model, inner
//! steps and partial sends — run straight off the session's problem and
//! controls into the shared `RunReport`: budget, the seed of every draw,
//! error and residual sampling, every stopping rule, streamed
//! macro-iterations, and an [`asynciter_models::Trace`] (for
//! macro-iteration/epoch analysis) when recording is on.
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

pub use session::Sim;
pub use timeline::{CommKind, Timeline};
