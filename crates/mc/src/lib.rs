//! # asynciter-mc
//!
//! Bounded exhaustive model checking for the cluster (message-passing)
//! regime — the *verified* counterpart of the sampling conformance
//! fuzzer.
//!
//! The paper's central claim is that asynchronous iterations converge
//! under **any** admissible schedule: unbounded delays, out-of-order
//! messages, lost and duplicated messages, flexible (partial)
//! communication. The PR 3/5 fuzzer *samples* that schedule space; this
//! crate *enumerates* it for small scopes, so within a scope the claim
//! is checked on every reachable interleaving, not a random subset.
//!
//! ## How it works
//!
//! - A [`scope::Scope`] fixes a small universe: 2–3 workers, ≤ 8
//!   producing steps, which channel nondeterminism is switched on
//!   (drops, duplicates, holds/reorders, partial-exchange subsets), a
//!   mailbox capacity, and a
//!   [`DelayEnvelope`](asynciter_models::conditions::DelayEnvelope)
//!   used as an
//!   *admissibility pruning predicate* — branches whose read staleness
//!   leaves the envelope are not schedules the theorem speaks about, so
//!   they are pruned (and counted) rather than explored.
//! - Every model state is built on one [`book::Book`]: a
//!   `runtime::Worker` per shard — the production step type of
//!   `Cluster` and `ThreadedCluster`; views and engine
//!   labels are written only by its `receive` / `produce` — and beside
//!   the workers an independent *spec* label book maintained from
//!   choice semantics alone. Admissibility pruning reads the spec book,
//!   property checks read the engine book, so a bookkeeping bug in the
//!   engine path cannot hide itself by steering the search. The book is
//!   also the one definition of the spec-carrying message, Φ, the
//!   produce-and-observe step and the per-worker canonical encoding.
//! - One explorer serves every scope family: [`explore()`] is generic
//!   over the [`Model`] trait (state, choice, transition, checks,
//!   hash). A model adds a channel, a choice enumeration and planted
//!   bugs around the book: [`ClusterModel`] ([`state::McState`]) an
//!   abstract channel — canonically-sorted mailbox multisets with
//!   delivery-subset and drop / duplicate / partial-mask choices — for
//!   the scopes above; [`SeamModel`] ([`seam`]) the runtime's own
//!   `FaultRouter`s over FIFO inboxes, the threaded engine's stack
//!   under an exhaustive scheduler. States are deduplicated by a
//!   128-bit FNV-1a hash over a canonical byte encoding
//!   ([`state::state_hash`]), stored in a `BTreeSet` — no `HashMap`
//!   iteration order anywhere near a verdict.
//! - Checked properties ([`invariants`]): residual monotonicity under
//!   the operator's contraction certificate, `KeepFreshest` label
//!   monotonicity, admissibility-witness preservation (spec book ≡
//!   engine book + condition (a)), and convergence-at-horizon with a
//!   bit-identical `Replay` cross-check of the recorded trace.
//! - Every violation is rebuilt into a producing-step
//!   [`Trace`](asynciter_models::trace::Trace) in the
//!   corpus format, minimised through the PR 3 shrinker, and saved as a
//!   `.trace` the tier-1 suite can replay forever
//!   ([`counterexample`]).
//!
//! The `mc` binary in `asynciter-bench` drives all of this from the
//! command line (`--scope quick --stats`), and `--inject-mc-bug` is the
//! standing negative control: a deliberately severed block-boundary
//! label update that the explorer must find, shrink and emit.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod book;
pub mod cli;
pub mod counterexample;
pub mod explore;
pub mod invariants;
pub mod scope;
pub mod seam;
pub mod state;

pub use book::{Book, SpecMessage};
pub use counterexample::{find_reorder_demo, inject_bug_demo};
pub use explore::{
    explore, explore_check_por, rebuild, ClusterModel, ExploreOutcome, ExploreStats,
    FoundViolation, Model, Strategy,
};
pub use invariants::Property;
pub use scope::{McProblem, Scope};
pub use seam::{seam_bug_demo, SeamBug, SeamModel, SeamScope, SeamState};
pub use state::{state_hash, McState, Por, SendChoice, StepChoice};
