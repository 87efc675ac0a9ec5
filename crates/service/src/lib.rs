//! # asynciter-service
//!
//! The multi-tenant solver service: "millions of users" as a
//! benchmarkable scenario. Tenants submit jobs — a catalog problem, a
//! deterministic backend, a delay model, a tenant seed — into a bounded
//! admission queue with backpressure; the service runs them as
//! concurrent `Session`s, leasing per-job scratch workspaces from a
//! recycling pool (so the PR 5 allocation-free discipline holds
//! *across* tenants, not just within a run), and streams compact
//! batched records out through `asynciter_report::stream`.
//!
//! The load-bearing contract is **tenant isolation as bit-identity**:
//! every per-tenant report from a service run — deterministic or
//! free-running — must be bitwise equal to a solo run of the same spec.
//! [`verify::check_outcome`] makes the contract executable, and the
//! scratch pool's planted dirty-lease bug
//! (`ServiceConfig::inject_scratch_leak`) proves the check has teeth.
//!
//! - [`catalog`] — shared calibrated problem instances.
//! - [`spec`] — validated job specifications (exact error messages).
//! - [`service`] — admission queue, deterministic / free-running drains,
//!   pooled workspaces, batched streaming.
//! - [`verify`] — the solo-diff tenant-equivalence oracle.
//! - [`error`] — every refusal, with pinned messages.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod catalog;
pub mod error;
pub mod service;
pub mod spec;
pub mod verify;

pub use catalog::{Catalog, CatalogEntry, ProblemId};
pub use error::{Result, ServiceError};
pub use service::{CompletedJob, Service, ServiceConfig, ServiceMode, ServiceOutcome};
pub use spec::{BackendSpec, DelaySpec, JobSpec, ScheduleSpec};
pub use verify::{check_outcome, solo_report, Divergence};
