//! # asynciter-numerics
//!
//! Self-contained numerical substrate for the `asynciter` workspace: dense
//! and CSR sparse matrices, vector kernels, the *weighted maximum norm*
//! `‖x‖_u = max_i |x_i| / u_i` that underpins the convergence theory of
//! asynchronous iterations (El-Baz, IPPS 2022, Eq. (3) and Theorem 1),
//! deterministic RNG plumbing, and small statistics helpers used by the
//! experiment harness (growth-rate fits, percentiles).
//!
//! Everything here is dependency-light by design: the convergence phenomena
//! studied by the paper live in schedules and operators, not in BLAS, so a
//! compact, well-tested kernel set is the right substrate.
//!
//! ## Layout
//!
//! - [`vecops`] — allocation-free vector kernels (`axpy`, `dot`, norms, …).
//! - [`norm`] — weighted maximum norms and block norms (paper Eq. (3)).
//! - [`dense`] — row-major dense matrices with Cholesky solves for exact
//!   reference solutions of small quadratic problems.
//! - [`sparse`] — CSR matrices, 5-point Laplacians, tridiagonal systems and
//!   diagonal-dominance diagnostics.
//! - [`rng`] — seeded [`rand::rngs::StdRng`] constructors and samplers.
//! - [`stats`] — means, percentiles and least-squares growth-rate fits.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod dense;
pub mod error;
pub mod norm;
pub mod rng;
pub mod sparse;
pub mod stats;
pub mod vecops;

pub use dense::DenseMatrix;
pub use error::NumericsError;
pub use norm::{BlockWeightedMaxNorm, WeightedMaxNorm};
pub use sparse::CsrMatrix;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, NumericsError>;
