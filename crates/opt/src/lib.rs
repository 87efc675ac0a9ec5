//! # asynciter-opt
//!
//! Operators and optimisation problems for asynchronous iterations:
//! everything that plays the role of `F` (Definition 1) or of the
//! approximate gradient-type operator `G` (Definition 4) in El-Baz
//! (IPPS 2022), plus the application substrates the paper surveys.
//!
//! - [`traits`] — the [`traits::Operator`] abstraction consumed
//!   by every engine in the workspace, smooth objectives and separable
//!   proximal maps.
//! - [`prox`] — proximal operators: `ℓ₁` soft-thresholding, box /
//!   nonnegativity / lower-obstacle indicators, elastic net, ridge.
//! - [`quadratic`] — separable and sparse coupled quadratics (the
//!   `f` of problem (4) in its exactly-analysable forms).
//! - [`proxgrad`] — the paper's Definition-4 operator
//!   `G_i(x) = [prox_{γg}(x)]_i − γ ∇_i f(prox_{γg}(x))` and the classical
//!   forward–backward operator, with contraction-factor accounting.
//! - [`linear`] — Jacobi/relaxation operators for linear fixed points
//!   (chaotic relaxation's original home) and diagonally-dominant
//!   generators.
//! - [`lasso`] — ℓ₁-regularised least squares with reference solvers.
//! - [`logistic`] — ℓ₂-regularised logistic regression (the machine-
//!   learning loss of §V).
//! - [`network_flow`] — convex quadratic-cost network flow and the
//!   Bertsekas–El Baz dual price relaxation (\[6\], \[8\]).
//! - [`obstacle`] — the 2-D obstacle problem and projected relaxation
//!   (\[26\]).
//! - [`bellman_ford`] — distributed shortest paths (the Arpanet routing
//!   example, \[11\]/\[17\]).
//! - [`newton`] — diagonal modified-Newton operators (\[25\]).
//! - [`relaxed`] — successive-relaxation wrapper `F_ω` for any operator.
//! - [`canonical`] — the one problem table: the instances the gate, the
//!   conformance sweep and the service catalog solve, at CI and nightly
//!   size.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod bellman_ford;
pub mod canonical;
pub mod error;
pub mod lasso;
pub mod linear;
pub mod logistic;
pub mod network_flow;
pub mod newton;
pub mod obstacle;
pub mod prox;
pub mod proxgrad;
pub mod quadratic;
pub mod relaxed;
pub mod traits;

pub use error::OptError;
pub use traits::{Operator, SeparableProx, SeparableSmooth, SmoothObjective};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, OptError>;
