//! The five canonical problem instances: one per operator family, small
//! enough for single-core CI, each with the step budget and residual
//! tolerance every admissible schedule reaches on it.
//!
//! The conformance sweep and the service catalog solve exactly these
//! instances, so both build them here. Constructors return the concrete
//! operator type — callers that need a reference solution (conformance)
//! still have the family's exact solver at hand.

use crate::lasso::LassoProblem;
use crate::linear::JacobiOperator;
use crate::logistic::LogisticGradOperator;
use crate::network_flow::{NetworkFlowProblem, PriceRelaxation};
use crate::obstacle::{ObstacleProblem, ProjectedJacobi};
use crate::prox::L1;
use crate::proxgrad::{gamma_max, SparseProxGrad};
use crate::traits::{Operator, SmoothObjective};

/// The five operator families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Diagonally dominant tridiagonal system, Jacobi operator (n=16).
    Jacobi,
    /// Lasso regression via the sparse prox-gradient operator (n=12).
    Lasso,
    /// Membrane obstacle problem, projected Jacobi (6×6 grid).
    Obstacle,
    /// Certified ℓ₂-regularised logistic regression (n=8, m=48; dense
    /// data coupling).
    Logistic,
    /// Min-cost network flow dual prices on the 12-spoke wheel,
    /// hub-grounded.
    NetworkFlow,
}

impl Kind {
    /// Every family, sweep order. New kinds append — the committed
    /// conformance corpus derives per-problem seeds from each kind's
    /// index here, and the service catalog stores entries in this order.
    pub const ALL: [Kind; 5] = [
        Kind::Jacobi,
        Kind::Lasso,
        Kind::Obstacle,
        Kind::Logistic,
        Kind::NetworkFlow,
    ];

    /// Stable identifier for reports, records and CLI flags.
    pub fn id(self) -> &'static str {
        match self {
            Kind::Jacobi => "jacobi",
            Kind::Lasso => "lasso",
            Kind::Obstacle => "obstacle",
            Kind::Logistic => "logistic",
            Kind::NetworkFlow => "network-flow",
        }
    }

    /// Parses an identifier.
    pub fn parse(text: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.id() == text)
    }
}

/// A canonical instance and its calibration.
#[derive(Debug, Clone)]
pub struct Canonical<O> {
    /// The fixed-point operator.
    pub op: O,
    /// Canonical start: zero, except the obstacle problem's projected
    /// upper bound.
    pub x0: Vec<f64>,
    /// Step budget that reaches `tol` under any admissible schedule.
    pub steps: u64,
    /// Residual tolerance / target.
    pub tol: f64,
}

fn from_zero<O: Operator>(op: O, steps: u64, tol: f64) -> Canonical<O> {
    Canonical {
        x0: vec![0.0; op.dim()],
        op,
        steps,
        tol,
    }
}

/// Diagonally dominant tridiagonal system (`n = 16`), Jacobi operator.
///
/// # Panics
/// Panics only if the static instance fails to construct (a bug); the
/// same holds for every constructor of this module.
pub fn jacobi() -> Canonical<JacobiOperator> {
    let n = 16;
    let matrix = asynciter_numerics::sparse::tridiagonal(n, 4.0, -1.0);
    let op = JacobiOperator::new(matrix, vec![1.0; n]).expect("static Jacobi instance");
    from_zero(op, 6_000, 1e-8)
}

/// Lasso regression (`n = 12`, `m = 72`, 3-sparse truth, seed 7) via
/// the sparse prox-gradient operator at `0.9 γ_max`.
pub fn lasso() -> Canonical<SparseProxGrad<L1>> {
    let problem = LassoProblem::random(12, 72, 3, 0.05, 0.01, 7).expect("static lasso instance");
    let q = problem.quadratic.clone();
    let gamma = 0.9 * gamma_max(q.strong_convexity(), q.lipschitz());
    let op = SparseProxGrad::new(q, L1::new(problem.lambda), gamma)
        .expect("gamma within Theorem-1 range");
    from_zero(op, 8_000, 1e-7)
}

/// Membrane obstacle problem on a 6×6 grid, projected Jacobi — the
/// slowest contraction of the family, hence the longest budget.
pub fn obstacle() -> Canonical<ProjectedJacobi> {
    let problem = ObstacleProblem::bump(6, 6, 0.6).expect("static obstacle instance");
    let op = ProjectedJacobi::new(problem);
    Canonical {
        x0: op.upper_start(),
        op,
        steps: 30_000,
        tol: 1e-6,
    }
}

/// Certified ℓ₂-regularised logistic regression (`n = 8`, `m = 48`,
/// seed 13): ridge 2.0 sits above the data-coupling bound, so every
/// admissible schedule converges.
pub fn logistic() -> Canonical<LogisticGradOperator> {
    let op = LogisticGradOperator::certified_random(8, 48, 2.0, 13)
        .expect("certified logistic instance");
    from_zero(op, 8_000, 1e-7)
}

/// Min-cost flow dual prices on the 12-spoke wheel (seed 21), grounded
/// at the hub.
pub fn network_flow() -> Canonical<PriceRelaxation> {
    let problem = NetworkFlowProblem::wheel(12, 21).expect("static wheel instance");
    let op = PriceRelaxation::new(problem, 0).expect("hub-grounded relaxation");
    from_zero(op, 10_000, 1e-7)
}
