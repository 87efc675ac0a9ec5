//! The canonical problem instances: gate, conformance and service build
//! instances here.
//!
//! One instance per operator family and [`Size`]. At [`Size::Quick`] —
//! small enough for single-core CI, and the only size the conformance
//! sweep and the service catalog solve — each of the five [`Kind`]s
//! carries the step budget and residual tolerance every admissible
//! schedule reaches on it. The benchmark gate sweeps the same instances
//! plus Bellman–Ford routing, at either size, to its own residual
//! target. Constructors return the concrete operator type — callers that
//! need a reference solution (conformance) still have the family's exact
//! solver at hand.

use crate::bellman_ford::{BellmanFordOperator, Graph};
use crate::lasso::LassoProblem;
use crate::linear::JacobiOperator;
use crate::logistic::LogisticGradOperator;
use crate::network_flow::{NetworkFlowProblem, PriceRelaxation};
use crate::obstacle::{ObstacleProblem, ProjectedJacobi};
use crate::prox::L1;
use crate::proxgrad::{gamma_max, SparseProxGrad};
use crate::traits::{Operator, SmoothObjective};

/// How large an instance is: the constructors below list both sizes of
/// each family side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// CI-sized: seconds on one core. What conformance, the service and
    /// `gate --quick` solve.
    Quick,
    /// The nightly-scale `gate --full` sweep.
    Full,
}

impl Size {
    /// Stable identifier (`gate` stamps it into its document).
    pub fn id(self) -> &'static str {
        self.pick("quick", "full")
    }

    fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Size::Quick => quick,
            Size::Full => full,
        }
    }
}

/// The five operator families conformance sweeps and the service serves
/// (sizes are those of [`Size::Quick`]).
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
    /// upper bound and Bellman–Ford's "destination 0, everything else
    /// unreachable".
    pub x0: Vec<f64>,
    /// Step budget that reaches `tol` under any admissible schedule —
    /// calibrated at [`Size::Quick`]; the gate, the one caller of
    /// [`Size::Full`], brings its own target and backstop.
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

/// Diagonally dominant tridiagonal system (`n = 16` / `64`), Jacobi
/// operator.
///
/// # Panics
/// Panics only if the static instance fails to construct (a bug); the
/// same holds for every constructor of this module.
pub fn jacobi(size: Size) -> Canonical<JacobiOperator> {
    let n = size.pick(16, 64);
    let matrix = asynciter_numerics::sparse::tridiagonal(n, 4.0, -1.0);
    let op = JacobiOperator::new(matrix, vec![1.0; n]).expect("static Jacobi instance");
    from_zero(op, 6_000, 1e-8)
}

/// Lasso regression (`n = 12`, `m = 72`, 3-sparse truth / `n = 48`,
/// `m = 480`, 8-sparse; seed 7) via the sparse prox-gradient operator
/// at `0.9 γ_max`.
pub fn lasso(size: Size) -> Canonical<SparseProxGrad<L1>> {
    let (n, m, k) = size.pick((12, 72, 3), (48, 480, 8));
    let problem = LassoProblem::random(n, m, k, 0.05, 0.01, 7).expect("static lasso instance");
    let q = problem.quadratic.clone();
    let gamma = 0.9 * gamma_max(q.strong_convexity(), q.lipschitz());
    let op = SparseProxGrad::new(q, L1::new(problem.lambda), gamma)
        .expect("gamma within Theorem-1 range");
    from_zero(op, 8_000, 1e-7)
}

/// Membrane obstacle problem on a 6×6 / 16×16 grid, projected Jacobi —
/// the slowest contraction of the family, hence the longest budget.
pub fn obstacle(size: Size) -> Canonical<ProjectedJacobi> {
    let g = size.pick(6, 16);
    let problem = ObstacleProblem::bump(g, g, 0.6).expect("static obstacle instance");
    let op = ProjectedJacobi::new(problem);
    Canonical {
        x0: op.upper_start(),
        op,
        steps: 30_000,
        tol: 1e-6,
    }
}

/// Certified ℓ₂-regularised logistic regression (`n = 8`, `m = 48` /
/// `n = 24`, `m = 240`; seed 13): ridge 2.0 sits above the
/// data-coupling bound, so every admissible schedule converges.
pub fn logistic(size: Size) -> Canonical<LogisticGradOperator> {
    let (n, m) = size.pick((8, 48), (24, 240));
    let op =
        LogisticGradOperator::certified_random(n, m, 2.0, 13).expect("certified logistic instance");
    from_zero(op, 8_000, 1e-7)
}

/// Min-cost flow dual prices on the 12- / 48-spoke wheel (seed 21),
/// grounded at the hub.
pub fn network_flow(size: Size) -> Canonical<PriceRelaxation> {
    let problem = NetworkFlowProblem::wheel(size.pick(12, 48), 21).expect("static wheel instance");
    let op = PriceRelaxation::new(problem, 0).expect("hub-grounded relaxation");
    from_zero(op, 10_000, 1e-7)
}

/// Shortest paths to node 0 (Bellman–Ford operator) on the Arpanet
/// topology / a 64-node random geometric graph (radius 0.25, seed 2022).
///
/// Not a [`Kind`]: only the gate solves it. Shortest paths are reached
/// exactly, so any tolerance is met with residual 0.
pub fn bellman_ford(size: Size) -> Canonical<BellmanFordOperator> {
    let graph = match size {
        Size::Quick => Graph::arpanet(),
        Size::Full => Graph::random_geometric(64, 0.25, 2022).expect("static geometric graph"),
    };
    let op = BellmanFordOperator::new(graph, 0).expect("destination 0 exists");
    Canonical {
        x0: op.initial_estimate(),
        op,
        steps: 2_500,
        tol: 1e-9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synchronous sweeps — the schedule every size must at least
    /// survive — reach the tolerance within the budget.
    fn converges<O: Operator>(c: Canonical<O>) {
        let mut x = c.x0;
        assert_eq!(x.len(), c.op.dim());
        let mut next = x.clone();
        for _ in 0..c.steps {
            if c.op.residual_inf(&x) <= c.tol {
                return;
            }
            c.op.apply(&x, &mut next);
            std::mem::swap(&mut x, &mut next);
        }
        panic!(
            "residual {} after {} sweeps",
            c.op.residual_inf(&x),
            c.steps
        );
    }

    #[test]
    fn every_instance_builds_and_converges_at_both_sizes() {
        for size in [Size::Quick, Size::Full] {
            converges(jacobi(size));
            converges(lasso(size));
            converges(obstacle(size));
            converges(logistic(size));
            converges(network_flow(size));
            converges(bellman_ford(size));
        }
    }

    /// The service catalogue, the corpus seeds and the benchmark pins
    /// index into this table: Bellman–Ford must stay out of it.
    #[test]
    fn the_five_kinds_keep_their_order() {
        let ids = Kind::ALL.map(Kind::id);
        assert_eq!(
            ids,
            ["jacobi", "lasso", "obstacle", "logistic", "network-flow"]
        );
        assert!(Kind::parse("bellman-ford").is_none());
    }
}
