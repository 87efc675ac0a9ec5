//! The problem family the metamorphic oracle sweeps.
//!
//! Five operator families with different structure — a linear max-norm
//! contraction (Jacobi), a nonsmooth prox-gradient fixed point (lasso),
//! a projected/constrained iteration (obstacle), a densely-coupled
//! machine-learning loss (certified logistic gradient descent) and a
//! dual graph relaxation (hub-grounded network-flow prices) — each with
//! a replay budget and tolerance calibrated so that *every* schedule a
//! [`crate::plan::SchedulePlan`] can produce (worst-case staleness and
//! thinning included) converges within budget. Plan sampling is capped
//! by the problem's [`PlanLimits`] so budget and admissible staleness
//! stay matched.

use crate::plan::PlanLimits;
use asynciter_opt::canonical::{self, Canonical, Size};
use asynciter_opt::traits::Operator;

/// The problem axis of the conformance matrix.
pub use asynciter_opt::canonical::Kind as ProblemKind;

/// A built problem instance plus its conformance calibration.
pub struct ConformanceProblem {
    /// Which family this is.
    pub kind: ProblemKind,
    /// The fixed-point operator.
    pub op: Box<dyn Operator>,
    /// Canonical start.
    pub x0: Vec<f64>,
    /// Known fixed point, when the family admits an exact solve
    /// (enables constraint-enforced flexible runs).
    pub xstar: Option<Vec<f64>>,
    /// Schedule length / replay budget for the metamorphic oracle.
    pub steps: u64,
    /// Residual tolerance the budget must reach under any plan.
    pub tol: f64,
    /// Looser tolerance for flexible (partial-communication) runs.
    pub flex_tol: f64,
    /// Sampling caps keeping worst-case staleness inside the budget.
    pub limits: PlanLimits,
}

impl ConformanceProblem {
    /// Dimension `n`.
    pub fn n(&self) -> usize {
        self.op.dim()
    }

    /// Builds the calibrated instance of `kind`: the canonical instance
    /// plus its exact solution (where the family has one), the looser
    /// flexible-run tolerance and the plan caps.
    ///
    /// # Panics
    /// Panics only if the static instances fail to construct (a bug).
    pub fn build(kind: ProblemKind) -> Self {
        fn calibrated<O: Operator + 'static>(
            kind: ProblemKind,
            c: Canonical<O>,
            xstar: Option<Vec<f64>>,
            flex_tol: f64,
            limits: PlanLimits,
        ) -> ConformanceProblem {
            ConformanceProblem {
                kind,
                op: Box::new(c.op),
                x0: c.x0,
                xstar,
                steps: c.steps,
                tol: c.tol,
                flex_tol,
                limits,
            }
        }
        let any_plan = PlanLimits::default();
        match kind {
            ProblemKind::Jacobi => {
                let c = canonical::jacobi(Size::Quick);
                let xstar = c.op.solve_dense_spd().expect("SPD solve");
                calibrated(kind, c, Some(xstar), 1e-6, any_plan)
            }
            ProblemKind::Lasso => {
                let c = canonical::lasso(Size::Quick);
                let (xstar, _) = c.op.solve_exact().expect("exact lasso solve");
                calibrated(kind, c, Some(xstar), 1e-5, any_plan)
            }
            ProblemKind::Obstacle => {
                // The slowest contraction of the family: cap staleness
                // harder so the budget dominates worst-case envelopes.
                let limits = PlanLimits {
                    max_bounded_b: 16,
                    max_sqrt_c: 1.2,
                };
                calibrated(kind, canonical::obstacle(Size::Quick), None, 1e-4, limits)
            }
            ProblemKind::Logistic => {
                let c = canonical::logistic(Size::Quick);
                let xstar = c.op.solve_exact().expect("reference logistic solve");
                calibrated(kind, c, Some(xstar), 1e-5, any_plan)
            }
            ProblemKind::NetworkFlow => {
                let c = canonical::network_flow(Size::Quick);
                let xstar = c.op.problem().exact_prices(0).expect("exact dual prices");
                // The wheel certificate is 1/2 per full relaxation
                // sweep; cap staleness like the obstacle problem.
                let limits = PlanLimits {
                    max_bounded_b: 16,
                    max_sqrt_c: 1.5,
                };
                calibrated(kind, c, Some(xstar), 1e-5, limits)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problems_build_with_consistent_dimensions() {
        for kind in ProblemKind::ALL {
            let p = ConformanceProblem::build(kind);
            assert_eq!(p.x0.len(), p.n());
            if let Some(xs) = &p.xstar {
                assert_eq!(xs.len(), p.n());
                // xstar really is a fixed point.
                let mut fx = vec![0.0; p.n()];
                p.op.apply(xs, &mut fx);
                let err = asynciter_numerics::vecops::max_abs_diff(xs, &fx);
                assert!(err < 1e-8, "{}: xstar residual {err}", kind.id());
            }
            assert!(p.steps > 0 && p.tol > 0.0 && p.flex_tol >= p.tol);
        }
    }
}
