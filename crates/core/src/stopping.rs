//! Stopping rules for asynchronous iterations.
//!
//! Stopping asynchronous iterations is notoriously delicate: a small
//! instantaneous residual proves nothing when stale updates are still in
//! flight. The paper's reference \[15\] (Miellou–Spiteri–El Baz, *A new
//! stopping criterion for linear perturbed asynchronous iterations*)
//! anchors the test to the macro-iteration structure instead: if the
//! iterate moved by at most `ε·(1−α)/α` in weighted max norm over a full
//! macro-iteration of an `α`-contracting operator, then the distance to
//! the fixed point is at most `ε`. [`StoppingRule::MacroContraction`]
//! states exactly that. Rules are evaluated after each step by the one
//! [`Observer`](crate::observer::Observer) — whose [`OnlineMacroTracker`]
//! (streaming form of Definition 2) says when a boundary closes — for
//! `Replay`, `Flexible` and `Sim` alike; `RunControl::check` rejects
//! rules outside the ranges documented on each variant.

use asynciter_numerics::norm::WeightedMaxNorm;

pub use asynciter_models::macroiter::OnlineMacroTracker;

/// A stopping rule evaluated online by the engines.
#[derive(Debug, Clone)]
pub enum StoppingRule {
    /// Stop when the fixed-point residual `‖x − F(x)‖_∞ ≤ eps`, checked
    /// every `check_every` steps. Costs one operator application per
    /// check; **unsound under asynchronism in general** (stale updates
    /// may still be in flight) — provided as the naive baseline that
    /// experiment E10 compares against.
    Residual {
        /// Residual threshold (not NaN).
        eps: f64,
        /// Check period in steps.
        check_every: u64,
    },
    /// The macro-iteration criterion of \[15\]: at each macro-iteration
    /// boundary compare the iterate against its value at the previous
    /// boundary in `‖·‖_u`; stop when the change is below
    /// `eps · (1 − alpha) / alpha`, which for an `α`-contraction in
    /// `‖·‖_u` certifies `‖x − x*‖_u ≤ eps`.
    MacroContraction {
        /// Target accuracy `ε` (finite, `≥ 0`).
        eps: f64,
        /// Contraction factor of the operator in `‖·‖_u`, strictly
        /// inside `(0, 1)`: at 0 the threshold is `+∞`, at 1 it is 0.
        alpha: f64,
        /// The weighted max norm in which the operator contracts (of the
        /// operator's dimension).
        norm: WeightedMaxNorm,
    },
    /// Oracle rule for experiments: stop when the true error
    /// `‖x − x*‖_∞ ≤ eps` (rejected unless the session declares `x*`).
    ErrorBelow {
        /// Error threshold (not NaN).
        eps: f64,
        /// Check period in steps.
        check_every: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use asynciter_models::schedule::{ChaoticBounded, CyclicCoordinate, SyncJacobi};
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_numerics::vecops;
    use asynciter_opt::linear::JacobiOperator;
    use asynciter_opt::traits::Operator;

    fn jacobi(n: usize) -> JacobiOperator {
        JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
    }

    #[test]
    fn residual_rule_stops_sync_run() {
        let op = jacobi(6);
        let res = Session::new(&op)
            .steps(100_000)
            .schedule(SyncJacobi::new(6))
            .stopping(StoppingRule::Residual {
                eps: 1e-10,
                check_every: 5,
            })
            .run()
            .unwrap();
        assert!(res.stopped_early);
        assert!(res.steps < 100_000);
        assert!(op.residual_inf(&res.final_x) <= 1e-10);
    }

    #[test]
    fn macro_contraction_rule_certifies_error() {
        let op = jacobi(8);
        let xstar = op.solve_dense_spd().unwrap();
        let alpha = op.contraction_factor();
        let eps = 1e-8;
        let res = Session::new(&op)
            .steps(1_000_000)
            .schedule(ChaoticBounded::new(8, 2, 4, 6, false, 3))
            .stopping(StoppingRule::MacroContraction {
                eps,
                alpha,
                norm: WeightedMaxNorm::uniform(8),
            })
            .run()
            .unwrap();
        assert!(res.stopped_early, "macro rule never fired");
        let err = vecops::max_abs_diff(&res.final_x, &xstar);
        assert!(err <= eps, "certified {eps} but true error {err}");
    }

    #[test]
    fn error_below_rule_uses_oracle() {
        let op = jacobi(6);
        let xstar = op.solve_dense_spd().unwrap();
        let res = Session::new(&op)
            .steps(1_000_000)
            .schedule(CyclicCoordinate::new(6))
            .xstar(xstar.clone())
            .stopping(StoppingRule::ErrorBelow {
                eps: 1e-6,
                check_every: 1,
            })
            .run()
            .unwrap();
        assert!(res.stopped_early);
        assert!(vecops::max_abs_diff(&res.final_x, &xstar) <= 1e-6);
        // Fires essentially as soon as possible: one more sweep would
        // overshoot by at most the contraction factor.
    }

    #[test]
    fn tracker_counts_boundaries() {
        let mut t = OnlineMacroTracker::new(2);
        assert_eq!(t.observe(1, &[0], 0), None);
        assert_eq!(t.observe(2, &[1], 0), Some(2));
        assert_eq!(t.completed(), 1);
        assert_eq!(t.last_boundary(), 2);
        // Next macro needs labels >= 2.
        assert_eq!(t.observe(3, &[0, 1], 1), None); // stale: ignored
        assert_eq!(t.observe(4, &[0, 1], 2), Some(4));
        assert_eq!(t.completed(), 2);
    }
}
