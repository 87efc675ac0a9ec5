//! Canned scenarios reproducing the paper's figures and examples.
//!
//! - [`fig1`] — the two-processor asynchronous iteration of Fig. 1:
//!   heterogeneous phase durations, values exchanged at the end of each
//!   updating phase.
//! - [`fig2`] — Fig. 2: the same with flexible communication (partial
//!   updates leave mid-phase).
//! - [`baudet`] — the §II example: `P1` updates in one tick, `P2`'s
//!   `k`-th phase takes `k` ticks; delays grow like `√j`.
//!
//! Each scenario pairs a concrete 2-component contraction (so the
//! simulated arithmetic is real) with the compute/latency models that
//! produce the figure's shape; how long it runs is the session's
//! `.steps(..)`.

use crate::compute::{ComputeModel, LatencyModel};
use crate::runner::SimConfig;
use asynciter_models::partition::Partition;
use asynciter_numerics::sparse::CsrMatrix;
use asynciter_opt::linear::JacobiOperator;

/// The 2×2 strictly diagonally dominant system used by the figure
/// scenarios: `F(x) = ((1 + x₂)/2, (2 + x₁)/3)`, a max-norm contraction
/// with factor `1/2` and fixed point `(1, 1)` (solve `2x₁ − x₂ = 1`,
/// `−x₁ + 3x₂ = 2`) — any 2-component contraction works; this one keeps
/// the arithmetic human-checkable.
pub fn two_component_operator() -> JacobiOperator {
    let a = CsrMatrix::from_triplets(
        2,
        2,
        &[(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 3.0)],
    )
    .expect("static matrix");
    JacobiOperator::new(a, vec![1.0, 2.0]).expect("valid system")
}

/// Fig. 1 scenario: two processors, `P1` phases of 3 ticks, `P2` phases
/// jittering in `[4, 7]`, unit link latency, end-of-phase exchange only.
pub fn fig1(seed: u64) -> SimConfig {
    SimConfig {
        partition: Partition::identity(2),
        compute: vec![
            ComputeModel::Fixed { ticks: 3 },
            ComputeModel::Uniform { lo: 4, hi: 7 },
        ],
        latency: LatencyModel::Fixed { ticks: 1 },
        inner_steps: 1,
        partial_sends: 0,
        seed,
    }
}

/// Fig. 2 scenario: as [`fig1`] but each phase runs 4 inner iterations
/// and sends 2 partial updates mid-phase (the hatched arrows).
pub fn fig2(seed: u64) -> SimConfig {
    let mut cfg = fig1(seed);
    cfg.compute = vec![
        ComputeModel::Fixed { ticks: 6 },
        ComputeModel::Uniform { lo: 8, hi: 12 },
    ];
    cfg.inner_steps = 4;
    cfg.partial_sends = 2;
    cfg
}

/// Baudet's example: `P1` updates `x₁` in one tick, `P2`'s `k`-th phase
/// takes `k` ticks; exchange at phase end with (near-)zero latency.
pub fn baudet() -> SimConfig {
    SimConfig {
        partition: Partition::identity(2),
        compute: vec![
            ComputeModel::Fixed { ticks: 1 },
            ComputeModel::Baudet { scale: 1 },
        ],
        latency: LatencyModel::Fixed { ticks: 0 },
        inner_steps: 1,
        partial_sends: 0,
        seed: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::tests::simulate;
    use asynciter_models::analysis::{delay_growth_exponent, delay_series};
    use asynciter_opt::traits::Operator;

    #[test]
    fn two_component_operator_contracts() {
        let op = two_component_operator();
        assert_eq!(op.dim(), 2);
        assert!(op.contraction_factor() < 1.0);
        let xstar = op.solve_dense_spd().unwrap();
        // Fixed point: 2x₀ − x₁ = 1, −x₀ + 3x₁ = 2 → x = (1, 1).
        assert!((xstar[0] - 1.0).abs() < 1e-12);
        assert!((xstar[1] - 1.0).abs() < 1e-12);
        // And F fixes (1, 1) exactly: (1+1)/2 = 1, (2+1)/3 = 1.
        assert_eq!(op.component(0, &[1.0, 1.0]), 1.0);
        assert_eq!(op.component(1, &[1.0, 1.0]), 1.0);
    }

    #[test]
    fn fig1_scenario_produces_expected_shape() {
        let op = two_component_operator();
        let (_, timeline) = simulate(&op, &[0.0, 0.0], &fig1(1), 30, (None, 0)).unwrap();
        timeline.validate().unwrap();
        // P1 is faster → more phases.
        assert!(timeline.phases_of(0).len() > timeline.phases_of(1).len());
        // Every full communication present, no partials.
        assert_eq!(timeline.partial_count(), 0);
        assert_eq!(timeline.comms.len(), 30); // one per completion (to 1 peer)
    }

    #[test]
    fn fig2_scenario_has_partials() {
        let op = two_component_operator();
        let (_, timeline) = simulate(&op, &[0.0, 0.0], &fig2(1), 20, (None, 0)).unwrap();
        timeline.validate().unwrap();
        assert!(timeline.partial_count() > 0);
    }

    #[test]
    fn baudet_scenario_reproduces_sqrt_delay_growth() {
        let op = two_component_operator();
        let (res, _) = simulate(&op, &[0.0, 0.0], &baudet(), 30_000, (None, 0)).unwrap();
        let trace = res.trace.expect("recorded");
        // Delay of x₂'s information at P1's steps grows like √j.
        let series: Vec<(u64, u64)> = delay_series(&trace, 1)
            .unwrap()
            .into_iter()
            .zip(trace.iter())
            .filter(|(_, (_, s))| s.active.as_slice() == [0])
            .map(|(d, _)| d)
            .collect();
        let (_, p, r2) = delay_growth_exponent(&series, 1024).expect("fit");
        assert!(
            (p - 0.5).abs() < 0.1,
            "delay exponent {p} (r² = {r2}) not ~ 0.5"
        );
    }

    #[test]
    fn baudet_sim_matches_analytic_trace_shape() {
        // The simulator's Baudet run must agree with the closed-form
        // construction in asynciter-models on the P2 update density.
        let op = two_component_operator();
        let (res, _) = simulate(&op, &[0.0, 0.0], &baudet(), 10_000, (None, 0)).unwrap();
        let p2_updates = res
            .trace
            .expect("recorded")
            .iter()
            .filter(|(_, s)| s.active.as_slice() == [1])
            .count() as f64;
        let expected = (2.0 * 10_000f64).sqrt();
        assert!(
            (p2_updates / expected - 1.0).abs() < 0.2,
            "P2 update count {p2_updates} vs ~{expected}"
        );
    }
}
