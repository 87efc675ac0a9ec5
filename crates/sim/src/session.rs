//! Discrete-event-simulator backend for the unified [`Session`] API:
//! the one door into the simulator.
//!
//! [`Sim`] wraps a [`SimConfig`] — the simulated machine: partition,
//! compute models, latency model, flexible-communication settings — and
//! runs it straight off the session's `Problem` and [`RunControl`] into
//! the `RunReport`. `max_steps` is the budget of global iterations,
//! error *and* residual sampling and every `StoppingRule` are honoured
//! (the event loop tells the shared `asynciter-core` `Observer` each
//! phase end), `record` decides whether a trace is built at all, and an
//! explicitly set session seed replaces the config seed — so the same
//! session drives replay, threads and simulation interchangeably. Only
//! an explicit schedule is rejected: the event loop generates its own.
//!
//! [`Session`]: asynciter_core::session::Session

use crate::runner::{self, SimConfig, NAME};
use crate::timeline::Timeline;
use asynciter_core::session::{Backend, Problem, RunControl, RunReport};

/// The simulator backend: `Sim(config)`.
///
/// The wrapped [`SimConfig`] carries everything execution-specific
/// (partition, per-processor compute models, link latency, inner steps,
/// partial sends); the session supplies problem and observation controls.
#[derive(Debug, Clone)]
pub struct Sim(pub SimConfig);

impl Sim {
    /// [`Backend::run`] that also hands out the [`Timeline`] of the run —
    /// the phases and communications behind the paper's Fig. 1 / Fig. 2,
    /// which the `RunReport` has no field for.
    ///
    /// # Errors
    /// An explicit schedule, controls `RunControl::check` rejects, a
    /// configuration that does not fit the problem (partition or
    /// compute-model count, zero `inner_steps`, a degenerate compute or
    /// latency model), or a non-finite iterate.
    pub fn run_with_timeline(
        &self,
        problem: &Problem<'_>,
        ctl: &mut RunControl<'_>,
    ) -> asynciter_core::Result<(RunReport, Timeline)> {
        ctl.reject_schedule(NAME, "the event loop generates its own")?;
        runner::run(&self.0, problem, ctl)
    }
}

impl Backend for Sim {
    fn name(&self) -> &'static str {
        NAME
    }

    fn run(
        &mut self,
        problem: &Problem<'_>,
        ctl: &mut RunControl<'_>,
    ) -> asynciter_core::Result<RunReport> {
        let (report, _) = self.run_with_timeline(problem, ctl)?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{ComputeModel, LatencyModel};
    use asynciter_core::session::{Flexible, RecordMode, Replay, Session};
    use asynciter_core::{CoreError, StoppingRule};
    use asynciter_models::partition::Partition;
    use asynciter_models::schedule::SyncJacobi;
    use asynciter_numerics::norm::WeightedMaxNorm;
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_opt::linear::JacobiOperator;
    use asynciter_opt::traits::Operator;

    fn jacobi(n: usize) -> JacobiOperator {
        JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
    }

    fn uniform(n: usize, procs: usize) -> SimConfig {
        SimConfig::uniform(Partition::blocks(n, procs).unwrap())
    }

    #[test]
    fn sim_backend_runs_and_reports() {
        let op = jacobi(8);
        let xstar = op.solve_dense_spd().unwrap();
        let report = Session::new(&op)
            .steps(500)
            .xstar(xstar.clone())
            .error_every(50)
            .record(RecordMode::Full)
            .backend(Sim(uniform(8, 2)))
            .run()
            .unwrap();
        assert_eq!(report.backend, "sim");
        assert_eq!(report.steps, 500);
        assert_eq!(report.errors.len(), 10);
        assert!(report.sim_time.is_some());
        assert_eq!(report.per_worker_updates.iter().sum::<u64>(), 500);
        assert!(report.final_error(&xstar) < 1e-9);
        assert!(report.trace.is_some());
        assert!(report.macro_iterations > 0);
    }

    #[test]
    fn single_proc_sim_matches_replay_bitwise() {
        // One processor, unit compute, one inner step: each phase is a
        // full Jacobi sweep on fresh data — identical arithmetic to the
        // replay engine's synchronous schedule.
        let op = jacobi(10);
        let cfg = uniform(10, 1);
        let sim = Session::new(&op).steps(40).backend(Sim(cfg)).run().unwrap();
        let replay = Session::new(&op).steps(40).backend(Replay).run().unwrap();
        assert_eq!(sim.final_x, replay.final_x);
        assert_eq!(sim.steps, replay.steps);
    }

    #[test]
    fn sim_honours_stopping_rules_and_residual_sampling() {
        let op = jacobi(12);
        let xstar = op.solve_dense_spd().unwrap();
        let mut cfg = uniform(12, 3);
        cfg.compute = vec![ComputeModel::Uniform { lo: 1, hi: 5 }; 3];
        cfg.latency = LatencyModel::Jitter { lo: 1, hi: 9 };
        cfg.inner_steps = 2;
        let budget = 5_000;
        // Error samples at every step give each phase's end time.
        let session = || {
            Session::new(&op)
                .steps(budget)
                .seed(11)
                .xstar(xstar.clone())
                .error_every(1)
                .residual_every(7)
                .record(RecordMode::Full)
        };
        let unstopped = session().backend(Sim(cfg.clone())).run().unwrap();
        assert!(!unstopped.stopped_early && unstopped.steps == budget);
        let trace = unstopped.trace.unwrap();
        let rules = [
            StoppingRule::Residual {
                eps: 1e-9,
                check_every: 4,
            },
            StoppingRule::ErrorBelow {
                eps: 1e-9,
                check_every: 3,
            },
            StoppingRule::MacroContraction {
                eps: 1e-9,
                alpha: op.contraction_factor(),
                norm: WeightedMaxNorm::uniform(12),
            },
        ];
        for rule in rules {
            let sim = Sim(cfg.clone());
            let stopped = session().stopping(rule.clone()).backend(sim).run().unwrap();
            assert!(stopped.stopped_early && stopped.steps < budget, "{rule:?}");
            let stop_end = unstopped.error_times[stopped.steps as usize - 1];
            assert_eq!(stopped.sim_time, Some(stop_end), "{rule:?}");
            assert_eq!(stopped.residuals.len() as u64, stopped.steps / 7);
            // The independent feed into the shared observer: the core
            // loop replaying the unstopped run's trace under the rule.
            let replayed = session()
                .replay_trace(trace.clone())
                .unwrap()
                .stopping(rule.clone())
                .backend(Flexible {
                    m: 2,
                    partial: false,
                    ..Flexible::default()
                })
                .run()
                .unwrap();
            assert_eq!(replayed.steps, stopped.steps, "{rule:?}");
            assert_eq!(replayed.macro_iterations, stopped.macro_iterations);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&replayed.final_x), bits(&stopped.final_x), "{rule:?}");
        }
        // A control the backend cannot honour is reported, not dropped.
        let err = Session::new(&op)
            .steps(10)
            .schedule(SyncJacobi::new(12))
            .backend(Sim(cfg))
            .run()
            .unwrap_err();
        assert!(matches!(err, CoreError::Backend { .. }), "{err}");
    }

    /// Halves the lower block; the upper block turns NaN once it reads
    /// `x_0 < 0.01`.
    struct UpperBlockDiverges;

    impl Operator for UpperBlockDiverges {
        fn dim(&self) -> usize {
            4
        }
        fn component(&self, i: usize, x: &[f64]) -> f64 {
            if i >= 2 && x[0] < 0.01 {
                f64::NAN
            } else {
                0.5 * x[i]
            }
        }
    }

    #[test]
    fn a_non_finite_iterate_is_rejected_before_it_is_sent() {
        // Used to run to `Ok` with NaN in `final_x` and a finite
        // `final_residual` (`f64::max` drops NaN).
        for partial_sends in [0, 1] {
            let mut cfg = uniform(4, 2);
            (cfg.inner_steps, cfg.partial_sends) = (2, partial_sends);
            let err = Session::new(&UpperBlockDiverges)
                .x0(vec![1.0; 4])
                .steps(200)
                .backend(Sim(cfg))
                .run()
                .unwrap_err();
            assert!(
                matches!(err, CoreError::NonFiniteIterate { at_step, component: 2 } if at_step > 1),
                "{err:?}"
            );
        }
    }

    #[test]
    fn caller_input_that_used_to_panic_is_a_typed_error() {
        let op = jacobi(8);
        let (nan, jitter) = (f64::NAN, LatencyModel::Jitter { lo: 5, hi: 2 });
        let heavy_compute = |alpha| ComputeModel::HeavyTail { scale: 1, alpha };
        let heavy_latency = |alpha| LatencyModel::HeavyTail { scale: 1, alpha };
        let compute = |model: ComputeModel| SimConfig {
            compute: vec![ComputeModel::Fixed { ticks: 1 }, model],
            ..uniform(8, 2)
        };
        let latency = |latency: LatencyModel| SimConfig {
            latency,
            ..uniform(8, 2)
        };
        let rows = [
            (uniform(8, 2), 7, "Session (xstar)"),
            (
                compute(ComputeModel::Uniform { lo: 5, hi: 2 }),
                8,
                "compute",
            ),
            (compute(heavy_compute(0.0)), 8, "compute"),
            (compute(heavy_compute(nan)), 8, "compute"),
            (latency(jitter), 8, "latency"),
            (latency(heavy_latency(0.0)), 8, "latency"),
            (latency(heavy_latency(nan)), 8, "latency"),
        ];
        for (cfg, xstar_len, want) in rows {
            let tag = format!("{cfg:?}");
            let run = Session::new(&op)
                .steps(50)
                .xstar(vec![0.0; xstar_len])
                .error_every(1)
                .backend(Sim(cfg))
                .run();
            let got = match run {
                Err(CoreError::DimensionMismatch { context, .. }) => context,
                Err(CoreError::InvalidParameter { name, .. }) => name,
                other => panic!("{tag}: expected a typed rejection, got {other:?}"),
            };
            assert_eq!(got, want, "{tag}");
        }
    }
}
