//! Discrete-event-simulator backend for the unified [`Session`] API:
//! the one door into the simulator.
//!
//! [`Sim`] is the simulated machine — one compute model per processor,
//! the link model, the flexible-communication settings — and runs
//! straight off the session's `Problem` and [`RunControl`] into the
//! `RunReport`. Its processor count is `compute.len()`, and the
//! components split into that many contiguous blocks as on every runtime
//! backend. `max_steps` is the budget of global iterations, error *and*
//! residual sampling and every `StoppingRule` are honoured (the event
//! loop tells the shared `asynciter-core` `Observer` each phase end),
//! `record` decides whether a trace is built at all, and the session's
//! seed drives every compute and latency draw — so the same session
//! drives replay, threads and simulation interchangeably. Only an
//! explicit schedule is rejected: the event loop generates its own.
//!
//! [`Session`]: asynciter_core::session::Session

use crate::compute::ComputeModel;
use crate::runner::{self, NAME};
use crate::timeline::Timeline;
use asynciter_core::session::{Backend, Problem, RunControl, RunReport};
use asynciter_core::{CoreError, Result};
use asynciter_models::channel::LinkModel;
use asynciter_models::partition::Partition;
use asynciter_runtime::session::block_partition;

/// The simulator backend: the simulated machine — how long phases and
/// messages take, and how a phase communicates. How long to run, what to
/// sample, when to stop, what to keep and the seed of every draw are the
/// session's [`RunControl`].
///
/// Constructible with functional-update syntax:
/// `Sim { inner_steps: 4, partial_sends: 2, ..Sim::uniform(2) }`.
#[derive(Debug, Clone)]
pub struct Sim {
    /// One compute-time model per processor: their number is the
    /// processor count, and processor `p` owns the `p`-th of as many
    /// contiguous component blocks.
    pub compute: Vec<ComputeModel>,
    /// Link latency model in ticks (shared by all links; latencies are
    /// drawn independently per message).
    pub link: LinkModel,
    /// Inner iterations per phase (`m ≥ 1`).
    pub inner_steps: usize,
    /// Mid-phase partial sends per phase: 0 is classic asynchronous, and
    /// there is at most one after each interior inner iteration, so
    /// fewer than `inner_steps`.
    pub partial_sends: usize,
}

impl Sim {
    /// `procs` processors with fixed unit compute times, unit latency,
    /// one inner step per phase and no partial sends.
    pub fn uniform(procs: usize) -> Self {
        Self {
            compute: vec![ComputeModel::Fixed { ticks: 1 }; procs],
            link: LinkModel::Fixed { ticks: 1 },
            inner_steps: 1,
            partial_sends: 0,
        }
    }

    /// True when no value leaves a processor mid-phase, so each phase is
    /// arithmetically `inner_steps` inner iterations of one scheduled
    /// step: the recorded trace, replayed through
    /// `Flexible { m: inner_steps, partial: false }` — the `Replay`
    /// engine when `inner_steps == 1` — must reproduce the simulated
    /// iterates *bit for bit*. The conformance fuzzer's cross-backend
    /// oracle only injects traces from machines satisfying this
    /// predicate; mid-phase partials have no scheduled-step replay form.
    pub fn replay_equivalent(&self) -> bool {
        self.partial_sends == 0
    }

    /// Checks the machine against a problem of dimension `n`, once,
    /// before the event loop, and returns its component → processor map.
    pub(crate) fn check(&self, n: usize) -> Result<Partition> {
        let partition = block_partition("compute", n, self.compute.len())?;
        let invalid = |name, message| CoreError::InvalidParameter { name, message };
        if self.inner_steps == 0 {
            return Err(invalid("inner_steps", "must be positive".into()));
        }
        // `inner_steps ≥ 1` from here, so no partials always fit.
        if self.partial_sends >= self.inner_steps {
            return Err(invalid(
                "partial_sends",
                format!(
                    "must be below inner_steps = {} (at most one after each interior \
                     inner iteration), got {}",
                    self.inner_steps, self.partial_sends
                ),
            ));
        }
        for model in &self.compute {
            model.validate().map_err(|m| invalid("compute", m))?;
        }
        self.link.validate().map_err(|m| invalid("link", m))?;
        Ok(partition)
    }

    /// [`Backend::run`] that also hands out the [`Timeline`] of the run —
    /// the phases and communications behind the paper's Fig. 1 / Fig. 2,
    /// which the `RunReport` has no field for.
    ///
    /// # Errors
    /// An explicit schedule, controls `RunControl::check` rejects, a
    /// machine that does not fit the problem (no compute model or more
    /// than `n`, zero `inner_steps`, `partial_sends ≥ inner_steps`, a
    /// degenerate compute or link model), or a non-finite iterate.
    pub fn run_with_timeline(
        &self,
        problem: &Problem<'_>,
        ctl: &mut RunControl<'_>,
    ) -> Result<(RunReport, Timeline)> {
        ctl.reject_schedule(NAME, "the event loop generates its own")?;
        runner::run(self, problem, ctl)
    }
}

impl Backend for Sim {
    fn name(&self) -> &'static str {
        NAME
    }

    fn run(&mut self, problem: &Problem<'_>, ctl: &mut RunControl<'_>) -> Result<RunReport> {
        let (report, _) = self.run_with_timeline(problem, ctl)?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_core::compare::{same_run, Fields};
    use asynciter_core::session::{Flexible, RecordMode, Replay, Session};
    use asynciter_core::StoppingRule;
    use asynciter_models::schedule::SyncJacobi;
    use asynciter_numerics::norm::WeightedMaxNorm;
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_opt::linear::JacobiOperator;
    use asynciter_opt::traits::Operator;

    fn jacobi(n: usize) -> JacobiOperator {
        JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
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
            .backend(Sim::uniform(2))
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
        let sim = Session::new(&op).steps(40).backend(Sim::uniform(1)).run();
        let sim = sim.unwrap();
        let replay = Session::new(&op).steps(40).backend(Replay).run().unwrap();
        assert_eq!(same_run(&sim, &replay, Fields::Definition1), Ok(()));
    }

    #[test]
    fn sim_honours_stopping_rules_and_residual_sampling() {
        let op = jacobi(12);
        let xstar = op.solve_dense_spd().unwrap();
        let sim = Sim {
            compute: vec![ComputeModel::Uniform { lo: 1, hi: 5 }; 3],
            link: LinkModel::Jitter { lo: 1, hi: 9 },
            inner_steps: 2,
            ..Sim::uniform(3)
        };
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
        let unstopped = session().backend(sim.clone()).run().unwrap();
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
            let stopped = session().stopping(rule.clone()).backend(sim.clone());
            let stopped = stopped.run().unwrap();
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
            let same = same_run(&replayed, &stopped, Fields::Definition1);
            assert_eq!(same, Ok(()), "{rule:?}");
        }
        // A control the backend cannot honour is reported, not dropped.
        let err = Session::new(&op)
            .steps(10)
            .schedule(SyncJacobi::new(12))
            .backend(sim)
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
            let sim = Sim {
                inner_steps: 2,
                partial_sends,
                ..Sim::uniform(2)
            };
            let err = Session::new(&UpperBlockDiverges)
                .x0(vec![1.0; 4])
                .steps(200)
                .backend(sim)
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
        let (nan, jitter) = (f64::NAN, LinkModel::Jitter { lo: 5, hi: 2 });
        let heavy_compute = |alpha| ComputeModel::HeavyTail { scale: 1, alpha };
        let heavy_link = |alpha| LinkModel::HeavyTail { scale: 1, alpha };
        let compute = |model: ComputeModel| Sim {
            compute: vec![ComputeModel::Fixed { ticks: 1 }, model],
            ..Sim::uniform(2)
        };
        let link = |link: LinkModel| Sim {
            link,
            ..Sim::uniform(2)
        };
        let rows = [
            (Sim::uniform(2), 7, "Session (xstar)"),
            (
                compute(ComputeModel::Uniform { lo: 5, hi: 2 }),
                8,
                "compute",
            ),
            (compute(heavy_compute(0.0)), 8, "compute"),
            (compute(heavy_compute(nan)), 8, "compute"),
            (link(jitter), 8, "link"),
            (link(heavy_link(0.0)), 8, "link"),
            (link(heavy_link(nan)), 8, "link"),
        ];
        for (sim, xstar_len, want) in rows {
            let tag = format!("{sim:?}");
            let run = Session::new(&op)
                .steps(50)
                .xstar(vec![0.0; xstar_len])
                .error_every(1)
                .backend(sim)
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
