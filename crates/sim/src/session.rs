//! Discrete-event-simulator backend for the unified [`Session`] API.
//!
//! [`Sim`] wraps a [`SimConfig`] (compute models, latency model,
//! partition, flexible-communication settings) and runs it behind
//! `asynciter_core::session::Backend`. The session's [`RunControl`]
//! overrides the schedule-length controls — `max_steps` becomes
//! `max_iterations`, `error_every` and `record` map onto their simulator
//! equivalents, and an explicitly set session seed replaces the config
//! seed — so the same session drives replay, threads and simulation
//! interchangeably.
//!
//! [`Session`]: asynciter_core::session::Session
//! [`RunControl`]: asynciter_core::session::RunControl

use crate::runner::{SimConfig, Simulator};
use asynciter_core::session::{unsupported, Backend, Problem, RunControl, RunReport};
use asynciter_core::CoreError;

/// The simulator backend: `Sim(config)`.
///
/// The wrapped [`SimConfig`] carries everything execution-specific
/// (partition, per-processor compute models, link latency, inner steps,
/// partial sends); the session supplies problem and observation controls.
#[derive(Debug, Clone)]
pub struct Sim(pub SimConfig);

impl Backend for Sim {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(
        &mut self,
        problem: &Problem<'_>,
        ctl: &mut RunControl<'_>,
    ) -> asynciter_core::Result<RunReport> {
        if ctl.stopping.is_some() {
            return Err(unsupported(self.name(), "a stopping rule"));
        }
        if ctl.residual_every > 0 {
            return Err(unsupported(self.name(), "residual sampling"));
        }
        ctl.reject_schedule(self.name(), "the event loop generates its own")?;
        let mut cfg = self.0.clone();
        cfg.max_iterations = ctl.max_steps;
        cfg.error_every = ctl.error_every;
        cfg.record_labels = ctl.record.label_store();
        if let Some(seed) = ctl.seed {
            cfg.seed = seed;
        }
        let start = std::time::Instant::now();
        let res = Simulator::run(problem.op, &problem.x0, &cfg, problem.xstar.as_deref()).map_err(
            |e| CoreError::Backend {
                backend: self.name(),
                message: e.to_string(),
            },
        )?;
        let wall = start.elapsed();
        let final_residual = problem.op.residual_inf(&res.final_consensus);
        let steps = res.trace.len() as u64;
        Ok(RunReport {
            errors: res.errors,
            error_times: res.error_times,
            per_worker_updates: per_proc_phases(&res.timeline),
            partial_publishes: res.timeline.partial_count() as u64,
            sim_time: Some(res.end_time),
            wall,
            ..RunReport::new(self.name(), res.final_consensus, steps, final_residual)
        }
        .with_trace(res.trace, ctl.record))
    }
}

/// Completed phases per simulated processor.
fn per_proc_phases(timeline: &crate::timeline::Timeline) -> Vec<u64> {
    let mut counts = vec![0u64; timeline.num_procs];
    for phase in &timeline.phases {
        counts[phase.proc] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_core::session::{RecordMode, Replay, Session};
    use asynciter_models::partition::Partition;
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_opt::linear::JacobiOperator;

    fn jacobi(n: usize) -> JacobiOperator {
        JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
    }

    #[test]
    fn sim_backend_runs_and_reports() {
        let op = jacobi(8);
        let xstar = op.solve_dense_spd().unwrap();
        let cfg = SimConfig::uniform(Partition::blocks(8, 2).unwrap(), 1);
        let report = Session::new(&op)
            .steps(500)
            .xstar(xstar.clone())
            .error_every(50)
            .record(RecordMode::Full)
            .backend(Sim(cfg))
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
        let cfg = SimConfig::uniform(Partition::blocks(10, 1).unwrap(), 1);
        let sim = Session::new(&op).steps(40).backend(Sim(cfg)).run().unwrap();
        let replay = Session::new(&op).steps(40).backend(Replay).run().unwrap();
        assert_eq!(sim.final_x, replay.final_x);
        assert_eq!(sim.steps, replay.steps);
    }

    #[test]
    fn unsupported_controls_error_cleanly() {
        let op = jacobi(8);
        let cfg = SimConfig::uniform(Partition::blocks(8, 2).unwrap(), 1);
        let err = Session::new(&op)
            .steps(10)
            .residual_every(2)
            .backend(Sim(cfg))
            .run()
            .unwrap_err();
        assert!(matches!(err, CoreError::Backend { .. }), "{err}");
    }
}
