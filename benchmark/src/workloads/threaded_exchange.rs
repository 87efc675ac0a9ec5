//! `threaded_exchange`: two free-running worker threads exchanging
//! 512-component block messages over `MpscTransport`, with hold / drop /
//! duplicate faults injected at the seam. The operator is a tridiagonal
//! Jacobi sweep (3 entries per row, contraction ≈ 0.99975), so a solve is
//! ≈ 170 000 block steps whose arithmetic is a small share of the
//! worker's time: the rest is transport, message allocation, applying
//! messages, event logging and the shared step counter.

use super::{check_residual, operator_fingerprint, stream_seed, CostModel, Outcome, Workload};
use crate::probes;
use crate::seams::{TimedOperator, TimedTransport};
use crate::trace::Tracer;
use asynciter_core::session::{Replay, Session};
use asynciter_models::partition::Partition;
use asynciter_models::trace::LabelStore;
use asynciter_numerics::sparse::tridiagonal;
use asynciter_opt::linear::JacobiOperator;
use asynciter_opt::traits::Operator;
use asynciter_report::stream::hash_f64s;
use asynciter_runtime::transport::{FaultPlan, Transport};
use asynciter_runtime::{MpscTransport, ThreadedClusterEngine, ThreadedConfig, ThreadedRunResult};
use std::time::Instant;

const N: usize = 1024;
const WORKERS: usize = 2;
const EPS: f64 = 1e-9;
const BUDGET: u64 = 100_000_000;
/// Worker 0 stops on the residual of its *local view*; the consensus
/// vector assembled afterwards mixes in the peer's block, whose latest
/// values worker 0 may not have received. The external check therefore
/// allows the consensus this factor over the target.
const CONSENSUS_SLACK: f64 = 4.0;
/// Steps of the untimed fully-recorded run that is replayed bitwise. A
/// full-label record costs `8·n` bytes per step, so the check runs on a
/// prefix, not on a whole solve.
const RECORDED_STEPS: u64 = 4096;

/// The two-worker threaded solve.
pub struct ThreadedExchange {
    op: JacobiOperator,
    seed: u64,
}

impl ThreadedExchange {
    /// Builds `JacobiOperator(tridiagonal(1024, 2.0005, −1), 1)`. The
    /// matrix does not depend on the seed; the fault streams do.
    pub fn new(seed: u64) -> Result<Self, String> {
        let op = JacobiOperator::new(tridiagonal(N, 2.0005, -1.0), vec![1.0; N])
            .map_err(|e| e.to_string())?;
        Ok(Self { op, seed })
    }

    /// The run configuration, fault streams drawn from `stream`.
    fn config(&self, stream: u64) -> ThreadedConfig {
        let mut cfg = ThreadedConfig::new(BUDGET)
            .with_faults(0.15, 0.05, 0.05)
            .with_seed(stream_seed(self.seed, stream))
            .with_record(LabelStore::MinOnly)
            .with_target_residual(EPS);
        cfg.check_every = 64;
        cfg
    }

    fn run(
        &self,
        op: &dyn Operator,
        workers: usize,
        cfg: &ThreadedConfig,
        transport: &mut dyn Transport,
    ) -> Result<ThreadedRunResult, String> {
        let partition = Partition::blocks(N, workers).map_err(|e| e.to_string())?;
        ThreadedClusterEngine::run_with(op, &[0.0; N], &partition, cfg, transport)
            .map_err(|e| e.to_string())
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl Workload for ThreadedExchange {
    fn threads(&self) -> usize {
        WORKERS
    }

    fn deterministic(&self) -> bool {
        false
    }

    fn fingerprint(&self) -> u64 {
        operator_fingerprint(&self.op)
    }

    fn op(&mut self, stream: u64, tracer: Option<&Tracer>) -> Outcome {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        let cfg = self.config(stream);
        let start = Instant::now();
        let result = match tracer {
            None => self.run(&self.op, WORKERS, &cfg, &mut MpscTransport),
            Some(t) => {
                let timed = TimedOperator::new(&self.op);
                let mut transport = TimedTransport::new(MpscTransport);
                let name = "runtime.threaded.run";
                let result = t.span(name, || self.run(&timed, WORKERS, &cfg, &mut transport));
                t.fold(name, "opt.update", timed.update.totals());
                t.fold(name, "opt.residual", timed.residual.totals());
                let m = &transport.meters;
                t.fold(name, "runtime.transport.send", m.send.totals());
                t.fold(name, "runtime.transport.recv", m.recv.totals());
                t.fold(name, "runtime.transport.empty_poll", m.empty.totals());
                result
            }
        };
        out.wall_s = start.elapsed().as_secs_f64();
        match result {
            Ok(run) => {
                out.steps = run.steps_run;
                out.hash = hash_f64s(&run.consensus);
                if !run.stopped_early {
                    out.fail(format!("no residual {EPS:e} within {BUDGET} steps"));
                }
                check_residual(&mut out, &self.op, &run.consensus, EPS, CONSENSUS_SLACK);
                let s = &run.stats;
                let (most, least) = run
                    .per_worker_updates
                    .iter()
                    .fold((0, u64::MAX), |(hi, lo), &u| (hi.max(u), lo.min(u)));
                let wall = run.wall.as_secs_f64();
                out.counters.extend([
                    ("runtime.threaded.steps", run.steps_run as f64),
                    ("runtime.threaded.steps_per_s", run.steps_run as f64 / wall),
                    ("runtime.threaded.msgs_per_s", s.delivered as f64 / wall),
                    ("runtime.threaded.dropped_share", share(s.dropped, s.sent)),
                    ("runtime.threaded.held_share", share(s.held, s.sent)),
                    ("runtime.threaded.update_imbalance", share(most, least)),
                ]);
            }
            Err(e) => out.fail(e),
        }
        out
    }

    /// One untimed run recorded with full labels, replayed bitwise
    /// through `Replay`: the racy run did exactly what its trace says.
    fn verify(&mut self, _reference: &Outcome) -> Outcome {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        let mut cfg = self.config(0).with_record(LabelStore::Full);
        cfg.max_steps = RECORDED_STEPS;
        cfg.target_residual = None;
        let replay = self
            .run(&self.op, WORKERS, &cfg, &mut MpscTransport)
            .and_then(|run| {
                let replayed = Session::new(&self.op)
                    .replay_trace(run.trace)
                    .and_then(|s| s.backend(Replay).run())
                    .map_err(|e| e.to_string())?;
                Ok(hash_f64s(&replayed.final_x) == hash_f64s(&run.consensus))
            });
        match replay {
            Ok(true) => {}
            Ok(false) => out.fail("recorded threaded run does not replay bitwise".into()),
            Err(e) => out.fail(e),
        }
        out
    }

    fn cost(&self) -> CostModel {
        CostModel::csr(N, self.op.a().nnz())
    }

    /// The same problem on one worker (no exchange, whole-vector sweeps)
    /// for the scaling figure, and single-thread round trips through the
    /// transport with and without the fault layer.
    fn probes(&mut self, reference: &Outcome) -> Vec<(&'static str, f64)> {
        let mut out = probes::csr(self.op.a());
        let plan = FaultPlan {
            hold_prob: 0.15,
            hold_extra: 8,
            drop_prob: 0.05,
            dup_prob: 0.05,
        };
        out.extend(probes::transport(N / WORKERS, plan, self.seed));
        let start = Instant::now();
        if let Ok(solo) = self.run(&self.op, 1, &self.config(0), &mut MpscTransport) {
            let wall = start.elapsed().as_secs_f64();
            let solo_rate = solo.steps_run as f64 / wall;
            // Component updates per second: a 1-worker step updates the
            // whole vector, a 2-worker step half of it.
            let solo_updates = solo_rate * N as f64;
            let pair_updates = reference.steps as f64 / reference.wall_s * (N / WORKERS) as f64;
            out.push(("runtime.threaded.steps_per_s_1w", solo_rate));
            out.push((
                "runtime.threaded.scaling_eff_2w",
                pair_updates / (WORKERS as f64 * solo_updates),
            ));
        }
        out
    }
}
