//! `replay_sparse` and `logistic_dense`: one schedule-driven solve through
//! `Session` + `Replay` to a residual target — Definition 1 executed
//! exactly, on an instance where the engine's bookkeeping dominates and
//! on one where the kernel does.

use super::{
    check_residual, operator_fingerprint, stream_seed, CostModel, Outcome, Workload, INSTANCE_SEED,
};
use crate::probes;
use crate::seams::{Meter, TimedOperator, TimedSchedule};
use crate::trace::Tracer;
use asynciter_core::session::{RecordMode, Replay, RunReport, Session};
use asynciter_core::stopping::StoppingRule;
use asynciter_models::schedule::{ChaoticBounded, ScheduleGen, UnboundedSqrtDelay};
use asynciter_numerics::sparse::CsrMatrix;
use asynciter_opt::logistic::LogisticGradOperator;
use asynciter_opt::prox::L1;
use asynciter_opt::proxgrad::{gamma_max, SparseProxGrad};
use asynciter_opt::quadratic::SparseQuadratic;
use asynciter_opt::traits::{Operator, SmoothObjective};
use asynciter_report::stream::hash_f64s;
use std::time::Instant;

/// Residual target of both solves.
const EPS: f64 = 1e-8;
/// Step budget; a solve that exhausts it has failed.
const BUDGET: u64 = 1_000_000;

/// The sparse prox-gradient family shared with `record_replay`:
/// `SparseProxGrad(random_diag_dominant(n, 8, 0.4, 1.0), L1(0.1))` at
/// `γ = 0.9·γ_max`.
pub fn sparse_prox_grad(n: usize) -> Result<SparseProxGrad<L1>, String> {
    let f = SparseQuadratic::random_diag_dominant(n, 8, 0.4, 1.0, INSTANCE_SEED)
        .map_err(|e| e.to_string())?;
    let gamma = 0.9 * gamma_max(f.strong_convexity(), f.lipschitz());
    SparseProxGrad::new(f, L1::new(0.1), gamma).map_err(|e| e.to_string())
}

/// A schedule-driven solve of one operator.
pub struct ReplaySolve<O> {
    op: O,
    seed: u64,
    schedule: fn(usize, u64) -> Box<dyn ScheduleGen>,
    /// Residual check period, in steps.
    check_every: u64,
    csr: fn(&O) -> Option<&CsrMatrix>,
    cost: CostModel,
}

/// Engine-bound: `n = 16384`, 8 neighbours per row, `√j`-growing
/// out-of-order delays. Each step assembles all `n` labels from history
/// but updates only `n/8 … n/4` components of ≈17 entries each.
pub fn replay_sparse(seed: u64) -> Result<ReplaySolve<SparseProxGrad<L1>>, String> {
    let n = 16_384;
    let op = sparse_prox_grad(n)?;
    let cost = CostModel::csr(n, op.f().q().nnz());
    Ok(ReplaySolve {
        op,
        seed,
        schedule: |n, seed| Box::new(UnboundedSqrtDelay::new(n, n / 8, n / 4, 1.0, seed)),
        check_every: 16,
        csr: |op| Some(op.f().q()),
        cost,
    })
}

/// Kernel-bound: the paper's machine-learning case, `n = 128` features
/// over `m = 8192` samples. Every block update passes over the whole
/// dense data matrix. The data set is fixed; the seed drives the
/// schedule.
pub fn logistic_dense(seed: u64) -> Result<ReplaySolve<LogisticGradOperator>, String> {
    let (n, m) = (128, 8192);
    let op = LogisticGradOperator::certified_random(n, m, 2.0, INSTANCE_SEED)
        .map_err(|e| e.to_string())?;
    let (nf, mf) = (n as f64, m as f64);
    // Per call: the sample-weight pass (a dot product of length n and a
    // sigmoid per sample) reads the data matrix once. Per component: a
    // weighted column sum over the m samples.
    let cost = CostModel {
        call_flops: mf * (2.0 * nf + 4.0),
        call_bytes: mf * (8.0 * nf + 16.0),
        comp_flops: 2.0 * mf,
        comp_bytes: 16.0 * mf,
        n: nf,
    };
    Ok(ReplaySolve {
        op,
        seed,
        schedule: |n, seed| Box::new(ChaoticBounded::new(n, n / 4, n / 2, 16, false, seed)),
        // A solve is ≈ 150 steps: checking every 16th would quantise the
        // steps to target, and with them the solve time, in units of 10 %.
        check_every: 4,
        csr: |_| None,
        cost,
    })
}

fn solve(
    op: &dyn Operator,
    schedule: impl ScheduleGen,
    check_every: u64,
) -> Result<RunReport, String> {
    Session::new(op)
        .steps(BUDGET)
        .schedule(schedule)
        .stopping(StoppingRule::Residual {
            eps: EPS,
            check_every,
        })
        .record(RecordMode::Off)
        .backend(Replay)
        .run()
        .map_err(|e| e.to_string())
}

impl<O: Operator> Workload for ReplaySolve<O> {
    fn fingerprint(&self) -> u64 {
        operator_fingerprint(&self.op)
    }

    fn op(&mut self, stream: u64, tracer: Option<&Tracer>) -> Outcome {
        let schedule = (self.schedule)(self.op.dim(), stream_seed(self.seed, stream));
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        let start = Instant::now();
        let result = match tracer {
            None => solve(&self.op, schedule, self.check_every),
            Some(t) => {
                let timed = TimedOperator::new(&self.op);
                let meter = Meter::default();
                let result = t.span("core.session_run", || {
                    solve(
                        &timed,
                        TimedSchedule::new(schedule, &meter),
                        self.check_every,
                    )
                });
                t.fold("core.session_run", "opt.update", timed.update.totals());
                t.fold("core.session_run", "opt.residual", timed.residual.totals());
                t.fold("core.session_run", "models.schedule", meter.totals());
                result
            }
        };
        out.wall_s = start.elapsed().as_secs_f64();
        match result {
            Ok(report) => {
                out.steps = report.steps;
                out.hash = hash_f64s(&report.final_x);
                out.counters
                    .push(("models.macro_iterations", report.macro_iterations as f64));
                if !report.stopped_early {
                    out.fail(format!("no residual {EPS:e} within {BUDGET} steps"));
                }
                check_residual(&mut out, &self.op, &report.final_x, EPS, 1.0);
            }
            Err(e) => out.fail(e),
        }
        out
    }

    fn verify(&mut self, _reference: &Outcome) -> Outcome {
        Outcome::default()
    }

    fn cost(&self) -> CostModel {
        self.cost
    }

    fn probes(&mut self, _reference: &Outcome) -> Vec<(&'static str, f64)> {
        let n = self.op.dim();
        let mut out = probes::history(n, (self.schedule)(n, stream_seed(self.seed, 0)).as_mut());
        if let Some(q) = (self.csr)(&self.op) {
            out.extend(probes::csr(q));
        }
        out
    }
}
