//! `record_replay`: the engine used the other way round — write, then
//! read. A deterministic 8-worker cluster run over a hostile channel is
//! recorded with full labels, serialised to text, parsed back, replayed
//! through `Replay`, and compared bitwise with the cluster's iterate.
//! This cycle is what the conformance, model-checking, gate and service
//! verification tiers spend their time on.

use super::solve::sparse_prox_grad;
use super::{
    check_residual, operator_fingerprint, span, stream_seed, CostModel, Outcome, Workload,
};
use crate::probes;
use crate::seams::TimedOperator;
use crate::trace::Tracer;
use asynciter_core::session::{Replay, RunReport, Session};
use asynciter_models::partition::Partition;
use asynciter_models::trace::LabelStore;
use asynciter_models::trace_io::{trace_from_str, trace_to_string};
use asynciter_opt::prox::L1;
use asynciter_opt::proxgrad::SparseProxGrad;
use asynciter_opt::traits::Operator;
use asynciter_report::stream::hash_f64s;
use asynciter_runtime::{ClusterConfig, ClusterEngine, ClusterRunResult, LinkModel};
use std::time::Instant;

const N: usize = 4096;
const WORKERS: usize = 8;
const EPS: f64 = 1e-8;
const BUDGET: u64 = 1_000_000;
/// Residual check period of the cluster run, in steps. The engine's
/// default of 64 is a tenth of the run: which multiple of it a seed's
/// fault streams land on would then move every metric by 10 %.
const CHECK_EVERY: u64 = 16;

/// The record → write → parse → replay → compare cycle.
pub struct RecordReplay {
    op: SparseProxGrad<L1>,
    partition: Partition,
    cfg: ClusterConfig,
    seed: u64,
}

/// What one cycle leaves behind for the output checks.
struct Cycle {
    run: ClusterRunResult,
    text_bytes: usize,
    replayed: RunReport,
    identical: bool,
}

impl RecordReplay {
    /// Builds the `n = 4096` instance of the `replay_sparse` family and
    /// the cluster configuration: heavy-tailed links, hold 0.15 / drop
    /// 0.05 / duplicate 0.05, a fifth of the exchanges partial.
    pub fn new(seed: u64) -> Result<Self, String> {
        let op = sparse_prox_grad(N)?;
        let partition = Partition::blocks(N, WORKERS).map_err(|e| e.to_string())?;
        let mut cfg = ClusterConfig::new(BUDGET)
            .with_faults(0.15, 0.05, 0.05)
            .with_link(LinkModel::HeavyTail {
                scale: 1,
                alpha: 1.5,
            })
            .with_record(LabelStore::Full);
        cfg.partial_prob = 0.2;
        cfg.target_residual = Some(EPS);
        cfg.check_every = CHECK_EVERY;
        Ok(Self {
            op,
            partition,
            cfg,
            seed,
        })
    }

    /// The cluster run whose link and fault streams are drawn from
    /// `stream`.
    fn record(&self, op: &dyn Operator, stream: u64) -> Result<ClusterRunResult, String> {
        let cfg = self.cfg.clone().with_seed(stream_seed(self.seed, stream));
        ClusterEngine::run(op, &[0.0; N], &self.partition, &cfg, None).map_err(|e| e.to_string())
    }

    fn cycle(
        &self,
        stream: u64,
        tracer: Option<&Tracer>,
        cluster_op: &dyn Operator,
        replay_op: &dyn Operator,
    ) -> Result<Cycle, String> {
        let run = span(tracer, "runtime.cluster.run", || {
            self.record(cluster_op, stream)
        })?;
        let text = span(tracer, "models.trace_write", || trace_to_string(&run.trace))
            .map_err(|e| e.to_string())?;
        let parsed = span(tracer, "models.trace_parse", || trace_from_str(&text))
            .map_err(|e| e.to_string())?;
        let replayed = span(tracer, "core.trace_replay", || {
            Session::new(replay_op)
                .replay_trace(parsed)
                .and_then(|s| s.backend(Replay).run())
        })
        .map_err(|e| e.to_string())?;
        let identical = span(tracer, "bench.compare", || {
            replayed.final_x.len() == run.consensus.len()
                && replayed
                    .final_x
                    .iter()
                    .zip(&run.consensus)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        Ok(Cycle {
            run,
            text_bytes: text.len(),
            replayed,
            identical,
        })
    }
}

impl Workload for RecordReplay {
    fn fingerprint(&self) -> u64 {
        operator_fingerprint(&self.op)
    }

    fn op(&mut self, stream: u64, tracer: Option<&Tracer>) -> Outcome {
        let start = Instant::now();
        let result = match tracer {
            None => self.cycle(stream, None, &self.op, &self.op),
            Some(t) => {
                let (cluster_op, replay_op) =
                    (TimedOperator::new(&self.op), TimedOperator::new(&self.op));
                let result = self.cycle(stream, tracer, &cluster_op, &replay_op);
                if result.is_ok() {
                    for (parent, op) in [
                        ("runtime.cluster.run", &cluster_op),
                        ("core.trace_replay", &replay_op),
                    ] {
                        t.fold(parent, "opt.update", op.update.totals());
                        t.fold(parent, "opt.residual", op.residual.totals());
                    }
                }
                result
            }
        };
        let wall_s = start.elapsed().as_secs_f64();
        let Cycle {
            run,
            text_bytes,
            replayed,
            identical,
        } = match result {
            Ok(cycle) => cycle,
            Err(e) => return Outcome::failed(1, e),
        };
        let mut out = Outcome {
            wall_s,
            attempted: 1,
            ..Outcome::default()
        };
        let steps = run.trace.len() as u64;
        out.steps = run.steps_run;
        out.hash = hash_f64s(&run.consensus);
        if !identical {
            out.fail("replayed iterate differs bitwise from the cluster's".into());
        }
        if !run.stopped_early {
            out.fail(format!("no residual {EPS:e} within {BUDGET} steps"));
        }
        if replayed.steps != steps {
            out.fail(format!("replayed {} of {steps} steps", replayed.steps));
        }
        check_residual(&mut out, &self.op, &run.consensus, EPS, 1.0);
        let s = &run.stats;
        out.counters.extend([
            ("models.trace_steps", steps as f64),
            ("models.trace_labels", (steps * N as u64) as f64),
            ("models.trace_text_bytes", text_bytes as f64),
            ("models.macro_iterations", replayed.macro_iterations as f64),
            ("runtime.cluster.steps", run.steps_run as f64),
            ("runtime.cluster.sent", s.sent as f64),
            ("runtime.cluster.delivered", s.delivered as f64),
            ("runtime.cluster.dropped", s.dropped as f64),
            ("runtime.cluster.duplicated", s.duplicated as f64),
            ("runtime.cluster.held", s.held as f64),
            (
                "runtime.cluster.partial_publishes",
                run.partial_publishes as f64,
            ),
        ]);
        out
    }

    /// Text round trip: the parsed trace renders to the same bytes.
    fn verify(&mut self, _reference: &Outcome) -> Outcome {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        let round_trip = self.record(&self.op, 0).and_then(|run| {
            let text = trace_to_string(&run.trace).map_err(|e| e.to_string())?;
            let parsed = trace_from_str(&text).map_err(|e| e.to_string())?;
            let again = trace_to_string(&parsed).map_err(|e| e.to_string())?;
            Ok(text == again)
        });
        match round_trip {
            Ok(true) => {}
            Ok(false) => out.fail("trace text does not survive a parse/render round trip".into()),
            Err(e) => out.fail(e),
        }
        out
    }

    fn cost(&self) -> CostModel {
        CostModel::csr(N, self.op.f().q().nnz())
    }

    fn probes(&mut self, _reference: &Outcome) -> Vec<(&'static str, f64)> {
        probes::csr(self.op.f().q())
    }
}
