//! The concurrent cluster engine: free-running worker threads owning
//! shards, exchanging labelled block messages through the
//! [`crate::transport`] seam.
//!
//! This is the real-hardware counterpart of the deterministic
//! [`crate::cluster`] event loop, and a second scheduler over the same
//! [`Worker`]: one OS thread per worker, running unsynchronised, with
//! hold / drop / duplicate faults injected at the transport seam
//! ([`crate::transport::FaultEndpoint`]). Thread interleaving (and
//! therefore the executed schedule) is genuinely nondeterministic.
//! This module is the message-passing *step body* — drain the mailbox,
//! draw the step's ticket, produce a block update, post it to every
//! peer; the ticket, the stop flags, the step log and trace, the
//! termination checks and worker failures are the free-running harness
//! (`race`) shared with [`crate::async_engine`].
//!
//! ## Why the recorded trace still replays bit for bit
//!
//! Correctness is anchored per run, not per configuration: every run
//! records the producing-step schedule it *actually executed*, and that
//! trace replays bit-identically through the Definition-1 `Replay`
//! engine. Two ingredients make this work on racy threads:
//!
//! 1. **The ticket is drawn after the mailbox is drained.** Its
//!    `SeqCst` total order linearises the trace: every label in a
//!    worker's view is one of its own earlier steps (program order) or
//!    the producing step `k` carried by a received message — and the
//!    sender drew `k` before sending, the channel delivery
//!    happens-before the receive, and the receive precedes this draw.
//!    Hence every label is `< j`: condition (a) holds *by construction*
//!    (asserted, never clamped — clamping would silently break
//!    bit-identity).
//! 2. **The worker is shared with the sequential engine.** Receiving,
//!    producing and posting are [`Worker`] methods — byte-identical
//!    arithmetic to [`crate::cluster`], which is also why
//!    `ThreadedClusterEngine` with one worker reproduces the sequential
//!    `Cluster { workers: 1 }` run bit for bit. The model checker's
//!    seam scopes run the same worker (and the same fault router) under
//!    every interleaving.
//!
//! Termination is a residual target on worker 0's local view and/or the
//! El Baz \[22\]-style [`Quiesce`] rule of [`crate::termination`] —
//! never a tuned fixed budget, so runs stay green on an oversubscribed
//! 1-core CI host.

use crate::cluster::{ApplyPolicy, ClusterStats};
use crate::race::{Lane, Race};
pub use crate::termination::Quiesce;
use crate::transport::{Endpoint, FaultEndpoint, FaultPlan, MpscTransport, SendStats, Transport};
use crate::worker::{assemble_consensus, check_probabilities, Worker};
use asynciter_models::partition::Partition;
use asynciter_models::trace::{LabelStore, Trace};
use asynciter_numerics::rng::rng;
use asynciter_opt::traits::Operator;
use std::time::Duration;

/// Configuration of a threaded cluster run.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Global step budget (safety net — prefer a residual target or a
    /// quiescence rule; fixed budgets are scheduler-dependent).
    pub max_steps: u64,
    /// Post a block message every this many local updates.
    pub exchange_every: u64,
    /// Receiver policy.
    pub apply_policy: ApplyPolicy,
    /// Probability a send is held behind later traffic (out-of-order).
    pub hold_prob: f64,
    /// Maximum sends a held message waits behind.
    pub hold_extra: u64,
    /// Probability a send is dropped.
    pub drop_prob: f64,
    /// Probability a send is duplicated.
    pub dup_prob: f64,
    /// Probability a posted message is a partial (subset) exchange.
    pub partial_prob: f64,
    /// Base RNG seed; each worker derives independent fault and
    /// partial-exchange streams from it.
    pub seed: u64,
    /// Label retention of the recorded trace.
    pub record: LabelStore,
    /// Stop once worker 0's local-view residual falls to this value.
    pub target_residual: Option<f64>,
    /// Residual-target check period (worker-0 updates).
    pub check_every: u64,
    /// Optional quiescence-detection termination rule.
    pub quiesce: Option<Quiesce>,
}

impl ThreadedConfig {
    /// A benign default: exchange every update, no faults, trace label
    /// minima only.
    pub fn new(max_steps: u64) -> Self {
        Self {
            max_steps,
            exchange_every: 1,
            apply_policy: ApplyPolicy::AsReceived,
            hold_prob: 0.0,
            hold_extra: 8,
            drop_prob: 0.0,
            dup_prob: 0.0,
            partial_prob: 0.0,
            seed: 0,
            record: LabelStore::MinOnly,
            target_residual: None,
            check_every: 64,
            quiesce: None,
        }
    }

    /// Sets the channel fault probabilities.
    #[must_use]
    pub fn with_faults(mut self, hold: f64, drop: f64, dup: f64) -> Self {
        self.hold_prob = hold;
        self.drop_prob = drop;
        self.dup_prob = dup;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the label retention of the recorded trace.
    #[must_use]
    pub fn with_record(mut self, store: LabelStore) -> Self {
        self.record = store;
        self
    }

    /// Sets a residual stopping target.
    #[must_use]
    pub fn with_target_residual(mut self, eps: f64) -> Self {
        self.target_residual = Some(eps);
        self
    }
}

/// Result of a threaded cluster run.
#[derive(Debug, Clone)]
pub struct ThreadedRunResult {
    /// Consensus vector: each component taken from its owner's view.
    pub consensus: Vec<f64>,
    /// Fixed-point residual of the consensus vector.
    pub final_residual: f64,
    /// Merged channel statistics (sender- and receiver-side).
    pub stats: ClusterStats,
    /// The executed schedule: one step per block update, labels = the
    /// producing steps of the values read (replays bit-identically).
    pub trace: Trace,
    /// Global steps actually executed.
    pub steps_run: u64,
    /// Block updates per worker.
    pub per_worker_updates: Vec<u64>,
    /// True when a residual target or quiescence detection fired before
    /// the step budget.
    pub stopped_early: bool,
    /// Partial (subset) messages posted.
    pub partial_publishes: u64,
    /// Component values applied out of partial messages.
    pub partial_reads: u64,
    /// Freshness checks performed (`KeepFreshest`).
    pub constraint_checked: u64,
    /// Stale applications discarded (`KeepFreshest`).
    pub constraint_violations: u64,
    /// Wall-clock duration of the parallel section.
    pub wall: Duration,
}

/// Derives an independent per-worker RNG stream from the base seed.
fn substream(seed: u64, worker: u64, stream: u64) -> u64 {
    seed ^ worker
        .wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// The concurrent cluster engine. See module docs.
#[derive(Debug, Default)]
pub struct ThreadedClusterEngine;

impl ThreadedClusterEngine {
    /// Runs the threaded cluster over the in-process [`MpscTransport`].
    ///
    /// # Errors
    /// As [`ThreadedClusterEngine::run_with`].
    pub fn run(
        op: &dyn Operator,
        x0: &[f64],
        partition: &Partition,
        cfg: &ThreadedConfig,
    ) -> crate::Result<ThreadedRunResult> {
        Self::run_with(op, x0, partition, cfg, &mut MpscTransport)
    }

    /// Runs the threaded cluster over an arbitrary [`Transport`] —
    /// the socket-ready entry point.
    ///
    /// # Errors
    /// Dimension/parameter validation failures, a non-finite iterate
    /// (operator divergence) or a panicking operator.
    pub fn run_with(
        op: &dyn Operator,
        x0: &[f64],
        partition: &Partition,
        cfg: &ThreadedConfig,
        transport: &mut dyn Transport,
    ) -> crate::Result<ThreadedRunResult> {
        let race = Race::new(
            cfg.max_steps,
            Some(cfg.record),
            cfg.target_residual,
            cfg.check_every,
            cfg.quiesce,
        )?;
        check_probabilities(&[
            ("hold_prob", cfg.hold_prob),
            ("drop_prob", cfg.drop_prob),
            ("dup_prob", cfg.dup_prob),
        ])?;
        let n = op.dim();
        let mesh = Worker::mesh(
            op,
            x0,
            partition,
            cfg.apply_policy,
            cfg.exchange_every,
            cfg.partial_prob,
        )?;
        let plan = FaultPlan {
            hold_prob: cfg.hold_prob,
            hold_extra: cfg.hold_extra,
            drop_prob: cfg.drop_prob,
            dup_prob: cfg.dup_prob,
        };
        let endpoints = (transport.connect(mesh.len()).into_iter().enumerate())
            .map(|(w, ep)| FaultEndpoint::new(ep, plan, substream(cfg.seed, w as u64, 1)));
        let seats = mesh.into_iter().zip(endpoints).collect();

        let body = |lane: &mut Lane<'_>, (mut worker, mut ep): (Worker, FaultEndpoint)| {
            // Buffers are allocated once: the step loop is heap-allocation-free
            // apart from message payloads (transport-owned) and step logging.
            let mut old_block = vec![0.0; worker.block().len()];
            let mut prng = rng(substream(cfg.seed, worker.id() as u64, 2));

            loop {
                // Drain the mailbox before producing: every applied value's
                // label was produced before the step number drawn below.
                while let Some(msg) = ep.try_recv() {
                    worker.receive(&msg);
                }
                if lane.stopped() {
                    break;
                }

                // Draw the global step number: see module docs.
                let Some(j) = lane.ticket() else { break };
                debug_assert!(
                    worker.labels().iter().all(|&l| l < j),
                    "condition (a) violated: a label reached step {j}"
                );
                lane.log(j, worker.labels().iter().copied());
                for (k, &i) in worker.block().iter().enumerate() {
                    old_block[k] = worker.view()[i];
                }
                worker.produce(op, j)?;

                // Exchange: post the block (or a partial subset) to every peer.
                if let Some(msg) = worker.post(&mut prng) {
                    for dest in worker.peers() {
                        ep.send(dest, msg.clone());
                    }
                }

                // Termination: quiescence detection and/or a residual target
                // checked on worker 0's local view (near convergence the view
                // and the consensus agree to far below any sensible target).
                let change = || {
                    (worker.block().iter().zip(&old_block))
                        .map(|(&i, old)| (worker.view()[i] - old).abs())
                        .fold(0.0_f64, f64::max)
                };
                if lane.quiesced(j, change) || lane.on_target(|| worker.residual(op)) {
                    break;
                }
                // Hand the scheduling quantum over after each update: on an
                // oversubscribed (1-core CI) host this keeps peers draining
                // their mailboxes — bounding queue growth and information
                // staleness by scheduler rotations instead of whole quanta.
                std::thread::yield_now();
            }

            Ok((worker, ep.stats()))
        };
        let finish = race.run(seats, body)?;

        let (done, sends): (Vec<Worker>, Vec<SendStats>) = finish.outputs.into_iter().unzip();
        let mut stats = ClusterStats::default();
        for s in sends {
            stats.sent += s.sent;
            stats.dropped += s.dropped;
            stats.duplicated += s.duplicated;
            stats.held += s.held;
        }
        let trace = race.trace(n, finish.log, |w| done[w].block());
        let trace = trace.expect("recording is always on");

        let mut consensus = vec![0.0; n];
        assemble_consensus(&done, &mut consensus);
        let final_residual = op.residual_inf(&consensus);
        let totals = Worker::totals(&done);
        stats.delivered = totals.delivered;
        stats.discarded_stale = totals.constraint_violations;

        Ok(ThreadedRunResult {
            consensus,
            final_residual,
            stats,
            steps_run: trace.len() as u64,
            trace,
            per_worker_updates: finish.per_worker_updates,
            stopped_early: finish.stopped_early,
            partial_publishes: totals.partial_publishes,
            partial_reads: totals.partial_reads,
            constraint_checked: totals.constraint_checked,
            constraint_violations: totals.constraint_violations,
            wall: finish.wall,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_models::conditions::check_condition_a;
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_numerics::vecops;
    use asynciter_opt::linear::JacobiOperator;

    fn jacobi(n: usize) -> JacobiOperator {
        JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
    }

    #[test]
    fn faulty_multiworker_run_converges_and_trace_is_admissible() {
        let op = jacobi(24);
        let xstar = op.solve_dense_spd().unwrap();
        let p = Partition::blocks(24, 3).unwrap();
        let cfg = ThreadedConfig::new(4_000_000)
            .with_faults(0.3, 0.1, 0.05)
            .with_seed(13)
            .with_record(LabelStore::Full)
            .with_target_residual(1e-11);
        let res = ThreadedClusterEngine::run(&op, &[0.0; 24], &p, &cfg).unwrap();
        assert!(res.stopped_early, "residual target never fired");
        assert!(
            vecops::max_abs_diff(&res.consensus, &xstar) < 1e-8,
            "error {}",
            vecops::max_abs_diff(&res.consensus, &xstar)
        );
        assert_eq!(res.trace.len() as u64, res.steps_run);
        assert_eq!(res.per_worker_updates.iter().sum::<u64>(), res.steps_run);
        assert!(res.stats.sent > 0);
        check_condition_a(&res.trace).expect("condition (a) by construction");
    }

    #[test]
    fn quiescence_detection_terminates_converged() {
        let op = jacobi(16);
        let p = Partition::blocks(16, 2).unwrap();
        let mut cfg = ThreadedConfig::new(4_000_000).with_seed(3);
        cfg.quiesce = Some(Quiesce {
            eps: 1e-12,
            streak: 4,
            margin: 64,
        });
        let res = ThreadedClusterEngine::run(&op, &[0.0; 16], &p, &cfg).unwrap();
        assert!(res.stopped_early, "detector never fired");
        assert!(
            res.final_residual < 1e-8,
            "premature stop: residual {}",
            res.final_residual
        );
    }

    #[test]
    fn budget_exhaustion_yields_dense_trace() {
        let op = jacobi(12);
        let p = Partition::blocks(12, 3).unwrap();
        let cfg = ThreadedConfig::new(500).with_record(LabelStore::Full);
        let res = ThreadedClusterEngine::run(&op, &[0.0; 12], &p, &cfg).unwrap();
        assert_eq!(res.steps_run, 500);
        assert_eq!(res.trace.len(), 500);
        assert!(!res.stopped_early);
        check_condition_a(&res.trace).unwrap();
    }

    #[test]
    fn a_failing_worker_stops_its_healthy_peers() {
        let p = Partition::blocks(4, 2).unwrap();
        crate::race::tests::check_a_failing_worker_stops_its_healthy_peers(|problem, ctl| {
            let cfg = ThreadedConfig::new(ctl.max_steps);
            ThreadedClusterEngine::run(problem.op, &problem.x0, &p, &cfg).unwrap_err()
        });
    }

    #[test]
    fn validation_errors() {
        let op = jacobi(8);
        let p = Partition::blocks(8, 2).unwrap();
        let ok = ThreadedConfig::new(10);
        assert!(ThreadedClusterEngine::run(&op, &[0.0; 7], &p, &ok).is_err());
        assert!(ThreadedClusterEngine::run(&op, &[0.0; 8], &p, &ThreadedConfig::new(0)).is_err());
        let bad = ThreadedConfig::new(10).with_faults(1.5, 0.0, 0.0);
        assert!(ThreadedClusterEngine::run(&op, &[0.0; 8], &p, &bad).is_err());
        let mut bad = ThreadedConfig::new(10);
        bad.quiesce = Some(Quiesce {
            eps: 1e-9,
            streak: 0,
            margin: 8,
        });
        assert!(ThreadedClusterEngine::run(&op, &[0.0; 8], &p, &bad).is_err());
    }
}
