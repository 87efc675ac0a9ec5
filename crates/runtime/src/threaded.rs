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
//! This module is the [`ThreadedCluster`] backend, the message-passing
//! *step body* — drain the mailbox, draw the step's ticket, produce a
//! block update, post it to every peer; the opening, the ticket, the
//! stop flags, the step log, the termination checks, worker failures and
//! the closing walk of the log are the free-running harness (`race`)
//! shared with [`crate::async_engine`]. The loop runs straight off
//! `Problem` / `RunControl` and the [`ThreadedCluster`] fields;
//! [`ThreadedClusterEngine::run_with`] is the same loop behind the
//! native configuration the standalone benchmark still links.
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
//!    `ThreadedCluster { workers: 1 }` reproduces the sequential
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
use crate::session::{block_partition, native_workers, recorded};
pub use crate::termination::Quiesce;
use crate::transport::{Endpoint, FaultEndpoint, FaultPlan, MpscTransport, SendStats, Transport};
use crate::worker::{check_probabilities, Worker};
use asynciter_core::session::{Backend, Problem, RunControl, RunReport};
use asynciter_core::stopping::StoppingRule;
use asynciter_core::Result;
use asynciter_models::partition::Partition;
use asynciter_models::trace::{LabelStore, Trace};
use asynciter_numerics::rng::rng;
use asynciter_opt::traits::Operator;
use std::time::Duration;

const NAME: &str = "threaded-cluster";

/// The concurrent cluster backend: free-running worker threads
/// exchanging labelled block messages over the [`crate::transport`]
/// seam — the same sharded work model as
/// [`Cluster`](crate::cluster::Cluster), executed on real OS threads
/// instead of a sequential event loop. See the [module docs](self).
///
/// `RunControl::max_steps` is the global block-update budget — a
/// generous safety net under a [`StoppingRule::Residual`] rule (mapped
/// onto worker 0's local-view residual target) and/or a [`Quiesce`]
/// rule, since thread interleaving makes fixed budgets
/// scheduler-dependent. The seed set via `Session::seed` drives
/// per-worker fault and partial-exchange RNG streams; runs are **not**
/// reproducible from it — with recording on, a run keeps the
/// producing-step trace it executed, which replays bit-identically
/// through `Session::replay_trace` (the conformance oracle); under
/// `RecordMode::Off` no trace is built and Definition 2 is still counted
/// from the step log. Error/residual sampling are unsupported (no thread
/// may observe a consistent consensus mid-run). `RunReport::channel`
/// carries the merged sender- and receiver-side [`ClusterStats`].
///
/// Constructible with functional-update syntax:
/// `ThreadedCluster { workers: 4, drop_prob: 0.1, ..ThreadedCluster::default() }`.
#[derive(Debug, Clone)]
pub struct ThreadedCluster {
    /// Number of worker threads, each owning one of as many contiguous
    /// component blocks (its shard).
    pub workers: usize,
    /// Post a block message every this many local updates.
    pub exchange_every: u64,
    /// Receiver policy.
    pub apply_policy: ApplyPolicy,
    /// Probability a send is held behind later traffic (out-of-order
    /// delivery).
    pub hold_prob: f64,
    /// Maximum sends a held message waits behind.
    pub hold_extra: u64,
    /// Probability a send is dropped.
    pub drop_prob: f64,
    /// Probability a send is duplicated.
    pub dup_prob: f64,
    /// Probability a posted message is a partial (subset) exchange.
    pub partial_prob: f64,
    /// Optional quiescence-detection termination rule.
    pub quiesce: Option<Quiesce>,
}

impl Default for ThreadedCluster {
    fn default() -> Self {
        Self {
            workers: 1,
            exchange_every: 1,
            apply_policy: ApplyPolicy::AsReceived,
            hold_prob: 0.0,
            hold_extra: 8,
            drop_prob: 0.0,
            dup_prob: 0.0,
            partial_prob: 0.0,
            quiesce: None,
        }
    }
}

/// Derives an independent per-worker RNG stream from the base seed.
fn substream(seed: u64, worker: u64, stream: u64) -> u64 {
    seed ^ worker
        .wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

impl ThreadedCluster {
    /// Runs the threaded cluster over an arbitrary [`Transport`] — the
    /// socket-ready entry point; [`Backend::run`] hands in the in-process
    /// [`MpscTransport`].
    ///
    /// # Errors
    /// Unsupported controls, dimension/parameter validation failures, a
    /// non-finite iterate (operator divergence) or a panicking operator.
    pub fn run_over(
        &self,
        problem: &Problem<'_>,
        ctl: &RunControl<'_>,
        transport: &mut dyn Transport,
    ) -> Result<RunReport> {
        ctl.reject_schedule(
            NAME,
            "the threaded cluster's schedule emerges from real thread interleaving; record \
             it and replay through `Replay` instead",
        )?;
        let onto = "the threaded cluster's residual target";
        let race = Race::open(NAME, onto, problem, ctl, self.quiesce)?;
        check_probabilities(&[
            ("hold_prob", self.hold_prob),
            ("drop_prob", self.drop_prob),
            ("dup_prob", self.dup_prob),
        ])?;
        let (op, n) = (problem.op, problem.n());
        let partition = block_partition("workers", n, self.workers)?;
        let mesh = Worker::mesh(
            op,
            &problem.x0,
            &partition,
            self.apply_policy,
            self.exchange_every,
            self.partial_prob,
        )?;
        let plan = FaultPlan {
            hold_prob: self.hold_prob,
            hold_extra: self.hold_extra,
            drop_prob: self.drop_prob,
            dup_prob: self.dup_prob,
        };
        let seed = ctl.seed;
        let endpoints = (transport.connect(mesh.len()).into_iter().enumerate())
            .map(|(w, ep)| FaultEndpoint::new(ep, plan, substream(seed, w as u64, 1)));
        let seats = mesh.into_iter().zip(endpoints).collect();

        // The block before each step feeds only the `Quiesce` rule's change
        // measure: without the rule it stays empty and is never copied into.
        let quiesce = self.quiesce.is_some();
        let body = |lane: &mut Lane<'_>, (mut worker, mut ep): (Worker, FaultEndpoint)| {
            // Buffers are allocated once: the step loop is heap-allocation-free
            // apart from message payloads (transport-owned) and the step log's growth.
            let mut old_block = vec![0.0; if quiesce { worker.block().len() } else { 0 }];
            let mut prng = rng(substream(seed, worker.id() as u64, 2));

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
                lane.log(j, worker.labels());
                for (old, &i) in old_block.iter_mut().zip(worker.block()) {
                    *old = worker.view()[i];
                }
                worker.produce(op, j)?;

                // Exchange: post the block (or a partial subset) to every
                // peer; the last one gets the message itself, not a copy.
                if let Some(msg) = worker.post(&mut prng) {
                    let last = worker.peers().last();
                    for dest in worker.peers().filter(|&dest| Some(dest) != last) {
                        ep.send(dest, msg.clone());
                    }
                    if let Some(dest) = last {
                        ep.send(dest, msg);
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
        let (outputs, finish) = race.run(seats, body)?;

        let (done, sends): (Vec<Worker>, Vec<SendStats>) = outputs.into_iter().unzip();
        // Each component in its owner's view.
        let mut consensus = vec![0.0; n];
        for worker in &done {
            for &i in worker.block() {
                consensus[i] = worker.view()[i];
            }
        }
        let mut report = race.close(NAME, op, consensus, finish, |w| done[w].block());
        Worker::count_into(&done, sends, &mut report);
        Ok(report)
    }
}

impl Backend for ThreadedCluster {
    fn name(&self) -> &'static str {
        NAME
    }

    fn run(&mut self, problem: &Problem<'_>, ctl: &mut RunControl<'_>) -> Result<RunReport> {
        self.run_over(problem, ctl, &mut MpscTransport)
    }
}

/// The native configuration of [`ThreadedClusterEngine::run_with`], the
/// door the standalone benchmark still uses: [`ThreadedCluster`]'s
/// fields beside what a session keeps in `RunControl`.
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

/// The native door to [`ThreadedCluster`]'s loop. See [`ThreadedConfig`].
#[derive(Debug, Default)]
pub struct ThreadedClusterEngine;

impl ThreadedClusterEngine {
    /// Runs [`ThreadedCluster::run_over`] from a native configuration:
    /// one worker per `partition` machine, always recorded.
    ///
    /// # Errors
    /// As [`ThreadedCluster::run_over`].
    pub fn run_with(
        op: &dyn Operator,
        x0: &[f64],
        partition: &Partition,
        cfg: &ThreadedConfig,
        transport: &mut dyn Transport,
    ) -> Result<ThreadedRunResult> {
        let problem = Problem {
            op,
            x0: x0.to_vec(),
            xstar: None,
        };
        let ctl = RunControl {
            max_steps: cfg.max_steps,
            error_every: 0,
            residual_every: 0,
            stopping: cfg.target_residual.map(|eps| StoppingRule::Residual {
                eps,
                check_every: cfg.check_every,
            }),
            record: recorded(cfg.record),
            seed: cfg.seed,
            schedule: None,
        };
        let cluster = ThreadedCluster {
            workers: native_workers(
                partition,
                op.dim(),
                "ThreadedClusterEngine::run_with (partition)",
            )?,
            exchange_every: cfg.exchange_every,
            apply_policy: cfg.apply_policy,
            hold_prob: cfg.hold_prob,
            hold_extra: cfg.hold_extra,
            drop_prob: cfg.drop_prob,
            dup_prob: cfg.dup_prob,
            partial_prob: cfg.partial_prob,
            quiesce: cfg.quiesce,
        };
        let report = cluster.run_over(&problem, &ctl, transport)?;
        Ok(ThreadedRunResult {
            consensus: report.final_x,
            final_residual: report.final_residual,
            stats: report.channel.expect("the loop fills it"),
            trace: report.trace.expect("both record modes keep the trace"),
            steps_run: report.steps,
            per_worker_updates: report.per_worker_updates,
            stopped_early: report.stopped_early,
            partial_publishes: report.partial_publishes,
            partial_reads: report.partial_reads,
            constraint_checked: report.constraint_checked,
            constraint_violations: report.constraint_violations,
            wall: report.wall,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_core::compare::{same_bits, same_schedule};
    use asynciter_core::session::{RecordMode, Session};
    use asynciter_core::CoreError;
    use asynciter_models::conditions::check_condition_a;
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_opt::linear::JacobiOperator;

    fn jacobi(n: usize) -> JacobiOperator {
        JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
    }

    fn threaded(workers: usize) -> ThreadedCluster {
        ThreadedCluster {
            workers,
            ..ThreadedCluster::default()
        }
    }

    #[test]
    fn quiescence_detection_terminates_converged() {
        let op = jacobi(16);
        let backend = ThreadedCluster {
            quiesce: Some(Quiesce {
                eps: 1e-12,
                streak: 4,
                margin: 64,
            }),
            ..threaded(2)
        };
        let session = Session::new(&op).steps(4_000_000).seed(3);
        let res = session.backend(backend).run().unwrap();
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
        let session = Session::new(&op).steps(500).record(RecordMode::Full);
        let res = session.backend(threaded(3)).run().unwrap();
        assert_eq!(res.steps, 500);
        assert!(!res.stopped_early);
        let trace = res.trace.expect("trace recorded");
        assert_eq!(trace.len(), 500);
        check_condition_a(&trace).unwrap();
    }

    #[test]
    fn a_failing_worker_stops_its_healthy_peers() {
        crate::race::tests::check_a_failing_worker_stops_its_healthy_peers(threaded(2), None);
    }

    #[test]
    fn validation_errors() {
        let op = jacobi(8);
        let run = |backend: ThreadedCluster| Session::new(&op).steps(10).backend(backend).run();
        let short_x0 = Session::new(&op).steps(10).x0(vec![0.0; 7]);
        assert!(short_x0.backend(threaded(2)).run().is_err());
        let no_steps = Session::new(&op).steps(0);
        assert!(no_steps.backend(threaded(2)).run().is_err());
        assert!(run(ThreadedCluster {
            hold_prob: 1.5,
            ..threaded(2)
        })
        .is_err());
        // The native door's partition must be sized for the operator.
        let p9 = Partition::blocks(9, 2).unwrap();
        let cfg = ThreadedConfig::new(10);
        let err = ThreadedClusterEngine::run_with(&op, &[0.0; 8], &p9, &cfg, &mut MpscTransport);
        assert!(
            matches!(err, Err(CoreError::DimensionMismatch { actual: 9, .. })),
            "{err:?}"
        );
        let quiesce = Some(Quiesce {
            eps: 1e-9,
            streak: 0,
            margin: 8,
        });
        assert!(run(ThreadedCluster {
            quiesce,
            ..threaded(2)
        })
        .is_err());
    }

    #[test]
    fn both_doors_run_one_loop() {
        // One worker is deterministic: the native door's result is the
        // session door's report — iterate, steps, trace, channel counters.
        let op = jacobi(16);
        let p = Partition::blocks(16, 1).unwrap();
        let cfg = ThreadedConfig::new(300)
            .with_seed(9)
            .with_record(LabelStore::Full);
        let a =
            ThreadedClusterEngine::run_with(&op, &[0.0; 16], &p, &cfg, &mut MpscTransport).unwrap();
        let session = Session::new(&op).steps(300).seed(9);
        let b = (session.record(RecordMode::Full).backend(threaded(1)))
            .run()
            .unwrap();
        assert_eq!(same_bits(&a.consensus, &b.final_x), Ok(()));
        assert_eq!(same_bits(&[a.final_residual], &[b.final_residual]), Ok(()));
        assert_eq!(
            (a.steps_run, &a.per_worker_updates),
            (300, &b.per_worker_updates)
        );
        assert_eq!((b.steps, b.macro_iterations), (300, 300));
        assert_eq!(Some(&a.stats), b.channel.as_ref());
        assert_eq!(same_schedule(&a.trace, &b.trace.unwrap()), Ok(()));
    }
}
