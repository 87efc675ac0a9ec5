//! The `Cluster` engine: a deterministic, seeded, sharded
//! message-passing runtime.
//!
//! This is the paper's headline regime — distributed asynchronous
//! iterations with unbounded delays, out-of-order / duplicated / lost
//! messages and flexible (partial) communication — executed on a *virtual
//! cluster*: every worker owns one shard of the iterate
//! ([`Partition`] block) and a full local copy of its best knowledge of
//! everyone else. Workers never share memory; they exchange labelled
//! block messages through per-worker mailboxes whose delivery is driven
//! by a seeded channel model mirroring the delay zoo:
//!
//! - a [`LinkModel`] latency distribution — `Fixed` (in-order bounded),
//!   `Jitter` (bounded random) or `HeavyTail` (Pareto: unbounded delays),
//!   the one `Sim` draws from too; each mailbox is an [`EventQueue`] in
//!   global steps, earliest delivery first and equal steps in send order,
//!   as in `Sim`'s event loop (both live in `asynciter_models::channel`);
//! - **hold** (`hold_prob`): extra random latency parks a message behind
//!   newer ones — genuine out-of-order delivery;
//! - **drop** (`drop_prob`): the message is lost (asynchronous iterations
//!   absorb transient losses because newer messages supersede them);
//! - **duplicate** (`dup_prob`): delivered twice, independently routed;
//! - **partial exchange** (`partial_prob`): a message carries only a
//!   random subset of the block — Definition-3 flexible communication at
//!   the message level. Receivers fold partials in under an
//!   [`ApplyPolicy`].
//!
//! The [`Cluster`] backend is a *sequential discrete event loop* over
//! [`Worker`]s — the one shard-owner step (receive → produce → post)
//! every cluster scheduler drives: global step `j` is one block update
//! by worker `(j − 1) mod p`, mail is delivered when the destination
//! worker next acts, and every random choice comes from one seeded
//! stream. Runs are therefore exactly reproducible from
//! `(config, seed)` — on a laptop, in CI, on one core. Per destination
//! the stream decides drop, then duplicate, and a [`FaultRouter`] turns
//! that fate into the copies that leave; each copy then draws its own
//! link latency and hold. The genuinely concurrent counterpart is
//! [`crate::threaded`], which runs the same workers on free-running
//! threads over the [`crate::transport`] seam.
//!
//! The loop runs straight off `Problem` / `RunControl` and the
//! [`Cluster`] fields and tells the shared [`Observer`] every completed
//! step — `S_j` is the stepping worker's block, the labels are its label
//! book as the update read it, `x(j)` is the consensus vector (each
//! component in its owner's view) — so Definition 2, the trace, sampling
//! and every stopping rule are the code `Replay`, `Flexible` and `Sim`
//! use. [`ClusterEngine::run`] is the same loop behind the native
//! configuration the standalone benchmark still links.
//!
//! ## Replay equivalence
//!
//! The recorded [`Trace`] gives component `c` at step `j` the label of
//! the **producing step** of the value the acting worker currently holds
//! for `c` (its own last write, or the label carried by the applied
//! message; 0 for the initial value). Values in any local
//! view are always values some global step produced, so injecting the
//! recorded trace into the Definition-1 replay engine reproduces the
//! cluster's iterates **bit for bit** — message faults and all. This is
//! the differential oracle the conformance fuzzer drives
//! (`Cluster → Trace → Replay`), and the degenerate case
//! `Cluster { workers: 1, no faults }` *is* the synchronous Jacobi
//! schedule, bit-identical to `Replay` on the default schedule.
//!
//! [`Partition`]: asynciter_models::partition::Partition

use crate::session::{block_partition, native_workers, recorded};
use crate::transport::{BlockMessage, Exit, FaultRouter, SendFate};
use crate::worker::{check_probabilities, Worker};
use asynciter_core::observer::Observer;
pub use asynciter_core::session::ClusterStats;
use asynciter_core::session::{Backend, Problem, RunControl, RunReport};
use asynciter_core::stopping::StoppingRule;
use asynciter_core::{CoreError, Result};
use asynciter_models::channel::{EventQueue, LinkModel};
use asynciter_models::partition::Partition;
use asynciter_models::trace::{LabelStore, Trace};
use asynciter_numerics::rng::rng;
use asynciter_opt::traits::Operator;
use rand::RngExt;
use std::time::{Duration, Instant};

/// Message application policy at the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyPolicy {
    /// Apply in arrival order, even if older than current knowledge — a
    /// stale message can *regress* a component (the hardest regime).
    AsReceived,
    /// Apply only messages at least as fresh (by producing label) as
    /// current knowledge; older ones are discarded as stale.
    KeepFreshest,
}

const NAME: &str = "cluster";

/// The sharded message-passing backend: a deterministic, seeded virtual
/// cluster. See the [module docs](self).
///
/// `RunControl::max_steps` is the global block-update budget (step `j`
/// is one block update by worker `(j − 1) mod workers`) and the seed set
/// via `Session::seed` drives the whole channel model. The event loop is
/// sequential and keeps the consensus vector current, so error /
/// residual sampling and every [`StoppingRule`] are honoured on it:
/// `Residual` and `ErrorBelow` judge the consensus every `check_every`
/// steps, `MacroContraction` judges it at the macro-iteration boundaries
/// of the executed schedule. An explicit schedule is rejected — the
/// cluster's schedule emerges from its channel model. With recording on,
/// the executed message-passing schedule is kept as a trace whose labels
/// are *producing steps* — injecting it back through
/// `Session::replay_trace` reproduces the run bit for bit, the
/// differential oracle the conformance fuzzer drives; under
/// `RecordMode::Off` no trace is built.
///
/// [`RunReport`] mapping beyond the shared fields: `channel` carries the
/// [`ClusterStats`]; `partial_publishes`/`partial_reads` count flexible
/// partial exchanges posted/applied; under [`ApplyPolicy::KeepFreshest`]
/// every received component application is a freshness check
/// (`constraint_checked`) and every stale discard a prevented violation
/// (`constraint_violations`) — the message-passing analogue of the
/// flexible engine's constraint-(3) accounting.
///
/// Constructible with functional-update syntax:
/// `Cluster { workers: 4, drop_prob: 0.1, ..Cluster::default() }`.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Number of workers, each owning one of as many contiguous
    /// component blocks (its shard).
    pub workers: usize,
    /// Post a block message every this many local updates.
    pub exchange_every: u64,
    /// Receiver policy.
    pub apply_policy: ApplyPolicy,
    /// Link latency model.
    pub link: LinkModel,
    /// Probability a delivery is held back (out-of-order delivery).
    pub hold_prob: f64,
    /// Maximum extra latency (uniform in `1..=hold_extra`) for held
    /// deliveries.
    pub hold_extra: u64,
    /// Probability a delivery is dropped.
    pub drop_prob: f64,
    /// Probability a delivery is duplicated (second copy routed
    /// independently).
    pub dup_prob: f64,
    /// Probability a posted message is a partial (subset) exchange.
    pub partial_prob: f64,
}

impl Default for Cluster {
    /// A benign default: one worker, exchange every update, unit
    /// latency, no faults.
    fn default() -> Self {
        Self {
            workers: 1,
            exchange_every: 1,
            apply_policy: ApplyPolicy::AsReceived,
            link: LinkModel::Fixed { ticks: 1 },
            hold_prob: 0.0,
            hold_extra: 8,
            drop_prob: 0.0,
            dup_prob: 0.0,
            partial_prob: 0.0,
        }
    }
}

impl Cluster {
    /// The event loop. `sever_component` silently removes that component
    /// from every posted message — a severed link for one shard entry,
    /// which only the conformance negative control asks for, through
    /// [`ClusterEngine::run`].
    fn run_severed(
        &self,
        problem: &Problem<'_>,
        ctl: &RunControl<'_>,
        sever_component: Option<usize>,
    ) -> Result<RunReport> {
        ctl.reject_schedule(
            NAME,
            "the cluster's schedule emerges from its channel model; record it and replay \
             through `Replay` instead",
        )?;
        ctl.check(problem)?;
        let (op, n) = (problem.op, problem.n());
        let partition = block_partition("workers", n, self.workers)?;
        self.link
            .validate()
            .map_err(|message| CoreError::InvalidParameter {
                name: "link",
                message,
            })?;
        check_probabilities(&[
            ("hold_prob", self.hold_prob),
            ("drop_prob", self.drop_prob),
            ("dup_prob", self.dup_prob),
        ])?;
        if let Some(sc) = sever_component.filter(|&sc| sc >= n) {
            return Err(CoreError::InvalidParameter {
                name: "sever_component",
                message: format!("component {sc} out of range for dim {n}"),
            });
        }
        let mut workers = Worker::mesh(
            op,
            &problem.x0,
            &partition,
            self.apply_policy,
            self.exchange_every,
            self.partial_prob,
        )?;
        let start = Instant::now();
        let mut mailboxes: Vec<EventQueue<BlockMessage>> =
            workers.iter().map(|_| EventQueue::default()).collect();
        // Drop/duplicate decisions and their counters; this engine's holds
        // are extra link latency, so nothing is ever parked in the router.
        let mut router = FaultRouter::default();
        let mut held = 0u64;
        let mut rng = rng(ctl.seed);
        let mut observer = Observer::new(problem, ctl);
        // Allocated once: the consensus vector (each component in its
        // owner's view), the labels the stepping worker read, and the
        // observer's residual scratch.
        let mut consensus = problem.x0.clone();
        let mut read_labels = vec![0; n];
        let mut scratch = vec![0.0; op.scratch_len()];

        // One global step: deliver due mail → block update → exchange →
        // observe.
        for j in 1..=ctl.max_steps {
            let w = ((j - 1) % workers.len() as u64) as usize;
            let worker = &mut workers[w];

            // Deliver all mail due by now, earliest first and equal times
            // in send order — holds put older messages behind newer ones.
            while let Some((_, msg)) = mailboxes[w].pop_due(j) {
                worker.receive(&msg);
            }

            // The labels of the step are those of the view being read,
            // *before* the write stamps the block with `j`; then Jacobi
            // within the block: all components read the same view.
            read_labels.copy_from_slice(worker.labels());
            worker.produce(op, j)?;
            for &i in worker.block() {
                consensus[i] = worker.view()[i];
            }

            // Exchange: post the block (or a partial subset) to peers. Per
            // destination the stream decides drop, then duplicate; every
            // copy that leaves the router draws its own latency and hold.
            let mut posted = worker.post(&mut rng);
            if let (Some(msg), Some(sc)) = (&mut posted, sever_component) {
                msg.comps.retain(|&(c, _, _)| c as usize != sc);
            }
            if let Some(msg) = posted.filter(|msg| !msg.comps.is_empty()) {
                // Only a copy that may be delivered to a peer before the
                // last is cloned: a dropped send hands the message back.
                let mut spare = Some(msg);
                let mut peers = worker.peers().peekable();
                while let Some(dest) = peers.next() {
                    let fate = if rng.random_range(0.0..1.0) < self.drop_prob {
                        SendFate::Drop
                    } else {
                        let dup = rng.random_range(0.0..1.0) < self.dup_prob;
                        SendFate::Deliver { dup, hold: 0 }
                    };
                    let msg = match fate {
                        SendFate::Deliver { .. } if peers.peek().is_some() => spare.clone(),
                        _ => spare.take(),
                    };
                    let msg = msg.expect("a dropped send hands the message back");
                    router.route(dest, msg, fate, |exit, dest, msg| {
                        if exit == Exit::Dropped {
                            spare = Some(msg);
                            return;
                        }
                        // Latency saturates: a copy due at `u64::MAX`
                        // steps never arrives, and is never queued.
                        let mut latency = self.link.sample(&mut rng);
                        if rng.random_range(0.0..1.0) < self.hold_prob {
                            held += 1;
                            latency = latency
                                .saturating_add(rng.random_range(1..=self.hold_extra.max(1)));
                        }
                        mailboxes[dest].push(j.saturating_add(latency), msg);
                    });
                }
            }

            if observer.step(j, worker.block(), &read_labels, &consensus, &mut scratch) {
                break;
            }
        }

        let mut report = RunReport {
            wall: start.elapsed(),
            ..RunReport::new(NAME, consensus, 0, f64::NAN)
        };
        // This engine counts its holds itself (see `router` above).
        let mut sends = router.stats();
        sends.held = held;
        Worker::count_into(&workers, [sends], &mut report);
        observer.finish(&mut report);
        Ok(report)
    }
}

impl Backend for Cluster {
    fn name(&self) -> &'static str {
        NAME
    }

    fn run(&mut self, problem: &Problem<'_>, ctl: &mut RunControl<'_>) -> Result<RunReport> {
        self.run_severed(problem, ctl, None)
    }
}

/// The native configuration of [`ClusterEngine::run`], the door the
/// standalone benchmark and the severed-message negative control still
/// use: [`Cluster`]'s fields beside what a session keeps in
/// `RunControl`, and `sever_component`.
///
/// Build one with [`ClusterConfig::new`] and the `with_*` setters:
///
/// ```
/// use asynciter_numerics::sparse::tridiagonal;
/// use asynciter_opt::linear::JacobiOperator;
/// use asynciter_models::partition::Partition;
/// use asynciter_models::channel::LinkModel;
/// use asynciter_runtime::cluster::{ClusterConfig, ClusterEngine};
///
/// let op = JacobiOperator::new(tridiagonal(16, 4.0, -1.0), vec![1.0; 16]).unwrap();
/// let partition = Partition::blocks(16, 4).unwrap();
/// let cfg = ClusterConfig::new(1200)
///     .with_faults(0.2, 0.1, 0.05) // hold / drop / duplicate
///     .with_link(LinkModel::Jitter { lo: 1, hi: 5 })
///     .with_seed(42);
/// let res = ClusterEngine::run(&op, &[0.0; 16], &partition, &cfg, None).unwrap();
/// assert_eq!(res.steps_run, 1200);
/// assert!(res.final_residual < 1e-6, "faults absorbed, still converges");
/// ```
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Global step budget; step `j` is one block update by worker
    /// `(j − 1) mod workers`.
    pub steps: u64,
    /// Post a block message every this many local updates.
    pub exchange_every: u64,
    /// Receiver policy.
    pub apply_policy: ApplyPolicy,
    /// Link latency model.
    pub link: LinkModel,
    /// Probability a link delivery is held back by extra latency
    /// (out-of-order delivery).
    pub hold_prob: f64,
    /// Maximum extra latency (uniform in `1..=hold_extra`) for held
    /// messages.
    pub hold_extra: u64,
    /// Probability a link delivery is dropped.
    pub drop_prob: f64,
    /// Probability a link delivery is duplicated (second copy routed
    /// independently).
    pub dup_prob: f64,
    /// Probability a posted message is a *partial* exchange carrying a
    /// random nonempty subset of the block (flexible communication).
    pub partial_prob: f64,
    /// RNG seed for the channel model.
    pub seed: u64,
    /// Label retention of the recorded trace.
    pub record: LabelStore,
    /// Stop once the consensus residual falls to this value (checked
    /// every [`ClusterConfig::check_every`] steps).
    pub target_residual: Option<f64>,
    /// Residual-target check period.
    pub check_every: u64,
    /// Sample `‖consensus − x*‖_∞` every this many steps (0 = never;
    /// requires `xstar`).
    pub error_every: u64,
    /// Sample the consensus residual every this many steps (0 = never).
    pub residual_every: u64,
    /// Fault injection: silently remove this component from every posted
    /// message (a severed link for one shard entry — used by the
    /// conformance negative controls, never in production runs).
    pub sever_component: Option<usize>,
}

impl ClusterConfig {
    /// A benign default: exchange every update, unit latency, no faults.
    pub fn new(steps: u64) -> Self {
        Self {
            steps,
            exchange_every: 1,
            apply_policy: ApplyPolicy::AsReceived,
            link: LinkModel::Fixed { ticks: 1 },
            hold_prob: 0.0,
            hold_extra: 8,
            drop_prob: 0.0,
            dup_prob: 0.0,
            partial_prob: 0.0,
            seed: 0,
            record: LabelStore::MinOnly,
            target_residual: None,
            check_every: 64,
            error_every: 0,
            residual_every: 0,
            sever_component: None,
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

    /// Sets the receiver policy.
    #[must_use]
    pub fn with_policy(mut self, policy: ApplyPolicy) -> Self {
        self.apply_policy = policy;
        self
    }

    /// Sets the link latency model.
    #[must_use]
    pub fn with_link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Sets the exchange period.
    #[must_use]
    pub fn with_exchange_every(mut self, every: u64) -> Self {
        self.exchange_every = every;
        self
    }

    /// Sets the label retention of the recorded trace.
    #[must_use]
    pub fn with_record(mut self, store: LabelStore) -> Self {
        self.record = store;
        self
    }
}

/// Result of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterRunResult {
    /// Consensus vector: each component taken from its owner's view.
    pub consensus: Vec<f64>,
    /// Fixed-point residual of the consensus vector.
    pub final_residual: f64,
    /// Channel statistics.
    pub stats: ClusterStats,
    /// The executed schedule: one step per block update, labels = the
    /// producing steps of the values read (replays bit-identically).
    pub trace: Trace,
    /// Global steps actually executed.
    pub steps_run: u64,
    /// Block updates per worker.
    pub per_worker_updates: Vec<u64>,
    /// `(j, ‖consensus(j) − x*‖_∞)` samples (empty unless requested).
    pub errors: Vec<(u64, f64)>,
    /// `(j, residual(consensus(j)))` samples (empty unless requested).
    pub residuals: Vec<(u64, f64)>,
    /// True when the residual target fired before the step budget.
    pub stopped_early: bool,
    /// Partial (subset) messages posted.
    pub partial_publishes: u64,
    /// Component values applied out of partial messages.
    pub partial_reads: u64,
    /// Freshness checks performed (`KeepFreshest`: one per received
    /// component application attempt).
    pub constraint_checked: u64,
    /// Freshness violations prevented (stale applications discarded).
    pub constraint_violations: u64,
    /// Wall-clock duration of the event loop.
    pub wall: Duration,
}

/// The native door to the [`Cluster`] event loop. See [`ClusterConfig`].
#[derive(Debug, Default)]
pub struct ClusterEngine;

impl ClusterEngine {
    /// Runs [`Cluster`]'s event loop from a native configuration: one
    /// worker per `partition` machine, always recorded.
    ///
    /// `xstar` is the known fixed point for error sampling (experiments
    /// only — the algorithm never reads it).
    ///
    /// # Errors
    /// Dimension/parameter validation failures, or a non-finite iterate
    /// (operator divergence).
    pub fn run(
        op: &dyn Operator,
        x0: &[f64],
        partition: &Partition,
        cfg: &ClusterConfig,
        xstar: Option<&[f64]>,
    ) -> Result<ClusterRunResult> {
        let problem = Problem {
            op,
            x0: x0.to_vec(),
            xstar: xstar.map(<[f64]>::to_vec),
        };
        let ctl = RunControl {
            max_steps: cfg.steps,
            error_every: cfg.error_every,
            residual_every: cfg.residual_every,
            stopping: cfg.target_residual.map(|eps| StoppingRule::Residual {
                eps,
                check_every: cfg.check_every,
            }),
            record: recorded(cfg.record),
            seed: cfg.seed,
            schedule: None,
        };
        let cluster = Cluster {
            workers: native_workers(partition, op.dim(), "ClusterEngine::run (partition)")?,
            exchange_every: cfg.exchange_every,
            apply_policy: cfg.apply_policy,
            link: cfg.link,
            hold_prob: cfg.hold_prob,
            hold_extra: cfg.hold_extra,
            drop_prob: cfg.drop_prob,
            dup_prob: cfg.dup_prob,
            partial_prob: cfg.partial_prob,
        };
        let report = cluster.run_severed(&problem, &ctl, cfg.sever_component)?;
        Ok(ClusterRunResult {
            consensus: report.final_x,
            final_residual: report.final_residual,
            stats: report.channel.expect("the event loop fills it"),
            trace: report.trace.expect("both record modes keep the trace"),
            steps_run: report.steps,
            per_worker_updates: report.per_worker_updates,
            errors: report.errors,
            residuals: report.residuals,
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
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_numerics::vecops;
    use asynciter_opt::linear::JacobiOperator;

    fn jacobi(n: usize) -> JacobiOperator {
        JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
    }

    #[test]
    fn fault_free_run_converges() {
        let op = jacobi(24);
        let xstar = op.solve_dense_spd().unwrap();
        let p = Partition::blocks(24, 3).unwrap();
        let cfg = ClusterConfig::new(900);
        let res = ClusterEngine::run(&op, &[0.0; 24], &p, &cfg, None).unwrap();
        assert!(
            vecops::max_abs_diff(&res.consensus, &xstar) < 1e-8,
            "error {}",
            vecops::max_abs_diff(&res.consensus, &xstar)
        );
        assert!(res.stats.sent > 0);
        assert_eq!(res.stats.dropped, 0);
        assert_eq!(res.per_worker_updates, vec![300; 3]);
    }

    #[test]
    fn both_doors_run_one_deterministic_loop() {
        // Two meters agree: the native door's result is the session
        // door's report, field for field — counters, iterate and trace.
        let op = jacobi(16);
        let p = Partition::blocks(16, 4).unwrap();
        let mut cfg = ClusterConfig::new(600)
            .with_faults(0.3, 0.15, 0.1)
            .with_policy(ApplyPolicy::KeepFreshest)
            .with_link(LinkModel::Jitter { lo: 1, hi: 5 })
            .with_seed(9)
            .with_record(LabelStore::Full);
        cfg.partial_prob = 0.4;
        let a = ClusterEngine::run(&op, &[0.0; 16], &p, &cfg, None).unwrap();
        let b = Session::new(&op)
            .steps(600)
            .seed(9)
            .record(RecordMode::Full)
            .backend(Cluster {
                workers: 4,
                apply_policy: ApplyPolicy::KeepFreshest,
                link: LinkModel::Jitter { lo: 1, hi: 5 },
                hold_prob: 0.3,
                drop_prob: 0.15,
                dup_prob: 0.1,
                partial_prob: 0.4,
                ..Cluster::default()
            })
            .run()
            .unwrap();
        assert_eq!(same_bits(&a.consensus, &b.final_x), Ok(()));
        assert_eq!(Some(&a.stats), b.channel.as_ref());
        assert!(a.stats.dropped > 0 && a.stats.held > 0 && a.constraint_violations > 0);
        assert_eq!(
            (a.partial_publishes, a.partial_reads),
            (b.partial_publishes, b.partial_reads)
        );
        assert_eq!(
            (a.constraint_checked, a.constraint_violations),
            (b.constraint_checked, b.constraint_violations)
        );
        assert!(a.partial_reads > 0 && a.constraint_violations > 0);
        assert_eq!(
            (a.steps_run, &a.per_worker_updates),
            (b.steps, &b.per_worker_updates)
        );
        assert_eq!(same_schedule(&a.trace, &b.trace.unwrap()), Ok(()));
    }

    #[test]
    fn survives_reordering_loss_and_duplication() {
        let op = jacobi(24);
        let xstar = op.solve_dense_spd().unwrap();
        let p = Partition::blocks(24, 4).unwrap();
        for policy in [ApplyPolicy::AsReceived, ApplyPolicy::KeepFreshest] {
            let cfg = ClusterConfig::new(3200)
                .with_faults(0.3, 0.15, 0.1)
                .with_policy(policy)
                .with_seed(5);
            let res = ClusterEngine::run(&op, &[0.0; 24], &p, &cfg, None).unwrap();
            assert!(
                vecops::max_abs_diff(&res.consensus, &xstar) < 1e-6,
                "{policy:?}: error {}",
                vecops::max_abs_diff(&res.consensus, &xstar)
            );
            assert!(res.stats.dropped > 0, "{policy:?}: faults not exercised");
            assert!(res.stats.held > 0);
        }
    }

    #[test]
    fn keep_freshest_discards_stale_and_reports_constraint_stats() {
        let op = jacobi(16);
        let p = Partition::blocks(16, 4).unwrap();
        let cfg = ClusterConfig::new(2000)
            .with_faults(0.5, 0.0, 0.2)
            .with_policy(ApplyPolicy::KeepFreshest)
            .with_seed(11);
        let res = ClusterEngine::run(&op, &[0.0; 16], &p, &cfg, None).unwrap();
        assert!(
            res.constraint_violations > 0,
            "reordering should produce stale discards"
        );
        assert!(res.constraint_checked > res.constraint_violations);
    }

    #[test]
    fn partial_exchanges_are_counted_and_converge() {
        let op = jacobi(16);
        let xstar = op.solve_dense_spd().unwrap();
        let p = Partition::blocks(16, 2).unwrap();
        let mut cfg = ClusterConfig::new(1200).with_seed(3);
        cfg.partial_prob = 0.6;
        let res = ClusterEngine::run(&op, &[0.0; 16], &p, &cfg, None).unwrap();
        assert!(res.partial_publishes > 0);
        assert!(res.partial_reads > 0);
        assert!(vecops::max_abs_diff(&res.consensus, &xstar) < 1e-7);
    }

    #[test]
    fn sparse_exchange_cuts_message_volume_and_converges() {
        let op = jacobi(16);
        let xstar = op.solve_dense_spd().unwrap();
        let p = Partition::blocks(16, 2).unwrap();
        let cfg = ClusterConfig::new(4000).with_exchange_every(25);
        let res = ClusterEngine::run(&op, &[0.0; 16], &p, &cfg, None).unwrap();
        assert!(vecops::max_abs_diff(&res.consensus, &xstar) < 1e-7);
        // One message per worker per 25 updates, not one per update.
        assert_eq!(res.stats.sent, 4000 / 25);
    }

    #[test]
    fn residual_target_stops_early() {
        let op = jacobi(16);
        let p = Partition::blocks(16, 2).unwrap();
        let mut cfg = ClusterConfig::new(100_000);
        cfg.target_residual = Some(1e-10);
        cfg.check_every = 8;
        let res = ClusterEngine::run(&op, &[0.0; 16], &p, &cfg, None).unwrap();
        assert!(res.stopped_early);
        assert!(res.steps_run < 100_000);
        assert!(res.final_residual <= 1e-10);
    }

    #[test]
    fn severed_component_freezes_remote_labels() {
        let op = jacobi(12);
        let p = Partition::blocks(12, 3).unwrap();
        let mut cfg = ClusterConfig::new(600).with_record(LabelStore::Full);
        // Component 3 sits on the block boundary: worker 1's component 4
        // reads it, so losing its messages is an *essential* fault (an
        // interior component like 0 is only read by its own shard and
        // its loss would be absorbed).
        cfg.sever_component = Some(3);
        let res = ClusterEngine::run(&op, &[0.0; 12], &p, &cfg, None).unwrap();
        // Workers 1 and 2 never hear about component 3: their recorded
        // reads keep label 0 forever.
        for j in 1..=res.trace.len() as u64 {
            let w = ((j - 1) % 3) as usize;
            if w != 0 {
                assert_eq!(res.trace.labels(j).unwrap()[3], 0, "step {j}");
            }
        }
        // And the consensus cannot converge to the true fixed point.
        let xstar = op.solve_dense_spd().unwrap();
        assert!(vecops::max_abs_diff(&res.consensus, &xstar) > 1e-6);
    }

    #[test]
    fn heavy_tail_links_reorder_unboundedly_yet_converge() {
        let op = jacobi(16);
        let xstar = op.solve_dense_spd().unwrap();
        let p = Partition::blocks(16, 4).unwrap();
        let cfg = ClusterConfig::new(4000)
            .with_link(LinkModel::HeavyTail {
                scale: 1,
                alpha: 1.3,
            })
            .with_seed(7);
        let res = ClusterEngine::run(&op, &[0.0; 16], &p, &cfg, None).unwrap();
        assert!(vecops::max_abs_diff(&res.consensus, &xstar) < 1e-6);
    }

    #[test]
    fn a_hold_on_a_latency_past_u64_max_never_arrives() {
        // α = 0.1: about one draw in 80 is `u64::MAX` steps by itself, so
        // a hold on top of it passes the end of time often.
        let op = jacobi(16);
        let res = Session::new(&op)
            .steps(2000)
            .seed(1)
            .record(RecordMode::Full)
            .backend(Cluster {
                workers: 4,
                link: LinkModel::HeavyTail {
                    scale: 1,
                    alpha: 0.1,
                },
                hold_prob: 0.5,
                ..Cluster::default()
            })
            .run()
            .unwrap();
        assert_eq!(res.steps, 2000);
        assert!(res.channel.expect("cluster channel counters").held > 0);
        let trace = res.trace.expect("RecordMode::Full");
        asynciter_models::conditions::check_condition_a(&trace).expect("condition (a)");
    }

    #[test]
    fn validation_errors() {
        let op = jacobi(8);
        let p = Partition::blocks(8, 2).unwrap();
        assert!(ClusterEngine::run(&op, &[0.0; 7], &p, &ClusterConfig::new(10), None).is_err());
        assert!(ClusterEngine::run(&op, &[0.0; 8], &p, &ClusterConfig::new(0), None).is_err());
        // Error sampling without a known fixed point.
        let mut bad = ClusterConfig::new(10);
        bad.error_every = 2;
        assert!(ClusterEngine::run(&op, &[0.0; 8], &p, &bad, None).is_err());
        let bad = ClusterConfig::new(10).with_faults(1.5, 0.0, 0.0);
        assert!(ClusterEngine::run(&op, &[0.0; 8], &p, &bad, None).is_err());
        let bad = ClusterConfig::new(10).with_link(LinkModel::Jitter { lo: 5, hi: 2 });
        assert!(ClusterEngine::run(&op, &[0.0; 8], &p, &bad, None).is_err());
        let bad = ClusterConfig::new(10).with_link(LinkModel::HeavyTail {
            scale: 1,
            alpha: 0.0,
        });
        assert!(ClusterEngine::run(&op, &[0.0; 8], &p, &bad, None).is_err());
        let mut bad = ClusterConfig::new(10);
        bad.sever_component = Some(8);
        assert!(ClusterEngine::run(&op, &[0.0; 8], &p, &bad, None).is_err());
        // A partition not sized for the operator.
        let p9 = Partition::blocks(9, 2).unwrap();
        let err = ClusterEngine::run(&op, &[0.0; 8], &p9, &ClusterConfig::new(10), None);
        assert!(
            matches!(err, Err(CoreError::DimensionMismatch { actual: 9, .. })),
            "{err:?}"
        );
        let bad = ClusterConfig::new(10).with_exchange_every(0);
        assert!(ClusterEngine::run(&op, &[0.0; 8], &p, &bad, None).is_err());
        let mut bad = ClusterConfig::new(10);
        bad.partial_prob = f64::NAN;
        assert!(ClusterEngine::run(&op, &[0.0; 8], &p, &bad, None).is_err());
    }
}
