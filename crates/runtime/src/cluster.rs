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
//!   `Jitter` (bounded random) or `HeavyTail` (Pareto: unbounded delays);
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
//! This engine is a *sequential discrete event loop* over
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
//! ## Replay equivalence
//!
//! The engine records a [`Trace`] in which the label of component `c` at
//! step `j` is the **producing step** of the value the acting worker
//! currently holds for `c` (its own last write, or the label carried by
//! the applied message; 0 for the initial value). Values in any local
//! view are always values some global step produced, so injecting the
//! recorded trace into the Definition-1 replay engine reproduces the
//! cluster's iterates **bit for bit** — message faults and all. This is
//! the differential oracle the conformance fuzzer drives
//! (`Cluster → Trace → Replay`), and the degenerate case
//! `Cluster { workers: 1, no faults }` *is* the synchronous Jacobi
//! schedule, bit-identical to `Replay` on the default schedule.
//!
//! [`Partition`]: asynciter_models::partition::Partition

use crate::error::RuntimeError;
use crate::transport::{BlockMessage, Exit, FaultRouter, SendFate};
use crate::worker::{assemble_consensus, check_positive, check_probabilities, Worker};
use asynciter_models::partition::Partition;
use asynciter_models::trace::{LabelStore, Trace};
use asynciter_numerics::rng::{pareto, rng};
use asynciter_opt::traits::Operator;
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::BinaryHeap;
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

/// Per-link latency distribution, mirroring the delay zoo.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkModel {
    /// Constant latency: in-order, bounded staleness (condition (d)).
    Fixed {
        /// Latency in steps.
        ticks: u64,
    },
    /// Uniform latency in `[lo, hi]`: bounded, mildly reordering.
    Jitter {
        /// Minimum latency.
        lo: u64,
        /// Maximum latency.
        hi: u64,
    },
    /// Pareto-tailed latency: unbounded delays, occasionally enormous.
    HeavyTail {
        /// Scale (minimum latency).
        scale: u64,
        /// Pareto shape (smaller = heavier tail); must be positive.
        alpha: f64,
    },
}

impl LinkModel {
    fn sample(&self, r: &mut StdRng) -> u64 {
        match *self {
            LinkModel::Fixed { ticks } => ticks,
            LinkModel::Jitter { lo, hi } => r.random_range(lo..=hi),
            LinkModel::HeavyTail { scale, alpha } => {
                pareto(r, scale.max(1) as f64, alpha).round() as u64
            }
        }
    }

    /// Checks the distribution's parameters.
    ///
    /// # Errors
    /// What is wrong, as a message: `Jitter` with `hi < lo`, or
    /// `HeavyTail` with a shape that is not positive.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            LinkModel::Jitter { lo, hi } if hi < lo => Err(format!(
                "jitter delay needs lo <= hi (got lo {lo}, hi {hi})"
            )),
            // A NaN shape fails the guard and is rejected too.
            LinkModel::HeavyTail { alpha, .. } if alpha > 0.0 => Ok(()),
            LinkModel::HeavyTail { alpha, .. } => {
                Err(format!("heavy-tail alpha must be positive (got {alpha})"))
            }
            _ => Ok(()),
        }
    }
}

/// Configuration of a cluster run.
///
/// Build one with [`ClusterConfig::new`] and the `with_*` setters:
///
/// ```
/// use asynciter_numerics::sparse::tridiagonal;
/// use asynciter_opt::linear::JacobiOperator;
/// use asynciter_models::partition::Partition;
/// use asynciter_runtime::cluster::{ClusterConfig, ClusterEngine, LinkModel};
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

/// Channel statistics of a cluster run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Link deliveries attempted (one per message per destination).
    pub sent: u64,
    /// Deliveries that reached a mailbox (including duplicates).
    pub delivered: u64,
    /// Deliveries dropped.
    pub dropped: u64,
    /// Deliveries duplicated.
    pub duplicated: u64,
    /// Deliveries held back with extra latency (out-of-order).
    pub held: u64,
    /// Component applications a receiver discarded as stale
    /// (`KeepFreshest` only).
    pub discarded_stale: u64,
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

/// One mailbox entry: delivery time, tie-break sequence number, and the
/// carried message.
#[derive(Debug, Clone)]
struct Envelope {
    deliver_at: u64,
    seq: u64,
    msg: BlockMessage,
}

// Mailboxes are min-heaps on (deliver_at, seq); payload is ignored by
// the ordering.
impl PartialEq for Envelope {
    fn eq(&self, other: &Self) -> bool {
        (self.deliver_at, self.seq) == (other.deliver_at, other.seq)
    }
}
impl Eq for Envelope {}
impl PartialOrd for Envelope {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Envelope {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.deliver_at, other.seq).cmp(&(self.deliver_at, self.seq))
    }
}

/// The sharded message-passing engine. See module docs.
#[derive(Debug, Default)]
pub struct ClusterEngine;

impl ClusterEngine {
    /// Runs the distributed asynchronous iteration.
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
    ) -> crate::Result<ClusterRunResult> {
        let n = op.dim();
        validate(n, cfg, xstar)?;
        let mut workers = Worker::mesh(
            op,
            x0,
            partition,
            cfg.apply_policy,
            cfg.exchange_every,
            cfg.partial_prob,
        )?;
        let start = Instant::now();
        let mut mailboxes: Vec<BinaryHeap<Envelope>> =
            workers.iter().map(|_| BinaryHeap::new()).collect();
        // Drop/duplicate decisions and their counters; this engine's holds
        // are extra link latency, so nothing is ever parked in the router.
        let mut router = FaultRouter::default();
        let (mut held, mut seq) = (0u64, 0u64);
        let mut rng = rng(cfg.seed);
        let mut trace = Trace::new(n, cfg.record);
        let (mut errors, mut residuals) = (Vec::new(), Vec::new());
        let (mut steps_run, mut stopped_early) = (0, false);
        // Consensus assembly and its residual scratch, allocated once.
        let mut scratch = vec![0.0; op.scratch_len()];
        let mut consensus = vec![0.0; n];

        // One global step: deliver due mail → record → block update →
        // exchange → observe/stop.
        for j in 1..=cfg.steps {
            let w = ((j - 1) % workers.len() as u64) as usize;
            let worker = &mut workers[w];

            // Deliver all mail due by now, earliest (deliver_at, seq) first
            // — holds put older messages behind newer ones.
            while mailboxes[w].peek().is_some_and(|env| env.deliver_at <= j) {
                worker.receive(&mailboxes[w].pop().expect("peeked").msg);
            }

            // Record the step *before* writing (active set = the owned
            // block, labels = the producing steps of the view being read),
            // then Jacobi within the block: all components read the same
            // view.
            trace.push_step(worker.block(), worker.labels());
            worker.produce(op, j)?;
            steps_run = j;

            // Exchange: post the block (or a partial subset) to peers. Per
            // destination the stream decides drop, then duplicate; every
            // copy that leaves the router draws its own latency and hold.
            let mut posted = worker.post(&mut rng);
            if let (Some(msg), Some(sc)) = (&mut posted, cfg.sever_component) {
                msg.comps.retain(|&(c, _, _)| c as usize != sc);
            }
            if let Some(msg) = posted.filter(|msg| !msg.comps.is_empty()) {
                for dest in worker.peers() {
                    let fate = if rng.random_range(0.0..1.0) < cfg.drop_prob {
                        SendFate::Drop
                    } else {
                        let dup = rng.random_range(0.0..1.0) < cfg.dup_prob;
                        SendFate::Deliver { dup, hold: 0 }
                    };
                    router.route(dest, msg.clone(), fate, |exit, dest, msg| {
                        if exit == Exit::Dropped {
                            return;
                        }
                        let mut latency = cfg.link.sample(&mut rng);
                        if rng.random_range(0.0..1.0) < cfg.hold_prob {
                            held += 1;
                            latency += rng.random_range(1..=cfg.hold_extra.max(1));
                        }
                        seq += 1;
                        mailboxes[dest].push(Envelope {
                            deliver_at: j.saturating_add(latency),
                            seq,
                            msg,
                        });
                    });
                }
            }

            // Observability and stopping on the consensus vector.
            let want_error = cfg.error_every > 0 && j.is_multiple_of(cfg.error_every);
            let want_residual = cfg.residual_every > 0 && j.is_multiple_of(cfg.residual_every);
            let want_stop =
                cfg.target_residual.is_some() && j.is_multiple_of(cfg.check_every.max(1));
            if want_error || want_residual || want_stop {
                assemble_consensus(&workers, &mut consensus);
                if want_error {
                    let xs = xstar.expect("validated: requires xstar");
                    errors.push((j, asynciter_numerics::vecops::max_abs_diff(&consensus, xs)));
                }
                if want_residual || want_stop {
                    let residual = op.residual_inf_with(&consensus, &mut scratch);
                    if want_residual {
                        residuals.push((j, residual));
                    }
                    if want_stop && cfg.target_residual.is_some_and(|eps| residual <= eps) {
                        stopped_early = true;
                        break;
                    }
                }
            }
        }

        assemble_consensus(&workers, &mut consensus);
        let final_residual = op.residual_inf(&consensus);
        let sends = router.stats();
        let totals = Worker::totals(&workers);
        Ok(ClusterRunResult {
            consensus,
            final_residual,
            stats: ClusterStats {
                sent: sends.sent,
                delivered: totals.delivered,
                dropped: sends.dropped,
                duplicated: sends.duplicated,
                held,
                discarded_stale: totals.constraint_violations,
            },
            trace,
            steps_run,
            per_worker_updates: workers.iter().map(|w| w.counters().updates).collect(),
            errors,
            residuals,
            stopped_early,
            partial_publishes: totals.partial_publishes,
            partial_reads: totals.partial_reads,
            constraint_checked: totals.constraint_checked,
            constraint_violations: totals.constraint_violations,
            wall: start.elapsed(),
        })
    }
}

fn validate(n: usize, cfg: &ClusterConfig, xstar: Option<&[f64]>) -> crate::Result<()> {
    check_positive(&[("steps", cfg.steps)])?;
    if cfg.error_every > 0 {
        match xstar {
            None => {
                return Err(RuntimeError::InvalidParameter {
                    name: "error_every",
                    message: "error sampling requires a known fixed point".into(),
                });
            }
            Some(xs) if xs.len() != n => {
                return Err(RuntimeError::DimensionMismatch {
                    expected: n,
                    actual: xs.len(),
                    context: "ClusterEngine::run (xstar)",
                });
            }
            Some(_) => {}
        }
    }
    cfg.link
        .validate()
        .map_err(|message| RuntimeError::InvalidParameter {
            name: "link",
            message,
        })?;
    check_probabilities(&[
        ("hold_prob", cfg.hold_prob),
        ("drop_prob", cfg.drop_prob),
        ("dup_prob", cfg.dup_prob),
    ])?;
    if let Some(sc) = cfg.sever_component {
        if sc >= n {
            return Err(RuntimeError::InvalidParameter {
                name: "sever_component",
                message: format!("component {sc} out of range for dim {n}"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn runs_are_deterministic() {
        let op = jacobi(16);
        let p = Partition::blocks(16, 4).unwrap();
        let cfg = ClusterConfig::new(600)
            .with_faults(0.3, 0.15, 0.1)
            .with_link(LinkModel::Jitter { lo: 1, hi: 5 })
            .with_seed(9)
            .with_record(LabelStore::Full);
        let a = ClusterEngine::run(&op, &[0.0; 16], &p, &cfg, None).unwrap();
        let b = ClusterEngine::run(&op, &[0.0; 16], &p, &cfg, None).unwrap();
        assert_eq!(a.consensus, b.consensus);
        assert_eq!(a.stats, b.stats);
        for j in 1..=a.trace.len() as u64 {
            assert_eq!(a.trace.step(j).active, b.trace.step(j).active);
            assert_eq!(a.trace.labels(j).unwrap(), b.trace.labels(j).unwrap());
        }
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
            res.stats.discarded_stale > 0,
            "reordering should produce stale discards"
        );
        assert_eq!(res.constraint_violations, res.stats.discarded_stale);
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
        // The worker mesh checks its own inputs.
        let p9 = Partition::blocks(9, 2).unwrap();
        assert!(ClusterEngine::run(&op, &[0.0; 8], &p9, &ClusterConfig::new(10), None).is_err());
        let bad = ClusterConfig::new(10).with_exchange_every(0);
        assert!(ClusterEngine::run(&op, &[0.0; 8], &p, &bad, None).is_err());
        let mut bad = ClusterConfig::new(10);
        bad.partial_prob = f64::NAN;
        assert!(ClusterEngine::run(&op, &[0.0; 8], &p, &bad, None).is_err());
    }
}
