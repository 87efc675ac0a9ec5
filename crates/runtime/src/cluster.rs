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
use crate::worker::{check_probabilities, Worker};
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
    /// Final local view of each worker.
    pub local_views: Vec<Vec<f64>>,
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

/// Outcome of applying one message payload to a worker view — the
/// bookkeeping callers need to maintain [`ClusterStats`] and the
/// flexible/constraint counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageApply {
    /// Component entries actually written into the view.
    pub applied: u64,
    /// Freshness checks performed (`KeepFreshest`: one per entry).
    pub checked: u64,
    /// Entries discarded as stale (`KeepFreshest` only).
    pub stale: u64,
}

/// Applies one message's `(component, value, producing step)` triples to
/// a worker's local view under `policy`, updating the per-component
/// producing-step labels alongside the values.
///
/// This is the receiver half of the cluster's step-granular transition
/// function: [`Worker::receive`] is built on it, and the model
/// checker's cluster-regime scopes call it directly.
///
/// # Panics
/// Panics (debug) when a component index is out of range.
pub fn apply_message(
    view: &mut [f64],
    labels: &mut [u64],
    comps: &[(u32, f64, u64)],
    policy: ApplyPolicy,
) -> MessageApply {
    let mut out = MessageApply::default();
    for &(c, v, l) in comps {
        let c = c as usize;
        let apply = match policy {
            ApplyPolicy::AsReceived => true,
            ApplyPolicy::KeepFreshest => {
                out.checked += 1;
                if l >= labels[c] {
                    true
                } else {
                    out.stale += 1;
                    false
                }
            }
        };
        if apply {
            view[c] = v;
            labels[c] = l;
            out.applied += 1;
        }
    }
    out
}

/// One producing block update by the owner of `block` at global step `j`:
/// records the step (active set = the owned block, labels = the
/// producing steps of the view being read), evaluates the operator
/// Jacobi-style on the current view, and stamps the freshly produced
/// components with label `j`.
///
/// This is the producer half of the cluster's step-granular transition
/// function (see [`apply_message`]).
///
/// # Errors
/// [`RuntimeError::NonFiniteIterate`] when the operator diverges.
///
/// # Panics
/// Panics on dimension mismatches (`upd`/`scratch` sized for `op`).
// Deliberately flat: every argument is a distinct piece of state the
// model checker's cluster-regime scopes own separately, so a bundling
// struct would just move the argument list to its constructor.
#[allow(clippy::too_many_arguments)]
pub fn produce_step(
    op: &dyn Operator,
    view: &mut [f64],
    labels: &mut [u64],
    block: &[usize],
    j: u64,
    trace: &mut Trace,
    upd: &mut [f64],
    scratch: &mut [f64],
) -> Result<(), RuntimeError> {
    trace.push_step(block, labels);
    produce_block(op, view, labels, block, j, upd, scratch)
}

/// The produce half of [`produce_step`] without the trace push: one
/// Jacobi-style block evaluation on the current view, finiteness check,
/// and label stamping with the producing step `j`.
///
/// [`Worker::produce`] is built on this, so sequential, concurrent and
/// model-checked cluster updates execute byte-identical arithmetic by
/// construction.
///
/// # Errors
/// [`RuntimeError::NonFiniteIterate`] when the operator diverges.
///
/// # Panics
/// Panics on dimension mismatches (`upd`/`scratch` sized for `op`).
pub fn produce_block(
    op: &dyn Operator,
    view: &mut [f64],
    labels: &mut [u64],
    block: &[usize],
    j: u64,
    upd: &mut [f64],
    scratch: &mut [f64],
) -> Result<(), RuntimeError> {
    op.update_active_with(view, block, upd, scratch);
    for &i in block {
        let v = upd[i];
        if !v.is_finite() {
            return Err(RuntimeError::NonFiniteIterate {
                at_step: j,
                component: i,
            });
        }
        view[i] = v;
        labels[i] = j;
    }
    Ok(())
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

/// Status of one [`ClusterCursor::step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// A global step executed; more remain.
    Running,
    /// The run is over (budget exhausted or residual target hit); no
    /// step was (or will be) executed.
    Done,
}

/// A step-granular handle on a cluster run: the same event loop as
/// [`ClusterEngine::run`], exposed one global step at a time.
/// `ClusterEngine::run` is a thin loop over this cursor, so stepping and
/// running to completion are bit-identical by construction.
pub struct ClusterCursor<'a> {
    op: &'a dyn Operator,
    cfg: ClusterConfig,
    xstar: Option<Vec<f64>>,
    start: Instant,
    workers: Vec<Worker>,
    mailboxes: Vec<BinaryHeap<Envelope>>,
    // Drop/duplicate decisions and their counters; this engine's holds
    // are extra link latency, so nothing is ever parked in the router.
    router: FaultRouter<BlockMessage>,
    held: u64,
    rng: StdRng,
    seq: u64,
    trace: Trace,
    errors: Vec<(u64, f64)>,
    residuals: Vec<(u64, f64)>,
    stopped_early: bool,
    steps_run: u64,
    next_j: u64,
    // Consensus assembly and its residual scratch, allocated once.
    scratch: Vec<f64>,
    consensus: Vec<f64>,
}

impl std::fmt::Debug for ClusterCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterCursor")
            .field("workers", &self.workers.len())
            .field("next_j", &self.next_j)
            .field("steps_run", &self.steps_run)
            .field("stopped_early", &self.stopped_early)
            .finish_non_exhaustive()
    }
}

impl<'a> ClusterCursor<'a> {
    /// Validates the run parameters and positions the cursor before
    /// global step 1.
    ///
    /// # Errors
    /// Dimension/parameter validation failures (same checks as
    /// [`ClusterEngine::run`]).
    pub fn new(
        op: &'a dyn Operator,
        x0: &[f64],
        partition: &Partition,
        cfg: &ClusterConfig,
        xstar: Option<&[f64]>,
    ) -> crate::Result<Self> {
        let n = op.dim();
        validate(n, cfg, xstar)?;
        let workers = Worker::mesh(
            op,
            x0,
            partition,
            cfg.apply_policy,
            cfg.exchange_every,
            cfg.partial_prob,
        )?;
        Ok(Self {
            op,
            cfg: cfg.clone(),
            xstar: xstar.map(<[f64]>::to_vec),
            start: Instant::now(),
            mailboxes: workers.iter().map(|_| BinaryHeap::new()).collect(),
            workers,
            router: FaultRouter::default(),
            held: 0,
            rng: rng(cfg.seed),
            seq: 0,
            trace: Trace::new(n, cfg.record),
            errors: Vec::new(),
            residuals: Vec::new(),
            stopped_early: false,
            steps_run: 0,
            next_j: 1,
            scratch: vec![0.0; op.scratch_len()],
            consensus: vec![0.0; n],
        })
    }

    fn assemble_consensus(&mut self) {
        for worker in &self.workers {
            for &i in worker.block() {
                self.consensus[i] = worker.view()[i];
            }
        }
    }

    /// Executes one global step (deliver due mail → record → block
    /// update → exchange → observe/stop).
    ///
    /// # Errors
    /// [`RuntimeError::NonFiniteIterate`] when the operator diverges.
    pub fn step(&mut self) -> crate::Result<StepStatus> {
        if self.stopped_early || self.next_j > self.cfg.steps {
            return Ok(StepStatus::Done);
        }
        let j = self.next_j;
        self.next_j += 1;
        let w = ((j - 1) % self.workers.len() as u64) as usize;
        let worker = &mut self.workers[w];

        // Deliver all mail due by now, earliest (deliver_at, seq) first
        // — holds put older messages behind newer ones.
        while self.mailboxes[w]
            .peek()
            .is_some_and(|env| env.deliver_at <= j)
        {
            worker.receive(&self.mailboxes[w].pop().expect("peeked").msg);
        }

        // Record the step *before* writing (active set = the owned
        // block, labels = the producing steps of the view being read),
        // then Jacobi within the block: all components read the same
        // view.
        self.trace.push_step(worker.block(), worker.labels());
        worker.produce(self.op, j)?;
        self.steps_run = j;

        // Exchange: post the block (or a partial subset) to peers. Per
        // destination the stream decides drop, then duplicate; every
        // copy that leaves the router draws its own latency and hold.
        let mut posted = worker.post(&mut self.rng);
        if let (Some(msg), Some(sc)) = (&mut posted, self.cfg.sever_component) {
            msg.comps.retain(|&(c, _, _)| c as usize != sc);
        }
        if let Some(msg) = posted.filter(|msg| !msg.comps.is_empty()) {
            let (cfg, rng) = (&self.cfg, &mut self.rng);
            for dest in worker.peers() {
                let fate = if rng.random_range(0.0..1.0) < cfg.drop_prob {
                    SendFate::Drop
                } else {
                    let dup = rng.random_range(0.0..1.0) < cfg.dup_prob;
                    SendFate::Deliver { dup, hold: 0 }
                };
                self.router
                    .route(dest, msg.clone(), fate, |exit, dest, msg| {
                        if exit == Exit::Dropped {
                            return;
                        }
                        let mut latency = cfg.link.sample(rng);
                        if rng.random_range(0.0..1.0) < cfg.hold_prob {
                            self.held += 1;
                            latency += rng.random_range(1..=cfg.hold_extra.max(1));
                        }
                        self.seq += 1;
                        self.mailboxes[dest].push(Envelope {
                            deliver_at: j.saturating_add(latency),
                            seq: self.seq,
                            msg,
                        });
                    });
            }
        }

        // Observability and stopping on the consensus vector.
        let want_error = self.cfg.error_every > 0 && j.is_multiple_of(self.cfg.error_every);
        let want_residual =
            self.cfg.residual_every > 0 && j.is_multiple_of(self.cfg.residual_every);
        let want_stop =
            self.cfg.target_residual.is_some() && j.is_multiple_of(self.cfg.check_every.max(1));
        if want_error || want_residual || want_stop {
            self.assemble_consensus();
            if want_error {
                let xs = self.xstar.as_deref().expect("validated: requires xstar");
                self.errors.push((
                    j,
                    asynciter_numerics::vecops::max_abs_diff(&self.consensus, xs),
                ));
            }
            if want_residual || want_stop {
                let residual = self
                    .op
                    .residual_inf_with(&self.consensus, &mut self.scratch);
                if want_residual {
                    self.residuals.push((j, residual));
                }
                if want_stop && self.cfg.target_residual.is_some_and(|eps| residual <= eps) {
                    self.stopped_early = true;
                    return Ok(StepStatus::Done);
                }
            }
        }
        Ok(StepStatus::Running)
    }

    /// Finalises the run: assembles the consensus vector and the result
    /// record. Can be called at any point of the run (the result covers
    /// the steps executed so far).
    pub fn into_result(mut self) -> ClusterRunResult {
        self.assemble_consensus();
        let final_residual = self.op.residual_inf(&self.consensus);
        let sends = self.router.stats();
        let totals = Worker::totals(&self.workers);
        ClusterRunResult {
            local_views: self.workers.iter().map(|w| w.view().to_vec()).collect(),
            consensus: self.consensus,
            final_residual,
            stats: ClusterStats {
                sent: sends.sent,
                delivered: totals.delivered,
                dropped: sends.dropped,
                duplicated: sends.duplicated,
                held: self.held,
                discarded_stale: totals.constraint_violations,
            },
            trace: self.trace,
            steps_run: self.steps_run,
            per_worker_updates: self.workers.iter().map(|w| w.counters().updates).collect(),
            errors: self.errors,
            residuals: self.residuals,
            stopped_early: self.stopped_early,
            partial_publishes: totals.partial_publishes,
            partial_reads: totals.partial_reads,
            constraint_checked: totals.constraint_checked,
            constraint_violations: totals.constraint_violations,
            wall: self.start.elapsed(),
        }
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
        let mut cursor = ClusterCursor::new(op, x0, partition, cfg, xstar)?;
        while cursor.step()? == StepStatus::Running {}
        Ok(cursor.into_result())
    }
}

fn validate(n: usize, cfg: &ClusterConfig, xstar: Option<&[f64]>) -> crate::Result<()> {
    if cfg.steps == 0 {
        return Err(RuntimeError::InvalidParameter {
            name: "steps",
            message: "must be positive".into(),
        });
    }
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
    fn cursor_stepping_matches_run_to_completion_bitwise() {
        let op = jacobi(16);
        let p = Partition::blocks(16, 4).unwrap();
        let mut cfg = ClusterConfig::new(400)
            .with_faults(0.3, 0.15, 0.1)
            .with_link(LinkModel::Jitter { lo: 1, hi: 5 })
            .with_seed(41)
            .with_record(LabelStore::Full);
        cfg.partial_prob = 0.25;
        let whole = ClusterEngine::run(&op, &[0.0; 16], &p, &cfg, None).unwrap();
        let mut cursor = ClusterCursor::new(&op, &[0.0; 16], &p, &cfg, None).unwrap();
        while cursor.step().unwrap() == StepStatus::Running {}
        let stepped = cursor.into_result();
        assert_eq!(whole.consensus, stepped.consensus);
        assert_eq!(whole.stats, stepped.stats);
        assert_eq!(whole.steps_run, stepped.steps_run);
        for j in 1..=whole.trace.len() as u64 {
            assert_eq!(
                whole.trace.labels(j).unwrap(),
                stepped.trace.labels(j).unwrap()
            );
        }
    }

    #[test]
    fn apply_message_keep_freshest_counts_stale_entries() {
        let mut view = vec![0.0, 0.0];
        let mut labels = vec![5u64, 1];
        let out = apply_message(
            &mut view,
            &mut labels,
            &[(0, 9.0, 3), (1, 7.0, 4)],
            ApplyPolicy::KeepFreshest,
        );
        assert_eq!(
            out,
            MessageApply {
                applied: 1,
                checked: 2,
                stale: 1
            }
        );
        assert_eq!(view, vec![0.0, 7.0]);
        assert_eq!(labels, vec![5, 4]);
        let out = apply_message(
            &mut view,
            &mut labels,
            &[(0, 9.0, 3)],
            ApplyPolicy::AsReceived,
        );
        assert_eq!(out.applied, 1);
        assert_eq!(out.checked, 0);
        assert_eq!(labels, vec![3, 4]);
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
