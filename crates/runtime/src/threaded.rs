//! The concurrent cluster engine: free-running worker threads owning
//! shards, exchanging labelled block messages through the
//! [`crate::transport`] seam.
//!
//! This is the real-hardware counterpart of the deterministic
//! [`crate::cluster`] event loop, and a second scheduler over the same
//! [`Worker`]: one OS thread per worker, running unsynchronised — drain
//! the transport mailbox, produce a block update, post the block to
//! every peer — with hold / drop / duplicate faults injected at the
//! transport seam ([`crate::transport::FaultEndpoint`]). Thread
//! interleaving (and therefore the executed schedule) is genuinely
//! nondeterministic.
//!
//! ## Why the recorded trace still replays bit for bit
//!
//! Correctness is anchored per run, not per configuration: every run
//! records the producing-step schedule it *actually executed*, and that
//! trace replays bit-identically through the Definition-1 `Replay`
//! engine. Two ingredients make this work on racy threads:
//!
//! 1. **A global atomic step counter linearises the trace.** A worker
//!    acquires its step number `j` with a `SeqCst` `fetch_add` *after*
//!    draining its mailbox. Every label in its view is either one of its
//!    own earlier steps (program order) or the producing step `k`
//!    carried by a received message — and the sender acquired `k`
//!    before sending, the channel delivery happens-before the receive,
//!    and the receive precedes this `fetch_add`. Hence every label is
//!    `< j`: condition (a) holds *by construction* (asserted, never
//!    clamped — clamping would silently break bit-identity).
//! 2. **The worker is shared with the sequential engine.** Receiving,
//!    producing and posting are [`Worker`] methods — byte-identical
//!    arithmetic to [`crate::cluster`], which is also why
//!    `ThreadedClusterEngine` with one worker reproduces the sequential
//!    `Cluster { workers: 1 }` run bit for bit. The model checker's
//!    seam scopes run the same worker (and the same fault router) under
//!    every interleaving.
//!
//! Termination is residual-targeted (worker 0 checks its local view
//! every [`ThreadedConfig::check_every`] of its own updates) and/or
//! quiescence-detected via the El Baz \[22\]-style
//! [`QuiescenceDetector`] from [`crate::termination`] — never a tuned
//! fixed budget, so runs stay green on an oversubscribed 1-core CI
//! host.

use crate::cluster::{ApplyPolicy, ClusterStats};
use crate::error::RuntimeError;
use crate::termination::{QuiescenceDetector, QuiescenceTracker};
use crate::transport::{Endpoint, FaultEndpoint, FaultPlan, MpscTransport, SendStats, Transport};
use crate::worker::{assemble_consensus, check_probabilities, Worker};
use asynciter_models::partition::Partition;
use asynciter_models::trace::{LabelStore, Trace};
use asynciter_numerics::rng::rng;
use asynciter_opt::traits::Operator;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Quiescence-based termination rule: a worker is *quiet* after
/// `streak` consecutive updates changing its block by at most `eps`,
/// and the run stops once every worker has stayed quiet over a
/// `margin`-step flush window (see [`crate::termination`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quiesce {
    /// Block-change threshold for a quiet update.
    pub eps: f64,
    /// Consecutive quiet updates before a worker declares itself quiet.
    pub streak: u64,
    /// Post-quiescence flush window in global steps.
    pub margin: u64,
}

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

struct Event {
    j: u64,
    worker: usize,
    min_label: u64,
    labels: Vec<u64>, // empty unless LabelStore::Full
}

struct WorkerLog {
    events: Vec<Event>,
    worker: Worker,
    send_stats: SendStats,
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
    /// Runs the threaded cluster over the in-process
    /// [`MpscTransport`].
    ///
    /// # Errors
    /// Dimension/parameter validation failures, or a non-finite iterate
    /// (operator divergence).
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
    /// Dimension/parameter validation failures, or a non-finite iterate
    /// (operator divergence).
    pub fn run_with(
        op: &dyn Operator,
        x0: &[f64],
        partition: &Partition,
        cfg: &ThreadedConfig,
        transport: &mut dyn Transport,
    ) -> crate::Result<ThreadedRunResult> {
        validate(cfg)?;
        let n = op.dim();
        let mesh = Worker::mesh(
            op,
            x0,
            partition,
            cfg.apply_policy,
            cfg.exchange_every,
            cfg.partial_prob,
        )?;
        let workers = mesh.len();
        let plan = FaultPlan {
            hold_prob: cfg.hold_prob,
            hold_extra: cfg.hold_extra,
            drop_prob: cfg.drop_prob,
            dup_prob: cfg.dup_prob,
        };
        let endpoints: Vec<FaultEndpoint> = transport
            .connect(workers)
            .into_iter()
            .enumerate()
            .map(|(w, ep)| FaultEndpoint::new(ep, plan, substream(cfg.seed, w as u64, 1)))
            .collect();

        let counter = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let converged = AtomicBool::new(false);
        let detector = cfg.quiesce.map(|_| QuiescenceDetector::new(workers));
        let detector_ref = detector.as_ref();

        let start = Instant::now();
        let mut logs: Vec<crate::Result<WorkerLog>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for (worker, ep) in mesh.into_iter().zip(endpoints) {
                let counter = &counter;
                let stop = &stop;
                let converged = &converged;
                handles.push(scope.spawn(move || {
                    worker_loop(op, cfg, worker, ep, counter, stop, converged, detector_ref)
                }));
            }
            for h in handles {
                logs.push(h.join().expect("worker panicked"));
            }
        });
        let wall = start.elapsed();

        let mut events = Vec::new();
        let mut done = Vec::with_capacity(workers);
        let mut stats = ClusterStats::default();
        for log in logs {
            let mut log = log?;
            events.append(&mut log.events);
            done.push(log.worker);
            stats.sent += log.send_stats.sent;
            stats.dropped += log.send_stats.dropped;
            stats.duplicated += log.send_stats.duplicated;
            stats.held += log.send_stats.held;
        }

        // Merge the per-worker event logs into the (dense, by the
        // counter contract) global trace.
        events.sort_unstable_by_key(|e| e.j);
        let mut trace = Trace::new(n, cfg.record);
        let mut min_only_labels = vec![0u64; n];
        for (idx, e) in events.iter().enumerate() {
            debug_assert_eq!(e.j as usize, idx + 1, "non-dense step numbering");
            if cfg.record == LabelStore::Full {
                trace.push_step(done[e.worker].block(), &e.labels);
            } else {
                min_only_labels.fill(e.min_label);
                trace.push_step(done[e.worker].block(), &min_only_labels);
            }
        }

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
            trace,
            steps_run: events.len() as u64,
            per_worker_updates: done.iter().map(|w| w.counters().updates).collect(),
            stopped_early: converged.load(Ordering::Relaxed),
            partial_publishes: totals.partial_publishes,
            partial_reads: totals.partial_reads,
            constraint_checked: totals.constraint_checked,
            constraint_violations: totals.constraint_violations,
            wall,
        })
    }
}

// Deliberately flat: each argument is a distinct piece of shared engine
// state.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    op: &dyn Operator,
    cfg: &ThreadedConfig,
    mut worker: Worker,
    mut ep: FaultEndpoint,
    counter: &AtomicU64,
    stop: &AtomicBool,
    converged: &AtomicBool,
    detector: Option<&QuiescenceDetector>,
) -> crate::Result<WorkerLog> {
    // The worker's buffers and the old-block cache are allocated once:
    // the step loop below is heap-allocation-free apart from message
    // payloads (owned by the transport) and trace-event recording.
    let w = worker.id();
    let mut old_block = vec![0.0; worker.block().len()];
    let mut events: Vec<Event> = Vec::new();
    let mut prng = rng(substream(cfg.seed, w as u64, 2));
    let mut tracker = cfg.quiesce.map(|q| QuiescenceTracker::new(q.eps, q.streak));

    loop {
        // Drain the mailbox before producing: every applied value's
        // label was produced before the step number acquired below.
        while let Some(msg) = ep.try_recv() {
            worker.receive(&msg);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }

        // Acquire the global step number. Its SeqCst total order is the
        // trace linearisation: see module docs.
        let j = counter.fetch_add(1, Ordering::SeqCst) + 1;
        if j > cfg.max_steps {
            stop.store(true, Ordering::Relaxed);
            break;
        }
        let labels = worker.labels();
        debug_assert!(
            labels.iter().all(|&l| l < j),
            "condition (a) violated: a label reached step {j}"
        );
        match cfg.record {
            LabelStore::MinOnly => events.push(Event {
                j,
                worker: w,
                min_label: labels.iter().copied().min().unwrap_or(0),
                labels: Vec::new(),
            }),
            LabelStore::Full => events.push(Event {
                j,
                worker: w,
                min_label: 0,
                labels: labels.to_vec(),
            }),
        }
        for (k, &i) in worker.block().iter().enumerate() {
            old_block[k] = worker.view()[i];
        }
        if let Err(e) = worker.produce(op, j) {
            // Peers must not burn the rest of the step budget behind a
            // run that can only report this error.
            stop.store(true, Ordering::Relaxed);
            return Err(e);
        }

        // Exchange: post the block (or a partial subset) to every peer.
        if let Some(msg) = worker.post(&mut prng) {
            for dest in worker.peers() {
                ep.send(dest, msg.clone());
            }
        }

        // Termination: quiescence detection (worker 0 coordinates) ...
        if let (Some(q), Some(det), Some(tr)) = (cfg.quiesce, detector, tracker.as_mut()) {
            let change = worker
                .block()
                .iter()
                .enumerate()
                .map(|(k, &i)| (worker.view()[i] - old_block[k]).abs())
                .fold(0.0_f64, f64::max);
            let quiet = tr.observe(change);
            det.report(w, j, quiet);
            if w == 0 && det.detect(j, q.margin) {
                converged.store(true, Ordering::Relaxed);
                stop.store(true, Ordering::Relaxed);
                break;
            }
        }
        // ... and/or a residual target checked by worker 0 on its local
        // view (near convergence the view and the consensus agree to
        // far below any sensible target).
        if w == 0 {
            if let Some(eps) = cfg.target_residual {
                if worker
                    .counters()
                    .updates
                    .is_multiple_of(cfg.check_every.max(1))
                    && worker.residual(op) <= eps
                {
                    converged.store(true, Ordering::Relaxed);
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
        // Hand the scheduling quantum over after each update: on an
        // oversubscribed (1-core CI) host this keeps peers draining
        // their mailboxes — bounding queue growth and information
        // staleness by scheduler rotations instead of whole quanta.
        std::thread::yield_now();
    }

    Ok(WorkerLog {
        events,
        worker,
        send_stats: ep.stats(),
    })
}

fn validate(cfg: &ThreadedConfig) -> crate::Result<()> {
    if cfg.max_steps == 0 {
        return Err(RuntimeError::InvalidParameter {
            name: "max_steps",
            message: "must be positive".into(),
        });
    }
    check_probabilities(&[
        ("hold_prob", cfg.hold_prob),
        ("drop_prob", cfg.drop_prob),
        ("dup_prob", cfg.dup_prob),
    ])?;
    if let Some(q) = cfg.quiesce {
        if q.eps.is_nan() || q.eps < 0.0 || q.streak == 0 {
            return Err(RuntimeError::InvalidParameter {
                name: "quiesce",
                message: format!("requires eps >= 0 and streak > 0, got {q:?}"),
            });
        }
    }
    Ok(())
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
    fn a_diverging_worker_stops_its_healthy_peers() {
        // Worker 1's block goes NaN on its first update; worker 0 stays
        // healthy and must not run out an unbounded step budget.
        struct NanOnUpperBlock;
        impl Operator for NanOnUpperBlock {
            fn dim(&self) -> usize {
                4
            }
            fn component(&self, i: usize, x: &[f64]) -> f64 {
                if i >= 2 {
                    f64::NAN
                } else {
                    0.5 * x[i]
                }
            }
        }
        let p = Partition::blocks(4, 2).unwrap();
        let cfg = ThreadedConfig::new(u64::MAX);
        let err = ThreadedClusterEngine::run(&NanOnUpperBlock, &[1.0; 4], &p, &cfg).unwrap_err();
        assert!(
            matches!(err, RuntimeError::NonFiniteIterate { component: 2, .. }),
            "{err:?}"
        );
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
