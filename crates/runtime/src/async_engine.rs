//! Free-running multi-threaded asynchronous iterations over shared
//! memory.
//!
//! Workers own disjoint component blocks (single-writer discipline) and
//! loop without any synchronisation. This module is the shared-memory
//! *step body*: snapshot the shared vector (component-wise atomic,
//! globally inconsistent — Definition 1's read model), apply the
//! operator to the block (optionally `m` inner iterations with
//! mid-phase partial publishing — flexible communication), draw the
//! step's ticket, publish. The ticket numbering the update, the stop
//! flags, the step log and trace, the termination checks and worker
//! failures are the free-running harness (`race`) shared with
//! [`crate::threaded`]. Every value a worker reads was published before
//! it drew `j`, so all recorded labels are `≤ j − 1`: the emitted trace
//! satisfies condition (a) by construction.

use crate::error::RuntimeError;
use crate::imbalance::spin;
use crate::race::{Lane, Race};
use crate::shared::{worker_blocks, SharedVec};
use crate::termination::Quiesce;
use crate::worker::check_positive;
use asynciter_models::partition::Partition;
use asynciter_models::trace::{LabelStore, Trace};
use asynciter_opt::traits::Operator;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Snapshot consistency ablation (DESIGN.md §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotMode {
    /// Per-component relaxed-atomic reads: inconsistent snapshots, zero
    /// coordination — the true asynchronous model.
    Relaxed,
    /// Globally consistent snapshots through a readers–writer lock:
    /// writers take the write lock for publishing, readers the read lock
    /// for the whole snapshot. What synchronous consistency costs.
    Locked,
}

/// Configuration of an asynchronous shared-memory run.
#[derive(Debug, Clone)]
pub struct AsyncConfig {
    /// Number of worker threads (= machines); must divide the component
    /// space per the supplied partition.
    pub workers: usize,
    /// Global budget of block updates.
    pub max_updates: u64,
    /// Stop early when the fixed-point residual (checked by worker 0
    /// every `check_every` of its own updates) falls below this.
    pub target_residual: Option<f64>,
    /// Residual check period (worker-0 updates).
    pub check_every: u64,
    /// Per-worker spin units per update (load imbalance); empty = none.
    pub spin_per_update: Vec<u64>,
    /// Inner iterations per block update (`m ≥ 1`).
    pub inner_steps: usize,
    /// Publish partial block values every this many inner steps
    /// (`≥ inner_steps` disables mid-phase publishing).
    pub publish_period: usize,
    /// Label retention of the recorded trace (`None`: no trace —
    /// fastest; `Full` costs memory `O(updates · n)`).
    pub record: Option<LabelStore>,
    /// Snapshot consistency mode.
    pub snapshot: SnapshotMode,
    /// Optional quiescence-detection termination rule; a block update's
    /// change is the largest move of any of its inner iterations.
    pub quiesce: Option<Quiesce>,
}

impl AsyncConfig {
    /// Baseline configuration: plain async updates, no imbalance, no
    /// trace.
    pub fn new(workers: usize, max_updates: u64) -> Self {
        Self {
            workers,
            max_updates,
            target_residual: None,
            check_every: 64,
            spin_per_update: Vec::new(),
            inner_steps: 1,
            publish_period: 1,
            record: None,
            snapshot: SnapshotMode::Relaxed,
            quiesce: None,
        }
    }

    /// Sets a residual stopping target.
    pub fn with_target_residual(mut self, eps: f64) -> Self {
        self.target_residual = Some(eps);
        self
    }

    /// Sets per-worker spin work.
    pub fn with_spin(mut self, spin: Vec<u64>) -> Self {
        self.spin_per_update = spin;
        self
    }

    /// Sets inner iterations and publish period (flexible communication).
    pub fn with_flexible(mut self, inner_steps: usize, publish_period: usize) -> Self {
        self.inner_steps = inner_steps;
        self.publish_period = publish_period;
        self
    }

    /// Records a trace with the given label retention.
    pub fn with_record(mut self, store: LabelStore) -> Self {
        self.record = Some(store);
        self
    }

    /// Sets the snapshot mode.
    pub fn with_snapshot(mut self, mode: SnapshotMode) -> Self {
        self.snapshot = mode;
        self
    }
}

/// Result of an asynchronous shared-memory run.
#[derive(Debug)]
pub struct AsyncRunResult {
    /// Final shared vector.
    pub final_x: Vec<f64>,
    /// Total block updates performed.
    pub total_updates: u64,
    /// Wall-clock duration of the parallel section.
    pub wall: Duration,
    /// Updates per worker (load distribution diagnostic).
    pub per_worker_updates: Vec<u64>,
    /// Final fixed-point residual `‖x − F(x)‖_∞`.
    pub final_residual: f64,
    /// Recorded trace (when requested).
    pub trace: Option<Trace>,
    /// Mid-phase partial publishes performed.
    pub partial_publishes: u64,
    /// True when the residual target or quiescence detection fired
    /// before the update budget.
    pub stopped_early: bool,
}

/// The asynchronous shared-memory runner. See module docs.
#[derive(Debug, Default)]
pub struct AsyncSharedRunner;

impl AsyncSharedRunner {
    /// Runs the asynchronous iteration with `cfg.workers` threads over
    /// the blocks of `partition`.
    ///
    /// # Errors
    /// Dimension/parameter validation failures, a non-finite iterate
    /// (operator divergence) or a panicking operator.
    pub fn run(
        op: &dyn Operator,
        x0: &[f64],
        partition: &Partition,
        cfg: &AsyncConfig,
    ) -> crate::Result<AsyncRunResult> {
        let n = op.dim();
        let blocks = worker_blocks(n, x0, partition, cfg.workers, &cfg.spin_per_update)?;
        check_positive(&[
            ("inner_steps", cfg.inner_steps as u64),
            ("publish_period", cfg.publish_period as u64),
        ])?;
        let race = Race::new(
            cfg.max_updates,
            cfg.record,
            cfg.target_residual,
            cfg.check_every,
            cfg.quiesce,
        )?;

        let shared = SharedVec::new(x0);
        let partial_publishes = AtomicU64::new(0);
        let snapshot_lock = parking_lot::RwLock::new(());
        let publish = |block: &[usize], vals: &[f64], label: u64| {
            let _guard = (cfg.snapshot == SnapshotMode::Locked).then(|| snapshot_lock.write());
            for &i in block {
                shared.write(i, vals[i], label);
            }
        };

        let body = |lane: &mut Lane<'_>, block: &Vec<usize>| {
            let spin_units = cfg.spin_per_update.get(lane.worker).copied().unwrap_or(0);
            // Per-worker buffers allocated once: the update loop is
            // heap-allocation-free apart from step logging.
            let mut vals = vec![0.0; n];
            let mut labels = vec![0u64; n];
            let mut upd = vec![0.0; n];
            let mut scratch = vec![0.0; op.scratch_len()];
            while !lane.stopped() {
                // Snapshot (the asynchronous read).
                {
                    let _guard =
                        (cfg.snapshot == SnapshotMode::Locked).then(|| snapshot_lock.read());
                    shared.snapshot_labelled(&mut vals, &mut labels);
                }
                // Simulated compute load (heterogeneity).
                spin(spin_units);
                // m inner iterations on the block, off-block frozen at
                // the snapshot. Nothing non-finite is ever published.
                let mut change = 0.0_f64;
                for r in 1..=cfg.inner_steps {
                    op.update_active_with(&vals, block, &mut upd, &mut scratch);
                    for &i in block {
                        if !upd[i].is_finite() {
                            return Err(RuntimeError::NonFiniteIterate {
                                at_step: lane.now() + 1,
                                component: i,
                            });
                        }
                        change = change.max((upd[i] - vals[i]).abs());
                        vals[i] = upd[i];
                    }
                    if r % cfg.publish_period == 0 && r < cfg.inner_steps {
                        // Mid-phase partial publish (flexible
                        // communication), labelled "as of now".
                        publish(block, &vals, lane.now());
                        partial_publishes.fetch_add(block.len() as u64, Ordering::Relaxed);
                    }
                }
                // Draw the global iteration number and publish.
                let Some(j) = lane.ticket() else { break };
                publish(block, &vals, j);
                // Clamp to j−1: labels were read before j was drawn, so
                // this only tightens.
                lane.log(j, labels.iter().map(|&l| l.min(j - 1)));
                let residual = || {
                    shared.snapshot(&mut vals);
                    op.residual_inf_with(&vals, &mut scratch)
                };
                if lane.quiesced(j, || change) || lane.on_target(residual) {
                    break;
                }
                // A quiet worker recomputes an unchanged block until a peer
                // disturbs it. Yielding lets the detector's in-window reports
                // of *all* workers arrive promptly: on a single core, detection
                // latency is then bounded by scheduler rotations, not by whole
                // quanta of no-op updates.
                if lane.is_quiet() {
                    std::thread::yield_now();
                }
            }
            Ok(())
        };
        let finish = race.run(blocks.iter().collect(), body)?;

        let mut final_x = vec![0.0; n];
        shared.snapshot(&mut final_x);
        Ok(AsyncRunResult {
            final_residual: op.residual_inf(&final_x),
            final_x,
            total_updates: finish.per_worker_updates.iter().sum(),
            wall: finish.wall,
            per_worker_updates: finish.per_worker_updates,
            trace: race.trace(n, finish.log, |w| &blocks[w]),
            partial_publishes: partial_publishes.load(Ordering::Relaxed),
            stopped_early: finish.stopped_early,
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
    fn converges_to_fixed_point() {
        let op = jacobi(64);
        let xstar = op.solve_dense_spd().unwrap();
        let p = Partition::blocks(64, 4).unwrap();
        // Residual target with a huge budget: on a loaded single-core
        // host one free-running worker can burn hundreds of thousands of
        // updates before its peers are scheduled, so the budget must be
        // far above any "expected" update count.
        let cfg = AsyncConfig::new(4, 8_000_000).with_target_residual(1e-12);
        let res = AsyncSharedRunner::run(&op, &vec![0.0; 64], &p, &cfg).unwrap();
        assert!(
            vecops::max_abs_diff(&res.final_x, &xstar) < 1e-9,
            "error {}",
            vecops::max_abs_diff(&res.final_x, &xstar)
        );
        assert!(res.total_updates > 0);
        assert_eq!(res.per_worker_updates.len(), 4);
    }

    #[test]
    fn trace_satisfies_condition_a_and_is_dense() {
        let op = jacobi(16);
        let p = Partition::blocks(16, 4).unwrap();
        let cfg = AsyncConfig::new(4, 2000).with_record(LabelStore::Full);
        let res = AsyncSharedRunner::run(&op, &[0.0; 16], &p, &cfg).unwrap();
        let trace = res.trace.expect("trace requested");
        assert_eq!(trace.len() as u64, res.total_updates);
        check_condition_a(&trace).expect("condition (a) must hold by construction");
    }

    #[test]
    fn single_worker_behaves_like_block_gauss_seidel() {
        let op = jacobi(8);
        let xstar = op.solve_dense_spd().unwrap();
        let p = Partition::blocks(8, 1).unwrap();
        let cfg = AsyncConfig::new(1, 500);
        let res = AsyncSharedRunner::run(&op, &[0.0; 8], &p, &cfg).unwrap();
        assert!(vecops::max_abs_diff(&res.final_x, &xstar) < 1e-9);
        assert_eq!(res.per_worker_updates, vec![500]);
    }

    #[test]
    fn flexible_publishing_counts_partials() {
        let op = jacobi(16);
        let p = Partition::blocks(16, 2).unwrap();
        let cfg = AsyncConfig::new(2, 400).with_flexible(4, 1);
        let res = AsyncSharedRunner::run(&op, &[0.0; 16], &p, &cfg).unwrap();
        // 3 partial publishes of 8 components per update.
        assert!(res.partial_publishes > 0);
        assert!(res.final_residual < 1.0);
    }

    #[test]
    fn locked_snapshots_also_converge() {
        let op = jacobi(32);
        let xstar = op.solve_dense_spd().unwrap();
        let p = Partition::blocks(32, 4).unwrap();
        // Huge budget + residual target: see converges_to_fixed_point.
        let cfg = AsyncConfig::new(4, 8_000_000)
            .with_target_residual(1e-11)
            .with_snapshot(SnapshotMode::Locked);
        let res = AsyncSharedRunner::run(&op, &vec![0.0; 32], &p, &cfg).unwrap();
        assert!(vecops::max_abs_diff(&res.final_x, &xstar) < 1e-8);
    }

    #[test]
    fn imbalance_skews_update_counts() {
        let op = jacobi(32);
        let p = Partition::blocks(32, 4).unwrap();
        let cfg = AsyncConfig::new(4, 20_000)
            .with_spin(crate::imbalance::linear_imbalance(4, 2_000, 16.0));
        let res = AsyncSharedRunner::run(&op, &vec![0.0; 32], &p, &cfg).unwrap();
        // The fast worker (index 0) performs several times the updates of
        // the slow one (index 3) — asynchronous progress is unthrottled.
        let fast = res.per_worker_updates[0] as f64;
        let slow = res.per_worker_updates[3] as f64;
        assert!(
            fast > 2.0 * slow,
            "expected skew, got fast {fast} vs slow {slow}"
        );
    }

    #[test]
    fn validation_errors() {
        let op = jacobi(8);
        let p = Partition::blocks(8, 2).unwrap();
        // Wrong worker count vs partition.
        let cfg = AsyncConfig::new(3, 100);
        assert!(AsyncSharedRunner::run(&op, &[0.0; 8], &p, &cfg).is_err());
        // Wrong x0 length.
        let cfg = AsyncConfig::new(2, 100);
        assert!(AsyncSharedRunner::run(&op, &[0.0; 7], &p, &cfg).is_err());
        // Spin length mismatch.
        let cfg = AsyncConfig::new(2, 100).with_spin(vec![1, 2, 3]);
        assert!(AsyncSharedRunner::run(&op, &[0.0; 8], &p, &cfg).is_err());
        // Zero budget.
        let cfg = AsyncConfig::new(2, 0);
        assert!(AsyncSharedRunner::run(&op, &[0.0; 8], &p, &cfg).is_err());
        // Quiescence rules the tracker would assert on.
        for (eps, streak) in [(1e-6, 0), (-1.0, 1), (f64::NAN, 1)] {
            let mut cfg = AsyncConfig::new(2, 100);
            cfg.quiesce = Some(Quiesce {
                eps,
                streak,
                margin: 0,
            });
            assert!(AsyncSharedRunner::run(&op, &[0.0; 8], &p, &cfg).is_err());
        }
    }

    #[test]
    fn quiescence_terminated_run_is_actually_converged() {
        let op = jacobi(32);
        let p = Partition::blocks(32, 4).unwrap();
        // Budget far above any plausible detection point: on a loaded
        // single-core host, workers that hog the CPU can spend hundreds
        // of thousands of updates before the detector's margin elapses.
        let mut cfg = AsyncConfig::new(4, 8_000_000);
        cfg.quiesce = Some(Quiesce {
            eps: 1e-12,
            streak: 4,
            margin: 64,
        });
        let res = AsyncSharedRunner::run(&op, &vec![0.0; 32], &p, &cfg).unwrap();
        assert!(res.stopped_early, "detector never fired");
        assert!(
            res.final_residual < 1e-9,
            "premature stop: residual {}",
            res.final_residual
        );
        assert!(res.total_updates < 500_000);
    }

    #[test]
    fn budget_exhaustion_reports_not_stopped_early() {
        let op = jacobi(16);
        let p = Partition::blocks(16, 2).unwrap();
        let mut cfg = AsyncConfig::new(2, 10);
        cfg.quiesce = Some(Quiesce {
            eps: 0.0, // unreachable quiescence
            streak: 5,
            margin: 100,
        });
        let res = AsyncSharedRunner::run(&op, &[0.0; 16], &p, &cfg).unwrap();
        assert!(!res.stopped_early);
        assert_eq!(res.total_updates, 10);
    }

    #[test]
    fn a_failing_worker_stops_its_healthy_peers() {
        // A NaN block must also never reach the shared vector.
        let p = Partition::blocks(4, 2).unwrap();
        let cfg = AsyncConfig::new(2, u64::MAX);
        crate::race::tests::check_a_failing_worker_stops_its_healthy_peers(|op| {
            AsyncSharedRunner::run(op, &[1.0; 4], &p, &cfg).unwrap_err()
        });
    }

    #[test]
    fn macro_iterations_exist_on_recorded_trace() {
        let op = jacobi(16);
        let p = Partition::blocks(16, 4).unwrap();
        // Spin work keeps worker pacing comparable; with completely
        // free-running threads the OS can stagger thread start-up so much
        // that one worker performs thousands of updates before the last
        // one begins, making macro-iterations legitimately sparse. On a
        // single-core host a macro-iteration needs a full scheduling
        // rotation over all workers, so instead of a fixed budget (which
        // a hogging worker can exhaust inside one scheduling quantum) the
        // run stops on a residual target: reaching it on this coupled
        // tridiagonal problem forces information to cross every block
        // boundary several times, i.e. several complete rotations.
        let cfg = AsyncConfig::new(4, 8_000_000)
            .with_target_residual(1e-12)
            .with_record(LabelStore::MinOnly)
            .with_spin(vec![2_000; 4]);
        let res = AsyncSharedRunner::run(&op, &[0.0; 16], &p, &cfg).unwrap();
        let trace = res.trace.unwrap();
        let m = asynciter_models::macroiter::macro_iterations(&trace);
        assert!(
            m.count() > 2,
            "expected macro-iterations to complete, got {}",
            m.count()
        );
        // Strict macro-iterations carry the freshness guarantee even on
        // real thread traces.
        let strict = asynciter_models::macroiter::macro_iterations_strict(&trace);
        assert_eq!(
            asynciter_models::macroiter::boundary_freshness_violations(&trace, &strict.boundaries),
            0
        );
    }
}
