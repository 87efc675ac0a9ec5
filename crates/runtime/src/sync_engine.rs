//! The barrier-synchronous Jacobi baseline.
//!
//! Identical work model to the asynchronous runner (same operator, same
//! blocks, same injected spin-load), but every sweep is fenced by
//! barriers: all workers read the same iterate, compute their blocks,
//! and wait for everyone before the next sweep. Under load imbalance the
//! sweep time is the *maximum* of the workers' compute times — the
//! throughput collapse that motivates asynchronous iterations (paper
//! §II: "to get rid of waiting time resulting from synchronization …
//! to cope naturally with load unbalancing").

use crate::imbalance::spin;
use crate::shared::{worker_blocks, SharedVec};
use crate::worker::check_positive;
use asynciter_models::partition::Partition;
use asynciter_opt::traits::Operator;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A sense-reversing spin barrier.
///
/// `std::sync::Barrier` parks threads on a condvar; wake-ups cost tens of
/// microseconds, which dwarfs the per-sweep compute of fine-grained
/// iterative kernels and would make every synchronous measurement a
/// barrier benchmark. HPC codes synchronise compute phases with busy-wait
/// barriers instead; this is the textbook sense-reversing construction
/// (one atomic counter + a phase flag, `Acquire`/`Release` pairing on the
/// sense flip publishes all pre-barrier writes to all leavers).
#[derive(Debug)]
pub struct SpinBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    parties: usize,
}

impl SpinBarrier {
    /// Barrier for `parties` threads.
    ///
    /// # Panics
    /// Panics when `parties == 0`.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "SpinBarrier: parties must be positive");
        Self {
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            parties,
        }
    }

    /// Blocks (spinning) until all parties arrive.
    pub fn wait(&self) {
        let sense = self.sense.load(Ordering::Relaxed);
        // AcqRel: the arriving thread's writes happen-before the sense
        // flip; leavers acquire the flip below.
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(!sense, Ordering::Release);
        } else {
            while self.sense.load(Ordering::Acquire) == sense {
                std::hint::spin_loop();
            }
        }
    }
}

/// Configuration of a synchronous run.
#[derive(Debug, Clone)]
pub struct SyncConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Maximum number of sweeps (full Jacobi iterations).
    pub max_sweeps: u64,
    /// Stop when the sweep change `‖x⁺ − x‖_∞` falls below this.
    pub target_change: Option<f64>,
    /// Per-worker spin units per sweep (load imbalance); empty = none.
    pub spin_per_update: Vec<u64>,
}

impl SyncConfig {
    /// Baseline configuration.
    pub fn new(workers: usize, max_sweeps: u64) -> Self {
        Self {
            workers,
            max_sweeps,
            target_change: None,
            spin_per_update: Vec::new(),
        }
    }

    /// Sets the change-based stopping target.
    pub fn with_target_change(mut self, eps: f64) -> Self {
        self.target_change = Some(eps);
        self
    }

    /// Sets per-worker spin work.
    pub fn with_spin(mut self, spin: Vec<u64>) -> Self {
        self.spin_per_update = spin;
        self
    }
}

/// Result of a synchronous run.
#[derive(Debug)]
pub struct SyncRunResult {
    /// Final iterate.
    pub final_x: Vec<f64>,
    /// Sweeps performed.
    pub sweeps: u64,
    /// Wall-clock duration of the parallel section.
    pub wall: Duration,
    /// Final fixed-point residual.
    pub final_residual: f64,
}

/// The synchronous Jacobi runner. See module docs.
#[derive(Debug, Default)]
pub struct SyncRunner;

impl SyncRunner {
    /// Runs barrier-synchronous Jacobi sweeps over the blocks of
    /// `partition`.
    ///
    /// # Errors
    /// Dimension/parameter validation failures.
    pub fn run(
        op: &dyn Operator,
        x0: &[f64],
        partition: &Partition,
        cfg: &SyncConfig,
    ) -> crate::Result<SyncRunResult> {
        let n = op.dim();
        let blocks = worker_blocks(n, x0, partition, cfg.workers, &cfg.spin_per_update)?;
        check_positive(&[("max_sweeps", cfg.max_sweeps)])?;

        // Double buffering: `bufs[t % 2]` is read, `bufs[(t+1) % 2]`
        // written, with barriers fencing the role swap.
        let bufs = [SharedVec::new(x0), SharedVec::new(x0)];
        let barrier = SpinBarrier::new(cfg.workers);
        let stop = AtomicBool::new(false);
        let sweeps_done = std::sync::atomic::AtomicU64::new(0);

        let start = Instant::now();
        std::thread::scope(|scope| {
            for (w, block) in blocks.iter().enumerate() {
                let bufs = &bufs;
                let barrier = &barrier;
                let stop = &stop;
                let sweeps_done = &sweeps_done;
                let spin_units = cfg.spin_per_update.get(w).copied().unwrap_or(0);
                scope.spawn(move || {
                    // Per-worker buffers allocated once: snapshot, block
                    // output, and the operator's caller-owned scratch —
                    // the sweep loop below performs no heap allocation.
                    let mut vals = vec![0.0; n];
                    let mut upd = vec![0.0; n];
                    let mut scratch = vec![0.0; op.scratch_len()];
                    for t in 0..cfg.max_sweeps {
                        let read = &bufs[(t % 2) as usize];
                        let write = &bufs[((t + 1) % 2) as usize];
                        read.snapshot(&mut vals);
                        if spin_units > 0 {
                            spin(spin_units);
                        }
                        op.update_active_with(&vals, block, &mut upd, &mut scratch);
                        for &i in block {
                            write.write(i, upd[i], t + 1);
                        }
                        // Sweep barrier: everyone finished writing.
                        barrier.wait();
                        if w == 0 {
                            sweeps_done.store(t + 1, Ordering::Relaxed);
                            if let Some(eps) = cfg.target_change {
                                let mut change = 0.0_f64;
                                for i in 0..n {
                                    change = change.max((write.value(i) - read.value(i)).abs());
                                }
                                if change <= eps {
                                    stop.store(true, Ordering::Relaxed);
                                }
                            }
                        }
                        // Decision barrier: stop flag is now consistent.
                        barrier.wait();
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                });
            }
        });
        let wall = start.elapsed();

        let sweeps = sweeps_done.load(Ordering::Relaxed);
        let mut final_x = vec![0.0; n];
        bufs[(sweeps % 2) as usize].snapshot(&mut final_x);
        let final_residual = op.residual_inf(&final_x);
        Ok(SyncRunResult {
            final_x,
            sweeps,
            wall,
            final_residual,
        })
    }
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
    fn matches_sequential_jacobi_exactly() {
        let op = jacobi(16);
        let p = Partition::blocks(16, 4).unwrap();
        let cfg = SyncConfig::new(4, 25);
        let res = SyncRunner::run(&op, &[0.0; 16], &p, &cfg).unwrap();

        let mut x = vec![0.0; 16];
        let mut next = vec![0.0; 16];
        for _ in 0..25 {
            op.apply(&x, &mut next);
            std::mem::swap(&mut x, &mut next);
        }
        assert!(vecops::max_abs_diff(&res.final_x, &x) < 1e-15);
        assert_eq!(res.sweeps, 25);
    }

    #[test]
    fn converges_with_target() {
        let op = jacobi(32);
        let xstar = op.solve_dense_spd().unwrap();
        let p = Partition::blocks(32, 2).unwrap();
        // Small sweep cap: each barrier sweep costs a full spin-barrier
        // crossing per worker (~an OS scheduling quantum each on one
        // core), and the change target fires after a few dozen sweeps.
        let cfg = SyncConfig::new(2, 500).with_target_change(1e-13);
        let res = SyncRunner::run(&op, &vec![0.0; 32], &p, &cfg).unwrap();
        assert!(res.sweeps < 500);
        assert!(vecops::max_abs_diff(&res.final_x, &xstar) < 1e-10);
    }

    #[test]
    fn imbalance_does_not_change_result_only_time() {
        let op = jacobi(16);
        let p = Partition::blocks(16, 4).unwrap();
        let plain = SyncRunner::run(&op, &[0.0; 16], &p, &SyncConfig::new(4, 30)).unwrap();
        let skewed = SyncRunner::run(
            &op,
            &[0.0; 16],
            &p,
            &SyncConfig::new(4, 30).with_spin(crate::imbalance::linear_imbalance(4, 1000, 8.0)),
        )
        .unwrap();
        assert!(vecops::max_abs_diff(&plain.final_x, &skewed.final_x) < 1e-15);
    }

    #[test]
    fn spin_barrier_synchronises_counters() {
        // Classic barrier test: every thread increments a per-phase
        // counter; after the barrier all must observe the full count.
        let parties = 4;
        let barrier = SpinBarrier::new(parties);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..parties {
                s.spawn(|| {
                    for phase in 1..=50 {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        assert_eq!(counter.load(Ordering::Relaxed), phase * parties);
                        barrier.wait();
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "parties must be positive")]
    fn spin_barrier_rejects_zero() {
        SpinBarrier::new(0);
    }

    #[test]
    fn validation_errors() {
        let op = jacobi(8);
        let p = Partition::blocks(8, 2).unwrap();
        assert!(SyncRunner::run(&op, &[0.0; 8], &p, &SyncConfig::new(3, 10)).is_err());
        assert!(SyncRunner::run(&op, &[0.0; 7], &p, &SyncConfig::new(2, 10)).is_err());
        assert!(SyncRunner::run(&op, &[0.0; 8], &p, &SyncConfig::new(2, 0)).is_err());
        assert!(SyncRunner::run(
            &op,
            &[0.0; 8],
            &p,
            &SyncConfig::new(2, 10).with_spin(vec![1])
        )
        .is_err());
    }
}
