//! The barrier-synchronous Jacobi baseline.
//!
//! Identical work model to the asynchronous runner (same operator, same
//! blocks, same injected spin-load), but every sweep is fenced by
//! barriers: all workers read the same iterate, compute their blocks,
//! and wait for everyone before the next sweep. Under load imbalance the
//! sweep time is the *maximum* of the workers' compute times — the
//! throughput collapse that motivates asynchronous iterations (paper
//! §II: "to get rid of waiting time resulting from synchronization …
//! to cope naturally with load unbalancing"). The [`Barrier`] backend
//! runs on the free-running harness (`race`) for its stop flag and
//! join only: a worker that fails or panics releases the peers waiting
//! for it at the barrier and is the run's typed error.

use crate::imbalance::spin;
use crate::race::{Lane, Race};
use crate::shared::{worker_blocks, SharedVec};
use asynciter_core::session::{Backend, Problem, RunControl, RunReport};
use asynciter_core::CoreError;
use asynciter_models::schedule::{record, SyncJacobi};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

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

    /// Blocks (spinning) until all parties arrive, or until `over()`: a
    /// party that has left for good never arrives, and its peers must
    /// not wait for it. True when the parties go on together, false
    /// when the caller should leave too.
    pub fn wait(&self, over: impl Fn() -> bool) -> bool {
        let sense = self.sense.load(Ordering::Relaxed);
        // AcqRel: the arriving thread's writes happen-before the sense
        // flip; leavers acquire the flip below.
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(!sense, Ordering::Release);
        } else {
            while self.sense.load(Ordering::Acquire) == sense && !over() {
                std::hint::spin_loop();
            }
        }
        !over()
    }
}

const NAME: &str = "barrier";

/// Barrier-synchronous Jacobi backend: the same work model as
/// [`SharedMem`](crate::SharedMem) but every sweep fenced by barriers —
/// the synchronous baseline of the async-vs-sync comparisons. See
/// module docs.
///
/// `RunControl::max_steps` is the sweep budget; a
/// [`StoppingRule::Residual`] rule's `eps` is the target for the sweep
/// change `‖x⁺ − x‖_∞`. With `RecordMode` on, the (deterministic)
/// synchronous trace — every component active each sweep, labels `j − 1`
/// — is materialised so macro-iteration accounting works like any other
/// backend. Like any recorded trace this costs `O(sweeps · n)` memory;
/// leave recording off for large sweep budgets (the macro-iteration
/// count is reported either way).
///
/// [`StoppingRule::Residual`]: asynciter_core::stopping::StoppingRule::Residual
#[derive(Debug, Clone)]
pub struct Barrier {
    /// Number of worker threads, each owning one of as many contiguous
    /// component blocks.
    pub threads: usize,
    /// Per-worker spin units per sweep (load imbalance); empty = none.
    pub spin: Vec<u64>,
}

impl Default for Barrier {
    fn default() -> Self {
        Self {
            threads: 1,
            spin: Vec::new(),
        }
    }
}

impl Backend for Barrier {
    fn name(&self) -> &'static str {
        NAME
    }

    fn run(
        &mut self,
        problem: &Problem<'_>,
        ctl: &mut RunControl<'_>,
    ) -> asynciter_core::Result<RunReport> {
        ctl.reject_schedule(NAME, "sweeps are synchronous by construction")?;
        // Sweeps draw no tickets: the race lends its opening, its stop and
        // converged flags and the join that types a failure.
        let onto = "the barrier runner's sweep-change target";
        let race = Race::open(NAME, onto, problem, ctl, None)?;
        let (op, n) = (problem.op, problem.n());
        let blocks = worker_blocks(n, self.threads, &self.spin)?;
        let budget = ctl.max_steps;

        // Double buffering: `bufs[t % 2]` is read, `bufs[(t+1) % 2]`
        // written, with barriers fencing the role swap.
        let bufs = [SharedVec::new(&problem.x0), SharedVec::new(&problem.x0)];
        let barrier = SpinBarrier::new(self.threads);
        let sweeps_done = AtomicU64::new(0);

        let body = |lane: &mut Lane<'_>, block: &Vec<usize>| {
            let spin_units = self.spin.get(lane.worker).copied().unwrap_or(0);
            // Per-worker buffers allocated once: snapshot, block
            // output, and the operator's caller-owned scratch —
            // the sweep loop below performs no heap allocation.
            let mut vals = vec![0.0; n];
            let mut upd = vec![0.0; n];
            let mut scratch = vec![0.0; op.scratch_len()];
            for t in 0..budget {
                let read = &bufs[(t % 2) as usize];
                let write = &bufs[((t + 1) % 2) as usize];
                read.snapshot(&mut vals);
                if spin_units > 0 {
                    spin(spin_units);
                }
                op.update_active_with(&vals, block, &mut upd, &mut scratch);
                // Nothing non-finite is ever written: `f64::max` would
                // drop a NaN from the sweep change and the residual.
                if let Some(&i) = block.iter().find(|&&i| !upd[i].is_finite()) {
                    return Err(CoreError::NonFiniteIterate {
                        at_step: t + 1,
                        component: i,
                    });
                }
                for &i in block {
                    write.write(i, upd[i], t + 1);
                }
                // Sweep barrier: everyone finished writing.
                if !barrier.wait(|| lane.stopped()) {
                    break;
                }
                if lane.worker == 0 {
                    sweeps_done.store(t + 1, Ordering::Relaxed);
                    let change = || {
                        (0..n).fold(0.0_f64, |change, i| {
                            change.max((write.value(i) - read.value(i)).abs())
                        })
                    };
                    // A lane that draws no tickets is due its check
                    // every sweep, whatever the rule's `check_every`.
                    lane.on_target(change);
                }
                // Decision barrier: the stop flag is now consistent.
                if !barrier.wait(|| lane.stopped()) {
                    break;
                }
            }
            Ok(())
        };
        let (_, finish) = race.run(blocks.iter().collect(), body)?;

        let sweeps = sweeps_done.load(Ordering::Relaxed);
        let mut final_x = vec![0.0; n];
        bufs[(sweeps % 2) as usize].snapshot(&mut final_x);
        let final_residual = op.residual_inf(&final_x);
        // The canonical `SyncJacobi` schedule, materialised.
        let trace = (ctl.record.keeps_trace())
            .then(|| record(&mut SyncJacobi::new(n), sweeps, ctl.record.label_store()));
        Ok(RunReport {
            // One macro-iteration per sweep by construction.
            macro_iterations: sweeps,
            stopped_early: finish.stopped_early,
            per_worker_updates: vec![sweeps; self.threads],
            trace,
            wall: finish.wall,
            ..RunReport::new(NAME, final_x, sweeps, final_residual)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_core::compare::{same_run, Fields};
    use asynciter_core::session::Session;
    use asynciter_core::stopping::StoppingRule;
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_numerics::vecops;
    use asynciter_opt::linear::JacobiOperator;
    use asynciter_opt::traits::Operator;

    fn jacobi(n: usize) -> JacobiOperator {
        JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
    }

    fn barrier(threads: usize) -> Barrier {
        Barrier {
            threads,
            ..Barrier::default()
        }
    }

    fn change_target(eps: f64) -> StoppingRule {
        StoppingRule::Residual {
            eps,
            check_every: 1,
        }
    }

    #[test]
    fn matches_sequential_jacobi_exactly() {
        let op = jacobi(16);
        let res = Session::new(&op)
            .steps(25)
            .backend(barrier(4))
            .run()
            .unwrap();

        let mut x = vec![0.0; 16];
        let mut next = vec![0.0; 16];
        for _ in 0..25 {
            op.apply(&x, &mut next);
            std::mem::swap(&mut x, &mut next);
        }
        assert!(vecops::max_abs_diff(&res.final_x, &x) < 1e-15);
        assert_eq!(res.steps, 25);
    }

    #[test]
    fn converges_with_target() {
        let op = jacobi(32);
        let xstar = op.solve_dense_spd().unwrap();
        // Small sweep cap: each barrier sweep costs a full spin-barrier
        // crossing per worker (~an OS scheduling quantum each on one
        // core), and the change target fires after a few dozen sweeps.
        let res = Session::new(&op)
            .steps(500)
            .stopping(change_target(1e-13))
            .backend(barrier(2))
            .run()
            .unwrap();
        assert!(res.steps < 500);
        assert!(vecops::max_abs_diff(&res.final_x, &xstar) < 1e-10);
    }

    #[test]
    fn target_firing_on_the_last_budgeted_sweep_is_a_stop() {
        let op = jacobi(16);
        let run = |budget: u64| {
            Session::new(&op)
                .steps(budget)
                .stopping(change_target(1e-9))
                .backend(barrier(2))
                .run()
                .unwrap()
        };
        let unbounded = run(500);
        assert!(unbounded.stopped_early && unbounded.steps < 500);
        // `steps < budget` would read "budget exhausted" here.
        let exact = run(unbounded.steps);
        let same = same_run(&exact, &unbounded, Fields::Computed);
        assert_eq!(same, Ok(()), "the target fired on the last sweep");
        let short = run(unbounded.steps - 1);
        assert!(!short.stopped_early, "one sweep short of the target");
    }

    #[test]
    fn imbalance_does_not_change_result_only_time() {
        let op = jacobi(16);
        let run = |spin: Vec<u64>| {
            let backend = Barrier { spin, ..barrier(4) };
            Session::new(&op).steps(30).backend(backend).run().unwrap()
        };
        let plain = run(Vec::new());
        let skewed = run(crate::imbalance::linear_imbalance(4, 1000, 8.0));
        assert_eq!(same_run(&plain, &skewed, Fields::Computed), Ok(()));
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
                        assert!(barrier.wait(|| false));
                        assert_eq!(counter.load(Ordering::Relaxed), phase * parties);
                        assert!(barrier.wait(|| false));
                    }
                });
            }
        });
    }

    #[test]
    fn spin_barrier_releases_the_peers_of_a_party_that_left() {
        let barrier = SpinBarrier::new(2);
        let left = AtomicBool::new(false);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| barrier.wait(|| left.load(Ordering::Relaxed)));
            left.store(true, Ordering::Relaxed);
            assert!(!waiter.join().unwrap(), "nobody to go on with");
        });
    }

    #[test]
    #[should_panic(expected = "parties must be positive")]
    fn spin_barrier_rejects_zero() {
        SpinBarrier::new(0);
    }

    #[test]
    fn a_failing_worker_stops_its_healthy_peers() {
        // Before the block check, the NaN run *converged*: `f64::max`
        // drops NaN from the sweep change, which the healthy block takes
        // under the target; the panic left worker 0 at the barrier.
        let target = Some(change_target(1e-9));
        crate::race::tests::check_a_failing_worker_stops_its_healthy_peers(barrier(2), target);
    }

    #[test]
    fn validation_errors() {
        let op = jacobi(8);
        let run = |backend: Barrier| Session::new(&op).steps(10).backend(backend).run();
        let short_x0 = Session::new(&op).steps(10).x0(vec![0.0; 7]);
        assert!(short_x0.backend(barrier(2)).run().is_err());
        let no_sweeps = Session::new(&op).steps(0);
        assert!(no_sweeps.backend(barrier(2)).run().is_err());
        assert!(run(Barrier {
            spin: vec![1],
            ..barrier(2)
        })
        .is_err());
    }
}
