//! Free-running multi-threaded asynchronous iterations over shared
//! memory.
//!
//! Workers own disjoint component blocks (single-writer discipline) and
//! loop without any synchronisation. This module is the [`SharedMem`]
//! backend, the shared-memory *step body*: snapshot the shared vector
//! (component-wise atomic, globally inconsistent — Definition 1's read
//! model), apply the operator to the block (optionally `m` inner
//! iterations with mid-phase partial publishing — flexible
//! communication), draw the step's ticket, publish. The ticket numbering the update, the stop
//! flags, the step log and trace, the termination checks and worker
//! failures are the free-running harness (`race`) shared with
//! [`crate::threaded`]. Every value a worker reads was published before
//! it drew `j`, so all recorded labels are `≤ j − 1`: the emitted trace
//! satisfies condition (a) by construction.

use crate::imbalance::spin;
use crate::race::{Lane, Race};
use crate::shared::{worker_blocks, SharedVec};
use crate::termination::Quiesce;
use crate::worker::check_positive;
use asynciter_core::session::{Backend, Problem, RunControl, RunReport};
use asynciter_core::CoreError;
use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot consistency ablation: what a consistent read of the shared
/// vector costs against the inconsistent one Definition 1 allows.
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

const NAME: &str = "shared-mem";

/// Free-running asynchronous shared-memory backend: `threads` workers,
/// lock-free labelled iterate vector, optional flexible communication.
/// See module docs.
///
/// `RunControl::max_steps` is the global block-update budget; a
/// [`StoppingRule::Residual`] stopping rule is the residual target
/// worker 0 checks every `check_every` of its own updates; with
/// recording on the run costs memory `O(updates · n)` under
/// `RecordMode::Full`. Constructible with functional-update syntax:
/// `SharedMem { threads: 4, ..SharedMem::default() }`.
///
/// [`StoppingRule::Residual`]: asynciter_core::stopping::StoppingRule::Residual
#[derive(Debug, Clone)]
pub struct SharedMem {
    /// Number of worker threads, each owning one of as many contiguous
    /// component blocks.
    pub threads: usize,
    /// Inner iterations per block update (`m ≥ 1`).
    pub inner_steps: usize,
    /// Publish partials every this many inner steps (`≥ inner_steps`
    /// disables mid-phase publishing).
    pub publish_period: usize,
    /// Per-worker spin units per update (load imbalance); empty = none.
    pub spin: Vec<u64>,
    /// Snapshot consistency mode.
    pub snapshot: SnapshotMode,
    /// Optional quiescence-detection termination rule; a block update's
    /// change is the largest move of any of its inner iterations.
    pub quiesce: Option<Quiesce>,
}

impl Default for SharedMem {
    fn default() -> Self {
        Self {
            threads: 1,
            inner_steps: 1,
            publish_period: 1,
            spin: Vec::new(),
            snapshot: SnapshotMode::Relaxed,
            quiesce: None,
        }
    }
}

impl Backend for SharedMem {
    fn name(&self) -> &'static str {
        NAME
    }

    fn run(
        &mut self,
        problem: &Problem<'_>,
        ctl: &mut RunControl<'_>,
    ) -> asynciter_core::Result<RunReport> {
        ctl.reject_schedule(NAME, "free-running workers generate their own")?;
        let race = Race::open(NAME, "the shared-memory runner", problem, ctl, self.quiesce)?;
        let (op, n) = (problem.op, problem.n());
        let blocks = worker_blocks(n, self.threads, &self.spin)?;
        check_positive(&[
            ("inner_steps", self.inner_steps as u64),
            ("publish_period", self.publish_period as u64),
        ])?;

        let shared = SharedVec::new(&problem.x0);
        let partial_publishes = AtomicU64::new(0);
        let snapshot_lock = parking_lot::RwLock::new(());
        let locked = self.snapshot == SnapshotMode::Locked;
        let publish = |block: &[usize], vals: &[f64], label: u64| {
            let _guard = locked.then(|| snapshot_lock.write());
            for &i in block {
                shared.write(i, vals[i], label);
            }
        };

        let body = |lane: &mut Lane<'_>, block: &Vec<usize>| {
            let spin_units = self.spin.get(lane.worker).copied().unwrap_or(0);
            // Per-worker buffers allocated once: the update loop is
            // heap-allocation-free apart from the step log's growth.
            let mut vals = vec![0.0; n];
            let mut labels = vec![0u64; n];
            let mut upd = vec![0.0; n];
            let mut scratch = vec![0.0; op.scratch_len()];
            while !lane.stopped() {
                // Snapshot (the asynchronous read).
                {
                    let _guard = locked.then(|| snapshot_lock.read());
                    shared.snapshot_labelled(&mut vals, &mut labels);
                }
                // Simulated compute load (heterogeneity).
                spin(spin_units);
                // m inner iterations on the block, off-block frozen at
                // the snapshot. Nothing non-finite is ever published, and
                // nothing before the step's ticket: a phase the budget
                // refuses leaves no trace and no value behind.
                let mut change = 0.0_f64;
                let mut ticket = None;
                for r in 1..=self.inner_steps {
                    op.update_active_with(&vals, block, &mut upd, &mut scratch);
                    for &i in block {
                        if !upd[i].is_finite() {
                            return Err(CoreError::NonFiniteIterate {
                                at_step: lane.now() + 1,
                                component: i,
                            });
                        }
                        change = change.max((upd[i] - vals[i]).abs());
                        vals[i] = upd[i];
                    }
                    if r % self.publish_period == 0 && r < self.inner_steps {
                        // Mid-phase partial publish (flexible
                        // communication), labelled as the step's start.
                        let Some(j) = ticket.or_else(|| lane.ticket()) else {
                            return Ok(());
                        };
                        ticket = Some(j);
                        publish(block, &vals, j - 1);
                        partial_publishes.fetch_add(block.len() as u64, Ordering::Relaxed);
                    }
                }
                // Draw the global iteration number (if no partial has)
                // and publish.
                let Some(j) = ticket.or_else(|| lane.ticket()) else {
                    break;
                };
                publish(block, &vals, j);
                // Clamp to j−1: labels were read before j was drawn, so
                // this only tightens.
                for l in &mut labels {
                    *l = (*l).min(j - 1);
                }
                lane.log(j, &labels);
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
        let (_, finish) = race.run(blocks.iter().collect(), body)?;

        let mut final_x = vec![0.0; n];
        shared.snapshot(&mut final_x);
        Ok(RunReport {
            partial_publishes: partial_publishes.load(Ordering::Relaxed),
            ..race.close(NAME, op, final_x, finish, |w| &blocks[w])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_core::compare::{same_run, Fields};
    use asynciter_core::session::{Flexible, RecordMode, Session};
    use asynciter_core::stopping::StoppingRule;
    use asynciter_models::conditions::check_condition_a;
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_numerics::vecops;
    use asynciter_opt::linear::JacobiOperator;

    fn jacobi(n: usize) -> JacobiOperator {
        JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
    }

    fn shared_mem(threads: usize) -> SharedMem {
        SharedMem {
            threads,
            ..SharedMem::default()
        }
    }

    /// A residual target under a huge budget: on a loaded single-core
    /// host one free-running worker can burn hundreds of thousands of
    /// updates before its peers are scheduled, so the budget must be
    /// far above any "expected" update count.
    fn to_target<'a>(op: &'a JacobiOperator, eps: f64, backend: SharedMem) -> Session<'a> {
        Session::new(op)
            .steps(8_000_000)
            .stopping(StoppingRule::Residual {
                eps,
                check_every: 64,
            })
            .backend(backend)
    }

    #[test]
    fn converges_to_fixed_point() {
        let op = jacobi(64);
        let xstar = op.solve_dense_spd().unwrap();
        let res = to_target(&op, 1e-12, shared_mem(4)).run().unwrap();
        assert!(
            vecops::max_abs_diff(&res.final_x, &xstar) < 1e-9,
            "error {}",
            vecops::max_abs_diff(&res.final_x, &xstar)
        );
        assert!(res.steps > 0);
        assert_eq!(res.per_worker_updates.len(), 4);
    }

    #[test]
    fn trace_satisfies_condition_a_and_is_dense() {
        let op = jacobi(16);
        let res = Session::new(&op)
            .steps(2000)
            .record(RecordMode::Full)
            .backend(shared_mem(4))
            .run()
            .unwrap();
        let trace = res.trace.expect("trace requested");
        assert_eq!(trace.len() as u64, res.steps);
        check_condition_a(&trace).expect("condition (a) must hold by construction");
    }

    #[test]
    fn single_worker_behaves_like_block_gauss_seidel() {
        let op = jacobi(8);
        let xstar = op.solve_dense_spd().unwrap();
        let res = Session::new(&op)
            .steps(500)
            .backend(shared_mem(1))
            .run()
            .unwrap();
        assert!(vecops::max_abs_diff(&res.final_x, &xstar) < 1e-9);
        assert_eq!(res.per_worker_updates, vec![500]);
    }

    #[test]
    fn an_unrecorded_run_counts_macro_iterations_as_a_recorded_one() {
        let op = jacobi(8);
        let count = |record| {
            let session = Session::new(&op).steps(500).record(record);
            let report = session.backend(shared_mem(1)).run().unwrap();
            report.macro_iterations
        };
        // A lone worker reads every label at j − 1: each step completes one.
        assert_eq!(count(RecordMode::Off), 500);
        assert_eq!(count(RecordMode::MinOnly), 500);
    }

    #[test]
    fn flexible_publishing_counts_partials() {
        let op = jacobi(16);
        let backend = SharedMem {
            inner_steps: 4,
            publish_period: 1,
            ..shared_mem(2)
        };
        let res = Session::new(&op).steps(400).backend(backend).run().unwrap();
        // 3 partial publishes of 8 components per update.
        assert!(res.partial_publishes > 0);
        assert!(res.final_residual < 1.0);
    }

    #[test]
    fn a_phase_the_budget_refuses_publishes_no_partial() {
        // One thread, one mid-phase publish per phase: 400 ticketed steps
        // publish 400 partials of n components, not the refused 401st
        // phase's too, and the run is its trace replayed by Definition 3
        // without partials (exact on one thread).
        let op = jacobi(8);
        let backend = SharedMem {
            inner_steps: 4,
            publish_period: 2,
            ..shared_mem(1)
        };
        let session = Session::new(&op).steps(400).record(RecordMode::Full);
        let mut run = session.backend(backend).run().unwrap();
        assert_eq!(run.partial_publishes, 400 * 8);
        let trace = run.trace.take().unwrap();
        let definition_3 = Flexible {
            m: 4,
            partial: false,
            ..Flexible::default()
        };
        let session = Session::new(&op).replay_trace(trace).unwrap();
        let replayed = session.backend(definition_3).run().unwrap();
        assert_eq!(same_run(&run, &replayed, Fields::Definition1), Ok(()));
    }

    #[test]
    fn locked_snapshots_also_converge() {
        let op = jacobi(32);
        let xstar = op.solve_dense_spd().unwrap();
        let backend = SharedMem {
            snapshot: SnapshotMode::Locked,
            ..shared_mem(4)
        };
        let res = to_target(&op, 1e-11, backend).run().unwrap();
        assert!(vecops::max_abs_diff(&res.final_x, &xstar) < 1e-8);
    }

    #[test]
    fn imbalance_skews_update_counts() {
        let op = jacobi(32);
        let backend = SharedMem {
            spin: crate::imbalance::linear_imbalance(4, 2_000, 16.0),
            ..shared_mem(4)
        };
        let res = Session::new(&op)
            .steps(20_000)
            .backend(backend)
            .run()
            .unwrap();
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
        let run = |backend: SharedMem| Session::new(&op).steps(100).backend(backend).run();
        // Wrong x0 length.
        let short_x0 = Session::new(&op).steps(100).x0(vec![0.0; 7]);
        assert!(short_x0.backend(shared_mem(2)).run().is_err());
        // Spin length mismatch.
        let spin = vec![1, 2, 3];
        assert!(run(SharedMem {
            spin,
            ..shared_mem(2)
        })
        .is_err());
        // Zero budget.
        let no_steps = Session::new(&op).steps(0);
        assert!(no_steps.backend(shared_mem(2)).run().is_err());
        // Quiescence rules the tracker would assert on.
        for (eps, streak) in [(1e-6, 0), (-1.0, 1), (f64::NAN, 1)] {
            let quiesce = Some(Quiesce {
                eps,
                streak,
                margin: 0,
            });
            assert!(run(SharedMem {
                quiesce,
                ..shared_mem(2)
            })
            .is_err());
        }
    }

    #[test]
    fn quiescence_terminated_run_is_actually_converged() {
        let op = jacobi(32);
        let backend = SharedMem {
            quiesce: Some(Quiesce {
                eps: 1e-12,
                streak: 4,
                margin: 64,
            }),
            ..shared_mem(4)
        };
        // Budget far above any plausible detection point: on a loaded
        // single-core host, workers that hog the CPU can spend hundreds
        // of thousands of updates before the detector's margin elapses.
        let res = Session::new(&op)
            .steps(8_000_000)
            .backend(backend)
            .run()
            .unwrap();
        assert!(res.stopped_early, "detector never fired");
        assert!(
            res.final_residual < 1e-9,
            "premature stop: residual {}",
            res.final_residual
        );
        assert!(res.steps < 500_000);
    }

    #[test]
    fn budget_exhaustion_reports_not_stopped_early() {
        let op = jacobi(16);
        let backend = SharedMem {
            quiesce: Some(Quiesce {
                eps: 0.0, // unreachable quiescence
                streak: 5,
                margin: 100,
            }),
            ..shared_mem(2)
        };
        let res = Session::new(&op).steps(10).backend(backend).run().unwrap();
        assert!(!res.stopped_early);
        assert_eq!(res.steps, 10);
    }

    #[test]
    fn a_failing_worker_stops_its_healthy_peers() {
        // A NaN block must also never reach the shared vector.
        crate::race::tests::check_a_failing_worker_stops_its_healthy_peers(shared_mem(2), None);
    }

    #[test]
    fn macro_iterations_exist_on_recorded_trace() {
        let op = jacobi(16);
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
        let backend = SharedMem {
            spin: vec![2_000; 4],
            ..shared_mem(4)
        };
        let res = to_target(&op, 1e-12, backend)
            .record(RecordMode::MinOnly)
            .run()
            .unwrap();
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
