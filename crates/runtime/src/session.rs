//! Runtime backends for the unified [`Session`] API.
//!
//! [`SharedMem`] is the free-running shared-memory engine
//! ([`crate::async_engine`]), [`Barrier`] the barrier-synchronous
//! Jacobi baseline ([`crate::sync_engine`]), [`Cluster`] the
//! deterministic sharded message-passing engine ([`crate::cluster`]) and
//! [`ThreadedCluster`] its genuinely concurrent transport-based sibling
//! ([`crate::threaded`]): all four step loops run straight off
//! `Problem` / `RunControl`, so shared-memory vs synchronous vs
//! message-passing comparisons are sessions differing only in the
//! `.backend(..)` call. This module is the one path under which the
//! four are importable, and what their doors share.
//!
//! [`Session`]: asynciter_core::session::Session

pub use crate::async_engine::SharedMem;
pub use crate::cluster::Cluster;
pub use crate::sync_engine::Barrier;
pub use crate::threaded::ThreadedCluster;
use asynciter_core::session::RecordMode;
use asynciter_core::CoreError;
use asynciter_models::partition::Partition;
use asynciter_models::trace::LabelStore;

pub(crate) fn to_core(backend: &'static str, e: crate::RuntimeError) -> CoreError {
    match e {
        crate::RuntimeError::Control(e) => e,
        e => CoreError::Backend {
            backend,
            message: e.to_string(),
        },
    }
}

/// The backend's component→worker map: `explicit`, or `n` components
/// in `workers` contiguous equal blocks — one machine per worker either
/// way.
pub(crate) fn resolve_partition(
    backend: &'static str,
    explicit: &Option<Partition>,
    n: usize,
    workers: usize,
) -> crate::Result<Partition> {
    let partition = match explicit {
        Some(p) => p.clone(),
        None => Partition::blocks(n, workers).map_err(|e| CoreError::Backend {
            backend,
            message: format!("cannot partition {n} components over {workers} workers: {e}"),
        })?,
    };
    if partition.num_machines() != workers {
        return Err(crate::RuntimeError::InvalidParameter {
            name: "workers",
            message: format!(
                "partition has {} machines but workers = {workers}",
                partition.num_machines()
            ),
        });
    }
    Ok(partition)
}

/// The [`RecordMode`] of a native configuration, which always records.
pub(crate) fn recorded(store: LabelStore) -> RecordMode {
    match store {
        LabelStore::Full => RecordMode::Full,
        LabelStore::MinOnly => RecordMode::MinOnly,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::LinkModel;
    use asynciter_core::session::{Replay, Session};
    use asynciter_core::stopping::StoppingRule;
    use asynciter_numerics::norm::WeightedMaxNorm;
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_numerics::vecops;
    use asynciter_opt::linear::JacobiOperator;

    fn jacobi(n: usize) -> JacobiOperator {
        JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
    }

    #[test]
    fn shared_mem_backend_converges() {
        let op = jacobi(32);
        let xstar = op.solve_dense_spd().unwrap();
        let report = Session::new(&op)
            // Residual-target stopping with a huge budget: free-running
            // workers on a loaded single-core host can interleave so
            // coarsely that any "reasonable" fixed budget is burned
            // before the last worker gets scheduled.
            .steps(5_000_000)
            .stopping(StoppingRule::Residual {
                eps: 1e-12,
                check_every: 64,
            })
            .backend(SharedMem {
                threads: 2,
                ..SharedMem::default()
            })
            .run()
            .unwrap();
        assert_eq!(report.backend, "shared-mem");
        assert!(report.final_error(&xstar) < 1e-9);
        assert!(report.stopped_early);
        assert_eq!(report.per_worker_updates.len(), 2);
        assert!(report.wall > std::time::Duration::ZERO);
    }

    #[test]
    fn shared_mem_records_admissible_trace() {
        let op = jacobi(16);
        let report = Session::new(&op)
            .steps(1_000)
            .record(RecordMode::Full)
            .backend(SharedMem {
                threads: 2,
                ..SharedMem::default()
            })
            .run()
            .unwrap();
        let trace = report.trace.expect("trace recorded");
        assert_eq!(trace.len() as u64, report.steps);
        asynciter_models::conditions::check_condition_a(&trace).unwrap();
    }

    #[test]
    fn barrier_single_thread_matches_replay_bitwise() {
        // Serial schedule, zero delay: the barrier runner must reproduce
        // the replay engine's synchronous Jacobi bit for bit.
        let op = jacobi(16);
        let sync = Session::new(&op)
            .steps(30)
            .backend(Barrier {
                threads: 1,
                ..Barrier::default()
            })
            .run()
            .unwrap();
        let replay = Session::new(&op).steps(30).backend(Replay).run().unwrap();
        assert_eq!(sync.final_x, replay.final_x);
        assert_eq!(sync.steps, 30);
        assert_eq!(sync.macro_iterations, 30);
    }

    #[test]
    fn barrier_trace_is_synchronous() {
        let op = jacobi(8);
        let report = Session::new(&op)
            .steps(12)
            .record(RecordMode::Full)
            .backend(Barrier {
                threads: 2,
                ..Barrier::default()
            })
            .run()
            .unwrap();
        let trace = report.trace.expect("sync trace materialised");
        assert_eq!(trace.len(), 12);
        for (j, step) in trace.iter() {
            assert_eq!(step.active.len(), 8);
            assert_eq!(step.min_label, j - 1);
        }
        assert_eq!(report.macro_iterations, 12);
    }

    #[test]
    fn unsupported_controls_error_cleanly() {
        let op = jacobi(8);
        let err = Session::new(&op)
            .steps(10)
            .error_every(2)
            .xstar(vec![0.0; 8])
            .backend(SharedMem {
                threads: 2,
                ..SharedMem::default()
            })
            .run()
            .unwrap_err();
        assert!(matches!(err, CoreError::Backend { .. }), "{err}");
        let err = Session::new(&op)
            .steps(10)
            .xstar(vec![0.0; 8])
            .stopping(StoppingRule::ErrorBelow {
                eps: 1e-6,
                check_every: 1,
            })
            .backend(Barrier {
                threads: 2,
                ..Barrier::default()
            })
            .run()
            .unwrap_err();
        assert!(matches!(err, CoreError::Backend { .. }), "{err}");
    }

    #[test]
    fn cluster_backend_converges_and_reports() {
        let op = jacobi(24);
        let xstar = op.solve_dense_spd().unwrap();
        let report = Session::new(&op)
            .steps(4_000)
            .seed(5)
            .xstar(xstar.clone())
            .error_every(200)
            .residual_every(200)
            .record(RecordMode::Full)
            .backend(Cluster {
                workers: 3,
                hold_prob: 0.2,
                drop_prob: 0.1,
                dup_prob: 0.05,
                ..Cluster::default()
            })
            .run()
            .unwrap();
        assert_eq!(report.backend, "cluster");
        assert!(report.final_error(&xstar) < 1e-6);
        assert!(!report.errors.is_empty());
        assert!(!report.residuals.is_empty());
        assert_eq!(report.per_worker_updates.iter().sum::<u64>(), report.steps);
        assert!(report.macro_iterations > 0);
        let trace = report.trace.expect("trace recorded");
        assert_eq!(trace.len() as u64, report.steps);
        asynciter_models::conditions::check_condition_a(&trace).unwrap();
    }

    #[test]
    fn cluster_trace_replays_bitwise_through_replay() {
        let op = jacobi(16);
        let cluster = Session::new(&op)
            .steps(900)
            .seed(11)
            .record(RecordMode::Full)
            .backend(Cluster {
                workers: 4,
                hold_prob: 0.3,
                drop_prob: 0.15,
                dup_prob: 0.1,
                link: LinkModel::Jitter { lo: 1, hi: 6 },
                ..Cluster::default()
            })
            .run()
            .unwrap();
        let replayed = Session::new(&op)
            .replay_trace(cluster.trace.clone().unwrap())
            .unwrap()
            .backend(Replay)
            .run()
            .unwrap();
        for i in 0..16 {
            assert_eq!(
                cluster.final_x[i].to_bits(),
                replayed.final_x[i].to_bits(),
                "component {i}"
            );
        }
    }

    #[test]
    fn cluster_honours_stopping_rules_and_unsupported_controls() {
        let op = jacobi(16);
        let xstar = op.solve_dense_spd().unwrap();
        let budget = 5_000;
        let session = || {
            Session::new(&op)
                .steps(budget)
                .seed(11)
                .xstar(xstar.clone())
                .residual_every(7)
                .record(RecordMode::Full)
        };
        let cluster = Cluster {
            workers: 4,
            hold_prob: 0.3,
            drop_prob: 0.15,
            dup_prob: 0.1,
            partial_prob: 0.4,
            link: LinkModel::Jitter { lo: 1, hi: 6 },
            ..Cluster::default()
        };
        let unstopped = session().backend(cluster.clone()).run().unwrap();
        assert!(!unstopped.stopped_early && unstopped.steps == budget);
        let trace = unstopped.trace.unwrap();
        let rules = [
            StoppingRule::Residual {
                eps: 1e-9,
                check_every: 4,
            },
            StoppingRule::ErrorBelow {
                eps: 1e-9,
                check_every: 3,
            },
            StoppingRule::MacroContraction {
                eps: 1e-9,
                alpha: op.contraction_factor(),
                norm: WeightedMaxNorm::uniform(16),
            },
        ];
        for rule in rules {
            let stopped = session()
                .stopping(rule.clone())
                .backend(cluster.clone())
                .run()
                .unwrap();
            assert!(stopped.stopped_early && stopped.steps < budget, "{rule:?}");
            assert_eq!(stopped.residuals.len() as u64, stopped.steps / 7);
            // The stop-prefix law: the core loop replaying the unstopped
            // run's trace under the rule stops at the same step, on the
            // same iterate.
            let replayed = session()
                .replay_trace(trace.clone())
                .unwrap()
                .stopping(rule.clone())
                .backend(Replay)
                .run()
                .unwrap();
            assert_eq!(replayed.steps, stopped.steps, "{rule:?}");
            assert_eq!(replayed.macro_iterations, stopped.macro_iterations);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&replayed.final_x), bits(&stopped.final_x), "{rule:?}");
        }
        // A control the backend cannot honour is reported, not dropped.
        let err = Session::new(&op)
            .steps(10)
            .schedule(asynciter_models::schedule::SyncJacobi::new(16))
            .backend(Cluster::default())
            .run()
            .unwrap_err();
        assert!(matches!(err, CoreError::Backend { .. }), "{err}");
        // One partition machine per worker, as `SharedMem` / `Barrier`
        // ask: this used to run on the partition's two workers.
        let mismatched = Cluster {
            partition: Some(Partition::blocks(16, 2).unwrap()),
            ..cluster
        };
        let err = Session::new(&op).backend(mismatched).run().unwrap_err();
        assert!(err.to_string().contains("workers = 4"), "{err}");
    }

    #[test]
    fn threaded_cluster_backend_converges_and_reports() {
        let op = jacobi(24);
        let xstar = op.solve_dense_spd().unwrap();
        let report = Session::new(&op)
            .steps(4_000_000)
            .seed(5)
            .stopping(StoppingRule::Residual {
                eps: 1e-11,
                check_every: 16,
            })
            .record(RecordMode::Full)
            .backend(ThreadedCluster {
                workers: 3,
                hold_prob: 0.2,
                drop_prob: 0.1,
                dup_prob: 0.05,
                ..ThreadedCluster::default()
            })
            .run()
            .unwrap();
        assert_eq!(report.backend, "threaded-cluster");
        assert!(report.stopped_early, "residual target never fired");
        assert!(report.final_error(&xstar) < 1e-8);
        assert_eq!(report.per_worker_updates.iter().sum::<u64>(), report.steps);
        assert!(report.macro_iterations > 0);
        assert!(report.channel.is_some_and(|channel| channel.sent > 0));
        let trace = report.trace.expect("trace recorded");
        assert_eq!(trace.len() as u64, report.steps);
        asynciter_models::conditions::check_condition_a(&trace).unwrap();
    }

    #[test]
    fn threaded_cluster_trace_replays_bitwise_through_replay() {
        let op = jacobi(16);
        let threaded = Session::new(&op)
            .steps(2_000_000)
            .seed(11)
            .stopping(StoppingRule::Residual {
                eps: 1e-9,
                check_every: 16,
            })
            .record(RecordMode::Full)
            .backend(ThreadedCluster {
                workers: 4,
                hold_prob: 0.3,
                drop_prob: 0.15,
                dup_prob: 0.1,
                ..ThreadedCluster::default()
            })
            .run()
            .unwrap();
        let replayed = Session::new(&op)
            .replay_trace(threaded.trace.clone().unwrap())
            .unwrap()
            .backend(Replay)
            .run()
            .unwrap();
        for i in 0..16 {
            assert_eq!(
                threaded.final_x[i].to_bits(),
                replayed.final_x[i].to_bits(),
                "component {i}"
            );
        }
    }

    #[test]
    fn threaded_cluster_rejects_unsupported_controls() {
        let op = jacobi(8);
        let err = Session::new(&op)
            .steps(10)
            .schedule(asynciter_models::schedule::SyncJacobi::new(8))
            .backend(ThreadedCluster::default())
            .run()
            .unwrap_err();
        assert!(matches!(err, CoreError::Backend { .. }), "{err}");
        let err = Session::new(&op)
            .steps(10)
            .error_every(2)
            .xstar(vec![0.0; 8])
            .backend(ThreadedCluster::default())
            .run()
            .unwrap_err();
        assert!(matches!(err, CoreError::Backend { .. }), "{err}");
        // One partition machine per worker: this used to run two threads.
        let mismatched = ThreadedCluster {
            workers: 3,
            partition: Some(Partition::blocks(8, 2).unwrap()),
            ..ThreadedCluster::default()
        };
        let err = Session::new(&op).backend(mismatched).run().unwrap_err();
        assert!(err.to_string().contains("workers = 3"), "{err}");
    }

    #[test]
    fn async_and_sync_agree_on_fixed_point() {
        let op = jacobi(24);
        let xstar = op.solve_dense_spd().unwrap();
        for report in [
            Session::new(&op)
                // Generous cap: with a residual target the run stops at
                // convergence; coarse interleaving on loaded single-core
                // hosts just consumes more of the budget first.
                .steps(2_000_000)
                .stopping(StoppingRule::Residual {
                    eps: 1e-12,
                    check_every: 32,
                })
                .backend(SharedMem {
                    threads: 3,
                    ..SharedMem::default()
                })
                .run()
                .unwrap(),
            Session::new(&op)
                // Small sweep cap: barrier sweeps serialise into OS
                // scheduling quanta on one core, and the sweep-change
                // target fires after a few dozen sweeps anyway.
                .steps(500)
                .stopping(StoppingRule::Residual {
                    eps: 1e-13,
                    check_every: 1,
                })
                .backend(Barrier {
                    threads: 3,
                    ..Barrier::default()
                })
                .run()
                .unwrap(),
        ] {
            let err = vecops::max_abs_diff(&report.final_x, &xstar);
            assert!(err < 1e-8, "{}: error {err}", report.backend);
        }
    }
}
