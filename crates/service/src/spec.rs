//! Job specifications: what a tenant submits.
//!
//! A [`JobSpec`] is pure data — problem id, backend choice, delay
//! model, tenant seed — so it can be validated before admission,
//! carried across worker threads, and re-executed solo by the
//! equivalence oracle. Validation failures render exact messages
//! (`invalid job spec: …`) that the error-path tests pin verbatim.
//!
//! Only deterministic backends are admissible: a service job must be
//! exactly reproducible from its spec, because the tenant-isolation
//! contract is *bit-identity with a solo run of the same spec*. The
//! racy `ThreadedCluster` (whose runs are reproducible only from their
//! recorded traces, not from config) is therefore not representable
//! here.

use crate::catalog::{Catalog, ProblemId};
use crate::error::{Result, ServiceError};
use asynciter_core::session::{Flexible, RecordMode, Replay, RunReport, Session};
use asynciter_core::stopping::StoppingRule;
use asynciter_models::channel::LinkModel;
use asynciter_models::schedule::{ChaoticBounded, SyncJacobi};
use asynciter_runtime::{ApplyPolicy, Cluster};

/// How often stopping-capable backends check the residual target.
const CHECK_EVERY: u64 = 16;

/// Per-message link latency for cluster jobs: the cluster engine's own
/// [`LinkModel`] (`Fixed`, `Jitter`, `HeavyTail`).
pub type DelaySpec = LinkModel;

/// Schedule steering for replay jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleSpec {
    /// Synchronous Jacobi sweeps (one macro-iteration per step).
    Sync,
    /// Seeded chaotic steering with bounded staleness.
    Chaotic {
        /// Minimum active-set size per step.
        k_min: usize,
        /// Maximum active-set size per step.
        k_max: usize,
        /// Staleness bound `b ≥ 1`.
        b: u64,
    },
}

/// Which deterministic engine runs the job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackendSpec {
    /// Definition-1 replay over a generated schedule.
    Replay {
        /// The schedule steering.
        schedule: ScheduleSpec,
    },
    /// Definition-3 flexible communication on the fixed `flex_budget`: a
    /// pinned choice, not an engine limit (it honours residual targets).
    Flexible {
        /// Inner iterations per outer update (`m ≥ 1`).
        m: usize,
        /// Publish mid-phase partials.
        partial: bool,
    },
    /// The deterministic sharded message-passing cluster.
    Cluster {
        /// Worker (= shard) count.
        workers: usize,
        /// Link latency model.
        delay: DelaySpec,
        /// Probability a delivery is held back (reordering).
        hold_prob: f64,
        /// Probability a delivery is dropped.
        drop_prob: f64,
        /// Receiver policy.
        policy: ApplyPolicy,
    },
}

impl BackendSpec {
    /// Stable backend identifier for records.
    pub fn id(&self) -> &'static str {
        match self {
            BackendSpec::Replay { .. } => "replay",
            BackendSpec::Flexible { .. } => "flexible",
            BackendSpec::Cluster { .. } => "cluster",
        }
    }
}

/// One tenant's admitted unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The submitting tenant.
    pub tenant: u64,
    /// The tenant's seed (drives every seeded choice the job makes).
    pub seed: u64,
    /// Which catalog instance to solve.
    pub problem: ProblemId,
    /// Which engine to run it on.
    pub backend: BackendSpec,
    /// Whether to keep the full trace (needed when a divergence must be
    /// shrunk; costs memory on large sweeps).
    pub record: bool,
}

impl JobSpec {
    /// Validates the spec against the catalog (dimension-dependent
    /// bounds included). Messages are exact and pinned by tests.
    ///
    /// # Errors
    /// [`ServiceError::InvalidJob`] naming the offending field.
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        let n = catalog.get(self.problem).n();
        let invalid = |message: String| Err(ServiceError::InvalidJob { message });
        match self.backend {
            BackendSpec::Replay {
                schedule: ScheduleSpec::Sync,
            } => Ok(()),
            BackendSpec::Replay {
                schedule: ScheduleSpec::Chaotic { k_min, k_max, b },
            } => {
                if k_min < 1 || k_min > k_max || k_max > n {
                    return invalid(format!(
                        "chaotic schedule needs 1 <= k_min <= k_max <= n={n} \
                         (got k_min {k_min}, k_max {k_max})"
                    ));
                }
                if b < 1 {
                    return invalid(format!("staleness bound b must be >= 1 (got {b})"));
                }
                Ok(())
            }
            BackendSpec::Flexible { m, .. } => {
                if m < 1 {
                    return invalid(format!("flexible m must be >= 1 (got {m})"));
                }
                Ok(())
            }
            BackendSpec::Cluster {
                workers,
                delay,
                hold_prob,
                drop_prob,
                ..
            } => {
                if workers < 1 || workers > n {
                    return invalid(format!(
                        "cluster workers must be in 1..=n={n} (got {workers})"
                    ));
                }
                for (name, p) in [("hold_prob", hold_prob), ("drop_prob", drop_prob)] {
                    if !(0.0..=1.0).contains(&p) {
                        return invalid(format!("{name} must be in [0, 1] (got {p})"));
                    }
                }
                delay.validate().or_else(invalid)
            }
        }
    }

    /// Executes the spec on an explicit start vector (the service stages
    /// `x0` in a pooled workspace; solo runs pass the canonical start).
    /// Deterministic: same spec + same `x0` bits ⇒ same report bits.
    ///
    /// # Errors
    /// [`ServiceError::Backend`] wrapping whatever the engine reports.
    pub fn execute(&self, catalog: &Catalog, x0: &[f64], record: RecordMode) -> Result<RunReport> {
        let entry = catalog.get(self.problem);
        let n = entry.n();
        let session = Session::new(entry.op.as_ref())
            .x0(x0)
            .record(record)
            .seed(self.seed);
        let session = match self.backend {
            BackendSpec::Replay { schedule } => {
                let session = match schedule {
                    ScheduleSpec::Sync => session.schedule(SyncJacobi::new(n)),
                    ScheduleSpec::Chaotic { k_min, k_max, b } => {
                        session.schedule(ChaoticBounded::new(n, k_min, k_max, b, false, self.seed))
                    }
                };
                session
                    .steps(entry.budget)
                    .stopping(StoppingRule::Residual {
                        eps: entry.target,
                        check_every: CHECK_EVERY,
                    })
                    .backend(Replay)
            }
            BackendSpec::Flexible { m, partial } => {
                session.steps(entry.flex_budget).backend(Flexible {
                    m,
                    partial,
                    ..Flexible::default()
                })
            }
            BackendSpec::Cluster {
                workers,
                delay,
                hold_prob,
                drop_prob,
                policy,
            } => session
                .steps(entry.budget)
                .stopping(StoppingRule::Residual {
                    eps: entry.target,
                    check_every: CHECK_EVERY,
                })
                .backend(Cluster {
                    workers,
                    link: delay,
                    hold_prob,
                    drop_prob,
                    apply_policy: policy,
                    ..Cluster::default()
                }),
        };
        session.run().map_err(|e| ServiceError::Backend {
            message: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_core::compare::{same_run, Fields};

    fn catalog() -> Catalog {
        Catalog::new()
    }

    fn base(backend: BackendSpec) -> JobSpec {
        JobSpec {
            tenant: 1,
            seed: 9,
            problem: ProblemId::Jacobi,
            backend,
            record: false,
        }
    }

    #[test]
    fn malformed_specs_render_exact_messages() {
        let catalog = catalog();
        let cases: &[(BackendSpec, &str)] = &[
            (
                BackendSpec::Replay {
                    schedule: ScheduleSpec::Chaotic {
                        k_min: 0,
                        k_max: 4,
                        b: 2,
                    },
                },
                "invalid job spec: chaotic schedule needs 1 <= k_min <= k_max <= n=16 \
                 (got k_min 0, k_max 4)",
            ),
            (
                BackendSpec::Replay {
                    schedule: ScheduleSpec::Chaotic {
                        k_min: 1,
                        k_max: 17,
                        b: 2,
                    },
                },
                "invalid job spec: chaotic schedule needs 1 <= k_min <= k_max <= n=16 \
                 (got k_min 1, k_max 17)",
            ),
            (
                BackendSpec::Replay {
                    schedule: ScheduleSpec::Chaotic {
                        k_min: 1,
                        k_max: 4,
                        b: 0,
                    },
                },
                "invalid job spec: staleness bound b must be >= 1 (got 0)",
            ),
            (
                BackendSpec::Flexible {
                    m: 0,
                    partial: true,
                },
                "invalid job spec: flexible m must be >= 1 (got 0)",
            ),
            (
                BackendSpec::Cluster {
                    workers: 0,
                    delay: DelaySpec::Fixed { ticks: 1 },
                    hold_prob: 0.0,
                    drop_prob: 0.0,
                    policy: ApplyPolicy::AsReceived,
                },
                "invalid job spec: cluster workers must be in 1..=n=16 (got 0)",
            ),
            (
                BackendSpec::Cluster {
                    workers: 2,
                    delay: DelaySpec::Fixed { ticks: 1 },
                    hold_prob: 1.5,
                    drop_prob: 0.0,
                    policy: ApplyPolicy::AsReceived,
                },
                "invalid job spec: hold_prob must be in [0, 1] (got 1.5)",
            ),
            (
                BackendSpec::Cluster {
                    workers: 2,
                    delay: DelaySpec::Jitter { lo: 5, hi: 2 },
                    hold_prob: 0.0,
                    drop_prob: 0.0,
                    policy: ApplyPolicy::AsReceived,
                },
                "invalid job spec: jitter delay needs lo <= hi (got lo 5, hi 2)",
            ),
            (
                BackendSpec::Cluster {
                    workers: 2,
                    delay: DelaySpec::HeavyTail {
                        scale: 1,
                        alpha: 0.0,
                    },
                    hold_prob: 0.0,
                    drop_prob: 0.0,
                    policy: ApplyPolicy::AsReceived,
                },
                "invalid job spec: heavy-tail alpha must be positive (got 0)",
            ),
        ];
        for (backend, expect) in cases {
            let err = base(*backend).validate(&catalog).unwrap_err();
            assert_eq!(err.to_string(), *expect);
        }
    }

    #[test]
    fn valid_specs_pass_and_execute_deterministically() {
        let catalog = catalog();
        let spec = base(BackendSpec::Cluster {
            workers: 4,
            delay: DelaySpec::Jitter { lo: 1, hi: 4 },
            hold_prob: 0.2,
            drop_prob: 0.05,
            policy: ApplyPolicy::AsReceived,
        });
        spec.validate(&catalog).unwrap();
        let x0 = vec![0.0; 16];
        let a = spec.execute(&catalog, &x0, RecordMode::Off).unwrap();
        let b = spec.execute(&catalog, &x0, RecordMode::Off).unwrap();
        let same = same_run(&a, &b, Fields::Computed);
        assert_eq!(same, Ok(()), "bitwise reproducible from spec");
        assert!(a.stopped_early, "residual target fired");
    }

    #[test]
    fn execution_depends_on_the_start_bits() {
        // The leak-detection premise: a different x0 produces different
        // final bits (here: steps differ because the target fires at
        // once from an already-converged start).
        let catalog = catalog();
        let spec = base(BackendSpec::Replay {
            schedule: ScheduleSpec::Sync,
        });
        let clean = spec.execute(&catalog, &[0.0; 16], RecordMode::Off).unwrap();
        let dirty = spec
            .execute(&catalog, &clean.final_x, RecordMode::Off)
            .unwrap();
        assert_ne!(clean.steps, dirty.steps);
    }
}
