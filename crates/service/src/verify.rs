//! The tenant-isolation contract, made checkable: solo re-execution and
//! bitwise diffing.
//!
//! A service run is *isolated* iff every tenant's report is the same run
//! as a solo [`crate::spec::JobSpec::execute`] of the same spec, on every
//! field the run computes ([`Fields::Computed`], compared by
//! `asynciter_core::compare`): the bits of `final_x`, `final_residual`,
//! `errors` and `residuals`; `steps`, `stopped_early`,
//! `macro_iterations` and `error_times`; the partial and constraint
//! counters, `per_worker_updates`, `sim_time` and `channel`. What a run
//! keeps or measures — `trace`, `wall`, `backend`, `tenant`, `job` — is
//! not compared. [`check_outcome`] re-runs every completed job solo
//! (fresh buffers, no pool, no neighbours) and reports each
//! [`Divergence`]. The conformance tier wraps this with trace shrinking;
//! the CLI wires it behind `--verify`.

use crate::catalog::Catalog;
use crate::error::Result;
use crate::service::ServiceOutcome;
use crate::spec::JobSpec;
use asynciter_core::compare::{differences, Fields};
use asynciter_core::session::{RecordMode, RunReport};

/// One field where a service run's report differs from the solo run.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// The diverging tenant.
    pub tenant: u64,
    /// The diverging job.
    pub job: u64,
    /// Which report field differed (`"final_x"`, `"steps"`, …).
    pub field: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tenant {} job {}: {} diverged from the solo run ({})",
            self.tenant, self.job, self.field, self.detail
        )
    }
}

/// Runs `spec` solo — fresh canonical start, no pool, no service — the
/// reference execution the isolation contract compares against.
///
/// # Errors
/// Whatever the backend reports.
pub fn solo_report(catalog: &Catalog, spec: &JobSpec, record: RecordMode) -> Result<RunReport> {
    let entry = catalog.get(spec.problem);
    spec.execute(catalog, &entry.x0, record)
}

/// Checks the isolation contract over a whole drained outcome: every
/// ok job is re-run solo and compared on every computed field. Returns
/// every divergence found (empty = isolated). Failed/cancelled jobs are
/// skipped — they carry no payload to compare.
pub fn check_outcome(catalog: &Catalog, outcome: &ServiceOutcome) -> Vec<Divergence> {
    let mut divergences = Vec::new();
    for completed in &outcome.jobs {
        let Some(report) = &completed.report else {
            continue;
        };
        let record = if completed.spec.record {
            RecordMode::Full
        } else {
            RecordMode::Off
        };
        match solo_report(catalog, &completed.spec, record) {
            Ok(solo) => divergences.extend(
                differences(report, &solo, Fields::Computed)
                    .into_iter()
                    .map(|d| Divergence {
                        tenant: completed.spec.tenant,
                        job: completed.record.job,
                        field: d.field,
                        detail: format!("service vs solo, {}", d.detail),
                    }),
            ),
            Err(e) => divergences.push(Divergence {
                tenant: completed.spec.tenant,
                job: completed.record.job,
                field: "solo",
                detail: format!("solo re-run failed: {e}"),
            }),
        }
    }
    divergences
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ProblemId;
    use crate::service::{Service, ServiceConfig, ServiceMode};
    use crate::spec::{BackendSpec, DelaySpec, ScheduleSpec};
    use asynciter_runtime::ApplyPolicy;

    fn mixed_spec(t: u64) -> JobSpec {
        let problem = ProblemId::ALL[(t as usize) % ProblemId::ALL.len()];
        let backend = match t % 3 {
            0 => BackendSpec::Replay {
                schedule: ScheduleSpec::Chaotic {
                    k_min: 1,
                    k_max: 4,
                    b: 6,
                },
            },
            1 => BackendSpec::Flexible {
                m: 3,
                partial: true,
            },
            _ => BackendSpec::Cluster {
                workers: 3,
                delay: DelaySpec::Jitter { lo: 1, hi: 4 },
                hold_prob: 0.15,
                drop_prob: 0.05,
                policy: ApplyPolicy::KeepFreshest,
            },
        };
        JobSpec {
            tenant: t,
            seed: 7_000 + t,
            problem,
            backend,
            record: false,
        }
    }

    #[test]
    fn clean_service_runs_are_isolated() {
        for mode in [
            ServiceMode::Deterministic { seed: 3 },
            ServiceMode::FreeRunning { workers: 3 },
        ] {
            let mut svc = Service::new(ServiceConfig {
                mode,
                ..ServiceConfig::default()
            });
            for t in 0..10 {
                svc.submit(mixed_spec(t)).unwrap();
            }
            let out = svc.drain();
            assert_eq!(out.doc.completed, 10, "{mode:?}");
            let divergences = check_outcome(svc.catalog(), &out);
            assert!(divergences.is_empty(), "{mode:?}: {divergences:?}");
        }
    }

    #[test]
    fn the_planted_scratch_leak_is_caught() {
        let mut svc = Service::new(ServiceConfig {
            inject_scratch_leak: true,
            ..ServiceConfig::default()
        });
        // Same-dimension jobs so the recycled buffer is reused as-is.
        for t in 0..6 {
            let mut spec = mixed_spec(t * 3); // all replay/jacobi-family stride
            spec.problem = ProblemId::Jacobi;
            spec.tenant = t;
            svc.submit(spec).unwrap();
        }
        let out = svc.drain();
        let divergences = check_outcome(svc.catalog(), &out);
        assert!(
            !divergences.is_empty(),
            "dirty leases must break bit-identity"
        );
        let d = &divergences[0];
        assert!(d.to_string().contains("diverged from the solo run"), "{d}");
    }
}
