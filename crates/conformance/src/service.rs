//! Multi-tenant service conformance: the tenant-equivalence oracle
//! wrapper, divergence shrinking, and the planted scratch-leak
//! negative control.
//!
//! The service crate defines isolation as *bit-identity with a solo
//! run* and checks it with [`asynciter_service::check_outcome`]. This
//! module is the conformance tier on top of that contract:
//!
//! - [`tenant_plan`] — a seeded mixed workload (every catalog problem,
//!   every deterministic backend, per-tenant seeds) used by the
//!   differential equivalence tests.
//! - [`tenant_equivalence`] — run the plan through a service in either
//!   mode and return every divergence the oracle finds.
//! - [`shrink_leak_trace`] — when a recorded job diverges because it
//!   ran from the wrong start bits (the scratch-leak failure mode),
//!   shrink its trace to a minimal schedule on which the clean start
//!   and the leaked start provably produce different iterate bits.
//! - [`inject_scratch_leak_demo`] — the negative control behind the
//!   CLI's `--inject-scratch-leak`: plant the dirty-lease bug, prove
//!   the oracle catches it, shrink, and persist the counterexample
//!   (committed as `tests/corpus/service-scratch-leak.trace`).

use std::path::Path;

use asynciter_core::session::{Replay, Session};
use asynciter_models::Trace;
use asynciter_numerics::rng::child_seed;
use asynciter_runtime::ApplyPolicy;
use asynciter_service::{
    check_outcome, BackendSpec, Catalog, CompletedJob, DelaySpec, Divergence, JobSpec, ProblemId,
    ScheduleSpec, Service, ServiceConfig, ServiceMode, ServiceOutcome,
};

use crate::shrink::shrink_and_save;

/// A seeded mixed workload: `tenants` job specs cycling through every
/// catalog problem and every deterministic backend family, each with a
/// tenant seed derived from `seed`. Pure data — the same `(tenants,
/// seed, record)` always yields the same specs, so a service run of the
/// plan is as reproducible as any single session.
#[must_use]
pub fn tenant_plan(tenants: u64, seed: u64, record: bool) -> Vec<JobSpec> {
    (0..tenants)
        .map(|t| {
            let problem = ProblemId::ALL[(t as usize) % ProblemId::ALL.len()];
            let backend = match t % 3 {
                0 => BackendSpec::Replay {
                    schedule: if t % 6 == 0 {
                        ScheduleSpec::Sync
                    } else {
                        ScheduleSpec::Chaotic {
                            k_min: 1,
                            k_max: 4,
                            b: 6,
                        }
                    },
                },
                1 => BackendSpec::Flexible {
                    m: 2 + (t as usize % 3),
                    partial: t % 2 == 0,
                },
                _ => BackendSpec::Cluster {
                    workers: 2 + (t as usize % 3),
                    delay: match t % 9 {
                        2 => DelaySpec::Fixed { ticks: 2 },
                        5 => DelaySpec::HeavyTail {
                            scale: 1,
                            alpha: 1.5,
                        },
                        _ => DelaySpec::Jitter { lo: 1, hi: 4 },
                    },
                    hold_prob: 0.15,
                    drop_prob: 0.05,
                    policy: if t % 6 == 2 {
                        ApplyPolicy::KeepFreshest
                    } else {
                        ApplyPolicy::AsReceived
                    },
                },
            };
            JobSpec {
                tenant: t,
                seed: child_seed(seed, t),
                problem,
                backend,
                record,
            }
        })
        .collect()
}

/// What a tenant-equivalence sweep produced.
#[derive(Debug)]
pub struct EquivalenceSweep {
    /// The drained service outcome (records, reports, stream doc).
    pub outcome: ServiceOutcome,
    /// Every isolation violation the solo-diff oracle found.
    pub divergences: Vec<Divergence>,
}

/// Runs a [`tenant_plan`] workload through a service in `mode` and
/// checks every completed job against its solo run.
///
/// # Errors
/// A message when admission itself fails (the plan is sized within the
/// default queue, so this indicates a harness bug).
pub fn tenant_equivalence(
    tenants: u64,
    seed: u64,
    mode: ServiceMode,
    record: bool,
) -> Result<EquivalenceSweep, String> {
    let mut svc = Service::new(ServiceConfig {
        mode,
        queue_capacity: (tenants as usize).max(16),
        ..ServiceConfig::default()
    });
    for spec in tenant_plan(tenants, seed, record) {
        svc.submit(spec).map_err(|e| format!("admission: {e}"))?;
    }
    let outcome = svc.drain();
    let divergences = check_outcome(svc.catalog(), &outcome);
    Ok(EquivalenceSweep {
        outcome,
        divergences,
    })
}

/// Replays `trace` from `x0` through the Definition-1 engine and
/// returns the final iterate bits.
fn replay_from(
    catalog: &Catalog,
    problem: ProblemId,
    x0: &[f64],
    trace: &Trace,
) -> Option<Vec<f64>> {
    let entry = catalog.get(problem);
    Session::new(entry.op.as_ref())
        .x0(x0)
        .replay_trace(trace.clone())
        .ok()?
        .backend(Replay)
        .run()
        .ok()
        .map(|r| r.final_x)
}

/// Shrinks a diverging recorded job's trace to a minimal schedule on
/// which the canonical start and the start the service actually used
/// produce different final-iterate bits — the smallest replayable
/// exhibit of a start-vector leak. Returns `(original steps, shrunk
/// steps)` and writes the minimised trace to `out`.
///
/// # Errors
/// A message when the job carries no trace or captured start (submit
/// with `record: true`), when the divergence is *not* start-vector
/// dependent (the starts agree bitwise — an engine-determinism bug the
/// replay oracles own), or when shrinking loses the evidence.
pub fn shrink_leak_trace(
    catalog: &Catalog,
    completed: &CompletedJob,
    out: &Path,
) -> Result<(u64, u64), String> {
    let report = completed
        .report
        .as_ref()
        .ok_or("diverging job carries no report")?;
    let trace = report
        .trace
        .as_ref()
        .ok_or("diverging job was not recorded (submit with record: true)")?;
    let dirty = completed
        .x0
        .as_ref()
        .ok_or("diverging job did not capture its start vector")?;
    let clean = &catalog.get(completed.spec.problem).x0;
    if clean.len() == dirty.len()
        && clean
            .iter()
            .zip(dirty)
            .all(|(a, b)| a.to_bits() == b.to_bits())
    {
        return Err(
            "divergence is not start-vector dependent: the service ran from the canonical \
             start bits (suspect the engine, not the scratch pool)"
                .into(),
        );
    }
    let problem = completed.spec.problem;
    let still_fails = |t: &Trace| match (
        replay_from(catalog, problem, clean, t),
        replay_from(catalog, problem, dirty, t),
    ) {
        (Some(a), Some(b)) => a.iter().zip(&b).any(|(x, y)| x.to_bits() != y.to_bits()),
        _ => false,
    };
    let not_caught = "clean and leaked starts replay identically on the full trace";
    shrink_and_save(trace, still_fails, 200_000, not_caught, out)
}

/// The scratch-leak negative control behind `--inject-scratch-leak`:
/// runs same-dimension recorded jobs through a deterministic service
/// with the planted dirty-lease bug enabled, proves the
/// tenant-equivalence oracle catches the resulting isolation break,
/// shrinks the first diverging job's trace with [`shrink_leak_trace`],
/// and persists the counterexample. Returns `(original steps, shrunk
/// steps)`.
///
/// # Errors
/// A message when the planted bug is *not* caught — which would mean
/// the isolation oracle has a blind spot — or when shrinking fails.
pub fn inject_scratch_leak_demo(seed: u64, out: &Path) -> Result<(u64, u64), String> {
    let mut svc = Service::new(ServiceConfig {
        mode: ServiceMode::Deterministic {
            seed: child_seed(seed, 0x5C4A),
        },
        inject_scratch_leak: true,
        ..ServiceConfig::default()
    });
    // Same-dimension jobs, so a recycled workspace is handed on as-is
    // and the dirty lease leaks one tenant's final iterate into the
    // next tenant's start vector.
    for t in 0..4 {
        svc.submit(JobSpec {
            tenant: t,
            seed: child_seed(seed, 100 + t),
            problem: ProblemId::Jacobi,
            backend: BackendSpec::Replay {
                schedule: ScheduleSpec::Sync,
            },
            record: true,
        })
        .map_err(|e| format!("admission: {e}"))?;
    }
    let outcome = svc.drain();
    let divergences = check_outcome(svc.catalog(), &outcome);
    let Some(first) = divergences.first() else {
        return Err(
            "planted scratch leak was NOT caught: every tenant report matched its solo run".into(),
        );
    };
    let job = outcome
        .jobs
        .iter()
        .find(|c| c.record.job == first.job)
        .ok_or("diverging job id missing from the outcome")?;
    shrink_leak_trace(svc.catalog(), job, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    #[test]
    fn clean_sweeps_have_no_divergences_in_either_mode() {
        for mode in [
            ServiceMode::Deterministic { seed: 11 },
            ServiceMode::FreeRunning { workers: 2 },
        ] {
            let sweep = tenant_equivalence(6, 0xFEED, mode, false).unwrap();
            assert_eq!(sweep.outcome.doc.completed, 6, "{mode:?}");
            assert!(
                sweep.divergences.is_empty(),
                "{mode:?}: {:?}",
                sweep.divergences
            );
        }
    }

    #[test]
    fn tenant_plans_are_reproducible_data() {
        assert_eq!(tenant_plan(16, 3, false), tenant_plan(16, 3, false));
        assert_ne!(tenant_plan(16, 3, false), tenant_plan(16, 4, false));
    }

    #[test]
    fn the_leak_demo_catches_shrinks_and_reproduces_bytewise() {
        let dir = std::env::temp_dir().join("asynciter-conformance-scratch-leak-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.trace");
        let b = dir.join("b.trace");
        let (orig, shrunk) = inject_scratch_leak_demo(2026, &a).unwrap();
        assert!(shrunk >= 1 && shrunk <= orig, "{shrunk} vs {orig}");
        let trace = corpus::load_trace(&a).unwrap();
        assert_eq!(trace.len() as u64, shrunk);
        // Same seed, same bytes: the committed fixture is reproducible.
        inject_scratch_leak_demo(2026, &b).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
}
