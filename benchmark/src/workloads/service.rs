//! `service_mix` and `service_serial`: a closed loop with one client.
//! Each operation submits 1024 small jobs, drains the service and renders
//! the streamed document. Thousands of tiny solves make the queue, the
//! scratch pool, record assembly and JSON the visible costs and the
//! kernel invisible. `service_mix` drains on two free-running workers,
//! `service_serial` on the deterministic single-threaded mode — the
//! baseline that tells a service-layer gain (moves only the first) from
//! an engine gain (moves both).

use super::{fnv_words, span, Outcome, Workload};
use crate::probes;
use crate::trace::Tracer;
use asynciter_core::session::RecordMode;
use asynciter_numerics::rng::child_seed;
use asynciter_report::stream::ServiceDoc;
use asynciter_runtime::ApplyPolicy;
use asynciter_service::{
    check_outcome, solo_report, BackendSpec, DelaySpec, JobSpec, ProblemId, ScheduleSpec, Service,
    ServiceConfig, ServiceMode, ServiceOutcome,
};
use std::time::Instant;

/// Jobs per drain (the default queue capacity).
pub const JOBS: usize = 1024;
/// Free-running worker threads of `service_mix`.
const WORKERS: usize = 2;
/// Jobs the solo probe re-runs outside the service.
const SOLO_SAMPLE: usize = 128;

/// The benchmark's own job generator. Problem, backend family and every
/// backend parameter cycle with the tenant index, so every seed submits
/// the same mix — every `ProblemId` × {replay sync / chaotic, flexible
/// `m ∈ 2..4` ± partials, cluster of 2–4 workers over fixed / jitter /
/// heavy-tail links under both apply policies} — and only the tenant
/// seeds, which drive each job's schedule and fault streams, vary.
pub fn job_specs(count: usize, seed: u64) -> Vec<JobSpec> {
    let problems = ProblemId::ALL.len() as u64;
    (0..count as u64)
        .map(|t| {
            let problem = ProblemId::ALL[(t % problems) as usize];
            // `round` advances once every problem × family cell was
            // visited, so parameters vary within each cell.
            let (family, round) = ((t / problems) % 3, t / (3 * problems));
            let backend = match family {
                0 => BackendSpec::Replay {
                    schedule: if round % 3 == 0 {
                        ScheduleSpec::Sync
                    } else {
                        ScheduleSpec::Chaotic {
                            k_min: 1,
                            k_max: 2 + (round % 3) as usize,
                            b: 2 + round % 6,
                        }
                    },
                },
                1 => BackendSpec::Flexible {
                    m: 2 + (round % 3) as usize,
                    partial: round % 2 == 0,
                },
                _ => BackendSpec::Cluster {
                    workers: 2 + (round % 3) as usize,
                    delay: match (round / 3) % 3 {
                        0 => DelaySpec::Fixed { ticks: 2 },
                        1 => DelaySpec::Jitter { lo: 1, hi: 4 },
                        _ => DelaySpec::HeavyTail {
                            scale: 1,
                            alpha: 1.5,
                        },
                    },
                    hold_prob: 0.15,
                    drop_prob: 0.05,
                    policy: if round % 2 == 0 {
                        ApplyPolicy::AsReceived
                    } else {
                        ApplyPolicy::KeepFreshest
                    },
                },
            };
            JobSpec {
                tenant: t,
                seed: child_seed(seed, t),
                problem,
                backend,
                record: false,
            }
        })
        .collect()
}

/// Digest of a job list (its `Debug` rendering names every field).
fn specs_fingerprint(specs: &[JobSpec]) -> u64 {
    fnv_words(
        specs
            .iter()
            .flat_map(|s| format!("{s:?}").into_bytes())
            .map(u64::from),
    )
}

fn service(mode: ServiceMode) -> Service {
    Service::new(ServiceConfig {
        mode,
        ..ServiceConfig::default()
    })
}

/// One service plus the job list it is fed.
pub struct ServiceLoad {
    svc: Service,
    specs: Vec<JobSpec>,
    seed: u64,
    free_running: bool,
}

/// What one submit → drain → render operation leaves behind.
struct Drained {
    outcome: ServiceOutcome,
    doc_bytes: usize,
    wall_s: f64,
}

impl ServiceLoad {
    /// Builds the service (and its problem catalog) and generates the
    /// job list.
    pub fn new(seed: u64, free_running: bool) -> Self {
        Self {
            svc: service(Self::mode(seed, free_running)),
            specs: job_specs(JOBS, seed),
            seed,
            free_running,
        }
    }

    fn mode(seed: u64, free_running: bool) -> ServiceMode {
        if free_running {
            ServiceMode::FreeRunning { workers: WORKERS }
        } else {
            ServiceMode::Deterministic { seed }
        }
    }

    fn drain(
        svc: &mut Service,
        specs: &[JobSpec],
        tracer: Option<&Tracer>,
    ) -> Result<Drained, String> {
        let start = Instant::now();
        span(tracer, "service.submit", || {
            specs
                .iter()
                .try_for_each(|spec| svc.submit(spec.clone()).map(|_| ()))
        })
        .map_err(|e| format!("admission: {e}"))?;
        let outcome = span(tracer, "service.drain", || svc.drain());
        let text = span(tracer, "report.render", || outcome.doc.render());
        Ok(Drained {
            wall_s: start.elapsed().as_secs_f64(),
            doc_bytes: text.len(),
            outcome,
        })
    }

    /// Per-tenant digest of a drain: mode- and order-independent.
    fn tenant_digest(outcome: &ServiceOutcome) -> u64 {
        let mut by_tenant: Vec<(u64, u64)> = outcome
            .jobs
            .iter()
            .map(|j| (j.record.tenant, j.record.final_x_hash))
            .collect();
        by_tenant.sort_unstable();
        fnv_words(by_tenant.into_iter().flat_map(|(t, h)| [t, h]))
    }

    fn summarise(&self, drained: &Drained) -> Outcome {
        let mut out = Outcome {
            wall_s: drained.wall_s,
            attempted: self.specs.len() as u64,
            hash: Self::tenant_digest(&drained.outcome),
            ..Outcome::default()
        };
        let mut run_s = [0.0_f64; 3];
        let mut jobs = [0.0_f64; 3];
        for job in &drained.outcome.jobs {
            let r = &job.record;
            if r.status != "ok" {
                out.fail(format!(
                    "tenant {} job {}: {} {}",
                    r.tenant, r.job, r.status, r.note
                ));
                continue;
            }
            out.steps += r.steps;
            let family = match r.backend.as_str() {
                "replay" => 0,
                "flexible" => 1,
                _ => 2,
            };
            run_s[family] += r.wall_secs;
            jobs[family] += 1.0;
            out.job_ms.push((r.tenant, r.wall_secs * 1e3));
        }
        if drained.outcome.jobs.len() != self.specs.len() {
            out.fail(format!(
                "{} of {} jobs came back",
                drained.outcome.jobs.len(),
                self.specs.len()
            ));
        }
        let mean_ms = |f: usize| {
            if jobs[f] > 0.0 {
                run_s[f] / jobs[f] * 1e3
            } else {
                0.0
            }
        };
        out.counters.extend([
            (
                "service.jobs_completed",
                drained.outcome.doc.completed as f64,
            ),
            ("service.steps_sum", out.steps as f64),
            ("service.run_s_sum", run_s.iter().sum()),
            ("service.run_ms_mean.replay", mean_ms(0)),
            ("service.run_ms_mean.flexible", mean_ms(1)),
            ("service.run_ms_mean.cluster", mean_ms(2)),
            ("report.doc_bytes", drained.doc_bytes as f64),
        ]);
        out
    }
}

impl Workload for ServiceLoad {
    fn threads(&self) -> usize {
        if self.free_running {
            WORKERS
        } else {
            1
        }
    }

    /// A drain already averages over 1024 independently seeded jobs;
    /// every operation submits the same list.
    fn redraws(&self) -> bool {
        false
    }

    fn fingerprint(&self) -> u64 {
        specs_fingerprint(&self.specs)
    }

    fn op(&mut self, _stream: u64, tracer: Option<&Tracer>) -> Outcome {
        let before = self.svc.pool().stats();
        let drained = match Self::drain(&mut self.svc, &self.specs, tracer) {
            Ok(drained) => drained,
            Err(e) => return Outcome::failed(self.specs.len() as u64, e),
        };
        let mut out = self.summarise(&drained);
        let after = self.svc.pool().stats();
        out.counters.extend([
            (
                "runtime.scratch.leases",
                (after.leases - before.leases) as f64,
            ),
            (
                "runtime.scratch.created",
                (after.created - before.created) as f64,
            ),
            (
                "runtime.scratch.reused",
                (after.reused - before.reused) as f64,
            ),
        ]);
        out
    }

    /// One untimed drain checked job by job against solo runs (the
    /// tenant-isolation oracle), and one drain in the *other* mode whose
    /// per-tenant digests must equal this mode's.
    fn verify(&mut self, reference: &Outcome) -> Outcome {
        let mut out = Outcome {
            attempted: 2 * self.specs.len() as u64,
            ..Outcome::default()
        };
        match Self::drain(&mut self.svc, &self.specs, None) {
            Ok(drained) => {
                for d in check_outcome(self.svc.catalog(), &drained.outcome) {
                    out.fail(d.to_string());
                }
            }
            Err(e) => out.fail(e),
        }
        let mut other = service(Self::mode(self.seed, !self.free_running));
        match Self::drain(&mut other, &self.specs, None) {
            Ok(drained) => {
                if Self::tenant_digest(&drained.outcome) != reference.hash {
                    out.fail("per-tenant digests differ between the two drain modes".into());
                }
            }
            Err(e) => out.fail(e),
        }
        out
    }

    /// A timed drain in the other mode (for the two-worker scaling
    /// figure), solo re-runs of a job sample outside the service, the
    /// document parse, and a scratch-lease loop.
    fn probes(&mut self, reference: &Outcome) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        let jobs = self.specs.len() as f64;
        let this_rate = jobs / reference.wall_s;
        let mut other = service(Self::mode(self.seed, !self.free_running));
        // Warm the other service's pool and caches as set-up did this one's.
        let _ = Self::drain(&mut other, &self.specs, None);
        if let Ok(drained) = Self::drain(&mut other, &self.specs, None) {
            let other_rate = jobs / drained.wall_s;
            let (free, serial) = if self.free_running {
                (this_rate, other_rate)
            } else {
                (other_rate, this_rate)
            };
            out.push(("service.jobs_per_s", free));
            out.push(("service.jobs_per_s_serial", serial));
            out.push(("service.scaling_eff_2w", free / (WORKERS as f64 * serial)));
            let text = drained.outcome.doc.render();
            let start = Instant::now();
            let parsed = ServiceDoc::parse(&text);
            let parse_s = start.elapsed().as_secs_f64();
            if parsed.is_ok() {
                out.push(("report.doc_parse_s", parse_s));
                out.push(("report.parse_mb_per_s", text.len() as f64 / 1e6 / parse_s));
            }
        }

        let sample = &self.specs[..SOLO_SAMPLE.min(self.specs.len())];
        let start = Instant::now();
        let solo_ok = sample
            .iter()
            .all(|spec| solo_report(self.svc.catalog(), spec, RecordMode::Off).is_ok());
        let solo_ms = start.elapsed().as_secs_f64() * 1e3 / sample.len() as f64;
        if solo_ok {
            out.push(("service.solo_run_ms_mean", solo_ms));
            // The same jobs' run time inside the service: tenants
            // 0..SOLO_SAMPLE of the reference drain.
            let inside: Vec<f64> = reference
                .job_ms
                .iter()
                .filter(|(t, _)| (*t as usize) < sample.len())
                .map(|&(_, ms)| ms)
                .collect();
            if !inside.is_empty() {
                let mean = inside.iter().sum::<f64>() / inside.len() as f64;
                out.push(("service.contention_ratio", mean / solo_ms));
            }
        }
        out.extend(probes::scratch_lease(
            self.svc.catalog().max_workspace_len(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_service::Catalog;

    #[test]
    fn job_list_covers_every_problem_on_every_backend_family() {
        let specs = job_specs(JOBS, 2022);
        assert_eq!(specs.len(), JOBS);
        assert_eq!(specs, job_specs(JOBS, 2022), "same seed, same jobs");
        assert_ne!(specs, job_specs(JOBS, 2023));
        let catalog = Catalog::new();
        for spec in &specs {
            assert!(spec.validate(&catalog).is_ok(), "{spec:?}");
            assert!(!spec.record);
        }
        for problem in ProblemId::ALL {
            for family in ["replay", "flexible", "cluster"] {
                let count = specs
                    .iter()
                    .filter(|s| s.problem == problem && s.backend.id() == family)
                    .count();
                // 1024 jobs over 15 cells: 68 or 69 each, on every seed.
                assert!(
                    (68..=69).contains(&count),
                    "{problem:?} × {family}: {count}"
                );
            }
        }
        let policies = |p: ApplyPolicy| {
            specs
                .iter()
                .filter(|s| matches!(s.backend, BackendSpec::Cluster { policy, .. } if policy == p))
                .count()
        };
        assert!(policies(ApplyPolicy::AsReceived) > 0 && policies(ApplyPolicy::KeepFreshest) > 0);
    }
}
