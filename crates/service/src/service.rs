//! The multi-tenant service: bounded admission, two execution modes,
//! pooled workspaces, batched streaming.
//!
//! Life of a job: [`Service::submit`] validates the spec and admits it
//! into the bounded queue (rejecting with backpressure when full, exact
//! message pinned); [`Service::drain`] executes everything admitted —
//! sequentially in seeded order under
//! [`ServiceMode::Deterministic`], or over free-running worker threads
//! under [`ServiceMode::FreeRunning`] — leasing each job's workspace
//! (`x0` staging plus operator scratch) from one shared
//! [`ScratchPool`], and flushes compact records in
//! completion-order batches into a [`ServiceDoc`].
//!
//! The isolation contract either mode must uphold: every per-tenant
//! [`RunReport`] is **bit-identical** to a solo run of the same spec
//! (see [`crate::verify`]). Determinism lives in the specs (seeded
//! engines) and the clean-lease guarantee of the pool; the free-running
//! mode only reorders *completions*, never payloads.

use crate::catalog::Catalog;
use crate::error::{Result, ServiceError};
use crate::spec::JobSpec;
use asynciter_core::session::{RecordMode, RunReport};
use asynciter_report::stream::{hash_f64s, ServiceBatch, ServiceDoc, ServiceRecord};
use asynciter_report::SCHEMA_VERSION;
use asynciter_runtime::ScratchPool;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// How admitted jobs are executed at drain time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceMode {
    /// Single-threaded, seeded admission order, virtual clock — every
    /// field of the outcome except wall-clock is a pure function of
    /// (submissions, seed). This is the mode the conformance machinery
    /// and the committed baseline pin.
    Deterministic {
        /// Seed for the admission-order shuffle.
        seed: u64,
    },
    /// Free-running worker threads over the shared queue. Per-tenant
    /// payloads stay bit-identical to solo runs; only completion order
    /// (and therefore batch composition) is scheduling-dependent.
    FreeRunning {
        /// Worker thread count (`≥ 1`).
        workers: usize,
    },
}

/// Service construction knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Bounded queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Records per streamed batch flush.
    pub batch_size: usize,
    /// Execution mode.
    pub mode: ServiceMode,
    /// **Negative control only**: plant the dirty-lease scratch-pool
    /// bug (see `ScratchPool::inject_dirty_leases`) so tests can prove
    /// the equivalence oracle catches cross-tenant leaks.
    pub inject_scratch_leak: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            batch_size: 64,
            mode: ServiceMode::Deterministic { seed: 0 },
            inject_scratch_leak: false,
        }
    }
}

/// A job that made it past admission.
#[derive(Debug, Clone)]
struct AdmittedJob {
    job: u64,
    submitted_at: u64,
    spec: JobSpec,
}

/// One drained job: the streamed record plus (for ok runs) the full
/// report the equivalence oracle diffs against solo executions.
#[derive(Debug, Clone)]
pub struct CompletedJob {
    /// The spec as admitted.
    pub spec: JobSpec,
    /// The compact streamed record.
    pub record: ServiceRecord,
    /// The full report (`None` for cancelled/failed jobs).
    pub report: Option<RunReport>,
    /// The exact start vector the job ran from (captured only for
    /// recorded jobs): with a healthy pool these are the canonical
    /// start's bits, and under the planted dirty-lease bug they are the
    /// leaked evidence the shrinker replays against.
    pub x0: Option<Vec<f64>>,
}

/// Everything a drain produces.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// The streamed document (`BENCH_service.json` shape).
    pub doc: ServiceDoc,
    /// Per-job details in completion order (cancelled jobs last).
    pub jobs: Vec<CompletedJob>,
}

/// The multi-tenant solver service.
pub struct Service {
    catalog: Catalog,
    cfg: ServiceConfig,
    queue: VecDeque<AdmittedJob>,
    cancelled: Vec<AdmittedJob>,
    pool: ScratchPool,
    clock: AtomicU64,
    next_job: u64,
    rejected: u64,
}

impl Service {
    /// A service over a freshly built [`Catalog`].
    pub fn new(cfg: ServiceConfig) -> Self {
        let pool = ScratchPool::new();
        if cfg.inject_scratch_leak {
            pool.inject_dirty_leases(true);
        }
        Self {
            catalog: Catalog::new(),
            cfg,
            queue: VecDeque::new(),
            cancelled: Vec::new(),
            pool,
            clock: AtomicU64::new(0),
            next_job: 0,
            rejected: 0,
        }
    }

    /// The shared problem catalog (solo runs for the oracle use the
    /// same instances).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The workspace pool (stats are interesting in tests).
    pub fn pool(&self) -> &ScratchPool {
        &self.pool
    }

    /// Jobs currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Validates and admits a job, stamping its id and virtual
    /// admission tick. Backpressure: a full queue rejects.
    ///
    /// # Errors
    /// [`ServiceError::InvalidJob`] or [`ServiceError::QueueFull`]
    /// (both counted as rejections in the drained document).
    pub fn submit(&mut self, spec: JobSpec) -> Result<u64> {
        if let Err(e) = spec.validate(&self.catalog) {
            self.rejected += 1;
            return Err(e);
        }
        if self.queue.len() >= self.cfg.queue_capacity {
            self.rejected += 1;
            return Err(ServiceError::QueueFull {
                capacity: self.cfg.queue_capacity,
            });
        }
        let job = self.next_job;
        self.next_job += 1;
        let submitted_at = self.clock.fetch_add(1, Ordering::Relaxed);
        self.queue.push_back(AdmittedJob {
            job,
            submitted_at,
            spec,
        });
        Ok(job)
    }

    /// Cancels every queued job of `tenant` (mid-run: jobs already
    /// draining are not interrupted — cancellation is an admission-queue
    /// operation). Returns how many jobs were cancelled.
    ///
    /// # Errors
    /// [`ServiceError::NothingQueued`] when the tenant has no queued
    /// jobs.
    pub fn cancel(&mut self, tenant: u64) -> Result<usize> {
        let before = self.queue.len();
        let (cancelled, kept): (Vec<_>, Vec<_>) =
            self.queue.drain(..).partition(|a| a.spec.tenant == tenant);
        self.queue = kept.into();
        if cancelled.is_empty() {
            debug_assert_eq!(before, self.queue.len());
            return Err(ServiceError::NothingQueued { tenant });
        }
        let count = cancelled.len();
        self.cancelled.extend(cancelled);
        Ok(count)
    }

    /// Executes everything admitted and streams the outcome. The
    /// service is reusable afterwards (queue empty, counters reset).
    pub fn drain(&mut self) -> ServiceOutcome {
        let start = Instant::now();
        let mut jobs: Vec<AdmittedJob> = self.queue.drain(..).collect();
        let tenants = {
            let mut ids: Vec<u64> = jobs
                .iter()
                .chain(self.cancelled.iter())
                .map(|a| a.spec.tenant)
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len() as u64
        };
        let workers = match self.cfg.mode {
            ServiceMode::Deterministic { seed } => {
                shuffle(&mut jobs, seed);
                1
            }
            ServiceMode::FreeRunning { workers } => workers.max(1),
        };

        let mut done: Vec<CompletedJob> = match self.cfg.mode {
            ServiceMode::Deterministic { .. } => jobs
                .into_iter()
                .map(|a| run_one(&self.catalog, &self.pool, &self.clock, a))
                .collect(),
            ServiceMode::FreeRunning { .. } => {
                let shared: Mutex<VecDeque<AdmittedJob>> = Mutex::new(jobs.into());
                let results: Mutex<Vec<CompletedJob>> = Mutex::new(Vec::new());
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        scope.spawn(|| loop {
                            // A job cannot unwind through either lock
                            // (`run_one` contains its panics), so a
                            // poisoned guard still holds valid data.
                            let next = shared
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .pop_front();
                            let Some(admitted) = next else { break };
                            let completed =
                                run_one(&self.catalog, &self.pool, &self.clock, admitted);
                            results
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .push(completed);
                            // Single-core CI: let siblings make progress.
                            std::thread::yield_now();
                        });
                    }
                });
                results.into_inner().unwrap_or_else(PoisonError::into_inner)
            }
        };

        // Cancelled jobs trail the stream with their own records.
        for admitted in self.cancelled.drain(..) {
            let completed_at = self.clock.fetch_add(1, Ordering::Relaxed);
            let tenant = admitted.spec.tenant;
            done.push(CompletedJob {
                record: ServiceRecord {
                    tenant,
                    job: admitted.job,
                    problem: admitted.spec.problem.id().into(),
                    backend: admitted.spec.backend.id().into(),
                    status: "cancelled".into(),
                    note: format!("job cancelled: tenant {tenant} cancelled before execution"),
                    seed: admitted.spec.seed,
                    steps: 0,
                    final_residual: f64::NAN,
                    final_x_hash: 0,
                    stopped_early: false,
                    submitted_at: admitted.submitted_at,
                    completed_at,
                    wall_secs: 0.0,
                },
                spec: admitted.spec,
                report: None,
                x0: None,
            });
        }

        let doc = self.assemble_doc(&done, tenants, workers, start.elapsed().as_secs_f64());
        self.rejected = 0;
        ServiceOutcome { doc, jobs: done }
    }

    fn assemble_doc(
        &self,
        done: &[CompletedJob],
        tenants: u64,
        workers: usize,
        wall_secs: f64,
    ) -> ServiceDoc {
        let batch_size = self.cfg.batch_size.max(1);
        let batches: Vec<ServiceBatch> = done
            .chunks(batch_size)
            .enumerate()
            .map(|(seq, chunk)| ServiceBatch {
                seq: seq as u64,
                records: chunk.iter().map(|c| c.record.clone()).collect(),
            })
            .collect();
        let completed = done.iter().filter(|c| c.record.status == "ok").count() as u64;
        let failed = done.iter().filter(|c| c.record.status == "failed").count() as u64;
        let cancelled = done
            .iter()
            .filter(|c| c.record.status == "cancelled")
            .count() as u64;
        let mut latencies: Vec<f64> = done
            .iter()
            .filter(|c| c.record.status == "ok")
            .map(|c| c.record.wall_secs)
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let pct = |q: f64| -> f64 {
            if latencies.is_empty() {
                0.0
            } else {
                let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
                latencies[idx]
            }
        };
        ServiceDoc {
            schema_version: SCHEMA_VERSION,
            mode: match self.cfg.mode {
                ServiceMode::Deterministic { .. } => "deterministic".into(),
                ServiceMode::FreeRunning { .. } => "free-running".into(),
            },
            tenants,
            workers: workers as u64,
            queue_capacity: self.cfg.queue_capacity as u64,
            batch_size: batch_size as u64,
            completed,
            failed,
            rejected: self.rejected,
            cancelled,
            wall_secs,
            throughput: if wall_secs > 0.0 {
                completed as f64 / wall_secs
            } else {
                0.0
            },
            p50_latency_secs: pct(0.50),
            p95_latency_secs: pct(0.95),
            max_latency_secs: latencies.last().copied().unwrap_or(0.0),
            batches,
        }
    }
}

/// Seeded Fisher–Yates over the admitted jobs (the deterministic mode's
/// "seeded admission order").
fn shuffle(jobs: &mut [AdmittedJob], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E47_1CE0_5E55_1005);
    for i in (1..jobs.len()).rev() {
        let j = rng.random_range(0..=i);
        jobs.swap(i, j);
    }
}

/// Runs one admitted job on a pooled workspace:
/// `[x0 staging (n) | operator scratch]`. The staging half *is* the
/// job's start vector (clean leases are bitwise zero, matching the
/// catalog's canonical zero starts; non-zero starts are copied in), and
/// after the run the tenant's final iterate is re-verified through the
/// scratch half and left in staging — which is exactly the data the
/// planted dirty-lease bug would leak into the next tenant.
fn run_one(
    catalog: &Catalog,
    pool: &ScratchPool,
    clock: &AtomicU64,
    admitted: AdmittedJob,
) -> CompletedJob {
    let AdmittedJob {
        job,
        submitted_at,
        spec,
    } = admitted;
    let entry = catalog.get(spec.problem);
    let n = entry.n();
    let mut ws = pool.lease(n + entry.op.scratch_len());
    if !entry.zero_start() {
        ws[..n].copy_from_slice(&entry.x0);
    }
    let record_mode = if spec.record {
        RecordMode::Full
    } else {
        RecordMode::Off
    };
    let x0_used = spec.record.then(|| ws[..n].to_vec());
    let start = Instant::now();
    // A panicking job (an operator or engine bug) is that job's failure:
    // the closure only reads the staged start, so the workspace unwinds
    // intact and the lease below returns to the pool as usual.
    let run = AssertUnwindSafe(|| spec.execute(catalog, &ws[..n], record_mode));
    let result = catch_unwind(run).unwrap_or_else(|payload| {
        let message = match payload.downcast_ref::<&str>() {
            Some(s) => s.to_string(),
            None => match payload.downcast_ref::<String>() {
                Some(s) => s.clone(),
                None => "non-string panic payload".into(),
            },
        };
        Err(ServiceError::JobPanicked { message })
    });
    let wall_secs = start.elapsed().as_secs_f64();
    let completed_at = clock.fetch_add(1, Ordering::Relaxed);
    let base = ServiceRecord {
        tenant: spec.tenant,
        job,
        problem: spec.problem.id().into(),
        backend: spec.backend.id().into(),
        status: String::new(),
        note: String::new(),
        seed: spec.seed,
        steps: 0,
        final_residual: f64::NAN,
        final_x_hash: 0,
        stopped_early: false,
        submitted_at,
        completed_at,
        wall_secs,
    };
    match result {
        Ok(report) => {
            let report = report.with_ids(spec.tenant, job);
            // Deposit the final iterate in staging and re-verify the
            // residual through the pooled scratch half — an integrity
            // check on the backend's own figure, alloc-free for
            // operators with a real scratch path.
            let (stage, scratch) = ws.split_at_mut(n);
            stage.copy_from_slice(&report.final_x);
            let recheck = entry.op.residual_inf_with(stage, scratch);
            let verified = recheck.to_bits() == report.final_residual.to_bits();
            let record = ServiceRecord {
                status: if verified { "ok" } else { "failed" }.into(),
                note: if verified {
                    String::new()
                } else {
                    format!(
                        "final residual re-verification failed: backend {} vs recheck {}",
                        report.final_residual, recheck
                    )
                },
                steps: report.steps,
                final_residual: report.final_residual,
                final_x_hash: hash_f64s(&report.final_x),
                stopped_early: report.stopped_early,
                ..base
            };
            CompletedJob {
                spec,
                record,
                report: Some(report),
                x0: x0_used,
            }
        }
        Err(e) => CompletedJob {
            spec,
            record: ServiceRecord {
                status: "failed".into(),
                note: e.to_string(),
                wall_secs,
                ..base
            },
            report: None,
            x0: x0_used,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ProblemId;
    use crate::spec::{BackendSpec, DelaySpec, ScheduleSpec};
    use asynciter_runtime::ApplyPolicy;

    fn jacobi_spec(tenant: u64) -> JobSpec {
        JobSpec {
            tenant,
            seed: 100 + tenant,
            problem: ProblemId::Jacobi,
            backend: BackendSpec::Replay {
                schedule: ScheduleSpec::Chaotic {
                    k_min: 2,
                    k_max: 6,
                    b: 4,
                },
            },
            record: false,
        }
    }

    #[test]
    fn backpressure_rejects_with_the_pinned_message() {
        let mut svc = Service::new(ServiceConfig {
            queue_capacity: 2,
            ..ServiceConfig::default()
        });
        svc.submit(jacobi_spec(1)).unwrap();
        svc.submit(jacobi_spec(2)).unwrap();
        let err = svc.submit(jacobi_spec(3)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "queue full: capacity 2 reached, job rejected (backpressure)"
        );
        let out = svc.drain();
        assert_eq!(out.doc.rejected, 1);
        assert_eq!(out.doc.completed, 2);
    }

    #[test]
    fn invalid_specs_are_rejected_at_admission() {
        let mut svc = Service::new(ServiceConfig::default());
        let mut bad = jacobi_spec(1);
        bad.backend = BackendSpec::Flexible {
            m: 0,
            partial: true,
        };
        let err = svc.submit(bad).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid job spec: flexible m must be >= 1 (got 0)"
        );
        assert_eq!(svc.queued(), 0);
        assert_eq!(svc.drain().doc.rejected, 1);
    }

    #[test]
    fn cancellation_removes_only_the_tenants_jobs() {
        let mut svc = Service::new(ServiceConfig::default());
        svc.submit(jacobi_spec(1)).unwrap();
        svc.submit(jacobi_spec(2)).unwrap();
        svc.submit(jacobi_spec(1)).unwrap();
        assert_eq!(svc.cancel(1).unwrap(), 2);
        assert_eq!(
            svc.cancel(9).unwrap_err().to_string(),
            "nothing queued for tenant 9"
        );
        let out = svc.drain();
        assert_eq!(out.doc.cancelled, 2);
        assert_eq!(out.doc.completed, 1);
        let cancelled: Vec<_> = out
            .jobs
            .iter()
            .filter(|c| c.record.status == "cancelled")
            .collect();
        assert_eq!(cancelled.len(), 2);
        assert_eq!(
            cancelled[0].record.note,
            "job cancelled: tenant 1 cancelled before execution"
        );
        assert!(cancelled.iter().all(|c| c.report.is_none()));
    }

    #[test]
    fn deterministic_mode_is_reproducible_field_for_field() {
        let run = || {
            let mut svc = Service::new(ServiceConfig {
                batch_size: 3,
                mode: ServiceMode::Deterministic { seed: 42 },
                ..ServiceConfig::default()
            });
            for t in 0..8 {
                let mut spec = jacobi_spec(t);
                spec.problem = if t % 2 == 0 {
                    ProblemId::Jacobi
                } else {
                    ProblemId::Logistic
                };
                if t % 2 == 1 {
                    spec.backend = BackendSpec::Cluster {
                        workers: 4,
                        delay: DelaySpec::Jitter { lo: 1, hi: 3 },
                        hold_prob: 0.1,
                        drop_prob: 0.0,
                        policy: ApplyPolicy::AsReceived,
                    };
                }
                svc.submit(spec).unwrap();
            }
            svc.drain()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.doc.batches.len(), b.doc.batches.len());
        for (ba, bb) in a.doc.batches.iter().zip(&b.doc.batches) {
            for (ra, rb) in ba.records.iter().zip(&bb.records) {
                assert_eq!(ra.tenant, rb.tenant, "seeded order is stable");
                assert_eq!(ra.job, rb.job);
                assert_eq!(ra.steps, rb.steps);
                assert_eq!(ra.final_x_hash, rb.final_x_hash, "bitwise stable");
                assert_eq!(ra.submitted_at, rb.submitted_at, "virtual clock");
                assert_eq!(ra.completed_at, rb.completed_at, "virtual clock");
            }
        }
    }

    #[test]
    fn batches_chunk_in_completion_order() {
        let mut svc = Service::new(ServiceConfig {
            batch_size: 3,
            ..ServiceConfig::default()
        });
        for t in 0..7 {
            svc.submit(jacobi_spec(t)).unwrap();
        }
        let out = svc.drain();
        let sizes: Vec<usize> = out.doc.batches.iter().map(|b| b.records.len()).collect();
        assert_eq!(sizes, vec![3, 3, 1]);
        assert_eq!(
            out.doc.batches.iter().map(|b| b.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(out.doc.completed, 7);
        assert!(out.doc.throughput > 0.0);
        // Records across batches align with the jobs vector.
        let streamed: Vec<u64> = out.doc.records().map(|r| r.job).collect();
        let jobs: Vec<u64> = out.jobs.iter().map(|c| c.record.job).collect();
        assert_eq!(streamed, jobs);
    }

    #[test]
    fn free_running_mode_completes_every_job() {
        let mut svc = Service::new(ServiceConfig {
            mode: ServiceMode::FreeRunning { workers: 4 },
            ..ServiceConfig::default()
        });
        for t in 0..12 {
            svc.submit(jacobi_spec(t)).unwrap();
        }
        let out = svc.drain();
        assert_eq!(out.doc.completed, 12);
        assert_eq!(out.doc.workers, 4);
        assert_eq!(out.doc.mode, "free-running");
        let mut tenants: Vec<u64> = out.jobs.iter().map(|c| c.record.tenant).collect();
        tenants.sort_unstable();
        assert_eq!(tenants, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_fails_alone_in_both_modes() {
        for mode in [
            ServiceMode::Deterministic { seed: 5 },
            ServiceMode::FreeRunning { workers: 2 },
        ] {
            let mut svc = Service::new(ServiceConfig {
                mode,
                ..ServiceConfig::default()
            });
            svc.catalog = Catalog::with_panicking_operator(ProblemId::Lasso);
            for t in 0..6 {
                let mut spec = jacobi_spec(t);
                if t == 3 {
                    spec.problem = ProblemId::Lasso;
                }
                svc.submit(spec).unwrap();
            }
            let out = svc.drain();
            assert_eq!((out.doc.completed, out.doc.failed), (5, 1), "{mode:?}");
            for job in &out.jobs {
                if job.spec.tenant == 3 {
                    assert_eq!(job.record.status, "failed");
                    assert_eq!(job.record.note, "job panicked: planted operator bug");
                    assert!(job.report.is_none());
                } else {
                    // Every other tenant is bit-identical to its solo run.
                    let solo = crate::verify::solo_report(&svc.catalog, &job.spec, RecordMode::Off);
                    let report = job.report.as_ref().expect("ok job carries its report");
                    let diff = crate::verify::diff_reports(
                        &job.spec,
                        job.record.job,
                        report,
                        &solo.unwrap(),
                    );
                    assert!(diff.is_empty(), "{mode:?}: {diff:?}");
                }
            }
            // Every lease, the failed job's included, is back in the pool.
            assert_eq!(svc.pool().idle() as u64, svc.pool().stats().created);
        }
    }

    #[test]
    fn workspaces_recycle_across_tenants() {
        let mut svc = Service::new(ServiceConfig::default());
        for t in 0..16 {
            svc.submit(jacobi_spec(t)).unwrap();
        }
        let out = svc.drain();
        assert_eq!(out.doc.completed, 16);
        let stats = svc.pool().stats();
        assert_eq!(stats.leases, 16);
        assert_eq!(stats.created, 1, "one workspace serves all 16 tenants");
        assert_eq!(stats.reused, 15);
    }
}
