//! The multi-tenant service benchmark CLI: admit a seeded tenant
//! workload, drain it through the service layer, write the
//! machine-readable `BENCH_service.json`, and — in `--check` mode —
//! compare against a committed baseline.
//!
//! Like the gate's, the comparator is deterministic-only: everything
//! the service layer computes deterministically (per-tenant statuses,
//! step counts, residual bits, final-iterate hashes, completion counts)
//! is compared strictly, while wall-clock metrics (total wall,
//! throughput, latency percentiles) are recorded but never gated —
//! `benchmark/` is the timing yardstick. Because per-tenant payloads
//! are mode-independent (the isolation contract), a deterministic-mode
//! baseline also gates free-running runs: only completion *order* and
//! timing may differ.
//!
//! `--verify` runs the tenant-equivalence oracle over the drained
//! outcome (every job re-run solo, diffed bitwise); with `--record`,
//! any divergence is shrunk to a minimal replayable trace in
//! `--fault-dir`. `--inject-scratch-leak` plants the dirty-lease
//! scratch-pool bug, so `--verify` doubles as the CLI's negative
//! control: the run must exit 1 with the leak named.

use asynciter_conformance::service::{shrink_leak_trace, tenant_plan};
use asynciter_report::stream::{render_hash, ServiceDoc, ServiceRecord};
use asynciter_report::TextTable;
use asynciter_service::{check_outcome, Service, ServiceConfig, ServiceMode};
use std::collections::BTreeMap;
use std::path::PathBuf;

// ---------------------------------------------------------------------------
// The comparator
// ---------------------------------------------------------------------------

/// Outcome of a baseline comparison: every failed check, rendered.
#[derive(Debug, Clone)]
pub struct ServiceCheckReport {
    /// One message per failed check (empty = pass).
    pub failures: Vec<String>,
    /// Records compared (baseline ∪ current, keyed by tenant/job).
    pub records_compared: usize,
}

impl ServiceCheckReport {
    /// True when every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn record_key(r: &ServiceRecord) -> (u64, u64) {
    (r.tenant, r.job)
}

/// Compares a fresh [`ServiceDoc`] against a committed baseline.
///
/// Strict (bitwise / exact): tenant count, completed/failed/rejected/
/// cancelled totals, and — per `(tenant, job)` record — status, steps,
/// `stopped_early`, residual bits and the final-iterate hash. The
/// execution mode is *not* compared: per-tenant payloads are
/// mode-independent by the isolation contract, so a deterministic
/// baseline legitimately gates a free-running run. Timing metrics are
/// not compared at all.
#[must_use]
pub fn check_service_doc(base: &ServiceDoc, cur: &ServiceDoc) -> ServiceCheckReport {
    let mut failures = Vec::new();
    let mut fail = |msg: String| failures.push(msg);
    for (name, b, c) in [
        ("tenants", base.tenants, cur.tenants),
        ("completed", base.completed, cur.completed),
        ("failed", base.failed, cur.failed),
        ("rejected", base.rejected, cur.rejected),
        ("cancelled", base.cancelled, cur.cancelled),
    ] {
        if b != c {
            fail(format!("{name}: baseline {b} vs current {c}"));
        }
    }
    let base_records: BTreeMap<(u64, u64), &ServiceRecord> =
        base.records().map(|r| (record_key(r), r)).collect();
    let cur_records: BTreeMap<(u64, u64), &ServiceRecord> =
        cur.records().map(|r| (record_key(r), r)).collect();
    for (key, b) in &base_records {
        let Some(c) = cur_records.get(key) else {
            fail(format!(
                "tenant {} job {}: record missing from current run",
                key.0, key.1
            ));
            continue;
        };
        let mut field = |name: &str, bv: String, cv: String| {
            if bv != cv {
                fail(format!(
                    "tenant {} job {}: {name} baseline {bv} vs current {cv}",
                    key.0, key.1
                ));
            }
        };
        field("status", b.status.clone(), c.status.clone());
        field("steps", b.steps.to_string(), c.steps.to_string());
        field(
            "stopped_early",
            b.stopped_early.to_string(),
            c.stopped_early.to_string(),
        );
        field(
            "final_residual",
            format!("{:016x}", b.final_residual.to_bits()),
            format!("{:016x}", c.final_residual.to_bits()),
        );
        field(
            "final_x_hash",
            render_hash(b.final_x_hash),
            render_hash(c.final_x_hash),
        );
    }
    for key in cur_records.keys() {
        if !base_records.contains_key(key) {
            fail(format!(
                "tenant {} job {}: record not present in baseline",
                key.0, key.1
            ));
        }
    }
    ServiceCheckReport {
        failures,
        records_compared: base_records.len().max(cur_records.len()),
    }
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

const USAGE: &str = "usage: service [--tenants N | --soak] [--seed N] [--mode det|free] \
[--workers N] [--batch N] [--queue N] [--record] [--verify] [--inject-scratch-leak] \
[--out PATH] [--check BASELINE] [--fault-dir DIR]

Admits a seeded multi-tenant workload (every catalog problem x every
deterministic backend), drains it through the service layer, writes the
machine-readable BENCH_service.json, and optionally:
  --verify   re-runs every job solo and diffs bitwise (tenant isolation);
             with --record, divergences are shrunk into --fault-dir
  --check    compares against a committed baseline, exiting 1 on any
             regression (deterministic fields strict, timing not compared)";

struct ServiceArgs {
    tenants: u64,
    seed: u64,
    free: bool,
    workers: usize,
    batch: usize,
    queue: Option<usize>,
    record: bool,
    verify: bool,
    inject_leak: bool,
    out: PathBuf,
    check: Option<PathBuf>,
    fault_dir: PathBuf,
}

fn parse_service_args(args: &[String]) -> Result<ServiceArgs, String> {
    let mut parsed = ServiceArgs {
        tenants: 64,
        seed: 2022,
        free: false,
        workers: 3,
        batch: 64,
        queue: None,
        record: false,
        verify: false,
        inject_leak: false,
        out: PathBuf::from("BENCH_service.json"),
        check: None,
        fault_dir: PathBuf::from("results/service"),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "--tenants" => {
                parsed.tenants = val("--tenants")?
                    .parse()
                    .map_err(|_| "--tenants requires an integer".to_string())?;
            }
            "--soak" => parsed.tenants = 1000,
            "--seed" => {
                parsed.seed = val("--seed")?
                    .parse()
                    .map_err(|_| "--seed requires an integer".to_string())?;
            }
            "--mode" => {
                parsed.free = match val("--mode")? {
                    "det" => false,
                    "free" => true,
                    other => return Err(format!("--mode must be det|free (got `{other}`)")),
                };
            }
            "--workers" => {
                parsed.workers = val("--workers")?
                    .parse()
                    .map_err(|_| "--workers requires an integer".to_string())?;
            }
            "--batch" => {
                parsed.batch = val("--batch")?
                    .parse()
                    .map_err(|_| "--batch requires an integer".to_string())?;
            }
            "--queue" => {
                parsed.queue = Some(
                    val("--queue")?
                        .parse()
                        .map_err(|_| "--queue requires an integer".to_string())?,
                );
            }
            "--record" => parsed.record = true,
            "--verify" => parsed.verify = true,
            "--inject-scratch-leak" => parsed.inject_leak = true,
            "--out" => parsed.out = PathBuf::from(val("--out")?),
            "--check" => parsed.check = Some(PathBuf::from(val("--check")?)),
            "--fault-dir" => parsed.fault_dir = PathBuf::from(val("--fault-dir")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// The service CLI: admits the workload, drains, writes the artefact,
/// optionally verifies isolation and checks a baseline. Returns the
/// process exit code: 0 on success, 1 on divergences/regressions/failed
/// jobs, 2 on usage/IO/parse errors.
pub fn service_main(args: &[String]) -> i32 {
    let parsed = match parse_service_args(args) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("service: {msg}\n\n{USAGE}");
            return 2;
        }
    };
    let mode = if parsed.free {
        ServiceMode::FreeRunning {
            workers: parsed.workers,
        }
    } else {
        ServiceMode::Deterministic { seed: parsed.seed }
    };
    let mut svc = Service::new(ServiceConfig {
        queue_capacity: parsed
            .queue
            .unwrap_or_else(|| (parsed.tenants as usize).max(16)),
        batch_size: parsed.batch,
        mode,
        inject_scratch_leak: parsed.inject_leak,
    });
    println!(
        "service: admitting {} tenants (seed {}, {} mode{})",
        parsed.tenants,
        parsed.seed,
        if parsed.free {
            "free-running"
        } else {
            "deterministic"
        },
        if parsed.inject_leak {
            ", scratch leak INJECTED"
        } else {
            ""
        },
    );
    for spec in tenant_plan(parsed.tenants, parsed.seed, parsed.record) {
        if let Err(e) = svc.submit(spec) {
            // Backpressure and validation refusals are part of the
            // benchmark surface: counted in the doc, not fatal.
            eprintln!("service: {e}");
        }
    }
    let outcome = svc.drain();
    let doc = &outcome.doc;

    let mut table = TextTable::new(&["metric", "value"]);
    table.row(&["completed".into(), doc.completed.to_string()]);
    table.row(&["failed".into(), doc.failed.to_string()]);
    table.row(&["rejected".into(), doc.rejected.to_string()]);
    table.row(&["cancelled".into(), doc.cancelled.to_string()]);
    table.row(&["wall".into(), format!("{:.3}s", doc.wall_secs)]);
    table.row(&["throughput".into(), format!("{:.1} jobs/s", doc.throughput)]);
    table.row(&[
        "p50 latency".into(),
        format!("{:.2}ms", doc.p50_latency_secs * 1e3),
    ]);
    table.row(&[
        "p95 latency".into(),
        format!("{:.2}ms", doc.p95_latency_secs * 1e3),
    ]);
    table.row(&[
        "max latency".into(),
        format!("{:.2}ms", doc.max_latency_secs * 1e3),
    ]);
    println!("{}", table.render());

    if let Some(parent) = parsed.out.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("service: cannot create {}: {e}", parent.display());
                return 2;
            }
        }
    }
    if let Err(e) = std::fs::write(&parsed.out, doc.render()) {
        eprintln!("service: cannot write {}: {e}", parsed.out.display());
        return 2;
    }
    println!(
        "service: {} records in {} batches -> {}",
        doc.records().count(),
        doc.batches.len(),
        parsed.out.display()
    );

    let mut exit = if doc.failed > 0 {
        for r in doc.records().filter(|r| r.status == "failed") {
            eprintln!(
                "service: FAILED tenant {} job {}: {}",
                r.tenant, r.job, r.note
            );
        }
        1
    } else {
        0
    };

    if parsed.verify {
        let divergences = check_outcome(svc.catalog(), &outcome);
        if divergences.is_empty() {
            println!(
                "service: VERIFY PASS — {} jobs bit-identical to their solo runs",
                doc.completed
            );
        } else {
            for d in &divergences {
                eprintln!("service: ISOLATION VIOLATION {d}");
            }
            // A recorded diverging job can be shrunk to a minimal
            // replayable exhibit of the leaked start vector.
            if let Some(job) = outcome
                .jobs
                .iter()
                .find(|c| divergences.first().is_some_and(|d| c.record.job == d.job))
            {
                if job.spec.record {
                    if std::fs::create_dir_all(&parsed.fault_dir).is_err() {
                        eprintln!("service: cannot create {}", parsed.fault_dir.display());
                    } else {
                        let out = parsed.fault_dir.join("service-divergence.trace");
                        match shrink_leak_trace(svc.catalog(), job, &out) {
                            Ok((orig, shrunk)) => println!(
                                "service: divergence shrunk {orig} -> {shrunk} steps -> {}",
                                out.display()
                            ),
                            Err(e) => eprintln!("service: shrink failed: {e}"),
                        }
                    }
                }
            }
            eprintln!(
                "service: VERIFY FAIL — {} divergences across {} jobs",
                divergences.len(),
                doc.completed
            );
            exit = 1;
        }
    }

    if let Some(path) = &parsed.check {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("service: cannot read baseline {}: {e}", path.display());
                return 2;
            }
        };
        let baseline = match ServiceDoc::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("service: corrupt baseline {}: {e}", path.display());
                return 2;
            }
        };
        let report = check_service_doc(&baseline, doc);
        if report.passed() {
            println!(
                "service: CHECK PASS — {} records match {}",
                report.records_compared,
                path.display()
            );
        } else {
            for f in &report.failures {
                eprintln!("service: REGRESSION {f}");
            }
            eprintln!(
                "service: CHECK FAIL — {} regressions vs {}",
                report.failures.len(),
                path.display()
            );
            exit = 1;
        }
    }
    exit
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_report::stream::ServiceBatch;

    fn record(tenant: u64, job: u64) -> ServiceRecord {
        ServiceRecord {
            tenant,
            job,
            problem: "jacobi".into(),
            backend: "replay".into(),
            status: "ok".into(),
            note: String::new(),
            seed: 7,
            steps: 96,
            final_residual: 4.5e-9,
            final_x_hash: 0xDEAD_BEEF_0123_4567,
            stopped_early: true,
            submitted_at: tenant,
            completed_at: tenant + 1,
            wall_secs: 0.001,
        }
    }

    fn doc(records: Vec<ServiceRecord>) -> ServiceDoc {
        let completed = records.iter().filter(|r| r.status == "ok").count() as u64;
        ServiceDoc {
            schema_version: 1,
            mode: "deterministic".into(),
            tenants: records.len() as u64,
            workers: 1,
            queue_capacity: 64,
            batch_size: 64,
            completed,
            failed: 0,
            rejected: 0,
            cancelled: 0,
            wall_secs: 0.01,
            throughput: 100.0,
            p50_latency_secs: 0.001,
            p95_latency_secs: 0.002,
            max_latency_secs: 0.003,
            batches: vec![ServiceBatch { seq: 0, records }],
        }
    }

    #[test]
    fn identical_docs_pass() {
        let d = doc(vec![record(0, 0), record(1, 1)]);
        let report = check_service_doc(&d, &d.clone());
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.records_compared, 2);
    }

    #[test]
    fn deterministic_fields_are_strict() {
        let base = doc(vec![record(0, 0)]);
        for mutate in [
            (|r: &mut ServiceRecord| r.steps += 1) as fn(&mut ServiceRecord),
            |r| r.final_x_hash ^= 1,
            |r| r.final_residual += 1e-18,
            |r| r.status = "failed".into(),
            |r| r.stopped_early = false,
        ] {
            let mut r = record(0, 0);
            mutate(&mut r);
            let cur = doc(vec![r]);
            let report = check_service_doc(&base, &cur);
            assert!(!report.passed(), "mutation not caught");
        }
    }

    #[test]
    fn free_running_completion_order_is_not_a_regression() {
        // Same records, different batch order and mode: per-tenant
        // payloads match, so the check passes.
        let base = doc(vec![record(0, 0), record(1, 1)]);
        let mut cur = doc(vec![record(1, 1), record(0, 0)]);
        cur.mode = "free-running".into();
        cur.workers = 4;
        let report = check_service_doc(&base, &cur);
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn missing_and_extra_records_fail() {
        let base = doc(vec![record(0, 0), record(1, 1)]);
        let cur = doc(vec![record(0, 0), record(2, 2)]);
        let report = check_service_doc(&base, &cur);
        assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
    }

    #[test]
    fn count_mismatches_fail() {
        let base = doc(vec![record(0, 0)]);
        let mut cur = doc(vec![record(0, 0)]);
        cur.rejected = 3;
        let report = check_service_doc(&base, &cur);
        assert!(!report.passed());
        assert!(
            report.failures[0].contains("rejected"),
            "{:?}",
            report.failures
        );
    }

    #[test]
    fn timing_is_recorded_but_never_compared() {
        let mut base = doc(vec![record(0, 0)]);
        base.wall_secs = 1.0;
        base.throughput = 1000.0;
        let mut cur = doc(vec![record(0, 0)]);
        cur.wall_secs = 900.0;
        cur.throughput = 1.0;
        cur.p95_latency_secs = 60.0;
        let report = check_service_doc(&base, &cur);
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn usage_errors_exit_2() {
        assert_eq!(service_main(&["--bogus".to_string()]), 2);
        assert_eq!(service_main(&["--tenants".to_string()]), 2);
        assert_eq!(service_main(&["--mode".to_string(), "warp".to_string()]), 2);
    }
}
