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
use asynciter_report::cli::Arity::{Int, Switch, Value};
use asynciter_report::cli::{
    exit_code, read_baseline, shrunk_to, write_artefact, Flag, Matches, Spec,
};
use asynciter_report::stream::{render_hash, ServiceDoc, ServiceRecord};
use asynciter_report::TextTable;
use asynciter_service::{check_outcome, Service, ServiceConfig, ServiceMode};
use std::collections::BTreeMap;
use std::path::Path;

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

/// The service CLI's flag table (README § "Command-line contract").
#[rustfmt::skip] // one flag per row
pub const SERVICE: Spec<'static> = Spec {
    tool: "service",
    about: "Admits a seeded multi-tenant workload (every catalog problem x every\n\
            deterministic backend), drains it through the service layer and writes the\n\
            machine-readable BENCH_service.json.",
    flags: &[
        Flag("--tenants", Int("N"), "tenants to admit (default 64)"),
        Flag("--soak", Switch, "admit 1000 tenants"),
        Flag("--seed", Int("N"), "workload and admission-order seed (default 2022)"),
        Flag("--mode", Value("det|free"), "deterministic (default) or free-running drain"),
        Flag("--workers", Int("N"), "free-running worker threads (default 3)"),
        Flag("--batch", Int("N"), "records per streamed batch (default 64)"),
        Flag("--queue", Int("N"), "queue capacity (default max(tenants, 16))"),
        Flag("--record", Switch, "record every job's trace"),
        Flag("--verify", Switch, "re-run every job solo and diff bitwise; with --record, shrink divergences"),
        Flag("--inject-scratch-leak", Switch, "negative control: plant the dirty-lease bug"),
        Flag("--out", Value("PATH"), "artefact path (default BENCH_service.json)"),
        Flag("--check", Value("BASELINE"), "compare deterministic fields against a baseline; exit 1 on a regression"),
        Flag("--fault-dir", Value("DIR"), "where shrunk divergences go (default results/service)"),
    ],
};

/// The service CLI: admits the workload, drains, writes the artefact,
/// optionally verifies isolation and checks a baseline. Returns the
/// process exit code: 0 on success, 1 on divergences/regressions/failed
/// jobs, 2 on usage/IO/parse errors.
pub fn service_main(args: &[String]) -> i32 {
    SERVICE.run(args, run_service)
}

fn run_service(m: &Matches<'_>) -> Result<i32, String> {
    let tenants = match m.last_of(&["--tenants", "--soak"]) {
        Some("--soak") => 1000,
        _ => m.int("--tenants").unwrap_or(64),
    };
    let seed = m.int("--seed").unwrap_or(2022);
    let mode = match m.value("--mode") {
        None | Some("det") => ServiceMode::Deterministic { seed },
        Some("free") => ServiceMode::FreeRunning {
            workers: m.int("--workers").unwrap_or(3) as usize,
        },
        Some(other) => return Err(format!("--mode must be det|free (got `{other}`)")),
    };
    let inject_leak = m.has("--inject-scratch-leak");
    let out = Path::new(m.value("--out").unwrap_or("BENCH_service.json"));
    let mut svc = Service::new(ServiceConfig {
        queue_capacity: m.int("--queue").unwrap_or(tenants.max(16)) as usize,
        batch_size: m.int("--batch").unwrap_or(64) as usize,
        mode,
        inject_scratch_leak: inject_leak,
    });
    println!(
        "service: admitting {tenants} tenants (seed {seed}, {} mode{})",
        match mode {
            ServiceMode::FreeRunning { .. } => "free-running",
            ServiceMode::Deterministic { .. } => "deterministic",
        },
        if inject_leak {
            ", scratch leak INJECTED"
        } else {
            ""
        },
    );
    for spec in tenant_plan(tenants, seed, m.has("--record")) {
        if let Err(e) = svc.submit(spec) {
            // Backpressure and validation refusals are part of the
            // benchmark surface: counted in the doc, not fatal.
            eprintln!("service: {e}");
        }
    }
    let outcome = svc.drain();
    let doc = &outcome.doc;

    let mut table = TextTable::new(&["metric", "value"]);
    let ms = |secs: f64| format!("{:.2}ms", secs * 1e3);
    for (metric, value) in [
        ("completed", doc.completed.to_string()),
        ("failed", doc.failed.to_string()),
        ("rejected", doc.rejected.to_string()),
        ("cancelled", doc.cancelled.to_string()),
        ("wall", format!("{:.3}s", doc.wall_secs)),
        ("throughput", format!("{:.1} jobs/s", doc.throughput)),
        ("p50 latency", ms(doc.p50_latency_secs)),
        ("p95 latency", ms(doc.p95_latency_secs)),
        ("max latency", ms(doc.max_latency_secs)),
    ] {
        table.row(&[metric.into(), value]);
    }
    println!("{}", table.render());

    write_artefact(out, &doc.render())?;
    println!(
        "service: {} records in {} batches -> {}",
        doc.records().count(),
        doc.batches.len(),
        out.display()
    );

    for r in doc.records().filter(|r| r.status == "failed") {
        eprintln!(
            "service: FAILED tenant {} job {}: {}",
            r.tenant, r.job, r.note
        );
    }
    let mut passed = doc.failed == 0;

    if m.has("--verify") {
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
            let first = divergences.first().map(|d| d.job);
            if let Some(job) = outcome
                .jobs
                .iter()
                .find(|c| Some(c.record.job) == first && c.spec.record)
            {
                let fault_dir = m.value("--fault-dir").unwrap_or("results/service");
                let out = Path::new(fault_dir).join("service-divergence.trace");
                match shrink_leak_trace(svc.catalog(), job, &out).map(shrunk_to(&out)) {
                    Ok(saved) => println!("service: {saved}"),
                    Err(e) => eprintln!("service: shrink failed: {e}"),
                }
            }
            eprintln!(
                "service: VERIFY FAIL — {} divergences across {} jobs",
                divergences.len(),
                doc.completed
            );
            passed = false;
        }
    }

    if let Some(path) = m.value("--check").map(Path::new) {
        let baseline = read_baseline(path, ServiceDoc::parse)?;
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
            passed = false;
        }
    }
    Ok(exit_code(passed))
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
}
