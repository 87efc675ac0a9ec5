//! Tier-1 multi-tenant service suite: the differential
//! tenant-equivalence tests, the scratch-leak negative control and its
//! committed fixture lock, backpressure/cancellation/malformed-spec
//! error paths with pinned messages, CLI exit codes, and the committed
//! baseline lock.
//!
//! The load-bearing property: **tenant isolation is bit-identity**.
//! Every per-tenant report out of a service run — whatever the
//! admission order, pooling, or worker interleaving — must be bitwise
//! equal to a solo run of the same spec. The sweeps here prove it
//! differentially (every job re-run solo, diffed bit for bit) for
//! N ∈ {2, 8, 64} in both modes and for a 1000-tenant soak; the planted
//! dirty-lease bug proves the oracle has teeth.

use asynciter::conformance::corpus::load_trace;
use asynciter::conformance::service::{inject_scratch_leak_demo, tenant_equivalence, tenant_plan};
use asynciter::service::{
    BackendSpec, JobSpec, ProblemId, ScheduleSpec, Service, ServiceConfig, ServiceMode,
};
use asynciter_bench::service_cli::service_main;
use std::path::{Path, PathBuf};

const CORPUS_DIR: &str = "tests/corpus";

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "asynciter-service-tier1-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------------
// The differential tenant-equivalence property
// ---------------------------------------------------------------------------

#[test]
fn tenant_isolation_is_bit_identical_for_2_8_and_64_tenants() {
    for tenants in [2u64, 8, 64] {
        let sweep = tenant_equivalence(
            tenants,
            0x1502,
            ServiceMode::Deterministic { seed: 0xD0 },
            false,
        )
        .unwrap();
        assert_eq!(sweep.outcome.doc.completed, tenants, "{tenants} tenants");
        assert_eq!(sweep.outcome.doc.failed, 0);
        assert!(
            sweep.divergences.is_empty(),
            "{tenants} tenants: {:?}",
            sweep.divergences
        );
    }
}

#[test]
fn free_running_workers_uphold_the_same_contract() {
    let sweep =
        tenant_equivalence(8, 0x1502, ServiceMode::FreeRunning { workers: 3 }, false).unwrap();
    assert_eq!(sweep.outcome.doc.completed, 8);
    assert!(sweep.divergences.is_empty(), "{:?}", sweep.divergences);
}

#[test]
fn thousand_tenant_soak_streams_batches_with_zero_divergences() {
    // The full verified soak (every job re-run solo) runs in release in
    // the nightly workflow; the tier-1 soak still drains 1000 genuinely
    // concurrent tenant sessions and verifies isolation differentially
    // against a deterministic drain of the same plan — every payload
    // field of every record, bit for bit.
    let free = tenant_equivalence(1000, 0x50AC, ServiceMode::FreeRunning { workers: 4 }, false)
        .unwrap()
        .outcome;
    assert_eq!(free.doc.completed, 1000);
    assert_eq!(free.doc.failed, 0);
    assert_eq!(free.doc.batches.len(), 16, "1000 records in 64-job batches");
    assert!(free.doc.throughput > 0.0);

    let mut svc = Service::new(ServiceConfig {
        queue_capacity: 1000,
        mode: ServiceMode::Deterministic { seed: 7 },
        ..ServiceConfig::default()
    });
    for spec in tenant_plan(1000, 0x50AC, false) {
        svc.submit(spec).unwrap();
    }
    let det = svc.drain();
    let key = |c: &asynciter::service::CompletedJob| (c.record.tenant, c.record.job);
    let mut free_jobs: Vec<_> = free.jobs.iter().collect();
    free_jobs.sort_by_key(|c| key(c));
    let mut det_jobs: Vec<_> = det.jobs.iter().collect();
    det_jobs.sort_by_key(|c| key(c));
    assert_eq!(free_jobs.len(), det_jobs.len());
    for (f, d) in free_jobs.iter().zip(&det_jobs) {
        assert_eq!(key(f), key(d));
        assert_eq!(f.record.status, d.record.status);
        assert_eq!(f.record.steps, d.record.steps);
        assert_eq!(
            f.record.final_x_hash, d.record.final_x_hash,
            "tenant {}",
            f.record.tenant
        );
        assert_eq!(
            f.record.final_residual.to_bits(),
            d.record.final_residual.to_bits()
        );
        assert_eq!(f.record.stopped_early, d.record.stopped_early);
    }
}

// ---------------------------------------------------------------------------
// The negative control and its committed fixture
// ---------------------------------------------------------------------------

#[test]
fn planted_scratch_leak_is_caught_and_fixture_reproduces_byte_for_byte() {
    // 0xA5A5 is the conformance CLI's default seed: the committed
    // fixture is exactly `conformance --inject-scratch-leak`'s output.
    let dir = tmp_dir("leak-fixture");
    let fresh = dir.join("service-scratch-leak.trace");
    let (orig, shrunk) = inject_scratch_leak_demo(0xA5A5, &fresh).unwrap();
    assert!(shrunk >= 1 && shrunk <= orig);
    let committed = Path::new(CORPUS_DIR).join("service-scratch-leak.trace");
    assert_eq!(
        std::fs::read_to_string(&committed).unwrap(),
        std::fs::read_to_string(&fresh).unwrap(),
        "demo output drifted from the committed fixture"
    );
    // And the fixture is a well-formed, replayable trace.
    let trace = load_trace(&committed).unwrap();
    assert_eq!(trace.len() as u64, shrunk);
    assert_eq!(trace.n(), 16, "jacobi dimension");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Backpressure, cancellation, malformed specs: pinned messages
// ---------------------------------------------------------------------------

fn jacobi_spec(tenant: u64) -> JobSpec {
    JobSpec {
        tenant,
        seed: tenant,
        problem: ProblemId::Jacobi,
        backend: BackendSpec::Replay {
            schedule: ScheduleSpec::Sync,
        },
        record: false,
    }
}

#[test]
fn backpressure_cancellation_and_malformed_specs_pin_their_messages() {
    let mut svc = Service::new(ServiceConfig {
        queue_capacity: 2,
        ..ServiceConfig::default()
    });
    svc.submit(jacobi_spec(0)).unwrap();
    svc.submit(jacobi_spec(1)).unwrap();
    let err = svc.submit(jacobi_spec(2)).unwrap_err();
    assert_eq!(
        err.to_string(),
        "queue full: capacity 2 reached, job rejected (backpressure)"
    );

    let err = svc.cancel(9).unwrap_err();
    assert_eq!(err.to_string(), "nothing queued for tenant 9");
    assert_eq!(svc.cancel(1).unwrap(), 1);

    let mut bad = jacobi_spec(3);
    bad.backend = BackendSpec::Replay {
        schedule: ScheduleSpec::Chaotic {
            k_min: 0,
            k_max: 4,
            b: 2,
        },
    };
    let err = svc.submit(bad).unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid job spec: chaotic schedule needs 1 <= k_min <= k_max <= n=16 \
         (got k_min 0, k_max 4)"
    );

    let outcome = svc.drain();
    assert_eq!(outcome.doc.completed, 1);
    assert_eq!(outcome.doc.cancelled, 1);
    assert_eq!(outcome.doc.rejected, 2, "queue-full + invalid spec");
    let cancelled = outcome
        .jobs
        .iter()
        .find(|c| c.record.status == "cancelled")
        .expect("cancelled record streams");
    assert_eq!(
        cancelled.record.note,
        "job cancelled: tenant 1 cancelled before execution"
    );
}

// ---------------------------------------------------------------------------
// CLI exit codes and the committed baseline lock
// ---------------------------------------------------------------------------

#[test]
fn service_cli_matches_the_committed_baseline_with_pinned_exit_codes() {
    let dir = tmp_dir("cli");
    let out = dir.join("BENCH_service.json");
    // The committed baseline was produced by this exact invocation (in
    // release mode); deterministic fields must match bit for bit.
    // Timing is recorded, never compared, so a debug-mode run passes.
    let code = service_main(&[
        "--tenants".into(),
        "64".into(),
        "--out".into(),
        out.display().to_string(),
        "--check".into(),
        "baselines/service-baseline.json".into(),
    ]);
    assert_eq!(code, 0, "baseline drifted");
    // The artefact is machine-readable and carries every record.
    let doc = asynciter::report::stream::ServiceDoc::parse(&std::fs::read_to_string(&out).unwrap())
        .unwrap();
    assert_eq!(doc.records().count(), 64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn service_cli_exit_codes_are_pinned() {
    let dir = tmp_dir("cli-codes");
    // Usage errors: 2.
    assert_eq!(service_main(&["--bogus".into()]), 2);
    // Unreadable baseline: 2.
    assert_eq!(
        service_main(&[
            "--tenants".into(),
            "2".into(),
            "--out".into(),
            dir.join("a.json").display().to_string(),
            "--check".into(),
            dir.join("missing.json").display().to_string(),
        ]),
        2
    );
    // The planted leak under --verify: 1, with the shrunk exhibit.
    assert_eq!(
        service_main(&[
            "--tenants".into(),
            "6".into(),
            "--inject-scratch-leak".into(),
            "--record".into(),
            "--verify".into(),
            "--out".into(),
            dir.join("b.json").display().to_string(),
            "--fault-dir".into(),
            dir.display().to_string(),
        ]),
        1
    );
    let exhibit = dir.join("service-divergence.trace");
    let trace = load_trace(&exhibit).expect("divergence shrunk and persisted");
    assert!(!trace.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
