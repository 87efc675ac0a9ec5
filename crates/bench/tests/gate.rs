//! End-to-end tests of the benchmark gate: matrix coverage, artefact
//! validity, baseline self-check, and the corrupted-baseline failure
//! path the CI job relies on.
//!
//! Comparator *thresholds* are unit-tested in `gate.rs` with injected
//! timings; these tests exercise the real matrix, so they assert only
//! host-independent facts (coverage, determinism-backed metrics, exit
//! codes) and never gate on live clocks.

use asynciter_bench::gate::{check_matrix, coverage, gate_main, BackendId, Verdict, TARGET};
use asynciter_report::json::GateDoc;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("asynciter_gate_{}_{name}", std::process::id()))
}

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// One end-to-end journey (a single test so the ~quick-matrix cost is
/// paid a bounded number of times): a corrupted baseline fails the
/// check, a fresh artefact is valid and fully covered, and checking a
/// run against its own output passes.
#[test]
fn gate_quick_end_to_end() {
    let corrupt = tmp_path("corrupt.json");
    let out_a = tmp_path("a.json");
    let out_b = tmp_path("b.json");

    // --- A deliberately corrupted baseline must fail the check with a
    // non-zero exit code.
    std::fs::write(&corrupt, "{{{ this is not json").unwrap();
    let code = gate_main(&args(&[
        "--quick",
        "--out",
        out_a.to_str().unwrap(),
        "--check",
        corrupt.to_str().unwrap(),
    ]));
    assert_ne!(code, 0, "corrupted baseline must fail the gate");

    // A schema-version bump is rejected by the same parse the CLI uses.
    let text = std::fs::read_to_string(&out_a).unwrap();
    let stale = text.replacen("\"schema_version\": 1", "\"schema_version\": 999", 1);
    assert_ne!(stale, text, "replacement must hit the schema field");
    GateDoc::parse(&stale).expect_err("stale schema version must be rejected");

    // --- The artefact written alongside the failed check is a valid,
    // fully-covered matrix.
    let doc = GateDoc::parse(&text).expect("BENCH_gate.json parses");
    assert_eq!(doc.mode, "quick");
    assert_eq!(
        doc.records.len(),
        7 * 6 * 5,
        "full backend x problem x delay matrix"
    );
    assert!(
        doc.records.iter().all(|r| r.is_ok()),
        "every quick cell runs ok: {:?}",
        doc.records
            .iter()
            .filter(|r| !r.is_ok())
            .map(|r| (r.key(), r.note.clone()))
            .collect::<Vec<_>>()
    );
    let cov = coverage(&doc);
    assert_eq!(cov.backends.len(), 7, "all 7 backends covered");
    assert!(cov.backends.contains("cluster"), "cluster backend present");
    assert!(
        cov.backends.contains("threaded-cluster"),
        "threaded backend present"
    );
    assert_eq!(cov.problems.len(), 6, "all 6 problems covered");
    assert!(
        cov.problems.contains("logistic") && cov.problems.contains("network-flow"),
        "promoted problems present: {:?}",
        cov.problems
    );
    assert!(cov.delays.len() >= 4, "at least 4 delay models covered");
    // Per backend: every problem and at least 4 delay models.
    for backend in &cov.backends {
        let mut problems = BTreeSet::new();
        let mut delays = BTreeSet::new();
        for r in doc
            .records
            .iter()
            .filter(|r| r.is_ok() && &r.backend == backend)
        {
            problems.insert(r.problem.clone());
            delays.insert(r.delay.clone());
        }
        assert!(problems.len() >= 6, "{backend}: {problems:?}");
        assert!(delays.len() >= 4, "{backend}: {delays:?}");
    }
    // Every cell was stopped by the target, not by its backstop; where
    // the run is a function of the seed the iterate it stopped on is the
    // final one, so the recorded residual meets the target too (a race
    // stops on worker 0's view and records the consensus: those keep the
    // comparator's floor). Simulator cells must carry simulated time.
    for r in &doc.records {
        let backend = BackendId::ALL.into_iter().find(|b| b.id() == r.backend);
        let backend = backend.unwrap_or_else(|| panic!("unknown backend in {}", r.key()));
        assert!(r.steps < backend.backstop(), "{}: {}", r.key(), r.steps);
        if r.backend == "sim" {
            assert!(r.sim_time.is_some(), "{}", r.key());
        }
        let bound = match backend {
            BackendId::SharedMem | BackendId::Threaded => 1e-5,
            _ => TARGET,
        };
        assert!(
            r.final_residual <= bound,
            "{}: residual {}",
            r.key(),
            r.final_residual
        );
    }

    // --- Checking the second run against the first run's artefact
    // passes: only deterministic metrics are compared, so live clocks
    // on a loaded host cannot fail it.
    std::fs::write(&corrupt, &text).unwrap();
    let code = gate_main(&args(&[
        "--quick",
        "--out",
        out_b.to_str().unwrap(),
        "--check",
        corrupt.to_str().unwrap(),
    ]));
    assert_eq!(code, 0, "self-check must pass");

    for p in [&corrupt, &out_a, &out_b] {
        std::fs::remove_file(p).ok();
    }
}

/// A semantic regression (not a parse failure) also fails: verified at
/// the comparator layer with a doctored baseline so no second matrix
/// run is needed.
#[test]
fn doctored_baseline_detects_regressions() {
    // A tiny hand-built "run": one deterministic cell.
    let mk = |resid: f64, sim: Option<u64>| {
        let mut doc = GateDoc::new("quick", vec![]);
        doc.records.push(asynciter_report::json::GateRecord {
            problem: "jacobi".into(),
            backend: "replay".into(),
            delay: "bounded".into(),
            fidelity: "exact".into(),
            status: "ok".into(),
            note: String::new(),
            seed: 2022,
            steps: 2500,
            wall_secs: 0.001,
            sim_time: sim,
            final_residual: resid,
            macro_iterations: 100,
            per_worker_updates: vec![],
        });
        doc
    };
    // Baseline claims a residual far below what the "current" run
    // produced (and that is above the floor): the comparator must flag it.
    let baseline = mk(1e-12, None);
    let current = mk(1e-2, None);
    let report = check_matrix(&baseline, &current);
    assert!(!report.passed());
    assert_eq!(report.cells[0].verdict, Verdict::ResidualRegression);

    // Simulated-time inflation is caught without any live clock.
    let baseline = mk(1e-12, Some(1_000));
    let current = mk(1e-12, Some(5_000));
    let report = check_matrix(&baseline, &current);
    assert!(!report.passed());
    assert_eq!(report.cells[0].verdict, Verdict::SimTimeRegression);
}

/// A deterministic cell's step count is compared exactly — the committed
/// baseline with one `replay` cell's `steps` bumped by 1 no longer
/// matches itself — while a racing backend keeps the floor / ratio rule.
#[test]
fn a_changed_step_count_fails_deterministic_cells_only() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../baselines/gate-baseline.json"
    );
    let current = GateDoc::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert!(check_matrix(&current, &current).passed());
    let bumped = |backend: &str| {
        let mut doc = current.clone();
        let cell = doc.records.iter_mut().find(|r| r.backend == backend);
        cell.expect("backend in the baseline").steps += 1;
        check_matrix(&doc, &current)
    };
    let report = bumped("replay");
    assert_eq!(report.failures(), 1);
    let cell = report
        .cells
        .iter()
        .find(|c| c.verdict.is_failure())
        .unwrap();
    assert_eq!(cell.verdict, Verdict::Changed);
    assert_eq!(cell.key, "jacobi|replay|no-delay");
    assert_eq!(
        cell.detail,
        "deterministic steps changed: baseline 33, current 32"
    );
    assert!(bumped("threaded-cluster").passed());
}
