//! Tier-1 conformance suite: the fixed-seed corpus and a miniature
//! fuzz campaign, run on every `cargo test`.
//!
//! The full campaign lives behind `cargo run -p asynciter-bench --bin
//! conformance -- --quick`; this suite keeps the always-on pieces
//! cheap: corpus regeneration equality (generator determinism),
//! witness acceptance/rejection, replayability of committed
//! counterexamples, and a handful of live fuzz cases per problem.

use asynciter::conformance::cluster::has_label_regression;
use asynciter::conformance::corpus::{self, CORPUS_STEPS};
use asynciter::conformance::oracle::{
    cluster_degenerates_to_replay, replay, threaded_degenerates_to_cluster,
};
use asynciter::conformance::runner::{
    cluster_reorder_demo, inject_cluster_fault_demo, inject_fault_demo, run_campaign,
    CampaignConfig,
};
use asynciter::conformance::{ConformanceProblem, ProblemKind};
use asynciter::core::compare::{same_run, Fields};
use asynciter::models::conditions::check_condition_a;
use asynciter::models::macroiter::macro_iterations;
use std::path::Path;

const CORPUS_DIR: &str = "tests/corpus";

#[test]
fn corpus_seed_traces_match_their_plans_bit_for_bit() {
    let plans = corpus::seed_plans();
    assert_eq!(plans.len(), 15, "canonical corpus is 5 problems x 3 plans");
    for (stem, plan) in plans {
        let path = Path::new(CORPUS_DIR).join(format!("{stem}.trace"));
        let committed = corpus::load_trace(&path)
            .unwrap_or_else(|e| panic!("{stem}: missing committed trace ({e})"));
        let regen = plan.record_trace();
        assert_eq!(committed.len() as u64, CORPUS_STEPS, "{stem}: wrong length");
        assert_eq!(regen.len(), committed.len(), "{stem}: generator drift");
        for j in 1..=committed.len() as u64 {
            assert_eq!(
                regen.step(j).active,
                committed.step(j).active,
                "{stem}: active drift at j={j}"
            );
            assert_eq!(
                regen.labels(j).unwrap(),
                committed.labels(j).unwrap(),
                "{stem}: label drift at j={j}"
            );
        }
        plan.witness()
            .check(&committed)
            .unwrap_or_else(|e| panic!("{stem}: witness rejected committed trace: {e}"));
    }
}

#[test]
fn every_corpus_trace_renders_back_to_its_own_bytes() {
    use asynciter::models::trace_io::{trace_from_str, trace_to_string};
    let mut checked = 0;
    for entry in std::fs::read_dir(CORPUS_DIR).expect("committed corpus") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|ext| ext == "trace") {
            let text = std::fs::read_to_string(&path).unwrap();
            let trace = trace_from_str(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            assert!(
                trace_to_string(&trace).unwrap() == text,
                "{path:?} renders differently"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 27, "corpus files");
}

#[test]
fn corpus_traces_satisfy_model_invariants_and_replay_deterministically() {
    let entries = corpus::load_dir(Path::new(CORPUS_DIR)).expect("committed corpus loads");
    assert!(entries.len() >= 25, "corpus unexpectedly small");
    let problems: Vec<ConformanceProblem> = ProblemKind::ALL
        .iter()
        .map(|&k| ConformanceProblem::build(k))
        .collect();
    for (path, trace) in entries {
        check_condition_a(&trace)
            .unwrap_or_else(|e| panic!("{}: condition (a) failed: {e}", path.display()));
        let boundaries = macro_iterations(&trace).boundaries;
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "{}: macro boundaries not increasing",
            path.display()
        );
        let problem = problems
            .iter()
            .find(|p| p.n() == trace.n())
            .unwrap_or_else(|| panic!("{}: no problem of dim {}", path.display(), trace.n()));
        let run = || {
            replay(problem.op.as_ref(), &problem.x0, &trace, |s| s)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        };
        same_run(&run(), &run(), Fields::Computed)
            .unwrap_or_else(|e| panic!("{}: replay not deterministic, {e}", path.display()));
    }
}

#[test]
fn fault_fixture_reproduces_from_the_demo() {
    // The committed counterexample is the deterministic output of the
    // inject-fault demo: corrupt, shrink, persist. Re-running the demo
    // must reproduce the committed file byte for byte.
    let committed = Path::new(CORPUS_DIR).join("fault-frozen-label.trace");
    let dir = std::env::temp_dir().join("asynciter-conformance-tier1-fault");
    let _ = std::fs::remove_dir_all(&dir);
    let fresh = dir.join("fault.trace");
    let (orig, shrunk) = inject_fault_demo(0xA5A5, &fresh).expect("demo runs");
    assert_eq!(orig, 400);
    assert!(
        shrunk <= 20,
        "counterexample no longer minimal: {shrunk} steps"
    );
    let a = std::fs::read_to_string(&committed).expect("committed fixture exists");
    let b = std::fs::read_to_string(&fresh).unwrap();
    assert_eq!(a, b, "shrinker output drifted from the committed fixture");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mini_campaign_with_corpus_passes() {
    let fault_dir = std::env::temp_dir().join("asynciter-conformance-tier1-campaign");
    let cfg = CampaignConfig {
        mode: "custom".into(),
        cases: 9,
        seed: 0x7E57,
        corpus_dir: Some(CORPUS_DIR.into()),
        fault_dir,
        roundtrip_every: 3,
        flexible_every: 4,
        sim_every: 4,
        cluster_every: 4,
        threaded_every: 5,
        sim_iterations: 150,
        shrink_budget: 20_000,
    };
    let report = run_campaign(&cfg);
    assert!(report.passed(), "failures: {:#?}", report.failures);
    assert_eq!(report.witness_rejections, 2, "negative controls missing");
    assert_eq!(report.corpus_checked, 27, "corpus files not all checked");
    assert_eq!(
        report.problems,
        vec!["jacobi", "lasso", "obstacle", "logistic", "network-flow"]
    );
    assert_eq!(report.oracle_runs["cluster-equivalence"], 3);
    assert_eq!(report.oracle_runs["threaded-equivalence"], 2);
}

// ---------------------------------------------------------------------------
// Cluster (message-passing) corpus locks and negative controls
// ---------------------------------------------------------------------------

#[test]
fn cluster_corpus_traces_match_their_plans_bit_for_bit() {
    let plans = corpus::cluster_plans();
    assert_eq!(plans.len(), 3, "canonical cluster corpus is 3 plans");
    for (stem, plan) in plans {
        let path = Path::new(CORPUS_DIR).join(format!("{stem}.trace"));
        let committed = corpus::load_trace(&path)
            .unwrap_or_else(|e| panic!("{stem}: missing committed trace ({e})"));
        let regen = corpus::record_cluster_trace(&plan);
        assert_eq!(committed.len() as u64, CORPUS_STEPS, "{stem}: wrong length");
        assert_eq!(regen.len(), committed.len(), "{stem}: engine drift");
        for j in 1..=committed.len() as u64 {
            assert_eq!(
                regen.step(j).active,
                committed.step(j).active,
                "{stem}: active drift at j={j}"
            );
            assert_eq!(
                regen.labels(j).unwrap(),
                committed.labels(j).unwrap(),
                "{stem}: label drift at j={j}"
            );
        }
    }
}

#[test]
fn cluster_reorder_fixture_reproduces_from_the_demo() {
    // The committed counterexample is the deterministic output of the
    // reorder demo: record an out-of-order cluster run, shrink to a
    // minimal exhibit of per-worker label regression, persist.
    // Re-running the demo must reproduce the committed file byte for
    // byte.
    let committed = Path::new(CORPUS_DIR).join("fault-cluster-reorder.trace");
    let dir = std::env::temp_dir().join("asynciter-conformance-tier1-reorder");
    let _ = std::fs::remove_dir_all(&dir);
    let fresh = dir.join("fault.trace");
    let (orig, shrunk) = cluster_reorder_demo(0xA5A5, &fresh).expect("demo runs");
    assert_eq!(orig, 240);
    assert!(
        shrunk <= 40,
        "counterexample no longer minimal: {shrunk} steps"
    );
    let a = std::fs::read_to_string(&committed).expect("committed fixture exists");
    let b = std::fs::read_to_string(&fresh).unwrap();
    assert_eq!(a, b, "shrinker output drifted from the committed fixture");
    // And the fixture really exhibits out-of-order application.
    let trace = corpus::load_trace(&committed).unwrap();
    assert!(has_label_regression(&trace, 3));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn threaded_corpus_trace_is_admissible_and_replays_convergently() {
    // The committed threaded trace is one witnessed execution of a racy
    // faulty multi-worker run — it cannot be regenerated, but it must
    // stay an admissible schedule that the Definition-1 engine replays
    // to convergence.
    let path = Path::new(CORPUS_DIR).join("threaded-00.trace");
    let trace = corpus::load_trace(&path).expect("committed threaded trace exists");
    check_condition_a(&trace).expect("condition (a)");
    let problem = ConformanceProblem::build(ProblemKind::Jacobi);
    assert_eq!(trace.n(), problem.n(), "recorded on the Jacobi problem");
    let report = replay(problem.op.as_ref(), &problem.x0, &trace, |s| s).unwrap();
    assert!(
        report.final_residual <= problem.tol,
        "replayed residual {:.3e} above tolerance",
        report.final_residual
    );
}

#[test]
fn dropping_an_essential_message_is_caught() {
    // Negative control: severing the messages of a block-boundary
    // component must be detected (high consensus residual + frozen
    // remote read labels). If this returns Err the harness has a blind
    // spot.
    let (steps, residual) = inject_cluster_fault_demo(0xA5A5).expect("fault must be caught");
    assert!(steps > 0);
    assert!(residual > 1e-8);
}

#[test]
fn degenerate_cluster_is_bitwise_replay_on_all_problems() {
    // Both degenerate laws on every family: one in-order, faultless
    // worker is the synchronous schedule, threaded or not.
    for kind in ProblemKind::ALL {
        let problem = ConformanceProblem::build(kind);
        cluster_degenerates_to_replay(&problem, 50)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.id()));
        threaded_degenerates_to_cluster(&problem, 50)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.id()));
    }
}
