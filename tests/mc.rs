//! Tier-1 model-checker suite: fixture locks, exploration determinism,
//! and scope verdicts, run on every `cargo test`.
//!
//! The sweeps here are the *real* exhaustive explorations of the small
//! scopes (thousands of canonical states), not samples — cheap enough
//! for the always-on tier. The committed `mc-*.trace` fixtures are the
//! deterministic outputs of the demo generators; these tests prove the
//! generators still produce them byte for byte, that DFS and BFS agree
//! on the explored graph, and that the reorder scope rediscovers the
//! out-of-order violation class of `fault-cluster-reorder.trace`.

use asynciter::conformance::cluster::has_label_regression;
use asynciter::conformance::corpus::load_trace;
use asynciter::core::compare::same_bits;
use asynciter::core::session::Session;
use asynciter::mc::counterexample::envelope_violation;
use asynciter::mc::seam::SeamChoice;
use asynciter::mc::{
    explore, explore_check_por, find_reorder_demo, inject_bug_demo, rebuild, seam_bug_demo,
    state_hash, ClusterModel, ExploreOutcome, McProblem, McState, Model, Por, Property, Scope,
    SeamBug, SeamModel, SeamScope, SendChoice, StepChoice, Strategy,
};
use asynciter::models::conditions::DelayEnvelope;
use asynciter::models::Partition;
use asynciter::numerics::rng::rng;
use asynciter::runtime::transport::{Endpoint, FaultEndpoint, FaultPlan, SendFate, Transport};
use asynciter::runtime::{ApplyPolicy, Cluster, MpscTransport, ThreadedCluster, Worker};
use std::path::Path;

const CORPUS_DIR: &str = "tests/corpus";

/// Re-runs a demo generator into a temp dir and returns the fresh bytes.
fn regenerate(name: &str, demo: fn(&Path) -> Result<(u64, u64), String>) -> String {
    let dir = std::env::temp_dir().join(format!("asynciter-mc-tier1-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let out = dir.join(name);
    demo(&out).unwrap_or_else(|e| panic!("{name}: demo failed: {e}"));
    let bytes = std::fs::read_to_string(&out).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

#[test]
fn mc_fixtures_reproduce_from_the_demos_bit_for_bit() {
    for (name, demo) in [
        (
            "mc-bug-severed-apply.trace",
            inject_bug_demo as fn(&Path) -> Result<(u64, u64), String>,
        ),
        ("mc-reorder.trace", find_reorder_demo),
    ] {
        let committed = std::fs::read_to_string(Path::new(CORPUS_DIR).join(name))
            .unwrap_or_else(|e| panic!("{name}: committed fixture missing: {e}"));
        let fresh = regenerate(name, demo);
        assert_eq!(
            committed, fresh,
            "{name}: demo output drifted from the committed fixture"
        );
    }
}

#[test]
fn mc_bug_fixture_carries_the_envelope_violation_signature() {
    let trace = load_trace(&Path::new(CORPUS_DIR).join("mc-bug-severed-apply.trace")).unwrap();
    assert!(
        envelope_violation(&trace, Scope::inject().envelope),
        "severed-apply fixture lost its frozen-label signature"
    );
    assert!(
        !has_label_regression(&trace, Scope::inject().workers),
        "severed-apply fixture is a freeze, not a regression"
    );
}

#[test]
fn mc_reorder_fixture_is_the_fault_cluster_reorder_class() {
    // The same trace-level signature that defines the committed
    // `fault-cluster-reorder.trace` fuzzer find: a component's label
    // regressing between one worker's consecutive turns.
    let trace = load_trace(&Path::new(CORPUS_DIR).join("mc-reorder.trace")).unwrap();
    assert!(
        has_label_regression(&trace, Scope::reorder().workers),
        "reorder fixture lost the label regression"
    );
}

#[test]
fn state_hash_locks_the_canonical_encoding() {
    // Known-value lock on the 128-bit FNV over the canonical byte
    // encoding: any change to field order, endianness, or the encoding
    // itself shows up here before it silently invalidates dedup.
    let problem = McProblem::build();
    let quick = state_hash(&McState::initial(&Scope::quick(), &problem));
    assert_eq!(
        quick, 0xc12df9481a04f9685f8430cf8eebbb4e,
        "quick-scope root hash drifted"
    );
    // Every dynamic field participates in the hash: read history …
    let mut with_history = McState::initial(&Scope::quick(), &problem);
    with_history.prev_read[0] = vec![1; 16];
    let with_history = state_hash(&with_history);
    assert_ne!(quick, with_history, "read-history must be hashed");
    // … and the step counter.
    let mut stepped = McState::initial(&Scope::quick(), &problem);
    stepped.next_step = 2;
    assert_ne!(quick, state_hash(&stepped), "step counter must be hashed");
    // Determinism: same state, same hash.
    assert_eq!(
        quick,
        state_hash(&McState::initial(&Scope::quick(), &problem))
    );
}

/// The reduced two-worker seam universe cheap enough for every
/// `cargo test`: every interleaving of free-running worker steps × every
/// FaultEndpoint fate over two rounds. The full `seam2` sweep (163339
/// states) runs in the PR-path `mc` CI job.
fn seam_tier1() -> SeamScope {
    SeamScope {
        name: "seam-tier1".into(),
        rounds: 2,
        hold_max: 1,
        ..SeamScope::seam2()
    }
}

/// Same model, same search, same counters; and BFS explores the
/// identical state graph — only the frontier shape (and hence its
/// high-water mark) may differ. Returns the DFS outcome.
fn assert_deterministic_and_strategy_invariant<M: Model>(model: &M) -> ExploreOutcome {
    let a = explore(model, Strategy::Dfs, u64::MAX);
    let b = explore(model, Strategy::Dfs, u64::MAX);
    assert_eq!(a.stats, b.stats, "same scope, same search, same counters");
    let c = explore(model, Strategy::Bfs, u64::MAX);
    assert_eq!(a.stats.visited, c.stats.visited, "DFS/BFS visited differ");
    assert_eq!(a.stats.dedup_hits, c.stats.dedup_hits);
    assert_eq!(a.stats.edges, c.stats.edges);
    assert_eq!(a.stats.terminals, c.stats.terminals);
    assert_eq!(a.stats.pruned_capacity, c.stats.pruned_capacity);
    assert_eq!(a.stats.pruned_inadmissible, c.stats.pruned_inadmissible);
    assert!(a.violation.is_none() && c.violation.is_none());
    a
}

#[test]
fn exploration_is_deterministic_and_strategy_invariant() {
    let problem = McProblem::build();
    assert_deterministic_and_strategy_invariant(&ClusterModel::new(&Scope::quick(), &problem));
    // One explorer: the seam scopes get the same lock, BFS included.
    let seam =
        assert_deterministic_and_strategy_invariant(&SeamModel::new(&seam_tier1(), &problem));
    assert_eq!(seam.stats.visited, 1245, "tier-1 seam state count drifted");
}

#[test]
fn quick_and_flex_scopes_verify_exhaustively() {
    let problem = McProblem::build();
    for (scope, expect_visited) in [(Scope::quick(), 4054u64), (Scope::flex(), 5044u64)] {
        let out = explore(
            &ClusterModel::new(&scope, &problem),
            Strategy::Dfs,
            u64::MAX,
        );
        assert!(!out.truncated, "{}: sweep truncated", scope.name);
        assert!(
            out.violation.is_none(),
            "{}: unexpected violation: {:?}",
            scope.name,
            out.violation
        );
        assert_eq!(
            out.stats.visited, expect_visited,
            "{}: explored state count drifted — transition relation changed",
            scope.name
        );
    }
}

#[test]
fn reorder_scope_rediscovers_the_out_of_order_class() {
    let scope = Scope::reorder();
    let problem = McProblem::build();
    let model = ClusterModel {
        find_reorder: true,
        ..ClusterModel::new(&scope, &problem)
    };
    let found = explore(&model, Strategy::Dfs, u64::MAX)
        .violation
        .expect("reorder probe found nothing — channel model lost out-of-order delivery");
    assert_eq!(found.violation.property, Property::Reorder);
    let (trace, _) = rebuild(&model, &found.path);
    assert!(
        has_label_regression(&trace, scope.workers),
        "rebuilt witness lost the regression"
    );
}

#[test]
fn por_agrees_with_full_exploration_on_every_quick_scope() {
    // The partial-order reduction contract, locked as a tier-1 gate:
    // on every quick scope, reduced and unreduced exploration reach the
    // same verdict (and the same violation class when one exists), and
    // DFS and BFS agree under reduction exactly as they do without it.
    let problem = McProblem::build();
    let mut inject = Scope::inject();
    inject.inject_bug = true;
    for scope in [Scope::quick(), Scope::flex(), Scope::reorder(), inject] {
        for strategy in [Strategy::Dfs, Strategy::Bfs] {
            let model = ClusterModel::new(&scope, &problem);
            explore_check_por(&model, strategy, u64::MAX).unwrap_or_else(|e| {
                panic!("{} ({strategy:?}): POR equivalence broken: {e}", scope.name)
            });
        }
        let reduced = ClusterModel {
            por: Por::On,
            ..ClusterModel::new(&scope, &problem)
        };
        let dfs = explore(&reduced, Strategy::Dfs, u64::MAX);
        let bfs = explore(&reduced, Strategy::Bfs, u64::MAX);
        assert_eq!(
            dfs.stats.visited, bfs.stats.visited,
            "{}: reduced DFS/BFS visited differ",
            scope.name
        );
        assert_eq!(dfs.stats.por_pruned_choices, bfs.stats.por_pruned_choices);
    }
}

#[test]
fn por_reduction_counters_lock_the_quick_scope() {
    // Known-value locks on the reduction itself: the quick scope
    // shrinks 4054 → 1122 states, with the prune counters accounting
    // for the difference. Any drift means the reduction rules (or the
    // transition relation under them) changed.
    let problem = McProblem::build();
    let scope = Scope::quick();
    let reduced = ClusterModel {
        por: Por::On,
        ..ClusterModel::new(&scope, &problem)
    };
    let off = explore(
        &ClusterModel::new(&scope, &problem),
        Strategy::Dfs,
        u64::MAX,
    );
    let on = explore(&reduced, Strategy::Dfs, u64::MAX);
    assert!(off.violation.is_none() && on.violation.is_none());
    assert_eq!(off.stats.visited, 4054, "unreduced quick count drifted");
    assert_eq!(on.stats.visited, 1122, "reduced quick count drifted");
    assert_eq!(off.stats.por_pruned_choices, 0, "Por::Off must not prune");
    assert_eq!(
        on.stats.por_pruned_choices, 786,
        "quick-scope POR prune count drifted"
    );
    assert!(
        on.stats.por_pruned_deliveries > 0 && on.stats.por_pruned_sends > 0,
        "both delivery-side and send-side reductions must fire on quick"
    );
}

#[test]
fn seam1_matches_sequential_and_threaded_cluster_bitwise() {
    // The transport-seam model at one worker has a single schedule;
    // exhausting it and matching the sequential cluster bit for bit
    // lifts the `ThreadedCluster{1} ≡ Cluster{1}` conformance test from
    // one sampled run to a bounded-exhaustive statement.
    let scope = SeamScope::seam1();
    let problem = McProblem::build();
    let model = SeamModel::new(&scope, &problem);
    let out = explore(&model, Strategy::Dfs, u64::MAX);
    assert!(out.violation.is_none(), "{:?}", out.violation);
    assert!(!out.truncated);
    assert_eq!(out.stats.terminals, 1, "seam1 must have a single schedule");
    let (_, terminal) = rebuild(&model, &[0, 0, 0, 0]);
    let steps = scope.steps();
    let cluster = Session::new(&problem.op)
        .x0(problem.x0.clone())
        .steps(steps)
        .backend(Cluster {
            workers: 1,
            ..Cluster::default()
        })
        .run()
        .unwrap();
    let threaded = Session::new(&problem.op)
        .x0(problem.x0.clone())
        .steps(steps)
        .backend(ThreadedCluster {
            workers: 1,
            ..ThreadedCluster::default()
        })
        .run()
        .unwrap();
    let view = terminal.book.workers[0].view();
    assert_eq!(same_bits(view, &cluster.final_x), Ok(()), "vs Cluster{{1}}");
    assert_eq!(
        same_bits(view, &threaded.final_x),
        Ok(()),
        "vs ThreadedCluster{{1}}"
    );
}

#[test]
fn quick_prompt_path_matches_the_cluster_backend_bitwise() {
    // The cluster-scope analogue of the seam1 test above: on the path
    // that delivers the whole mailbox and posts the full block once at
    // every step, the abstract-channel model is the production event
    // loop with fixed 1-tick links (a post is due before the peer's
    // next turn) — same workers, same arithmetic, same final bits.
    let scope = Scope::quick();
    let problem = McProblem::build();
    let model = ClusterModel::new(&scope, &problem);
    let mut state = model.initial();
    while !model.is_terminal(&state) {
        let w = scope.owner(state.next_step);
        let prompt = StepChoice {
            deliver: (0..state.mailboxes[w].len()).collect(),
            sends: vec![SendChoice::Send {
                mask: None,
                copies: 1,
            }],
        };
        assert!(
            model.enumerate(&state).0.contains(&prompt),
            "step {}: the prompt choice must be one the explorer visits",
            state.next_step
        );
        state = model.apply(&state, &prompt, None).expect("in scope").0;
    }
    let cluster = Session::new(&problem.op)
        .x0(problem.x0.clone())
        .steps(scope.steps)
        .backend(Cluster {
            workers: scope.workers,
            apply_policy: ApplyPolicy::KeepFreshest,
            ..Cluster::default()
        })
        .run()
        .unwrap();
    for worker in &state.book.workers {
        let (model, engine): (Vec<f64>, Vec<f64>) = (worker.block().iter())
            .map(|&c| (worker.view()[c], cluster.final_x[c]))
            .unzip();
        assert_eq!(same_bits(&model, &engine), Ok(()), "vs Cluster{{2}}");
    }
}

#[test]
fn seam_model_and_fault_endpoint_agree_bitwise_on_a_fate_script() {
    // The seam model and the threaded engine's stack are the same
    // `Worker` + `FaultRouter` code under different schedulers. Step two
    // workers through one (who steps, fate of its send) script — once
    // over real `FaultEndpoint`s on an `MpscTransport`, once through
    // `SeamModel::apply` — and compare arrival order at every drain and
    // views + label books after every step.
    let hold = |hold| SendFate::Deliver { dup: false, hold };
    let dup = |hold| SendFate::Deliver { dup: true, hold };
    let script = [
        // Four sends before worker 1 looks: hold 2, hold 2, hold 1,
        // prompt. The release scan lets them arrive as sends 1, 4, 3, 2.
        (0, hold(2)),
        (0, hold(2)),
        (0, hold(1)),
        (0, hold(0)),
        (1, dup(1)),
        (0, SendFate::Drop),
        (1, hold(0)),
        (0, dup(0)),
        (1, SendFate::Drop),
        (1, hold(2)),
        (0, dup(2)),
        (1, hold(0)),
    ];
    let scope = SeamScope {
        name: "differential".into(),
        rounds: 7,
        max_in_flight: 16,
        envelope: DelayEnvelope::Bounded(64),
        ..SeamScope::seam2()
    };
    let problem = McProblem::build();
    let model = SeamModel::new(&scope, &problem);
    let mut state = model.initial();

    let partition = Partition::blocks(problem.n(), 2).unwrap();
    let policy = ApplyPolicy::AsReceived;
    let mut workers = Worker::mesh(&problem.op, &problem.x0, &partition, policy, 1, 0.0).unwrap();
    let mut ends: Vec<FaultEndpoint> = MpscTransport
        .connect(2)
        .into_iter()
        .map(|end| FaultEndpoint::new(end, FaultPlan::none(), 0))
        .collect();
    let mut never_drawn = rng(0);

    for (j, &(w, fate)) in (1..).zip(&script) {
        let queued: Vec<u64> = state.inboxes[w].iter().map(|m| m.msg.comps[0].2).collect();
        let mut received = Vec::new();
        while let Some(msg) = ends[w].try_recv() {
            received.push(msg.comps[0].2);
            workers[w].receive(&msg);
        }
        assert_eq!(received, queued, "step {j}: arrival order at worker {w}");
        if j == 5 {
            assert_eq!(
                received,
                [1, 4, 3, 2],
                "release order of the four held sends"
            );
        }
        workers[w].produce(&problem.op, j).unwrap();
        let msg = workers[w]
            .post(&mut never_drawn)
            .expect("exchange every update");
        ends[w].send_with_fate(1 - w, msg, fate);

        let choice = SeamChoice {
            worker: w,
            fates: vec![fate],
        };
        state = model.apply(&state, &choice, None).expect("in scope").0;
        for (real, seam) in workers.iter().zip(&state.book.workers) {
            let views = same_bits(real.view(), seam.view());
            assert_eq!(views, Ok(()), "step {j}: views");
            assert_eq!(real.labels(), seam.labels(), "step {j}: label books");
        }
    }
}

#[test]
fn tier1_seam_scope_verifies_exhaustively() {
    let scope = seam_tier1();
    let problem = McProblem::build();
    let model = SeamModel::new(&scope, &problem);
    let out = explore(&model, Strategy::Dfs, u64::MAX);
    assert!(!out.truncated, "tier-1 seam sweep truncated");
    assert!(out.violation.is_none(), "{:?}", out.violation);
    assert_eq!(
        out.stats.visited, 1245,
        "tier-1 seam state count drifted — seam transition relation changed"
    );
}

#[test]
fn seam_fixtures_reproduce_from_the_demos_bit_for_bit() {
    // Non-capturing closures coerce to fn pointers, so the shared
    // regenerate harness covers the seam demos too.
    for (name, demo) in [
        (
            "mc-seam-hold.trace",
            (|p: &Path| seam_bug_demo(SeamBug::Hold, p)) as fn(&Path) -> Result<(u64, u64), String>,
        ),
        ("mc-seam-drop.trace", |p: &Path| {
            seam_bug_demo(SeamBug::Drop, p)
        }),
        ("mc-seam-dup.trace", |p: &Path| {
            seam_bug_demo(SeamBug::Dup, p)
        }),
    ] {
        let committed = std::fs::read_to_string(Path::new(CORPUS_DIR).join(name))
            .unwrap_or_else(|e| panic!("{name}: committed fixture missing: {e}"));
        let fresh = regenerate(name, demo);
        assert_eq!(
            committed, fresh,
            "{name}: seam demo output drifted from the committed fixture"
        );
    }
}

#[test]
fn seam_fixtures_carry_the_envelope_violation_signature() {
    for bug in [SeamBug::Hold, SeamBug::Drop, SeamBug::Dup] {
        let name = format!("mc-seam-{}.trace", bug.id());
        let trace = load_trace(&Path::new(CORPUS_DIR).join(&name)).unwrap();
        assert!(
            envelope_violation(&trace, SeamScope::seam_bug(bug).envelope),
            "{name}: fixture lost the zeroed-label envelope signature"
        );
    }
}

#[test]
fn from_trace_derives_a_scope_that_rediscovers_the_mc_reorder_class() {
    // The 2-worker derived scope is small enough to hunt in tier-1.
    let trace = load_trace(&Path::new(CORPUS_DIR).join("mc-reorder.trace")).unwrap();
    let scope = Scope::from_trace("mc-reorder", &trace).unwrap();
    assert_eq!(scope.name, "from-mc-reorder");
    assert_eq!(scope.workers, 2);
    assert!(
        scope.track_read_history,
        "regression trace must track reads"
    );
    let problem = McProblem::build();
    let model = ClusterModel {
        find_reorder: true,
        ..ClusterModel::new(&scope, &problem)
    };
    let found = explore(&model, Strategy::Dfs, u64::MAX)
        .violation
        .expect("derived scope lost the mc-reorder violation class");
    assert_eq!(found.violation.property, Property::Reorder);
    let (witness, _) = rebuild(&model, &found.path);
    assert!(has_label_regression(&witness, scope.workers));
}

#[test]
fn from_trace_derives_the_three_worker_fault_cluster_scope() {
    // The 3-worker hunt itself runs in the nightly `mc-full` job
    // (~9 s release); tier-1 locks the derivation: worker recovery from
    // singleton shrunk active sets, the reorder-class envelope floor
    // `2·workers + 1`, and the clamped horizon.
    let trace = load_trace(&Path::new(CORPUS_DIR).join("fault-cluster-reorder.trace")).unwrap();
    let scope = Scope::from_trace("fault-cluster-reorder", &trace).unwrap();
    assert_eq!(scope.name, "from-fault-cluster-reorder");
    assert_eq!(scope.workers, 3, "worker recovery from shrunk active sets");
    assert_eq!(scope.steps, 9, "horizon must clamp to 3 rounds");
    assert_eq!(
        scope.envelope,
        asynciter::models::conditions::DelayEnvelope::Bounded(7),
        "reorder-class envelope floor 2·workers + 1"
    );
    assert!(scope.track_read_history);
    assert_eq!(scope.max_in_flight, 4, "capacity scales with in-degree");
}

#[test]
fn from_trace_rejects_unusable_traces() {
    use asynciter::models::{LabelStore, Trace};
    // Wrong dimension.
    let mut t8 = Trace::new(8, LabelStore::Full);
    t8.push_step(&[0], &[0; 8]);
    assert!(Scope::from_trace("t8", &t8)
        .unwrap_err()
        .contains("dimension"));
    // Right dimension, non-round-robin schedule (same block twice).
    let mut bad = Trace::new(16, LabelStore::Full);
    bad.push_step(&[0], &[0; 16]);
    bad.push_step(&[1], &[1; 16]);
    assert!(Scope::from_trace("bad", &bad)
        .unwrap_err()
        .contains("no round-robin"));
    // Empty.
    let empty = Trace::new(16, LabelStore::Full);
    assert!(Scope::from_trace("empty", &empty)
        .unwrap_err()
        .contains("empty"));
}
