//! Backend equivalence: the seven engines execute one Eq. (1) sequence,
//! so two machines running one schedule agree bit for bit. The
//! cross-backend laws are one table of `(backend, problem, law)` rows
//! over `conformance::oracle`, each compared by `core::compare`; then
//! record-mode invariance, the typed-error doors, the seed's one home
//! and edge cases of `History::value_at`.

use asynciter::conformance::cluster::{ClusterPlan, ThreadedPlan};
use asynciter::conformance::oracle::{
    backends_agree, cluster_degenerates_to_replay, cluster_replay_equivalence, sim_equivalence,
    threaded_degenerates_to_cluster, threaded_replay_equivalence,
};
use asynciter::conformance::plan::PlanLimits;
use asynciter::conformance::{ConformanceProblem, ProblemKind};
use asynciter::core::compare::{same_bits, same_run, same_schedule, Fields};
use asynciter::core::engine::History;
use asynciter::models::macroiter::macro_iterations;
use asynciter::opt::prox::L1;
use asynciter::opt::proxgrad::{gamma_max, SeparableProxGrad};
use asynciter::opt::quadratic::SeparableQuadratic;
use asynciter::prelude::*;
use asynciter::sim::compute::ComputeModel;

/// The quickstart problem: the Definition-4 prox-gradient operator on a
/// random separable quadratic with an ℓ₁ regulariser.
fn quickstart_operator(n: usize) -> SeparableProxGrad<SeparableQuadratic, L1> {
    let (mu, l) = (1.0, 10.0);
    let f = SeparableQuadratic::random(n, mu, l, 42).expect("instance");
    SeparableProxGrad::new(f, L1::new(0.2), gamma_max(mu, l)).expect("operator")
}

/// The quickstart problem as a lasso-family instance of the laws: zero
/// start, its exact minimiser, residual tolerance `1e-8`.
fn quickstart(n: usize) -> ConformanceProblem {
    let op = quickstart_operator(n);
    let (xstar, _) = op.solve_exact().expect("exact solve");
    ConformanceProblem {
        kind: ProblemKind::Lasso,
        op: Box::new(op),
        x0: vec![0.0; n],
        xstar: Some(xstar),
        steps: 0,
        tol: 1e-8,
        flex_tol: 1e-8,
        limits: PlanLimits::default(),
    }
}

/// `Replay`'s default synchronous schedule, one barrier thread and one
/// unit-compute simulated processor: three executions of one Eq. (1)
/// sequence, residual accounting included.
fn synchronous(problem: &ConformanceProblem, steps: u64) -> Result<(), String> {
    let barrier = Barrier {
        threads: 1,
        ..Barrier::default()
    };
    backends_agree(problem, barrier, Replay, |s| s.steps(steps))?;
    backends_agree(problem, Sim::uniform(1), Replay, |s| s.steps(steps))
}

type Law = fn(&ConformanceProblem) -> Result<(), String>;

/// The table: one `#[test]` per row, named for the bug it guards, with
/// its problem and the oracle law its backends must satisfy.
macro_rules! laws {
    ($($name:ident: $problem:expr => $law:expr;)*) => {$(
        #[test]
        fn $name() {
            let law: Law = $law;
            law(&$problem).unwrap();
        }
    )*};
}

laws! {
    replay_barrier_sim_bit_identical_on_quickstart: quickstart(64) => |p| synchronous(p, 200);
    replay_barrier_sim_bit_identical_on_logistic:
        ConformanceProblem::build(ProblemKind::Logistic) => |p| synchronous(p, 120);
    replay_barrier_sim_bit_identical_on_network_flow:
        ConformanceProblem::build(ProblemKind::NetworkFlow) => |p| synchronous(p, 150);
    // Error samples and the kept trace change nothing either side computes.
    equivalence_holds_with_recording_and_error_curves: quickstart(32) => |p| {
        let xstar = p.xstar.clone().expect("quickstart has x*");
        backends_agree(p, Sim::uniform(1), Replay, |s| {
            s.steps(100).xstar(xstar.clone()).error_every(10).record(RecordMode::Full)
        })
    };
    // One worker, in-order links, no faults: the synchronous schedule.
    cluster_single_worker_matches_replay_bitwise_on_jacobi:
        ConformanceProblem::build(ProblemKind::Jacobi) => |p| cluster_degenerates_to_replay(p, 200);
    cluster_single_worker_matches_replay_bitwise_on_lasso:
        ConformanceProblem::build(ProblemKind::Lasso) => |p| cluster_degenerates_to_replay(p, 400);
    cluster_single_worker_matches_replay_bitwise_on_logistic:
        ConformanceProblem::build(ProblemKind::Logistic) => |p| cluster_degenerates_to_replay(p, 120);
    cluster_single_worker_matches_replay_bitwise_on_network_flow:
        ConformanceProblem::build(ProblemKind::NetworkFlow)
            => |p| cluster_degenerates_to_replay(p, 150);
    // Both engines step the same `runtime::Worker`: the concurrency
    // layer is a bitwise no-op at one worker.
    threaded_single_worker_matches_sequential_cluster_bitwise: quickstart(24)
        => |p| threaded_degenerates_to_cluster(p, 300);
    // A lossy, duplicating, out-of-order channel still leaves a schedule
    // the Definition-1 engine re-executes bit for bit.
    cluster_faulty_multiworker_trace_replays_bitwise: quickstart(32) => |p| {
        let backend = Cluster {
            workers: 4,
            hold_prob: 0.35,
            drop_prob: 0.15,
            dup_prob: 0.1,
            partial_prob: 0.4,
            link: LinkModel::Jitter { lo: 1, hi: 7 },
            ..Cluster::default()
        };
        cluster_replay_equivalence(p, &ClusterPlan { backend, steps: 600, seed: 23 })
    };
    // The OS picks the interleaving; the trace it leaves determines the run.
    threaded_faulty_multiworker_trace_is_deterministic_under_replay: quickstart(32) => |p| {
        let backend = ThreadedCluster {
            workers: 3,
            hold_prob: 0.3,
            drop_prob: 0.1,
            dup_prob: 0.05,
            partial_prob: 0.4,
            ..ThreadedCluster::default()
        };
        let plan = ThreadedPlan { backend, max_steps: 4_000_000, seed: 31 };
        threaded_replay_equivalence(p, &plan).map(drop)
    };
    // A phase of `m` inner steps is one step of `Flexible { m, partial:
    // false }`: seeds 1, 4 and 7 are jittered compute and links with
    // m = 1, 2 and 3.
    sim_with_inner_steps_matches_flexible_on_its_own_trace: quickstart(12)
        => |p| [1, 4, 7].into_iter().try_for_each(|seed| sim_equivalence(p, seed, 3, 300));
}

/// `procs` simulated processors with jittered compute times and links.
fn jittered_sim(procs: usize, inner_steps: usize) -> Sim {
    Sim {
        compute: vec![ComputeModel::Uniform { lo: 1, hi: 5 }; procs],
        link: LinkModel::Jitter { lo: 1, hi: 9 },
        inner_steps,
        partial_sends: 0,
    }
}

#[test]
fn flexible_without_partials_matches_replay_bitwise() {
    // The paper's "Definition 3 without partials is Definition 1": one
    // inner iteration and nothing published leaves `Flexible` the read
    // vector, the update and the effective labels of `Replay`, here
    // under out-of-order delays. `Replay` is that call of the one loop,
    // so the reference is not the other door but the numbers `Replay`'s
    // own loop produced before it was deleted: budget run and every
    // stopping rule as (steps, macro-iterations, digest of the iterate,
    // digest of the residual samples).
    use asynciter::models::{schedule, trace_io::trace_to_string as text};
    use asynciter::report::stream::hash_f64s;
    let op = quickstart_operator(24);
    let (xstar, _) = op.solve_exact().unwrap();
    let residual = StoppingRule::Residual {
        eps: 1e-9,
        check_every: 4,
    };
    let error_below = StoppingRule::ErrorBelow {
        eps: 1e-9,
        check_every: 3,
    };
    let macro_contraction = StoppingRule::MacroContraction {
        eps: 1e-9,
        alpha: op.contraction_factor(),
        norm: WeightedMaxNorm::uniform(24),
    };
    let locks = [
        (None, 5000, 206, [0xcb8f7a0f5cd74620, 0x1ff0e17316e81d56]),
        (
            Some(residual),
            1000,
            41,
            [0x520187513c261502, 0x03a6e94d688b36a9],
        ),
        (
            Some(error_below),
            1041,
            42,
            [0x42736a481d39267a, 0x13a755f08ee62101],
        ),
        (
            Some(macro_contraction),
            1131,
            47,
            [0xd33026b68ed80aa8, 0x54690752daf1346b],
        ),
    ];
    for (rule, steps, macros, digests) in locks {
        let definition_3 = Flexible {
            m: 1,
            partial: false,
            ..Flexible::default()
        };
        let doors: [Box<dyn Backend>; 2] = [Box::new(Replay), Box::new(definition_3)];
        for backend in doors {
            let tag = format!("{} under {rule:?}", backend.name());
            let session = Session::new(&op)
                .steps(5_000)
                .schedule(ChaoticBounded::new(24, 4, 12, 16, false, 29))
                .xstar(xstar.clone())
                .residual_every(7)
                .record(RecordMode::Full)
                .backend(backend);
            let session = rule.iter().cloned().fold(session, Session::stopping);
            let report = session.run().unwrap();
            let stop = (report.steps, report.macro_iterations);
            assert_eq!(stop, (steps, macros), "{tag}");
            assert_eq!(report.stopped_early, rule.is_some(), "{tag}");
            let samples: Vec<f64> = report.residuals.iter().map(|s| s.1).collect();
            assert_eq!(samples.len() as u64, steps / 7, "{tag}");
            let got = [hash_f64s(&report.final_x), hash_f64s(&samples)];
            assert_eq!(got, digests, "{tag}");
            assert_eq!(report.partial_publishes + report.partial_reads, 0, "{tag}");
            // The kept trace is the schedule's own: active sets and full
            // label vectors, step for step.
            let mut chaotic = ChaoticBounded::new(24, 4, 12, 16, false, 29);
            let emitted = schedule::record(&mut chaotic, steps, LabelStore::Full);
            let kept = report.trace.unwrap();
            assert!(text(&kept) == text(&emitted), "{tag}: traces differ");
        }
    }
}

#[test]
fn recording_never_changes_an_iterate_bit() {
    // Observation is free: what a run keeps decides nothing it computes,
    // and the macro-iterations streamed by the step loop are the ones the
    // offline walk finds in the trace it kept.
    let op = quickstart_operator(24);
    let (xstar, _) = op.solve_exact().unwrap();
    let backends = [
        ("replay", 4),
        ("flexible", 4),
        ("sim", 4),
        ("cluster", 2),
        ("cluster", 3),
        ("cluster", 4),
        // One free-running worker is deterministic, and so is a barrier.
        ("threaded-cluster", 1),
        ("shared-mem", 1),
        ("barrier", 1),
        ("barrier", 2),
    ];
    for (backend, workers) in backends {
        let run = |mode: RecordMode| {
            let session = Session::new(&op).steps(400).xstar(xstar.clone()).seed(5);
            match backend {
                "flexible" => {
                    let blocks = Partition::blocks(24, workers).unwrap();
                    session
                        .schedule(BlockRoundRobin::new(blocks, 6))
                        .backend(Flexible {
                            m: 3,
                            partial_prob: 0.5,
                            ..Flexible::default()
                        })
                }
                "sim" => session.backend(jittered_sim(workers, 2)),
                "threaded-cluster" => session.backend(ThreadedCluster {
                    workers,
                    ..ThreadedCluster::default()
                }),
                "shared-mem" => session.backend(SharedMem {
                    threads: workers,
                    inner_steps: 2,
                    ..SharedMem::default()
                }),
                "barrier" => session.backend(Barrier {
                    threads: workers,
                    ..Barrier::default()
                }),
                "cluster" => session.backend(Cluster {
                    workers,
                    link: LinkModel::Jitter { lo: 1, hi: 6 },
                    hold_prob: 0.3,
                    drop_prob: 0.1,
                    dup_prob: 0.1,
                    partial_prob: 0.4,
                    ..Cluster::default()
                }),
                _ => session
                    .schedule(ChaoticBounded::new(24, 4, 12, 16, false, 29))
                    .backend(Replay),
            }
            .record(mode)
            .run()
            .unwrap()
        };
        let off = run(RecordMode::Off);
        assert_eq!(off.backend, backend);
        assert!(off.trace.is_none() && off.macro_iterations > 0);
        let has_partials = matches!(backend, "flexible" | "cluster");
        assert_eq!(off.partial_reads > 0, has_partials, "{backend}");
        // Constraint (3) is checked only by `Flexible` with a known fixed
        // point: this `Cluster` applies as received, checking nothing.
        assert_eq!(
            off.constraint_checked > 0,
            backend == "flexible",
            "{backend}"
        );
        let per_worker = !matches!(backend, "replay" | "flexible");
        assert_eq!(!off.per_worker_updates.is_empty(), per_worker, "{backend}");
        assert_eq!(off.sim_time.is_some(), backend == "sim");
        let has_channel = matches!(backend, "cluster" | "threaded-cluster");
        assert_eq!(off.channel.is_some(), has_channel, "{backend}");
        for mode in [RecordMode::MinOnly, RecordMode::Full] {
            let kept = run(mode);
            let same = same_run(&kept, &off, Fields::Computed);
            assert_eq!(same, Ok(()), "{backend} {mode:?}");
            assert!(kept.trace.is_some(), "{backend} {mode:?}");
            let offline = macro_iterations(kept.trace.as_ref().unwrap()).count();
            assert_eq!(offline as u64, off.macro_iterations, "{backend} {mode:?}");
        }
    }
}

/// The seven engines, each over two workers where it has any.
fn every_backend() -> [(&'static str, Box<dyn Backend>); 7] {
    [
        ("replay", Box::new(Replay)),
        ("flexible", Box::new(Flexible::default())),
        (
            "shared-mem",
            Box::new(SharedMem {
                threads: 2,
                ..SharedMem::default()
            }),
        ),
        (
            "barrier",
            Box::new(Barrier {
                threads: 2,
                ..Barrier::default()
            }),
        ),
        ("sim", Box::new(jittered_sim(2, 1))),
        (
            "cluster",
            Box::new(Cluster {
                workers: 2,
                ..Cluster::default()
            }),
        ),
        (
            "threaded-cluster",
            Box::new(ThreadedCluster {
                workers: 2,
                ..ThreadedCluster::default()
            }),
        ),
    ]
}

#[test]
fn every_backend_answers_bad_input_with_the_same_typed_error() {
    // One opening: what `RunControl::check` rejects is the same error
    // whichever engine the session names. `SharedMem`, `Barrier` and
    // `ThreadedCluster` used to spend the whole budget on the first
    // three rows and return `Ok`.
    let op = quickstart_operator(8);
    type Row = (fn(Session<'_>) -> Session<'_>, (&'static str, usize));
    let rows: [Row; 4] = [
        (
            |s| {
                s.stopping(StoppingRule::Residual {
                    eps: f64::NAN,
                    check_every: 1,
                })
            },
            ("stopping", 0),
        ),
        (|s| s.xstar(vec![0.0; 7]), ("Session (xstar)", 7)),
        (
            |s| {
                s.stopping(StoppingRule::MacroContraction {
                    eps: 1e-6,
                    alpha: 0.5,
                    norm: WeightedMaxNorm::uniform(7),
                })
            },
            ("Session (stopping norm)", 7),
        ),
        (|s| s.steps(0), ("max_steps", 0)),
    ];
    for (bad, expected) in &rows {
        for (name, backend) in every_backend() {
            let session = Session::new(&op).steps(20_000).backend(backend);
            let got = match bad(session).run() {
                Err(CoreError::DimensionMismatch {
                    expected: 8,
                    actual,
                    context,
                }) => (context, actual),
                Err(CoreError::InvalidParameter { name, .. }) => (name, 0),
                other => panic!("{name}: expected a typed rejection, got {other:?}"),
            };
            assert_eq!(got, *expected, "{name}");
        }
    }
}

/// Halves components 0–1 (the first of two blocks); components 2–3 go
/// NaN.
struct UpperBlockDiverges;

impl Operator for UpperBlockDiverges {
    fn dim(&self) -> usize {
        4
    }
    fn component(&self, i: usize, x: &[f64]) -> f64 {
        if i >= 2 {
            f64::NAN
        } else {
            0.5 * x[i]
        }
    }
}

#[test]
fn every_backend_answers_divergence_with_non_finite_iterate() {
    // One answer per fault. The budget is unbounded so no racing worker
    // can spend it before its NaN peer steps.
    for (name, backend) in every_backend() {
        let got = Session::new(&UpperBlockDiverges)
            .x0(vec![1.0; 4])
            .steps(u64::MAX)
            .backend(backend)
            .run();
        assert!(
            matches!(got, Err(CoreError::NonFiniteIterate { component: 2, .. })),
            "{name}: {got:?}"
        );
    }
}

/// A copy of `backend` with `set` applied to it.
fn altered<B: Backend + Clone + 'static>(
    backend: &B,
    set: impl FnOnce(&mut B),
) -> Box<dyn Backend> {
    let mut backend = backend.clone();
    set(&mut backend);
    Box::new(backend)
}

#[test]
fn every_engine_specific_bad_field_is_rejected_under_its_own_name() {
    // Each row: the name of a field the backend has, and the backend
    // with that field set out of range.
    let op = quickstart_operator(8);
    let cluster = &Cluster {
        workers: 2,
        ..Cluster::default()
    };
    let threaded = &ThreadedCluster {
        workers: 2,
        ..ThreadedCluster::default()
    };
    let shared = &SharedMem {
        threads: 2,
        ..SharedMem::default()
    };
    let barrier = &Barrier {
        threads: 2,
        ..Barrier::default()
    };
    let sim = &Sim::uniform(2);
    let jitter = LinkModel::Jitter { lo: 5, hi: 2 };
    let rows = [
        ("drop_prob", altered(cluster, |c| c.drop_prob = 1.5)),
        ("link", altered(cluster, |c| c.link = jitter)),
        ("exchange_every", altered(cluster, |c| c.exchange_every = 0)),
        ("workers", altered(cluster, |c| c.workers = 0)),
        ("workers", altered(cluster, |c| c.workers = 9)),
        ("hold_prob", altered(threaded, |t| t.hold_prob = 2.0)),
        ("workers", altered(threaded, |t| t.workers = 0)),
        ("inner_steps", altered(shared, |s| s.inner_steps = 0)),
        ("spin", altered(shared, |s| s.spin = vec![1])),
        ("threads", altered(shared, |s| s.threads = 0)),
        ("spin", altered(barrier, |b| b.spin = vec![1, 2, 3])),
        ("threads", altered(barrier, |b| b.threads = 0)),
        ("compute", altered(sim, |s| s.compute.clear())),
        (
            "compute",
            altered(sim, |s| s.compute = Sim::uniform(9).compute),
        ),
        ("inner_steps", altered(sim, |s| s.inner_steps = 0)),
        ("link", altered(sim, |s| s.link = jitter)),
        (
            "partial_sends",
            altered(sim, |s| (s.inner_steps, s.partial_sends) = (4, 5)),
        ),
    ];
    for (field, backend) in rows {
        let backend_name = backend.name();
        let got = Session::new(&op).steps(20).backend(backend).run();
        assert!(
            matches!(&got, Err(CoreError::InvalidParameter { name, .. }) if *name == field),
            "{backend_name} `{field}`: {got:?}"
        );
    }
}

#[test]
fn an_unseeded_session_is_seed_zero_on_every_seeded_backend() {
    // The session is the only seed source: no backend keeps a seed of
    // its own to fall back on, so leaving `.seed` out is `.seed(0)`.
    let op = quickstart_operator(12);
    let session = || Session::new(&op).steps(120).record(RecordMode::Full);
    // Partials are read only across blocks that update at different steps.
    let blocks = || BlockRoundRobin::new(Partition::blocks(12, 3).unwrap(), 4);
    assert_unseeded_is_seed_zero(
        || session().schedule(blocks()),
        &Flexible {
            m: 4,
            partial: true,
            partial_prob: 0.4,
            ..Flexible::default()
        },
    );
    assert_unseeded_is_seed_zero(
        session,
        &Sim {
            partial_sends: 1,
            ..jittered_sim(3, 2)
        },
    );
    assert_unseeded_is_seed_zero(
        session,
        &Cluster {
            workers: 3,
            link: LinkModel::Jitter { lo: 1, hi: 6 },
            hold_prob: 0.3,
            drop_prob: 0.1,
            dup_prob: 0.1,
            partial_prob: 0.4,
            ..Cluster::default()
        },
    );
}

/// `backend` computes the same in a `session` with no `.seed` as with
/// `.seed(0)` — iterate bits, counts, simulated time and the executed
/// schedule with its labels — and something else with `.seed(1)`.
fn assert_unseeded_is_seed_zero<'a, B: Backend + Clone + 'a>(
    session: impl Fn() -> Session<'a>,
    backend: &B,
) {
    let same = |a: &RunReport, b: &RunReport| {
        let schedule = |r: &RunReport| r.trace.clone().expect("RecordMode::Full");
        same_run(a, b, Fields::Computed).is_ok()
            && same_schedule(&schedule(a), &schedule(b)).is_ok()
    };
    let unseeded = session().backend(backend.clone()).run().unwrap();
    let zero = session().seed(0).backend(backend.clone()).run().unwrap();
    let other = session().seed(1).backend(backend.clone()).run().unwrap();
    let name = backend.name();
    assert!(same(&unseeded, &zero), "{name}");
    // … and the seed reaches the backend's draws at all.
    assert!(!same(&unseeded, &other), "{name}");
}

// ---------------------------------------------------------------------------
// History::value_at edge cases
// ---------------------------------------------------------------------------

#[test]
fn history_value_at_label_zero_returns_initial() {
    let mut h = History::new(&[7.5, -2.0]);
    h.push(0, 5, 8.5);
    // Label 0 always addresses x(0), even after updates.
    assert_eq!(h.value_at(0, 0), 7.5);
    assert_eq!(h.value_at(1, 0), -2.0);
}

#[test]
fn history_value_at_beyond_last_update_clamps_to_latest() {
    let mut h = History::new(&[1.0]);
    h.push(0, 3, 2.0);
    h.push(0, 9, 3.0);
    // Any label at or past the last update sees the latest value …
    assert_eq!(h.value_at(0, 9), 3.0);
    assert_eq!(h.value_at(0, 10), 3.0);
    assert_eq!(h.value_at(0, u64::MAX), 3.0);
    // … and labels just before it see the previous one.
    assert_eq!(h.value_at(0, 8), 2.0);
}

#[test]
fn history_value_at_out_of_order_lookups() {
    // Out-of-order queries (labels going backwards between calls) must
    // be pure lookups with no hidden state: interleave old and new
    // labels and expect exact step-function semantics.
    let mut h = History::new(&[0.0]);
    for (j, v) in [(2u64, 10.0), (4, 20.0), (8, 30.0), (16, 40.0)] {
        h.push(0, j, v);
    }
    let expect = |l: u64| match l {
        0..=1 => 0.0,
        2..=3 => 10.0,
        4..=7 => 20.0,
        8..=15 => 30.0,
        _ => 40.0,
    };
    // Deliberately non-monotone query order.
    for l in [16, 3, 8, 0, 15, 4, 2, 7, 1, 100, 5] {
        assert_eq!(h.value_at(0, l), expect(l), "label {l}");
    }
}

#[test]
fn history_value_at_equals_a_linear_scan_on_long_and_short_logs() {
    use asynciter::numerics::rng::child_seed;
    let mut stream = 0u64;
    let mut draw = move || {
        stream += 1;
        child_seed(25, stream)
    };
    // Component 0 gets ≥ 10 000 updates at random increasing steps, the
    // others 0, 1, 2 and 5; `logs` is the reference copy.
    let lens = [10_000usize, 0, 1, 2, 5];
    let mut h = History::new(&[0.5; 5]);
    let mut logs: Vec<Vec<(u64, f64)>> = vec![vec![(0, 0.5)]; 5];
    for (i, &len) in lens.iter().enumerate() {
        let mut j = 0;
        for _ in 0..len {
            j += 1 + draw() % 8;
            let v = (draw() >> 11) as f64 - 2f64.powi(52);
            h.push(i, j, v);
            logs[i].push((j, v));
        }
    }
    let scan = |i: usize, l: u64| logs[i].iter().rev().find(|&&(s, _)| s <= l).unwrap().1;
    for (i, log) in logs.iter().enumerate() {
        let last = log.last().unwrap().0;
        let mut labels = vec![0, last, last + 1, u64::MAX];
        // Entry steps and the labels just around them: every entry of the
        // short logs, every 11th of the long one.
        for &(s, _) in log.iter().step_by(log.len() / 1000 + 1) {
            labels.extend([s, s.saturating_sub(1), s + 1]);
        }
        for _ in 0..1000 {
            // Uniform over [0, last], then heavy-tailed toward 0, where the
            // gallop walks back to index 0.
            labels.push(draw() % (last + 1));
            labels.push((draw() % (last + 1)) >> (draw() % 24));
        }
        let looked_up: Vec<f64> = labels.iter().map(|&l| h.value_at(i, l)).collect();
        let scanned: Vec<f64> = labels.iter().map(|&l| scan(i, l)).collect();
        assert_eq!(same_bits(&looked_up, &scanned), Ok(()), "component {i}");
    }
    let mut out = [0.0; 5];
    for _ in 0..200 {
        let labels: Vec<u64> = logs
            .iter()
            .map(|log| draw() % (log.last().unwrap().0 + 2))
            .collect();
        h.assemble(&labels, &mut out);
        let looked_up: Vec<f64> = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| h.value_at(i, l))
            .collect();
        assert_eq!(same_bits(&out, &looked_up), Ok(()), "labels {labels:?}");
    }
}

#[test]
fn history_assemble_honours_mixed_stale_labels() {
    let mut h = History::new(&[1.0, 2.0, 3.0]);
    h.push(0, 1, 10.0);
    h.push(1, 2, 20.0);
    h.push(2, 3, 30.0);
    let mut out = [0.0; 3];
    // Component 0 fresh, 1 stale (pre-update), 2 beyond-last.
    h.assemble(&[1, 1, 7], &mut out);
    assert_eq!(out, [10.0, 2.0, 30.0]);
}
