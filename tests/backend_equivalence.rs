//! Backend equivalence: with a serial schedule (all components active,
//! zero delay) the `Replay`, `Barrier { threads: 1 }` and `Sim` backends
//! must produce **bit-identical** iterates on the quickstart problem —
//! they are three executions of the same Eq. (1) sequence — plus
//! edge-case tests for `History::value_at`.

use asynciter::core::engine::History;
use asynciter::models::macroiter::macro_iterations;
use asynciter::opt::canonical;
use asynciter::opt::prox::L1;
use asynciter::opt::proxgrad::{gamma_max, SeparableProxGrad};
use asynciter::opt::quadratic::SeparableQuadratic;
use asynciter::prelude::*;
use asynciter::sim::compute::{ComputeModel, LatencyModel};

/// The quickstart problem: the Definition-4 prox-gradient operator on a
/// random separable quadratic with an ℓ₁ regulariser.
fn quickstart_operator(n: usize) -> SeparableProxGrad<SeparableQuadratic, L1> {
    let (mu, l) = (1.0, 10.0);
    let f = SeparableQuadratic::random(n, mu, l, 42).expect("instance");
    SeparableProxGrad::new(f, L1::new(0.2), gamma_max(mu, l)).expect("operator")
}

/// With a serial schedule (all components active, zero delay) `Replay`,
/// `Barrier { threads: 1 }` and `Sim` execute the same Eq. (1) sequence
/// and must agree **bit for bit** — including their residual accounting.
fn assert_replay_barrier_sim_bitwise(op: &dyn Operator, steps: u64, tag: &str) {
    let n = op.dim();

    // Replay with the synchronous (serial, zero-delay) schedule.
    let replay = Session::new(op)
        .steps(steps)
        .schedule(SyncJacobi::new(n))
        .backend(Replay)
        .run()
        .unwrap();

    // One barrier-synchronous thread: sweeps == synchronous iterations.
    let barrier = Session::new(op)
        .steps(steps)
        .backend(Barrier {
            threads: 1,
            ..Barrier::default()
        })
        .run()
        .unwrap();

    // One simulated processor, unit compute, one inner step per phase.
    let sim = Session::new(op)
        .steps(steps)
        .backend(Sim(SimConfig::uniform(Partition::blocks(n, 1).unwrap())))
        .run()
        .unwrap();

    assert_eq!(replay.steps, steps, "{tag}");
    assert_eq!(barrier.steps, steps, "{tag}");
    assert_eq!(sim.steps, steps, "{tag}");
    // Bit-identical, not approximately equal: same arithmetic, same
    // order, same IEEE results.
    for i in 0..n {
        assert_eq!(
            replay.final_x[i].to_bits(),
            barrier.final_x[i].to_bits(),
            "{tag}: replay vs barrier at component {i}"
        );
        assert_eq!(
            replay.final_x[i].to_bits(),
            sim.final_x[i].to_bits(),
            "{tag}: replay vs sim at component {i}"
        );
    }
    // The shared report makes cross-backend accounting directly
    // comparable too.
    assert_eq!(
        replay.final_residual.to_bits(),
        barrier.final_residual.to_bits(),
        "{tag}"
    );
    assert_eq!(
        replay.final_residual.to_bits(),
        sim.final_residual.to_bits(),
        "{tag}"
    );
}

#[test]
fn replay_barrier_sim_bit_identical_on_quickstart() {
    assert_replay_barrier_sim_bitwise(&quickstart_operator(64), 200, "quickstart");
}

#[test]
fn equivalence_holds_with_recording_and_error_curves() {
    let n = 32;
    let steps = 100;
    let op = quickstart_operator(n);
    let (xstar, _) = op.solve_exact().unwrap();

    // Boxed backends implement `Backend`, so runtime backend selection
    // needs no adapter.
    let session = |backend: Box<dyn Backend>| {
        Session::new(&op)
            .steps(steps)
            .xstar(xstar.clone())
            .error_every(10)
            .record(RecordMode::Full)
            .backend(backend)
            .run()
            .unwrap()
    };

    let replay = session(Box::new(Replay));
    let sim = session(Box::new(Sim(SimConfig::uniform(
        Partition::blocks(n, 1).unwrap(),
    ))));

    assert_eq!(replay.errors.len(), sim.errors.len());
    for ((ja, ea), (jb, eb)) in replay.errors.iter().zip(&sim.errors) {
        assert_eq!(ja, jb);
        assert_eq!(
            ea.to_bits(),
            eb.to_bits(),
            "error curves diverge at step {ja}"
        );
    }
    // Both traces describe the same synchronous schedule.
    let ta = replay.trace.unwrap();
    let tb = sim.trace.unwrap();
    assert_eq!(ta.len(), tb.len());
    assert_eq!(replay.macro_iterations, sim.macro_iterations);
}

// ---------------------------------------------------------------------------
// The promoted problems: logistic regression and network flow get the
// same cross-backend lockdown as Jacobi/lasso. Their operators share
// subexpressions through the caller-owned scratch paths
// (`update_active_with`), so these tests also pin the scratch kernels'
// bit-identity with plain `component` evaluation across engines.
// ---------------------------------------------------------------------------

/// The gate's quick logistic instance: certified max-norm contractive.
fn logistic_operator() -> asynciter::opt::logistic::LogisticGradOperator {
    asynciter::opt::logistic::LogisticGradOperator::certified_random(8, 48, 2.0, 2022)
        .expect("certified instance")
}

/// The gate's quick network-flow instance: hub-grounded wheel.
fn network_flow_operator() -> asynciter::opt::network_flow::PriceRelaxation {
    use asynciter::opt::network_flow::{NetworkFlowProblem, PriceRelaxation};
    let problem = NetworkFlowProblem::wheel(12, 2022).expect("wheel instance");
    PriceRelaxation::new(problem, 0).expect("hub grounding")
}

#[test]
fn replay_barrier_sim_bit_identical_on_logistic() {
    assert_replay_barrier_sim_bitwise(&logistic_operator(), 120, "logistic");
}

#[test]
fn replay_barrier_sim_bit_identical_on_network_flow() {
    assert_replay_barrier_sim_bitwise(&network_flow_operator(), 150, "network-flow");
}

#[test]
fn cluster_single_worker_matches_replay_bitwise_on_logistic() {
    assert_cluster_degenerates(&logistic_operator(), 120, "logistic");
}

#[test]
fn cluster_single_worker_matches_replay_bitwise_on_network_flow() {
    assert_cluster_degenerates(&network_flow_operator(), 150, "network-flow");
}

// ---------------------------------------------------------------------------
// Cluster degeneracy: one worker, in-order links, no faults == Replay
// ---------------------------------------------------------------------------

/// `Cluster { workers: 1, in-order, faultless }` performs one full-block
/// Jacobi update per step from its own (always fresh) view — exactly the
/// synchronous schedule `Replay` executes by default. The two backends
/// must agree bit for bit.
fn assert_cluster_degenerates(op: &dyn Operator, steps: u64, tag: &str) {
    let cluster = Session::new(op)
        .steps(steps)
        .backend(Cluster {
            workers: 1,
            ..Cluster::default()
        })
        .run()
        .unwrap();
    let replay = Session::new(op).steps(steps).backend(Replay).run().unwrap();
    assert_eq!(cluster.steps, steps, "{tag}");
    for i in 0..op.dim() {
        assert_eq!(
            cluster.final_x[i].to_bits(),
            replay.final_x[i].to_bits(),
            "{tag}: cluster vs replay at component {i}"
        );
    }
    assert_eq!(
        cluster.final_residual.to_bits(),
        replay.final_residual.to_bits(),
        "{tag}"
    );
    // One macro-iteration per synchronous sweep.
    assert_eq!(cluster.macro_iterations, replay.macro_iterations, "{tag}");
}

#[test]
fn cluster_single_worker_matches_replay_bitwise_on_jacobi() {
    let op = asynciter::opt::linear::JacobiOperator::new(
        asynciter::numerics::sparse::tridiagonal(24, 4.0, -1.0),
        vec![1.0; 24],
    )
    .unwrap();
    assert_cluster_degenerates(&op, 200, "jacobi");
}

#[test]
fn cluster_single_worker_matches_replay_bitwise_on_lasso() {
    let op = canonical::lasso(canonical::Size::Quick).op;
    assert_cluster_degenerates(&op, 400, "lasso");
}

#[test]
fn cluster_faulty_multiworker_trace_replays_bitwise() {
    // The strong direction: even a lossy, duplicating, out-of-order
    // channel leaves a recorded schedule that the Definition-1 engine
    // re-executes bit for bit.
    let n = 32;
    let op = quickstart_operator(n);
    let cluster = Session::new(&op)
        .steps(600)
        .seed(23)
        .record(RecordMode::Full)
        .backend(Cluster {
            workers: 4,
            hold_prob: 0.35,
            drop_prob: 0.15,
            dup_prob: 0.1,
            partial_prob: 0.4,
            link: LinkModel::Jitter { lo: 1, hi: 7 },
            ..Cluster::default()
        })
        .run()
        .unwrap();
    let replayed = Session::new(&op)
        .replay_trace(cluster.trace.clone().unwrap())
        .unwrap()
        .run()
        .unwrap();
    for i in 0..n {
        assert_eq!(
            cluster.final_x[i].to_bits(),
            replayed.final_x[i].to_bits(),
            "component {i}"
        );
    }
}

// ---------------------------------------------------------------------------
// Threaded cluster: racy runs leave deterministic traces, and one
// free-running worker degenerates to the sequential cluster
// ---------------------------------------------------------------------------

#[test]
fn threaded_faulty_multiworker_trace_is_deterministic_under_replay() {
    // The threaded run itself is racy — the OS picks the interleaving —
    // but whatever schedule it executed is recorded as a producing-step
    // trace, and that trace is a complete determinisation: replaying it
    // twice gives bit-identical iterates, both matching the live run.
    let n = 32;
    let op = quickstart_operator(n);
    let live = Session::new(&op)
        .steps(4_000_000)
        .seed(31)
        .stopping(StoppingRule::Residual {
            eps: 1e-10,
            check_every: 16,
        })
        .record(RecordMode::Full)
        .backend(ThreadedCluster {
            workers: 3,
            hold_prob: 0.3,
            drop_prob: 0.1,
            dup_prob: 0.05,
            partial_prob: 0.4,
            ..ThreadedCluster::default()
        })
        .run()
        .unwrap();
    let trace = live.trace.clone().unwrap();
    let replay = |t: Trace| Session::new(&op).replay_trace(t).unwrap().run().unwrap();
    let (a, b) = (replay(trace.clone()), replay(trace));
    for i in 0..n {
        assert_eq!(
            a.final_x[i].to_bits(),
            b.final_x[i].to_bits(),
            "replay of the threaded trace is not deterministic at component {i}"
        );
        assert_eq!(
            live.final_x[i].to_bits(),
            a.final_x[i].to_bits(),
            "live threaded run diverges from its own trace at component {i}"
        );
    }
}

#[test]
fn threaded_single_worker_matches_sequential_cluster_bitwise() {
    // One free-running worker with a faultless transport executes the
    // sequential cluster's exact step sequence (both engines step the
    // same `runtime::Worker`), so the concurrency layer must be a
    // bitwise no-op at workers = 1.
    let op = quickstart_operator(24);
    let steps = 300;
    let threaded = Session::new(&op)
        .steps(steps)
        .backend(ThreadedCluster {
            workers: 1,
            ..ThreadedCluster::default()
        })
        .run()
        .unwrap();
    let cluster = Session::new(&op)
        .steps(steps)
        .backend(Cluster {
            workers: 1,
            ..Cluster::default()
        })
        .run()
        .unwrap();
    assert_eq!(threaded.steps, steps);
    assert_eq!(cluster.steps, steps);
    for i in 0..op.dim() {
        assert_eq!(
            threaded.final_x[i].to_bits(),
            cluster.final_x[i].to_bits(),
            "threaded vs sequential cluster at component {i}"
        );
    }
    assert_eq!(
        threaded.final_residual.to_bits(),
        cluster.final_residual.to_bits()
    );
}

/// Everything a run computes, bit for bit (not what it keeps: the trace).
fn computed(r: &RunReport) -> impl PartialEq + std::fmt::Debug {
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let residuals: Vec<_> = r.residuals.iter().map(|s| (s.0, s.1.to_bits())).collect();
    let partials = (
        r.partial_publishes,
        r.partial_reads,
        r.constraint_checked,
        r.constraint_violations,
    );
    let stop = (r.steps, r.stopped_early, r.macro_iterations);
    let sim = (r.sim_time, r.per_worker_updates.clone());
    let channel = r.channel.clone();
    (bits(&r.final_x), residuals, stop, partials, sim, channel)
}

/// `procs` simulated processors with jittered compute times and links.
fn jittered_sim(n: usize, procs: usize, inner_steps: usize) -> SimConfig {
    SimConfig {
        compute: vec![ComputeModel::Uniform { lo: 1, hi: 5 }; procs],
        latency: LatencyModel::Jitter { lo: 1, hi: 9 },
        inner_steps,
        ..SimConfig::uniform(Partition::blocks(n, procs).unwrap())
    }
}

#[test]
fn sim_with_inner_steps_matches_flexible_on_its_own_trace() {
    // The local inner iterations between exchanges are executed
    // identically by both engines: a phase of `m` inner steps is one
    // scheduled step of `Flexible { m, partial: false }`, which at
    // `m = 1` is `Replay`.
    let op = quickstart_operator(12);
    for m in [1, 2, 3] {
        let sim = Session::new(&op)
            .steps(300)
            .seed(17)
            .record(RecordMode::Full)
            .backend(Sim(jittered_sim(12, 3, m)))
            .run()
            .unwrap();
        let flexible = Session::new(&op)
            .replay_trace(sim.trace.clone().unwrap())
            .unwrap()
            .backend(Flexible {
                m,
                partial: false,
                ..Flexible::default()
            })
            .run()
            .unwrap();
        let bits = |r: &RunReport| r.final_x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sim), bits(&flexible), "m = {m}");
        assert_eq!(sim.steps, flexible.steps, "m = {m}");
        assert_eq!(sim.macro_iterations, flexible.macro_iterations, "m = {m}");
        assert!(sim.macro_iterations > 0);
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
        // One free-running worker is deterministic.
        ("threaded-cluster", 1),
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
                "sim" => session.backend(Sim(jittered_sim(24, workers, 2))),
                "threaded-cluster" => session.backend(ThreadedCluster {
                    workers,
                    ..ThreadedCluster::default()
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
        assert_eq!(off.sim_time.is_some(), backend == "sim");
        let has_channel = matches!(backend, "cluster" | "threaded-cluster");
        assert_eq!(off.channel.is_some(), has_channel, "{backend}");
        for mode in [RecordMode::MinOnly, RecordMode::Full] {
            let kept = run(mode);
            assert_eq!(computed(&kept), computed(&off), "{backend} {mode:?}");
            assert!(kept.trace.is_some(), "{backend} {mode:?}");
            let offline = macro_iterations(kept.trace.as_ref().unwrap()).count();
            assert_eq!(offline as u64, off.macro_iterations, "{backend} {mode:?}");
        }
    }
}

#[test]
fn every_backend_answers_bad_input_with_the_same_typed_error() {
    // One opening: what `RunControl::check` rejects is the same error
    // whichever engine the session names. `SharedMem`, `Barrier` and
    // `ThreadedCluster` used to spend the whole budget on the first
    // three rows and return `Ok`.
    let op = quickstart_operator(8);
    let backend = |name: &str| -> Box<dyn Backend> {
        match name {
            "replay" => Box::new(Replay),
            "flexible" => Box::new(Flexible::default()),
            "shared-mem" => Box::new(SharedMem {
                threads: 2,
                ..SharedMem::default()
            }),
            "barrier" => Box::new(Barrier {
                threads: 2,
                ..Barrier::default()
            }),
            "sim" => Box::new(Sim(jittered_sim(8, 2, 1))),
            "cluster" => Box::new(Cluster {
                workers: 2,
                ..Cluster::default()
            }),
            _ => Box::new(ThreadedCluster {
                workers: 2,
                ..ThreadedCluster::default()
            }),
        }
    };
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
    for name in [
        "replay",
        "flexible",
        "shared-mem",
        "barrier",
        "sim",
        "cluster",
        "threaded-cluster",
    ] {
        for (bad, expected) in &rows {
            let session = Session::new(&op).steps(20_000).backend(backend(name));
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
        for l in labels {
            assert_eq!(
                h.value_at(i, l).to_bits(),
                scan(i, l).to_bits(),
                "component {i}, label {l}"
            );
        }
    }
    let mut out = [0.0; 5];
    for _ in 0..200 {
        let labels: Vec<u64> = logs
            .iter()
            .map(|log| draw() % (log.last().unwrap().0 + 2))
            .collect();
        h.assemble(&labels, &mut out);
        for (i, (&l, &o)) in labels.iter().zip(&out).enumerate() {
            assert_eq!(
                o.to_bits(),
                h.value_at(i, l).to_bits(),
                "component {i}, label {l}"
            );
        }
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
