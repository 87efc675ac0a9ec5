//! Application-level integration: the paper's surveyed domains running
//! on the workspace engines — through the unified `Session` API wherever
//! a backend exists — checked against independent references.

use asynciter::models::channel::LinkModel;
use asynciter::opt::bellman_ford::{BellmanFordOperator, Graph};
use asynciter::opt::network_flow::{NetworkFlowProblem, PriceRelaxation};
use asynciter::opt::newton::DiagNewton;
use asynciter::opt::obstacle::{ObstacleProblem, ProjectedJacobi};
use asynciter::prelude::*;
use asynciter::sim::compute::ComputeModel;

/// Network flow: the asynchronous dual relaxation recovers the exact
/// optimal flows under severe delays, certified by the Perron weights of
/// its iteration matrix although it is no `‖·‖_∞` contraction.
#[test]
fn network_flow_async_matches_exact_dual() {
    use asynciter::core::theory::{perron_weights, weighted_norm_bound};

    let problem = NetworkFlowProblem::random(20, 28, 77).unwrap();
    let exact = problem.exact_prices(0).unwrap();
    let op = PriceRelaxation::new(problem.clone(), 0).unwrap();
    let n = problem.num_nodes();

    let m = op.iteration_matrix();
    let (_, sigma) = perron_weights(&m, 20_000).unwrap();
    let inf_norm = weighted_norm_bound(&m, &vec![1.0; n]);
    assert!(
        sigma < 1.0 && 1.0 - 1e-12 <= inf_norm,
        "σ = {sigma}, ‖M‖_∞ = {inf_norm}"
    );

    let run = Session::new(&op)
        .steps(200_000)
        .schedule(ChaoticBounded::new(n, n / 4, n / 2, 24, false, 8))
        .backend(Replay)
        .run()
        .unwrap();
    assert!(problem.balance_residual(&run.final_x) < 1e-8);
    let f_async = problem.flows(&run.final_x);
    let f_exact = problem.flows(&exact);
    assert!(asynciter::numerics::vecops::max_abs_diff(&f_async, &f_exact) < 1e-7);
}

/// Obstacle problem: asynchronous projected relaxation solves the LCP.
#[test]
fn obstacle_async_solves_lcp() {
    let problem = ObstacleProblem::bump(16, 16, 0.55).unwrap();
    let reference = problem.reference_solution(1e-12, 200_000).unwrap();
    let n = problem.dim();
    let op = ProjectedJacobi::new(problem);

    let run = Session::new(&op)
        .steps(20_000_000)
        .schedule(ChaoticBounded::new(n, n / 8, n / 2, 16, false, 12))
        .x0(op.upper_start())
        .xstar(reference)
        .stopping(StoppingRule::ErrorBelow {
            eps: 1e-9,
            check_every: n as u64,
        })
        .backend(Replay)
        .run()
        .unwrap();
    assert!(run.stopped_early);
    let (feas, resid, comp) = op.problem().complementarity_residuals(&run.final_x);
    assert!(feas < 1e-8 && resid < 1e-4 && comp < 1e-4);
}

/// The projected relaxation is monotone, so from the super-solution every
/// update decreases its component — as long as reads arrive in order. An
/// out-of-order read re-reads an older, larger snapshot and can produce a
/// larger value; convergence (conditions (a)–(c)) is untouched either way.
#[test]
fn obstacle_fifo_reads_decrease_monotonically() {
    use std::sync::Mutex;

    /// Delegates to the operator and counts the updates that come out
    /// larger than the value they replace.
    struct Increases<'a> {
        op: &'a ProjectedJacobi,
        last_and_count: Mutex<(Vec<f64>, u64)>,
    }
    impl Increases<'_> {
        fn note(&self, active: &[usize], out: &[f64]) {
            let (last, count) = &mut *self.last_and_count.lock().unwrap();
            for &i in active {
                *count += u64::from(out[i] > last[i] + 1e-12);
                last[i] = out[i];
            }
        }
    }
    impl Operator for Increases<'_> {
        fn dim(&self) -> usize {
            self.op.dim()
        }
        fn component(&self, i: usize, x: &[f64]) -> f64 {
            self.op.component(i, x)
        }
        fn apply(&self, x: &[f64], out: &mut [f64]) {
            self.op.apply(x, out);
        }
        fn update_active(&self, x: &[f64], active: &[usize], out: &mut [f64]) {
            self.op.update_active(x, active, out);
            self.note(active, out);
        }
        fn residual_inf(&self, x: &[f64]) -> f64 {
            self.op.residual_inf(x)
        }
        fn scratch_len(&self) -> usize {
            self.op.scratch_len()
        }
        fn update_active_with(&self, x: &[f64], active: &[usize], out: &mut [f64], s: &mut [f64]) {
            self.op.update_active_with(x, active, out, s);
            self.note(active, out);
        }
        fn apply_with(&self, x: &[f64], out: &mut [f64], s: &mut [f64]) {
            self.op.apply_with(x, out, s);
        }
        fn residual_inf_with(&self, x: &[f64], s: &mut [f64]) -> f64 {
            self.op.residual_inf_with(x, s)
        }
    }

    let op = ProjectedJacobi::new(ObstacleProblem::bump(16, 16, 0.6).unwrap());
    let n = op.dim();
    let increases = |fifo: bool| {
        let counted = Increases {
            op: &op,
            last_and_count: Mutex::new((op.upper_start(), 0)),
        };
        Session::new(&counted)
            .steps(2_000)
            .schedule(ChaoticBounded::new(n, n / 4, n / 2, 10, fifo, 2027))
            .x0(op.upper_start())
            .backend(Replay)
            .run()
            .unwrap();
        counted.last_and_count.into_inner().unwrap().1
    };
    assert_eq!(increases(true), 0, "FIFO reads");
    assert!(increases(false) > 0, "out-of-order reads");
}

/// Bellman–Ford over the simulator backend: heterogeneous processors
/// with heavy-tailed compute times and jittered links still route
/// exactly.
#[test]
fn bellman_ford_on_simulator_routes_exactly() {
    let op = BellmanFordOperator::new(Graph::arpanet(), 0).unwrap();
    let exact = op.exact();

    let sim = Sim {
        compute: vec![
            ComputeModel::Fixed { ticks: 1 },
            ComputeModel::Uniform { lo: 1, hi: 4 },
            ComputeModel::HeavyTail {
                scale: 1,
                alpha: 1.4,
            },
            ComputeModel::Fixed { ticks: 2 },
            ComputeModel::Uniform { lo: 2, hi: 6 },
            ComputeModel::Baudet { scale: 1 },
        ],
        link: LinkModel::Jitter { lo: 0, hi: 9 },
        ..Sim::uniform(6)
    };
    let run = Session::new(&op)
        .x0(op.initial_estimate())
        .steps(4_000)
        .seed(3)
        .backend(sim)
        .run()
        .unwrap();
    for (i, (got, want)) in run.final_x.iter().zip(&exact).enumerate() {
        assert!((got - want).abs() < 1e-9, "node {i}");
    }
    assert!(run.sim_time.is_some());
}

/// Message-passing Bellman–Ford under the nastiest channel settings the
/// runner supports.
#[test]
fn bellman_ford_message_passing_hostile_channel() {
    let graph = Graph::random_geometric(30, 0.3, 17).unwrap();
    let op = BellmanFordOperator::new(graph, 5).unwrap();
    let exact = op.exact();
    let res = Session::new(&op)
        .x0(op.initial_estimate())
        .steps(5 * 600)
        .seed(23)
        .backend(Cluster {
            workers: 5,
            hold_prob: 0.5,
            drop_prob: 0.3,
            dup_prob: 0.2,
            ..Cluster::default()
        })
        .run()
        .unwrap();
    for (i, (got, want)) in res.final_x.iter().zip(&exact).enumerate() {
        assert!((got - want).abs() < 1e-9, "node {i}");
    }
}

/// Modified Newton under asynchronous delays agrees with the gradient
/// operator's fixed point and gets there faster on ill-conditioned
/// problems.
#[test]
fn newton_and_gradient_share_fixed_point_async() {
    use asynciter::opt::proxgrad::{gamma_max, GradientOperator};
    use asynciter::opt::quadratic::SeparableQuadratic;
    let n = 24;
    let f = SeparableQuadratic::random(n, 1.0, 64.0, 13).unwrap();
    let xstar = f.minimizer();
    let newton = DiagNewton::at_reference(f.clone(), &vec![0.0; n], 0.9).unwrap();
    let grad = GradientOperator::new(f, gamma_max(1.0, 64.0)).unwrap();

    let run_steps = |op: &dyn Operator, steps: u64, seed: u64| {
        Session::new(op)
            .steps(steps)
            .schedule(ChaoticBounded::new(n, n / 4, n / 2, 12, false, seed))
            .backend(Replay)
            .run()
            .unwrap()
            .final_x
    };
    let xn = run_steps(&newton, 4_000, 3);
    let xg = run_steps(&grad, 80_000, 3);
    assert!(
        asynciter::numerics::vecops::max_abs_diff(&xn, &xstar) < 1e-9,
        "newton"
    );
    assert!(
        asynciter::numerics::vecops::max_abs_diff(&xg, &xstar) < 1e-6,
        "gradient"
    );
}

/// Asynchrony copes with load imbalance (§II): the simulated time `Sim`
/// needs to reach `‖x − x*‖ ≤ 1e-6` against the idealised barrier
/// method — sequential Jacobi sweeps × the slowest worker's phase, the
/// barrier itself free. The ratio falls as the slowest worker slows
/// 1 → 8× and ends below 1.
#[test]
fn sim_async_beats_ideal_sync_under_load_imbalance() {
    use asynciter::opt::linear::JacobiOperator;
    use asynciter::runtime::imbalance::linear_imbalance;

    let (grid, workers, eps) = (12, 4, 1e-6);
    let n = grid * grid;
    let laplacian = asynciter::numerics::sparse::laplacian_2d(grid, grid, 1.0);
    let op = JacobiOperator::new(laplacian, vec![1.0; n]).unwrap();
    let xstar = op.solve_dense_spd().unwrap();
    let to_eps = |check_every| StoppingRule::ErrorBelow { eps, check_every };
    let sweeps = Session::new(&op)
        .steps(1_000_000)
        .xstar(xstar.clone())
        .stopping(to_eps(1))
        .backend(Replay)
        .run()
        .unwrap();
    assert!(sweeps.stopped_early);

    let ratios: Vec<f64> = [1.0, 2.0, 4.0, 8.0]
        .into_iter()
        .map(|factor| {
            let ticks = linear_imbalance(workers, 10, factor);
            let sim = Sim {
                compute: ticks
                    .iter()
                    .map(|&ticks| ComputeModel::Fixed { ticks })
                    .collect(),
                ..Sim::uniform(workers)
            };
            let run = Session::new(&op)
                .steps(40 * sweeps.steps * workers as u64)
                .xstar(xstar.clone())
                .stopping(to_eps(workers as u64))
                .backend(sim)
                .run()
                .unwrap();
            assert!(run.stopped_early, "{factor}x imbalance did not reach eps");
            let ideal_sync = sweeps.steps * ticks.iter().max().unwrap();
            run.sim_time.unwrap() as f64 / ideal_sync as f64
        })
        .collect();
    assert!(ratios.windows(2).all(|w| w[1] < w[0]), "{ratios:?}");
    assert!(ratios[3] < 1.0, "{ratios:?}");
}

/// Flexible communication (Definition 3) helps: publishing the inner
/// iterates of a phase after every inner step (`p = 1`) never needs more
/// outer steps to reach `‖x − x*‖ ≤ 1e-10` than publishing only at the
/// end (`p = m`, standard asynchronous), and needs clearly fewer for
/// some `m`.
#[test]
fn flexible_publishing_never_needs_more_outer_steps() {
    use asynciter::opt::linear::JacobiOperator;

    let n = 32;
    let op = JacobiOperator::new(
        asynciter::numerics::sparse::tridiagonal(n, 4.0, -1.0),
        vec![1.0; n],
    )
    .unwrap();
    let xstar = op.solve_dense_spd().unwrap();
    let outer_steps = |m: usize, p: usize| {
        let run = Session::new(&op)
            .steps(100_000)
            .schedule(BlockRoundRobin::new(Partition::blocks(n, 8).unwrap(), 10))
            .xstar(xstar.clone())
            .stopping(StoppingRule::ErrorBelow {
                eps: 1e-10,
                check_every: 1,
            })
            .seed(2022)
            .backend(Flexible {
                m,
                partial: true,
                publish_period: Some(p),
                ..Flexible::default()
            })
            .run()
            .unwrap();
        assert!(run.stopped_early, "m = {m}, p = {p}");
        run.steps
    };
    let gains: Vec<f64> = [2, 4, 8, 16]
        .into_iter()
        .map(|m| outer_steps(m, m) as f64 / outer_steps(m, 1) as f64)
        .collect();
    assert!(gains.iter().all(|&g| g >= 1.0), "{gains:?}");
    assert!(gains.iter().any(|&g| g > 1.05), "{gains:?}");
}

/// The simulator and the analytic Baudet construction agree on the
/// delay-growth exponent (two independent implementations of §II).
#[test]
fn baudet_simulator_and_analytic_agree() {
    use asynciter::models::analysis::delay_growth_exponent;
    use asynciter::models::baudet::{baudet_trace, p1_read_delays};
    use asynciter::sim::scenario;

    let analytic = baudet_trace(60_000);
    let (_, p_analytic, _) = delay_growth_exponent(&p1_read_delays(&analytic), 1024).unwrap();

    let op = scenario::two_component_operator();
    let sim = Session::new(&op)
        .x0(vec![0.0, 0.0])
        .steps(60_000)
        .record(RecordMode::Full)
        .backend(scenario::baudet())
        .run()
        .unwrap();
    let trace = sim.trace.expect("trace recorded");
    let series: Vec<(u64, u64)> = asynciter::models::analysis::delay_series(&trace, 1)
        .unwrap()
        .into_iter()
        .zip(trace.iter())
        .filter(|(_, (_, s))| s.active == [0])
        .map(|(d, _)| d)
        .collect();
    let (_, p_sim, _) = delay_growth_exponent(&series, 1024).unwrap();

    assert!((p_analytic - 0.5).abs() < 0.1, "analytic {p_analytic}");
    assert!((p_sim - 0.5).abs() < 0.12, "simulated {p_sim}");
    assert!((p_analytic - p_sim).abs() < 0.1, "implementations disagree");
}

/// Sparse (ℓ₁-regularised) logistic regression — the full §V machine-
/// learning composite `f + g` with a coupled non-quadratic `f` — solved
/// by the asynchronous forward–backward operator under out-of-order
/// delays, validated against its own KKT conditions.
#[test]
fn sparse_logistic_async_forward_backward() {
    use asynciter::opt::logistic::LogisticRegression;
    use asynciter::opt::prox::L1;
    use asynciter::opt::proxgrad::ForwardBackward;
    use asynciter::opt::traits::SmoothObjective;

    let n = 16;
    let model = LogisticRegression::random(n, 300, 2.0, 0.05, 99).unwrap();
    // Strong enough to zero out the weakest coordinates while the class
    // separation keeps accuracy high.
    let lambda = 0.2;
    let gamma = 1.0 / model.lipschitz();
    let op = ForwardBackward::new(model.clone(), L1::new(lambda), gamma).unwrap();

    let run = Session::new(&op)
        .steps(60_000)
        .schedule(ChaoticBounded::new(n, n / 4, n / 2, 16, false, 7))
        .backend(Replay)
        .run()
        .unwrap();
    let x = &run.final_x;
    // KKT of min f + λ‖·‖₁ at the fixed point of FB.
    let mut grad = vec![0.0; n];
    model.grad(x, &mut grad);
    for i in 0..n {
        if x[i] > 1e-9 {
            assert!((grad[i] + lambda).abs() < 1e-6, "i={i}: {}", grad[i]);
        } else if x[i] < -1e-9 {
            assert!((grad[i] - lambda).abs() < 1e-6, "i={i}: {}", grad[i]);
        } else {
            assert!(grad[i].abs() <= lambda + 1e-6, "i={i}: {}", grad[i]);
        }
    }
    // The regulariser actually sparsifies relative to the ridge-only
    // reference.
    let nnz = x.iter().filter(|v| v.abs() > 1e-8).count();
    assert!(nnz < n, "L1 should zero out some coordinates (nnz = {nnz})");
    // And the model still classifies well.
    assert!(model.accuracy(x) > 0.85, "accuracy {}", model.accuracy(x));
}

/// Archived-trace workflow: record a threaded run, serialise the trace,
/// read it back, and deterministically replay it.
#[test]
fn archive_and_replay_threaded_trace() {
    use asynciter::models::trace_io::{trace_from_str, trace_to_string};
    use asynciter::opt::linear::JacobiOperator;

    let n = 16;
    let op = JacobiOperator::new(
        asynciter::numerics::sparse::tridiagonal(n, 4.0, -1.0),
        vec![1.0; n],
    )
    .unwrap();
    let xstar = op.solve_dense_spd().unwrap();
    // Record until the run actually converged: the schedule then provably
    // contains enough macro-iteration structure for the replay to
    // converge too, regardless of how coarsely the OS interleaves the
    // workers (on a single-core host a fixed small budget can be spent
    // almost entirely by one worker).
    let run = Session::new(&op)
        .steps(500_000)
        .stopping(StoppingRule::Residual {
            eps: 1e-13,
            check_every: 32,
        })
        .record(RecordMode::Full)
        .backend(SharedMem {
            threads: 4,
            spin: vec![300; 4],
            ..SharedMem::default()
        })
        .run()
        .unwrap();
    let trace = run.trace.unwrap();

    let archived = trace_to_string(&trace).unwrap();
    let restored = trace_from_str(&archived).unwrap();
    let steps = restored.len() as u64;
    let rep = Session::new(&op)
        .steps(steps)
        .schedule(RecordedSchedule::new(restored).unwrap())
        .xstar(xstar.clone())
        .backend(Replay)
        .run()
        .unwrap();
    let err = rep.final_error(&xstar);
    assert!(
        err < 1e-5,
        "replayed archived schedule did not converge: {err}"
    );
}
