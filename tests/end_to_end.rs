//! End-to-end integration: the full pipeline from problem construction
//! through asynchronous execution to trace analysis and Theorem-1
//! verification, across crate boundaries — all runs expressed through
//! the unified `Session` API.

use asynciter::core::theory;
use asynciter::models::conditions::{check_condition_a, check_condition_c};
use asynciter::models::epoch::epoch_sequence;
use asynciter::models::macroiter::{
    boundary_freshness_violations, macro_iterations, macro_iterations_strict,
};
use asynciter::numerics::vecops;
use asynciter::opt::prox::L1;
use asynciter::opt::proxgrad::{gamma_max, SeparableProxGrad, SparseProxGrad};
use asynciter::opt::quadratic::{SeparableQuadratic, SparseQuadratic};
use asynciter::prelude::*;

/// The paper's headline pipeline: Definition-4 operator + admissible
/// schedule → replay → strict macro-iterations → inequality (5).
#[test]
fn theorem1_pipeline_separable() {
    let n = 48;
    let f = SeparableQuadratic::random(n, 1.0, 6.0, 11).unwrap();
    let gamma = gamma_max(1.0, 6.0);
    let op = SeparableProxGrad::new(f, L1::new(0.1), gamma).unwrap();
    let rho = op.rho();
    let (xstar, _) = op.solve_exact().unwrap();
    let x0 = vec![0.0; n];

    let run = Session::new(&op)
        .steps(12_000)
        .schedule(UnboundedSqrtDelay::new(n, n / 4, n / 2, 1.0, 5))
        .x0(x0.clone())
        .xstar(xstar.clone())
        .error_every(50)
        .record(RecordMode::Full)
        .backend(Replay)
        .run()
        .unwrap();

    let trace = run.trace.as_ref().expect("trace recorded");
    check_condition_a(trace).unwrap();
    let macros = macro_iterations_strict(trace);
    assert!(macros.count() > 5, "macro-iterations must complete");
    assert_eq!(boundary_freshness_violations(trace, &macros.boundaries), 0);
    let r0 = theory::initial_error_sq(&x0, &xstar);
    let worst = theory::thm1_worst_ratio(&run.errors, &macros, rho, r0, 1e-12);
    assert!(worst <= 1.0, "Theorem 1 violated: {worst}");
}

/// Flexible communication with constraint-(3) enforcement is a certified
/// Definition-3 iteration: it converges and obeys the bound.
#[test]
fn theorem1_pipeline_flexible() {
    let n = 32;
    let f = SeparableQuadratic::random(n, 1.0, 4.0, 3).unwrap();
    let gamma = gamma_max(1.0, 4.0);
    let op = SeparableProxGrad::new(f, L1::new(0.05), gamma).unwrap();
    let rho = op.rho();
    let (xstar, _) = op.solve_exact().unwrap();
    let x0 = vec![0.0; n];

    let run = Session::new(&op)
        .steps(3_000)
        .schedule(BlockRoundRobin::new(Partition::blocks(n, 4).unwrap(), 6))
        .x0(x0.clone())
        .xstar(xstar.clone())
        .error_every(20)
        .record(RecordMode::Full)
        .backend(Flexible {
            m: 4,
            partial: true,
            publish_period: Some(1),
            enforce_constraint: true,
            ..Flexible::default()
        })
        .run()
        .unwrap();
    assert!(run.partial_reads > 0, "partials must actually be consumed");

    let trace = run.trace.as_ref().expect("trace recorded");
    let macros = macro_iterations_strict(trace);
    let r0 = theory::initial_error_sq(&x0, &xstar);
    let worst = theory::thm1_worst_ratio(&run.errors, &macros, rho, r0, 1e-12);
    assert!(
        worst <= 1.0,
        "Theorem 1 violated under flexible comm: {worst}"
    );
    assert!(run.final_error(&xstar) < 1e-9);
}

/// Threaded runtime → recorded trace → offline analysis → deterministic
/// replay of the *same* schedule through the replay backend.
#[test]
fn threaded_trace_analysis_and_replay() {
    let n = 32;
    let f = SparseQuadratic::random_diag_dominant(n, 3, 0.4, 1.0, 9).unwrap();
    use asynciter::opt::traits::SmoothObjective;
    let gamma = 0.9 * gamma_max(f.strong_convexity(), f.lipschitz());
    let op = SparseProxGrad::new(f, L1::new(0.05), gamma).unwrap();
    let (xstar, _) = op.solve_exact().unwrap();
    let partition = Partition::blocks(n, 4).unwrap();

    // Run until the residual target is met so the recorded schedule is
    // guaranteed to contain a converging macro-iteration structure even
    // on single-core hosts where thread interleaving is coarse.
    let run = Session::new(&op)
        .steps(400_000)
        .stopping(StoppingRule::Residual {
            eps: 1e-12,
            check_every: 64,
        })
        .record(RecordMode::Full)
        .backend(SharedMem {
            threads: 4,
            spin: vec![200; 4],
            ..SharedMem::default()
        })
        .run()
        .unwrap();
    let trace = run.trace.expect("trace recorded");

    // Offline analysis: condition (a), coverage, macro/epoch structure.
    check_condition_a(&trace).unwrap();
    check_condition_c(&trace, trace.len() as u64).unwrap();
    let lit = macro_iterations(&trace);
    let strict = macro_iterations_strict(&trace);
    assert!(lit.count() >= strict.count());
    assert_eq!(boundary_freshness_violations(&trace, &strict.boundaries), 0);
    let epochs = epoch_sequence(&trace, &partition, 2);
    assert!(epochs.count() >= strict.count());

    // Deterministic replay of the recorded schedule reproduces a
    // convergent run (values need not match the racy original, but the
    // schedule is admissible so the replay must converge too).
    let steps = trace.len() as u64;
    let rep = Session::new(&op)
        .steps(steps)
        .schedule(RecordedSchedule::new(trace).unwrap())
        .xstar(xstar.clone())
        .backend(Replay)
        .run()
        .unwrap();
    let err = rep.final_error(&xstar);
    assert!(err < 1e-6, "replayed schedule did not converge: {err}");
}

/// The \[15\]-style macro-contraction stopping rule certifies its target
/// accuracy for a coupled prox-gradient operator under out-of-order
/// delays.
#[test]
fn macro_contraction_stopping_certifies() {
    let n = 24;
    let f = SparseQuadratic::random_diag_dominant(n, 3, 0.3, 1.0, 21).unwrap();
    use asynciter::opt::traits::SmoothObjective;
    let gamma = 0.9 * gamma_max(f.strong_convexity(), f.lipschitz());
    let op = SparseProxGrad::new(f, L1::new(0.1), gamma).unwrap();
    let (xstar, _) = op.solve_exact().unwrap();
    let alpha = op.contraction_factor();
    let eps = 1e-7;

    let run = Session::new(&op)
        .steps(10_000_000)
        .schedule(ChaoticBounded::new(n, n / 4, n / 2, 16, false, 2))
        .stopping(StoppingRule::MacroContraction {
            eps,
            alpha,
            norm: WeightedMaxNorm::uniform(n),
        })
        .backend(Replay)
        .run()
        .unwrap();
    assert!(run.stopped_early);
    let err = run.final_error(&xstar);
    assert!(err <= eps, "certified {eps} but true error {err}");
}

/// Sanity: the same operator under five different delay regimes lands on
/// the same fixed point — one session per schedule, nothing else varies.
#[test]
fn all_regimes_agree_on_the_fixed_point() {
    let n = 24;
    let f = SparseQuadratic::random_diag_dominant(n, 3, 0.4, 1.0, 31).unwrap();
    use asynciter::opt::traits::SmoothObjective;
    let gamma = 0.8 * gamma_max(f.strong_convexity(), f.lipschitz());
    let op = SparseProxGrad::new(f, L1::new(0.08), gamma).unwrap();
    let (xstar, _) = op.solve_exact().unwrap();

    let gens: Vec<Box<dyn ScheduleGen>> = vec![
        Box::new(SyncJacobi::new(n)),
        Box::new(CyclicCoordinate::new(n)),
        Box::new(ChaoticBounded::new(n, n / 4, n / 2, 20, false, 4)),
        Box::new(UnboundedSqrtDelay::new(n, n / 4, n / 2, 1.5, 5)),
        Box::new(HeavyTailDelay::new(n, n / 4, n / 2, 1.3, 6)),
    ];
    for gen in gens {
        let desc = gen.describe();
        let run = Session::new(&op)
            .steps(30_000)
            .schedule(gen)
            .backend(Replay)
            .run()
            .unwrap();
        let err = vecops::max_abs_diff(&run.final_x, &xstar);
        assert!(err < 1e-8, "{desc}: error {err}");
    }
}

/// Pins the exact bits of one sparse prox-gradient solve: the
/// `replay_sparse` benchmark family (`random_diag_dominant(n, 8, 0.4,
/// 1.0)`, `L1(0.1)`, `γ = 0.9·γ_max`, `√j`-growing out-of-order delays)
/// at `n = 1024`, replayed to a `1e-8` residual. The gate pins bits only
/// on the dense `n = 12` lasso and the benchmark pins are counts, which
/// a one-ulp change in the sparse kernel need not move; this digest of
/// the final iterate does.
#[test]
fn sparse_replay_solve_keeps_its_bits() {
    use asynciter::opt::traits::SmoothObjective;
    use asynciter::report::hash_f64s;
    let n = 1024;
    let f = SparseQuadratic::random_diag_dominant(n, 8, 0.4, 1.0, 2022).unwrap();
    let gamma = 0.9 * gamma_max(f.strong_convexity(), f.lipschitz());
    let op = SparseProxGrad::new(f, L1::new(0.1), gamma).unwrap();
    let run = Session::new(&op)
        .steps(1_000_000)
        .schedule(UnboundedSqrtDelay::new(n, n / 8, n / 4, 1.0, 2022))
        .stopping(StoppingRule::Residual {
            eps: 1e-8,
            check_every: 16,
        })
        .backend(Replay)
        .run()
        .unwrap();
    assert!(run.stopped_early, "no 1e-8 residual in {} steps", run.steps);
    assert_eq!(
        (run.steps, hash_f64s(&run.final_x)),
        (784, 0x407d_0e36_cf9c_826b)
    );
}
