//! **T1** — Theorem 1: the `(1 − ρ)^k` macro-iteration envelope.
//!
//! Paper claim (Eq. (5)): for the Definition-4 operator with
//! `γ ∈ (0, 2/(μ+L)]`, every asynchronous iteration with flexible
//! communication satisfies, for all `j ≥ j_k`,
//!
//! ```text
//! ‖x(j) − x*‖² ≤ (1 − γμ)^k · max_i ‖x_i(0) − x_i*‖² .
//! ```
//!
//! The experiment measures error curves of the *same* operator under
//! every delay regime the paper discusses — synchronous, chaotic bounded
//! (FIFO and out-of-order), unbounded `√j`, heavy-tailed, and flexible
//! communication with partial updates — computes the strict
//! macro-iteration sequence of each recorded trace, and reports the
//! worst observed ratio `measured² / bound` (must be ≤ 1 everywhere).
//! Both the paper's exact setting (separable `f`) and the coupled
//! diagonally-dominant lasso case are exercised.

use crate::ExpContext;
use asynciter_core::session::{Flexible, RecordMode, Replay, Session};
use asynciter_core::theory;
use asynciter_models::macroiter::macro_iterations_strict;
use asynciter_models::partition::Partition;
use asynciter_models::schedule::{
    BlockRoundRobin, ChaoticBounded, ScheduleGen, SyncJacobi, UnboundedSqrtDelay,
};
use asynciter_opt::lasso::LassoProblem;
use asynciter_opt::prox::L1;
use asynciter_opt::proxgrad::{gamma_max, SeparableProxGrad, SparseProxGrad};
use asynciter_opt::quadratic::SeparableQuadratic;
use asynciter_opt::traits::{Operator, SmoothObjective};
use asynciter_report::ascii::{log_line_chart, ChartSeries};
use asynciter_report::csv::CsvWriter;
use asynciter_report::table::TextTable;

struct Case {
    name: String,
    errors: Vec<(u64, f64)>,
    macros: usize,
    worst_ratio: f64,
}

fn run_case(
    name: &str,
    op: &dyn Operator,
    gen: &mut dyn ScheduleGen,
    steps: u64,
    rho: f64,
    xstar: &[f64],
    x0: &[f64],
) -> Case {
    let res = Session::new(op)
        .steps(steps)
        .schedule(&mut *gen)
        .x0(x0.to_vec())
        .xstar(xstar.to_vec())
        .error_every((steps / 200).max(1))
        .record(RecordMode::Full)
        .backend(Replay)
        .run()
        .expect("replay");
    let macros = macro_iterations_strict(res.trace.as_ref().expect("trace"));
    let r0_sq = theory::initial_error_sq(x0, xstar);
    // Skip samples at the f64 saturation floor (see thm1_worst_ratio docs).
    let floor = 1e-12 * r0_sq.sqrt().max(1.0);
    let worst = theory::thm1_worst_ratio(&res.errors, &macros, rho, r0_sq, floor);
    Case {
        name: name.to_string(),
        errors: res
            .errors
            .iter()
            .map(|&(j, e)| (macros.index_of(j) as u64, e))
            .collect(),
        macros: macros.count(),
        worst_ratio: worst,
    }
}

/// Runs T1.
#[allow(clippy::vec_init_then_push)]
pub fn run(seed: u64, quick: bool) {
    let mut ctx = ExpContext::new("T1", seed);
    let n = if quick { 32 } else { 128 };
    let steps: u64 = if quick { 4_000 } else { 40_000 };

    // ---- Part A: the paper's exact setting (separable f, L1 g). ----
    let (mu, l) = (1.0, 8.0);
    let f = SeparableQuadratic::random(n, mu, l, seed).expect("instance");
    let gamma = gamma_max(mu, l);
    let op = SeparableProxGrad::new(f, L1::new(0.15), gamma).expect("operator");
    let rho = op.rho();
    let (xstar, _) = op.solve_exact().expect("fixed point");
    let x0 = vec![0.0; n];
    ctx.log(format!(
        "Part A: separable f (n={n}, mu={mu}, L={l}), gamma={gamma:.4}, rho=gamma*mu={rho:.4}, \
         contraction factor alpha={:.4}",
        op.contraction_factor()
    ));

    let mut cases: Vec<Case> = Vec::new();
    cases.push(run_case(
        "sync",
        &op,
        &mut SyncJacobi::new(n),
        steps / 10,
        rho,
        &xstar,
        &x0,
    ));
    cases.push(run_case(
        "chaotic-fifo(b=16)",
        &op,
        &mut ChaoticBounded::new(n, n / 4, n / 2, 16, true, seed),
        steps,
        rho,
        &xstar,
        &x0,
    ));
    cases.push(run_case(
        "chaotic-ooo(b=16)",
        &op,
        &mut ChaoticBounded::new(n, n / 4, n / 2, 16, false, seed + 1),
        steps,
        rho,
        &xstar,
        &x0,
    ));
    cases.push(run_case(
        "unbounded-sqrt",
        &op,
        &mut UnboundedSqrtDelay::new(n, n / 4, n / 2, 1.0, seed + 2),
        steps,
        rho,
        &xstar,
        &x0,
    ));

    // Flexible communication (Definition 3) with constraint enforcement.
    {
        let blocks = Partition::blocks(n, 8).expect("partition");
        let res = Session::new(&op)
            .steps(steps / 4)
            .schedule(BlockRoundRobin::new(blocks, 4))
            .x0(x0.clone())
            .xstar(xstar.clone())
            .error_every((steps / 800).max(1))
            .seed(seed + 3)
            .record(RecordMode::Full)
            .backend(Flexible {
                m: 3,
                publish_period: Some(1),
                enforce_constraint: true,
                ..Flexible::default()
            })
            .run()
            .expect("flexible run");
        let macros = macro_iterations_strict(res.trace.as_ref().expect("trace"));
        let r0_sq = theory::initial_error_sq(&x0, &xstar);
        let floor = 1e-12 * r0_sq.sqrt().max(1.0);
        let worst = theory::thm1_worst_ratio(&res.errors, &macros, rho, r0_sq, floor);
        ctx.log(format!(
            "flexible run: {} partial reads, {} publishes, {}/{} constraint-(3) violations \
             (before enforcement)",
            res.partial_reads,
            res.partial_publishes,
            res.constraint_violations,
            res.constraint_checked
        ));
        cases.push(Case {
            name: "flexible(m=3,p=1)".to_string(),
            errors: res
                .errors
                .iter()
                .map(|&(j, e)| (macros.index_of(j) as u64, e))
                .collect(),
            macros: macros.count(),
            worst_ratio: worst,
        });
    }

    let mut table = TextTable::new(&[
        "schedule",
        "macro-iters k",
        "worst err²/bound",
        "bound holds",
    ]);
    let mut csv = CsvWriter::new(&["part", "schedule", "macros", "worst_ratio", "holds"]);
    for c in &cases {
        table.row(&[
            c.name.clone(),
            c.macros.to_string(),
            format!("{:.3e}", c.worst_ratio),
            (c.worst_ratio <= 1.0).to_string(),
        ]);
        csv.row_strings(&[
            "A-separable".into(),
            c.name.clone(),
            c.macros.to_string(),
            format!("{:.6e}", c.worst_ratio),
            (c.worst_ratio <= 1.0).to_string(),
        ]);
        assert!(
            c.worst_ratio <= 1.0,
            "Theorem 1 bound violated by {}: ratio {}",
            c.name,
            c.worst_ratio
        );
    }
    ctx.log(table.render());

    // Chart: measured ‖x−x*‖² against the envelope, per macro index.
    let envelope: Vec<(f64, f64)> = (0..cases[1].macros.min(60))
        .map(|k| {
            (
                k as f64,
                theory::thm1_envelope(theory::initial_error_sq(&x0, &xstar), rho, k),
            )
        })
        .collect();
    let mut series = vec![ChartSeries::new("(1-rho)^k bound", envelope)];
    for c in cases.iter().skip(1) {
        series.push(ChartSeries::new(
            c.name.clone(),
            c.errors
                .iter()
                .map(|&(k, e)| (k as f64, e * e))
                .filter(|&(k, _)| k < 60.0)
                .collect(),
        ));
    }
    let chart = log_line_chart(
        &series,
        90,
        24,
        "T1 — ‖x(j) − x*‖² vs macro index k (log scale): all curves under the bound",
    );
    ctx.log(&chart);
    ctx.save("thm1_separable.txt", &chart);

    // ---- Part B: coupled lasso (diag-dominant Gram matrix). ----
    let bn = if quick { 24 } else { 64 };
    let lasso = LassoProblem::random(bn, 6 * bn, bn / 6, 0.05, 0.01, seed).expect("lasso");
    let q = lasso.quadratic.clone();
    let gammab = gamma_max(q.strong_convexity(), q.lipschitz());
    let rho_b = gammab * q.strong_convexity();
    let opb = SparseProxGrad::new(q, L1::new(lasso.lambda), gammab).expect("operator");
    let (xstar_b, pstar_b) = opb.solve_exact().expect("fixed point");
    let cd = lasso
        .reference_solution(1e-14, 200_000)
        .expect("CD reference");
    let agree = asynciter_numerics::vecops::max_abs_diff(&cd, &pstar_b);
    ctx.log(format!(
        "Part B: lasso n={bn} (ridge boost {:.3e}); prox-grad solution agrees with coordinate \
         descent to {agree:.2e}; rho={rho_b:.4}",
        lasso.ridge_boost
    ));
    assert!(agree < 1e-6, "reference solvers disagree: {agree}");

    let x0b = vec![0.0; bn];
    for (name, gen) in [
        (
            "chaotic-ooo(b=24)",
            Box::new(ChaoticBounded::new(bn, bn / 4, bn / 2, 24, false, seed + 9))
                as Box<dyn ScheduleGen>,
        ),
        (
            "unbounded-sqrt",
            Box::new(UnboundedSqrtDelay::new(bn, bn / 4, bn / 2, 1.0, seed + 10)),
        ),
    ] {
        let mut gen = gen;
        let c = run_case(name, &opb, gen.as_mut(), steps, rho_b, &xstar_b, &x0b);
        ctx.log(format!(
            "  lasso/{:<18} macros {:>5}   worst ratio {:.3e}   holds {}",
            c.name,
            c.macros,
            c.worst_ratio,
            c.worst_ratio <= 1.0
        ));
        csv.row_strings(&[
            "B-lasso".into(),
            c.name.clone(),
            c.macros.to_string(),
            format!("{:.6e}", c.worst_ratio),
            (c.worst_ratio <= 1.0).to_string(),
        ]);
        assert!(c.worst_ratio <= 1.0, "lasso bound violated by {name}");
    }

    csv.save(&ctx.dir().join("thm1.csv")).expect("save csv");
    ctx.log("Theorem 1 bound holds for every schedule in both settings.");
    ctx.finish();
}
