//! **E1** — Baudet's `√j` unbounded-delay example (paper §II).
//!
//! Paper claim: with `P1` updating `x₁` in one time unit and `P2`'s
//! `k`-th update taking `k` units, "a simple calculation shows that the
//! delay in updating component `x₂` grows as `√j`", so delays are
//! unbounded (condition (d) fails for every constant `b`) while
//! `lim l₂(j) = +∞` (condition (b) holds). The experiment reconstructs
//! the trace both analytically ([`asynciter_models::baudet`]) and from
//! the discrete-event simulator, fits the delay growth exponent, and
//! runs the condition checkers.

use crate::ExpContext;
use asynciter_core::session::{RecordMode, Session};
use asynciter_models::analysis::{delay_growth_exponent, windowed_max};
use asynciter_models::baudet::{baudet_trace, p1_read_delays};
use asynciter_models::conditions::{check_condition_a, check_condition_b, check_condition_d};
use asynciter_report::ascii::{line_chart, ChartSeries};
use asynciter_report::csv::CsvWriter;
use asynciter_sim::scenario;
use asynciter_sim::session::Sim;

/// Runs E1.
pub fn run(seed: u64, quick: bool) {
    let mut ctx = ExpContext::new("E1", seed);
    let steps = if quick { 40_000 } else { 300_000 };

    // Analytic construction.
    let trace = baudet_trace(steps);
    assert!(check_condition_a(&trace).is_ok());
    assert!(check_condition_b(&trace, 8, 2048).is_ok());
    for b in [16u64, 128, 256] {
        assert!(
            check_condition_d(&trace, b).is_err(),
            "condition (d) must fail for b = {b}"
        );
    }
    ctx.log("conditions: (a) holds, (b) holds, (d) fails for b ∈ {16, 128, 256} ✓");

    let delays = p1_read_delays(&trace);
    let window = (delays.len() / 64).max(16);
    let (c, p, r2) = delay_growth_exponent(&delays, window).expect("fit");
    ctx.log(format!(
        "analytic trace: delay envelope fit d(j) ≈ {c:.3} · j^{p:.3}  (r² = {r2:.4}); \
         paper predicts exponent 1/2"
    ));
    assert!((p - 0.5).abs() < 0.1, "exponent {p} not ~ 0.5");

    // Simulator reproduction (independent implementation).
    let op = scenario::two_component_operator();
    let sim_trace = Session::new(&op)
        .steps(steps.min(100_000))
        .record(RecordMode::Full)
        .backend(Sim(scenario::baudet()))
        .run()
        .expect("simulation")
        .trace
        .expect("recorded");
    let sim_delays: Vec<(u64, u64)> = asynciter_models::analysis::delay_series(&sim_trace, 1)
        .expect("labels stored")
        .into_iter()
        .zip(sim_trace.iter())
        .filter(|(_, (_, s))| s.active.as_slice() == [0])
        .map(|(d, _)| d)
        .collect();
    let (cs, ps, rs2) =
        delay_growth_exponent(&sim_delays, (sim_delays.len() / 64).max(16)).expect("fit");
    ctx.log(format!(
        "simulator trace: d(j) ≈ {cs:.3} · j^{ps:.3}  (r² = {rs2:.4})"
    ));
    assert!((ps - 0.5).abs() < 0.12, "sim exponent {ps} not ~ 0.5");

    // Envelope chart + CSV.
    let env = windowed_max(&delays, window);
    let sqrt_ref: Vec<(f64, f64)> = env.iter().map(|&(j, _)| (j, c * j.sqrt())).collect();
    let chart = line_chart(
        &[
            ChartSeries::new("measured delay envelope", env.clone()),
            ChartSeries::new("c*sqrt(j) reference", sqrt_ref),
        ],
        90,
        20,
        "E1 — delay of x₂'s information at P1's reads grows like √j",
    );
    ctx.log(&chart);
    ctx.save("baudet_envelope.txt", &chart);

    let mut csv = CsvWriter::new(&["j_mid", "delay_envelope"]);
    for (j, d) in &env {
        csv.row(&[*j, *d]);
    }
    csv.save(&ctx.dir().join("delays.csv")).expect("save csv");
    ctx.finish();
}
