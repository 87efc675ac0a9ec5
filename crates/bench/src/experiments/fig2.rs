//! **F2** — Fig. 2: asynchronous iteration *with flexible communication*.
//!
//! Paper exhibit: the Fig. 1 timeline augmented with hatched arrows —
//! partial updates leaving mid-phase (one-sided put()s of intermediate
//! inner-iteration results). Regenerated from a simulated run with
//! `inner_steps = 4` and two partial sends per phase; the experiment
//! additionally verifies that partials genuinely leave strictly inside
//! phases and that consuming them does not break convergence.

use crate::ExpContext;
use asynciter_report::csv::CsvWriter;
use asynciter_report::gantt::{render_gantt, GComm, GPhase};
use asynciter_sim::scenario;
use asynciter_sim::timeline::CommKind;

/// Runs F2.
pub fn run(seed: u64, quick: bool) {
    let mut ctx = ExpContext::new("F2", seed);
    let iterations = if quick { 8 } else { 12 };
    let (res, timeline) = super::fig1::simulate(scenario::fig2(), seed, iterations);
    timeline.validate().expect("timeline invariants");

    let phases: Vec<GPhase> = timeline
        .phases
        .iter()
        .map(|p| (p.proc, p.start, p.end, p.j))
        .collect();
    let comms: Vec<GComm> = timeline
        .comms
        .iter()
        .map(|c| {
            (
                c.from,
                c.to,
                c.send_t,
                c.recv_t,
                c.kind == CommKind::Partial,
            )
        })
        .collect();
    let chart = render_gantt(
        2,
        &phases,
        &comms,
        100,
        "Fig. 2 — flexible communication: partial updates (hatched ╌╌▶) leave mid-phase, \
         full updates (──▶) at phase end",
    );
    ctx.log(&chart);

    let partials = timeline.partial_count();
    let fulls = timeline.comms.len() - partials;
    ctx.log(format!(
        "{partials} partial communications, {fulls} full communications"
    ));
    assert!(partials > 0, "Fig. 2 requires partial updates");

    // Every partial leaves strictly inside a phase of its sender.
    for c in &timeline.comms {
        if c.kind == CommKind::Partial {
            let inside = timeline
                .phases
                .iter()
                .any(|p| p.proc == c.from && p.start < c.send_t && c.send_t < p.end);
            assert!(inside, "partial at t={} not mid-phase", c.send_t);
        }
    }
    ctx.log("verified: every partial update leaves strictly mid-phase");

    // Convergence still holds with partials consumed.
    let xstar = scenario::two_component_operator()
        .solve_dense_spd()
        .expect("2x2 solve");
    let err = res.final_error(&xstar);
    ctx.log(format!(
        "consensus error after {iterations} iterations: {err:.3e} (converging)"
    ));

    let mut csv = CsvWriter::new(&["from", "to", "send_t", "recv_t", "kind"]);
    for c in &timeline.comms {
        csv.row_strings(&[
            c.from.to_string(),
            c.to.to_string(),
            c.send_t.to_string(),
            c.recv_t.to_string(),
            format!("{:?}", c.kind),
        ]);
    }
    csv.save(&ctx.dir().join("comms.csv")).expect("save csv");
    ctx.save("fig2.txt", &chart);
    ctx.finish();
}
