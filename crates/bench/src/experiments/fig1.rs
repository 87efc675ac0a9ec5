//! **F1** — Fig. 1: the two-processor asynchronous iteration timeline.
//!
//! Paper exhibit: a Gantt diagram of two processors performing updating
//! phases at their own pace, each phase labelled by its iteration
//! number, with arrows for the end-of-phase value exchanges. This
//! experiment regenerates the figure from a real simulated run (the
//! processors perform genuine contraction arithmetic) and validates the
//! structural properties the figure illustrates: no idle time between
//! phases, per-processor pacing, condition (a) on the recorded labels.

use crate::ExpContext;
use asynciter_core::session::{Problem, RecordMode, RunControl, RunReport};
use asynciter_report::csv::CsvWriter;
use asynciter_report::gantt::{render_gantt, GComm, GPhase};
use asynciter_sim::scenario;
use asynciter_sim::session::Sim;
use asynciter_sim::timeline::{CommKind, Timeline};

/// `iterations` global iterations of `sim` under `seed` on the
/// scenarios' two-component operator from zero, fully recorded, with the
/// timeline the figures are drawn from.
pub(crate) fn simulate(sim: Sim, seed: u64, iterations: u64) -> (RunReport, Timeline) {
    let problem = Problem {
        op: &scenario::two_component_operator(),
        x0: vec![0.0, 0.0],
        xstar: None,
    };
    let mut ctl = RunControl {
        max_steps: iterations,
        error_every: 0,
        residual_every: 0,
        stopping: None,
        record: RecordMode::Full,
        seed,
        schedule: None,
    };
    sim.run_with_timeline(&problem, &mut ctl)
        .expect("simulation")
}

/// Runs F1. `quick` trims the horizon (same shape, fewer phases).
pub fn run(seed: u64, quick: bool) {
    let mut ctx = ExpContext::new("F1", seed);
    let iterations = if quick { 10 } else { 16 };
    let (res, timeline) = simulate(scenario::fig1(), seed, iterations);
    timeline.validate().expect("timeline invariants");
    let trace = res.trace.as_ref().expect("recorded");
    asynciter_models::conditions::check_condition_a(trace).expect("condition (a)");

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
        "Fig. 1 — asynchronous iteration: updating phases (boxes, labelled by iteration j) \
         and end-of-phase communications",
    );
    ctx.log(&chart);

    // Structural observations matching the figure's narrative.
    let p0 = timeline.phases_of(0);
    let p1 = timeline.phases_of(1);
    ctx.log(format!(
        "P1 completed {} phases, P2 completed {} phases (each at its own pace)",
        p0.len(),
        p1.len()
    ));
    let idle0: u64 = p0.windows(2).map(|w| w[1].start - w[0].end).sum();
    ctx.log(format!(
        "P1 idle time between phases: {idle0} ticks (asynchronous: computation covers communication)"
    ));
    assert_eq!(idle0, 0, "asynchronous processors never wait");
    ctx.log(format!(
        "first communication: P{} → P{} carrying x({})",
        comms[0].0, comms[0].1, timeline.comms[0].sender_phase
    ));

    let mut csv = CsvWriter::new(&["proc", "start", "end", "j"]);
    for p in &timeline.phases {
        csv.row_strings(&[
            p.proc.to_string(),
            p.start.to_string(),
            p.end.to_string(),
            p.j.to_string(),
        ]);
    }
    csv.save(&ctx.dir().join("phases.csv")).expect("save csv");
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
    ctx.save("fig1.txt", &chart);
    ctx.finish();
}
