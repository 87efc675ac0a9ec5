//! Differential oracles: what must hold for every admissible schedule.
//!
//! Definition 1 makes the iterates a function of `(F, x(0), 𝒮, ℒ)`, so any
//! machine's recorded schedule, replayed through Eq. (1), must reproduce
//! its iterates bit for bit. That law is written once here, and every
//! verification tier — the campaign oracles, the corpus re-validation, the
//! service leak shrinker and `mc`'s horizon property — goes through it:
//! [`replay`] is the one door from a recorded [`Trace`] back into the
//! engine and [`record_and_replay`] the law itself. What "the same run"
//! means is `asynciter_core::compare`'s: [`same_run`] on the
//! [`Fields`] a law fixes, [`same_schedule`] for schedules.
//!
//! The oracles, each `Err(message)` when the paper's guarantee fails:
//!
//! - [`metamorphic`] — replaying any admissible trace drives the residual
//!   below the problem's tolerance;
//! - [`replay_roundtrip`] — a replay re-replays bit-identically, also
//!   through the `trace_io` text format, and re-records its schedule;
//! - [`flexible_degrades`] — Definition 3 with partial communication
//!   still converges on the same schedule, with coherent statistics;
//! - [`sim_equivalence`], [`cluster_replay_equivalence`],
//!   [`threaded_replay_equivalence`] — the law on a `replay_equivalent`
//!   simulation, a faulty message-passing cluster and a *racy*
//!   real-thread cluster;
//! - [`backends_agree`] — two machines executing one schedule agree;
//!   [`cluster_degenerates_to_replay`] and [`threaded_degenerates_to_cluster`]
//!   are its instances: one in-order, faultless worker is the synchronous
//!   schedule.

use crate::cluster::{ClusterPlan, ThreadedPlan};
use crate::problems::ConformanceProblem;
/// The iterate comparator, for crates that reach the law only through
/// this module (`mc`).
pub use asynciter_core::compare::{same_bits, Mismatch};
use asynciter_core::compare::{same_run, same_schedule, Fields};
use asynciter_core::session::{Backend, Flexible, RecordMode, Replay, RunReport, Session};
use asynciter_core::stopping::StoppingRule;
use asynciter_models::channel::LinkModel;
use asynciter_models::conditions::check_condition_a;
use asynciter_models::trace_io::{trace_from_str, trace_to_string};
use asynciter_models::Trace;
use asynciter_opt::traits::Operator;
use asynciter_runtime::session::{Cluster, ThreadedCluster};
use asynciter_sim::compute::ComputeModel;
use asynciter_sim::session::Sim;
use std::convert::identity;

/// Replays `trace` from `x0` through Eq. (1): the session `with` adds
/// (backend, seed, recording, …) runs the trace as its schedule and step
/// budget. The default backend is [`Replay`].
///
/// # Errors
/// A message when the trace is not replayable (min-only or empty) or the
/// run fails.
pub fn replay<'a>(
    op: &'a dyn Operator,
    x0: &[f64],
    trace: &Trace,
    with: impl FnOnce(Session<'a>) -> Session<'a>,
) -> Result<RunReport, String> {
    let session = Session::new(op)
        .x0(x0)
        .replay_trace(trace.clone())
        .map_err(|e| format!("replay_trace rejected the trace: {e}"))?;
    with(session)
        .run()
        .map_err(|e| format!("replay failed: {e}"))
}

/// Runs the session `machine` configures (steps, seed, stopping rule,
/// backend) from the problem's start with [`RecordMode::Full`], and
/// returns the report with its trace taken out.
///
/// # Errors
/// A message when the run fails.
pub fn record<'a>(
    problem: &'a ConformanceProblem,
    machine: impl FnOnce(Session<'a>) -> Session<'a>,
) -> Result<(RunReport, Trace), String> {
    let mut run = machine(Session::new(problem.op.as_ref()).x0(problem.x0.clone()))
        .record(RecordMode::Full)
        .run()
        .map_err(|e| format!("recorded run failed: {e}"))?;
    let trace = run.trace.take().expect("RecordMode::Full");
    Ok((run, trace))
}

/// The record-and-replay law: [`record`]s the run `machine` configures;
/// with a `tol`, checks `final_residual ≤ tol`; checks condition (a) on
/// the trace; replays it through `replay_with` and compares the two
/// runs on the fields Definition 1 fixes. Returns the verified trace.
///
/// # Errors
/// A message naming the failed run, the unconverged residual, the
/// violated condition or every differing field.
pub fn record_and_replay<'a>(
    problem: &'a ConformanceProblem,
    machine: impl FnOnce(Session<'a>) -> Session<'a>,
    tol: Option<f64>,
    replay_with: impl Backend + 'a,
) -> Result<Trace, String> {
    let (run, trace) = record(problem, machine)?;
    let name = run.backend;
    if let Some(tol) = tol {
        if !run.final_residual.is_finite() || run.final_residual > tol {
            return Err(format!(
                "{name}: consensus residual {:.3e} above tolerance {tol:.1e} after {} steps",
                run.final_residual, run.steps
            ));
        }
    }
    check_condition_a(&trace).map_err(|e| format!("{name} trace violates condition (a): {e}"))?;
    let op = problem.op.as_ref();
    let replayed = replay(op, &problem.x0, &trace, |s| s.backend(replay_with))?;
    same_run(&run, &replayed, Fields::Definition1)
        .map(|()| trace)
        .map_err(|e| format!("{name} vs its replay: {e}"))
}

/// Convergence under an injected admissible trace.
///
/// # Errors
/// A message naming the residual and tolerance when the replay fails to
/// converge (or the backend errors).
pub fn metamorphic(problem: &ConformanceProblem, trace: &Trace) -> Result<(), String> {
    let report = replay(problem.op.as_ref(), &problem.x0, trace, identity)?;
    if !report.final_residual.is_finite() || report.final_residual > problem.tol {
        return Err(format!(
            "metamorphic: residual {:.3e} above tolerance {:.1e} after {} steps",
            report.final_residual, problem.tol, report.steps
        ));
    }
    Ok(())
}

/// Bit-identical re-replay, directly and through the archive format, and
/// the re-recorded schedule equal to the injected one.
///
/// # Errors
/// A message locating the first divergence.
pub fn replay_roundtrip(problem: &ConformanceProblem, trace: &Trace) -> Result<(), String> {
    let op = problem.op.as_ref();
    let run = |t: &Trace| replay(op, &problem.x0, t, |s| s.record(RecordMode::Full));
    let first = run(trace)?;
    same_run(&first, &run(trace)?, Fields::Computed)
        .map_err(|e| format!("roundtrip: replayed twice: {e}"))?;
    let text = trace_to_string(trace).map_err(|e| format!("trace_io write failed: {e}"))?;
    let archived = trace_from_str(&text).map_err(|e| format!("trace_io read failed: {e}"))?;
    same_run(&first, &run(&archived)?, Fields::Computed)
        .map_err(|e| format!("roundtrip: archived: {e}"))?;
    let re = first.trace.as_ref().expect("RecordMode::Full");
    same_schedule(re, trace)
        .map_err(|m| format!("roundtrip: re-recorded schedule differs from the injected one, {m}"))
}

/// Simulator compute/latency regime for an equivalence case, derived
/// from the seed so soak runs sweep all three.
fn sim_regime(seed: u64) -> (ComputeModel, LinkModel) {
    let (scale, alpha) = (1, 1.3);
    match seed % 3 {
        0 => (
            ComputeModel::Fixed { ticks: 1 },
            LinkModel::Fixed { ticks: 1 },
        ),
        1 => (
            ComputeModel::Uniform { lo: 1, hi: 5 },
            LinkModel::Jitter { lo: 1, hi: 9 },
        ),
        _ => (
            ComputeModel::HeavyTail { scale, alpha },
            LinkModel::HeavyTail { scale, alpha },
        ),
    }
}

/// [`record_and_replay`] on `Sim` with `1 + (seed / 3) % 3` inner
/// iterations per phase — drawn independently of the `seed % 3` regime,
/// so nine consecutive seeds cover every pair — replayed by the core
/// step loop with as many (`Flexible { m, partial: false }`).
///
/// # Errors
/// The law's message, with the case's seed and machine size.
pub fn sim_equivalence(
    problem: &ConformanceProblem,
    seed: u64,
    procs: usize,
    iterations: u64,
) -> Result<(), String> {
    let (compute, link) = sim_regime(seed);
    let machine = Sim {
        compute: vec![compute; procs],
        link,
        inner_steps: 1 + (seed / 3 % 3) as usize,
        partial_sends: 0,
    };
    debug_assert!(machine.replay_equivalent());
    let definition_3 = Flexible {
        m: machine.inner_steps,
        partial: false,
        ..Flexible::default()
    };
    record_and_replay(
        problem,
        |s| s.steps(iterations).seed(seed).backend(machine),
        None,
        definition_3,
    )
    .map(|_trace| ())
    .map_err(|e| format!("{e} (seed {seed}, {procs} procs, {iterations} iterations)"))
}

/// Flexible communication degrades gracefully on the same schedule:
/// convergence within the looser tolerance, partials actually published
/// and coherent constraint statistics.
///
/// # Errors
/// A message naming the violated expectation.
pub fn flexible_degrades(
    problem: &ConformanceProblem,
    trace: &Trace,
    seed: u64,
) -> Result<(), String> {
    let enforce = problem.xstar.is_some();
    let report = replay(problem.op.as_ref(), &problem.x0, trace, |s| {
        let s = s.seed(seed).backend(Flexible {
            m: 3,
            partial: true,
            enforce_constraint: enforce,
            ..Flexible::default()
        });
        match &problem.xstar {
            Some(xs) => s.xstar(xs.clone()),
            None => s,
        }
    })?;
    if !report.final_residual.is_finite() || report.final_residual > problem.flex_tol {
        return Err(format!(
            "flexible: residual {:.3e} above tolerance {:.1e}",
            report.final_residual, problem.flex_tol
        ));
    }
    if report.partial_publishes == 0 {
        return Err("flexible: partial mode never published a partial".into());
    }
    // Publishes are counted per component; with m = 3 inner steps at
    // most m crossings per outer step can publish each of the n
    // components. More would mean the engine miscounts.
    if report.partial_publishes > report.steps * 3 * trace.n() as u64 {
        return Err(format!(
            "flexible: incoherent stats — {} publishes over {} steps of dim {}",
            report.partial_publishes,
            report.steps,
            trace.n()
        ));
    }
    // Constraint-stat accounting (checks run exactly when a read
    // attempts a partial upgrade and the fixed point is known): with
    // enforcement a violating upgrade is skipped, without it the
    // upgrade proceeds — either way every check is accounted for.
    if enforce {
        if report.constraint_checked != report.partial_reads + report.constraint_violations {
            return Err(format!(
                "flexible: incoherent stats — {} checks but {} reads + {} violations",
                report.constraint_checked, report.partial_reads, report.constraint_violations
            ));
        }
    } else if report.constraint_checked != 0 || report.constraint_violations != 0 {
        return Err(format!(
            "flexible: constraint stats without a known fixed point ({} checks)",
            report.constraint_checked
        ));
    }
    Ok(())
}

/// [`record_and_replay`] at the message level: a seeded faulty cluster
/// run, replayed by [`Replay`], with its consensus within the problem
/// tolerance.
///
/// # Errors
/// The law's message.
pub fn cluster_replay_equivalence(
    problem: &ConformanceProblem,
    plan: &ClusterPlan,
) -> Result<(), String> {
    record_and_replay(
        problem,
        |s| {
            s.steps(plan.steps)
                .seed(plan.seed)
                .backend(plan.backend.clone())
        },
        Some(problem.tol),
        Replay,
    )
    .map(|_trace| ())
}

/// [`record_and_replay`] on a *racy* run: real threads over a faulty
/// transport, stopped by a residual target, replayed by [`Replay`], with
/// the consensus within the problem tolerance. The OS scheduler picks
/// the interleaving, so the live run is checked against its own trace,
/// which is returned for callers to archive.
///
/// # Errors
/// The law's message.
pub fn threaded_replay_equivalence(
    problem: &ConformanceProblem,
    plan: &ThreadedPlan,
) -> Result<Trace, String> {
    // Stop two orders below the tolerance: the stopping rule reads
    // worker 0's (slightly stale) local view, while the law judges the
    // assembled consensus.
    let stopping = StoppingRule::Residual {
        eps: problem.tol / 100.0,
        check_every: 16,
    };
    record_and_replay(
        problem,
        |s| {
            s.steps(plan.max_steps)
                .seed(plan.seed)
                .stopping(stopping)
                .backend(plan.backend.clone())
        },
        Some(problem.tol),
        Replay,
    )
}

/// Runs `a` and `b` from the problem's start under the session `with`
/// configures (budget, samples, recording) and compares them on the
/// fields Definition 1 fixes: two machines executing one schedule.
///
/// # Errors
/// A message naming the failed run or every differing field.
pub fn backends_agree<'p>(
    problem: &'p ConformanceProblem,
    a: impl Backend + 'p,
    b: impl Backend + 'p,
    with: impl Fn(Session<'p>) -> Session<'p>,
) -> Result<(), String> {
    let run = |session: Session<'p>| session.run().map_err(|e| format!("run failed: {e}"));
    let start = || with(Session::new(problem.op.as_ref()).x0(problem.x0.clone()));
    let a = run(start().backend(a))?;
    let b = run(start().backend(b))?;
    let what = format!("{} vs {} after {} steps", a.backend, b.backend, a.steps);
    same_run(&a, &b, Fields::Definition1).map_err(|e| format!("{what}: {e}"))
}

/// The degenerate cluster — one worker, in-order links, no faults — is
/// the synchronous Jacobi iteration: bit-identical to [`Replay`] on the
/// default schedule.
///
/// # Errors
/// [`backends_agree`]'s message.
pub fn cluster_degenerates_to_replay(
    problem: &ConformanceProblem,
    steps: u64,
) -> Result<(), String> {
    let one = Cluster {
        workers: 1,
        ..Cluster::default()
    };
    backends_agree(problem, one, Replay, |s| s.steps(steps))
}

/// The degenerate threaded cluster — one free-running worker, faultless
/// transport — executes exactly the sequential cluster's step sequence:
/// bit-identical iterates under the same budget. (Both share the same
/// per-step arithmetic; this pins the concurrency layer itself to a
/// no-op at one worker.)
///
/// # Errors
/// [`backends_agree`]'s message.
pub fn threaded_degenerates_to_cluster(
    problem: &ConformanceProblem,
    steps: u64,
) -> Result<(), String> {
    let threaded = ThreadedCluster {
        workers: 1,
        ..ThreadedCluster::default()
    };
    let cluster = Cluster {
        workers: 1,
        ..Cluster::default()
    };
    backends_agree(problem, threaded, cluster, |s| s.steps(steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SchedulePlan;
    use crate::problems::{ConformanceProblem, ProblemKind};
    use asynciter_numerics::rng::rng;

    #[test]
    fn oracles_pass_on_a_sampled_plan() {
        let problem = ConformanceProblem::build(ProblemKind::Jacobi);
        let mut r = rng(11);
        let plan = SchedulePlan::sample(&mut r, problem.n(), problem.steps, problem.limits);
        let trace = plan.record_trace();
        metamorphic(&problem, &trace).unwrap();
        replay_roundtrip(&problem, &trace).unwrap();
        flexible_degrades(&problem, &trace, 5).unwrap();
        // Every (regime, inner steps) pair, on two and three processors.
        for (seed, procs) in (0..9).flat_map(|seed| [(seed, 2), (seed, 3)]) {
            sim_equivalence(&problem, seed, procs, 300).unwrap();
        }
    }

    #[test]
    fn cluster_oracles_pass_on_sampled_plans() {
        for kind in ProblemKind::ALL {
            let problem = ConformanceProblem::build(kind);
            let mut r = rng(17);
            for _ in 0..3 {
                let plan = ClusterPlan::sample(&mut r, problem.n(), problem.steps);
                cluster_replay_equivalence(&problem, &plan)
                    .unwrap_or_else(|e| panic!("{}: {e}", plan.describe()));
            }
            cluster_degenerates_to_replay(&problem, 60).unwrap();
        }
    }

    #[test]
    fn threaded_oracles_pass_on_sampled_plans() {
        let problem = ConformanceProblem::build(ProblemKind::Jacobi);
        let mut r = rng(29);
        for _ in 0..2 {
            let plan = ThreadedPlan::sample(&mut r, problem.n(), 4_000_000);
            threaded_replay_equivalence(&problem, &plan)
                .unwrap_or_else(|e| panic!("{}: {e}", plan.describe()));
        }
        threaded_degenerates_to_cluster(&problem, 60).unwrap();
    }

    #[test]
    fn metamorphic_rejects_a_frozen_schedule() {
        // Freezing a component's label at 0 makes replay converge to
        // the wrong point: the oracle must notice.
        let problem = ConformanceProblem::build(ProblemKind::Jacobi);
        let mut r = rng(13);
        let plan = SchedulePlan::sample(&mut r, problem.n(), problem.steps, problem.limits);
        let base = plan.record_trace();
        let mut corrupt =
            asynciter_models::Trace::new(base.n(), asynciter_models::LabelStore::Full);
        for j in 1..=base.len() as u64 {
            let active: Vec<usize> = base.step(j).active.iter().map(|&i| i as usize).collect();
            let mut labels = base.labels(j).unwrap().to_vec();
            labels[0] = 0;
            corrupt.push_step(&active, &labels);
        }
        assert!(metamorphic(&problem, &corrupt).is_err());
    }
}
