//! Differential oracles: what must hold for every admissible schedule.
//!
//! Each oracle takes a problem and (usually) a recorded trace, runs the
//! relevant backends through the unified `Session` API, and returns
//! `Err(message)` when the paper's guarantee is violated:
//!
//! - [`metamorphic`] — Theorem-level convergence: replaying any
//!   admissible trace drives the fixed-point residual below the
//!   problem's tolerance.
//! - [`replay_roundtrip`] — determinism and archival equivalence: a
//!   replayed trace re-replays bit-identically, including after a
//!   round-trip through the `trace_io` text format.
//! - [`sim_equivalence`] — cross-backend: a `replay_equivalent`
//!   simulation's trace (one to three inner iterations per phase),
//!   injected into the core step loop with as many inner iterations,
//!   reproduces the simulated iterates bit for bit.
//! - [`flexible_degrades`] — Definition 3: the flexible engine with
//!   partial communication still converges on the same schedule
//!   (looser tolerance), publishes partials, and reports coherent
//!   constraint statistics.
//! - [`cluster_replay_equivalence`] — cross-backend, message level: a
//!   cluster run's recorded schedule, injected into the replay engine,
//!   reproduces the cluster's consensus bit for bit — out-of-order,
//!   lossy, duplicating and partially-communicating channels included —
//!   and the consensus converges within the problem tolerance.
//! - [`cluster_degenerates_to_replay`] — the degenerate cluster
//!   (1 worker, in-order, faultless) *is* the synchronous schedule:
//!   bit-identical to `Replay` with the default schedule.
//! - [`threaded_replay_equivalence`] — cross-backend, *racy* runs: a
//!   genuinely concurrent threaded-cluster run (real threads, faulty
//!   transport, residual-target stopping) records a trace that replays
//!   bit-identically through the Definition-1 engine, satisfies
//!   condition (a), and converges within the problem tolerance.
//! - [`threaded_degenerates_to_cluster`] — one free-running worker with
//!   a faultless transport executes exactly the sequential cluster's
//!   step sequence: bit-identical iterates under the same budget.

use crate::cluster::{ClusterPlan, ThreadedPlan};
use crate::problems::ConformanceProblem;
use asynciter_core::session::RecordMode;
use asynciter_core::session::{Flexible, Replay, Session};
use asynciter_core::stopping::StoppingRule;
use asynciter_models::channel::LinkModel;
use asynciter_models::Trace;
use asynciter_runtime::session::{Cluster, ThreadedCluster};
use asynciter_sim::compute::ComputeModel;
use asynciter_sim::session::Sim;

/// Convergence under an injected admissible trace.
///
/// # Errors
/// A message naming the residual and tolerance when the replay fails to
/// converge (or the backend errors).
pub fn metamorphic(problem: &ConformanceProblem, trace: &Trace) -> Result<(), String> {
    let report = Session::new(problem.op.as_ref())
        .x0(problem.x0.clone())
        .replay_trace(trace.clone())
        .map_err(|e| format!("replay_trace rejected the trace: {e}"))?
        .backend(Replay)
        .run()
        .map_err(|e| format!("replay failed: {e}"))?;
    if !report.final_residual.is_finite() || report.final_residual > problem.tol {
        return Err(format!(
            "metamorphic: residual {:.3e} above tolerance {:.1e} after {} steps",
            report.final_residual, problem.tol, report.steps
        ));
    }
    Ok(())
}

/// Bit-identical re-replay, directly and through the archive format.
///
/// # Errors
/// A message locating the first divergence.
pub fn replay_roundtrip(problem: &ConformanceProblem, trace: &Trace) -> Result<(), String> {
    let run = |t: Trace| {
        Session::new(problem.op.as_ref())
            .x0(problem.x0.clone())
            .replay_trace(t)
            .map_err(|e| format!("replay_trace rejected the trace: {e}"))?
            .record(RecordMode::Full)
            .run()
            .map_err(|e| format!("replay failed: {e}"))
    };
    let first = run(trace.clone())?;
    let second = run(trace.clone())?;
    if first.final_x != second.final_x {
        return Err("roundtrip: two replays of one trace disagree".into());
    }
    let text = asynciter_models::trace_io::trace_to_string(trace)
        .map_err(|e| format!("trace_io write failed: {e}"))?;
    let parsed = asynciter_models::trace_io::trace_from_str(&text)
        .map_err(|e| format!("trace_io read failed: {e}"))?;
    let archived = run(parsed)?;
    if first.final_x != archived.final_x {
        return Err("roundtrip: archived trace replays differently".into());
    }
    // The replay engine must re-record exactly the schedule it was fed.
    let re = first.trace.as_ref().expect("RecordMode::Full");
    if re.len() != trace.len() {
        return Err(format!(
            "roundtrip: re-recorded {} steps, injected {}",
            re.len(),
            trace.len()
        ));
    }
    for j in 1..=trace.len() as u64 {
        if re.step(j).active != trace.step(j).active || re.labels(j).ok() != trace.labels(j).ok() {
            return Err(format!(
                "roundtrip: re-recorded schedule diverges at step {j}"
            ));
        }
    }
    Ok(())
}

/// Simulator latency/compute regime for an equivalence case, derived
/// from the seed so soak runs sweep all three.
fn sim_regime(seed: u64, procs: usize) -> (Vec<ComputeModel>, LinkModel) {
    match seed % 3 {
        0 => (
            vec![ComputeModel::Fixed { ticks: 1 }; procs],
            LinkModel::Fixed { ticks: 1 },
        ),
        1 => (
            vec![ComputeModel::Uniform { lo: 1, hi: 5 }; procs],
            LinkModel::Jitter { lo: 1, hi: 9 },
        ),
        _ => (
            vec![
                ComputeModel::HeavyTail {
                    scale: 1,
                    alpha: 1.3,
                };
                procs
            ],
            LinkModel::HeavyTail {
                scale: 1,
                alpha: 1.3,
            },
        ),
    }
}

/// Cross-backend equivalence: Sim with `1 + (seed / 3) % 3` inner
/// iterations per phase — drawn independently of the `seed % 3` regime,
/// so nine consecutive seeds cover every pair — and the core step loop
/// with as many (`Replay`'s loop at 1) produce bit-identical iterates on
/// the same recorded schedule.
///
/// # Errors
/// A message naming the first divergent component, or any backend error.
pub fn sim_equivalence(
    problem: &ConformanceProblem,
    seed: u64,
    procs: usize,
    iterations: u64,
) -> Result<(), String> {
    let (compute, link) = sim_regime(seed, procs);
    let machine = Sim {
        compute,
        link,
        inner_steps: 1 + (seed / 3 % 3) as usize,
        partial_sends: 0,
    };
    let definition_3 = Flexible {
        m: machine.inner_steps,
        partial: false,
        ..Flexible::default()
    };
    debug_assert!(machine.replay_equivalent());
    let sim = Session::new(problem.op.as_ref())
        .x0(problem.x0.clone())
        .steps(iterations)
        .seed(seed)
        .record(RecordMode::Full)
        .backend(machine)
        .run()
        .map_err(|e| format!("sim failed: {e}"))?;
    let trace = sim.trace.clone().expect("RecordMode::Full");
    let replay = Session::new(problem.op.as_ref())
        .x0(problem.x0.clone())
        .replay_trace(trace)
        .map_err(|e| format!("sim trace not replayable: {e}"))?
        .backend(definition_3)
        .run()
        .map_err(|e| format!("replay of sim trace failed: {e}"))?;
    for (i, (a, b)) in sim.final_x.iter().zip(&replay.final_x).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!(
                "sim-equivalence: component {i} differs (sim {a:?} vs replay {b:?}) \
                 after {iterations} iterations, seed {seed}, {procs} procs"
            ));
        }
    }
    Ok(())
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
    let mut session = Session::new(problem.op.as_ref())
        .x0(problem.x0.clone())
        .replay_trace(trace.clone())
        .map_err(|e| format!("replay_trace rejected the trace: {e}"))?
        .seed(seed)
        .backend(Flexible {
            m: 3,
            partial: true,
            enforce_constraint: enforce,
            ..Flexible::default()
        });
    if let Some(xs) = &problem.xstar {
        session = session.xstar(xs.clone());
    }
    let report = session.run().map_err(|e| format!("flexible failed: {e}"))?;
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

/// Cross-backend equivalence at the message level: the cluster's
/// recorded schedule replays bit-identically through the Definition-1
/// engine, the trace satisfies condition (a), and the consensus
/// converges within the problem tolerance.
///
/// # Errors
/// A message naming the first divergent component, the failed
/// condition, or the unconverged residual.
pub fn cluster_replay_equivalence(
    problem: &ConformanceProblem,
    plan: &ClusterPlan,
) -> Result<(), String> {
    let cluster = Session::new(problem.op.as_ref())
        .x0(problem.x0.clone())
        .steps(plan.steps)
        .seed(plan.seed)
        .record(RecordMode::Full)
        .backend(plan.backend.clone())
        .run()
        .map_err(|e| format!("cluster failed: {e}"))?;
    if !cluster.final_residual.is_finite() || cluster.final_residual > problem.tol {
        return Err(format!(
            "cluster: consensus residual {:.3e} above tolerance {:.1e} after {} steps",
            cluster.final_residual, problem.tol, cluster.steps
        ));
    }
    let trace = cluster.trace.clone().expect("RecordMode::Full");
    asynciter_models::conditions::check_condition_a(&trace)
        .map_err(|e| format!("cluster trace violates condition (a): {e}"))?;
    let replay = Session::new(problem.op.as_ref())
        .x0(problem.x0.clone())
        .replay_trace(trace)
        .map_err(|e| format!("cluster trace not replayable: {e}"))?
        .backend(Replay)
        .run()
        .map_err(|e| format!("replay of cluster trace failed: {e}"))?;
    for (i, (a, b)) in cluster.final_x.iter().zip(&replay.final_x).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!(
                "cluster-equivalence: component {i} differs (cluster {a:?} vs replay {b:?}) \
                 under {}",
                plan.describe()
            ));
        }
    }
    Ok(())
}

/// The degenerate cluster — one worker, in-order links, no faults — is
/// the synchronous Jacobi iteration: bit-identical to [`Replay`] on the
/// default schedule.
///
/// # Errors
/// A message naming the first divergent component.
pub fn cluster_degenerates_to_replay(
    problem: &ConformanceProblem,
    steps: u64,
) -> Result<(), String> {
    let cluster = Session::new(problem.op.as_ref())
        .x0(problem.x0.clone())
        .steps(steps)
        .backend(Cluster {
            workers: 1,
            ..Cluster::default()
        })
        .run()
        .map_err(|e| format!("degenerate cluster failed: {e}"))?;
    let replay = Session::new(problem.op.as_ref())
        .x0(problem.x0.clone())
        .steps(steps)
        .backend(Replay)
        .run()
        .map_err(|e| format!("replay failed: {e}"))?;
    for (i, (a, b)) in cluster.final_x.iter().zip(&replay.final_x).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!(
                "degenerate cluster: component {i} differs ({a:?} vs {b:?}) after {steps} steps"
            ));
        }
    }
    Ok(())
}

/// Cross-backend equivalence for *racy* executions: a genuinely
/// concurrent threaded-cluster run — real threads over a faulty
/// transport, stopped by a residual target — must record a trace that
/// satisfies condition (a) and replays bit-identically through the
/// Definition-1 engine, and its consensus must converge within the
/// problem tolerance.
///
/// Because the OS scheduler picks the interleaving, the run cannot be
/// regenerated from the plan; the oracle checks the live run against
/// its own trace and returns that trace (so callers may archive the
/// witnessed execution).
///
/// # Errors
/// A message naming the first divergent component, the failed
/// condition, or the unconverged residual.
pub fn threaded_replay_equivalence(
    problem: &ConformanceProblem,
    plan: &ThreadedPlan,
) -> Result<Trace, String> {
    // Stop two orders below the tolerance: the stopping rule reads
    // worker 0's (slightly stale) local view, while the oracle judges
    // the assembled consensus.
    let eps = problem.tol / 100.0;
    let run = Session::new(problem.op.as_ref())
        .x0(problem.x0.clone())
        .steps(plan.max_steps)
        .seed(plan.seed)
        .stopping(StoppingRule::Residual {
            eps,
            check_every: 16,
        })
        .record(RecordMode::Full)
        .backend(plan.backend.clone())
        .run()
        .map_err(|e| format!("threaded cluster failed: {e}"))?;
    if !run.final_residual.is_finite() || run.final_residual > problem.tol {
        return Err(format!(
            "threaded: consensus residual {:.3e} above tolerance {:.1e} after {} steps",
            run.final_residual, problem.tol, run.steps
        ));
    }
    let trace = run.trace.clone().expect("RecordMode::Full");
    asynciter_models::conditions::check_condition_a(&trace)
        .map_err(|e| format!("threaded trace violates condition (a): {e}"))?;
    let replay = Session::new(problem.op.as_ref())
        .x0(problem.x0.clone())
        .replay_trace(trace.clone())
        .map_err(|e| format!("threaded trace not replayable: {e}"))?
        .backend(Replay)
        .run()
        .map_err(|e| format!("replay of threaded trace failed: {e}"))?;
    for (i, (a, b)) in run.final_x.iter().zip(&replay.final_x).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!(
                "threaded-equivalence: component {i} differs (threaded {a:?} vs replay {b:?}) \
                 under {}",
                plan.describe()
            ));
        }
    }
    Ok(trace)
}

/// The degenerate threaded cluster — one free-running worker, faultless
/// transport — executes exactly the sequential cluster's step sequence:
/// bit-identical iterates under the same budget. (Both share the same
/// per-step arithmetic; this pins the concurrency layer itself to a
/// no-op at one worker.)
///
/// # Errors
/// A message naming the first divergent component.
pub fn threaded_degenerates_to_cluster(
    problem: &ConformanceProblem,
    steps: u64,
) -> Result<(), String> {
    let threaded = Session::new(problem.op.as_ref())
        .x0(problem.x0.clone())
        .steps(steps)
        .backend(ThreadedCluster {
            workers: 1,
            ..ThreadedCluster::default()
        })
        .run()
        .map_err(|e| format!("degenerate threaded cluster failed: {e}"))?;
    let cluster = Session::new(problem.op.as_ref())
        .x0(problem.x0.clone())
        .steps(steps)
        .backend(Cluster {
            workers: 1,
            ..Cluster::default()
        })
        .run()
        .map_err(|e| format!("sequential cluster failed: {e}"))?;
    for (i, (a, b)) in threaded.final_x.iter().zip(&cluster.final_x).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!(
                "degenerate threaded cluster: component {i} differs \
                 (threaded {a:?} vs cluster {b:?}) after {steps} steps"
            ));
        }
    }
    Ok(())
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
