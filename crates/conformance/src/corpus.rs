//! The committed seed corpus.
//!
//! `tests/corpus/` holds three kinds of fixtures, all in the `trace_io`
//! text format:
//!
//! - `seed-<problem>-<k>.trace` — traces of the canonical
//!   [`seed_plans`], regenerated and compared bit-for-bit by the tier-1
//!   suite (a regression lock on generator determinism *and* a ready
//!   schedule set for property tests);
//! - `cluster-<k>.trace` — executed message-passing schedules of the
//!   canonical [`cluster_plans`] (recorded on the Jacobi problem),
//!   locking the cluster engine's channel model the same way;
//! - `threaded-<k>.trace` — one *witnessed execution* of the canonical
//!   [`threaded_plan`] on the Jacobi problem: a genuinely concurrent,
//!   faulty multi-worker run whose recorded schedule was verified to
//!   replay bit-identically at record time (`--record-threaded`).
//!   Racy runs cannot be regenerated from their plan, so unlike the
//!   other seeds these are *not* compared against a regeneration —
//!   they are re-validated as admissible, deterministically replayable
//!   schedules;
//! - `fault-*.trace` — minimised counterexamples produced by the
//!   shrinker (from real failures or the `--inject-fault` /
//!   `--cluster-reorder` demos), committed so the exact failing
//!   schedule replays forever.
//!
//! Corpus traces are deliberately short: they are schedule *seeds*, not
//! convergence runs, so the files stay reviewable in version control.

use crate::cluster::{ClusterPlan, ThreadedPlan};
use crate::plan::SchedulePlan;
use crate::problems::{ConformanceProblem, ProblemKind};
use asynciter_core::session::{RecordMode, Session};
use asynciter_models::trace_io::{trace_from_str, trace_to_string};
use asynciter_models::Trace;
use asynciter_numerics::rng::{child_seed, rng};
use asynciter_report::cli::write_artefact;
use asynciter_runtime::session::ThreadedCluster;
use std::path::{Path, PathBuf};

/// Master seed of the canonical corpus plans. Changing it invalidates
/// every committed `seed-*.trace` — regenerate with
/// `conformance --regen-corpus`.
pub const CORPUS_SEED: u64 = 0xC0FFEE;

/// Steps per corpus trace (short by design; see module docs).
pub const CORPUS_STEPS: u64 = 240;

/// Plans per problem kind in the canonical corpus.
pub const PLANS_PER_PROBLEM: u64 = 3;

/// The canonical corpus: `(file stem, plan)` for every committed seed
/// trace, deterministically derived from [`CORPUS_SEED`].
pub fn seed_plans() -> Vec<(String, SchedulePlan)> {
    let mut out = Vec::new();
    for (p, kind) in ProblemKind::ALL.iter().enumerate() {
        let problem = ConformanceProblem::build(*kind);
        for k in 0..PLANS_PER_PROBLEM {
            let mut r = rng(child_seed(CORPUS_SEED, (p as u64) << 8 | k));
            let plan = SchedulePlan::sample(&mut r, problem.n(), CORPUS_STEPS, problem.limits);
            out.push((format!("seed-{}-{k:02}", kind.id()), plan));
        }
    }
    out
}

/// Cluster (message-passing) plans in the canonical corpus.
pub const CLUSTER_PLANS: u64 = 3;

/// The canonical cluster corpus: `(file stem, plan)` for every
/// committed `cluster-<k>.trace`, deterministically derived from
/// [`CORPUS_SEED`]. Traces are recorded on the Jacobi problem.
pub fn cluster_plans() -> Vec<(String, ClusterPlan)> {
    let problem = ConformanceProblem::build(ProblemKind::Jacobi);
    (0..CLUSTER_PLANS)
        .map(|k| {
            let mut r = rng(child_seed(CORPUS_SEED, 0xC1_00 | k));
            let plan = ClusterPlan::sample(&mut r, problem.n(), CORPUS_STEPS);
            (format!("cluster-{k:02}"), plan)
        })
        .collect()
}

/// Records the executed schedule of a canonical cluster plan on the
/// Jacobi problem — the phenotype committed as `cluster-<k>.trace`.
///
/// # Panics
/// Panics when the canonical plan fails to run (a bug).
pub fn record_cluster_trace(plan: &ClusterPlan) -> Trace {
    let problem = ConformanceProblem::build(ProblemKind::Jacobi);
    Session::new(problem.op.as_ref())
        .x0(problem.x0.clone())
        .steps(plan.steps)
        .seed(plan.seed)
        .record(RecordMode::Full)
        .backend(plan.backend.clone())
        .run()
        .expect("canonical cluster plan runs")
        .trace
        .expect("RecordMode::Full keeps the trace")
}

/// The canonical threaded (genuinely concurrent) plan behind
/// `threaded-00.trace`: a faulty three-worker recipe on the Jacobi
/// problem. The plan is canonical; its *executions* are racy, so the
/// committed trace is one witnessed run, not a regenerable phenotype.
pub fn threaded_plan() -> ThreadedPlan {
    ThreadedPlan {
        backend: ThreadedCluster {
            workers: 3,
            hold_prob: 0.3,
            drop_prob: 0.15,
            dup_prob: 0.1,
            partial_prob: 0.4,
            ..ThreadedCluster::default()
        },
        max_steps: 4_000_000,
        seed: child_seed(CORPUS_SEED, 0x7D_00),
    }
}

/// Runs the canonical [`threaded_plan`] on the Jacobi problem and
/// returns the recorded trace, *after* the
/// [`crate::oracle::threaded_replay_equivalence`] oracle has verified
/// it (condition (a), bit-identical replay, convergence). This is the
/// `--record-threaded` recorder for `threaded-00.trace`.
///
/// # Errors
/// Propagates the oracle's failure message.
pub fn record_threaded_trace() -> Result<Trace, String> {
    let problem = ConformanceProblem::build(ProblemKind::Jacobi);
    crate::oracle::threaded_replay_equivalence(&problem, &threaded_plan())
}

/// Writes a trace to `path` in the archive format, creating parent
/// directories.
///
/// # Errors
/// I/O or serialisation failures, as a message.
pub fn save_trace(path: &Path, trace: &Trace) -> Result<(), String> {
    let text = trace_to_string(trace).map_err(|e| format!("serialise: {e}"))?;
    write_artefact(path, &text)
}

/// Loads a single trace file.
///
/// # Errors
/// I/O or parse failures, as a message.
pub fn load_trace(path: &Path) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    trace_from_str(&text).map_err(|e| format!("parse {path:?}: {e}"))
}

/// Loads every `*.trace` file under `dir`, sorted by file name.
///
/// # Errors
/// Directory or file failures, as a message; an absent directory is an
/// error (the corpus is committed, so it must exist where expected).
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, Trace)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read_dir {dir:?}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "trace"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| load_trace(&p).map(|t| (p, t)))
        .collect()
}

/// Regenerates the canonical `seed-*.trace` and `cluster-*.trace`
/// files under `dir`.
///
/// # Errors
/// Propagates [`save_trace`] failures.
pub fn regen_seed_corpus(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut written = Vec::new();
    for (stem, plan) in seed_plans() {
        let path = dir.join(format!("{stem}.trace"));
        save_trace(&path, &plan.record_trace())?;
        written.push(path);
    }
    for (stem, plan) in cluster_plans() {
        let path = dir.join(format!("{stem}.trace"));
        save_trace(&path, &record_cluster_trace(&plan))?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_plans_are_stable_and_admissible() {
        let a = seed_plans();
        let b = seed_plans();
        assert_eq!(
            a.len(),
            (ProblemKind::ALL.len() as u64 * PLANS_PER_PROBLEM) as usize
        );
        for ((name_a, plan_a), (name_b, plan_b)) in a.iter().zip(&b) {
            assert_eq!(name_a, name_b);
            let ta = plan_a.record_trace();
            let tb = plan_b.record_trace();
            assert_eq!(ta.len(), tb.len());
            for j in 1..=ta.len() as u64 {
                assert_eq!(
                    ta.labels(j).unwrap(),
                    tb.labels(j).unwrap(),
                    "{name_a} j={j}"
                );
            }
            plan_a
                .witness()
                .check(&ta)
                .unwrap_or_else(|e| panic!("{name_a}: {e}"));
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("asynciter-conformance-corpus-test");
        let _ = std::fs::remove_dir_all(&dir);
        let (name, plan) = &seed_plans()[0];
        let trace = plan.record_trace();
        let path = dir.join(format!("{name}.trace"));
        save_trace(&path, &trace).unwrap();
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1.len(), trace.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
