//! The conformance campaign: generate → certify → cross-check → shrink.
//!
//! One campaign runs `cases` fuzz cases. Case `c` deterministically
//! derives a plan from `seed` and problem `c mod 3`, records its trace,
//! checks the plan's own [`AdmissibilityWitness`] accepts it (the
//! generated-admissibility invariant), then drives the differential
//! oracles: metamorphic on every case, replay round-trip / flexible
//! degradation / sim equivalence / cluster equivalence (a seeded
//! message-passing plan whose recorded schedule must replay
//! bit-identically) / threaded equivalence (a *racy* real-thread run
//! checked against its own recorded schedule) on striding subsets.
//! Every campaign
//! also runs the *negative controls* — adversarial schedules the
//! witness must reject — and re-validates the committed corpus.
//!
//! Any failing case is minimised with [`crate::shrink::shrink_trace`]
//! (predicate: the same oracle still fails on the injected trace) and
//! the counterexample is written as a replayable `.trace` file for
//! commit under `tests/corpus/`.
//!
//! [`AdmissibilityWitness`]: asynciter_models::AdmissibilityWitness

use crate::cluster::{has_label_regression, ClusterPlan, ThreadedPlan};
use crate::corpus;
use crate::oracle;
use crate::plan::SchedulePlan;
use crate::problems::{ConformanceProblem, ProblemKind};
use crate::shrink::{shrink_and_save, shrink_trace};
use asynciter_core::session::{RecordMode, Session};
use asynciter_models::schedule::{FrozenLabelAdversary, StarvedComponent};
use asynciter_models::{LabelStore, ModelError, Trace};
use asynciter_numerics::rng::{child_seed, rng};
use asynciter_report::cli::Arity::{Int, Optional, Switch, Value};
use asynciter_report::cli::{exit_code, must_find, shrunk_to, write_artefact, Flag, Matches, Spec};
use asynciter_report::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Mode stamp for the report (`"quick"` / `"soak"` / `"custom"`).
    pub mode: String,
    /// Number of fuzz cases.
    pub cases: u64,
    /// Master seed.
    pub seed: u64,
    /// Committed corpus to re-validate (skipped when `None` or absent).
    pub corpus_dir: Option<PathBuf>,
    /// Where minimised counterexamples are written.
    pub fault_dir: PathBuf,
    /// Run the replay round-trip oracle every this many cases.
    pub roundtrip_every: u64,
    /// Run the flexible-degradation oracle every this many cases.
    pub flexible_every: u64,
    /// Run the sim-equivalence oracle every this many cases.
    pub sim_every: u64,
    /// Run the cluster-equivalence oracle every this many cases.
    pub cluster_every: u64,
    /// Run the threaded-equivalence oracle (real concurrent workers)
    /// every this many cases.
    pub threaded_every: u64,
    /// Simulated iterations per sim-equivalence case.
    pub sim_iterations: u64,
    /// Predicate-evaluation budget per shrink.
    pub shrink_budget: u64,
}

impl CampaignConfig {
    /// The CI-sized campaign: ≥ 200 schedules over the three problems.
    pub fn quick(seed: u64) -> Self {
        Self {
            mode: "quick".into(),
            cases: 240,
            seed,
            corpus_dir: Some(PathBuf::from("tests/corpus")),
            fault_dir: PathBuf::from("."),
            roundtrip_every: 5,
            flexible_every: 7,
            sim_every: 10,
            // 240 quick cases / 3 = 80 cluster plans per quick campaign.
            cluster_every: 3,
            // Coprime to the 5-problem stride so the (costlier) threaded
            // cases sweep every problem family: 19 plans per quick run.
            threaded_every: 13,
            sim_iterations: 300,
            shrink_budget: 100_000,
        }
    }

    /// The nightly-scale campaign.
    pub fn soak(seed: u64) -> Self {
        Self {
            mode: "soak".into(),
            cases: 2_000,
            sim_iterations: 600,
            ..Self::quick(seed)
        }
    }
}

/// One recorded failure, with its minimised counterexample when the
/// failing oracle consumes an injectable trace.
#[derive(Debug, Clone)]
pub struct FailureRecord {
    /// Case index (`u64::MAX` for corpus/control failures).
    pub case: u64,
    /// Problem id.
    pub problem: String,
    /// Oracle (or phase) that failed.
    pub oracle: String,
    /// Plan description (empty for corpus/control failures).
    pub plan: String,
    /// What went wrong.
    pub message: String,
    /// Steps in the minimised counterexample, when one was produced.
    pub shrunk_steps: Option<u64>,
    /// Where the counterexample was written.
    pub trace_path: Option<String>,
}

/// Campaign outcome.
#[derive(Debug)]
pub struct CampaignReport {
    /// Mode stamp.
    pub mode: String,
    /// Master seed.
    pub seed: u64,
    /// Fuzz cases executed.
    pub cases_run: u64,
    /// Problems covered (ids).
    pub problems: Vec<String>,
    /// Problem id → fuzz cases actually run on it. Unlike `problems`
    /// (the configured axis), this is *observed* coverage — the CI
    /// coverage check reads it, so a striding bug that starves a
    /// family shows up as a zero here and fails the job.
    pub problem_cases: BTreeMap<String, u64>,
    /// Oracle → number of runs.
    pub oracle_runs: BTreeMap<String, u64>,
    /// Adversarial schedules correctly rejected by the witness.
    pub witness_rejections: u64,
    /// Corpus files re-validated.
    pub corpus_checked: u64,
    /// All failures (empty on a clean campaign).
    pub failures: Vec<FailureRecord>,
    /// Wall-clock seconds for the whole campaign.
    pub wall_secs: f64,
}

impl CampaignReport {
    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Serialises the report for `CONFORMANCE_report.json`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(1.0)),
            ("kind".into(), Json::Str("conformance".into())),
            ("mode".into(), Json::Str(self.mode.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("cases".into(), Json::Num(self.cases_run as f64)),
            (
                "problems".into(),
                Json::Arr(self.problems.iter().map(|p| Json::Str(p.clone())).collect()),
            ),
            (
                "problem_cases".into(),
                Json::Obj(
                    self.problem_cases
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "oracles".into(),
                Json::Obj(
                    self.oracle_runs
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "witness_rejections".into(),
                Json::Num(self.witness_rejections as f64),
            ),
            (
                "corpus_checked".into(),
                Json::Num(self.corpus_checked as f64),
            ),
            (
                "failures".into(),
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| {
                            Json::Obj(vec![
                                (
                                    "case".into(),
                                    if f.case == u64::MAX {
                                        Json::Null
                                    } else {
                                        Json::Num(f.case as f64)
                                    },
                                ),
                                ("problem".into(), Json::Str(f.problem.clone())),
                                ("oracle".into(), Json::Str(f.oracle.clone())),
                                ("plan".into(), Json::Str(f.plan.clone())),
                                ("message".into(), Json::Str(f.message.clone())),
                                (
                                    "shrunk_steps".into(),
                                    match f.shrunk_steps {
                                        Some(s) => Json::Num(s as f64),
                                        None => Json::Null,
                                    },
                                ),
                                (
                                    "trace_path".into(),
                                    match &f.trace_path {
                                        Some(p) => Json::Str(p.clone()),
                                        None => Json::Null,
                                    },
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("wall_secs".into(), Json::Num(self.wall_secs)),
        ])
    }
}

/// Which oracles run for a given case index.
fn oracles_for(cfg: &CampaignConfig, case: u64) -> Vec<&'static str> {
    let mut out = vec!["metamorphic"];
    if case.is_multiple_of(cfg.roundtrip_every) {
        out.push("replay-roundtrip");
    }
    if case.is_multiple_of(cfg.flexible_every) {
        out.push("flexible");
    }
    if case.is_multiple_of(cfg.sim_every) {
        out.push("sim-equivalence");
    }
    if case.is_multiple_of(cfg.cluster_every) {
        out.push("cluster-equivalence");
    }
    if case.is_multiple_of(cfg.threaded_every) {
        out.push("threaded-equivalence");
    }
    out
}

/// Shrinks a failing trace against `still_fails`, writes the
/// counterexample, and fills the failure record.
fn shrink_and_persist(
    cfg: &CampaignConfig,
    record: &mut FailureRecord,
    trace: &Trace,
    mut still_fails: impl FnMut(&Trace) -> bool,
) {
    let res = shrink_trace(trace, &mut still_fails, cfg.shrink_budget);
    record.shrunk_steps = Some(res.trace.len() as u64);
    let path = cfg.fault_dir.join(format!(
        "fault-case{}-{}.trace",
        record.case,
        record.oracle.replace(' ', "-")
    ));
    match corpus::save_trace(&path, &res.trace) {
        Ok(()) => record.trace_path = Some(path.display().to_string()),
        Err(e) => record
            .message
            .push_str(&format!(" (counterexample not saved: {e})")),
    }
}

/// Negative controls: the witness must reject schedules that violate
/// conditions (b) and (c) by construction. Returns the rejection count
/// (2 on success) and records failures otherwise.
fn negative_controls(seed: u64, failures: &mut Vec<FailureRecord>) -> u64 {
    let problem = ConformanceProblem::build(ProblemKind::Jacobi);
    let mut r = rng(child_seed(seed, 0xDEAD));
    let plan = SchedulePlan::sample(&mut r, problem.n(), 400, problem.limits);
    let mut rejections = 0;
    let mut control = |name: &str, trace: Trace, expect: &str| match plan.witness().check(&trace) {
        Err(ModelError::ConditionViolated { condition, .. }) if condition == expect => {
            rejections += 1;
        }
        other => failures.push(FailureRecord {
            case: u64::MAX,
            problem: "jacobi".into(),
            oracle: format!("witness-control-{name}"),
            plan: plan.describe(),
            message: format!("expected condition ({expect}) rejection, got {other:?}"),
            shrunk_steps: None,
            trace_path: None,
        }),
    };
    // Condition (b): freeze one component's label at 0 forever.
    let mut frozen = FrozenLabelAdversary::new(plan.build(), 1, 0);
    control(
        "frozen-label",
        asynciter_models::schedule::record(&mut frozen, 400, LabelStore::Full),
        "b",
    );
    // Condition (c): starve one component past the witness's gap.
    let mut starved = StarvedComponent::new(plan.build(), 0, 0);
    control(
        "starved",
        asynciter_models::schedule::record(&mut starved, 400, LabelStore::Full),
        "c",
    );
    rejections
}

/// Re-validates the committed corpus: seed traces must equal their
/// regenerated plans and pass their witnesses; fault fixtures must
/// parse and replay deterministically (their original failure
/// predicates are plan-specific, so reproduction is checked by the
/// tier-1 suite — `fault_fixture_reproduces_from_the_demo` — not
/// here).
fn check_corpus(
    dir: &Path,
    problems: &[ConformanceProblem],
    failures: &mut Vec<FailureRecord>,
) -> u64 {
    let mut fail = |oracle: &str, path: &Path, message: String| {
        failures.push(FailureRecord {
            case: u64::MAX,
            problem: String::new(),
            oracle: oracle.into(),
            plan: String::new(),
            message: format!("{}: {message}", path.display()),
            shrunk_steps: None,
            trace_path: Some(path.display().to_string()),
        });
    };
    let entries = match corpus::load_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            fail("corpus-load", dir, e);
            return 0;
        }
    };
    let plans: BTreeMap<String, SchedulePlan> = corpus::seed_plans().into_iter().collect();
    let cluster_plans: BTreeMap<String, ClusterPlan> =
        corpus::cluster_plans().into_iter().collect();
    let mut checked = 0;
    for (path, trace) in entries {
        checked += 1;
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        if let Some(cplan) = cluster_plans.get(&stem) {
            // Committed cluster traces must equal their regenerated
            // plans (engine/channel-model determinism) and replay
            // bit-identically through the Definition-1 engine.
            let regen = corpus::record_cluster_trace(cplan);
            if regen.len() != trace.len()
                || (1..=trace.len() as u64).any(|j| {
                    regen.step(j).active != trace.step(j).active
                        || regen.labels(j).ok() != trace.labels(j).ok()
                })
            {
                fail(
                    "corpus-cluster-regen",
                    &path,
                    "committed cluster trace no longer matches its plan (engine drift)".into(),
                );
                continue;
            }
            if let Some(p) = problems.iter().find(|p| p.n() == trace.n()) {
                if let Err(e) = oracle::replay_roundtrip(p, &trace) {
                    fail("corpus-cluster-replay", &path, e);
                }
            }
            continue;
        }
        if let Some(plan) = plans.get(&stem) {
            let regen = plan.record_trace();
            if regen.len() != trace.len()
                || (1..=trace.len() as u64).any(|j| {
                    regen.step(j).active != trace.step(j).active
                        || regen.labels(j).ok() != trace.labels(j).ok()
                })
            {
                fail(
                    "corpus-regen",
                    &path,
                    "committed trace no longer matches its plan (generator drift)".into(),
                );
                continue;
            }
            if let Err(e) = plan.witness().check(&trace) {
                fail("corpus-witness", &path, format!("witness rejected: {e}"));
            }
        } else if stem.starts_with("threaded-") {
            // Witnessed racy executions: there is no plan to regenerate
            // against (the OS scheduler picked the interleaving), but
            // the committed schedule must still be admissible and
            // replay deterministically.
            if let Err(e) = asynciter_models::conditions::check_condition_a(&trace) {
                fail(
                    "corpus-threaded-condition-a",
                    &path,
                    format!("condition (a) violated: {e}"),
                );
                continue;
            }
            if let Some(p) = problems.iter().find(|p| p.n() == trace.n()) {
                if let Err(e) = oracle::replay_roundtrip(p, &trace) {
                    fail("corpus-threaded-replay", &path, e);
                }
            }
        } else if stem.starts_with("fault-")
            || stem.starts_with("mc-")
            || stem.starts_with("service-")
        {
            // Replayability of committed counterexamples — fuzzer
            // faults, model-checker counterexamples and service
            // isolation exhibits alike: the matching problem (by
            // dimension) must accept the injected trace.
            if let Some(p) = problems.iter().find(|p| p.n() == trace.n()) {
                if let Err(e) = oracle::replay_roundtrip(p, &trace) {
                    fail("corpus-fault-replay", &path, e);
                }
            }
        } else {
            fail("corpus-unknown", &path, "unrecognised corpus file".into());
        }
    }
    checked
}

/// Runs a full campaign. Deterministic given the config.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let start = std::time::Instant::now();
    let problems: Vec<ConformanceProblem> = ProblemKind::ALL
        .iter()
        .map(|&k| ConformanceProblem::build(k))
        .collect();
    let mut oracle_runs: BTreeMap<String, u64> = BTreeMap::new();
    let mut problem_cases: BTreeMap<String, u64> = problems
        .iter()
        .map(|p| (p.kind.id().to_string(), 0))
        .collect();
    let mut failures = Vec::new();

    for case in 0..cfg.cases {
        let problem = &problems[(case % problems.len() as u64) as usize];
        *problem_cases
            .get_mut(problem.kind.id())
            .expect("initialised above") += 1;
        let mut r = rng(child_seed(cfg.seed, case));
        let plan = SchedulePlan::sample(&mut r, problem.n(), problem.steps, problem.limits);
        let trace = plan.record_trace();

        // Generated-admissibility invariant: the plan's own witness
        // must accept its trace.
        *oracle_runs.entry("witness".into()).or_default() += 1;
        if let Err(e) = plan.witness().check(&trace) {
            let witness = plan.witness();
            let mut record = FailureRecord {
                case,
                problem: problem.kind.id().into(),
                oracle: "witness".into(),
                plan: plan.describe(),
                message: format!("generated schedule rejected: {e}"),
                shrunk_steps: None,
                trace_path: None,
            };
            shrink_and_persist(cfg, &mut record, &trace, |t| witness.check(t).is_err());
            failures.push(record);
            continue;
        }

        for oracle_name in oracles_for(cfg, case) {
            *oracle_runs.entry(oracle_name.into()).or_default() += 1;
            let result = match oracle_name {
                "metamorphic" => oracle::metamorphic(problem, &trace),
                "replay-roundtrip" => oracle::replay_roundtrip(problem, &trace),
                "flexible" => oracle::flexible_degrades(problem, &trace, child_seed(plan.seed, 9)),
                "sim-equivalence" => oracle::sim_equivalence(
                    problem,
                    child_seed(cfg.seed, case ^ 0x51D),
                    2 + (case % 3) as usize,
                    cfg.sim_iterations,
                ),
                "cluster-equivalence" => {
                    let mut cr = rng(child_seed(cfg.seed, case ^ 0xC1A));
                    let cplan = ClusterPlan::sample(&mut cr, problem.n(), problem.steps);
                    let described = cplan.describe();
                    oracle::cluster_replay_equivalence(problem, &cplan)
                        .map_err(|e| format!("{e} [{described}]"))
                }
                "threaded-equivalence" => {
                    let mut tr = rng(child_seed(cfg.seed, case ^ 0x7DD));
                    let tplan = ThreadedPlan::sample(&mut tr, problem.n(), 4_000_000);
                    let described = tplan.describe();
                    oracle::threaded_replay_equivalence(problem, &tplan)
                        .map(|_trace| ())
                        .map_err(|e| format!("{e} [{described}]"))
                }
                _ => unreachable!("unknown oracle"),
            };
            if let Err(message) = result {
                let mut record = FailureRecord {
                    case,
                    problem: problem.kind.id().into(),
                    oracle: oracle_name.into(),
                    plan: plan.describe(),
                    message,
                    shrunk_steps: None,
                    trace_path: None,
                };
                if !matches!(
                    oracle_name,
                    "sim-equivalence" | "cluster-equivalence" | "threaded-equivalence"
                ) {
                    // These oracles consume the injected trace, so the
                    // trace is the shrinkable input.
                    let still_fails = |t: &Trace| match oracle_name {
                        "metamorphic" => oracle::metamorphic(problem, t).is_err(),
                        "replay-roundtrip" => oracle::replay_roundtrip(problem, t).is_err(),
                        "flexible" => {
                            oracle::flexible_degrades(problem, t, child_seed(plan.seed, 9)).is_err()
                        }
                        _ => unreachable!(),
                    };
                    shrink_and_persist(cfg, &mut record, &trace, still_fails);
                }
                failures.push(record);
            }
        }
    }

    let witness_rejections = negative_controls(cfg.seed, &mut failures);
    let corpus_checked = match &cfg.corpus_dir {
        Some(dir) if dir.is_dir() => check_corpus(dir, &problems, &mut failures),
        _ => 0,
    };

    CampaignReport {
        mode: cfg.mode.clone(),
        seed: cfg.seed,
        cases_run: cfg.cases,
        problems: ProblemKind::ALL
            .iter()
            .map(|k| k.id().to_string())
            .collect(),
        problem_cases,
        oracle_runs,
        witness_rejections,
        corpus_checked,
        failures,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// The injected-fault demo behind `--inject-fault`: corrupts an
/// admissible trace with a frozen label, shrinks the witness rejection
/// to its minimal exhibit, and writes the counterexample. Returns
/// `(original steps, shrunk steps)`.
///
/// # Errors
/// A message when the demo's own expectations fail (corruption not
/// rejected, shrink lost the failure, or the file cannot be written).
pub fn inject_fault_demo(seed: u64, out: &Path) -> Result<(u64, u64), String> {
    let problem = ConformanceProblem::build(ProblemKind::Jacobi);
    let mut r = rng(child_seed(seed, 0xFA117));
    let plan = SchedulePlan::sample(&mut r, problem.n(), 400, problem.limits);
    let base = plan.record_trace();
    // The fault: component 1 keeps re-delivering its initial value —
    // condition (b) fails once the envelope floor passes label 0.
    let mut corrupt = Trace::new(base.n(), LabelStore::Full);
    for j in 1..=base.len() as u64 {
        let active: Vec<usize> = base.step(j).active.iter().map(|&i| i as usize).collect();
        let mut labels = base.labels(j).map_err(|e| e.to_string())?.to_vec();
        labels[1] = 0;
        corrupt.push_step(&active, &labels);
    }
    let witness = plan.witness();
    let still_fails = |t: &Trace| {
        matches!(
            witness.check(t),
            Err(ModelError::ConditionViolated {
                condition: "b",
                component: 1,
                ..
            })
        )
    };
    let not_caught = "injected fault was not rejected by the witness";
    shrink_and_save(&corrupt, still_fails, 200_000, not_caught, out)
}

/// The message-reordering demo behind `--cluster-reorder`: runs a
/// cluster plan whose channel holds messages aggressively under
/// `ApplyPolicy::AsReceived`, so some worker provably applies an older
/// message after a newer one (a per-worker read-label regression —
/// impossible over FIFO channels), then shrinks the trace to a minimal
/// exhibit of that regression and persists it. Returns
/// `(original steps, shrunk steps)`.
///
/// # Errors
/// A message when the demo's expectations fail (no regression produced,
/// shrinking lost it, or the file cannot be written).
pub fn cluster_reorder_demo(seed: u64, out: &Path) -> Result<(u64, u64), String> {
    let problem = ConformanceProblem::build(ProblemKind::Jacobi);
    let workers = 3usize;
    let backend = asynciter_runtime::session::Cluster {
        workers,
        hold_prob: 0.6,
        hold_extra: 12,
        link: asynciter_models::channel::LinkModel::Jitter { lo: 1, hi: 6 },
        apply_policy: asynciter_runtime::ApplyPolicy::AsReceived,
        ..asynciter_runtime::session::Cluster::default()
    };
    let report = Session::new(problem.op.as_ref())
        .x0(problem.x0.clone())
        .steps(240)
        .seed(child_seed(seed, 0x0C0))
        .record(RecordMode::Full)
        .backend(backend)
        .run()
        .map_err(|e| format!("cluster run failed: {e}"))?;
    let trace = report.trace.expect("RecordMode::Full");
    let still_fails = |t: &Trace| has_label_regression(t, workers);
    let not_caught = "channel model produced no out-of-order application";
    shrink_and_save(&trace, still_fails, 200_000, not_caught, out)
}

/// The severed-link negative control behind `--inject-cluster-fault`:
/// drops every message entry for a block-boundary component (an
/// *essential* message — a neighbouring shard reads that component), and
/// verifies the harness catches the fault two independent ways: the
/// consensus residual stays above the problem tolerance (metamorphic
/// catch) and the recorded trace shows the component's read label frozen
/// at 0 on every non-owner turn (frozen-label catch, condition (b)
/// territory). Returns `(steps, final residual)` when the fault was
/// caught.
///
/// # Errors
/// A message when the fault is *not* caught — which would mean the
/// conformance harness has a blind spot.
pub fn inject_cluster_fault_demo(seed: u64) -> Result<(u64, f64), String> {
    let problem = ConformanceProblem::build(ProblemKind::Jacobi);
    let n = problem.n();
    let workers = 4usize;
    let partition =
        asynciter_models::Partition::blocks(n, workers).map_err(|e| format!("partition: {e}"))?;
    // The last component of worker 0's block: read by worker 1's first
    // component, so its messages are essential.
    let boundary = partition
        .components_of(0)
        .last()
        .copied()
        .expect("nonempty");
    let mut cfg = asynciter_runtime::ClusterConfig::new(problem.steps)
        .with_seed(child_seed(seed, 0xFA17))
        .with_record(LabelStore::Full);
    cfg.sever_component = Some(boundary);
    let res = asynciter_runtime::ClusterEngine::run(
        problem.op.as_ref(),
        &problem.x0,
        &partition,
        &cfg,
        None,
    )
    .map_err(|e| format!("cluster run failed: {e}"))?;
    if res.final_residual <= problem.tol {
        return Err(format!(
            "severed essential message NOT caught: residual {:.3e} within tolerance {:.1e}",
            res.final_residual, problem.tol
        ));
    }
    let frozen = (1..=res.trace.len() as u64)
        .filter(|j| ((j - 1) % workers as u64) as usize != 0)
        .all(|j| res.trace.labels(j).map(|l| l[boundary]) == Ok(0));
    if !frozen {
        return Err("severed component's remote read labels did not freeze at 0".into());
    }
    Ok((res.steps_run, res.final_residual))
}

/// The conformance fuzzer's flag table (README § "Command-line
/// contract"); the `must-find` and `record` modes write `PATH`.
#[rustfmt::skip] // one flag per row
pub const CONFORMANCE: Spec<'static> = Spec {
    tool: "conformance",
    about: "Generates seeded admissible schedules, cross-checks the differential oracles\n\
            across backends, shrinks any failure to a replayable counterexample,\n\
            re-validates the committed corpus and writes CONFORMANCE_report.json.",
    flags: &[
        Flag("--quick", Switch, "the CI-sized campaign, 240 cases (default)"),
        Flag("--soak", Switch, "the nightly-sized campaign, 2000 cases"),
        Flag("--cases", Int("N"), "override the number of fuzz cases"),
        Flag("--seed", Int("N"), "master seed (default 42405)"),
        Flag("--corpus", Value("DIR"), "corpus to re-validate (default tests/corpus)"),
        Flag("--no-corpus", Switch, "skip the corpus re-validation"),
        Flag("--fault-dir", Value("DIR"), "where shrunk counterexamples go (default .)"),
        Flag("--out", Value("FILE"), "report path (default CONFORMANCE_report.json)"),
        Flag("--inject-fault", Optional("PATH", FROZEN_LABEL), "must-find: a frozen label"),
        Flag("--cluster-reorder", Optional("PATH", REORDER), "must-find: a reordered apply"),
        Flag("--inject-scratch-leak", Optional("PATH", SCRATCH_LEAK), "must-find: a service leak"),
        Flag("--inject-cluster-fault", Switch, "must-find: a severed essential message"),
        Flag("--record-threaded", Optional("PATH", THREADED), "record: a verified racy run"),
        Flag("--regen-corpus", Switch, "rewrite the seed corpus from its plans"),
    ],
};
const FROZEN_LABEL: &str = "tests/corpus/fault-frozen-label.trace";
const REORDER: &str = "tests/corpus/fault-cluster-reorder.trace";
const SCRATCH_LEAK: &str = "tests/corpus/service-scratch-leak.trace";
const THREADED: &str = "tests/corpus/threaded-00.trace";

/// CLI entry point shared by the `conformance` binary. Returns the
/// process exit code.
pub fn conformance_main(args: &[String]) -> i32 {
    CONFORMANCE.run(args, run_conformance)
}

fn run_conformance(m: &Matches<'_>) -> Result<i32, String> {
    // The last mode flag wins; every other flag overlays the preset.
    let mut cfg = match m.last_of(&["--quick", "--soak"]) {
        Some("--soak") => CampaignConfig::soak(0xA5A5),
        _ => CampaignConfig::quick(0xA5A5),
    };
    if let Some(cases) = m.int("--cases") {
        cfg.cases = cases;
        cfg.mode = "custom".into();
    }
    cfg.seed = m.int("--seed").unwrap_or(cfg.seed);
    match m.last_of(&["--corpus", "--no-corpus"]) {
        Some("--no-corpus") => cfg.corpus_dir = None,
        Some(_) => cfg.corpus_dir = m.value("--corpus").map(PathBuf::from),
        None => {}
    }
    if let Some(dir) = m.value("--fault-dir") {
        cfg.fault_dir = dir.into();
    }

    if m.has("--regen-corpus") {
        let dir = cfg.corpus_dir.as_deref();
        let dir = dir.unwrap_or(Path::new("tests/corpus"));
        let written = corpus::regen_seed_corpus(dir)
            .map(|paths| format!("wrote {} traces under {}", paths.len(), dir.display()));
        return Ok(must_find("regen-corpus", written));
    }
    if let Some(out) = m.value("--record-threaded").map(Path::new) {
        // Racy by design: every invocation witnesses a different
        // interleaving. The trace is only written after the oracle
        // verified it (condition (a), bit-identical replay,
        // convergence), so whatever lands in the corpus is sound.
        let recorded = corpus::record_threaded_trace().and_then(|trace| {
            corpus::save_trace(out, &trace)?;
            let steps = trace.len();
            Ok(format!(
                "verified {steps}-step threaded-cluster execution saved {}",
                out.display()
            ))
        });
        return Ok(must_find("record-threaded", recorded));
    }
    if let Some(out) = m.value("--cluster-reorder").map(Path::new) {
        let run = cluster_reorder_demo(cfg.seed, out).map(shrunk_to(out));
        return Ok(must_find("cluster-reorder", run));
    }
    if m.has("--inject-cluster-fault") {
        let run = inject_cluster_fault_demo(cfg.seed).map(|(steps, residual)| {
            format!(
                "severed essential message caught after {steps} steps \
                 (consensus residual {residual:.3e} stays above tolerance)"
            )
        });
        return Ok(must_find("inject-cluster-fault", run));
    }
    if let Some(out) = m.value("--inject-scratch-leak").map(Path::new) {
        let run = crate::service::inject_scratch_leak_demo(cfg.seed, out).map(shrunk_to(out));
        return Ok(must_find("inject-scratch-leak", run));
    }
    if let Some(out) = m.value("--inject-fault").map(Path::new) {
        let run = inject_fault_demo(cfg.seed, out).map(shrunk_to(out));
        return Ok(must_find("inject-fault", run));
    }

    println!(
        "=== conformance {} campaign: {} cases, seed {:#x} ===",
        cfg.mode, cfg.cases, cfg.seed
    );
    let report = run_campaign(&cfg);
    for (oracle, runs) in &report.oracle_runs {
        println!("  {oracle:>18}: {runs} runs");
    }
    println!(
        "  witness controls rejected: {} | corpus files checked: {}",
        report.witness_rejections, report.corpus_checked
    );
    for f in &report.failures {
        eprintln!(
            "FAIL case={} problem={} oracle={}: {}{}",
            if f.case == u64::MAX {
                "-".to_string()
            } else {
                f.case.to_string()
            },
            f.problem,
            f.oracle,
            f.message,
            f.trace_path
                .as_deref()
                .map(|p| format!(" [counterexample: {p}]"))
                .unwrap_or_default(),
        );
    }
    let out = Path::new(m.value("--out").unwrap_or("CONFORMANCE_report.json"));
    write_artefact(out, &report.to_json().render_pretty())?;
    println!(
        "=== {} in {:.1}s → {} ===",
        if report.passed() { "PASS" } else { "FAIL" },
        report.wall_secs,
        out.display()
    );
    Ok(exit_code(report.passed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(dir: &Path) -> CampaignConfig {
        CampaignConfig {
            mode: "custom".into(),
            cases: 6,
            seed: 0xBEEF,
            corpus_dir: None,
            fault_dir: dir.to_path_buf(),
            roundtrip_every: 3,
            flexible_every: 3,
            sim_every: 3,
            cluster_every: 3,
            threaded_every: 3,
            sim_iterations: 120,
            shrink_budget: 20_000,
        }
    }

    #[test]
    fn tiny_campaign_passes_and_reports() {
        let dir = std::env::temp_dir().join("asynciter-conformance-campaign-test");
        let report = run_campaign(&tiny_config(&dir));
        assert!(report.passed(), "failures: {:#?}", report.failures);
        assert_eq!(report.cases_run, 6);
        assert_eq!(report.witness_rejections, 2);
        assert_eq!(report.oracle_runs["metamorphic"], 6);
        assert_eq!(report.oracle_runs["sim-equivalence"], 2);
        assert_eq!(report.oracle_runs["cluster-equivalence"], 2);
        assert_eq!(report.oracle_runs["threaded-equivalence"], 2);
        // Observed coverage: 6 cases stride the 5 families (jacobi twice).
        assert_eq!(report.problem_cases["jacobi"], 2);
        for p in ["lasso", "obstacle", "logistic", "network-flow"] {
            assert_eq!(report.problem_cases[p], 1, "{p}");
        }
        let json = report.to_json().render_pretty();
        assert!(json.contains("\"conformance\""));
        assert!(json.contains("\"witness_rejections\": 2"));
        assert!(json.contains("\"problem_cases\""));
        assert!(json.contains("\"network-flow\": 1"));
    }

    #[test]
    fn cluster_reorder_demo_shrinks_and_persists() {
        let dir = std::env::temp_dir().join("asynciter-conformance-reorder-test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.join("fault-cluster-reorder.trace");
        let (orig, shrunk) = cluster_reorder_demo(0xA5A5, &out).unwrap();
        assert_eq!(orig, 240);
        assert!(shrunk < orig, "no shrinking happened");
        let trace = corpus::load_trace(&out).unwrap();
        assert!(has_label_regression(&trace, 3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn severed_essential_message_is_caught() {
        let (steps, residual) = inject_cluster_fault_demo(0xA5A5).unwrap();
        assert!(steps > 0);
        assert!(residual > 1e-8, "fault should keep the residual high");
    }

    #[test]
    fn inject_fault_demo_shrinks_and_persists() {
        let dir = std::env::temp_dir().join("asynciter-conformance-fault-test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.join("fault-frozen-label.trace");
        let (orig, shrunk) = inject_fault_demo(0xA5A5, &out).unwrap();
        assert_eq!(orig, 400);
        assert!(shrunk < orig / 10, "shrunk only to {shrunk} steps");
        // The persisted counterexample parses and still fails.
        let trace = corpus::load_trace(&out).unwrap();
        assert_eq!(trace.len() as u64, shrunk);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
