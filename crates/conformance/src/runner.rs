//! The conformance campaign: generate → certify → cross-check → shrink.
//!
//! One campaign runs `cases` fuzz cases. Case `c` deterministically
//! derives a plan from `seed` and problem `c mod 5` (one of the five
//! [`ProblemKind`]s), records its trace, checks the plan's own
//! [`AdmissibilityWitness`] accepts it (the generated-admissibility
//! invariant), then drives the campaign's differential oracles:
//! metamorphic on every case, replay round-trip / flexible degradation /
//! sim equivalence / cluster equivalence (a seeded message-passing plan
//! whose recorded schedule must replay bit-identically) / threaded
//! equivalence (a *racy* real-thread run checked against its own
//! recorded schedule) on striding subsets. Every campaign also runs the
//! *negative controls* — adversarial schedules the witness must reject —
//! and re-validates the committed corpus through the same replay law
//! ([`crate::oracle`]).
//!
//! A failing oracle that consumes the injected trace is minimised with
//! [`crate::shrink::shrink_and_save`] (predicate: the same oracle still
//! fails on the shrunk trace) and the counterexample is written as a
//! replayable `.trace` file for commit under `tests/corpus/`.
//!
//! [`AdmissibilityWitness`]: asynciter_models::AdmissibilityWitness

use crate::cluster::{has_label_regression, ClusterPlan, ThreadedPlan};
use crate::corpus;
use crate::oracle;
use crate::plan::SchedulePlan;
use crate::problems::{ConformanceProblem, ProblemKind};
use crate::shrink::shrink_and_save;
use asynciter_core::compare::same_schedule;
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
    /// The CI-sized campaign: ≥ 200 schedules over the five problems.
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
    /// Fuzz case index (`None` for corpus/control failures).
    pub case: Option<u64>,
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

impl FailureRecord {
    fn new(case: Option<u64>, problem: &str, oracle: &str, plan: String, message: String) -> Self {
        Self {
            case,
            problem: problem.into(),
            oracle: oracle.into(),
            plan,
            message,
            shrunk_steps: None,
            trace_path: None,
        }
    }
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
        let num = |v: u64| Json::Num(v as f64);
        let text = |s: &str| Json::Str(s.into());
        let obj = |fields: Vec<(&str, Json)>| {
            Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
        };
        let counts = |m: &BTreeMap<String, u64>| {
            Json::Obj(m.iter().map(|(k, &v)| (k.clone(), num(v))).collect())
        };
        let failure = |f: &FailureRecord| {
            obj(vec![
                ("case", f.case.map_or(Json::Null, num)),
                ("problem", text(&f.problem)),
                ("oracle", text(&f.oracle)),
                ("plan", text(&f.plan)),
                ("message", text(&f.message)),
                ("shrunk_steps", f.shrunk_steps.map_or(Json::Null, num)),
                (
                    "trace_path",
                    f.trace_path.as_deref().map_or(Json::Null, text),
                ),
            ])
        };
        obj(vec![
            ("schema_version", Json::Num(1.0)),
            ("kind", text("conformance")),
            ("mode", text(&self.mode)),
            ("seed", num(self.seed)),
            ("cases", num(self.cases_run)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(|p| text(p)).collect()),
            ),
            ("problem_cases", counts(&self.problem_cases)),
            ("oracles", counts(&self.oracle_runs)),
            ("witness_rejections", num(self.witness_rejections)),
            ("corpus_checked", num(self.corpus_checked)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(failure).collect()),
            ),
            ("wall_secs", Json::Num(self.wall_secs)),
        ])
    }
}

/// What one fuzz case hands an oracle.
struct Case<'a> {
    cfg: &'a CampaignConfig,
    index: u64,
    problem: &'a ConformanceProblem,
    plan_seed: u64,
}

/// How an oracle meets a case.
enum Check {
    /// Consumes the case's injected trace, so a failure shrinks over it.
    OnTrace(fn(&Case<'_>, &Trace) -> Result<(), String>),
    /// Runs its own machine, seeded from the case; a failure is reported
    /// as is.
    OwnRun(fn(&Case<'_>) -> Result<(), String>),
}

/// One campaign oracle: its report name, its [`CampaignConfig`] stride
/// and its check.
struct Oracle {
    name: &'static str,
    every: fn(&CampaignConfig) -> u64,
    check: Check,
}

/// Every campaign oracle, in the order each case runs them.
static ORACLES: [Oracle; 6] = [
    Oracle {
        name: "metamorphic",
        every: |_| 1,
        check: Check::OnTrace(|c, t| oracle::metamorphic(c.problem, t)),
    },
    Oracle {
        name: "replay-roundtrip",
        every: |cfg| cfg.roundtrip_every,
        check: Check::OnTrace(|c, t| oracle::replay_roundtrip(c.problem, t)),
    },
    Oracle {
        name: "flexible",
        every: |cfg| cfg.flexible_every,
        check: Check::OnTrace(|c, t| {
            oracle::flexible_degrades(c.problem, t, child_seed(c.plan_seed, 9))
        }),
    },
    Oracle {
        name: "sim-equivalence",
        every: |cfg| cfg.sim_every,
        check: Check::OwnRun(|c| {
            let seed = child_seed(c.cfg.seed, c.index ^ 0x51D);
            let procs = 2 + (c.index % 3) as usize;
            oracle::sim_equivalence(c.problem, seed, procs, c.cfg.sim_iterations)
        }),
    },
    Oracle {
        name: "cluster-equivalence",
        every: |cfg| cfg.cluster_every,
        check: Check::OwnRun(|c| {
            let mut r = rng(child_seed(c.cfg.seed, c.index ^ 0xC1A));
            let plan = ClusterPlan::sample(&mut r, c.problem.n(), c.problem.steps);
            oracle::cluster_replay_equivalence(c.problem, &plan)
                .map_err(|e| format!("{e} [{}]", plan.describe()))
        }),
    },
    Oracle {
        name: "threaded-equivalence",
        every: |cfg| cfg.threaded_every,
        check: Check::OwnRun(|c| {
            let mut r = rng(child_seed(c.cfg.seed, c.index ^ 0x7DD));
            let plan = ThreadedPlan::sample(&mut r, c.problem.n(), 4_000_000);
            oracle::threaded_replay_equivalence(c.problem, &plan)
                .map(|_trace| ())
                .map_err(|e| format!("{e} [{}]", plan.describe()))
        }),
    },
];

/// Shrinks fuzz case `case`'s failing trace against `still_fails`,
/// writes the counterexample and fills the failure record.
fn shrink_and_persist(
    cfg: &CampaignConfig,
    case: u64,
    record: &mut FailureRecord,
    trace: &Trace,
    still_fails: impl FnMut(&Trace) -> bool,
) {
    let name = format!("fault-case{case}-{}.trace", record.oracle.replace(' ', "-"));
    let path = cfg.fault_dir.join(name);
    let flaky = "the failure did not recur on its own trace";
    match shrink_and_save(trace, still_fails, cfg.shrink_budget, flaky, &path) {
        Ok((_, shrunk)) => {
            record.shrunk_steps = Some(shrunk);
            record.trace_path = Some(path.display().to_string());
        }
        Err(e) => record.message += &format!(" (counterexample not saved: {e})"),
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
        other => failures.push(FailureRecord::new(
            None,
            "jacobi",
            &format!("witness-control-{name}"),
            plan.describe(),
            format!("expected condition ({expect}) rejection, got {other:?}"),
        )),
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

/// Re-validates the committed corpus: seed and cluster traces must equal
/// their regenerated plans (seed traces must also pass their witnesses);
/// cluster, threaded and counterexample traces must replay
/// deterministically on the problem of their dimension — a file no
/// problem can replay is a `corpus-unmatched` failure. (Fault fixtures'
/// original predicates are plan-specific; the tier-1 suite checks their
/// reproduction — `fault_fixture_reproduces_from_the_demo`.)
fn check_corpus(
    dir: &Path,
    problems: &[ConformanceProblem],
    failures: &mut Vec<FailureRecord>,
) -> u64 {
    let mut fail = |oracle: &str, path: &Path, message: String| {
        let message = format!("{}: {message}", path.display());
        let mut record = FailureRecord::new(None, "", oracle, String::new(), message);
        record.trace_path = Some(path.display().to_string());
        failures.push(record);
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
        // Which replay check the file gets, after its own checks pass.
        let replay_as = if let Some(cplan) = cluster_plans.get(&stem) {
            // Committed cluster traces must equal their regenerated
            // plans (engine/channel-model determinism).
            let regen = corpus::record_cluster_trace(cplan);
            if let Err(m) = same_schedule(&regen, &trace) {
                let drift = "committed cluster trace no longer matches its plan (engine drift)";
                fail("corpus-cluster-regen", &path, format!("{drift}: {m}"));
                continue;
            }
            "corpus-cluster-replay"
        } else if let Some(plan) = plans.get(&stem) {
            if let Err(m) = same_schedule(&plan.record_trace(), &trace) {
                let drift = "committed trace no longer matches its plan (generator drift)";
                fail("corpus-regen", &path, format!("{drift}: {m}"));
            } else if let Err(e) = plan.witness().check(&trace) {
                fail("corpus-witness", &path, format!("witness rejected: {e}"));
            }
            continue;
        } else if stem.starts_with("threaded-") {
            // Witnessed racy executions: there is no plan to regenerate
            // against (the OS scheduler picked the interleaving), but
            // the committed schedule must still be admissible.
            if let Err(e) = asynciter_models::conditions::check_condition_a(&trace) {
                let message = format!("condition (a) violated: {e}");
                fail("corpus-threaded-condition-a", &path, message);
                continue;
            }
            "corpus-threaded-replay"
        } else if stem.starts_with("fault-")
            || stem.starts_with("mc-")
            || stem.starts_with("service-")
        {
            // Committed counterexamples — fuzzer faults, model-checker
            // counterexamples and service isolation exhibits alike.
            "corpus-fault-replay"
        } else {
            fail("corpus-unknown", &path, "unrecognised corpus file".into());
            continue;
        };
        match problems.iter().find(|p| p.n() == trace.n()) {
            Some(p) => {
                if let Err(e) = oracle::replay_roundtrip(p, &trace) {
                    fail(replay_as, &path, e);
                }
            }
            None => {
                let message = format!("no problem has dimension {}", trace.n());
                fail("corpus-unmatched", &path, message);
            }
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
        let id = problem.kind.id();
        *problem_cases.get_mut(id).expect("initialised above") += 1;
        let mut r = rng(child_seed(cfg.seed, case));
        let plan = SchedulePlan::sample(&mut r, problem.n(), problem.steps, problem.limits);
        let trace = plan.record_trace();

        // Generated-admissibility invariant: the plan's own witness
        // must accept its trace.
        *oracle_runs.entry("witness".into()).or_default() += 1;
        if let Err(e) = plan.witness().check(&trace) {
            let witness = plan.witness();
            let message = format!("generated schedule rejected: {e}");
            let mut record =
                FailureRecord::new(Some(case), id, "witness", plan.describe(), message);
            shrink_and_persist(cfg, case, &mut record, &trace, |t| {
                witness.check(t).is_err()
            });
            failures.push(record);
            continue;
        }

        let ctx = Case {
            cfg,
            index: case,
            problem,
            plan_seed: plan.seed,
        };
        for o in ORACLES
            .iter()
            .filter(|o| case.is_multiple_of((o.every)(cfg)))
        {
            *oracle_runs.entry(o.name.into()).or_default() += 1;
            let result = match o.check {
                Check::OnTrace(check) => check(&ctx, &trace),
                Check::OwnRun(check) => check(&ctx),
            };
            if let Err(message) = result {
                let mut record =
                    FailureRecord::new(Some(case), id, o.name, plan.describe(), message);
                if let Check::OnTrace(check) = o.check {
                    shrink_and_persist(cfg, case, &mut record, &trace, |t| check(&ctx, t).is_err());
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
    let seed = child_seed(seed, 0x0C0);
    let (_, trace) = oracle::record(&problem, |s| s.steps(240).seed(seed).backend(backend))?;
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
        let jacobi = ConformanceProblem::build(ProblemKind::Jacobi);
        let witnessed = oracle::threaded_replay_equivalence(&jacobi, &corpus::threaded_plan());
        let recorded = witnessed.and_then(|trace| {
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
            f.case.map_or("-".into(), |c| c.to_string()),
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
    fn a_corpus_trace_no_problem_can_replay_fails_the_campaign() {
        // Every problem has n >= 4: nothing can replay a 3-component
        // counterexample, so re-validation must not pass it silently.
        let dir = std::env::temp_dir().join("asynciter-conformance-unmatched-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut trace = Trace::new(3, LabelStore::Full);
        trace.push_step(&[0, 1, 2], &[0, 0, 0]);
        corpus::save_trace(&dir.join("fault-x.trace"), &trace).unwrap();
        let cfg = CampaignConfig {
            cases: 0,
            corpus_dir: Some(dir.clone()),
            ..tiny_config(&dir)
        };
        let report = run_campaign(&cfg);
        assert_eq!(report.corpus_checked, 1);
        let oracles: Vec<&str> = report.failures.iter().map(|f| f.oracle.as_str()).collect();
        assert_eq!(oracles, ["corpus-unmatched"], "{:#?}", report.failures);
        let _ = std::fs::remove_dir_all(&dir);
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
