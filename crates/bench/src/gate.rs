//! The benchmark gate: a machine-readable scenario matrix with a
//! regression comparator.
//!
//! The paper's claim is that asynchronous iterations converge under
//! unbounded delays, out-of-order messages and flexible communication.
//! This module turns that claim into a standing, machine-checked
//! artefact: it sweeps the cross-product of
//!
//! - **backends** — `replay`, `flexible`, `shared-mem`, `barrier`,
//!   `sim`, `cluster`, `threaded-cluster` (every engine behind the
//!   unified `Session` API),
//! - **problems** — the five `asynciter_opt::canonical` families
//!   (Jacobi, lasso, obstacle, logistic, network flow) plus its
//!   Bellman–Ford routing instance, at the size `--quick` / `--full`
//!   names; the gate constructs no instance of its own, and `--seed`
//!   moves schedules, latency draws and fault plans, never an instance,
//! - **delay models** — no delay, bounded, unbounded heavy-tail,
//!   out-of-order, and flexible partial communication,
//!
//! records one [`GateRecord`] per cell (residual, steps, wall time,
//! simulated time, macro-iterations, per-worker updates) into
//! `BENCH_gate.json`, and — in `--check` mode — compares the fresh
//! matrix against a committed baseline, failing with a non-zero exit
//! when any cell's convergence or simulated time regresses.
//!
//! There is one stopping policy: every cell runs to the fixed-point
//! residual [`TARGET`] (the session's `StoppingRule::Residual`, which
//! all seven engines honour), so `steps` is steps-to-target — the rate
//! Theorem 1 bounds. The step budget is only a backstop, one per step
//! unit ([`BackendId::backstop`]); a cell that reaches it did not
//! converge and is recorded `failed`, which fails the gate.
//!
//! Not every backend can realise every delay model natively (a barrier
//! cannot reorder messages). Instead of holes in the matrix, each cell
//! carries a `fidelity` tag: `exact` (the model is realised literally),
//! `approx` (an analogous mechanism, e.g. thread load imbalance for
//! bounded delays), or `baseline` (the backend runs its closest
//! admissible variant as the control for that environment). The
//! comparator treats all three alike — every cell is gated.
//!
//! Only deterministic metrics are compared: status, residuals and
//! simulated ticks — and, for the five backends whose whole run is a
//! function of the seed (`replay`, `flexible`, `sim`, `cluster`,
//! `barrier`), `steps`, `macro_iterations`, `sim_time` and the bits of
//! `final_residual` must equal the baseline's. Wall-clock time is
//! recorded in every cell but never gated — it is a trajectory, not a
//! verdict, and `benchmark/` is the repo's timing yardstick.

use asynciter_core::session::{Flexible, Replay, RunReport, Session};
use asynciter_core::stopping::StoppingRule;
use asynciter_core::CoreError;
use asynciter_models::partition::Partition;
use asynciter_models::schedule::{BlockRoundRobin, ChaoticBounded, HeavyTailDelay};
use asynciter_opt::canonical::{self, Canonical, Size};
use asynciter_opt::traits::Operator;
use asynciter_report::cli::Arity::{Int, Switch, Value};
use asynciter_report::cli::{exit_code, read_baseline, write_artefact, Flag, Matches, Spec};
use asynciter_report::json::{GateDoc, GateRecord};
use asynciter_report::TextTable;
use asynciter_runtime::session::{Barrier, Cluster, SharedMem, ThreadedCluster};
use asynciter_runtime::{ApplyPolicy, LinkModel};
use asynciter_sim::compute::{ComputeModel, LatencyModel};
use asynciter_sim::runner::SimConfig;
use asynciter_sim::session::Sim;
use std::collections::BTreeSet;
use std::path::Path;

// ---------------------------------------------------------------------------
// Matrix axes
// ---------------------------------------------------------------------------

/// The problem axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemId {
    /// Diagonally dominant tridiagonal linear system, Jacobi operator.
    Jacobi,
    /// Lasso regression via the sparse prox-gradient operator.
    Lasso,
    /// Shortest paths on the Arpanet topology (Bellman–Ford operator).
    BellmanFord,
    /// Membrane obstacle problem (projected Jacobi).
    Obstacle,
    /// ℓ₂-regularised logistic regression (certified gradient operator;
    /// dense data coupling — the heaviest per-step kernel in the matrix).
    Logistic,
    /// Min-cost network flow via the hub-grounded dual price relaxation.
    NetworkFlow,
}

impl ProblemId {
    /// Every problem, sweep order.
    pub const ALL: [ProblemId; 6] = [
        ProblemId::Jacobi,
        ProblemId::Lasso,
        ProblemId::BellmanFord,
        ProblemId::Obstacle,
        ProblemId::Logistic,
        ProblemId::NetworkFlow,
    ];

    /// Stable identifier used in records and baselines.
    pub fn id(self) -> &'static str {
        match self {
            ProblemId::Jacobi => "jacobi",
            ProblemId::Lasso => "lasso",
            ProblemId::BellmanFord => "bellman-ford",
            ProblemId::Obstacle => "obstacle",
            ProblemId::Logistic => "logistic",
            ProblemId::NetworkFlow => "network-flow",
        }
    }

    /// The `opt::canonical` instance of this problem: operator and start.
    fn instance(self, size: Size) -> (Box<dyn Operator>, Vec<f64>) {
        fn boxed<O: Operator + 'static>(c: Canonical<O>) -> (Box<dyn Operator>, Vec<f64>) {
            (Box::new(c.op), c.x0)
        }
        match self {
            ProblemId::Jacobi => boxed(canonical::jacobi(size)),
            ProblemId::Lasso => boxed(canonical::lasso(size)),
            ProblemId::BellmanFord => boxed(canonical::bellman_ford(size)),
            ProblemId::Obstacle => boxed(canonical::obstacle(size)),
            ProblemId::Logistic => boxed(canonical::logistic(size)),
            ProblemId::NetworkFlow => boxed(canonical::network_flow(size)),
        }
    }
}

/// The backend axis (the seven `Session` engines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendId {
    /// Deterministic Definition-1 replay.
    Replay,
    /// Definition-3 flexible communication.
    Flexible,
    /// Free-running shared-memory threads.
    SharedMem,
    /// Barrier-synchronous threads.
    Barrier,
    /// Discrete-event simulator.
    Sim,
    /// Deterministic sharded message-passing cluster.
    Cluster,
    /// Genuinely concurrent message-passing cluster (worker threads
    /// over the transport seam).
    Threaded,
}

impl BackendId {
    /// Every backend, sweep order.
    pub const ALL: [BackendId; 7] = [
        BackendId::Replay,
        BackendId::Flexible,
        BackendId::SharedMem,
        BackendId::Barrier,
        BackendId::Sim,
        BackendId::Cluster,
        BackendId::Threaded,
    ];

    /// Stable identifier used in records and baselines.
    pub fn id(self) -> &'static str {
        match self {
            BackendId::Replay => "replay",
            BackendId::Flexible => "flexible",
            BackendId::SharedMem => "shared-mem",
            BackendId::Barrier => "barrier",
            BackendId::Sim => "sim",
            BackendId::Cluster => "cluster",
            BackendId::Threaded => "threaded-cluster",
        }
    }

    /// How often a cell tests [`TARGET`], in the backend's step unit.
    /// Deterministic backends stop at the first multiple that meets it,
    /// so this value is part of what the baseline pins.
    fn check_every(self) -> u64 {
        match self {
            BackendId::Replay | BackendId::Flexible | BackendId::Sim => 32,
            BackendId::SharedMem => 64,
            BackendId::Cluster | BackendId::Threaded => 16,
            BackendId::Barrier => 1,
        }
    }

    /// The safety net under the target, one per step unit: global
    /// iterations, barrier sweeps (each a scheduling quantum per worker on
    /// a single core) and racing block updates (under coarse OS
    /// interleaving one free-running worker can spend a long stretch
    /// before its peer runs). A cell that gets here has not converged
    /// and is recorded as `failed`.
    pub fn backstop(self) -> u64 {
        match self {
            BackendId::Replay | BackendId::Flexible | BackendId::Sim | BackendId::Cluster => {
                400_000
            }
            BackendId::Barrier => 10_000,
            BackendId::SharedMem | BackendId::Threaded => 4_000_000,
        }
    }
}

/// The delay-model axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayId {
    /// Synchronous: every read is fresh.
    NoDelay,
    /// Delays bounded by a constant (condition (d)).
    Bounded,
    /// Pareto-tailed delays — unbounded, infinite variance.
    UnboundedHeavyTail,
    /// Non-monotone labels: later updates may read older data.
    OutOfOrder,
    /// Flexible communication: mid-phase partial updates are published.
    FlexiblePartial,
}

impl DelayId {
    /// Every delay model, sweep order.
    pub const ALL: [DelayId; 5] = [
        DelayId::NoDelay,
        DelayId::Bounded,
        DelayId::UnboundedHeavyTail,
        DelayId::OutOfOrder,
        DelayId::FlexiblePartial,
    ];

    /// Stable identifier used in records and baselines.
    pub fn id(self) -> &'static str {
        match self {
            DelayId::NoDelay => "no-delay",
            DelayId::Bounded => "bounded",
            DelayId::UnboundedHeavyTail => "unbounded-heavy-tail",
            DelayId::OutOfOrder => "out-of-order",
            DelayId::FlexiblePartial => "flexible-partial",
        }
    }
}

// ---------------------------------------------------------------------------
// Cell execution
// ---------------------------------------------------------------------------

/// Worker/processor count for thread and simulator cells.
fn workers(did: DelayId) -> usize {
    match did {
        // Extra interleaving makes free-running reordering more likely.
        DelayId::OutOfOrder => 3,
        _ => 2,
    }
}

/// `(fidelity, note)` for a cell — how faithfully this backend realises
/// this delay model (see the module docs).
fn fidelity_of(bid: BackendId, did: DelayId) -> (&'static str, &'static str) {
    use BackendId::*;
    use DelayId::*;
    match (bid, did) {
        (Replay, FlexiblePartial) => (
            "baseline",
            "replay cannot publish partials; runs the bounded-delay schedule as control",
        ),
        (SharedMem, NoDelay) => ("exact", "single worker: every read is fresh"),
        (SharedMem, Bounded) => ("approx", "bounded staleness via mild worker load imbalance"),
        (SharedMem, UnboundedHeavyTail) => {
            ("approx", "severe straggler approximates heavy-tail delays")
        }
        (SharedMem, OutOfOrder) => ("approx", "free-running races reorder block publishes"),
        (Barrier, NoDelay | Bounded) => (
            "exact",
            "barrier sweeps are synchronous; imbalance only stretches wall time",
        ),
        (Barrier, UnboundedHeavyTail) => (
            "baseline",
            "barriers flatten unbounded delays; synchronous control under a severe straggler",
        ),
        (Barrier, OutOfOrder) => (
            "baseline",
            "barriers forbid reordering; plain synchronous control",
        ),
        (Barrier, FlexiblePartial) => (
            "baseline",
            "barrier runner has no partial publishing; plain synchronous control",
        ),
        (Cluster, NoDelay) => ("exact", "single worker: every read is fresh"),
        (Cluster, Bounded) => (
            "exact",
            "fixed unit-latency links: staleness bounded by the rotation",
        ),
        (Cluster, UnboundedHeavyTail) => {
            ("exact", "Pareto link latency: genuinely unbounded delays")
        }
        (Cluster, OutOfOrder) => (
            "exact",
            "held messages delivered behind newer ones under AsReceived",
        ),
        (Cluster, FlexiblePartial) => ("exact", "partial block messages folded in as they arrive"),
        (Threaded, NoDelay) => ("exact", "single worker: every read is fresh"),
        (Threaded, Bounded) => (
            "approx",
            "real-thread scheduling: staleness bounded in practice, not certified",
        ),
        (Threaded, UnboundedHeavyTail) => (
            "approx",
            "aggressively held messages model unbounded delays (not Pareto-distributed)",
        ),
        (Threaded, OutOfOrder) => (
            "exact",
            "held messages delivered behind newer ones under AsReceived",
        ),
        (Threaded, FlexiblePartial) => ("exact", "partial block messages folded in as they arrive"),
        _ => ("exact", ""),
    }
}

/// Spin schedules for thread cells: `(uniform, mild imbalance, severe
/// straggler)` per delay model.
fn thread_spin(did: DelayId, threads: usize) -> Vec<u64> {
    match did {
        DelayId::Bounded => (0..threads as u64).map(|w| w * 160).collect(),
        DelayId::UnboundedHeavyTail => (0..threads as u64).map(|w| w * 1_200).collect(),
        _ => Vec::new(),
    }
}

fn sim_partition(n: usize, procs: usize) -> Result<Partition, CoreError> {
    Partition::blocks(n, procs).map_err(|e| CoreError::Backend {
        backend: "sim",
        message: format!("cannot partition {n} components over {procs} processors: {e}"),
    })
}

/// Simulator realisation of each delay model.
fn sim_config(n: usize, did: DelayId, seed: u64) -> Result<SimConfig, CoreError> {
    let procs = workers(did);
    let mut cfg = SimConfig::uniform(sim_partition(n, procs)?);
    cfg.seed = seed;
    match did {
        DelayId::NoDelay => {}
        DelayId::Bounded => {
            cfg.compute = vec![ComputeModel::Uniform { lo: 1, hi: 4 }; procs];
            cfg.latency = LatencyModel::Jitter { lo: 1, hi: 3 };
        }
        DelayId::UnboundedHeavyTail => {
            cfg.compute = vec![
                ComputeModel::HeavyTail {
                    scale: 1,
                    alpha: 1.3,
                };
                procs
            ];
            cfg.latency = LatencyModel::HeavyTail {
                scale: 1,
                alpha: 1.3,
            };
        }
        DelayId::OutOfOrder => {
            cfg.compute = vec![ComputeModel::Uniform { lo: 1, hi: 3 }; procs];
            // Jitter wider than the send period reorders messages.
            cfg.latency = LatencyModel::Jitter { lo: 1, hi: 12 };
        }
        DelayId::FlexiblePartial => {
            cfg.compute = vec![ComputeModel::Uniform { lo: 1, hi: 4 }; procs];
            cfg.latency = LatencyModel::Jitter { lo: 1, hi: 3 };
            cfg.inner_steps = 4;
            cfg.partial_sends = 2;
        }
    }
    Ok(cfg)
}

/// Installs the delay model's `(𝒮, ℒ)` realisation for the two
/// schedule-driven backends (`flexible-partial` steers `Replay` like
/// `bounded`; `Flexible` swaps in its block round-robin instead).
fn scheduled(s: Session<'_>, n: usize, did: DelayId, seed: u64) -> Session<'_> {
    let (k_min, k_max) = (1, (n / 4).max(2).min(n));
    match did {
        DelayId::NoDelay => s, // default synchronous Jacobi schedule
        DelayId::Bounded | DelayId::FlexiblePartial => {
            s.schedule(ChaoticBounded::new(n, k_min, k_max, 8, true, seed))
        }
        DelayId::OutOfOrder => s.schedule(ChaoticBounded::new(n, k_min, k_max, 8, false, seed)),
        DelayId::UnboundedHeavyTail => s.schedule(HeavyTailDelay::new(n, k_min, k_max, 1.5, seed)),
    }
}

/// Gives the cell's session its backend — the realisation of the delay
/// model on that engine — and runs it.
fn run_session(
    s: Session<'_>,
    n: usize,
    bid: BackendId,
    did: DelayId,
    seed: u64,
) -> asynciter_core::Result<RunReport> {
    let threads = workers(did);
    match bid {
        BackendId::Replay => scheduled(s, n, did, seed).backend(Replay).run(),
        BackendId::Flexible if did == DelayId::FlexiblePartial => {
            let partition = Partition::blocks(n, threads).map_err(|e| CoreError::Backend {
                backend: "flexible",
                message: format!("cannot partition {n} over {threads} blocks: {e}"),
            })?;
            s.schedule(BlockRoundRobin::new(partition, 4))
                .backend(Flexible {
                    m: 4,
                    partial: true,
                    ..Flexible::default()
                })
                .run()
        }
        BackendId::Flexible => scheduled(s, n, did, seed)
            .backend(Flexible {
                m: 2,
                partial: false,
                ..Flexible::default()
            })
            .run(),
        BackendId::SharedMem => {
            let threads = if did == DelayId::NoDelay { 1 } else { threads };
            let (inner_steps, publish_period) = if did == DelayId::FlexiblePartial {
                (4, 2)
            } else {
                (1, 1)
            };
            s.backend(SharedMem {
                threads,
                inner_steps,
                publish_period,
                spin: thread_spin(did, threads),
                ..SharedMem::default()
            })
            .run()
        }
        BackendId::Barrier => s
            .backend(Barrier {
                // Always two workers: extra threads only multiply
                // spin-barrier crossings, which serialise on one core.
                threads: 2,
                spin: thread_spin(did, 2),
                ..Barrier::default()
            })
            .run(),
        BackendId::Sim => {
            let cfg = sim_config(n, did, seed)?;
            s.backend(Sim(cfg)).run()
        }
        BackendId::Cluster => {
            let workers = if did == DelayId::NoDelay { 1 } else { threads };
            let backend = match did {
                DelayId::NoDelay | DelayId::Bounded => Cluster {
                    workers,
                    ..Cluster::default()
                },
                DelayId::UnboundedHeavyTail => Cluster {
                    workers,
                    link: LinkModel::HeavyTail {
                        scale: 1,
                        alpha: 1.3,
                    },
                    ..Cluster::default()
                },
                DelayId::OutOfOrder => Cluster {
                    workers,
                    hold_prob: 0.3,
                    drop_prob: 0.1,
                    dup_prob: 0.05,
                    link: LinkModel::Jitter { lo: 1, hi: 6 },
                    apply_policy: ApplyPolicy::AsReceived,
                    ..Cluster::default()
                },
                DelayId::FlexiblePartial => Cluster {
                    workers,
                    partial_prob: 0.5,
                    apply_policy: ApplyPolicy::KeepFreshest,
                    link: LinkModel::Jitter { lo: 1, hi: 3 },
                    ..Cluster::default()
                },
            };
            s.backend(backend).run()
        }
        BackendId::Threaded => {
            let workers = if did == DelayId::NoDelay { 1 } else { threads };
            let backend = match did {
                // Real-thread scheduling is the delay model itself for
                // the synchronous and bounded cells.
                DelayId::NoDelay | DelayId::Bounded => ThreadedCluster {
                    workers,
                    ..ThreadedCluster::default()
                },
                DelayId::UnboundedHeavyTail => ThreadedCluster {
                    workers,
                    hold_prob: 0.4,
                    hold_extra: 24,
                    ..ThreadedCluster::default()
                },
                DelayId::OutOfOrder => ThreadedCluster {
                    workers,
                    hold_prob: 0.3,
                    hold_extra: 8,
                    drop_prob: 0.1,
                    dup_prob: 0.05,
                    apply_policy: ApplyPolicy::AsReceived,
                    ..ThreadedCluster::default()
                },
                DelayId::FlexiblePartial => ThreadedCluster {
                    workers,
                    partial_prob: 0.5,
                    apply_policy: ApplyPolicy::KeepFreshest,
                    ..ThreadedCluster::default()
                },
            };
            s.backend(backend).run()
        }
    }
}

/// The residual every cell runs to: the gate pins steps-to-target, the
/// quantity Theorem 1 bounds, not how a budget was spent.
pub const TARGET: f64 = 1e-9;

/// Runs one cell to [`TARGET`] under its backend's backstop, turning a
/// failure — an error, or a run the target did not stop — into a
/// recorded `"failed"` cell instead of aborting the matrix.
fn run_cell(
    op: &dyn Operator,
    x0: &[f64],
    pid: ProblemId,
    bid: BackendId,
    did: DelayId,
    seed: u64,
) -> GateRecord {
    let (fidelity, note) = fidelity_of(bid, did);
    let backstop = bid.backstop();
    let session =
        Session::new(op)
            .x0(x0)
            .seed(seed)
            .steps(backstop)
            .stopping(StoppingRule::Residual {
                eps: TARGET,
                check_every: bid.check_every(),
            });
    let mut record = GateRecord {
        problem: pid.id().to_string(),
        backend: bid.id().to_string(),
        delay: did.id().to_string(),
        fidelity: fidelity.to_string(),
        status: "ok".to_string(),
        note: note.to_string(),
        seed,
        steps: 0,
        wall_secs: 0.0,
        sim_time: None,
        final_residual: f64::NAN,
        macro_iterations: 0,
        per_worker_updates: Vec::new(),
    };
    match run_session(session, op.dim(), bid, did, seed) {
        Ok(report) => {
            if !report.stopped_early {
                record.status = "failed".to_string();
                record.note =
                    format!("backstop of {backstop} steps reached before residual {TARGET:e}");
            }
            record.steps = report.steps;
            record.wall_secs = report.wall_secs();
            record.sim_time = report.sim_time;
            record.final_residual = report.final_residual;
            record.macro_iterations = report.macro_iterations;
            record.per_worker_updates = report.per_worker_updates;
        }
        Err(e) => {
            record.status = "failed".to_string();
            record.note = e.to_string();
        }
    }
    record
}

/// Runs the whole scenario matrix and returns the document.
pub fn run_matrix(size: Size, seed: u64) -> GateDoc {
    let mut records =
        Vec::with_capacity(ProblemId::ALL.len() * BackendId::ALL.len() * DelayId::ALL.len());
    for &pid in &ProblemId::ALL {
        let (op, x0) = pid.instance(size);
        for &bid in &BackendId::ALL {
            for &did in &DelayId::ALL {
                records.push(run_cell(op.as_ref(), &x0, pid, bid, did, seed));
            }
        }
    }
    GateDoc::new(size.id(), records)
}

/// Distinct axis values among the `ok` records of a document — the
/// coverage the acceptance gate asserts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    /// Backends with at least one ok cell.
    pub backends: BTreeSet<String>,
    /// Problems with at least one ok cell.
    pub problems: BTreeSet<String>,
    /// Delay models with at least one ok cell.
    pub delays: BTreeSet<String>,
}

/// Computes [`Coverage`] over the document's ok records.
pub fn coverage(doc: &GateDoc) -> Coverage {
    let mut c = Coverage {
        backends: BTreeSet::new(),
        problems: BTreeSet::new(),
        delays: BTreeSet::new(),
    };
    for r in doc.records.iter().filter(|r| r.is_ok()) {
        c.backends.insert(r.backend.clone());
        c.problems.insert(r.problem.clone());
        c.delays.insert(r.delay.clone());
    }
    c
}

// ---------------------------------------------------------------------------
// The comparator
// ---------------------------------------------------------------------------

/// A current residual at or below this passes outright (absorbs
/// thread-interleaving noise near machine precision in converged cells).
const RESIDUAL_FLOOR: f64 = 1e-5;
/// Otherwise the current residual must stay within this factor of the
/// baseline.
const RESIDUAL_RATIO: f64 = 25.0;
/// Simulated-tick regression ratio (deterministic, so tight).
const SIM_TIME_RATIO: f64 = 1.25;
/// Backends whose run is a function of the seed: what they record is
/// compared exactly. `shared-mem` and `threaded-cluster` race.
const DETERMINISTIC: [&str; 5] = ["replay", "flexible", "sim", "cluster", "barrier"];

/// Per-cell comparison verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Within thresholds.
    Pass,
    /// Cell exists only in the current run (informational).
    NewCell,
    /// Baseline cell did not run ok; nothing to gate against.
    BaselineNotOk,
    /// Baseline cell is missing from the current run.
    MissingCell,
    /// The current run failed where the baseline succeeded.
    RunFailed,
    /// Convergence regressed beyond the residual thresholds.
    ResidualRegression,
    /// Simulated ticks regressed beyond the ratio.
    SimTimeRegression,
    /// A deterministic backend recorded something other than the
    /// baseline did.
    Changed,
}

impl Verdict {
    /// Whether this verdict fails the gate.
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            Verdict::MissingCell
                | Verdict::RunFailed
                | Verdict::ResidualRegression
                | Verdict::SimTimeRegression
                | Verdict::Changed
        )
    }

    /// Short label for the diff table.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::NewCell => "new",
            Verdict::BaselineNotOk => "no-base",
            Verdict::MissingCell => "MISSING",
            Verdict::RunFailed => "FAILED",
            Verdict::ResidualRegression => "RESIDUAL",
            Verdict::SimTimeRegression => "SIM-TIME",
            Verdict::Changed => "CHANGED",
        }
    }
}

/// One row of the comparison: the cell, both measurements, the verdict.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// `problem|backend|delay`.
    pub key: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Baseline residual (`NAN` when absent).
    pub base_residual: f64,
    /// Current residual (`NAN` when absent).
    pub cur_residual: f64,
    /// Baseline time metric: simulated ticks when present, else wall
    /// seconds.
    pub base_time: f64,
    /// Current time metric, same unit as `base_time`.
    pub cur_time: f64,
    /// Extra context for failures.
    pub detail: String,
}

/// The full comparison result.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// One outcome per compared cell (baseline order, then new cells).
    pub cells: Vec<CellOutcome>,
}

impl CheckReport {
    /// True when no cell failed.
    pub fn passed(&self) -> bool {
        self.cells.iter().all(|c| !c.verdict.is_failure())
    }

    /// Number of failing cells.
    pub fn failures(&self) -> usize {
        self.cells.iter().filter(|c| c.verdict.is_failure()).count()
    }

    /// Renders the ASCII diff table (failures first).
    pub fn render_table(&self) -> String {
        let mut table = TextTable::new(&[
            "cell",
            "verdict",
            "resid(base)",
            "resid(cur)",
            "time(base)",
            "time(cur)",
        ]);
        let mut rows: Vec<&CellOutcome> = self.cells.iter().collect();
        rows.sort_by_key(|c| !c.verdict.is_failure());
        for c in rows {
            table.row(&[
                c.key.clone(),
                c.verdict.label().to_string(),
                fmt_metric(c.base_residual),
                fmt_metric(c.cur_residual),
                fmt_metric(c.base_time),
                fmt_metric(c.cur_time),
            ]);
        }
        table.render()
    }
}

fn fmt_metric(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.3e}")
    }
}

fn time_metric(r: &GateRecord) -> f64 {
    match r.sim_time {
        Some(t) => t as f64,
        None => r.wall_secs,
    }
}

fn compare_cell(base: &GateRecord, cur: &GateRecord) -> (Verdict, String) {
    if !base.is_ok() {
        return (Verdict::BaselineNotOk, base.note.clone());
    }
    if !cur.is_ok() {
        return (Verdict::RunFailed, cur.note.clone());
    }
    // Convergence: a floor for converged cells, then a ratio. NaN fails
    // both comparisons, as it must.
    let resid_ok = cur.final_residual <= RESIDUAL_FLOOR
        || cur.final_residual <= base.final_residual * RESIDUAL_RATIO + f64::MIN_POSITIVE;
    if !resid_ok {
        return (
            Verdict::ResidualRegression,
            format!(
                "residual {:.3e} exceeds floor {:.1e} and {}x baseline {:.3e}",
                cur.final_residual, RESIDUAL_FLOOR, RESIDUAL_RATIO, base.final_residual
            ),
        );
    }
    // Simulated ticks: deterministic, gated tightly. A cell that loses
    // the metric the baseline had must not silently skip the check.
    match (base.sim_time, cur.sim_time) {
        (Some(bt), Some(ct)) => {
            if bt > 0 && ct as f64 > bt as f64 * SIM_TIME_RATIO {
                return (
                    Verdict::SimTimeRegression,
                    format!("simulated time {ct} exceeds {SIM_TIME_RATIO}x baseline {bt}"),
                );
            }
        }
        (Some(bt), None) => {
            return (
                Verdict::SimTimeRegression,
                format!("baseline recorded simulated time {bt} but the current cell has none"),
            );
        }
        (None, _) => {}
    }
    if DETERMINISTIC.contains(&base.backend.as_str()) {
        let exact = |r: &GateRecord| {
            let residual = r.final_residual;
            [
                ("steps", r.steps.to_string()),
                ("macro_iterations", r.macro_iterations.to_string()),
                ("sim_time", format!("{:?}", r.sim_time)),
                (
                    "final_residual",
                    format!("{residual:e} (bits {:#018x})", residual.to_bits()),
                ),
            ]
        };
        let changed = exact(base)
            .into_iter()
            .zip(exact(cur))
            .find(|(b, c)| b != c);
        if let Some(((field, b), (_, c))) = changed {
            return (
                Verdict::Changed,
                format!("deterministic {field} changed: baseline {b}, current {c}"),
            );
        }
    }
    (Verdict::Pass, String::new())
}

/// Compares a fresh matrix against a baseline, cell by cell.
pub fn check_matrix(baseline: &GateDoc, current: &GateDoc) -> CheckReport {
    let mut cells = Vec::with_capacity(baseline.records.len());
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for base in &baseline.records {
        let key = base.key();
        seen.insert(key.clone());
        let cur = current.records.iter().find(|r| r.key() == key);
        let (verdict, detail, cur_resid, cur_time) = match cur {
            None => (
                if base.is_ok() {
                    Verdict::MissingCell
                } else {
                    Verdict::BaselineNotOk
                },
                "cell missing from current run".to_string(),
                f64::NAN,
                f64::NAN,
            ),
            Some(cur) => {
                let (v, d) = compare_cell(base, cur);
                (v, d, cur.final_residual, time_metric(cur))
            }
        };
        cells.push(CellOutcome {
            key,
            verdict,
            base_residual: base.final_residual,
            cur_residual: cur_resid,
            base_time: time_metric(base),
            cur_time,
            detail,
        });
    }
    for cur in current.records.iter().filter(|r| !seen.contains(&r.key())) {
        cells.push(CellOutcome {
            key: cur.key(),
            verdict: Verdict::NewCell,
            base_residual: f64::NAN,
            cur_residual: cur.final_residual,
            base_time: f64::NAN,
            cur_time: time_metric(cur),
            detail: "cell not present in baseline".to_string(),
        });
    }
    CheckReport { cells }
}

// ---------------------------------------------------------------------------
// CLI entry point (thin `bin/gate.rs` wraps this)
// ---------------------------------------------------------------------------

/// The gate's flag table (README § "Command-line contract").
#[rustfmt::skip] // one flag per row
pub const GATE: Spec<'static> = Spec {
    tool: "gate",
    about: "Runs the backend x problem x delay-model scenario matrix, writes the\n\
            machine-readable BENCH_gate.json, and with --check compares against a\n\
            baseline, exiting 1 on any regression.",
    flags: &[
        Flag("--quick", Switch, "the CI-sized matrix (default)"),
        Flag("--full", Switch, "the full-sized matrix"),
        Flag("--seed", Int("N"), "master seed (default 2022)"),
        Flag("--out", Value("PATH"), "artefact path (default BENCH_gate.json)"),
        Flag("--check", Value("BASELINE"), "baseline to compare against"),
    ],
};

/// The gate CLI: runs the matrix, writes the artefact, optionally checks
/// a baseline. Returns the process exit code: 0 on success, 1 on any
/// regression or failed cell, 2 on usage/IO/parse errors.
pub fn gate_main(args: &[String]) -> i32 {
    GATE.run(args, run_gate)
}

fn run_gate(m: &Matches<'_>) -> Result<i32, String> {
    let size = match m.last_of(&["--quick", "--full"]) {
        Some("--full") => Size::Full,
        _ => Size::Quick,
    };
    let seed = m.int("--seed").unwrap_or(2022);
    let out = Path::new(m.value("--out").unwrap_or("BENCH_gate.json"));
    println!("gate: running {} scenario matrix (seed {seed})", size.id());
    let doc = run_matrix(size, seed);
    write_artefact(out, &doc.render())?;
    let cov = coverage(&doc);
    let failed: Vec<&GateRecord> = doc.records.iter().filter(|r| !r.is_ok()).collect();
    println!(
        "gate: {} cells ({} ok, {} failed) -> {} | coverage: {} backends x {} problems x {} delay models",
        doc.records.len(),
        doc.records.len() - failed.len(),
        failed.len(),
        out.display(),
        cov.backends.len(),
        cov.problems.len(),
        cov.delays.len(),
    );
    for r in &failed {
        eprintln!("gate: FAILED cell {}: {}", r.key(), r.note);
    }
    let mut passed = failed.is_empty();
    if let Some(path) = m.value("--check").map(Path::new) {
        let baseline = read_baseline(path, GateDoc::parse)?;
        let report = check_matrix(&baseline, &doc);
        println!("{}", report.render_table());
        if report.passed() {
            println!(
                "gate: PASS — {} cells within thresholds of {}",
                report.cells.len(),
                path.display()
            );
        } else {
            for c in report.cells.iter().filter(|c| c.verdict.is_failure()) {
                eprintln!(
                    "gate: REGRESSION {} [{}]: {}",
                    c.key,
                    c.verdict.label(),
                    c.detail
                );
            }
            eprintln!(
                "gate: FAIL — {} of {} cells regressed vs {}",
                report.failures(),
                report.cells.len(),
                path.display()
            );
            passed = false;
        }
    }
    Ok(exit_code(passed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_record(key: (&str, &str, &str)) -> GateRecord {
        GateRecord {
            problem: key.0.into(),
            backend: key.1.into(),
            delay: key.2.into(),
            fidelity: "exact".into(),
            status: "ok".into(),
            note: String::new(),
            seed: 1,
            steps: 100,
            wall_secs: 0.5,
            sim_time: None,
            final_residual: 1e-3,
            macro_iterations: 10,
            per_worker_updates: vec![50, 50],
        }
    }

    fn doc(records: Vec<GateRecord>) -> GateDoc {
        GateDoc::new("quick", records)
    }

    fn cell(op: &dyn Operator, x0: &[f64], bid: BackendId, did: DelayId) -> GateRecord {
        run_cell(op, x0, ProblemId::Jacobi, bid, did, 2022)
    }

    /// Steps-to-target is the pinned quantity: the same cell on an
    /// operator with the same fixed point and a slower contraction
    /// still reaches the target, and no longer matches the baseline.
    #[test]
    fn a_slower_contraction_changes_a_deterministic_cell() {
        let c = canonical::jacobi(Size::Quick);
        let relaxed = asynciter_opt::relaxed::RelaxedOperator::new(c.op.clone(), 0.5).unwrap();
        let (bid, did) = (BackendId::Replay, DelayId::Bounded);
        let base = cell(&c.op, &c.x0, bid, did);
        let slow = cell(&relaxed, &c.x0, bid, did);
        assert!(base.is_ok() && slow.is_ok(), "{base:?} {slow:?}");
        assert!(slow.final_residual <= TARGET && base.steps < slow.steps);
        let report = check_matrix(&doc(vec![base]), &doc(vec![slow]));
        assert_eq!(report.cells[0].verdict, Verdict::Changed);
        let detail = &report.cells[0].detail;
        assert!(
            detail.starts_with("deterministic steps changed"),
            "{detail}"
        );
    }

    /// The backstop is a safety net, not a second way to finish.
    #[test]
    fn a_cell_that_reaches_its_backstop_is_failed() {
        struct Drifts;
        impl Operator for Drifts {
            fn dim(&self) -> usize {
                2
            }
            fn component(&self, i: usize, x: &[f64]) -> f64 {
                x[i] + 1.0
            }
        }
        let record = cell(&Drifts, &[0.0; 2], BackendId::Replay, DelayId::NoDelay);
        assert_eq!(record.status, "failed");
        assert_eq!(
            record.note,
            "backstop of 400000 steps reached before residual 1e-9"
        );
        assert_eq!((record.steps, record.final_residual), (400_000, 1.0));
    }

    #[test]
    fn identical_docs_pass() {
        let d = doc(vec![ok_record(("p", "b", "d"))]);
        let report = check_matrix(&d, &d.clone());
        assert!(report.passed());
        assert_eq!(report.cells[0].verdict, Verdict::Pass);
    }

    #[test]
    fn residual_floor_absorbs_noise() {
        // Baseline at machine precision, current 100x worse but still
        // far below the floor: pass (thread nondeterminism tolerance).
        let base = ok_record(("p", "b", "d"));
        let mut cur = base.clone();
        let mut base = base;
        base.final_residual = 1e-14;
        cur.final_residual = 1e-12;
        let report = check_matrix(&doc(vec![base]), &doc(vec![cur]));
        assert!(report.passed());
    }

    #[test]
    fn residual_regression_fails() {
        let mut base = ok_record(("p", "b", "d"));
        base.final_residual = 1e-3; // above the floor already
        let mut cur = base.clone();
        cur.final_residual = 1.0; // 1000x worse
        let report = check_matrix(&doc(vec![base]), &doc(vec![cur]));
        assert!(!report.passed());
        assert_eq!(report.cells[0].verdict, Verdict::ResidualRegression);
    }

    #[test]
    fn nan_residual_fails() {
        let mut base = ok_record(("p", "b", "d"));
        base.final_residual = 1e-3;
        let mut cur = base.clone();
        cur.final_residual = f64::NAN;
        let report = check_matrix(&doc(vec![base]), &doc(vec![cur]));
        assert_eq!(report.cells[0].verdict, Verdict::ResidualRegression);
    }

    #[test]
    fn wall_time_is_recorded_but_never_gated() {
        let mut base = ok_record(("p", "b", "d"));
        base.wall_secs = 0.1;
        let mut cur = base.clone();
        cur.wall_secs = 1000.0;
        let report = check_matrix(&doc(vec![base]), &doc(vec![cur]));
        assert!(report.passed());
        assert_eq!(report.cells[0].cur_time, 1000.0);
    }

    #[test]
    fn sim_time_regression_fails_tightly() {
        let mut base = ok_record(("p", "sim", "d"));
        base.sim_time = Some(1000);
        let mut cur = base.clone();
        cur.sim_time = Some(1400); // 1.4x > 1.25x
        let report = check_matrix(&doc(vec![base]), &doc(vec![cur]));
        assert!(!report.passed());
        assert_eq!(report.cells[0].verdict, Verdict::SimTimeRegression);
        // Within the ratio: still a change for the deterministic
        // simulator, a pass for a backend that races.
        for (backend, verdict) in [("sim", Verdict::Changed), ("b", Verdict::Pass)] {
            let mut cur = ok_record(("p", backend, "d"));
            cur.sim_time = Some(1200);
            let mut base = ok_record(("p", backend, "d"));
            base.sim_time = Some(1000);
            let report = check_matrix(&doc(vec![base]), &doc(vec![cur]));
            assert_eq!(report.cells[0].verdict, verdict);
        }
    }

    #[test]
    fn losing_the_sim_time_metric_fails() {
        let mut base = ok_record(("p", "sim", "d"));
        base.sim_time = Some(1000);
        let mut cur = base.clone();
        cur.sim_time = None;
        let report = check_matrix(&doc(vec![base]), &doc(vec![cur]));
        assert!(!report.passed());
        assert_eq!(report.cells[0].verdict, Verdict::SimTimeRegression);
    }

    #[test]
    fn missing_and_failed_cells_fail() {
        let base = doc(vec![
            ok_record(("p", "b", "d")),
            ok_record(("p2", "b", "d")),
        ]);
        let mut failed = ok_record(("p", "b", "d"));
        failed.status = "failed".into();
        failed.note = "boom".into();
        let current = doc(vec![failed]);
        let report = check_matrix(&base, &current);
        assert_eq!(report.failures(), 2);
        let verdicts: Vec<_> = report.cells.iter().map(|c| c.verdict.clone()).collect();
        assert!(verdicts.contains(&Verdict::RunFailed));
        assert!(verdicts.contains(&Verdict::MissingCell));
    }

    #[test]
    fn new_cells_are_informational() {
        let base = doc(vec![ok_record(("p", "b", "d"))]);
        let current = doc(vec![
            ok_record(("p", "b", "d")),
            ok_record(("p3", "b", "d")),
        ]);
        let report = check_matrix(&base, &current);
        assert!(report.passed());
        assert!(report
            .cells
            .iter()
            .any(|c| c.verdict == Verdict::NewCell && c.key == "p3|b|d"));
    }

    #[test]
    fn diff_table_renders_failures_first() {
        let mut base_bad = ok_record(("p", "b", "d"));
        base_bad.final_residual = 1e-3;
        let mut cur_bad = base_bad.clone();
        cur_bad.final_residual = 10.0;
        let base = doc(vec![ok_record(("fine", "b", "d")), base_bad]);
        let current = doc(vec![ok_record(("fine", "b", "d")), cur_bad]);
        let report = check_matrix(&base, &current);
        let table = report.render_table();
        let first_data_line = table.lines().nth(2).unwrap();
        assert!(first_data_line.contains("RESIDUAL"), "{table}");
    }
}
