//! The unified `Session` execution API.
//!
//! The paper studies *one* iterate sequence — Eq. (1) with unbounded
//! delays, out-of-order labels and flexible partial updates — but the
//! workspace grew seven ways of running it (deterministic replay,
//! flexible communication, free-running threads, barrier-synchronous
//! threads, the discrete-event simulator, and two message-passing
//! clusters: deterministic and genuinely concurrent), each with its own
//! config and result types. This module collapses them behind three
//! small pieces:
//!
//! - [`Problem`] — what is solved: the operator, the initial iterate and
//!   (for experiments) the known fixed point.
//! - [`RunControl`] — how long and what to observe: step budget, error /
//!   residual sampling, stopping rule, trace recording, seed, and the
//!   schedule for replay-style backends.
//! - [`Backend`] — *where* Eq. (1) executes. [`Replay`]
//!   ([`crate::engine`]) and [`Flexible`] ([`crate::flexible`]), two
//!   names of one step loop, live in this crate; `SharedMem { threads }`,
//!   `Barrier { threads }`, the deterministic sharded message-passing
//!   `Cluster { workers, .. }` and its genuinely concurrent sibling
//!   `ThreadedCluster { workers, .. }` in `asynciter-runtime`;
//!   `Sim(config)` in `asynciter-sim`. Every backend populates the same
//!   [`RunReport`].
//!
//! The sequential engines observe in one place: the step loop (`Replay`,
//! `Flexible`), the simulator's event loop (`Sim`) and the
//! message-passing event loop (`Cluster`) pass [`RunControl::check`] and
//! then tell one [`Observer`](crate::observer::Observer) each completed
//! step, so macro-iteration streaming, the trace, sampling and every
//! stopping rule are the same code for all four; the three racing
//! engines of `asynciter-runtime` pass the same check in one opening.
//!
//! The fluent [`Session`] builder wires the three together:
//!
//! ```
//! use asynciter_core::session::{RecordMode, Replay, Session};
//! use asynciter_models::schedule::ChaoticBounded;
//! use asynciter_opt::linear::JacobiOperator;
//! use asynciter_numerics::sparse::tridiagonal;
//!
//! let op = JacobiOperator::new(tridiagonal(8, 4.0, -1.0), vec![1.0; 8]).unwrap();
//! let report = Session::new(&op)
//!     .steps(2_000)
//!     .schedule(ChaoticBounded::new(8, 2, 4, 10, false, 7))
//!     .record(RecordMode::Full)
//!     .backend(Replay)
//!     .run()
//!     .unwrap();
//! assert_eq!(report.steps, 2_000);
//! assert!(report.macro_iterations > 0);
//! ```
//!
//! Because every backend speaks [`RunReport`], same-problem/any-backend
//! comparisons (async vs sync vs simulated speedup sweeps) are one-liners:
//! build the session once per backend and diff the reports.

pub use crate::engine::Replay;
use crate::error::CoreError;
pub use crate::flexible::Flexible;
use crate::stopping::StoppingRule;
use asynciter_models::schedule::{ScheduleGen, SyncJacobi};
use asynciter_models::trace::{LabelStore, Trace};
use asynciter_opt::traits::Operator;
use std::time::Duration;

/// What is being solved: the fixed-point operator plus starting data.
pub struct Problem<'a> {
    /// The operator `F` of Eq. (1).
    pub op: &'a dyn Operator,
    /// Initial iterate `x(0)`.
    pub x0: Vec<f64>,
    /// Known fixed point `x*` (experiments only: error recording and
    /// oracle stopping; the algorithms never read it).
    pub xstar: Option<Vec<f64>>,
}

impl Problem<'_> {
    /// Dimension `n`.
    pub fn n(&self) -> usize {
        self.op.dim()
    }
}

/// How much trace information a run keeps (unifies the engines'
/// `LabelStore` / `Option<LabelStore>` knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordMode {
    /// Nothing is recorded: no backend builds a trace, and all but
    /// `SharedMem` still count macro-iterations (see
    /// [`RunReport::macro_iterations`]).
    #[default]
    Off,
    /// Active sets and minimum labels only.
    MinOnly,
    /// Full label vectors per step.
    Full,
}

impl RecordMode {
    /// The label retention used when a trace is materialised.
    pub fn label_store(self) -> LabelStore {
        match self {
            RecordMode::Full => LabelStore::Full,
            _ => LabelStore::MinOnly,
        }
    }

    /// Whether the report should carry the trace.
    pub fn keeps_trace(self) -> bool {
        self != RecordMode::Off
    }
}

/// Backend-independent run controls.
///
/// `schedule` is the explicit `(𝒮, ℒ)` realisation consumed by
/// schedule-driven backends ([`Replay`], [`Flexible`]); thread and
/// simulator backends generate their own schedules and reject it. It is
/// `&mut` state: backends `take()` it while running.
pub struct RunControl<'a> {
    /// Step budget: iterations (replay/flexible), block updates
    /// (shared-memory), sweeps (barrier) or global iterations (sim).
    pub max_steps: u64,
    /// Record `‖x(j) − x*‖_∞` every this many steps (0 = never; needs
    /// `Problem::xstar`).
    pub error_every: u64,
    /// Record `‖x − F(x)‖_∞` every this many steps (0 = never).
    pub residual_every: u64,
    /// Optional online stopping rule.
    pub stopping: Option<StoppingRule>,
    /// Trace retention.
    pub record: RecordMode,
    /// Seed for backends with internal randomness. `None` when the user
    /// never called [`Session::seed`]: backends with their own configured
    /// seed (e.g. `Sim`) keep it, others default to 0. `Some(s)` always
    /// overrides.
    pub seed: Option<u64>,
    /// Schedule for schedule-driven backends.
    pub schedule: Option<Box<dyn ScheduleGen + 'a>>,
}

impl<'a> RunControl<'a> {
    /// Checks what every run needs of its inputs before the first step:
    /// `x0`, `xstar` and the stopping norm have the operator's
    /// dimension, the step budget is positive, error sampling has its
    /// fixed point and the stopping rule is in its documented ranges —
    /// the condition under which an [`Observer`](crate::observer::Observer)
    /// may be opened.
    ///
    /// # Errors
    /// [`CoreError::DimensionMismatch`] naming the offending input, or
    /// [`CoreError::InvalidParameter`].
    pub fn check(&self, problem: &Problem<'_>) -> crate::Result<()> {
        let n = problem.n();
        let xstar = problem.xstar.as_ref();
        let stopping_norm = match &self.stopping {
            Some(StoppingRule::MacroContraction { norm, .. }) => norm.dim(),
            _ => n,
        };
        check_dim(n, problem.x0.len(), "Session (x0)")?;
        check_dim(n, xstar.map_or(n, Vec::len), "Session (xstar)")?;
        check_dim(n, stopping_norm, "Session (stopping norm)")?;
        if self.max_steps == 0 {
            return Err(CoreError::InvalidParameter {
                name: "max_steps",
                message: "must be positive".into(),
            });
        }
        if self.error_every > 0 && xstar.is_none() {
            return Err(CoreError::InvalidParameter {
                name: "error_every",
                message: "error recording requires a known fixed point".into(),
            });
        }
        let bad_rule = match &self.stopping {
            Some(StoppingRule::MacroContraction { eps, alpha, .. })
                if !(*alpha > 0.0 && *alpha < 1.0 && eps.is_finite() && *eps >= 0.0) =>
            {
                format!("MacroContraction needs 0 < alpha < 1, finite eps >= 0: got {alpha}, {eps}")
            }
            Some(StoppingRule::ErrorBelow { .. }) if xstar.is_none() => {
                "ErrorBelow requires a known fixed point".into()
            }
            Some(StoppingRule::Residual { eps, .. } | StoppingRule::ErrorBelow { eps, .. })
                if eps.is_nan() =>
            {
                "eps must not be NaN".into()
            }
            _ => return Ok(()),
        };
        Err(CoreError::InvalidParameter {
            name: "stopping",
            message: bad_rule,
        })
    }

    /// Opens a schedule-driven run: [`RunControl::check`], then removes
    /// and returns the schedule (default: the synchronous Jacobi
    /// steering) once it has the operator's dimension too.
    ///
    /// # Errors
    /// Those of [`RunControl::check`], or
    /// [`CoreError::DimensionMismatch`] naming the schedule.
    pub fn take_schedule(
        &mut self,
        problem: &Problem<'_>,
    ) -> crate::Result<Box<dyn ScheduleGen + 'a>> {
        self.check(problem)?;
        let n = problem.n();
        let gen = self
            .schedule
            .take()
            .unwrap_or_else(|| Box::new(SyncJacobi::new(n)));
        check_dim(n, gen.n(), "Session (schedule)")?;
        Ok(gen)
    }

    /// Rejects error and residual sampling, for backends where no
    /// thread can observe a consistent iterate mid-run.
    ///
    /// # Errors
    /// [`unsupported`], naming the first sampling control that is set.
    pub fn reject_sampling(&self, backend: &'static str) -> crate::Result<()> {
        if self.error_every > 0 {
            return Err(unsupported(backend, "error sampling"));
        }
        if self.residual_every > 0 {
            return Err(unsupported(backend, "residual sampling"));
        }
        Ok(())
    }

    /// Rejects an explicit schedule, for backends that generate their
    /// own; `why` completes the message.
    ///
    /// # Errors
    /// [`unsupported`] when a schedule was installed.
    pub fn reject_schedule(&self, backend: &'static str, why: &str) -> crate::Result<()> {
        match self.schedule {
            Some(_) => Err(unsupported(
                backend,
                &format!("an explicit schedule ({why})"),
            )),
            None => Ok(()),
        }
    }

    /// Maps the stopping rule onto a runner's residual target:
    /// `(eps, check_every ≥ 1)` for [`StoppingRule::Residual`], `None`
    /// without a rule. `onto` names that target in the message.
    ///
    /// # Errors
    /// [`unsupported`] for any other rule.
    pub fn residual_target(
        &self,
        backend: &'static str,
        onto: &str,
    ) -> crate::Result<Option<(f64, u64)>> {
        match &self.stopping {
            None => Ok(None),
            Some(StoppingRule::Residual { eps, check_every }) => {
                Ok(Some((*eps, (*check_every).max(1))))
            }
            Some(_) => Err(unsupported(
                backend,
                &format!(
                    "a non-residual stopping rule (only StoppingRule::Residual maps onto {onto})"
                ),
            )),
        }
    }
}

/// `actual == expected`, or the mismatch naming `context`.
pub(crate) fn check_dim(
    expected: usize,
    actual: usize,
    context: &'static str,
) -> crate::Result<()> {
    if actual == expected {
        return Ok(());
    }
    Err(CoreError::DimensionMismatch {
        expected,
        actual,
        context,
    })
}

/// Channel statistics of a message-passing run
/// ([`RunReport::channel`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Link deliveries attempted (one per message per destination).
    pub sent: u64,
    /// Deliveries that reached a mailbox (including duplicates).
    pub delivered: u64,
    /// Deliveries dropped.
    pub dropped: u64,
    /// Deliveries duplicated.
    pub duplicated: u64,
    /// Deliveries held back with extra latency (out-of-order).
    pub held: u64,
    /// Component applications a receiver discarded as stale
    /// (`KeepFreshest` only).
    pub discarded_stale: u64,
}

/// The one result type every backend populates.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Name of the backend that produced this report.
    pub backend: &'static str,
    /// Final iterate (consensus vector for distributed backends).
    pub final_x: Vec<f64>,
    /// Steps actually executed, in the backend's step unit (see
    /// [`RunControl::max_steps`]).
    pub steps: u64,
    /// Completed macro-iterations (Definition 2) of the executed
    /// schedule, whatever the [`RecordMode`]: streamed by `Replay` /
    /// `Flexible` (over the *effective* labels, partials included),
    /// `Sim` (over the labels each phase read at its start) and
    /// `Cluster` (over the stepping worker's label book), counted in one
    /// walk of the ticket-ordered step log by `ThreadedCluster` and
    /// `SharedMem` (which keeps no log, and reports 0, under `Off`), and
    /// the sweeps of `Barrier`.
    pub macro_iterations: u64,
    /// `(j, ‖x(j) − x*‖_∞)` samples (empty unless requested).
    pub errors: Vec<(u64, f64)>,
    /// Simulated completion time of each error sample, same indexing as
    /// `errors` (simulator backend only; empty elsewhere). Lets
    /// experiments convert convergence into simulated wall-clock.
    pub error_times: Vec<u64>,
    /// `(j, ‖x(j) − F(x(j))‖_∞)` samples (empty unless requested).
    pub residuals: Vec<(u64, f64)>,
    /// Fixed-point residual of `final_x`.
    pub final_residual: f64,
    /// True when a stopping rule (or residual target) fired early.
    pub stopped_early: bool,
    /// Updates per worker (thread backends; empty otherwise).
    pub per_worker_updates: Vec<u64>,
    /// Mid-phase partial publishes / partial sends (flexible
    /// communication; 0 for backends without partials).
    pub partial_publishes: u64,
    /// Reads that consumed (upgraded to) a published partial value
    /// (flexible backend only; thread/sim backends apply partials
    /// directly to shared or local state and report 0).
    pub partial_reads: u64,
    /// Constraint-(3) checks performed (flexible backend with a known
    /// fixed point; 0 elsewhere).
    pub constraint_checked: u64,
    /// Constraint-(3) violations observed — prevented (fallback to the
    /// labelled value) when enforcement is on, merely counted otherwise.
    pub constraint_violations: u64,
    /// The recorded trace (when [`RecordMode`] keeps it).
    pub trace: Option<Trace>,
    /// Simulated end time in ticks (simulator backend only).
    pub sim_time: Option<u64>,
    /// What the channel did to the run's messages (`Cluster` and
    /// `ThreadedCluster`; `None` elsewhere).
    pub channel: Option<ClusterStats>,
    /// Owning tenant, when the run was executed by the multi-tenant
    /// service layer (`None` for solo sessions).
    pub tenant: Option<u64>,
    /// Service job id, assigned in admission order (`None` for solo
    /// sessions).
    pub job: Option<u64>,
    /// Wall-clock time: the backend's parallel-section time when it
    /// measures one, otherwise the whole `Session::run` call.
    pub wall: Duration,
}

/// Maps a backend name to its canonical `&'static str` form — the
/// seven built-in engines, or `"unknown"` for anything else.
/// Serializers use this to rebuild [`RunReport::backend`] from parsed
/// text without leaking.
pub fn canonical_backend_name(name: &str) -> &'static str {
    match name {
        "replay" => "replay",
        "flexible" => "flexible",
        "shared-mem" => "shared-mem",
        "barrier" => "barrier",
        "sim" => "sim",
        "cluster" => "cluster",
        "threaded-cluster" => "threaded-cluster",
        _ => "unknown",
    }
}

impl RunReport {
    /// A report carrying the four quantities every backend produces,
    /// with every other field at its backend-independent default: no
    /// samples, no trace, zero counters, not stopped early, no simulated
    /// time, no channel statistics, no service ids, and a zero `wall`
    /// (which [`Session::run`] replaces with the whole call's duration).
    /// Backends fill in what they measure with struct-update syntax.
    pub fn new(backend: &'static str, final_x: Vec<f64>, steps: u64, final_residual: f64) -> Self {
        Self {
            backend,
            final_x,
            steps,
            macro_iterations: 0,
            errors: Vec::new(),
            error_times: Vec::new(),
            residuals: Vec::new(),
            final_residual,
            stopped_early: false,
            per_worker_updates: Vec::new(),
            partial_publishes: 0,
            partial_reads: 0,
            constraint_checked: 0,
            constraint_violations: 0,
            trace: None,
            sim_time: None,
            channel: None,
            tenant: None,
            job: None,
            wall: Duration::ZERO,
        }
    }

    /// Wall-clock time in seconds — the serialization-friendly view of
    /// [`RunReport::wall`].
    pub fn wall_secs(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    /// Rebuilds [`RunReport::wall`] from seconds (deserialization helper;
    /// out-of-range input — non-finite, negative, or overflowing
    /// `Duration` — clamps to zero, never panics).
    pub fn set_wall_secs(&mut self, secs: f64) {
        self.wall = Duration::try_from_secs_f64(secs).unwrap_or(Duration::ZERO);
    }

    /// Stamps service ownership onto the report (builder-style; used by
    /// the service layer after the backend returns).
    #[must_use]
    pub fn with_ids(mut self, tenant: u64, job: u64) -> Self {
        self.tenant = Some(tenant);
        self.job = Some(job);
        self
    }

    /// `‖final_x − xstar‖_∞`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn final_error(&self, xstar: &[f64]) -> f64 {
        asynciter_numerics::vecops::max_abs_diff(&self.final_x, xstar)
    }

    /// First recorded step whose error sample is `≤ eps` (requires error
    /// recording).
    pub fn steps_to_error(&self, eps: f64) -> Option<u64> {
        self.errors
            .iter()
            .find(|&&(_, e)| e <= eps)
            .map(|&(j, _)| j)
    }

    /// Simulated time at which the error first dropped to `≤ eps`
    /// (simulator backend with error recording).
    pub fn sim_time_to_error(&self, eps: f64) -> Option<u64> {
        self.errors
            .iter()
            .zip(&self.error_times)
            .find(|((_, e), _)| *e <= eps)
            .map(|(_, &t)| t)
    }
}

/// An execution engine for Eq. (1): its step loop reads the
/// backend-independent [`Problem`] + [`RunControl`] (and the backend
/// struct's own fields), passes [`RunControl::check`] before its first
/// step and fills the [`RunReport`] — all seven, with no native
/// configuration in between.
pub trait Backend {
    /// Short backend name for reports and error messages.
    fn name(&self) -> &'static str;

    /// Executes the iteration.
    ///
    /// # Errors
    /// Dimension/parameter validation failures, divergence, or a control
    /// the backend cannot honour (reported, never silently dropped).
    fn run(&mut self, problem: &Problem<'_>, ctl: &mut RunControl<'_>) -> crate::Result<RunReport>;
}

impl Backend for Box<dyn Backend + '_> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn run(&mut self, problem: &Problem<'_>, ctl: &mut RunControl<'_>) -> crate::Result<RunReport> {
        (**self).run(problem, ctl)
    }
}

/// Builds a [`CoreError`] for a control option a backend does not
/// support.
pub fn unsupported(backend: &'static str, what: &str) -> CoreError {
    CoreError::Backend {
        backend,
        message: format!("{what} is not supported by this backend"),
    }
}

// ---------------------------------------------------------------------------
// The fluent builder
// ---------------------------------------------------------------------------

/// Fluent builder for a single run: problem, controls, backend.
///
/// Unset fields get conservative defaults: `x0 = 0`, 10 000 steps, no
/// recording, no stopping rule, and the [`Replay`] backend over a
/// synchronous schedule — so the shortest possible session is just an
/// operator and a `run()`:
///
/// ```
/// use asynciter_core::session::Session;
/// use asynciter_opt::linear::JacobiOperator;
/// use asynciter_numerics::sparse::tridiagonal;
///
/// let op = JacobiOperator::new(tridiagonal(8, 4.0, -1.0), vec![1.0; 8]).unwrap();
/// let report = Session::new(&op).run().unwrap();
/// assert_eq!(report.backend, "replay");
/// assert!(report.final_residual < 1e-10);
/// ```
///
/// See the [module docs](self) for a complete example with an explicit
/// schedule, recording, and backend selection.
pub struct Session<'a> {
    op: &'a dyn Operator,
    x0: Option<Vec<f64>>,
    xstar: Option<Vec<f64>>,
    max_steps: u64,
    error_every: u64,
    residual_every: u64,
    stopping: Option<StoppingRule>,
    record: RecordMode,
    seed: Option<u64>,
    schedule: Option<Box<dyn ScheduleGen + 'a>>,
    backend: Option<Box<dyn Backend + 'a>>,
}

impl<'a> Session<'a> {
    /// Starts a session solving the fixed point of `op`.
    pub fn new(op: &'a dyn Operator) -> Self {
        Self {
            op,
            x0: None,
            xstar: None,
            max_steps: 10_000,
            error_every: 0,
            residual_every: 0,
            stopping: None,
            record: RecordMode::Off,
            seed: None,
            schedule: None,
            backend: None,
        }
    }

    /// Sets the initial iterate (default: the zero vector).
    #[must_use]
    pub fn x0(mut self, x0: impl Into<Vec<f64>>) -> Self {
        self.x0 = Some(x0.into());
        self
    }

    /// Declares the known fixed point (enables error recording and
    /// oracle stopping).
    #[must_use]
    pub fn xstar(mut self, xstar: impl Into<Vec<f64>>) -> Self {
        self.xstar = Some(xstar.into());
        self
    }

    /// Sets the step budget (see [`RunControl::max_steps`] for units).
    #[must_use]
    pub fn steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Installs the schedule `(𝒮, ℒ)` for schedule-driven backends.
    #[must_use]
    pub fn schedule(mut self, gen: impl ScheduleGen + 'a) -> Self {
        self.schedule = Some(Box::new(gen));
        self
    }

    /// Injects a recorded trace as the schedule *and* the step budget —
    /// the replay hook used by differential testing: any trace recorded
    /// from another backend (or loaded from a corpus file) re-executes
    /// through [`Replay`] exactly, step for step, label for label.
    ///
    /// Equivalent to `.schedule(RecordedSchedule::new(trace)?)` followed
    /// by `.steps(trace.len())`.
    ///
    /// # Errors
    /// [`asynciter_models::ModelError::LabelsNotStored`] for min-only
    /// traces, [`asynciter_models::ModelError::EmptyTrace`] for empty
    /// ones (propagated as [`CoreError::Model`]).
    pub fn replay_trace(mut self, trace: Trace) -> crate::Result<Self> {
        let steps = trace.len() as u64;
        let gen = asynciter_models::schedule::RecordedSchedule::new(trace)?;
        self.schedule = Some(Box::new(gen));
        self.max_steps = steps;
        Ok(self)
    }

    /// Installs an online stopping rule.
    #[must_use]
    pub fn stopping(mut self, rule: StoppingRule) -> Self {
        self.stopping = Some(rule);
        self
    }

    /// Sets the trace retention mode.
    #[must_use]
    pub fn record(mut self, mode: RecordMode) -> Self {
        self.record = mode;
        self
    }

    /// Samples `‖x(j) − x*‖_∞` every `every` steps (requires
    /// [`Session::xstar`]).
    #[must_use]
    pub fn error_every(mut self, every: u64) -> Self {
        self.error_every = every;
        self
    }

    /// Samples the fixed-point residual every `every` steps.
    #[must_use]
    pub fn residual_every(mut self, every: u64) -> Self {
        self.residual_every = every;
        self
    }

    /// Sets the seed for backends with internal randomness (always
    /// overrides a backend-configured seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Selects the backend (default: [`Replay`]).
    #[must_use]
    pub fn backend(mut self, backend: impl Backend + 'a) -> Self {
        self.backend = Some(Box::new(backend));
        self
    }

    /// Executes the run.
    ///
    /// # Errors
    /// Whatever the backend reports: validation failures, divergence, or
    /// unsupported controls.
    pub fn run(self) -> crate::Result<RunReport> {
        let n = self.op.dim();
        let problem = Problem {
            op: self.op,
            x0: self.x0.unwrap_or_else(|| vec![0.0; n]),
            xstar: self.xstar,
        };
        let mut ctl = RunControl {
            max_steps: self.max_steps,
            error_every: self.error_every,
            residual_every: self.residual_every,
            stopping: self.stopping,
            record: self.record,
            seed: self.seed,
            schedule: self.schedule,
        };
        let mut backend: Box<dyn Backend + 'a> = self.backend.unwrap_or(Box::new(Replay));
        let start = std::time::Instant::now();
        let mut report = backend.run(&problem, &mut ctl)?;
        if report.wall == Duration::ZERO {
            report.wall = start.elapsed();
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_models::schedule::{ChaoticBounded, SyncJacobi};
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_numerics::vecops;
    use asynciter_opt::linear::JacobiOperator;

    fn jacobi(n: usize) -> JacobiOperator {
        JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
    }

    #[test]
    fn session_defaults_run_replay_sync() {
        let op = jacobi(6);
        let report = Session::new(&op).steps(50).run().unwrap();
        assert_eq!(report.backend, "replay");
        assert_eq!(report.steps, 50);
        // Synchronous default schedule: one macro-iteration per step.
        assert_eq!(report.macro_iterations, 50);
        assert!(report.final_residual < 1e-10);
        assert!(report.trace.is_none(), "RecordMode::Off keeps no trace");
        assert!(report.wall > Duration::ZERO);
    }

    #[test]
    fn both_core_backends_name_the_mis_sized_input() {
        let op = jacobi(6);
        for flexible in [false, true] {
            let mismatch = |session: Session<'_>| {
                let session = if flexible {
                    session.backend(Flexible::default())
                } else {
                    session.backend(Replay)
                };
                match session.steps(5).run() {
                    Err(CoreError::DimensionMismatch {
                        expected: 6,
                        actual,
                        context,
                    }) => (actual, context),
                    other => panic!("expected a dimension mismatch, got {other:?}"),
                }
            };
            let x0 = Session::new(&op).x0(vec![0.0; 5]);
            assert_eq!(mismatch(x0), (5, "Session (x0)"));
            let schedule = Session::new(&op).schedule(SyncJacobi::new(4));
            assert_eq!(mismatch(schedule), (4, "Session (schedule)"));
            // Under `Flexible` this used to reach `WeightedMaxNorm::dist`
            // unchecked and panic at step 1.
            let xstar = Session::new(&op).xstar(vec![0.0; 7]);
            assert_eq!(mismatch(xstar), (7, "Session (xstar)"));
        }
    }

    /// Synchronous steering with a malformed `S_3` (`None`: too few labels).
    struct BadStep(Option<Vec<usize>>);

    impl ScheduleGen for BadStep {
        fn n(&self) -> usize {
            6
        }

        fn step(&mut self, j: u64, buf: &mut asynciter_models::StepBuf) {
            SyncJacobi::new(6).step(j, buf);
            match &self.0 {
                Some(active) if j == 3 => buf.active.clone_from(active),
                None if j == 3 => buf.labels.truncate(5),
                _ => {}
            }
        }
    }

    #[test]
    fn both_core_backends_answer_bad_input_with_typed_errors() {
        // Every case used to panic (`assert!`s in `WeightedMaxNorm::dist`,
        // `Trace::push_step`, `History::assemble`; an `expect` in
        // `StopState`), to certify at once (`alpha = 0`) or never to fire.
        use asynciter_numerics::norm::WeightedMaxNorm;
        let op = jacobi(6);
        let macro_rule = |eps, alpha, dim| StoppingRule::MacroContraction {
            eps,
            alpha,
            norm: WeightedMaxNorm::uniform(dim),
        };
        let residual = |eps| StoppingRule::Residual {
            eps,
            check_every: 1,
        };
        let error_below = |eps| StoppingRule::ErrorBelow {
            eps,
            check_every: 1,
        };
        let modes = [RecordMode::Off, RecordMode::Full];
        for (flexible, mode) in [false, true].map(|f| modes.map(|m| (f, m))).concat() {
            let new = || {
                let session = Session::new(&op).steps(200).record(mode);
                if flexible {
                    session.backend(Flexible::default())
                } else {
                    session.backend(Replay)
                }
            };
            let kind = |session: Session<'_>| match session.run() {
                Err(CoreError::DimensionMismatch {
                    expected: 6,
                    actual,
                    context,
                }) => (context, actual),
                Err(CoreError::InvalidParameter { name, .. }) => (name, 0),
                other => panic!("expected a typed rejection, got {other:?}"),
            };
            let norm = new().stopping(macro_rule(1e-6, 0.5, 5));
            assert_eq!(kind(norm), ("Session (stopping norm)", 5));
            for rule in [error_below(1e-6), residual(f64::NAN)] {
                assert_eq!(kind(new().stopping(rule)), ("stopping", 0));
            }
            let nan = new().xstar(vec![0.0; 6]).stopping(error_below(f64::NAN));
            assert_eq!(kind(nan), ("stopping", 0));
            let (nan, inf) = (f64::NAN, f64::INFINITY);
            for (eps, alpha) in [
                (1e-6, 0.0),
                (1e-6, 1.0),
                (1e-6, nan),
                (nan, 0.5),
                (inf, 0.5),
                (-1.0, 0.5),
            ] {
                let rule = macro_rule(eps, alpha, 6);
                assert_eq!(kind(new().stopping(rule)), ("stopping", 0), "{eps} {alpha}");
            }
            for bad in [None, Some(vec![]), Some(vec![2, 1]), Some(vec![0, 6])] {
                let schedule = new().schedule(BadStep(bad.clone()));
                assert_eq!(kind(schedule), ("schedule", 0), "{bad:?}");
            }
        }
    }

    #[test]
    fn session_error_recording_and_stopping() {
        let op = jacobi(6);
        let xstar = op.solve_dense_spd().unwrap();
        let report = Session::new(&op)
            .steps(100_000)
            .schedule(SyncJacobi::new(6))
            .xstar(xstar.clone())
            .error_every(5)
            .stopping(StoppingRule::Residual {
                eps: 1e-10,
                check_every: 5,
            })
            .run()
            .unwrap();
        assert!(report.stopped_early);
        assert!(report.steps < 100_000);
        assert!(!report.errors.is_empty());
        assert!(report.final_error(&xstar) < 1e-9);
    }

    #[test]
    fn flexible_backend_runs_and_counts_partials() {
        let op = jacobi(12);
        let xstar = op.solve_dense_spd().unwrap();
        let report = Session::new(&op)
            .steps(2_000)
            .schedule(asynciter_models::schedule::BlockRoundRobin::new(
                asynciter_models::Partition::blocks(12, 3).unwrap(),
                4,
            ))
            .xstar(xstar.clone())
            .backend(Flexible {
                m: 4,
                partial: true,
                ..Flexible::default()
            })
            .run()
            .unwrap();
        assert_eq!(report.backend, "flexible");
        assert!(report.partial_publishes > 0);
        assert!(report.partial_reads > 0);
        assert!(report.final_error(&xstar) < 1e-10);
    }

    #[test]
    fn flexible_without_partials_matches_flexible_engine_baseline() {
        let op = jacobi(8);
        let report = Session::new(&op)
            .steps(200)
            .backend(Flexible {
                m: 3,
                partial: false,
                ..Flexible::default()
            })
            .run()
            .unwrap();
        // publish_period = m disables mid-phase publishing entirely.
        assert_eq!(report.partial_publishes, 0);
        assert_eq!(report.partial_reads, 0);
    }

    #[test]
    fn flexible_honours_stopping_rules_and_residual_sampling() {
        // With partials on. That a control a backend cannot honour is
        // reported, not dropped, stays pinned where such controls remain
        // (`asynciter-runtime`, `asynciter-sim`).
        let op = jacobi(12);
        let xstar = op.solve_dense_spd().unwrap();
        let blocks = asynciter_models::Partition::blocks(12, 3).unwrap();
        let report = Session::new(&op)
            .steps(50_000)
            .schedule(asynciter_models::schedule::BlockRoundRobin::new(blocks, 4))
            .residual_every(5)
            .stopping(StoppingRule::Residual {
                eps: 1e-12,
                check_every: 3,
            })
            .backend(Flexible {
                m: 4,
                ..Flexible::default()
            })
            .run()
            .unwrap();
        assert_eq!(report.backend, "flexible");
        assert!(report.partial_publishes > 0 && report.partial_reads > 0);
        assert!(report.stopped_early && report.steps < 50_000);
        assert!(report.final_residual <= 1e-12 && report.final_error(&xstar) < 1e-10);
        assert_eq!(report.residuals.len() as u64, report.steps / 5);
        assert!(report.residuals[0].1 > report.residuals.last().unwrap().1);
    }

    #[test]
    fn record_off_still_counts_macro_iterations() {
        let op = jacobi(6);
        let report = Session::new(&op)
            .steps(300)
            .schedule(ChaoticBounded::new(6, 1, 3, 8, false, 9))
            .run()
            .unwrap();
        assert!(report.trace.is_none());
        assert!(report.macro_iterations > 0);
    }

    #[test]
    fn replay_trace_reexecutes_bitwise() {
        let op = jacobi(8);
        let first = Session::new(&op)
            .steps(400)
            .schedule(ChaoticBounded::new(8, 1, 4, 9, false, 21))
            .record(RecordMode::Full)
            .run()
            .unwrap();
        let replayed = Session::new(&op)
            .replay_trace(first.trace.clone().unwrap())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(first.final_x, replayed.final_x);
        assert_eq!(first.steps, replayed.steps);
    }

    #[test]
    fn replay_trace_rejects_unusable_traces() {
        let op = jacobi(4);
        let empty = Trace::new(4, LabelStore::Full);
        assert!(matches!(
            Session::new(&op).replay_trace(empty),
            Err(CoreError::Model(_))
        ));
        let min_only =
            asynciter_models::schedule::record(&mut SyncJacobi::new(4), 5, LabelStore::MinOnly);
        assert!(Session::new(&op).replay_trace(min_only).is_err());
    }

    #[test]
    fn reports_are_deterministic_for_deterministic_backends() {
        let op = jacobi(6);
        let run = || {
            Session::new(&op)
                .steps(400)
                .schedule(ChaoticBounded::new(6, 1, 3, 8, false, 7))
                .run()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.final_x, b.final_x);
        assert_eq!(a.macro_iterations, b.macro_iterations);
        let diff = vecops::max_abs_diff(&a.final_x, &b.final_x);
        assert_eq!(diff, 0.0);
    }
}
