//! The after-step observer of the sequential engines.
//!
//! The paper judges an asynchronous iteration by the same observables
//! whichever machine executes Eq. (1): the labels each step read, the
//! macro-iteration sequence of Definition 2 they induce, and a stopping
//! test anchored to that sequence. [`Observer`] is the one place those
//! are taken. An engine tells it each completed step — `S_j`, the labels
//! the step effectively read, the iterate `x(j)` — and it streams
//! Definition 2 through the [`OnlineMacroTracker`], keeps the trace if
//! the [`RecordMode`](crate::session::RecordMode) says so (none is built
//! under `Off`), samples errors and residuals, and evaluates the
//! [`StoppingRule`]; [`Observer::finish`] writes all of it into the
//! [`RunReport`].
//!
//! Its callers are the step loop of [`crate::flexible`] (`Replay` and
//! `Flexible`), the event loop of `asynciter-sim` and, the fourth, the
//! message-passing event loop of `asynciter-runtime`'s `Cluster`. The
//! thread engines cannot call it: no thread sees a consistent iterate
//! mid-run.

use crate::session::{Problem, RunControl, RunReport};
use crate::stopping::StoppingRule;
use asynciter_models::macroiter::OnlineMacroTracker;
use asynciter_models::trace::Trace;
use asynciter_numerics::vecops::max_abs_diff;
use asynciter_opt::traits::Operator;

/// Counts, samples and stops a run, one completed step at a time. See
/// the [module docs](self).
pub struct Observer<'a> {
    op: &'a dyn Operator,
    xstar: Option<&'a [f64]>,
    error_every: u64,
    residual_every: u64,
    rule: Option<&'a StoppingRule>,
    /// The iterate at the previous macro-iteration boundary
    /// ([`StoppingRule::MacroContraction`] only).
    prev_boundary_x: Option<Vec<f64>>,
    tracker: OnlineMacroTracker,
    trace: Option<Trace>,
    errors: Vec<(u64, f64)>,
    residuals: Vec<(u64, f64)>,
    steps: u64,
    stopped_early: bool,
}

impl<'a> Observer<'a> {
    /// Opens the observation of a run whose controls passed
    /// [`RunControl::check`].
    pub fn new(problem: &'a Problem<'_>, ctl: &'a RunControl<'_>) -> Self {
        let n = problem.n();
        let record = ctl.record;
        Self {
            op: problem.op,
            xstar: problem.xstar.as_deref(),
            error_every: ctl.error_every,
            residual_every: ctl.residual_every,
            rule: ctl.stopping.as_ref(),
            prev_boundary_x: None,
            tracker: OnlineMacroTracker::new(n),
            trace: (record.keeps_trace()).then(|| Trace::new(n, record.label_store())),
            errors: Vec::new(),
            residuals: Vec::new(),
            steps: 0,
            stopped_early: false,
        }
    }

    /// Observes completed step `j`: `active` is `S_j`, `labels` are the
    /// labels its reads effectively had (a well-formed step of the run's
    /// dimension) and `x` is the iterate `x(j)`. Returns true when the
    /// stopping rule fires, after which the engine must not step again.
    ///
    /// `scratch` is the engine's caller-owned operator scratch (length
    /// `≥ op.scratch_len()`), so residual checks in hot loops allocate
    /// nothing.
    pub fn step(
        &mut self,
        j: u64,
        active: &[usize],
        labels: &[u64],
        x: &[f64],
        scratch: &mut [f64],
    ) -> bool {
        let min_label = labels.iter().copied().min().unwrap_or(0);
        let boundary = self.tracker.observe(j, active, min_label).is_some();
        if let Some(trace) = self.trace.as_mut() {
            trace.push_step(active, labels);
        }
        self.steps = j;

        if self.error_every > 0 && j.is_multiple_of(self.error_every) {
            let xs = self
                .xstar
                .expect("check: error sampling has its fixed point");
            self.errors.push((j, max_abs_diff(x, xs)));
        }
        if self.residual_every > 0 && j.is_multiple_of(self.residual_every) {
            let residual = self.op.residual_inf_with(x, scratch);
            self.residuals.push((j, residual));
        }
        self.stopped_early = match self.rule {
            None => false,
            Some(StoppingRule::Residual { eps, check_every }) => {
                j.is_multiple_of((*check_every).max(1))
                    && self.op.residual_inf_with(x, scratch) <= *eps
            }
            Some(StoppingRule::ErrorBelow { eps, check_every }) => {
                j.is_multiple_of((*check_every).max(1))
                    && self.xstar.is_some_and(|xs| max_abs_diff(x, xs) <= *eps)
            }
            Some(StoppingRule::MacroContraction { eps, alpha, norm }) => {
                boundary && {
                    let prev = self.prev_boundary_x.replace(x.to_vec());
                    prev.is_some_and(|prev| norm.dist(x, &prev) <= eps * (1.0 - alpha) / alpha)
                }
            }
        };
        self.stopped_early
    }

    /// Closes the run: writes what was observed into `report` — steps,
    /// macro-iterations, samples, the kept trace, whether the rule fired
    /// — and the fixed-point residual of its `final_x`.
    pub fn finish(self, report: &mut RunReport) {
        report.steps = self.steps;
        report.macro_iterations = self.tracker.completed();
        report.errors = self.errors;
        report.residuals = self.residuals;
        report.trace = self.trace;
        report.stopped_early = self.stopped_early;
        report.final_residual = self.op.residual_inf(&report.final_x);
    }
}
