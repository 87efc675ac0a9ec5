//! The linearised free-running harness: what a run of racing worker
//! threads needs whatever a step *does*.
//!
//! Definition 1 numbers block updates globally whatever machine runs
//! them. A worker calls [`Lane::ticket`] at the point of its step where
//! everything it read has already been published; the `SeqCst` total
//! order of that one counter *is* the trace linearisation — every label
//! a worker holds was ticketed before its own ticket, so condition (a)
//! holds by construction. Around the ticket the harness owns the one
//! opening of a race ([`Race::open`]: what every engine checks of
//! `Problem` / `RunControl`), the stop and converged flags, the
//! per-worker step log, the termination checks after a step (worker 0's
//! residual target, [`Quiesce`] detection), the scoped spawn / join that
//! turns a worker's error or panic into the run's error, and the one
//! closing ([`Race::close`]: a walk of the log in ticket order that
//! counts Definition 2 and builds the dense [`Trace`] if kept). What a
//! step reads, computes and publishes is the engine's step body
//! ([`crate::async_engine`], [`crate::threaded`]); the harness never
//! asks which one it serves. [`crate::sync_engine`] borrows the opening,
//! the flags and the join without drawing a ticket.

use crate::error::RuntimeError;
use crate::termination::{Quiesce, QuiescenceDetector, QuiescenceTracker};
use asynciter_core::session::{Problem, RecordMode, RunControl, RunReport};
use asynciter_models::macroiter::OnlineMacroTracker;
use asynciter_models::trace::{LabelStore, Trace};
use asynciter_opt::traits::Operator;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One race: its checked rules and the state its workers share.
pub(crate) struct Race {
    budget: u64,
    record: RecordMode,
    target: Option<(f64, u64)>, // residual target, check period
    quiesce: Option<Quiesce>,
    counter: AtomicU64,
    stop: AtomicBool,
    converged: AtomicBool,
}

/// One logged step.
pub(crate) struct Step {
    j: u64,
    worker: usize,
    min_label: u64,
    labels: Vec<u64>, // empty unless LabelStore::Full
}

/// One worker's handle on the race.
pub(crate) struct Lane<'a> {
    race: &'a Race,
    /// A [`Quiesce`] rule's margin, shared detector and this worker's tracker.
    quiet: Option<(u64, &'a QuiescenceDetector, QuiescenceTracker)>,
    /// This worker's index.
    pub worker: usize,
    updates: u64,
    log: Vec<Step>,
}

/// However a worker leaves its step body — finished, with an error or
/// unwinding from a panic — the race is over: its peers must not spend
/// the rest of the budget behind a run that can only report that exit.
struct StopOnExit<'a>(&'a AtomicBool);

impl Drop for StopOnExit<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

impl Lane<'_> {
    /// Whether the race is over: budget spent, a rule fired, a peer left.
    pub fn stopped(&self) -> bool {
        self.race.stop.load(Ordering::Relaxed)
    }

    /// Steps ticketed so far, by anyone.
    pub fn now(&self) -> u64 {
        self.race.counter.load(Ordering::Relaxed)
    }

    /// Draws this step's global number `j`, or `None` once the budget
    /// is spent: tickets are `1..=budget`, each drawn exactly once.
    pub fn ticket(&mut self) -> Option<u64> {
        let j = self.race.counter.fetch_add(1, Ordering::SeqCst) + 1;
        if j > self.race.budget {
            self.race.stop.store(true, Ordering::Relaxed);
            return None;
        }
        self.updates += 1;
        Some(j)
    }

    /// Logs step `j` as having read the values labelled `labels`: their
    /// minimum, and under `RecordMode::Full` all of them.
    pub fn log(&mut self, j: u64, labels: impl Iterator<Item = u64>) {
        let (min_label, labels) = match self.race.record.label_store() {
            LabelStore::MinOnly => (labels.min(), Vec::new()),
            LabelStore::Full => {
                let labels: Vec<u64> = labels.collect();
                (labels.iter().copied().min(), labels)
            }
        };
        self.log.push(Step {
            j,
            worker: self.worker,
            min_label: min_label.unwrap_or(0),
            labels,
        });
    }

    /// Under a [`Quiesce`] rule: reports that step `j` moved the block by
    /// `change()`; on worker 0, true (race converged) if the detector fires.
    pub fn quiesced(&mut self, j: u64, change: impl FnOnce() -> f64) -> bool {
        let Some((margin, det, tracker)) = &mut self.quiet else {
            return false;
        };
        det.report(self.worker, j, tracker.observe(change()));
        self.worker == 0 && det.detect(j, *margin) && self.race.converge()
    }

    /// Whether the latest update left this worker quiet under [`Quiesce`].
    pub fn is_quiet(&self) -> bool {
        (self.quiet.as_ref()).is_some_and(|(_, _, tracker)| tracker.is_quiet())
    }

    /// Under a residual target: on worker 0, every `check_every` of its
    /// own updates, true (race converged) if `residual()` is at the target.
    pub fn on_target(&self, residual: impl FnOnce() -> f64) -> bool {
        self.race.target.is_some_and(|(eps, check_every)| {
            self.worker == 0
                && self.updates.is_multiple_of(check_every)
                && residual() <= eps
                && self.race.converge()
        })
    }
}

/// What a race leaves behind, beside what its step bodies returned.
pub(crate) struct Finish {
    /// True when a termination rule fired before the budget was spent.
    pub stopped_early: bool,
    /// Wall-clock duration of the parallel section.
    pub wall: Duration,
    /// Steps ticketed per worker, and every logged step, for [`Race::close`].
    per_worker_updates: Vec<u64>,
    log: Vec<Step>,
}

impl Race {
    /// The opening of every race: `problem` and `ctl` pass
    /// [`RunControl::check`], sampling is rejected (no thread sees a
    /// consistent iterate mid-run) and the stopping rule becomes the
    /// residual target `onto` names.
    ///
    /// # Errors
    /// What those checks report, or an invalid [`Quiesce`] rule.
    pub fn open(
        backend: &'static str,
        onto: &str,
        problem: &Problem<'_>,
        ctl: &RunControl<'_>,
        quiesce: Option<Quiesce>,
    ) -> crate::Result<Self> {
        ctl.check(problem)?;
        ctl.reject_sampling(backend)?;
        let target = ctl.residual_target(backend, onto)?;
        // `QuiescenceTracker::new` asserts this: unreachable from a config.
        if let Some(q) = quiesce.filter(|q| q.eps.is_nan() || q.eps < 0.0 || q.streak == 0) {
            return Err(RuntimeError::InvalidParameter {
                name: "quiesce",
                message: format!("requires eps >= 0 and streak > 0, got {q:?}"),
            });
        }
        Ok(Self {
            budget: ctl.max_steps,
            record: ctl.record,
            target,
            quiesce,
            counter: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            converged: AtomicBool::new(false),
        })
    }

    fn converge(&self) -> bool {
        self.converged.store(true, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
        true
    }

    /// Runs one free-running thread per seat: `body(lane, seat)` loops
    /// its engine's step until [`Lane::stopped`], one ticket per step.
    /// Returns what each body returned, by worker, and the [`Finish`].
    ///
    /// # Errors
    /// The first (by worker index) step-body error, a panicking body
    /// being [`RuntimeError::WorkerPanicked`]; either stops every peer.
    pub fn run<S: Send, T: Send>(
        &self,
        seats: Vec<S>,
        body: impl Fn(&mut Lane<'_>, S) -> crate::Result<T> + Sync,
    ) -> crate::Result<(Vec<T>, Finish)> {
        let detector = self.quiesce.map(|_| QuiescenceDetector::new(seats.len()));
        let lane = |worker| Lane {
            race: self,
            quiet: (self.quiesce.zip(detector.as_ref()))
                .map(|(q, det)| (q.margin, det, QuiescenceTracker::new(q.eps, q.streak))),
            worker,
            updates: 0,
            log: Vec::new(),
        };
        let mut lanes: Vec<Lane<'_>> = (0..seats.len()).map(lane).collect();
        let start = Instant::now();
        // Every handle is joined: no panic unwinds through the scope.
        let joined: Vec<crate::Result<T>> = std::thread::scope(|scope| {
            let spawn = |(lane, seat)| {
                let body = &body;
                scope.spawn(move || {
                    let _over = StopOnExit(&self.stop);
                    body(lane, seat)
                })
            };
            let handles: Vec<_> = lanes.iter_mut().zip(seats).map(spawn).collect();
            let join = |(worker, h): (usize, std::thread::ScopedJoinHandle<'_, _>)| {
                h.join()
                    .unwrap_or(Err(RuntimeError::WorkerPanicked { worker }))
            };
            handles.into_iter().enumerate().map(join).collect()
        });
        let finish = Finish {
            wall: start.elapsed(),
            stopped_early: self.converged.load(Ordering::Relaxed),
            per_worker_updates: lanes.iter().map(|lane| lane.updates).collect(),
            log: lanes.into_iter().flat_map(|lane| lane.log).collect(),
        };
        Ok((joined.into_iter().collect::<crate::Result<_>>()?, finish))
    }

    /// The closing of a ticketed race: the report of `final_x`, filled
    /// from one walk of the step log in ticket order — dense by the
    /// ticket contract. Each step, `S_j = block_of(worker)`, is told to
    /// the Definition-2 tracker and pushed into a [`Trace`] only when
    /// the [`RecordMode`] keeps one.
    pub fn close<'b>(
        &self,
        backend: &'static str,
        op: &dyn Operator,
        final_x: Vec<f64>,
        finish: Finish,
        block_of: impl Fn(usize) -> &'b [usize],
    ) -> RunReport {
        let mut log = finish.log;
        log.sort_unstable_by_key(|step| step.j);
        let (n, store) = (op.dim(), self.record.label_store());
        let mut trace = (self.record.keeps_trace()).then(|| Trace::new(n, store));
        let mut tracker = OnlineMacroTracker::new(n);
        for (idx, step) in log.iter().enumerate() {
            debug_assert_eq!(step.j as usize, idx + 1, "non-dense step numbering");
            let block = block_of(step.worker);
            tracker.observe(step.j, block, step.min_label);
            match &mut trace {
                Some(trace) if store == LabelStore::Full => trace.push_step(block, &step.labels),
                Some(trace) => trace.push_min_step(block, step.min_label),
                None => {}
            }
        }
        let final_residual = op.residual_inf(&final_x);
        let steps = finish.per_worker_updates.iter().sum();
        RunReport {
            macro_iterations: tracker.completed(),
            stopped_early: finish.stopped_early,
            per_worker_updates: finish.per_worker_updates,
            trace,
            wall: finish.wall,
            ..RunReport::new(backend, final_x, steps, final_residual)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use asynciter_models::conditions::check_condition_a;

    /// Halves worker 0's block `{0, 1}`; worker 1's block `{2, 3}` is
    /// whatever the function returns.
    struct UpperBlock(fn() -> f64);

    impl Operator for UpperBlock {
        fn dim(&self) -> usize {
            4
        }
        fn component(&self, i: usize, x: &[f64]) -> f64 {
            if i >= 2 {
                (self.0)()
            } else {
                0.5 * x[i]
            }
        }
    }

    fn problem(op: &UpperBlock) -> Problem<'_> {
        Problem {
            op,
            x0: vec![1.0; 4],
            xstar: None,
        }
    }

    fn plain(max_steps: u64, record: RecordMode) -> RunControl<'static> {
        RunControl {
            max_steps,
            error_every: 0,
            residual_every: 0,
            stopping: None,
            record,
            seed: None,
            schedule: None,
        }
    }

    /// Drives `run` (an engine over 4 components in 2 blocks, handed a
    /// plain run from `[1.0; 4]` with a practically unbounded budget)
    /// with an operator that is healthy on worker 0's block and fails on
    /// worker 1's — by going NaN, then by panicking: the healthy peer
    /// must be stopped and the failure returned as its typed error.
    pub(crate) fn check_a_failing_worker_stops_its_healthy_peers(
        run: impl Fn(&Problem<'_>, &mut RunControl<'_>) -> RuntimeError,
    ) {
        let run = |fail: fn() -> f64| {
            let op = UpperBlock(fail);
            run(&problem(&op), &mut plain(u64::MAX, RecordMode::Off))
        };
        let err = run(|| f64::NAN);
        assert!(
            matches!(err, RuntimeError::NonFiniteIterate { component: 2, .. }),
            "{err:?}"
        );
        let err = run(|| panic!("operator bug on worker 1's block"));
        assert_eq!(err, RuntimeError::WorkerPanicked { worker: 1 });
    }

    #[test]
    fn racing_threads_draw_every_ticket_exactly_once() {
        let budget = 10_000;
        let op = UpperBlock(|| 0.0);
        let ctl = plain(budget, RecordMode::Off);
        let race = Race::open("race", "no target", &problem(&op), &ctl, None).unwrap();
        let body = |lane: &mut Lane<'_>, ()| {
            let mut drawn = Vec::new();
            while let Some(j) = lane.ticket() {
                drawn.push(j);
            }
            assert!(lane.stopped(), "a spent budget ends the race");
            Ok(drawn)
        };
        let (drawn, finish) = race.run(vec![(); 4], body).unwrap();
        assert!(!finish.stopped_early);
        assert_eq!(finish.per_worker_updates.iter().sum::<u64>(), budget);
        let mut all: Vec<u64> = drawn.concat();
        all.sort_unstable();
        assert_eq!(all, (1..=budget).collect::<Vec<_>>(), "gap or repeat");
    }

    #[test]
    fn out_of_order_logs_close_into_a_dense_admissible_trace() {
        let blocks = [vec![0, 1], vec![2, 3]];
        let op = UpperBlock(|| 0.0);
        // Worker-major order 3, 5, 1, 2, 4 is not the ticket order. Step 3
        // completes the one macro-iteration: step 4 reads label 2 < j_1 = 3,
        // so block 1 is not covered a second time.
        let turns: [(usize, u64); 5] = [(0, 3), (0, 5), (1, 1), (1, 2), (1, 4)];
        for record in [RecordMode::Off, RecordMode::MinOnly, RecordMode::Full] {
            let ctl = plain(5, record);
            let race = Race::open("race", "no target", &problem(&op), &ctl, None).unwrap();
            let mut lanes = [0, 1].map(|worker| Lane {
                race: &race,
                quiet: None,
                worker,
                updates: 0,
                log: Vec::new(),
            });
            for (worker, j) in turns {
                let labels = [j - 1, j.saturating_sub(2), j - 1, j - 1];
                lanes[worker].log(j, labels.into_iter());
            }
            let finish = Finish {
                stopped_early: false,
                wall: Duration::ZERO,
                per_worker_updates: vec![2, 3],
                log: lanes.into_iter().flat_map(|lane| lane.log).collect(),
            };
            let report = race.close("race", &op, vec![0.0; 4], finish, |w| &blocks[w]);
            assert_eq!(
                (report.steps, report.macro_iterations),
                (5, 1),
                "{record:?}"
            );
            let Some(trace) = report.trace else {
                assert_eq!(record, RecordMode::Off, "only `Off` builds no trace");
                continue;
            };
            assert_eq!(trace.store(), record.label_store());
            assert_eq!(trace.activations_of(0), [3, 5]);
            assert_eq!(trace.activations_of(2), [1, 2, 4]);
            // Condition (a) on what each mode keeps.
            for (j, step) in trace.iter() {
                assert_eq!(step.min_label, j.saturating_sub(2), "step {j}");
            }
            if record == RecordMode::Full {
                check_condition_a(&trace).unwrap();
            }
        }
    }
}
