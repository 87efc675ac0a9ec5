//! The linearised free-running harness: what a run of racing worker
//! threads needs whatever a step *does*.
//!
//! Definition 1 numbers block updates globally whatever machine runs
//! them. A worker calls [`Lane::ticket`] at the point of its step where
//! everything it read has already been published; the `SeqCst` total
//! order of that one counter *is* the trace linearisation — every label
//! a worker holds was ticketed before its own ticket, so condition (a)
//! holds by construction. Around the ticket the harness owns the stop
//! and converged flags, the per-worker step log and its merge into the
//! dense [`Trace`], the termination checks after a step (worker 0's
//! residual target, [`Quiesce`] detection) and the scoped spawn / join
//! that turns a worker's error or panic into the run's error. What a
//! step reads, computes and publishes is the engine's step body
//! ([`crate::async_engine`], [`crate::threaded`]); the harness never
//! asks which one it serves. [`crate::sync_engine`] borrows the flags
//! and the join without drawing a ticket.

use crate::error::RuntimeError;
use crate::termination::{Quiesce, QuiescenceDetector, QuiescenceTracker};
use crate::worker::check_positive;
use asynciter_models::trace::{LabelStore, Trace};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One race: its checked rules and the state its workers share.
pub(crate) struct Race {
    budget: u64,
    record: Option<LabelStore>,
    target_residual: Option<f64>,
    check_every: u64,
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

    /// Logs step `j` as having read the values labelled `labels`.
    pub fn log(&mut self, j: u64, labels: impl Iterator<Item = u64>) {
        let (min_label, labels) = match self.race.record {
            None => return,
            Some(LabelStore::MinOnly) => (labels.min().unwrap_or(0), Vec::new()),
            Some(LabelStore::Full) => (0, labels.collect()),
        };
        self.log.push(Step {
            j,
            worker: self.worker,
            min_label,
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
        self.race.target_residual.is_some_and(|eps| {
            self.worker == 0
                && self.updates.is_multiple_of(self.race.check_every.max(1))
                && residual() <= eps
                && self.race.converge()
        })
    }
}

/// What a race leaves behind.
pub(crate) struct Finish<T> {
    /// What each worker's step body returned, by worker.
    pub outputs: Vec<T>,
    /// Steps ticketed per worker.
    pub per_worker_updates: Vec<u64>,
    /// True when a termination rule fired before the budget was spent.
    pub stopped_early: bool,
    /// Wall-clock duration of the parallel section.
    pub wall: Duration,
    /// Every logged step, worker by worker, for [`Race::trace`].
    pub log: Vec<Step>,
}

impl Race {
    /// A race of at most `budget` steps, logged as `record` asks, ended
    /// early by a residual target and/or a quiescence rule.
    ///
    /// # Errors
    /// A zero budget or an invalid [`Quiesce`] rule.
    pub fn new(
        budget: u64,
        record: Option<LabelStore>,
        target_residual: Option<f64>,
        check_every: u64,
        quiesce: Option<Quiesce>,
    ) -> crate::Result<Self> {
        check_positive(&[("step budget", budget)])?;
        // `QuiescenceTracker::new` asserts this: unreachable from a config.
        if let Some(q) = quiesce.filter(|q| q.eps.is_nan() || q.eps < 0.0 || q.streak == 0) {
            return Err(RuntimeError::InvalidParameter {
                name: "quiesce",
                message: format!("requires eps >= 0 and streak > 0, got {q:?}"),
            });
        }
        Ok(Self {
            budget,
            record,
            target_residual,
            check_every,
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
    ///
    /// # Errors
    /// The first (by worker index) step-body error, a panicking body
    /// being [`RuntimeError::WorkerPanicked`]; either stops every peer.
    pub fn run<S: Send, T: Send>(
        &self,
        seats: Vec<S>,
        body: impl Fn(&mut Lane<'_>, S) -> crate::Result<T> + Sync,
    ) -> crate::Result<Finish<T>> {
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
        Ok(Finish {
            wall: start.elapsed(),
            outputs: joined.into_iter().collect::<crate::Result<_>>()?,
            per_worker_updates: lanes.iter().map(|lane| lane.updates).collect(),
            stopped_early: self.converged.load(Ordering::Relaxed),
            log: lanes.into_iter().flat_map(|lane| lane.log).collect(),
        })
    }

    /// Sorts the logged steps into the global trace over `n` components
    /// — dense by the ticket contract — with `block_of(w)` the active
    /// set of worker `w`'s steps. `None` when nothing was recorded.
    pub fn trace<'b>(
        &self,
        n: usize,
        mut log: Vec<Step>,
        block_of: impl Fn(usize) -> &'b [usize],
    ) -> Option<Trace> {
        let store = self.record?;
        log.sort_unstable_by_key(|step| step.j);
        let mut trace = Trace::new(n, store);
        let mut min_only_labels = vec![0u64; n];
        for (idx, step) in log.iter().enumerate() {
            debug_assert_eq!(step.j as usize, idx + 1, "non-dense step numbering");
            if store == LabelStore::Full {
                trace.push_step(block_of(step.worker), &step.labels);
            } else {
                min_only_labels.fill(step.min_label);
                trace.push_step(block_of(step.worker), &min_only_labels);
            }
        }
        Some(trace)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use asynciter_core::session::{Problem, RecordMode, RunControl};
    use asynciter_models::conditions::check_condition_a;
    use asynciter_opt::traits::Operator;

    /// Drives `run` (an engine over 4 components in 2 blocks, handed a
    /// plain run from `[1.0; 4]` with a practically unbounded budget)
    /// with an operator that is healthy on worker 0's block and fails on
    /// worker 1's — by going NaN, then by panicking: the healthy peer
    /// must be stopped and the failure returned as its typed error.
    pub(crate) fn check_a_failing_worker_stops_its_healthy_peers(
        run: impl Fn(&Problem<'_>, &mut RunControl<'_>) -> RuntimeError,
    ) {
        struct FailsOnUpperBlock(fn() -> f64);
        impl Operator for FailsOnUpperBlock {
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
        let run = |fail: fn() -> f64| {
            let problem = Problem {
                op: &FailsOnUpperBlock(fail),
                x0: vec![1.0; 4],
                xstar: None,
            };
            let mut ctl = RunControl {
                max_steps: u64::MAX,
                error_every: 0,
                residual_every: 0,
                stopping: None,
                record: RecordMode::Off,
                seed: None,
                schedule: None,
            };
            run(&problem, &mut ctl)
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
        let race = Race::new(budget, None, None, 64, None).unwrap();
        let body = |lane: &mut Lane<'_>, ()| {
            let mut drawn = Vec::new();
            while let Some(j) = lane.ticket() {
                drawn.push(j);
            }
            assert!(lane.stopped(), "a spent budget ends the race");
            Ok(drawn)
        };
        let finish = race.run(vec![(); 4], body).unwrap();
        assert!(!finish.stopped_early);
        assert_eq!(finish.per_worker_updates.iter().sum::<u64>(), budget);
        let mut all: Vec<u64> = finish.outputs.concat();
        all.sort_unstable();
        assert_eq!(all, (1..=budget).collect::<Vec<_>>(), "gap or repeat");
    }

    #[test]
    fn out_of_order_logs_merge_into_a_dense_admissible_trace() {
        let blocks = [vec![0, 1], vec![2]];
        let step = |worker, j: u64| Step {
            j,
            worker,
            min_label: j.saturating_sub(2),
            labels: vec![j - 1, j.saturating_sub(2), j - 1],
        };
        // Worker-major order 3, 5, 1, 2, 4 is not the ticket order.
        let log = || vec![step(0, 3), step(0, 5), step(1, 1), step(1, 2), step(1, 4)];
        for record in [LabelStore::MinOnly, LabelStore::Full] {
            let race = Race::new(5, Some(record), None, 64, None).unwrap();
            let trace = race.trace(3, log(), |w| &blocks[w]).expect("recording on");
            assert_eq!(trace.store(), record);
            assert_eq!(trace.activations_of(0), [3, 5]);
            assert_eq!(trace.activations_of(2), [1, 2, 4]);
            // Condition (a) on what each mode keeps.
            for (j, step) in trace.iter() {
                assert_eq!(step.min_label, j.saturating_sub(2), "step {j}");
            }
            if record == LabelStore::Full {
                check_condition_a(&trace).unwrap();
            }
        }
        let race = Race::new(5, None, None, 64, None).unwrap();
        assert!(race.trace(3, log(), |w| &blocks[w]).is_none());
    }
}
