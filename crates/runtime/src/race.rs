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
//!
//! **The step log.** Each lane keeps its own log, whatever the
//! [`RecordMode`]: 16 bytes per step, the ticket `j` and
//! `l(j) = min_h l_h(j)` (the lane names the worker), plus, under
//! `RecordMode::Full` only, the step's `n` labels appended to one flat
//! per-lane vector. A lane logs each ticket as it draws it, so its log
//! is already in ticket order: the closing merges the lanes on their
//! next tickets instead of copying and sorting one log.
//!
//! **Definition 2 over workers.** Every step of worker `w` updates all
//! of its block, and the blocks are nonempty, disjoint and cover `0..n`
//! (both engines cut them with `Partition::blocks`; the closing asserts
//! it once, in O(n)). So a step covers every component of a block
//! exactly when it covers that block's worker, with the same `l(j)`,
//! and the macro-iteration tracker runs over `W` workers instead of `n`
//! components with the same boundaries. Each worker's block is checked
//! and stored in the trace once, at its first step; later steps name
//! that step ([`Trace::push_min_step_like`]). A closing step then costs
//! O(log W) — the label copy under `RecordMode::Full` aside — where it
//! cost a pass over the block twice.

use crate::termination::{Quiesce, QuiescenceDetector, QuiescenceTracker};
use asynciter_core::session::{Problem, RecordMode, RunControl, RunReport};
use asynciter_core::{CoreError, Result};
use asynciter_models::macroiter::OnlineMacroTracker;
use asynciter_models::trace::Trace;
use asynciter_opt::traits::Operator;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

/// One logged step: its ticket and `l(j)`; its lane names the worker.
#[derive(Debug, Clone, Copy)]
struct Step {
    j: u64,
    min_label: u64,
}

/// One worker's step log, in ticket order: a lane logs each ticket as
/// it draws it, and tickets only grow.
#[derive(Default)]
struct LaneLog {
    steps: Vec<Step>,
    /// `n` labels per step under `RecordMode::Full`; empty otherwise.
    labels: Vec<u64>,
}

/// One worker's handle on the race.
pub(crate) struct Lane<'a> {
    race: &'a Race,
    /// A [`Quiesce`] rule's margin, shared detector and this worker's tracker.
    quiet: Option<(u64, &'a QuiescenceDetector, QuiescenceTracker)>,
    /// This worker's index.
    pub worker: usize,
    updates: u64,
    log: LaneLog,
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
    /// minimum, and under `RecordMode::Full` all of them. Allocates only
    /// when the log grows.
    pub fn log(&mut self, j: u64, labels: &[u64]) {
        let min_label = min_label(labels);
        self.log.steps.push(Step { j, min_label });
        if self.race.record == RecordMode::Full {
            self.log.labels.extend_from_slice(labels);
        }
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

/// `min(labels)` over eight independent accumulators, so the compares
/// of one chunk do not wait on one another: exact, since `min` is
/// associative and commutative. A race has `n ≥ 1` labels.
fn min_label(labels: &[u64]) -> u64 {
    let chunks = labels.chunks_exact(8);
    let tail = chunks.remainder();
    let mut acc = [u64::MAX; 8];
    for chunk in chunks {
        for (a, &l) in acc.iter_mut().zip(chunk) {
            *a = (*a).min(l);
        }
    }
    acc.iter().chain(tail).copied().fold(u64::MAX, u64::min)
}

/// What a race leaves behind, beside what its step bodies returned.
pub(crate) struct Finish {
    /// True when a termination rule fired before the budget was spent.
    pub stopped_early: bool,
    /// Wall-clock duration of the parallel section.
    pub wall: Duration,
    /// Steps ticketed per worker, and each worker's step log, for
    /// [`Race::close`].
    per_worker_updates: Vec<u64>,
    logs: Vec<LaneLog>,
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
    ) -> Result<Self> {
        ctl.check(problem)?;
        ctl.reject_sampling(backend)?;
        let target = ctl.residual_target(backend, onto)?;
        // `QuiescenceTracker::new` asserts this: unreachable from a config.
        if let Some(q) = quiesce.filter(|q| q.eps.is_nan() || q.eps < 0.0 || q.streak == 0) {
            return Err(CoreError::InvalidParameter {
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

    fn lane<'a>(
        &'a self,
        worker: usize,
        quiet: Option<(u64, &'a QuiescenceDetector, QuiescenceTracker)>,
    ) -> Lane<'a> {
        Lane {
            race: self,
            quiet,
            worker,
            updates: 0,
            log: LaneLog::default(),
        }
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
    /// being [`CoreError::WorkerPanicked`]; either stops every peer.
    pub fn run<S: Send, T: Send>(
        &self,
        seats: Vec<S>,
        body: impl Fn(&mut Lane<'_>, S) -> Result<T> + Sync,
    ) -> Result<(Vec<T>, Finish)> {
        let detector = self.quiesce.map(|_| QuiescenceDetector::new(seats.len()));
        let lane = |worker| {
            let quiet = (self.quiesce.zip(detector.as_ref()))
                .map(|(q, det)| (q.margin, det, QuiescenceTracker::new(q.eps, q.streak)));
            self.lane(worker, quiet)
        };
        let mut lanes: Vec<Lane<'_>> = (0..seats.len()).map(lane).collect();
        let start = Instant::now();
        // Every handle is joined: no panic unwinds through the scope.
        let joined: Vec<Result<T>> = std::thread::scope(|scope| {
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
                    .unwrap_or(Err(CoreError::WorkerPanicked { worker }))
            };
            handles.into_iter().enumerate().map(join).collect()
        });
        let finish = Finish {
            wall: start.elapsed(),
            stopped_early: self.converged.load(Ordering::Relaxed),
            per_worker_updates: lanes.iter().map(|lane| lane.updates).collect(),
            logs: lanes.into_iter().map(|lane| lane.log).collect(),
        };
        Ok((joined.into_iter().collect::<Result<_>>()?, finish))
    }

    /// The closing of a ticketed race: the report of `final_x`, filled
    /// from one merge of the lanes' logs in ticket order — dense by the
    /// ticket contract. Each step is told to the Definition-2 tracker
    /// over workers, and pushed into a [`Trace`] (`S_j = block_of(worker)`)
    /// only when the [`RecordMode`] keeps one.
    ///
    /// # Panics
    /// When the workers' blocks do not partition `0..n`.
    pub fn close<'b>(
        &self,
        backend: &'static str,
        op: &dyn Operator,
        final_x: Vec<f64>,
        finish: Finish,
        block_of: impl Fn(usize) -> &'b [usize],
    ) -> RunReport {
        let (n, logs) = (op.dim(), &finish.logs);
        assert_partition(n, (0..logs.len()).map(&block_of));
        let mut trace =
            (self.record.keeps_trace()).then(|| Trace::new(n, self.record.label_store()));
        let full = self.record == RecordMode::Full;
        // The trace step at which each worker's block was first pushed.
        let mut first: Vec<Option<u64>> = vec![None; logs.len()];
        let mut tracker = OnlineMacroTracker::new(logs.len());
        // k-way merge on each lane's next ticket `j`: (j, worker, index).
        let mut heads: BinaryHeap<Reverse<(u64, usize, usize)>> = (logs.iter().enumerate())
            .filter_map(|(w, log)| Some(Reverse((log.steps.first()?.j, w, 0))))
            .collect();
        let mut expect = 1;
        while let Some(Reverse((j, w, k))) = heads.pop() {
            debug_assert_eq!(j, expect, "non-dense step numbering");
            expect += 1;
            let log = &logs[w];
            if let Some(step) = log.steps.get(k + 1) {
                heads.push(Reverse((step.j, w, k + 1)));
            }
            let min_label = log.steps[k].min_label;
            tracker.observe(j, &[w], min_label);
            let Some(trace) = &mut trace else { continue };
            let labels = full.then(|| &log.labels[k * n..(k + 1) * n]);
            match (first[w], labels) {
                (None, Some(labels)) => trace.push_step(block_of(w), labels),
                (None, None) => trace.push_min_step(block_of(w), min_label),
                (Some(at), Some(labels)) => trace.push_step_like(at, labels),
                (Some(at), None) => trace.push_min_step_like(at, min_label),
            }
            first[w].get_or_insert(j);
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

/// Asserts in O(n) that `blocks` are nonempty and partition `0..n`:
/// then a step covers its whole block exactly when it covers its worker,
/// and Definition 2 counted over workers is the count over components.
fn assert_partition<'b>(n: usize, blocks: impl Iterator<Item = &'b [usize]>) {
    let mut owned = vec![false; n];
    let mut count = 0;
    for block in blocks {
        assert!(!block.is_empty(), "race: a worker owns no component");
        for &i in block {
            assert!(
                i < n && !std::mem::replace(&mut owned[i], true),
                "race: component {i} is not owned by exactly one worker"
            );
            count += 1;
        }
    }
    assert_eq!(count, n, "race: the workers' blocks do not cover 0..{n}");
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use asynciter_core::session::{Backend, Session};
    use asynciter_core::stopping::StoppingRule;
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
            seed: 0,
            schedule: None,
        }
    }

    /// Runs `backend` (an engine over 4 components in 2 blocks) through
    /// a `Session` from `[1.0; 4]` with a practically unbounded budget,
    /// under `stopping` if given, with an operator that is healthy on
    /// worker 0's block and fails on worker 1's — by going NaN, then by
    /// panicking: the healthy peer must be stopped and the failure
    /// returned as its typed error.
    pub(crate) fn check_a_failing_worker_stops_its_healthy_peers(
        backend: impl Backend + Clone,
        stopping: Option<StoppingRule>,
    ) {
        let run = |fail: fn() -> f64| {
            let op = UpperBlock(fail);
            let session = Session::new(&op).x0(vec![1.0; 4]).steps(u64::MAX);
            let session = match stopping.clone() {
                Some(rule) => session.stopping(rule),
                None => session,
            };
            session.backend(backend.clone()).run().unwrap_err()
        };
        let err = run(|| f64::NAN);
        assert!(
            matches!(err, CoreError::NonFiniteIterate { component: 2, .. }),
            "{err:?}"
        );
        let err = run(|| panic!("operator bug on worker 1's block"));
        assert_eq!(err, CoreError::WorkerPanicked { worker: 1 });
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
            let mut lanes = [0, 1].map(|worker| race.lane(worker, None));
            for (worker, j) in turns {
                let labels = [j - 1, j.saturating_sub(2), j - 1, j - 1];
                lanes[worker].log(j, &labels);
            }
            let finish = Finish {
                stopped_early: false,
                wall: Duration::ZERO,
                per_worker_updates: vec![2, 3],
                logs: lanes.map(|lane| lane.log).into(),
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

    /// The zero map on `n` components: a close needs only its dimension.
    struct Zero(usize);

    impl Operator for Zero {
        fn dim(&self) -> usize {
            self.0
        }
        fn component(&self, _: usize, _: &[f64]) -> f64 {
            0.0
        }
    }

    #[test]
    fn close_agrees_with_a_naive_walk_over_components() {
        use asynciter_models::macroiter::macro_iterations;
        use asynciter_models::partition::Partition;
        use asynciter_models::trace::LabelStore;
        use asynciter_numerics::rng::rng;
        use rand::RngExt;
        let mut boundaries = 0;
        for seed in 0..64u64 {
            let mut r = rng(seed);
            let workers = r.random_range(1..=8usize);
            let n = workers + r.random_range(0..=3 * workers);
            let partition = Partition::blocks(n, workers).unwrap();
            let blocks: Vec<Vec<usize>> =
                (0..workers).map(|w| partition.components_of(w)).collect();
            let steps = r.random_range(1..=400u64);
            // Ticket j goes to a random lane: a random interleaving.
            let owner: Vec<usize> = (0..steps).map(|_| r.random_range(0..workers)).collect();
            // Every label at or below j − 1; one step in four has a
            // minimum drawn from the whole past, so often below the last
            // boundary, the others a minimum at most 2 behind.
            let labels: Vec<Vec<u64>> = (1..=steps)
                .map(|j| {
                    let min = if r.random_range(0..4u32) == 0 {
                        r.random_range(0..j)
                    } else {
                        (j - 1).saturating_sub(r.random_range(0..3))
                    };
                    let mut labels: Vec<u64> = (0..n).map(|_| r.random_range(min..j)).collect();
                    labels[r.random_range(0..n)] = min;
                    labels
                })
                .collect();
            let op = Zero(n);
            let problem = Problem {
                op: &op,
                x0: vec![0.0; n],
                xstar: None,
            };
            for record in [RecordMode::Off, RecordMode::MinOnly, RecordMode::Full] {
                let case = format!("seed {seed}, {workers} workers, n = {n}, {record:?}");
                let race = Race::open("race", "no target", &problem, &plain(steps, record), None);
                let race = race.unwrap();
                let mut lanes: Vec<Lane<'_>> = (0..workers).map(|w| race.lane(w, None)).collect();
                let mut per_worker_updates = vec![0; workers];
                for (j, (&w, labels)) in (1..).zip(owner.iter().zip(&labels)) {
                    lanes[w].log(j, labels);
                    per_worker_updates[w] += 1;
                }
                let finish = Finish {
                    stopped_early: false,
                    wall: Duration::ZERO,
                    per_worker_updates,
                    logs: lanes.into_iter().map(|lane| lane.log).collect(),
                };
                let report = race.close("race", &op, vec![0.0; n], finish, |w| &blocks[w]);

                let store = record.label_store();
                let mut naive = Trace::new(n, store);
                let mut components = OnlineMacroTracker::new(n);
                for (j, (&w, labels)) in (1..).zip(owner.iter().zip(&labels)) {
                    let min = *labels.iter().min().unwrap();
                    match store {
                        LabelStore::Full => naive.push_step(&blocks[w], labels),
                        LabelStore::MinOnly => naive.push_min_step(&blocks[w], min),
                    }
                    components.observe(j, &blocks[w], min);
                }
                let want = macro_iterations(&naive).count() as u64;
                assert_eq!(components.completed(), want, "{case}");
                assert_eq!(report.macro_iterations, want, "{case}");
                boundaries += want;
                let Some(trace) = report.trace else {
                    assert_eq!(record, RecordMode::Off, "{case}");
                    continue;
                };
                assert_eq!((trace.len(), trace.store()), (naive.len(), store), "{case}");
                for ((j, got), (_, want)) in trace.iter().zip(naive.iter()) {
                    assert_eq!(got, want, "{case}, step {j}");
                    if store == LabelStore::Full {
                        assert_eq!(trace.labels(j), naive.labels(j), "{case}, step {j}");
                    }
                }
            }
        }
        assert!(
            boundaries > 1_000,
            "the cases complete few macro-iterations"
        );
    }
}
