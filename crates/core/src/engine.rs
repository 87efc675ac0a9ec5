//! The Definition-1 replay engine.
//!
//! Eq. (1) of the paper defines the asynchronous iterate sequence
//!
//! ```text
//! x_i(j) = F_i( x_1(l_1(j)), …, x_n(l_n(j)) )   if i ∈ S_j,
//! x_i(j) = x_i(j − 1)                            otherwise.
//! ```
//!
//! The [`Replay`] backend executes this *exactly*: the update
//! [`History`] of every component lets the read vector `x(l(j))` be
//! assembled by label lookup (so out-of-order and unbounded delays are
//! honoured bit-for-bit, not approximated), the operator is applied to
//! the active set, and — when asked — the trace is recorded on which
//! macro-iterations, epochs and the condition checkers operate.
//! Determinism makes every experiment replayable from a seed.
//!
//! Definition 1 is Definition 3 once no partial is ever published, so
//! `Replay` owns no loop: it calls the one in [`crate::flexible`] with
//! one inner iteration and partials off.

use crate::flexible::Flexible;
use crate::session::{Backend, Problem, RunControl, RunReport};

/// Per-component update history with label lookup.
///
/// `value_at(i, l)` returns `x_i(l)`: the value component `i` had at
/// iteration label `l` — i.e. the value written by the most recent update
/// of `i` at or before `l` (or the initial value). A lookup gallops
/// backwards from the newest entry of the component's private update log,
/// so it costs `O(log u)` in the number `u` of updates of `i` newer than
/// `l` — the delay, not the length of the run.
///
/// **Compaction.** Without a floor every update is kept for the whole
/// run. Once [`set_floor`](Self::set_floor) promises that no label below
/// `floor` will be read again, an entry whose successor is at or below
/// the floor can never answer a lookup. When a log is full and at least
/// half of it is such dead prefix, [`push`](Self::push) drains that
/// prefix instead of growing. It keeps the newest entry at or below the
/// floor, so every log still starts at a step `≤ floor ≤ l` for each
/// admissible label `l`, a lookup still ends there, and no read changes.
/// A log then holds under four times the entries its delay window does,
/// not one per update of the run, and the drains cost `O(1)` amortised
/// per push.
#[derive(Debug, Clone)]
pub struct History {
    /// Per component: update log `(step j, value)`, starting at a step
    /// `≤ floor` (step 0 with `x0` until the first compaction).
    logs: Vec<Vec<(u64, f64)>>,
    /// No label below this is read any more (`0`: every label is).
    floor: u64,
}

impl History {
    /// Creates a history initialised with `x(0)`.
    pub fn new(x0: &[f64]) -> Self {
        Self {
            logs: x0.iter().map(|&v| vec![(0u64, v)]).collect(),
            floor: 0,
        }
    }

    /// Promises that no label below `floor` will be read again, which
    /// lets [`push`](Self::push) drop the entries only such labels could
    /// read. A floor lower than the current one is ignored.
    pub fn set_floor(&mut self, floor: u64) {
        self.floor = self.floor.max(floor);
    }

    /// Number of components.
    pub fn n(&self) -> usize {
        self.logs.len()
    }

    /// Records the update `x_i(j) = value`, compacting a full log below
    /// the floor first (see the type docs).
    ///
    /// # Panics
    /// Panics when steps are not appended in increasing order.
    #[inline]
    pub fn push(&mut self, i: usize, j: u64, value: f64) {
        let log = &mut self.logs[i];
        // Every lookup relies on each log being sorted by step.
        let last = log.last().expect("log never empty").0;
        assert!(
            last < j,
            "History::push: step {j} of component {i} is not after its last update {last}"
        );
        if log.len() == log.capacity() {
            // `log[dead]` is the newest entry at or below the floor; all
            // before it are shadowed for every label `≥ floor`.
            let dead = log.partition_point(|&(s, _)| s <= self.floor) - 1;
            if dead > 0 && 2 * dead >= log.len() {
                log.drain(..dead);
            }
        }
        log.push((j, value));
    }

    /// `x_i(l)`: the value of component `i` at label `l`.
    ///
    /// # Panics
    /// Panics when `l` lies below the floor and the log of `i` no longer
    /// reaches back to it.
    #[inline]
    pub fn value_at(&self, i: usize, l: u64) -> f64 {
        let log = &self.logs[i];
        // Labels lag the newest update by the delay, so most reads are of
        // the last entry or just before it.
        let newest = log.len() - 1;
        let (last_j, last_v) = log[newest];
        if last_j <= l {
            return last_v;
        }
        // Gallop backwards (newest − 1, − 2, − 4, …) to a probe at or
        // before `l`; `log[0]` is at or below the floor, so for `l ≥ floor`
        // the loop ends. Then `log[lo].0 <= l < log[hi].0` and the answer
        // lies in `lo..hi`.
        let (mut hi, mut back) = (newest, 1);
        let lo = loop {
            let probe = newest.saturating_sub(back);
            if log[probe].0 <= l {
                break probe;
            }
            assert!(
                probe > 0,
                "History::value_at: label {l} of component {i} is below the floor {}",
                self.floor
            );
            hi = probe;
            back *= 2;
        };
        log[lo + log[lo + 1..hi].partition_point(|&(s, _)| s <= l)].1
    }

    /// The current (most recent) value of component `i`.
    #[inline]
    pub fn current(&self, i: usize) -> f64 {
        self.logs[i].last().expect("log never empty").1
    }

    /// Assembles the read vector `x(l(j)) = (x_1(l_1), …, x_n(l_n))`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn assemble(&self, labels: &[u64], out: &mut [f64]) {
        assert_eq!(labels.len(), self.n(), "History::assemble: labels dim");
        assert_eq!(out.len(), self.n(), "History::assemble: out dim");
        for (i, (&l, o)) in labels.iter().zip(out.iter_mut()).enumerate() {
            *o = self.value_at(i, l);
        }
    }

    /// Copies the current vector into `out`.
    pub fn snapshot(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.n(), "History::snapshot: out dim");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.current(i);
        }
    }

    /// Total number of stored log entries (memory diagnostic): bounded by
    /// the delay window under a floor, by the run length without one.
    pub fn entries(&self) -> usize {
        self.logs.iter().map(Vec::len).sum()
    }
}

/// The deterministic Definition-1 replay backend. See module docs.
///
/// `RunControl::max_steps` is the iteration budget `J`; error and
/// residual sampling and every [`StoppingRule`](crate::stopping::StoppingRule)
/// are honoured. `Problem::xstar` serves error recording and
/// error-based stopping only (experiments — the algorithm itself never
/// uses it).
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay;

impl Backend for Replay {
    fn name(&self) -> &'static str {
        "replay"
    }

    /// Runs the asynchronous iteration `(F, x(0), 𝒮, ℒ)`: Definition 3
    /// with one inner iteration and no partial ever published.
    ///
    /// # Errors
    /// Dimension mismatches, invalid controls, a malformed schedule step
    /// (a label later than its step or below the schedule's promised
    /// floor included), or a non-finite iterate (operator divergence).
    fn run(&mut self, problem: &Problem<'_>, ctl: &mut RunControl<'_>) -> crate::Result<RunReport> {
        let mut definition_1 = Flexible {
            m: 1,
            partial: false,
            ..Flexible::default()
        };
        let backend = self.name();
        let report = definition_1.run(problem, ctl)?;
        Ok(RunReport { backend, ..report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{same_run, Fields};
    use crate::error::CoreError;
    use crate::session::{RecordMode, Session};
    use asynciter_models::schedule::{ChaoticBounded, CyclicCoordinate, SyncJacobi};
    use asynciter_models::trace::{LabelStore, Trace};
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_numerics::vecops;
    use asynciter_opt::linear::JacobiOperator;
    use asynciter_opt::prox::L1;
    use asynciter_opt::proxgrad::{gamma_max, SparseProxGrad};
    use asynciter_opt::quadratic::SparseQuadratic;
    use asynciter_opt::traits::{Operator, SmoothObjective};

    fn jacobi() -> JacobiOperator {
        JacobiOperator::new(tridiagonal(6, 4.0, -1.0), vec![1.0; 6]).unwrap()
    }

    #[test]
    fn history_lookup_semantics() {
        let mut h = History::new(&[10.0, 20.0]);
        h.push(0, 3, 11.0);
        h.push(0, 7, 12.0);
        assert_eq!(h.value_at(0, 0), 10.0);
        assert_eq!(h.value_at(0, 2), 10.0);
        assert_eq!(h.value_at(0, 3), 11.0);
        assert_eq!(h.value_at(0, 6), 11.0);
        assert_eq!(h.value_at(0, 7), 12.0);
        assert_eq!(h.value_at(0, 100), 12.0);
        assert_eq!(h.value_at(1, 50), 20.0);
        assert_eq!(h.current(0), 12.0);
        assert_eq!(h.entries(), 4);
    }

    #[test]
    #[should_panic(
        expected = "History::push: step 3 of component 0 is not after its last update 3"
    )]
    fn history_push_rejects_a_non_increasing_step() {
        let mut h = History::new(&[0.0]);
        h.push(0, 3, 1.0);
        h.push(0, 3, 2.0);
    }

    #[test]
    fn history_assemble() {
        let mut h = History::new(&[1.0, 2.0]);
        h.push(0, 1, 5.0);
        let mut out = [0.0; 2];
        h.assemble(&[0, 0], &mut out);
        assert_eq!(out, [1.0, 2.0]);
        h.assemble(&[1, 0], &mut out);
        assert_eq!(out, [5.0, 2.0]);
    }

    #[test]
    fn a_floor_compacts_history_without_changing_a_read() {
        use rand::RngExt;
        // Reads look at most `window` steps back; the floor promises it.
        let (n, window) = (5, 24u64);
        for seed in 0..3 {
            let mut rng = asynciter_numerics::rng::rng(seed);
            let x0: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (mut plain, mut compact) = (History::new(&x0), History::new(&x0));
            for j in 1..=5_000u64 {
                let floor = j.saturating_sub(window);
                compact.set_floor(floor);
                for i in 0..n {
                    if rng.random_range(0.0..1.0) < 0.4 {
                        let v = rng.random_range(-1.0..1.0);
                        plain.push(i, j, v);
                        compact.push(i, j, v);
                    }
                }
                for i in 0..n {
                    for l in floor..=j {
                        let (a, b) = (plain.value_at(i, l), compact.value_at(i, l));
                        assert_eq!(a.to_bits(), b.to_bits(), "x_{i}({l}) at j={j}");
                    }
                }
                // A log holds under four times the window it can be read in.
                assert!(compact.entries() < 4 * (window as usize + 1) * n);
            }
            assert!(compact.entries() * 10 < plain.entries());
        }
    }

    #[test]
    #[should_panic(expected = "History::value_at: label 3 of component 0 is below the floor 90")]
    fn a_read_below_a_compacted_floor_panics() {
        let mut h = History::new(&[0.0]);
        h.set_floor(90);
        for j in 1..=100 {
            h.push(0, j, j as f64);
        }
        h.value_at(0, 3);
    }

    #[test]
    fn sync_replay_equals_jacobi_iteration() {
        // With the synchronous schedule the engine must reproduce plain
        // Jacobi: x(j) = F(x(j−1)).
        let op = jacobi();
        let res = Session::new(&op)
            .steps(20)
            .schedule(SyncJacobi::new(6))
            .run()
            .unwrap();

        let mut x = vec![0.0; 6];
        let mut next = vec![0.0; 6];
        for _ in 0..20 {
            op.apply(&x, &mut next);
            std::mem::swap(&mut x, &mut next);
        }
        assert!(vecops::max_abs_diff(&res.final_x, &x) < 1e-15);
        assert_eq!(res.steps, 20);
        assert!(!res.stopped_early);
    }

    #[test]
    fn cyclic_replay_equals_gauss_seidel() {
        let op = jacobi();
        let res = Session::new(&op)
            .steps(60)
            .schedule(CyclicCoordinate::new(6))
            .run()
            .unwrap();

        // Hand-rolled Gauss–Seidel: 10 sweeps of in-place updates.
        let mut x = vec![0.0; 6];
        for _ in 0..10 {
            for i in 0..6 {
                x[i] = op.component(i, &x);
            }
        }
        assert!(vecops::max_abs_diff(&res.final_x, &x) < 1e-15);
    }

    #[test]
    fn async_replay_converges_for_contraction() {
        let op = jacobi();
        let xstar = op.solve_dense_spd().unwrap();
        let res = Session::new(&op)
            .steps(4000)
            .schedule(ChaoticBounded::new(6, 1, 3, 12, false, 42))
            .xstar(xstar.clone())
            .error_every(100)
            .run()
            .unwrap();
        let final_err = vecops::max_abs_diff(&res.final_x, &xstar);
        assert!(final_err < 1e-10, "error {final_err}");
        // Errors decrease overall.
        assert!(res.errors.first().unwrap().1 > res.errors.last().unwrap().1);
    }

    #[test]
    fn replay_is_deterministic() {
        let op = jacobi();
        let run = || {
            Session::new(&op)
                .steps(500)
                .schedule(ChaoticBounded::new(6, 1, 3, 8, false, 7))
                .record(RecordMode::Full)
                .run()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(same_run(&a, &b, Fields::Computed), Ok(()));
        let (a, b) = (a.trace.unwrap(), b.trace.unwrap());
        assert_eq!(a.len(), b.len());
        for j in 1..=a.len() as u64 {
            assert_eq!(a.step(j).active, b.step(j).active);
            assert_eq!(a.labels(j).unwrap(), b.labels(j).unwrap());
        }
    }

    #[test]
    fn stale_reads_are_honoured_exactly() {
        // Hand-built 2-component scenario with a recorded schedule:
        // F(x) = (x1+1, x0) — the engine must read exactly the labelled
        // values.
        struct Shift;
        impl Operator for Shift {
            fn dim(&self) -> usize {
                2
            }
            fn component(&self, i: usize, x: &[f64]) -> f64 {
                if i == 0 {
                    x[1] + 1.0
                } else {
                    x[0]
                }
            }
        }
        let mut t = Trace::new(2, LabelStore::Full);
        t.push_step(&[0], &[0, 0]); // j=1: x0 := x1(0) + 1 = 1
        t.push_step(&[1], &[1, 0]); // j=2: x1 := x0(1) = 1
        t.push_step(&[0], &[0, 0]); // j=3: stale! x0 := x1(0) + 1 = 1 (not 2)
        t.push_step(&[0], &[0, 2]); // j=4: x0 := x1(2) + 1 = 2
        let res = Session::new(&Shift).replay_trace(t).unwrap().run().unwrap();
        assert_eq!(res.steps, 4);
        assert_eq!(res.final_x, vec![2.0, 1.0]);
    }

    #[test]
    fn proxgrad_async_run_reaches_fixed_point() {
        let f = SparseQuadratic::random_diag_dominant(16, 3, 0.4, 1.2, 5).unwrap();
        let gamma = 0.9 * gamma_max(f.strong_convexity(), f.lipschitz());
        let op = SparseProxGrad::new(f, L1::new(0.1), gamma).unwrap();
        let (xstar, _) = op.solve_exact().unwrap();
        let res = Session::new(&op)
            .steps(20_000)
            .schedule(ChaoticBounded::new(16, 2, 6, 20, false, 11))
            .xstar(xstar.clone())
            .run()
            .unwrap();
        assert!(vecops::max_abs_diff(&res.final_x, &xstar) < 1e-9);
    }

    #[test]
    fn dimension_validation() {
        let op = jacobi();
        // Wrong schedule n.
        assert!(matches!(
            Session::new(&op)
                .steps(1)
                .schedule(SyncJacobi::new(5))
                .run(),
            Err(CoreError::DimensionMismatch { .. })
        ));
        assert!(Session::new(&op).steps(1).x0(vec![0.0; 5]).run().is_err());
        assert!(Session::new(&op).steps(0).run().is_err());
        // error_every without xstar.
        assert!(Session::new(&op).steps(5).error_every(1).run().is_err());
    }

    #[test]
    fn divergence_detected() {
        struct Doubler;
        impl Operator for Doubler {
            fn dim(&self) -> usize {
                1
            }
            fn component(&self, _i: usize, x: &[f64]) -> f64 {
                x[0] * 1e30
            }
        }
        // 1e30 squared repeatedly overflows to inf quickly.
        let err = Session::new(&Doubler)
            .steps(100)
            .x0(vec![1.0e100])
            .run()
            .unwrap_err();
        assert!(matches!(err, CoreError::NonFiniteIterate { .. }));
    }

    #[test]
    fn residual_recording() {
        let op = jacobi();
        let res = Session::new(&op)
            .steps(100)
            .residual_every(10)
            .run()
            .unwrap();
        assert_eq!(res.residuals.len(), 10);
        // Residuals decrease for a contraction under sync iteration.
        assert!(res.residuals.first().unwrap().1 > res.residuals.last().unwrap().1);
    }
}
