//! The Definition-3 flexible-communication engine — the one
//! schedule-driven step loop of this crate.
//!
//! Flexible communication (paper §IV, refs \[9\], \[23\], \[24\]) lets updates
//! consume *partial updates*: values published mid-computation (one-sided
//! `put()`s from inside an updating phase) rather than only the values
//! `x_i(l_i(j))` labelled by completed iterations. Definition 3 replaces
//! the read vector by any `x̃(j)` satisfying the weighted-max-norm
//! constraint (3):
//!
//! ```text
//! ‖x̃_i(j) − x_i*‖_i / u_i  ≤  ‖x(l(j)) − x*‖_u .
//! ```
//!
//! The [`Flexible`] backend realises this concretely:
//!
//! - each outer update runs `m` **inner iterations** of the operator on
//!   its active block (off-block components frozen at the assembled read
//!   vector) — the "operators G generated via an iterative process" of
//!   the paper;
//! - every `publish_period` inner steps the in-progress block values are
//!   **published** as partial updates;
//! - later reads of a component may *upgrade* from their labelled value
//!   `x_h(l_h(j))` to the freshest published *partial* (with
//!   configurable probability, modelling whether the one-sided transfer
//!   arrived) — finals still travel through the ordinary labelled
//!   exchange, so partials are a strictly additional fast channel;
//! - when the fixed point is known, every upgraded read is checked
//!   against constraint (3); `enforce_constraint` falls back to the
//!   labelled value on violation, making the run a *certified*
//!   Definition-3 iteration.
//!
//! Definition 1 is the `m = 1` case in which nothing is ever published:
//! [`Replay`](crate::engine::Replay) is this loop called that way, and
//! until a first partial exists a step does no Definition-3 work. What
//! follows a step — streaming macro-iterations, the trace if the
//! [`RecordMode`](crate::session::RecordMode) keeps one, sampling and
//! every stopping rule — is the [`Observer`]'s, shared with `Sim` and
//! `Cluster`.

use crate::engine::History;
use crate::error::CoreError;
use crate::observer::Observer;
use crate::session::{check_dim, Backend, Problem, RunControl, RunReport};
use asynciter_models::schedule::StepBuf;
use asynciter_models::trace::well_formed_step;
use asynciter_numerics::norm::WeightedMaxNorm;
use rand::RngExt;
use std::cell::LazyCell;

/// The Definition-3 flexible-communication backend. See module docs.
///
/// `m` inner iterations run per outer update; with `partial` set the
/// in-progress block is published halfway (override with
/// `publish_period`) and readers may consume those partials.
/// `RunControl::max_steps` is the outer-iteration budget, the session
/// seed drives the upgrade decisions, and the macro-iteration count, the
/// recorded trace and `MacroContraction` all see the *effective*
/// provenance step of each read, partials included.
/// `Problem::xstar` serves the constraint-(3) checks (skipped when
/// absent), error recording and error-based stopping. Constructible with
/// functional-update syntax:
/// `Flexible { m: 4, partial: true, ..Flexible::default() }`.
#[derive(Debug, Clone)]
pub struct Flexible {
    /// Inner iterations `m ≥ 1` per outer update (the approximate
    /// operator `G ≈ F^m` on the active block).
    pub m: usize,
    /// Publish mid-phase partials (flexible communication); `false`
    /// degenerates to the standard asynchronous iteration.
    pub partial: bool,
    /// Probability that a read upgrades to an available fresher partial.
    pub partial_prob: f64,
    /// Publish partial block values every this many inner steps
    /// (default: `m/2` when `partial`, disabled otherwise).
    pub publish_period: Option<usize>,
    /// When true (and `xstar` is provided), reads that would violate
    /// constraint (3) fall back to their labelled value (certified
    /// Definition-3 iteration).
    pub enforce_constraint: bool,
    /// The weighted max norm `‖·‖_u` of constraint (3) (default:
    /// uniform weights).
    pub norm: Option<WeightedMaxNorm>,
}

impl Default for Flexible {
    fn default() -> Self {
        Self {
            m: 1,
            partial: true,
            partial_prob: 1.0,
            publish_period: None,
            enforce_constraint: false,
            norm: None,
        }
    }
}

impl Backend for Flexible {
    fn name(&self) -> &'static str {
        "flexible"
    }

    /// Runs the flexible asynchronous iteration `(G, x(0), 𝒮, ℒ)`: the
    /// one schedule-driven step loop of this crate.
    ///
    /// # Errors
    /// Dimension mismatches, invalid parameters or stopping rules, a
    /// malformed schedule step (a label later than its step or below the
    /// schedule's promised floor included), or a non-finite iterate.
    fn run(&mut self, problem: &Problem<'_>, ctl: &mut RunControl<'_>) -> crate::Result<RunReport> {
        if !self.partial && self.publish_period.is_some() {
            return Err(CoreError::InvalidParameter {
                name: "publish_period",
                message: "set together with partial: false — a partial-free baseline \
                          cannot publish mid-phase"
                    .into(),
            });
        }
        let mut gen = ctl.take_schedule(problem)?;
        let (op, n) = (problem.op, problem.n());
        let xstar = problem.xstar.as_deref();
        let m = self.m;
        // A period of `m` disables mid-phase publishing.
        let default_period = if self.partial { m / 2 } else { m };
        let publish_period = self.publish_period.unwrap_or(default_period.max(1));
        // Built when the first partial is published, if one ever is.
        let uniform = LazyCell::new(|| WeightedMaxNorm::uniform(n));
        check_dim(
            n,
            self.norm.as_ref().map_or(n, |norm| norm.dim()),
            "Flexible (norm)",
        )?;
        for (name, count) in [("m", m), ("publish_period", publish_period)] {
            if count == 0 {
                return Err(CoreError::InvalidParameter {
                    name,
                    message: "must be positive".into(),
                });
            }
        }
        if !(0.0..=1.0).contains(&self.partial_prob) {
            return Err(CoreError::InvalidParameter {
                name: "partial_prob",
                message: format!("must be in [0,1], got {}", self.partial_prob),
            });
        }
        let start = std::time::Instant::now();

        // Filled in place (`final_x` is the current iterate x(j)); what
        // the observer sees of the run is written by its `finish`.
        let mut report = RunReport::new(self.name(), problem.x0.clone(), 0, f64::NAN);
        let mut observer = Observer::new(problem, ctl);
        let cur = &mut report.final_x;
        let mut rng = asynciter_numerics::rng::rng(ctl.seed);
        let mut history = History::new(&problem.x0);
        // Definition-3 state, sized only if the run can publish at all
        // (`publish_period < m`): the freshest published partial per
        // component — (outer step, value), step 0 marking "no partial
        // yet" — and the labels a step's reads were upgraded to.
        let partials = if publish_period < m { n } else { 0 };
        let mut latest_partial: Vec<(u64, f64)> = vec![(0, 0.0); partials];
        let mut eff_labels = vec![0u64; partials];
        // Workhorse buffers reused across iterations (no allocation in the
        // step loop), including the operator's caller-owned scratch.
        let mut buf = StepBuf::new(n);
        let mut w = vec![0.0; n]; // read vector x(l(j)), upgraded to x̃, then inner iterates
        let mut scratch = vec![0.0; op.scratch_len()];
        // The schedule's promised label floor, held nondecreasing: what
        // lies below it `history` may drop, so no label may read there.
        let mut floor = 0;

        for j in 1..=ctl.max_steps {
            gen.step(j, &mut buf);
            floor = gen.label_floor(j).max(floor);
            if !well_formed_step(&buf.active, &buf.labels, n) {
                // The schedule is caller input: checked on every step.
                return Err(CoreError::InvalidParameter {
                    name: "schedule",
                    message: format!(
                        "step {j}: {} labels and S_j = {:?} for n = {n}",
                        buf.labels.len(),
                        buf.active
                    ),
                });
            }
            // One pass for both bounds on a label: condition (a),
            // l_h(j) ≤ j − 1 (a later label would read x(j − 1)), and the
            // promised floor (an earlier one may be compacted away).
            if let Some(h) = buf.labels.iter().position(|l| !(floor..j).contains(l)) {
                let l = buf.labels[h];
                let message = if l >= j {
                    format!(
                        "step {j}: component {h} reads label {l} — condition (a) needs l_h(j) <= j - 1"
                    )
                } else {
                    format!(
                        "step {j}: component {h} reads label {l} below the schedule's promised label floor {floor}"
                    )
                };
                return Err(CoreError::InvalidParameter {
                    name: "schedule",
                    message,
                });
            }
            history.set_floor(floor);
            history.assemble(&buf.labels, &mut w);

            // The labels this step effectively read. Until the first
            // partial is published they are the schedule's own and the
            // step is Definition 1; afterwards reads upgrade to fresher
            // partials where available.
            let labels = if report.partial_publishes == 0 {
                &buf.labels
            } else {
                // Baseline norm of constraint (3): ‖x(l(j)) − x*‖_u.
                let norm = self.norm.as_ref().unwrap_or_else(|| &*uniform);
                let baseline = xstar.map(|xs| norm.dist(&w, xs));
                eff_labels.copy_from_slice(&buf.labels);
                for h in 0..n {
                    let (ps, pv) = latest_partial[h];
                    if ps > buf.labels[h] && self.partial_prob > 0.0 {
                        let take = self.partial_prob >= 1.0
                            || rng.random_range(0.0..1.0) < self.partial_prob;
                        if !take {
                            continue;
                        }
                        if let (Some(b), Some(xs)) = (baseline, xstar) {
                            report.constraint_checked += 1;
                            let dev = norm.component(h, pv - xs[h]);
                            if dev > b + 1e-12 {
                                report.constraint_violations += 1;
                                if self.enforce_constraint {
                                    continue; // keep the labelled value
                                }
                            }
                        }
                        w[h] = pv;
                        eff_labels[h] = ps;
                        report.partial_reads += 1;
                    }
                }
                &eff_labels
            };

            // m inner block-Jacobi iterations with off-block frozen; the
            // last one is the outer update. Finals do NOT enter
            // `latest_partial` — full updates travel at the speed of the
            // label mechanism (the ordinary exchange path), while
            // partials model the *extra* fast channel of flexible
            // communication. With `publish_period ≥ m` no partials exist
            // and the run is the standard asynchronous iteration, which
            // is exactly the baseline `tests/applications.rs::
            // flexible_publishing_never_needs_more_outer_steps` compares
            // against.
            for r in 1..=m {
                op.update_active_with(&w, &buf.active, cur, &mut scratch);
                let publish = r < m && r % publish_period == 0;
                for &i in &buf.active {
                    let v = cur[i];
                    if !v.is_finite() {
                        return Err(CoreError::NonFiniteIterate {
                            at_step: j,
                            component: i,
                        });
                    }
                    if r == m {
                        history.push(i, j, v);
                    } else {
                        w[i] = v;
                    }
                    if publish {
                        latest_partial[i] = (j, v);
                        report.partial_publishes += 1;
                    }
                }
            }

            if observer.step(j, &buf.active, labels, cur, &mut scratch) {
                break;
            }
        }

        report.wall = start.elapsed();
        observer.finish(&mut report);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Replay;
    use crate::session::Session;
    use asynciter_models::partition::Partition;
    use asynciter_models::schedule::{BlockRoundRobin, ScheduleGen};
    use asynciter_models::trace::{LabelStore, Trace};
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_numerics::vecops;
    use asynciter_opt::linear::JacobiOperator;
    use asynciter_opt::traits::Operator;

    fn jacobi(n: usize) -> JacobiOperator {
        JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
    }

    /// `steps` outer iterations of `backend` on `op` from zero, under
    /// block round-robin over `p` blocks with label lag `lag`.
    fn session(
        op: &JacobiOperator,
        (p, lag): (usize, u64),
        steps: u64,
        backend: Flexible,
    ) -> Session<'_> {
        let blocks = Partition::blocks(op.dim(), p).unwrap();
        Session::new(op)
            .steps(steps)
            .schedule(BlockRoundRobin::new(blocks, lag))
            .backend(backend)
    }

    fn with_m(m: usize) -> Flexible {
        Flexible {
            m,
            ..Flexible::default()
        }
    }

    #[test]
    fn converges_with_partials() {
        let op = jacobi(12);
        let xstar = op.solve_dense_spd().unwrap();
        let res = session(&op, (3, 4), 3000, with_m(4))
            .xstar(xstar.clone())
            .error_every(100)
            .run()
            .unwrap();
        assert!(vecops::max_abs_diff(&res.final_x, &xstar) < 1e-10);
        assert!(res.partial_reads > 0, "no partials were consumed");
        assert!(res.partial_publishes > 0);
    }

    #[test]
    fn constraint_three_holds_under_contraction() {
        // With a contraction and monotone error decay, published partials
        // are never worse than the stale labelled reads they replace.
        let op = jacobi(10);
        let xstar = op.solve_dense_spd().unwrap();
        let backend = Flexible {
            publish_period: Some(2),
            ..with_m(6)
        };
        let res = session(&op, (5, 6), 5000, backend)
            .xstar(xstar)
            .run()
            .unwrap();
        assert!(res.constraint_checked > 100);
        let rate = res.constraint_violations as f64 / res.constraint_checked as f64;
        assert!(rate < 0.01, "violation rate {rate}");
    }

    #[test]
    fn enforcement_yields_zero_effective_violations() {
        let op = jacobi(10);
        let xstar = op.solve_dense_spd().unwrap();
        let backend = Flexible {
            publish_period: Some(1),
            enforce_constraint: true,
            ..with_m(6)
        };
        let res = session(&op, (5, 8), 2000, backend)
            .xstar(xstar.clone())
            .run()
            .unwrap();
        // Enforcement falls back on violations, so convergence holds and
        // the run is a certified Definition-3 iteration.
        assert!(vecops::max_abs_diff(&res.final_x, &xstar) < 1e-10);
    }

    #[test]
    fn more_inner_steps_converge_in_fewer_outer_steps() {
        let op = jacobi(12);
        let xstar = op.solve_dense_spd().unwrap();
        let err_after = |m: usize| {
            // Short run so neither variant hits the f64 precision floor.
            let res = session(&op, (3, 4), 45, with_m(m))
                .xstar(xstar.clone())
                .run()
                .unwrap();
            vecops::max_abs_diff(&res.final_x, &xstar)
        };
        let e1 = err_after(1);
        let e4 = err_after(4);
        assert!(e4 < e1, "m=4 error {e4} not better than m=1 error {e1}");
    }

    #[test]
    fn partials_help_under_stale_labels() {
        // With very stale labels, consuming fresh partials must not hurt
        // (and generally helps). Compare partial_prob 1.0 vs 0.0.
        let op = jacobi(12);
        let xstar = op.solve_dense_spd().unwrap();
        let err_with_prob = |q: f64| {
            let backend = Flexible {
                publish_period: Some(2),
                partial_prob: q,
                ..with_m(6)
            };
            let res = session(&op, (4, 12), 400, backend)
                .xstar(xstar.clone())
                .run()
                .unwrap();
            vecops::max_abs_diff(&res.final_x, &xstar)
        };
        let with_partials = err_with_prob(1.0);
        let without = err_with_prob(0.0);
        assert!(
            with_partials <= without * 1.01,
            "partials hurt: {with_partials} vs {without}"
        );
    }

    #[test]
    fn config_validation() {
        let op = jacobi(4);
        assert!(session(&op, (2, 1), 0, with_m(2)).run().is_err());
        assert!(session(&op, (2, 1), 10, with_m(0)).run().is_err());
        let bad = Flexible {
            partial_prob: 1.5,
            ..with_m(2)
        };
        assert!(session(&op, (2, 1), 10, bad).run().is_err());
        // error_every without xstar.
        assert!(session(&op, (2, 1), 10, with_m(2))
            .error_every(1)
            .run()
            .is_err());
        // Wrong norm dimension.
        let bad = Flexible {
            norm: Some(WeightedMaxNorm::uniform(5)),
            ..with_m(2)
        };
        assert!(session(&op, (2, 1), 10, bad).run().is_err());
    }

    #[test]
    fn a_label_at_or_after_its_step_is_a_typed_schedule_error() {
        // `trace_io`'s condition-(a) roundtrip trace: step 2 reads label 5.
        let mut t = Trace::new(2, LabelStore::Full);
        t.push_step(&[0], &[0, 0]);
        t.push_step(&[1], &[5, 0]);
        let op = jacobi(2);
        let backends: [Box<dyn Backend>; 2] = [Box::new(Replay), Box::new(with_m(2))];
        for backend in backends {
            let name = backend.name();
            let err = Session::new(&op)
                .replay_trace(t.clone())
                .unwrap()
                .backend(backend)
                .run()
                .unwrap_err();
            match err {
                CoreError::InvalidParameter {
                    name: "schedule",
                    message,
                } => assert_eq!(
                    message,
                    "step 2: component 0 reads label 5 — condition (a) needs l_h(j) <= j - 1",
                    "{name}"
                ),
                other => panic!("{name}: expected the schedule error, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_label_below_the_promised_floor_is_a_typed_schedule_error() {
        // Promises that nothing older than `j − 1` is read again, then
        // has component 1 read label 0 at every step.
        struct Lies;
        impl ScheduleGen for Lies {
            fn n(&self) -> usize {
                2
            }
            fn step(&mut self, j: u64, buf: &mut StepBuf) {
                buf.active.clear();
                buf.active.push(0);
                buf.labels.clear();
                buf.labels.extend([j - 1, 0]);
            }
            fn label_floor(&self, j: u64) -> u64 {
                j - 1
            }
        }
        let op = jacobi(2);
        let backends: [Box<dyn Backend>; 2] = [Box::new(Replay), Box::new(with_m(2))];
        for backend in backends {
            let name = backend.name();
            let err = Session::new(&op)
                .steps(10)
                .schedule(Lies)
                .backend(backend)
                .run()
                .unwrap_err();
            match err {
                CoreError::InvalidParameter {
                    name: "schedule",
                    message,
                } => assert_eq!(
                    message,
                    "step 2: component 1 reads label 0 below the schedule's promised label floor 1",
                    "{name}"
                ),
                other => panic!("{name}: expected the schedule error, got {other:?}"),
            }
        }
    }

    #[test]
    fn publish_period_beyond_m_means_no_partials() {
        let op = jacobi(8);
        let backend = Flexible {
            publish_period: Some(10),
            ..with_m(3)
        };
        let res = session(&op, (2, 2), 200, backend).run().unwrap();
        assert_eq!(res.partial_publishes, 0);
        // No partials exist, so no reads can upgrade: the run degenerates
        // to the standard asynchronous iteration.
        assert_eq!(res.partial_reads, 0);
    }
}
