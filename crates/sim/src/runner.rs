//! The discrete-event simulation loop.
//!
//! Each processor owns a block of components and keeps a *local copy* of
//! the whole iterate (its knowledge of the others). An updating phase:
//!
//! 1. captures the local copy at its **start** (the phase's input — this
//!    is where staleness enters),
//! 2. runs `inner_steps` iterations of the operator on the owned block
//!    (off-block frozen), rejecting a non-finite iterate before anything
//!    of the phase can leave the processor,
//! 3. optionally sends `partial_sends` intermediate block values at
//!    evenly spaced times inside the phase (flexible communication,
//!    Fig. 2's hatched arrows),
//! 4. at its **end** is assigned the next global iteration number `j`
//!    (completion order = the iteration order of Definition 1), writes
//!    its block into the global iterate `x(j)`, and sends the final
//!    values to every peer (Fig. 1's arrows), each arrival delayed by
//!    the latency model.
//!
//! Message arrivals update the receiver's local copy (keep-freshest by
//! sender phase) and its per-component *global-label* bookkeeping: the
//! labels a phase read at its start, which provably satisfy condition
//! (a) — they come from completions strictly before its own `j`. Each
//! phase end is one step told to the `asynciter-core`
//! [`Observer`], which streams Definition 2 over those labels, keeps the
//! trace when asked, samples, and evaluates the stopping rule: the run
//! ends at the phase that fires it exactly as it ends at its budget.
//!
//! [`Sim`](crate::session::Sim) is the one door into this loop.

use crate::compute::{ComputeModel, LatencyModel};
use crate::timeline::{Comm, CommKind, Phase, Timeline};
use asynciter_core::observer::Observer;
use asynciter_core::session::{Problem, RunControl, RunReport};
use asynciter_core::CoreError;
use asynciter_models::partition::Partition;
use asynciter_opt::traits::Operator;
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The simulated machine: who owns what, how long phases and messages
/// take, and how a phase communicates. How long to run, what to sample,
/// when to stop and what to keep are the session's `RunControl`.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Component → processor assignment.
    pub partition: Partition,
    /// Per-processor compute-time models.
    pub compute: Vec<ComputeModel>,
    /// Link latency model (shared by all links; latencies are drawn
    /// independently per message).
    pub latency: LatencyModel,
    /// Inner iterations per phase (`m ≥ 1`).
    pub inner_steps: usize,
    /// Number of mid-phase partial sends (0 = classic asynchronous).
    pub partial_sends: usize,
    /// RNG seed of the compute and latency draws: the default that a
    /// session seed (`Session::seed`) overrides, so a canned scenario
    /// carries its own.
    pub seed: u64,
}

impl SimConfig {
    /// True when no value leaves a processor mid-phase, so each phase is
    /// arithmetically `inner_steps` inner iterations of one scheduled
    /// step: the recorded trace, replayed through
    /// `Flexible { m: inner_steps, partial: false }` — the `Replay`
    /// engine when `inner_steps == 1` — must reproduce the simulated
    /// iterates *bit for bit*. The conformance fuzzer's cross-backend
    /// oracle only injects traces from configurations satisfying this
    /// predicate; mid-phase partials have no scheduled-step replay form.
    pub fn replay_equivalent(&self) -> bool {
        self.partial_sends == 0
    }

    /// A plain configuration with fixed unit compute times and unit
    /// latency.
    pub fn uniform(partition: Partition) -> Self {
        let p = partition.num_machines();
        Self {
            partition,
            compute: vec![ComputeModel::Fixed { ticks: 1 }; p],
            latency: LatencyModel::Fixed { ticks: 1 },
            inner_steps: 1,
            partial_sends: 0,
            seed: 0,
        }
    }

    /// Checks the configuration against a problem of dimension `n`,
    /// once, before the event loop.
    fn check(&self, n: usize) -> asynciter_core::Result<()> {
        let procs = self.partition.num_machines();
        for (expected, actual, context) in [
            (n, self.partition.n(), "Sim (partition)"),
            (procs, self.compute.len(), "Sim (compute models)"),
        ] {
            if actual != expected {
                return Err(CoreError::DimensionMismatch {
                    expected,
                    actual,
                    context,
                });
            }
        }
        let invalid = |name, message| CoreError::InvalidParameter { name, message };
        if self.inner_steps == 0 {
            return Err(invalid("inner_steps", "must be positive".into()));
        }
        for model in &self.compute {
            model.validate().map_err(|m| invalid("compute", m))?;
        }
        self.latency.validate().map_err(|m| invalid("latency", m))
    }
}

/// The backend's name in reports and error messages.
pub(crate) const NAME: &str = "sim";

#[derive(Debug)]
enum Event {
    /// Phase of processor `p` completes.
    PhaseEnd { p: usize },
    /// A message with block values arrives at `to`.
    MsgArrive {
        to: usize,
        comps: Vec<(u32, f64)>,
        sender_phase: u64,
        global_label: u64,
    },
}

/// In-flight phase bookkeeping.
struct InFlight {
    start: u64,
    end: u64,
    read_labels: Vec<u64>,
    final_values: Vec<f64>,
}

/// The state of one simulation: processors, event queue, timeline, the
/// global iterate and the reusable phase-compute buffers.
struct Run<'a> {
    op: &'a dyn Operator,
    cfg: &'a SimConfig,
    rng: StdRng,
    blocks: Vec<Vec<usize>>,
    /// The iterate `x(j)`: every owner's last completed block.
    x: Vec<f64>,
    /// Completed global iterations `j`.
    completed: u64,
    // Per-processor state.
    local: Vec<Vec<f64>>,
    known_label: Vec<Vec<u64>>,
    /// Freshest sender phase applied per (proc, component), for
    /// keep-freshest message application.
    known_phase: Vec<Vec<u64>>,
    phase_count: Vec<u64>,
    last_completed_j: Vec<u64>,
    in_flight: Vec<Option<InFlight>>,
    /// Pending events by `(time, index into events)`: the index breaks
    /// ties in scheduling order.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    events: Vec<Option<Event>>,
    timeline: Timeline,
    // Phase input copy, block output and operator scratch, so the
    // compute section allocates only what a phase must own (its
    // recorded read labels and the values it sends).
    w: Vec<f64>,
    upd: Vec<f64>,
    scratch: Vec<f64>,
}

impl<'a> Run<'a> {
    fn new(cfg: &'a SimConfig, problem: &'a Problem<'_>, seed: u64) -> Self {
        let (op, n) = (problem.op, problem.n());
        let procs = cfg.partition.num_machines();
        Self {
            op,
            cfg,
            rng: asynciter_numerics::rng::rng(seed),
            blocks: (0..procs).map(|p| cfg.partition.components_of(p)).collect(),
            x: problem.x0.clone(),
            completed: 0,
            local: vec![problem.x0.clone(); procs],
            known_label: vec![vec![0; n]; procs],
            known_phase: vec![vec![0; n]; procs],
            phase_count: vec![0; procs],
            last_completed_j: vec![0; procs],
            in_flight: (0..procs).map(|_| None).collect(),
            heap: BinaryHeap::new(),
            events: Vec::new(),
            timeline: Timeline::new(procs),
            w: vec![0.0; n],
            upd: vec![0.0; n],
            scratch: vec![0.0; op.scratch_len()],
        }
    }

    fn push(&mut self, t: u64, e: Event) {
        self.events.push(Some(e));
        self.heap.push(Reverse((t, self.events.len() - 1)));
    }

    /// Sends `values` of `p`'s block to every peer at `send_t`, drawing
    /// one latency per destination in destination order.
    fn broadcast(&mut self, p: usize, send_t: u64, values: &[f64], label: u64, kind: CommKind) {
        let sender_phase = self.phase_count[p];
        for to in (0..self.blocks.len()).filter(|&to| to != p) {
            let recv_t = send_t + self.cfg.latency.latency(&mut self.rng);
            self.timeline.comms.push(Comm {
                from: p,
                to,
                send_t,
                recv_t,
                sender_phase,
                kind,
            });
            let comps = self.blocks[p].iter().map(|&i| i as u32);
            let e = Event::MsgArrive {
                to,
                comps: comps.zip(values.iter().copied()).collect(),
                sender_phase,
                global_label: label,
            };
            self.push(recv_t, e);
        }
    }

    /// Schedules the next phase of processor `p` starting at `t`: draws
    /// its duration, computes it from the local copy *now* (stale for
    /// everything updated later) and sends its partials.
    fn schedule_phase(&mut self, p: usize, t: u64) -> asynciter_core::Result<()> {
        self.phase_count[p] += 1;
        let k = self.phase_count[p];
        let dur = self.cfg.compute[p].duration(k, &mut self.rng);
        self.w.copy_from_slice(&self.local[p]);
        let read_labels = self.known_label[p].clone();
        // Inner iterations on the owned block. With mid-phase sends the
        // intermediate (partial) values after each one are kept; the
        // last stage is the phase's final values either way.
        let (m, block) = (self.cfg.inner_steps, &self.blocks[p]);
        let mut stages: Vec<Vec<f64>> = Vec::new();
        for r in 1..=m {
            self.op
                .update_active_with(&self.w, block, &mut self.upd, &mut self.scratch);
            for &i in block {
                if !self.upd[i].is_finite() {
                    return Err(CoreError::NonFiniteIterate {
                        at_step: self.completed + 1,
                        component: i,
                    });
                }
                self.w[i] = self.upd[i];
            }
            if self.cfg.partial_sends > 0 || r == m {
                stages.push(block.iter().map(|&i| self.w[i]).collect());
            }
        }
        let final_values = stages.pop().expect("inner_steps >= 1");
        // Mid-phase partial sends at evenly spaced interior times,
        // carrying the freshest intermediate available then. Partials
        // are at least as fresh as the sender's last completed iteration.
        let sends = self.cfg.partial_sends.min(stages.len());
        for s in 1..=sends {
            let send_t = t + dur * s as u64 / (sends as u64 + 1);
            let stage = ((stages.len() * s).div_ceil(sends + 1)).min(stages.len() - 1);
            let label = self.last_completed_j[p];
            self.broadcast(p, send_t, &stages[stage], label, CommKind::Partial);
        }
        self.in_flight[p] = Some(InFlight {
            start: t,
            end: t + dur,
            read_labels,
            final_values,
        });
        self.push(t + dur, Event::PhaseEnd { p });
        Ok(())
    }

    /// Applies an arrived message to `to`'s local copy. Keep-freshest by
    /// sender phase (single owner per component ⇒ phases order that
    /// component's values); equal phases accept (later partials of the
    /// same phase are fresher).
    fn arrive(&mut self, to: usize, comps: &[(u32, f64)], sender_phase: u64, global_label: u64) {
        for &(c, v) in comps {
            let c = c as usize;
            if sender_phase >= self.known_phase[to][c] {
                self.known_phase[to][c] = sender_phase;
                self.local[to][c] = v;
                self.known_label[to][c] = self.known_label[to][c].max(global_label);
            }
        }
    }

    /// Completes the phase of `p`: assigns it the next iteration number,
    /// writes its block into `x(j)` and `p`'s own copy, and sends the
    /// final values to all peers. Returns the phase.
    fn end_phase(&mut self, p: usize) -> InFlight {
        let fl = self.in_flight[p].take().expect("phase in flight");
        self.completed += 1;
        let j = self.completed;
        self.last_completed_j[p] = j;
        for (&i, &v) in self.blocks[p].iter().zip(&fl.final_values) {
            self.x[i] = v;
            self.local[p][i] = v;
            self.known_label[p][i] = j;
            self.known_phase[p][i] = self.phase_count[p];
        }
        self.timeline.phases.push(Phase {
            proc: p,
            start: fl.start,
            end: fl.end,
            j,
        });
        // Condition (a) by construction: reads predate j.
        debug_assert!(fl.read_labels.iter().all(|&l| l < j));
        self.broadcast(p, fl.end, &fl.final_values, j, CommKind::Full);
        fl
    }
}

/// Checks the controls and `cfg` against `problem`, then runs the
/// simulation to the budget or the stopping rule.
pub(crate) fn run(
    cfg: &SimConfig,
    problem: &Problem<'_>,
    ctl: &RunControl<'_>,
) -> asynciter_core::Result<(RunReport, Timeline)> {
    ctl.check(problem)?;
    cfg.check(problem.n())?;
    let start = std::time::Instant::now();
    let mut run = Run::new(cfg, problem, ctl.seed.unwrap_or(cfg.seed));
    let mut observer = Observer::new(problem, ctl);
    let procs = run.blocks.len();
    for p in 0..procs {
        run.schedule_phase(p, 0)?;
    }
    let mut now = 0;
    while let Some(Reverse((t, idx))) = run.heap.pop() {
        now = t;
        match run.events[idx].take().expect("event consumed once") {
            Event::MsgArrive {
                to,
                comps,
                sender_phase,
                global_label,
            } => run.arrive(to, &comps, sender_phase, global_label),
            Event::PhaseEnd { p } => {
                let fl = run.end_phase(p);
                let (j, block) = (run.completed, &run.blocks[p]);
                if observer.step(j, block, &fl.read_labels, &run.x, &mut run.scratch)
                    || j == ctl.max_steps
                {
                    break;
                }
                run.schedule_phase(p, fl.end)?;
            }
        }
    }

    // Phases still in flight at the end never received an iteration
    // number and are absent from `timeline.phases`; drop their
    // already-scheduled partial communications so the timeline stays
    // self-consistent.
    let mut timeline = run.timeline;
    let completed: Vec<u64> = (0..procs)
        .map(|p| run.phase_count[p] - u64::from(run.in_flight[p].is_some()))
        .collect();
    timeline
        .comms
        .retain(|c| c.sender_phase <= completed[c.from]);

    let mut report = RunReport {
        per_worker_updates: completed,
        partial_publishes: timeline.partial_count() as u64,
        sim_time: Some(now),
        wall: start.elapsed(),
        ..RunReport::new(NAME, run.x, 0, f64::NAN)
    };
    observer.finish(&mut report);
    let end_of = |&(j, _): &(u64, f64)| timeline.phases[j as usize - 1].end;
    report.error_times = report.errors.iter().map(end_of).collect();
    Ok((report, timeline))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::session::Sim;
    use asynciter_core::session::RecordMode;
    use asynciter_models::conditions::check_condition_a;
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_opt::linear::JacobiOperator;

    fn jacobi(n: usize) -> JacobiOperator {
        JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
    }

    fn base_cfg(n: usize, procs: usize) -> SimConfig {
        SimConfig::uniform(Partition::blocks(n, procs).unwrap())
    }

    /// `steps` global iterations of `cfg` from `x0` through the one
    /// door, fully recorded, sampling the error every `error_every`
    /// steps when `xstar` is given.
    pub(crate) fn simulate(
        op: &dyn Operator,
        x0: &[f64],
        cfg: &SimConfig,
        steps: u64,
        (xstar, error_every): (Option<&[f64]>, u64),
    ) -> asynciter_core::Result<(RunReport, Timeline)> {
        let problem = Problem {
            op,
            x0: x0.to_vec(),
            xstar: xstar.map(<[f64]>::to_vec),
        };
        let mut ctl = RunControl {
            max_steps: steps,
            error_every,
            residual_every: 0,
            stopping: None,
            record: RecordMode::Full,
            seed: None,
            schedule: None,
        };
        Sim(cfg.clone()).run_with_timeline(&problem, &mut ctl)
    }

    #[test]
    fn deterministic_runs() {
        let op = jacobi(8);
        let cfg = {
            let mut c = base_cfg(8, 2);
            c.compute = vec![
                ComputeModel::Uniform { lo: 1, hi: 5 },
                ComputeModel::Uniform { lo: 2, hi: 9 },
            ];
            c.latency = LatencyModel::Jitter { lo: 0, hi: 7 };
            c.seed = 42;
            c
        };
        let (a, ta) = simulate(&op, &[0.0; 8], &cfg, 100, (None, 0)).unwrap();
        let (b, tb) = simulate(&op, &[0.0; 8], &cfg, 100, (None, 0)).unwrap();
        assert_eq!(a.final_x, b.final_x);
        assert_eq!(ta.phases, tb.phases);
        assert_eq!(a.sim_time, b.sim_time);
    }

    #[test]
    fn timeline_is_valid_and_trace_satisfies_condition_a() {
        let op = jacobi(12);
        let mut cfg = base_cfg(12, 3);
        cfg.compute = vec![
            ComputeModel::Fixed { ticks: 2 },
            ComputeModel::Uniform { lo: 1, hi: 6 },
            ComputeModel::HeavyTail {
                scale: 1,
                alpha: 1.5,
            },
        ];
        cfg.latency = LatencyModel::Jitter { lo: 0, hi: 10 };
        cfg.seed = 7;
        let (res, timeline) = simulate(&op, &[0.0; 12], &cfg, 300, (None, 0)).unwrap();
        timeline.validate().expect("valid timeline");
        let trace = res.trace.expect("RecordMode::Full");
        check_condition_a(&trace).expect("condition (a)");
        assert_eq!(trace.len(), 300);
    }

    #[test]
    fn converges_to_fixed_point() {
        let op = jacobi(12);
        let xstar = op.solve_dense_spd().unwrap();
        let mut cfg = base_cfg(12, 3);
        cfg.latency = LatencyModel::Jitter { lo: 0, hi: 4 };
        cfg.seed = 3;
        let (res, _) = simulate(&op, &[0.0; 12], &cfg, 2000, (Some(&xstar), 0)).unwrap();
        assert!(
            res.final_error(&xstar) < 1e-9,
            "error {}",
            res.final_error(&xstar)
        );
    }

    #[test]
    fn partial_sends_appear_in_timeline() {
        let op = jacobi(8);
        let mut cfg = base_cfg(8, 2);
        cfg.inner_steps = 4;
        cfg.partial_sends = 2;
        cfg.compute = vec![ComputeModel::Fixed { ticks: 8 }; 2];
        let (res, timeline) = simulate(&op, &[0.0; 8], &cfg, 50, (None, 0)).unwrap();
        assert!(timeline.partial_count() > 0);
        assert_eq!(res.partial_publishes, timeline.partial_count() as u64);
        timeline.validate().unwrap();
        // Partials are sent strictly inside phases.
        for c in &timeline.comms {
            if c.kind == CommKind::Partial {
                let phase = timeline
                    .phases
                    .iter()
                    .find(|p| p.proc == c.from && p.start < c.send_t && c.send_t < p.end);
                assert!(
                    phase.is_some(),
                    "partial send at {} not inside any phase of {}",
                    c.send_t,
                    c.from
                );
            }
        }
    }

    #[test]
    fn heterogeneous_speeds_skew_phase_counts() {
        let op = jacobi(8);
        let mut cfg = base_cfg(8, 2);
        cfg.compute = vec![
            ComputeModel::Fixed { ticks: 1 },
            ComputeModel::Fixed { ticks: 10 },
        ];
        let (res, timeline) = simulate(&op, &[0.0; 8], &cfg, 300, (None, 0)).unwrap();
        let fast = timeline.phases_of(0).len();
        let slow = timeline.phases_of(1).len();
        assert!(fast > 5 * slow, "expected ~10x skew, got {fast} vs {slow}");
        assert_eq!(res.per_worker_updates, [fast as u64, slow as u64]);
    }

    #[test]
    fn errors_recorded_when_requested() {
        let op = jacobi(8);
        let xstar = op.solve_dense_spd().unwrap();
        let cfg = base_cfg(8, 2);
        let (res, _) = simulate(&op, &[0.0; 8], &cfg, 200, (Some(&xstar), 20)).unwrap();
        assert_eq!(res.errors.len(), 10);
        assert!(res.errors.first().unwrap().1 >= res.errors.last().unwrap().1);
        assert_eq!(res.error_times.len(), 10);
        assert!(res.error_times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn validation_errors() {
        let op = jacobi(8);
        let kind = |x0: &[f64], cfg: &SimConfig, steps, error_every| match simulate(
            &op,
            x0,
            cfg,
            steps,
            (None, error_every),
        ) {
            Err(CoreError::DimensionMismatch { context, .. }) => context,
            Err(CoreError::InvalidParameter { name, .. }) => name,
            other => panic!("expected a typed rejection, got {other:?}"),
        };
        let cfg = base_cfg(8, 2);
        let mut short = cfg.clone();
        short.compute.pop();
        assert_eq!(kind(&[0.0; 8], &short, 10, 0), "Sim (compute models)");
        assert_eq!(kind(&[0.0; 8], &cfg, 0, 0), "max_steps");
        assert_eq!(kind(&[0.0; 8], &cfg, 10, 5), "error_every");
        assert_eq!(kind(&[0.0; 7], &cfg, 10, 0), "Session (x0)");
        assert_eq!(kind(&[0.0; 8], &base_cfg(6, 2), 10, 0), "Sim (partition)");
        let mut idle = cfg.clone();
        idle.inner_steps = 0;
        assert_eq!(kind(&[0.0; 8], &idle, 10, 0), "inner_steps");
    }
}
