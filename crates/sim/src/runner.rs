//! The discrete-event simulation loop.
//!
//! The machine is a [`Sim`]: one processor per compute model, processor
//! `p` owning the `p`-th of as many contiguous component blocks, as on
//! every runtime backend. Every draw — phase durations and link
//! latencies — comes from one stream seeded by the session
//! (`RunControl::seed`). Each processor is a [`Worker`]: it owns its
//! block and a labelled *local view* of the whole iterate (its knowledge
//! of the others). An updating phase:
//!
//! 1. records the view's labels at its **start** (the phase's input —
//!    this is where staleness enters),
//! 2. runs `inner_steps` [`Worker::produce`] calls on the owned block
//!    (off-block frozen); a non-finite inner iterate fails the run,
//! 3. optionally sends `partial_sends < inner_steps` intermediate block
//!    values at evenly spaced times inside the phase (flexible
//!    communication, Fig. 2's hatched arrows), each a [`Worker::post`]
//!    right after the inner iteration it carries,
//! 4. at its **end** is assigned the next global iteration number `j`
//!    (completion order = the iteration order of Definition 1),
//!    [stamps](Worker::stamp) its block with `j`, writes it into the
//!    global iterate `x(j)`, and sends the final values to every peer
//!    (Fig. 1's arrows), each arrival delayed by the latency model.
//!
//! Phase ends and message arrivals wait in one [`EventQueue`] — earliest
//! tick first, equal ticks in scheduling order — and each message's
//! latency is a [`LinkModel`](asynciter_models::channel::LinkModel)
//! draw: the channel model `Cluster` delivers its mail with. Simulated
//! time saturates at `u64::MAX`, a tick that never comes: a heavy-tailed
//! draw that would pass it is a phase that never ends or a message that
//! never arrives, which the queue never schedules, never an overflow.
//!
//! Every buffer a phase needs is per processor and allocated at set-up;
//! what a step allocates is one payload per message sent.
//!
//! Message arrivals go through [`Worker::receive`]; the labels a phase
//! reads provably satisfy condition (a): they come from completions
//! strictly before its own `j`. A receiver keeps the freshest value it
//! has heard: a message carries its sender's whole block, ordered by
//! `(sender phase, stage)`, a phase's final values being its last stage,
//! so one that arrives after a fresher one from the same sender (a
//! partial after a later partial or its own phase's final) is dropped
//! whole. Each phase end is one step told to the `asynciter-core`
//! [`Observer`], which streams Definition 2 over those labels, keeps the
//! trace when asked, samples, and evaluates the stopping rule: the run
//! ends at the phase that fires it exactly as it ends at its budget.
//!
//! [`Sim`] is the one door into this loop.

use crate::session::Sim;
use crate::timeline::{Comm, CommKind, Phase, Timeline};
use asynciter_core::observer::Observer;
use asynciter_core::session::{Problem, RunControl, RunReport};
use asynciter_core::{CoreError, Result};
use asynciter_models::channel::EventQueue;
use asynciter_models::partition::Partition;
use asynciter_opt::traits::Operator;
use asynciter_runtime::{ApplyPolicy, BlockMessage, Worker};
use rand::rngs::StdRng;

/// The backend's name in reports and error messages.
pub(crate) const NAME: &str = "sim";

#[derive(Debug)]
enum Event {
    /// Phase of processor `p` completes.
    PhaseEnd { p: usize },
    /// `msg`, its sender's block, arrives at `to`.
    MsgArrive {
        to: usize,
        msg: BlockMessage,
        /// `(sender phase, stage)`: the values' freshness.
        fresh: (u64, usize),
    },
}

/// The state of one simulation: processors, event queue, timeline, the
/// global iterate and the phase bookkeeping, all allocated at set-up.
struct Run<'a> {
    op: &'a dyn Operator,
    sim: &'a Sim,
    rng: StdRng,
    /// One shard owner per processor: block, view and label book.
    workers: Vec<Worker>,
    /// The iterate `x(j)`: every owner's last completed block.
    x: Vec<f64>,
    /// Completed global iterations `j`.
    completed: u64,
    /// Freshest `(sender phase, stage)` each processor applied per sender.
    heard: Vec<Vec<(u64, usize)>>,
    phase_count: Vec<u64>,
    last_completed_j: Vec<u64>,
    /// `(start, end)` of each processor's phase in flight.
    in_flight: Vec<Option<(u64, u64)>>,
    /// The labels each processor's phase in flight read at its start.
    read_labels: Vec<Vec<u64>>,
    queue: EventQueue<Event>,
    timeline: Timeline,
}

impl<'a> Run<'a> {
    fn new(
        sim: &'a Sim,
        partition: &Partition,
        problem: &'a Problem<'_>,
        seed: u64,
    ) -> Result<Self> {
        let (op, n) = (problem.op, problem.n());
        let procs = partition.num_machines();
        // Whole blocks, due after every `produce`; `heard` keeps the freshest.
        let policy = ApplyPolicy::AsReceived;
        let workers = Worker::mesh(op, &problem.x0, partition, policy, 1, 0.0)?;
        Ok(Self {
            op,
            sim,
            rng: asynciter_numerics::rng::rng(seed),
            workers,
            x: problem.x0.clone(),
            completed: 0,
            heard: vec![vec![(0, 0); procs]; procs],
            phase_count: vec![0; procs],
            last_completed_j: vec![0; procs],
            in_flight: vec![None; procs],
            read_labels: vec![vec![0; n]; procs],
            queue: EventQueue::default(),
            timeline: Timeline::new(procs),
        })
    }

    /// Posts `p`'s block as stage `stage` of its phase to every peer at
    /// `send_t`, drawing one latency per destination in destination
    /// order. Peers before the last get a copy.
    fn broadcast(&mut self, p: usize, send_t: u64, stage: usize, kind: CommKind) {
        let sender_phase = self.phase_count[p];
        let mut spare = self.workers[p].post(&mut self.rng);
        let mut peers = self.workers[p].peers().peekable();
        while let Some(to) = peers.next() {
            let recv_t = send_t.saturating_add(self.sim.link.sample(&mut self.rng));
            self.timeline.comms.push(Comm {
                from: p,
                to,
                send_t,
                recv_t,
                sender_phase,
                kind,
            });
            let msg = if peers.peek().is_some() {
                spare.clone()
            } else {
                spare.take()
            };
            let msg = msg.expect("a worker with peers posts every update");
            let fresh = (sender_phase, stage);
            self.queue.push(recv_t, Event::MsgArrive { to, msg, fresh });
        }
    }

    /// Schedules the next phase of processor `p` starting at `t`: draws
    /// its duration, computes it from the local view *now* (stale for
    /// everything updated later) and sends its partials.
    fn schedule_phase(&mut self, p: usize, t: u64) -> Result<()> {
        self.phase_count[p] += 1;
        let k = self.phase_count[p];
        let dur = self.sim.compute[p].duration(k, &mut self.rng);
        let end = t.saturating_add(dur);
        self.read_labels[p].copy_from_slice(self.workers[p].labels());
        // Mid-phase partial sends at evenly spaced interior times, each
        // carrying the freshest inner iteration available then, posted
        // right after it. The block keeps the sender's last completed
        // iteration as its label until the phase ends.
        let (m, label) = (self.sim.inner_steps, self.last_completed_j[p]);
        let (interior, sends) = (m - 1, self.sim.partial_sends);
        let stage = |s: usize| ((interior * s).div_ceil(sends + 1)).min(interior - 1);
        let mut s = 1;
        for r in 0..m {
            // A non-finite inner iterate fails the step this phase would
            // have been numbered when it ended.
            let mut produced = self.workers[p].produce(self.op, label);
            if let Err(CoreError::NonFiniteIterate { at_step, .. }) = &mut produced {
                *at_step = self.completed + 1;
            }
            produced?;
            while s <= sends && stage(s) == r {
                let offset = u128::from(dur) * s as u128 / (sends as u128 + 1);
                self.broadcast(p, t.saturating_add(offset as u64), r, CommKind::Partial);
                s += 1;
            }
        }
        self.in_flight[p] = Some((t, end));
        self.queue.push(end, Event::PhaseEnd { p });
        Ok(())
    }

    /// Applies `msg` at `to` unless `to` applied a fresher one from the
    /// same sender: one owner per component and whole blocks per message
    /// mean `(sender phase, stage)` orders all a sender sends, and labels
    /// never decrease, so applying the rest as received keeps the freshest.
    fn arrive(&mut self, to: usize, msg: &BlockMessage, fresh: (u64, usize)) {
        let heard = &mut self.heard[to][msg.from];
        if fresh >= *heard {
            *heard = fresh;
            self.workers[to].receive(msg);
        }
    }

    /// Completes the phase of `p`: assigns it the next iteration number,
    /// stamps its block with it, writes the block into `x(j)`, and sends
    /// the final values to all peers. Returns the phase's end. The view
    /// still holds the last inner iteration: arrivals skip own blocks.
    fn end_phase(&mut self, p: usize) -> u64 {
        let (start, end) = self.in_flight[p].take().expect("phase in flight");
        self.completed += 1;
        let j = self.completed;
        self.last_completed_j[p] = j;
        let worker = &mut self.workers[p];
        worker.stamp(j);
        for &i in worker.block() {
            self.x[i] = worker.view()[i];
        }
        self.timeline.phases.push(Phase {
            proc: p,
            start,
            end,
            j,
        });
        // Condition (a) by construction: reads predate j.
        debug_assert!(self.read_labels[p].iter().all(|&l| l < j));
        self.broadcast(p, end, self.sim.inner_steps - 1, CommKind::Full);
        end
    }
}

/// Checks the controls and `sim` against `problem`, then runs the
/// simulation to the budget or the stopping rule.
pub(crate) fn run(
    sim: &Sim,
    problem: &Problem<'_>,
    ctl: &RunControl<'_>,
) -> Result<(RunReport, Timeline)> {
    ctl.check(problem)?;
    let partition = sim.check(problem.n())?;
    let start = std::time::Instant::now();
    let mut run = Run::new(sim, &partition, problem, ctl.seed)?;
    let mut observer = Observer::new(problem, ctl);
    let mut scratch = vec![0.0; problem.op.scratch_len()];
    let procs = run.workers.len();
    for p in 0..procs {
        run.schedule_phase(p, 0)?;
    }
    let mut now = 0;
    while let Some((t, event)) = run.queue.pop() {
        now = t;
        match event {
            Event::MsgArrive { to, msg, fresh } => run.arrive(to, &msg, fresh),
            Event::PhaseEnd { p } => {
                let end = run.end_phase(p);
                let (j, block) = (run.completed, run.workers[p].block());
                let read = &run.read_labels[p];
                if observer.step(j, block, read, &run.x, &mut scratch) || j == ctl.max_steps {
                    break;
                }
                run.schedule_phase(p, end)?;
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
    use crate::compute::ComputeModel;
    use asynciter_core::compare::{same_run, Fields};
    use asynciter_core::session::RecordMode;
    use asynciter_models::channel::{LinkModel, NEVER};
    use asynciter_models::conditions::check_condition_a;
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_opt::linear::JacobiOperator;

    fn jacobi(n: usize) -> JacobiOperator {
        JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
    }

    /// `steps` global iterations of `sim` from `x0` under `seed` through
    /// the one door, fully recorded, sampling the error every
    /// `error_every` steps when `xstar` is given.
    pub(crate) fn simulate(
        op: &dyn Operator,
        x0: &[f64],
        sim: &Sim,
        (steps, seed): (u64, u64),
        (xstar, error_every): (Option<&[f64]>, u64),
    ) -> Result<(RunReport, Timeline)> {
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
            seed,
            schedule: None,
        };
        sim.run_with_timeline(&problem, &mut ctl)
    }

    #[test]
    fn deterministic_runs() {
        let op = jacobi(8);
        let sim = Sim {
            compute: vec![
                ComputeModel::Uniform { lo: 1, hi: 5 },
                ComputeModel::Uniform { lo: 2, hi: 9 },
            ],
            link: LinkModel::Jitter { lo: 0, hi: 7 },
            ..Sim::uniform(2)
        };
        let (a, ta) = simulate(&op, &[0.0; 8], &sim, (100, 42), (None, 0)).unwrap();
        let (b, tb) = simulate(&op, &[0.0; 8], &sim, (100, 42), (None, 0)).unwrap();
        assert_eq!(same_run(&a, &b, Fields::Computed), Ok(()));
        assert_eq!(ta.phases, tb.phases);
    }

    #[test]
    fn timeline_is_valid_and_trace_satisfies_condition_a() {
        let op = jacobi(12);
        let sim = Sim {
            compute: vec![
                ComputeModel::Fixed { ticks: 2 },
                ComputeModel::Uniform { lo: 1, hi: 6 },
                ComputeModel::HeavyTail {
                    scale: 1,
                    alpha: 1.5,
                },
            ],
            link: LinkModel::Jitter { lo: 0, hi: 10 },
            ..Sim::uniform(3)
        };
        let (res, timeline) = simulate(&op, &[0.0; 12], &sim, (300, 7), (None, 0)).unwrap();
        timeline.validate().expect("valid timeline");
        let trace = res.trace.expect("RecordMode::Full");
        check_condition_a(&trace).expect("condition (a)");
        assert_eq!(trace.len(), 300);
    }

    #[test]
    fn converges_to_fixed_point() {
        let op = jacobi(12);
        let xstar = op.solve_dense_spd().unwrap();
        let sim = Sim {
            link: LinkModel::Jitter { lo: 0, hi: 4 },
            ..Sim::uniform(3)
        };
        let (res, _) = simulate(&op, &[0.0; 12], &sim, (2000, 3), (Some(&xstar), 0)).unwrap();
        assert!(
            res.final_error(&xstar) < 1e-9,
            "error {}",
            res.final_error(&xstar)
        );
    }

    #[test]
    fn a_reordered_partial_never_overwrites_a_fresher_value() {
        // Processor 1 hears processor 0's block (components 0..4) out of
        // order. Phases run 3 inner steps, so stage 2 is a phase's final.
        let op = jacobi(8);
        let problem = Problem {
            op: &op,
            x0: vec![0.0; 8],
            xstar: None,
        };
        let sim = Sim {
            inner_steps: 3,
            partial_sends: 2,
            ..Sim::uniform(2)
        };
        let partition = sim.check(8).unwrap();
        let mut run = Run::new(&sim, &partition, &problem, 0).unwrap();
        let block = |v: f64, label: u64| BlockMessage {
            from: 0,
            comps: (0..4).map(|c| (c, v, label)).collect(),
            partial: false,
        };
        let heard = |run: &Run<'_>| (run.workers[1].view()[0], run.workers[1].labels()[0]);
        // The final of phase 2 (step 5), then a partial of phase 2 sent
        // before it, carrying the sender's last step, 3.
        run.arrive(1, &block(2.0, 5), (2, 2));
        run.arrive(1, &block(1.5, 3), (2, 1));
        assert_eq!(heard(&run), (2.0, 5), "F(k) then P_k");
        // Phase 3's second partial, then its first.
        run.arrive(1, &block(3.5, 5), (3, 1));
        run.arrive(1, &block(3.0, 5), (3, 0));
        assert_eq!(heard(&run), (3.5, 5), "P_k^2 then P_k^1");
        // A later phase's first partial is fresher than all of them.
        run.arrive(1, &block(4.0, 6), (4, 0));
        assert_eq!(heard(&run), (4.0, 6));
    }

    #[test]
    fn heavy_tail_draws_past_u64_max_never_happen() {
        // α = 0.1: about one draw in 80 is `u64::MAX` ticks by itself, so
        // `send_t + latency` and `t + dur` pass the end of time often.
        let op = jacobi(8);
        for (compute, link) in [
            (
                ComputeModel::Uniform { lo: 1, hi: 3 },
                LinkModel::HeavyTail {
                    scale: 1,
                    alpha: 0.1,
                },
            ),
            (
                ComputeModel::HeavyTail {
                    scale: 1,
                    alpha: 0.1,
                },
                LinkModel::Fixed { ticks: 1 },
            ),
        ] {
            let sim = Sim {
                compute: vec![compute; 2],
                link,
                inner_steps: 2,
                partial_sends: 1,
            };
            let (res, timeline) = simulate(&op, &[0.0; 8], &sim, (400, 0), (None, 0)).unwrap();
            timeline.validate().expect("valid timeline");
            check_condition_a(&res.trace.expect("RecordMode::Full")).expect("condition (a)");
            assert_eq!(timeline.phases.len() as u64, res.steps);
            // A phase or message due at the end of time never happened.
            assert!(timeline.phases.iter().all(|p| p.end < NEVER));
            assert!(res.sim_time.is_some_and(|t| t < NEVER));
        }
    }

    #[test]
    fn partial_sends_appear_in_timeline() {
        let op = jacobi(8);
        let sim = Sim {
            compute: vec![ComputeModel::Fixed { ticks: 8 }; 2],
            inner_steps: 4,
            partial_sends: 2,
            ..Sim::uniform(2)
        };
        let (res, timeline) = simulate(&op, &[0.0; 8], &sim, (50, 0), (None, 0)).unwrap();
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
        let sim = Sim {
            compute: vec![
                ComputeModel::Fixed { ticks: 1 },
                ComputeModel::Fixed { ticks: 10 },
            ],
            ..Sim::uniform(2)
        };
        let (res, timeline) = simulate(&op, &[0.0; 8], &sim, (300, 0), (None, 0)).unwrap();
        let fast = timeline.phases_of(0).len();
        let slow = timeline.phases_of(1).len();
        assert!(fast > 5 * slow, "expected ~10x skew, got {fast} vs {slow}");
        assert_eq!(res.per_worker_updates, [fast as u64, slow as u64]);
    }

    #[test]
    fn errors_recorded_when_requested() {
        let op = jacobi(8);
        let xstar = op.solve_dense_spd().unwrap();
        let sim = Sim::uniform(2);
        let (res, _) = simulate(&op, &[0.0; 8], &sim, (200, 0), (Some(&xstar), 20)).unwrap();
        assert_eq!(res.errors.len(), 10);
        assert!(res.errors.first().unwrap().1 >= res.errors.last().unwrap().1);
        assert_eq!(res.error_times.len(), 10);
        assert!(res.error_times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn validation_errors() {
        let op = jacobi(8);
        let kind = |x0: &[f64], sim: &Sim, steps, error_every| match simulate(
            &op,
            x0,
            sim,
            (steps, 0),
            (None, error_every),
        ) {
            Err(CoreError::DimensionMismatch { context, .. }) => context,
            Err(CoreError::InvalidParameter { name, .. }) => name,
            other => panic!("expected a typed rejection, got {other:?}"),
        };
        let sim = Sim::uniform(2);
        assert_eq!(kind(&[0.0; 8], &Sim::uniform(0), 10, 0), "compute");
        assert_eq!(kind(&[0.0; 8], &Sim::uniform(9), 10, 0), "compute");
        assert_eq!(kind(&[0.0; 8], &sim, 0, 0), "max_steps");
        assert_eq!(kind(&[0.0; 8], &sim, 10, 5), "error_every");
        assert_eq!(kind(&[0.0; 7], &sim, 10, 0), "Session (x0)");
        let idle = Sim {
            inner_steps: 0,
            ..sim.clone()
        };
        assert_eq!(kind(&[0.0; 8], &idle, 10, 0), "inner_steps");
        // One partial after each interior inner iteration at most.
        let crowded = Sim {
            inner_steps: 4,
            partial_sends: 4,
            ..sim
        };
        assert_eq!(kind(&[0.0; 8], &crowded, 10, 0), "partial_sends");
    }
}
