//! The simulator half of the cross-backend equivalence oracle: any trace
//! emitted by a [`SimConfig::replay_equivalent`] simulation, injected
//! back into the deterministic replay engine via
//! `Session::replay_trace`, reproduces the simulated iterates bit for
//! bit (with `inner_steps = m > 1`, into `Flexible { m, partial: false }`:
//! `tests/backend_equivalence.rs` at the root). The conformance fuzzer
//! checks this over many seeds; these tests pin the property (and its
//! boundary) at the sim crate level.

use asynciter_core::session::{RecordMode, Replay, Session};
use asynciter_models::partition::Partition;
use asynciter_numerics::sparse::tridiagonal;
use asynciter_opt::linear::JacobiOperator;
use asynciter_sim::compute::{ComputeModel, LatencyModel};
use asynciter_sim::runner::SimConfig;
use asynciter_sim::session::Sim;

fn jacobi(n: usize) -> JacobiOperator {
    JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
}

#[test]
fn replay_equivalent_predicate() {
    let mut cfg = SimConfig::uniform(Partition::blocks(8, 2).unwrap());
    assert!(cfg.replay_equivalent());
    // Inner iterations stay on the processor: still one scheduled step.
    cfg.inner_steps = 3;
    assert!(cfg.replay_equivalent());
    cfg.partial_sends = 1;
    assert!(!cfg.replay_equivalent());
}

#[test]
fn multi_proc_sim_trace_replays_bitwise() {
    let n = 12;
    let op = jacobi(n);
    for (procs, seed) in [(2usize, 1u64), (3, 7), (4, 42)] {
        let mut cfg = SimConfig::uniform(Partition::blocks(n, procs).unwrap());
        cfg.seed = seed;
        cfg.compute = vec![ComputeModel::Uniform { lo: 1, hi: 5 }; procs];
        cfg.latency = LatencyModel::Jitter { lo: 1, hi: 9 };
        assert!(cfg.replay_equivalent());
        let sim = Session::new(&op)
            .steps(300)
            .record(RecordMode::Full)
            .backend(Sim(cfg))
            .run()
            .unwrap();
        let replay = Session::new(&op)
            .replay_trace(sim.trace.clone().unwrap())
            .unwrap()
            .backend(Replay)
            .run()
            .unwrap();
        assert_eq!(
            sim.final_x, replay.final_x,
            "procs={procs} seed={seed}: sim and replay disagree"
        );
        assert_eq!(sim.steps, replay.steps);
    }
}

#[test]
fn heavy_tail_sim_trace_replays_bitwise() {
    let n = 10;
    let op = jacobi(n);
    let mut cfg = SimConfig::uniform(Partition::blocks(n, 2).unwrap());
    cfg.seed = 1234;
    cfg.compute = vec![
        ComputeModel::HeavyTail {
            scale: 1,
            alpha: 1.3,
        };
        2
    ];
    cfg.latency = LatencyModel::HeavyTail {
        scale: 1,
        alpha: 1.3,
    };
    let sim = Session::new(&op)
        .steps(400)
        .record(RecordMode::Full)
        .backend(Sim(cfg))
        .run()
        .unwrap();
    let replay = Session::new(&op)
        .replay_trace(sim.trace.clone().unwrap())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(sim.final_x, replay.final_x);
}
