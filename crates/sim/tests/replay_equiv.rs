//! The simulator half of the cross-backend equivalence oracle: any trace
//! emitted by a [`Sim::replay_equivalent`] simulation, injected
//! back into the deterministic replay engine via
//! `Session::replay_trace`, reproduces the simulated iterates bit for
//! bit (with `inner_steps = m > 1`, into `Flexible { m, partial: false }`:
//! `tests/backend_equivalence.rs` at the root). The conformance fuzzer
//! checks this over many seeds; these tests pin the property (and its
//! boundary) at the sim crate level.

use asynciter_core::compare::{same_run, Fields};
use asynciter_core::session::{RecordMode, Replay, Session};
use asynciter_models::channel::LinkModel;
use asynciter_numerics::sparse::tridiagonal;
use asynciter_opt::linear::JacobiOperator;
use asynciter_sim::compute::ComputeModel;
use asynciter_sim::session::Sim;

fn jacobi(n: usize) -> JacobiOperator {
    JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
}

#[test]
fn replay_equivalent_predicate() {
    let mut sim = Sim::uniform(2);
    assert!(sim.replay_equivalent());
    // Inner iterations stay on the processor: still one scheduled step.
    sim.inner_steps = 3;
    assert!(sim.replay_equivalent());
    sim.partial_sends = 1;
    assert!(!sim.replay_equivalent());
}

#[test]
fn multi_proc_sim_trace_replays_bitwise() {
    let n = 12;
    let op = jacobi(n);
    for (procs, seed) in [(2usize, 1u64), (3, 7), (4, 42)] {
        let machine = Sim {
            compute: vec![ComputeModel::Uniform { lo: 1, hi: 5 }; procs],
            link: LinkModel::Jitter { lo: 1, hi: 9 },
            ..Sim::uniform(procs)
        };
        assert!(machine.replay_equivalent());
        let sim = Session::new(&op)
            .steps(300)
            .seed(seed)
            .record(RecordMode::Full)
            .backend(machine)
            .run()
            .unwrap();
        let replay = Session::new(&op)
            .replay_trace(sim.trace.clone().unwrap())
            .unwrap()
            .backend(Replay)
            .run()
            .unwrap();
        let same = same_run(&sim, &replay, Fields::Definition1);
        assert_eq!(same, Ok(()), "procs={procs} seed={seed}");
    }
}

#[test]
fn heavy_tail_sim_trace_replays_bitwise() {
    let n = 10;
    let op = jacobi(n);
    let machine = Sim {
        compute: vec![
            ComputeModel::HeavyTail {
                scale: 1,
                alpha: 1.3,
            };
            2
        ],
        link: LinkModel::HeavyTail {
            scale: 1,
            alpha: 1.3,
        },
        ..Sim::uniform(2)
    };
    let sim = Session::new(&op)
        .steps(400)
        .seed(1234)
        .record(RecordMode::Full)
        .backend(machine)
        .run()
        .unwrap();
    let replay = Session::new(&op)
        .replay_trace(sim.trace.clone().unwrap())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(same_run(&sim, &replay, Fields::Definition1), Ok(()));
}
