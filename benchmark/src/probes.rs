//! Single-thread probes: tight timed loops over public functions of one
//! layer, on the workload's own data. They give the per-call costs the
//! span log cannot (a span per call would cost more than the call).

use asynciter_core::engine::History;
use asynciter_models::schedule::{ScheduleGen, StepBuf};
use asynciter_numerics::sparse::CsrMatrix;
use asynciter_runtime::transport::{
    BlockMessage, Endpoint, FaultEndpoint, FaultPlan, MpscTransport, Transport,
};
use asynciter_runtime::ScratchPool;
use std::hint::black_box;
use std::time::Instant;

/// Steps of the workload's label stream the history probe is fed.
const HISTORY_STEPS: u64 = 64;

/// Repeats `f` until it has run for at least 50 ms (and at least three
/// times); returns seconds per repetition.
fn per_rep(mut f: impl FnMut()) -> f64 {
    f(); // warm caches
    let start = Instant::now();
    let mut reps = 0u32;
    while reps < 3 || start.elapsed().as_millis() < 50 {
        f();
        reps += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(reps)
}

/// `numerics`: row-by-row dot products and a whole matvec over `m`, and
/// the arithmetic intensity its array sizes imply.
pub fn csr(m: &CsrMatrix) -> Vec<(&'static str, f64)> {
    let (rows, nnz) = (m.rows(), m.nnz() as f64);
    let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 / (1 + i % 17) as f64).collect();
    let mut out = vec![0.0; rows];
    let row_dot_s = per_rep(|| {
        let mut acc = 0.0;
        for r in 0..rows {
            acc += m.row_dot(r, black_box(&x));
        }
        black_box(acc);
    });
    let matvec_s = per_rep(|| {
        m.matvec(black_box(&x), &mut out);
        black_box(&out);
    });
    // A multiply-add per stored entry; 8-byte value and 8-byte column
    // index per entry, a row pointer per row, x read and out written once.
    let flops = 2.0 * nnz;
    let bytes = 16.0 * nnz + 8.0 * (rows + 1) as f64 + 8.0 * (m.cols() + rows) as f64;
    vec![
        ("numerics.csr_row_dot_ns_per_nnz", row_dot_s * 1e9 / nnz),
        ("numerics.csr_matvec_ns_per_nnz", matvec_s * 1e9 / nnz),
        ("numerics.csr_ops_per_byte_computed", flops / bytes),
    ]
}

/// `core`: `History::assemble` and `History::push` fed the first
/// [`HISTORY_STEPS`] steps of `schedule`.
pub fn history(n: usize, schedule: &mut dyn ScheduleGen) -> Vec<(&'static str, f64)> {
    let mut steps = Vec::new();
    let mut buf = StepBuf::new(n);
    for j in 1..=HISTORY_STEPS {
        schedule.step(j, &mut buf);
        steps.push(buf.clone());
    }
    let x0 = vec![0.0; n];
    let mut xl = vec![0.0; n];
    let (mut assemble_s, mut push_s, mut pushes) = (0.0, 0.0, 0u64);
    let mut reps = 0u32;
    let start = Instant::now();
    while reps < 3 || start.elapsed().as_millis() < 50 {
        let mut history = History::new(&x0);
        for (j, step) in (1u64..).zip(&steps) {
            let t = Instant::now();
            history.assemble(black_box(&step.labels), &mut xl);
            assemble_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            for &i in &step.active {
                history.push(i, j, xl[i]);
            }
            push_s += t.elapsed().as_secs_f64();
            pushes += step.active.len() as u64;
        }
        black_box(history.entries());
        reps += 1;
    }
    let labels = f64::from(reps) * HISTORY_STEPS as f64 * n as f64;
    vec![
        (
            "core.history_assemble_ns_per_label",
            assemble_s * 1e9 / labels,
        ),
        ("core.history_push_ns", push_s * 1e9 / pushes as f64),
    ]
}

/// `runtime.transport`: one thread sends a `block`-component message
/// from endpoint 0 to endpoint 1 and receives it there, first over the
/// bare `MpscTransport`, then with a `FaultEndpoint` under `plan` on the
/// sending side.
pub fn transport(block: usize, plan: FaultPlan, seed: u64) -> Vec<(&'static str, f64)> {
    const ROUND_TRIPS: usize = 2048;
    let msg = BlockMessage {
        from: 0,
        comps: (0..block as u32).map(|c| (c, 0.5, 1)).collect(),
        partial: false,
    };
    let round_trips = |sender: &mut dyn Endpoint, receiver: &mut dyn Endpoint| {
        per_rep(|| {
            for _ in 0..ROUND_TRIPS {
                sender.send(1, msg.clone());
                // A faulty send may deliver none, one or several copies.
                while let Some(got) = receiver.try_recv() {
                    black_box(got);
                }
            }
        }) / ROUND_TRIPS as f64
    };
    let mut ends = MpscTransport.connect(2);
    let (mut rx, mut tx) = (ends.pop().expect("two ends"), ends.pop().expect("two ends"));
    let mpsc_s = round_trips(tx.as_mut(), rx.as_mut());
    let mut faulty = FaultEndpoint::new(tx, plan, seed);
    let fault_s = round_trips(&mut faulty, rx.as_mut());
    vec![
        ("runtime.transport.mpsc_roundtrip_ns", mpsc_s * 1e9),
        ("runtime.transport.fault_roundtrip_ns", fault_s * 1e9),
        ("runtime.transport.fault_overhead_ratio", fault_s / mpsc_s),
    ]
}

/// `runtime.scratch`: lease and return a `len`-element workspace.
pub fn scratch_lease(len: usize) -> Vec<(&'static str, f64)> {
    const LEASES: usize = 4096;
    let pool = ScratchPool::new();
    let s = per_rep(|| {
        for _ in 0..LEASES {
            black_box(pool.lease(len).len());
        }
    }) / LEASES as f64;
    vec![("runtime.scratch.lease_ns", s * 1e9)]
}
