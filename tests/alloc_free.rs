//! Hot-path allocation audit: the per-step evaluation paths of the
//! workhorse operators — `SparseProxGrad` (lasso), `LogisticGradOperator`
//! and `PriceRelaxation` (network flow) — must perform **zero** heap
//! allocations once the caller-owned buffers exist. This is the
//! executable form of the scratch-buffer contract every engine relies on
//! (engines allocate `vec![0.0; op.scratch_len()]` once per run/worker
//! and drive millions of steps through `update_active_with` /
//! `apply_with` / `residual_inf_with`).
//!
//! The last two tests audit engine loops: an unrecorded `Replay` session
//! and an unrecorded one-worker `Cluster` session.
//!
//! The audit swaps in a counting global allocator that counts per thread,
//! so no parallel test thread can pollute the counter.

use asynciter::opt::canonical;
use asynciter::opt::logistic::LogisticGradOperator;
use asynciter::opt::network_flow::{NetworkFlowProblem, PriceRelaxation};
use asynciter::opt::traits::Operator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Thread-local counting: only the audit thread's allocations count, so
// the test-harness machinery (timers, output capture, sibling threads)
// cannot pollute the audit. Const-initialised thread locals never
// allocate on first touch; `try_with` guards TLS teardown.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = COUNTING.try_with(|c| {
        if c.get() {
            let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting enabled on this thread and returns
/// the number of heap allocations (allocs + reallocs) it performed.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(|a| a.get())
}

/// Drives `steps` rounds of the scratch evaluation paths over
/// preallocated buffers and returns the allocation count — the quantity
/// the audit pins to zero.
fn audit_operator(op: &dyn Operator, steps: usize) -> u64 {
    let n = op.dim();
    let mut x = vec![0.1; n];
    let mut out = vec![0.0; n];
    let mut scratch = vec![0.0; op.scratch_len()];
    let active: Vec<usize> = (0..n).step_by(2).collect();
    // Warm-up outside the counted section (nothing should lazily
    // allocate, but the audit should fail only on *steady-state* allocs).
    op.apply_with(&x, &mut out, &mut scratch);
    count_allocs(|| {
        for s in 0..steps {
            op.update_active_with(&x, &active, &mut out, &mut scratch);
            op.apply_with(&x, &mut out, &mut scratch);
            let r = op.residual_inf_with(&x, &mut scratch);
            let c = op.component(s % n, &x);
            // Keep the optimiser honest and the iterate bounded.
            x[s % n] = 0.5 * (c + r.min(1.0));
        }
    })
}

#[test]
fn per_step_paths_allocate_nothing() {
    // Lasso via the sparse prox-gradient operator.
    let sparse = canonical::lasso(canonical::Size::Quick).op;

    // Logistic regression via the certified gradient operator (dense
    // data coupling: the scratch holds the per-sample weights).
    let logistic = LogisticGradOperator::certified_random(8, 48, 2.0, 3).unwrap();
    assert!(logistic.scratch_len() > 0, "logistic shares sample weights");

    // Network flow via the hub-grounded price relaxation.
    let flow = PriceRelaxation::new(NetworkFlowProblem::wheel(12, 5).unwrap(), 0).unwrap();

    for (name, op) in [
        ("sparse-proxgrad", &sparse as &dyn Operator),
        ("logistic-grad", &logistic),
        ("price-relaxation", &flow),
    ] {
        let allocs = audit_operator(op, 500);
        assert_eq!(
            allocs, 0,
            "{name}: {allocs} heap allocations in 500 audited steps"
        );
    }
}

#[test]
fn pool_leases_keep_per_step_loops_alloc_free_across_tenants() {
    // The service layer's extension of the scratch contract: a warmed
    // `ScratchPool` must hand out workspaces with ZERO heap activity,
    // so back-to-back tenant jobs on a worker run their per-step loops
    // allocation-free end to end — lease, stage, iterate, return.
    use asynciter::runtime::scratch::ScratchPool;

    let logistic = LogisticGradOperator::certified_random(8, 48, 2.0, 3).unwrap();
    let n = logistic.dim();
    // The service workspace layout: [x0 staging | operator scratch].
    let len = n + logistic.scratch_len();
    let pool = ScratchPool::new();
    pool.warm(1, len);
    let x0 = vec![0.1; n];
    let mut out = vec![0.0; n];
    let allocs = count_allocs(|| {
        for _tenant in 0..64 {
            let mut ws = pool.lease(len);
            let (stage, scratch) = ws.split_at_mut(n);
            stage.copy_from_slice(&x0);
            for _ in 0..50 {
                logistic.apply_with(stage, &mut out, scratch);
                let _ = logistic.residual_inf_with(stage, scratch);
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations across 64 pooled tenant loops"
    );
    let stats = pool.stats();
    assert_eq!(stats.leases, 64);
    assert_eq!(stats.created, 1, "the warmed buffer serves every tenant");
    assert_eq!(stats.reused, 64, "every lease recycled the warmed buffer");
}

#[test]
fn unrecorded_replay_session_allocates_only_set_up_and_history() {
    // An *engine* loop rather than an operator kernel: under
    // `RecordMode::Off` nothing is recorded, so 1 000 steps cost the
    // session's set-up plus the doubling growth of the eight `History`
    // logs — not one trace step (a `Vec<u32>`) per iteration.
    use asynciter::prelude::*;
    let system = asynciter::numerics::sparse::tridiagonal(8, 4.0, -1.0);
    let op = asynciter::opt::linear::JacobiOperator::new(system, vec![1.0; 8]).unwrap();
    let mut report = None;
    let allocs = count_allocs(|| {
        // A delayed schedule whose generator allocates nothing itself.
        let schedule = BlockRoundRobin::new(Partition::blocks(8, 2).unwrap(), 3);
        let session = Session::new(&op).steps(1_000).schedule(schedule);
        report = session.record(RecordMode::Off).backend(Replay).run().ok();
    });
    let report = report.expect("the session runs");
    assert_eq!(report.steps, 1_000);
    assert!(report.macro_iterations > 0 && report.trace.is_none());
    assert!(allocs < 200, "{allocs} heap allocations in 1000 steps");
}

#[test]
fn unrecorded_cluster_session_allocates_only_set_up() {
    // The message-passing loop tells the same observer: under
    // `RecordMode::Off` it builds no trace either (it built and dropped
    // one, 1 033 allocations, while it sampled and stopped by itself),
    // and a lone worker posts nothing.
    use asynciter::prelude::*;
    let system = asynciter::numerics::sparse::tridiagonal(8, 4.0, -1.0);
    let op = asynciter::opt::linear::JacobiOperator::new(system, vec![1.0; 8]).unwrap();
    let mut report = None;
    let allocs = count_allocs(|| {
        let session = Session::new(&op).steps(1_000).record(RecordMode::Off);
        report = session.backend(Cluster::default()).run().ok();
    });
    let report = report.expect("the session runs");
    assert_eq!(report.steps, 1_000);
    assert!(report.macro_iterations > 0 && report.trace.is_none());
    assert!(allocs < 100, "{allocs} heap allocations in 1000 steps");
}
