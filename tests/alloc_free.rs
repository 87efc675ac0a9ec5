//! Hot-path allocation audit: the per-step evaluation paths of the
//! workhorse operators — `SparseProxGrad` (lasso), `LogisticGradOperator`
//! and `PriceRelaxation` (network flow) — must perform **zero** heap
//! allocations once the caller-owned buffers exist. This is the
//! executable form of the scratch-buffer contract every engine relies on
//! (engines allocate `vec![0.0; op.scratch_len()]` once per run/worker
//! and drive millions of steps through `update_active_with` /
//! `apply_with` / `residual_inf_with`).
//!
//! Five tests audit engine loops: an unrecorded `Replay` session, at two
//! lengths too (a floor-promising schedule keeps `History` from growing),
//! an unrecorded one-worker `Cluster` session, an unrecorded `Sim`
//! session on one and two processors, and a recorded one-thread
//! `SharedMem` session at two lengths. The last two audit the trace:
//! the text codec every replay check runs, and the active-set store a
//! message-passing run records into.
//!
//! The audit swaps in a counting global allocator that counts per thread,
//! so no parallel test thread can pollute the counter. A racing session
//! steps on threads of its own, so its audit counts process-wide, in a
//! child process that runs that one test alone.

use asynciter::opt::canonical;
use asynciter::opt::logistic::LogisticGradOperator;
use asynciter::opt::network_flow::{NetworkFlowProblem, PriceRelaxation};
use asynciter::opt::traits::Operator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

// Thread-local counting: only the audit thread's allocations count, so
// the test-harness machinery (timers, output capture, sibling threads)
// cannot pollute the audit. Const-initialised thread locals never
// allocate on first touch; `try_with` guards TLS teardown.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// Process-wide counting, for code that allocates on threads it spawns.
static COUNTING_ALL: AtomicBool = AtomicBool::new(false);
static ALLOCS_ALL: AtomicU64 = AtomicU64::new(0);

fn note_alloc() {
    if COUNTING_ALL.load(Ordering::Relaxed) {
        ALLOCS_ALL.fetch_add(1, Ordering::Relaxed);
    }
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

/// [`count_allocs`] on every thread of the process: sound only where no
/// other test runs beside `f`.
fn count_process_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS_ALL.store(0, Ordering::Relaxed);
    COUNTING_ALL.store(true, Ordering::Relaxed);
    f();
    COUNTING_ALL.store(false, Ordering::Relaxed);
    ALLOCS_ALL.load(Ordering::Relaxed)
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
    // Lasso via the sparse prox-gradient operator (`prox(x)` computed
    // once per block update or residual into scratch).
    let sparse = canonical::lasso(canonical::Size::Quick).op;
    assert_eq!(
        sparse.scratch_len(),
        sparse.dim(),
        "sparse prox-grad keeps prox(x) in scratch"
    );

    // Logistic regression via the certified gradient operator (dense
    // data coupling: one pass over the data per call, summing into `out`
    // for `apply` and into one scratch accumulator per component for
    // block updates and residuals).
    let logistic = LogisticGradOperator::certified_random(8, 48, 2.0, 3).unwrap();
    assert_eq!(
        logistic.scratch_len(),
        logistic.dim(),
        "logistic keeps one accumulator per component in scratch"
    );
    // Its plain `apply` needs no scratch at all, so it allocates nothing.
    let x = vec![0.1; logistic.dim()];
    let mut out = vec![0.0; logistic.dim()];
    let allocs = count_allocs(|| {
        for _ in 0..500 {
            logistic.apply(&x, &mut out);
        }
    });
    assert_eq!(allocs, 0, "logistic-grad apply: {allocs} heap allocations");

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

/// Heap allocations of an unrecorded `Replay` session of `steps` steps
/// on an 8-component Jacobi system, under a block round robin with read
/// lag 3: a delayed schedule whose generator allocates nothing itself.
fn unrecorded_replay_allocs(steps: u64) -> u64 {
    use asynciter::prelude::*;
    let system = asynciter::numerics::sparse::tridiagonal(8, 4.0, -1.0);
    let op = asynciter::opt::linear::JacobiOperator::new(system, vec![1.0; 8]).unwrap();
    let mut report = None;
    let allocs = count_allocs(|| {
        let schedule = BlockRoundRobin::new(Partition::blocks(8, 2).unwrap(), 3);
        let session = Session::new(&op).steps(steps).schedule(schedule);
        report = session.record(RecordMode::Off).backend(Replay).run().ok();
    });
    let report = report.expect("the session runs");
    assert_eq!(report.steps, steps);
    assert!(report.macro_iterations > 0 && report.trace.is_none());
    allocs
}

#[test]
fn unrecorded_replay_session_allocates_only_set_up_and_history() {
    // An *engine* loop rather than an operator kernel: under
    // `RecordMode::Off` nothing is recorded, so 1 000 steps cost the
    // session's set-up plus the growth of the eight `History` logs to
    // the few entries the schedule's label floor keeps readable — not
    // one trace step (a `Vec<u32>`) per iteration. That is 25
    // allocations; keeping every update, the logs' doubling made it 81.
    let allocs = unrecorded_replay_allocs(1_000);
    assert!(allocs < 50, "{allocs} heap allocations in 1000 steps");
}

#[test]
fn a_floor_promising_replay_session_allocates_the_same_at_any_length() {
    // The round robin promises the label floor `j − 3`, so each
    // `History` log compacts below it instead of growing: ten times the
    // steps, not one allocation more.
    let short = unrecorded_replay_allocs(1_000);
    let long = unrecorded_replay_allocs(10_000);
    assert_eq!(short, long, "1 000 steps: {short}, 10 000 steps: {long}");
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

#[test]
fn unrecorded_sim_session_allocates_only_set_up() {
    // Each simulated processor is a `runtime::Worker` (view, label book,
    // block output and operator scratch) plus its read labels, all
    // allocated at set-up: 28 allocations on one processor, where a
    // phase allocated three (3 038). What two processors add is the
    // payload of each message sent, one per phase end: 1 042, where it
    // was 4 054.
    use asynciter::prelude::*;
    let system = asynciter::numerics::sparse::tridiagonal(8, 4.0, -1.0);
    let op = asynciter::opt::linear::JacobiOperator::new(system, vec![1.0; 8]).unwrap();
    for (procs, bound) in [(1, 99), (2, 1_100)] {
        let sim = Sim::uniform(procs);
        let mut report = None;
        let allocs = count_allocs(|| {
            let session = Session::new(&op).steps(1_000).record(RecordMode::Off);
            report = session.backend(sim).run().ok();
        });
        let report = report.expect("the session runs");
        assert_eq!(report.steps, 1_000);
        assert!(report.macro_iterations > 0 && report.trace.is_none());
        assert!(
            allocs <= bound,
            "{procs} processor(s): {allocs} heap allocations in 1000 steps"
        );
    }
}

/// Heap allocations, on every thread, of a one-thread `SharedMem`
/// session of `steps` steps recorded `MinOnly` on an 8-component Jacobi
/// system.
fn racing_session_allocs(steps: u64) -> u64 {
    use asynciter::prelude::*;
    let system = asynciter::numerics::sparse::tridiagonal(8, 4.0, -1.0);
    let op = asynciter::opt::linear::JacobiOperator::new(system, vec![1.0; 8]).unwrap();
    let mut report = None;
    let allocs = count_process_allocs(|| {
        let session = Session::new(&op).steps(steps).record(RecordMode::MinOnly);
        report = session.backend(SharedMem::default()).run().ok();
    });
    let report = report.expect("the session runs");
    assert_eq!(report.steps, steps);
    assert_eq!(report.macro_iterations, steps, "a lone worker reads fresh");
    assert_eq!(report.trace.map(|t| t.len() as u64), Some(steps));
    allocs
}

#[test]
fn a_racing_session_allocates_only_its_logs_growth() {
    // The worker steps on a thread of its own, so the count is
    // process-wide, which a sibling test would pollute: the test runs
    // itself again, alone, in a child process that reports both counts.
    const CHILD: &str = "ALLOC_FREE_RACING_CHILD";
    if std::env::var_os(CHILD).is_some() {
        let (short, long) = (racing_session_allocs(1_000), racing_session_allocs(10_000));
        eprintln!("allocs {short} {long}");
        return;
    }
    let name = "a_racing_session_allocates_only_its_logs_growth";
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args([name, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .expect("the test binary runs again");
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert!(child.status.success(), "child failed: {stderr}");
    let counts = (stderr.lines().find_map(|l| l.strip_prefix("allocs ")))
        .and_then(|counts| counts.split_once(' '))
        .unwrap_or_else(|| panic!("no counts in: {stderr}"));
    let [short, long] = [counts.0, counts.1].map(|c| c.parse::<u64>().unwrap());
    // Ten times the steps adds at most ⌈log2 10⌉ = 4 doublings to each
    // of the two per-step vectors, the lane's step log and the trace's
    // step list; the block is stored once. A per-step allocation in the
    // step loop adds 9 000.
    assert!(
        long <= short + 8,
        "1 000 steps: {short} allocations, 10 000 steps: {long}"
    );
}

#[test]
fn trace_text_allocates_once_to_write_and_only_the_trace_to_read() {
    // The writer sizes its buffer with a counting pass, so it allocates
    // once (growing by doubling, it allocated 21 times here); the reader
    // allocates the trace's own storage, one label vector per step, plus
    // the growth of the trace's step list, active-set arena and recent-set
    // ring and of two reused line buffers: 754 here, where per-line
    // strings and vectors made it 14 766 and a copy of `S_j` per step 1 438.
    use asynciter::models::schedule::{record, ChaoticBounded};
    use asynciter::models::trace::LabelStore;
    use asynciter::models::trace_io::{trace_from_str, trace_to_string};
    let mut gen = ChaoticBounded::new(4096, 1, 512, 40, false, 7);
    let trace = record(&mut gen, 700, LabelStore::Full);
    let mut text = String::new();
    let writes = count_allocs(|| text = trace_to_string(&trace).unwrap());
    assert_eq!(writes, 1, "{writes} allocations to write the trace");
    let mut parsed = None;
    let reads = count_allocs(|| parsed = trace_from_str(&text).ok());
    assert_eq!(parsed.expect("the text parses").len(), 700);
    let extra = reads.checked_sub(700);
    assert!(
        extra.is_some_and(|extra| extra <= 64),
        "{reads} allocations to read 700 steps"
    );
}

#[test]
fn a_block_trace_allocates_only_its_growth() {
    // A message-passing run's `S_j` is always one of its workers' blocks:
    // each is stored once, so 10 000 steps of two 512-component blocks
    // cost the doubling of the step list, one arena growth per block and
    // the recent-set ring (16 allocations here), not a copy per step
    // (10 000 more).
    use asynciter::models::trace::{LabelStore, Trace};
    let blocks: [Vec<usize>; 2] = [(0..512).collect(), (512..1024).collect()];
    let mut trace = Trace::new(1024, LabelStore::MinOnly);
    let allocs = count_allocs(|| {
        for j in 1..=10_000u64 {
            trace.push_min_step(&blocks[j as usize % 2], j / 2);
        }
    });
    assert_eq!(trace.len(), 10_000);
    assert!(allocs <= 32, "{allocs} allocations to record 10 000 steps");
}
