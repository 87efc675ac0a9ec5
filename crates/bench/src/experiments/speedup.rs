//! **E3** — asynchronous vs synchronous efficiency under load imbalance.
//!
//! Paper claim (§II): the advantages of asynchronous iterations are "to
//! get rid of waiting time resulting from synchronization; to recover
//! communication by computation; to cope naturally with load
//! unbalancing", and (§IV) "efficiency and scalability of asynchronous
//! iterations was better than the one of their synchronous counterparts"
//! on the Cray T3E / IBM SP4 / Grid5000 campaigns.
//!
//! All runs go through the unified `Session` API — one problem, one
//! builder, backends swapped per measurement:
//!
//! 1. **Deterministic** (asserted): the `Sim` backend runs the
//!    asynchronous iteration with per-processor compute times scaled by
//!    the imbalance factor and reports the *simulated* time to reach `ε`;
//!    the synchronous comparator is the *idealised* barrier method
//!    (sweeps × slowest-worker time, barrier itself free — a bound no
//!    real implementation beats). The async/sync ratio must shrink as
//!    imbalance grows.
//! 2. **Threads** (reported, loosely asserted): the `SharedMem` backend
//!    vs the `Barrier` backend with injected spin-work. Wall-clock on a
//!    shared/virtualised host is noisy, so only the directional claim at
//!    max imbalance is asserted.

use crate::ExpContext;
use asynciter_core::session::{Replay, Session};
use asynciter_core::stopping::StoppingRule;
use asynciter_models::partition::Partition;
use asynciter_opt::linear::JacobiOperator;
use asynciter_report::csv::CsvWriter;
use asynciter_report::table::TextTable;
use asynciter_runtime::imbalance::linear_imbalance;
use asynciter_runtime::session::{Barrier, SharedMem};
use asynciter_sim::compute::{ComputeModel, LatencyModel};
use asynciter_sim::runner::SimConfig;
use asynciter_sim::session::Sim;

/// Sequential Jacobi sweeps to reach `eps`, measured through the replay
/// backend with its default synchronous schedule and the oracle rule.
fn sweeps_to_eps(op: &JacobiOperator, xstar: &[f64], eps: f64) -> u64 {
    let run = Session::new(op)
        .steps(1_000_000)
        .xstar(xstar.to_vec())
        .stopping(StoppingRule::ErrorBelow {
            eps,
            check_every: 1,
        })
        .backend(Replay)
        .run()
        .expect("sequential baseline");
    assert!(run.stopped_early, "sequential Jacobi did not reach eps");
    run.steps
}

/// Runs E3.
pub fn run(seed: u64, quick: bool) {
    let mut ctx = ExpContext::new("E3", seed);
    let grid = if quick { 12 } else { 20 };
    let n = grid * grid;
    let a = asynciter_numerics::sparse::laplacian_2d(grid, grid, 1.0);
    let op = JacobiOperator::new(a, vec![1.0; n]).expect("operator");
    let xstar = op.solve_dense_spd().expect("exact solution");
    let eps = 1e-6;
    let workers = 4usize;
    let partition = Partition::blocks(n, workers).expect("partition");
    let base_ticks = 10u64;

    // ---- Part 1: deterministic (simulated time). ----
    let k_sync = sweeps_to_eps(&op, &xstar, eps);
    ctx.log(format!(
        "Part 1 (simulated): 2-D Laplacian {grid}×{grid} (n={n}), target ‖x−x*‖ ≤ {eps:.0e}; \
         sequential Jacobi needs {k_sync} sweeps"
    ));
    let mut table = TextTable::new(&["imbalance", "ideal sync ticks", "async ticks", "async/sync"]);
    let mut csv = CsvWriter::new(&["part", "imbalance", "sync", "async", "ratio"]);
    let mut sim_ratios = Vec::new();
    for factor in [1.0f64, 2.0, 4.0, 8.0] {
        let spins = linear_imbalance(workers, base_ticks, factor);
        // Idealised barrier-synchronous time: every sweep takes the
        // slowest worker's compute time (barrier free of charge).
        let sync_ticks = k_sync * spins.iter().max().copied().expect("workers");
        let cfg = SimConfig {
            partition: partition.clone(),
            compute: spins
                .iter()
                .map(|&t| ComputeModel::Fixed { ticks: t })
                .collect(),
            latency: LatencyModel::Fixed { ticks: 1 },
            inner_steps: 1,
            partial_sends: 0,
            seed,
        };
        let res = Session::new(&op)
            .steps(40 * k_sync * workers as u64)
            .xstar(xstar.clone())
            .error_every(workers as u64)
            .backend(Sim(cfg))
            .run()
            .expect("simulation");
        let async_ticks = res
            .sim_time_to_error(eps)
            .expect("async simulation reached eps");
        let ratio = async_ticks as f64 / sync_ticks as f64;
        sim_ratios.push((factor, ratio));
        table.row(&[
            format!("{factor:.0}x"),
            sync_ticks.to_string(),
            async_ticks.to_string(),
            format!("{ratio:.3}"),
        ]);
        csv.row_strings(&[
            "simulated".into(),
            format!("{factor}"),
            sync_ticks.to_string(),
            async_ticks.to_string(),
            format!("{ratio:.4}"),
        ]);
    }
    ctx.log(table.render());
    let first = sim_ratios.first().expect("rows").1;
    let last = sim_ratios.last().expect("rows").1;
    ctx.log(format!(
        "simulated async/ideal-sync ratio: {first:.3} at balance → {last:.3} at 8x imbalance"
    ));
    assert!(
        last < first,
        "async advantage must grow with imbalance in simulated time ({first:.3} → {last:.3})"
    );
    assert!(
        last < 1.0,
        "async must beat even idealised sync under 8x imbalance (ratio {last:.3})"
    );

    // ---- Part 2: threads (noisy wall clock; directional assertion). ----
    let base_spin = if quick { 4_000 } else { 20_000 };
    let target = 1e-8;
    ctx.log(format!(
        "Part 2 (threads): {workers} workers, base spin {base_spin} units/update, \
         target residual {target:.0e}"
    ));
    let sync_session = |spin: Vec<u64>, sweeps: u64, target: Option<f64>| {
        let mut s = Session::new(&op).steps(sweeps).backend(Barrier {
            threads: workers,
            partition: Some(partition.clone()),
            spin,
        });
        if let Some(eps) = target {
            s = s.stopping(StoppingRule::Residual {
                eps,
                check_every: 1,
            });
        }
        s.run().expect("sync run")
    };
    let async_session = |spin: Vec<u64>, updates: u64, target: Option<f64>| {
        let mut s = Session::new(&op).steps(updates).backend(SharedMem {
            threads: workers,
            partition: Some(partition.clone()),
            spin,
            ..SharedMem::default()
        });
        if let Some(eps) = target {
            s = s.stopping(StoppingRule::Residual {
                eps,
                check_every: 64,
            });
        }
        s.run().expect("async run")
    };
    // Warm-up (page-in, CPU frequency) before timing.
    {
        let spin = linear_imbalance(workers, base_spin, 1.0);
        let _ = sync_session(spin.clone(), 50, None);
        let _ = async_session(spin, 2_000, None);
    }
    let mut thread_table = TextTable::new(&[
        "imbalance",
        "sync ms",
        "async ms",
        "async/sync",
        "sync sweeps",
        "async updates",
        "update skew",
    ]);
    let mut last_thread_ratio = f64::NAN;
    for factor in [1.0, 8.0] {
        let spin = linear_imbalance(workers, base_spin, factor);
        // Median of 3 repetitions to tame scheduling noise.
        let mut sync_times = Vec::new();
        let mut async_times = Vec::new();
        let mut sync_sweeps = 0;
        let mut async_updates = 0;
        let mut skew = 0.0;
        for _ in 0..3 {
            let sync = sync_session(spin.clone(), 1_000_000, Some(target / 10.0));
            assert!(
                sync.final_residual <= target * 10.0,
                "sync did not converge"
            );
            sync_times.push(sync.wall.as_secs_f64() * 1e3);
            sync_sweeps = sync.steps;
            let asy = async_session(spin.clone(), 100_000_000, Some(target));
            assert!(
                asy.final_residual <= target * 10.0,
                "async did not converge"
            );
            async_times.push(asy.wall.as_secs_f64() * 1e3);
            async_updates = asy.steps;
            skew = asy.per_worker_updates.iter().max().copied().unwrap_or(1) as f64
                / asy
                    .per_worker_updates
                    .iter()
                    .min()
                    .copied()
                    .unwrap_or(1)
                    .max(1) as f64;
        }
        let sync_ms = asynciter_numerics::stats::median(&sync_times).expect("times");
        let async_ms = asynciter_numerics::stats::median(&async_times).expect("times");
        let ratio = async_ms / sync_ms;
        last_thread_ratio = ratio;
        thread_table.row(&[
            format!("{factor:.0}x"),
            format!("{sync_ms:.1}"),
            format!("{async_ms:.1}"),
            format!("{ratio:.2}"),
            sync_sweeps.to_string(),
            async_updates.to_string(),
            format!("{skew:.2}"),
        ]);
        csv.row_strings(&[
            "threads".into(),
            format!("{factor}"),
            format!("{sync_ms:.3}"),
            format!("{async_ms:.3}"),
            format!("{ratio:.4}"),
        ]);
    }
    ctx.log(thread_table.render());
    ctx.log(format!(
        "threads at 8x imbalance: async/sync wall ratio {last_thread_ratio:.2} \
         (directional check: async not slower than sync)"
    ));
    assert!(
        last_thread_ratio < 1.1,
        "async should not lose to barrier-sync under heavy imbalance (ratio {last_thread_ratio:.2})"
    );
    csv.save(&ctx.dir().join("speedup.csv")).expect("save csv");
    ctx.finish();
}
