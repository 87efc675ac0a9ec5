//! Convex network flow by distributed asynchronous price relaxation
//! (Bertsekas–El Baz): every node balances itself against its
//! neighbours' current prices — under message passing with reordering,
//! loss and duplication.
//!
//! ```sh
//! cargo run --release --example network_flow
//! ```

use asynciter::core::theory::perron_weights;
use asynciter::numerics::sparse::CsrMatrix;
use asynciter::opt::network_flow::{NetworkFlowProblem, PriceRelaxation};
use asynciter::prelude::*;

fn main() {
    // A random connected transshipment network with feasible supplies.
    let nodes = 48;
    let problem = NetworkFlowProblem::random(nodes, 72, 2022).expect("instance");
    println!(
        "network: {nodes} nodes, {} arcs, supplies balance to {:.1e}",
        problem.arcs().len(),
        problem.supplies().iter().sum::<f64>()
    );

    let op = PriceRelaxation::new(problem.clone(), 0).expect("operator");
    let exact = problem.exact_prices(0).expect("exact dual");

    // Contraction certificate: the relaxation is NOT an inf-norm
    // contraction (interior rows are stochastic), but it contracts in the
    // weighted max norm built from the Perron vector of its iteration
    // matrix — the classical certificate for totally asynchronous
    // convergence.
    let m = iteration_matrix(&op);
    let (_, sigma) = perron_weights(&m, 10_000).expect("perron");
    println!("Perron-weighted contraction factor σ = {sigma:.4} (< 1)");

    // Distributed execution: 4 machines exchange labelled price messages
    // through a channel that reorders (30%), drops (10%) and duplicates
    // (5%) them.
    // σ ≈ 0.99 means ~2000 effective sweeps for 1e-6: budget accordingly
    // (workers may interleave coarsely on single-core hosts).
    let run = Session::new(&op)
        .steps(4 * 8_000)
        .seed(7)
        .backend(Cluster {
            workers: 4,
            apply_policy: ApplyPolicy::KeepFreshest,
            hold_prob: 0.3,
            drop_prob: 0.1,
            dup_prob: 0.05,
            ..Cluster::default()
        })
        .run()
        .expect("run");
    let channel = run.channel.as_ref().expect("cluster channel counters");
    println!(
        "channel: {} sent, {} delivered, {} dropped, {} held (reordered), {} stale-discarded",
        channel.sent, channel.delivered, channel.dropped, channel.held, channel.discarded_stale
    );

    let err = run.final_error(&exact);
    let resid = problem.balance_residual(&run.final_x);
    println!("price error vs exact dual: {err:.2e}; balance residual: {resid:.2e}");
    assert!(resid < 1e-6, "did not converge");

    // Cross-check through the unified Session API: the same operator
    // under a chaotic out-of-order replay schedule lands on the same
    // prices — message passing and deterministic replay are two backends
    // of one iteration.
    let replay = Session::new(&op)
        .steps(200_000)
        .schedule(ChaoticBounded::new(
            nodes,
            nodes / 4,
            nodes / 2,
            24,
            false,
            8,
        ))
        .backend(Replay)
        .run()
        .expect("replay session");
    let agree = asynciter::numerics::vecops::max_abs_diff(&replay.final_x, &run.final_x);
    println!(
        "session replay backend agrees with message passing to {agree:.2e} \
         ({} macro-iterations)",
        replay.macro_iterations
    );
    assert!(agree < 1e-6, "backends disagree");

    // Recover the primal flows and verify conservation at every node.
    let flows = problem.flows(&run.final_x);
    let div = problem.divergence(&flows);
    let worst = div
        .iter()
        .zip(problem.supplies())
        .map(|(d, s)| (d - s).abs())
        .fold(0.0_f64, f64::max);
    println!(
        "primal flows: cost {:.4}, worst conservation violation {worst:.2e}",
        problem.primal_cost(&flows)
    );
}

/// The linear iteration matrix `|M|` of the grounded relaxation, for the
/// Perron certificate (see experiment E8 for the derivation).
fn iteration_matrix(op: &PriceRelaxation) -> CsrMatrix {
    let p = op.problem();
    let n = p.num_nodes();
    let mut trip: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..n {
        if i == op.ground() {
            continue;
        }
        let mut kappa = 0.0;
        let mut couplings: std::collections::BTreeMap<usize, f64> = Default::default();
        for a in p.arcs() {
            let other = if a.tail == i {
                Some(a.head)
            } else if a.head == i {
                Some(a.tail)
            } else {
                None
            };
            if let Some(o) = other {
                kappa += 1.0 / a.r;
                *couplings.entry(o).or_insert(0.0) += 1.0 / a.r;
            }
        }
        for (o, w) in couplings {
            if o != op.ground() {
                trip.push((i, o, w / kappa));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &trip).expect("matrix")
}
