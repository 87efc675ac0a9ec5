//! Distributed routing on the Arpanet (paper §II): asynchronous
//! Bellman–Ford with reordered, lossy, duplicated messages still
//! computes exact shortest-path tables — the 1969 algorithm, replayed.
//!
//! ```sh
//! cargo run --release --example routing_bellman_ford
//! ```

use asynciter::opt::bellman_ford::{BellmanFordOperator, Graph};
use asynciter::prelude::*;

const NAMES: [&str; 18] = [
    "UCLA",
    "SRI",
    "UCSB",
    "UTAH",
    "BBN",
    "MIT",
    "RAND",
    "SDC",
    "HARVARD",
    "LINCOLN",
    "STANFORD",
    "ILLINOIS",
    "CASE",
    "CMU",
    "AMES",
    "MITRE",
    "BURROUGHS",
    "NBS",
];

fn main() {
    let graph = Graph::arpanet();
    let n = graph.num_nodes();
    let dest = 4; // BBN — everyone routes towards the east-coast hub.
    println!(
        "Arpanet-1971-style topology: {n} IMPs, {} directed links; destination {}",
        graph.num_arcs(),
        NAMES[dest]
    );

    let op = BellmanFordOperator::new(graph, dest).expect("operator");
    let exact = op.exact();

    // Six regional "routers" own three IMPs each; the channel reorders
    // 40%, drops 15% and duplicates 10% of messages.
    let run = Session::new(&op)
        .x0(op.initial_estimate())
        .steps(6 * 600)
        .seed(1969)
        .backend(Cluster {
            workers: 6,
            hold_prob: 0.4,
            drop_prob: 0.15,
            dup_prob: 0.1,
            ..Cluster::default()
        })
        .run()
        .expect("run");
    let channel = run.channel.as_ref().expect("cluster channel counters");
    println!(
        "channel: {} sent / {} delivered / {} dropped / {} reordered / {} duplicated",
        channel.sent, channel.delivered, channel.dropped, channel.held, channel.duplicated
    );

    println!("\nrouting table (distance to {}):", NAMES[dest]);
    let mut worst = 0.0_f64;
    for i in 0..n {
        let err = (run.final_x[i] - exact[i]).abs();
        worst = worst.max(err);
        println!(
            "  {:<10} {:>8.3}  (exact {:>8.3})",
            NAMES[i], run.final_x[i], exact[i]
        );
    }
    println!("\nworst deviation from Dijkstra: {worst:.2e}");
    assert!(worst < 1e-9, "routing disagrees with Dijkstra");
    println!("asynchronous Bellman–Ford is exact despite loss + reordering + duplication.");

    // The same routing problem through the unified Session API on the
    // deterministic simulator backend: six simulated IMP clusters with
    // jittered links compute the identical table.
    let sim = Session::new(&op)
        .x0(op.initial_estimate())
        .steps(2_000)
        .backend(Sim::uniform(6))
        .run()
        .expect("sim session");
    let sim_worst = (0..n)
        .map(|i| (sim.final_x[i] - exact[i]).abs())
        .fold(0.0_f64, f64::max);
    println!(
        "simulator backend: {} phases over {} simulated ticks, worst deviation {sim_worst:.2e}",
        sim.steps,
        sim.sim_time.unwrap_or(0)
    );
    assert!(
        sim_worst < 1e-9,
        "simulated routing disagrees with Dijkstra"
    );
}
