//! **E6** — asynchronous Bellman–Ford routing (Arpanet, refs \[11\]/\[17\]).
//!
//! Paper context (§II): "the first routing algorithm to be implemented
//! on the Arpanet in 1969 was a distributed asynchronous Bellman–Ford
//! algorithm" — the historical proof that totally asynchronous
//! iterations run real infrastructure. The operator is monotone but not
//! a contraction, so this also exercises the non-contracting side of the
//! theory.
//!
//! The experiment routes on a synthetic 1971-era Arpanet topology and on
//! random geometric graphs, under increasingly hostile channels
//! (reordering + loss + duplication), and verifies that the distributed
//! estimates reach the exact Dijkstra distances; a replay-engine run
//! under out-of-order labels cross-checks the deterministic path.

use crate::ExpContext;
use asynciter_core::session::{Replay, Session};
use asynciter_models::schedule::ChaoticBounded;
use asynciter_opt::bellman_ford::{BellmanFordOperator, Graph};
use asynciter_report::csv::CsvWriter;
use asynciter_report::table::TextTable;
use asynciter_runtime::{ApplyPolicy, Cluster};

/// Runs E6.
pub fn run(seed: u64, quick: bool) {
    let mut ctx = ExpContext::new("E6", seed);

    let mut table = TextTable::new(&[
        "graph",
        "channel (hold/drop/dup)",
        "policy",
        "max error",
        "dropped",
        "held",
    ]);
    let mut csv = CsvWriter::new(&["graph", "hold", "drop", "dup", "policy", "max_error"]);

    let graphs: Vec<(String, Graph, usize)> = {
        let mut g = vec![("arpanet-1971".to_string(), Graph::arpanet(), 6)];
        let n = if quick { 24 } else { 60 };
        g.push((
            format!("geometric-{n}"),
            Graph::random_geometric(n, 0.25, seed).expect("graph"),
            6,
        ));
        g
    };

    for (name, graph, workers) in &graphs {
        let op = BellmanFordOperator::new(graph.clone(), 0).expect("operator");
        let exact = op.exact();
        let budget = if quick { 300 } else { 800 };
        for &(hold, drop, dup) in &[(0.0, 0.0, 0.0), (0.3, 0.1, 0.05), (0.5, 0.25, 0.1)] {
            for policy in [ApplyPolicy::AsReceived, ApplyPolicy::KeepFreshest] {
                let res = Session::new(&op)
                    .x0(op.initial_estimate())
                    .steps(*workers as u64 * budget)
                    .seed(seed)
                    .backend(Cluster {
                        workers: *workers,
                        apply_policy: policy,
                        hold_prob: hold,
                        drop_prob: drop,
                        dup_prob: dup,
                        ..Cluster::default()
                    })
                    .run()
                    .expect("run");
                let channel = res.channel.as_ref().expect("cluster channel counters");
                let err = res
                    .final_x
                    .iter()
                    .zip(&exact)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0_f64, f64::max);
                table.row(&[
                    name.clone(),
                    format!("{hold}/{drop}/{dup}"),
                    format!("{policy:?}"),
                    format!("{err:.2e}"),
                    channel.dropped.to_string(),
                    channel.held.to_string(),
                ]);
                csv.row_strings(&[
                    name.clone(),
                    hold.to_string(),
                    drop.to_string(),
                    dup.to_string(),
                    format!("{policy:?}"),
                    format!("{err:.6e}"),
                ]);
                assert!(
                    err < 1e-9,
                    "{name} {policy:?} hold={hold} drop={drop}: routing error {err}"
                );
            }
        }
    }
    ctx.log(table.render());
    ctx.log(
        "all channel regimes and both application policies reach exact Dijkstra distances — \
         unbounded delays, reordering, loss and duplication are absorbed",
    );

    // Deterministic cross-check: replay engine with out-of-order labels.
    let graph = Graph::arpanet();
    let n = graph.num_nodes();
    let op = BellmanFordOperator::new(graph, 3).expect("operator");
    let exact = op.exact();
    let res = Session::new(&op)
        .steps(if quick { 3_000 } else { 10_000 })
        .schedule(ChaoticBounded::new(n, 2, 6, 30, false, seed + 7))
        .x0(op.initial_estimate())
        .backend(Replay)
        .run()
        .expect("replay");
    let err = res
        .final_x
        .iter()
        .zip(&exact)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    ctx.log(format!(
        "replay engine (out-of-order labels, b=30, dest=UTAH): max error {err:.2e}"
    ));
    assert!(err < 1e-9, "replay routing failed: {err}");
    csv.save(&ctx.dir().join("bellman_ford.csv"))
        .expect("save csv");
    ctx.finish();
}
