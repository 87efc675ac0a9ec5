//! **E5** — data-exchange frequency (ref \[26\], IBM SP4 campaign).
//!
//! Paper context: the obstacle-problem study on the IBM SP4 examined
//! "several data exchange frequencies" — how often a worker sends its
//! block to its peers trades message volume against staleness.
//!
//! Reproduced on the virtual message-passing runtime: workers solve the
//! obstacle problem, exchanging every `q` local updates. Expected shape:
//! convergence (residual after a fixed update budget) degrades
//! gracefully as `q` grows while message volume drops like `1/q` — a
//! sweet spot exists where most of the accuracy is kept at a fraction of
//! the traffic.

use crate::ExpContext;
use asynciter_core::session::Session;
use asynciter_opt::obstacle::{ObstacleProblem, ProjectedJacobi};
use asynciter_report::csv::CsvWriter;
use asynciter_report::table::TextTable;
use asynciter_runtime::Cluster;

/// Runs E5.
pub fn run(seed: u64, quick: bool) {
    let mut ctx = ExpContext::new("E5", seed);
    let grid = if quick { 16 } else { 32 };
    let problem = ObstacleProblem::bump(grid, grid, 0.6).expect("problem");
    let n = problem.dim();
    let reference = problem
        .reference_solution(1e-12, 200_000)
        .expect("reference");
    let op = ProjectedJacobi::new(problem);
    let workers = 4;
    let budget = if quick { 600 } else { 2_000 };
    let x0 = op.upper_start();

    ctx.log(format!(
        "obstacle problem {grid}×{grid} (n={n}), {workers} workers, {budget} updates/worker, \
         exchange period sweep"
    ));
    let mut table = TextTable::new(&[
        "exchange every",
        "messages",
        "final residual",
        "error to u*",
    ]);
    let mut csv = CsvWriter::new(&["exchange_every", "messages", "residual", "error"]);

    let mut rows: Vec<(u64, u64, f64, f64)> = Vec::new();
    for q in [1u64, 2, 4, 8, 16, 32, 64] {
        let res = Session::new(&op)
            .x0(x0.clone())
            .steps(workers as u64 * budget)
            .seed(seed)
            .backend(Cluster {
                workers,
                exchange_every: q,
                ..Cluster::default()
            })
            .run()
            .expect("cluster run");
        let sent = res.channel.as_ref().expect("cluster channel counters").sent;
        let err = res.final_error(&reference);
        rows.push((q, sent, res.final_residual, err));
        table.row(&[
            q.to_string(),
            sent.to_string(),
            format!("{:.3e}", res.final_residual),
            format!("{:.3e}", err),
        ]);
        csv.row_strings(&[
            q.to_string(),
            sent.to_string(),
            format!("{:.6e}", res.final_residual),
            format!("{:.6e}", err),
        ]);
    }
    ctx.log(table.render());

    // Shape checks: message volume scales ~1/q; accuracy at q=1 is the
    // best; moderate periods stay within a couple orders of magnitude.
    let msgs_1 = rows[0].1 as f64;
    let msgs_64 = rows.last().expect("rows").1 as f64;
    assert!(
        msgs_1 / msgs_64 > 30.0,
        "message volume should drop ~linearly with the period"
    );
    let best_err = rows.iter().map(|r| r.3).fold(f64::INFINITY, f64::min);
    assert!(
        (rows[0].3 - best_err).abs() <= best_err.max(1e-14) * 10.0,
        "most frequent exchange should be (near-)best"
    );
    ctx.log(format!(
        "messages drop {:.0}x from q=1 to q=64 while the error grows {:.1e} → {:.1e} — \
         the [26] frequency trade-off",
        msgs_1 / msgs_64,
        rows[0].3,
        rows.last().expect("rows").3
    ));
    csv.save(&ctx.dir().join("exchange.csv")).expect("save csv");
    ctx.finish();
}
