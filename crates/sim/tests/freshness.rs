//! Keep-freshest through the public door: a simulated processor never
//! reads an older value of a component than it read in its previous
//! phase, however the channel reorders its mail. Partials and finals
//! from one sender arrive in any order under jittered or heavy-tailed
//! latencies; each processor applies only what is fresher than what it
//! already holds, so the labels its phases read never decrease.

use asynciter_core::session::{RecordMode, Session};
use asynciter_models::channel::LinkModel;
use asynciter_models::partition::Partition;
use asynciter_numerics::sparse::tridiagonal;
use asynciter_opt::linear::JacobiOperator;
use asynciter_sim::compute::ComputeModel;
use asynciter_sim::session::Sim;

#[test]
fn a_processor_never_reads_an_older_label_than_its_last_phase() {
    let n = 12;
    let op = JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap();
    let links = [
        LinkModel::Jitter { lo: 1, hi: 12 },
        LinkModel::HeavyTail {
            scale: 1,
            alpha: 1.3,
        },
    ];
    // Classic exchange, and four inner iterations with two partials.
    let phases = [(1, 0), (4, 2)];
    for link in links {
        for (inner_steps, partial_sends) in phases {
            for procs in [2, 3] {
                for seed in 0..4 {
                    let partition = Partition::blocks(n, procs).unwrap();
                    let sim = Sim {
                        compute: vec![ComputeModel::Uniform { lo: 1, hi: 4 }; procs],
                        link,
                        inner_steps,
                        partial_sends,
                    };
                    let report = Session::new(&op)
                        .steps(400)
                        .seed(seed)
                        .record(RecordMode::Full)
                        .backend(sim)
                        .run()
                        .unwrap();
                    let trace = report.trace.expect("RecordMode::Full");
                    let case = format!("procs {procs} {link:?} m {inner_steps} seed {seed}");
                    let mut last_read: Vec<Option<&[u64]>> = vec![None; procs];
                    for (j, step) in trace.iter() {
                        let p = partition.machine_of(step.active[0] as usize);
                        let read = trace.labels(j).unwrap();
                        if let Some(before) = last_read[p] {
                            if let Some(c) = (0..n).find(|&c| read[c] < before[c]) {
                                panic!("{case}: p{p} comp {c} regressed at j {j}");
                            }
                        }
                        last_read[p] = Some(read);
                    }
                }
            }
        }
    }
}
