//! Seeded sampling of message-passing (cluster) fuzz cases.
//!
//! A [`ClusterPlan`] is the genotype of one message-level fuzz case:
//! the [`Cluster`] backend it runs — a worker count, an exchange period,
//! a receiver policy and a channel model (link latency distribution +
//! hold/drop/duplicate fault probabilities + flexible partial-exchange
//! probability) — with its step budget and channel seed, all derived
//! from one seed. The run is a deterministic function of
//! `(plan, problem)` — a failing case replays from its plan alone,
//! exactly like the schedule plans in [`crate::plan`].
//!
//! The cluster engine records the schedule it *executes* (labels =
//! producing steps), which the differential oracle
//! [`crate::oracle::cluster_replay_equivalence`] injects back through
//! the Definition-1 replay engine and compares bit for bit — the
//! message-passing analogue of the Sim↔Replay oracle, covering
//! out-of-order, lossy, duplicating and partially-communicating
//! channels.
//!
//! [`ThreadedPlan`] is the concurrent sibling: the same fault recipe
//! executed by free-running worker threads. Its runs are racy, so the
//! matching oracle ([`crate::oracle::threaded_replay_equivalence`])
//! verifies each live run against its own recorded trace instead of
//! regenerating from the plan.

use asynciter_models::channel::LinkModel;
use asynciter_runtime::session::{Cluster, ThreadedCluster};
use asynciter_runtime::ApplyPolicy;
use rand::rngs::StdRng;
use rand::RngExt;

/// One message-passing fuzz case: a seeded channel-model recipe.
#[derive(Debug, Clone)]
pub struct ClusterPlan {
    /// The backend the case runs: worker count, exchange period,
    /// receiver policy and channel model.
    pub backend: Cluster,
    /// Global step budget of the run.
    pub steps: u64,
    /// Channel-model seed.
    pub seed: u64,
}

/// The draws every cluster plan makes after its worker count (and
/// link), in the order they have always been made — the committed
/// corpus traces are phenotypes of this stream: the seed, then the
/// fields below in the order written (a struct literal evaluates its
/// fields in source order). Returned as the threaded recipe, which is
/// the cluster's without a link.
///
/// Fault probabilities are capped (hold ≤ 0.4, drop ≤ 0.25, dup ≤ 0.2)
/// so every sampled channel still converges within the problem budgets
/// — the convergence oracle runs on every case.
fn sample_channel(rng_: &mut StdRng, workers: usize) -> (u64, ThreadedCluster) {
    let seed = rng_.random::<u64>();
    let channel = ThreadedCluster {
        workers,
        exchange_every: rng_.random_range(1..=3),
        apply_policy: if rng_.random() {
            ApplyPolicy::AsReceived
        } else {
            ApplyPolicy::KeepFreshest
        },
        hold_prob: rng_.random_range(0.0..0.4),
        hold_extra: rng_.random_range(4..=16),
        drop_prob: rng_.random_range(0.0..0.25),
        dup_prob: rng_.random_range(0.0..0.2),
        partial_prob: if rng_.random() {
            0.0
        } else {
            rng_.random_range(0.3..0.8)
        },
        quiesce: None,
    };
    (seed, channel)
}

impl ClusterPlan {
    /// Samples a random plan for an `n`-dimensional problem and `steps`
    /// global updates.
    ///
    /// # Panics
    /// Panics when `n < 4` or `steps == 0`.
    pub fn sample(rng_: &mut StdRng, n: usize, steps: u64) -> Self {
        assert!(n >= 4, "ClusterPlan::sample: need n >= 4");
        assert!(steps > 0, "ClusterPlan::sample: need steps > 0");
        let workers = rng_.random_range(2..=4.min(n / 2));
        let link = match rng_.random_range(0..3u32) {
            0 => LinkModel::Fixed {
                ticks: rng_.random_range(1..=2),
            },
            1 => {
                let lo = rng_.random_range(1..=2);
                LinkModel::Jitter {
                    lo,
                    hi: rng_.random_range(lo + 1..=8),
                }
            }
            _ => LinkModel::HeavyTail {
                scale: 1,
                alpha: rng_.random_range(1.2..2.2),
            },
        };
        let (seed, c) = sample_channel(rng_, workers);
        let backend = Cluster {
            workers,
            exchange_every: c.exchange_every,
            apply_policy: c.apply_policy,
            link,
            hold_prob: c.hold_prob,
            hold_extra: c.hold_extra,
            drop_prob: c.drop_prob,
            dup_prob: c.dup_prob,
            partial_prob: c.partial_prob,
        };
        Self {
            backend,
            steps,
            seed,
        }
    }

    /// One-line description for reports and failure records.
    pub fn describe(&self) -> String {
        let Self {
            backend,
            steps,
            seed,
        } = self;
        format!("cluster-plan(seed={seed:#x}, steps={steps}, {backend:?})")
    }
}

/// One *concurrent* message-passing fuzz case: a seeded fault recipe
/// for the genuinely threaded cluster.
///
/// Unlike [`ClusterPlan`], the run this describes is racy — the OS
/// scheduler decides the executed interleaving, so two runs of the same
/// plan record different traces. The plan is therefore not a
/// regenerable phenotype; the differential oracle
/// [`crate::oracle::threaded_replay_equivalence`] instead checks each
/// *live* run against its own recorded trace (bit-identical replay,
/// condition (a), convergence).
#[derive(Debug, Clone)]
pub struct ThreadedPlan {
    /// The backend the case runs: thread count, exchange period,
    /// receiver policy and fault recipe.
    pub backend: ThreadedCluster,
    /// Step budget — a backstop only; runs stop on a residual target.
    pub max_steps: u64,
    /// Fault/partial-selection seed (per-worker streams derive from it).
    pub seed: u64,
}

impl ThreadedPlan {
    /// Samples a random plan for an `n`-dimensional problem with a
    /// `max_steps` backstop budget, fault probabilities capped as for
    /// [`ClusterPlan::sample`].
    ///
    /// # Panics
    /// Panics when `n < 4` or `max_steps == 0`.
    pub fn sample(rng_: &mut StdRng, n: usize, max_steps: u64) -> Self {
        assert!(n >= 4, "ThreadedPlan::sample: need n >= 4");
        assert!(max_steps > 0, "ThreadedPlan::sample: need max_steps > 0");
        let workers = rng_.random_range(2..=4.min(n / 2));
        let (seed, backend) = sample_channel(rng_, workers);
        Self {
            backend,
            max_steps,
            seed,
        }
    }

    /// One-line description for reports and failure records.
    pub fn describe(&self) -> String {
        let Self {
            backend,
            max_steps,
            seed,
        } = self;
        format!("threaded-plan(seed={seed:#x}, max_steps={max_steps}, {backend:?})")
    }
}

/// Evidence of out-of-order message application in a cluster trace:
/// some worker's recorded read label for a component *decreased*
/// between two of its consecutive turns. Under round-robin scheduling
/// step `j` belongs to worker `(j − 1) mod workers`; a label can only
/// regress when an older message was applied after a newer one
/// (`ApplyPolicy::AsReceived` + a held delivery) — FIFO channels can
/// never produce it.
pub fn has_label_regression(trace: &asynciter_models::Trace, workers: usize) -> bool {
    if workers == 0 {
        return false;
    }
    let n = trace.n();
    // Last observed label vector per worker residue class.
    let mut last: Vec<Option<Vec<u64>>> = vec![None; workers];
    for j in 1..=trace.len() as u64 {
        let Ok(labels) = trace.labels(j) else {
            return false;
        };
        let w = ((j - 1) % workers as u64) as usize;
        if let Some(prev) = &last[w] {
            if (0..n).any(|c| labels[c] < prev[c]) {
                return true;
            }
        }
        last[w] = Some(labels.to_vec());
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{ConformanceProblem, ProblemKind};
    use asynciter_core::compare::{same_run, same_schedule, Fields};
    use asynciter_core::session::{RecordMode, Session};
    use asynciter_numerics::rng::rng;

    #[test]
    fn sampling_covers_links_and_policies() {
        let mut r = rng(42);
        let mut links = std::collections::BTreeSet::new();
        let mut policies = std::collections::BTreeSet::new();
        let mut partials = 0;
        for _ in 0..100 {
            let plan = ClusterPlan::sample(&mut r, 16, 100);
            links.insert(match plan.backend.link {
                LinkModel::Fixed { .. } => "fixed",
                LinkModel::Jitter { .. } => "jitter",
                LinkModel::HeavyTail { .. } => "heavy",
            });
            policies.insert(format!("{:?}", plan.backend.apply_policy));
            partials += usize::from(plan.backend.partial_prob > 0.0);
        }
        assert_eq!(links.len(), 3, "link kinds missed: {links:?}");
        assert_eq!(policies.len(), 2);
        assert!(partials > 20 && partials < 80);
    }

    #[test]
    fn plans_run_deterministically() {
        let problem = ConformanceProblem::build(ProblemKind::Jacobi);
        let mut r = rng(7);
        let plan = ClusterPlan::sample(&mut r, problem.n(), 400);
        let run = || {
            Session::new(problem.op.as_ref())
                .x0(problem.x0.clone())
                .steps(plan.steps)
                .seed(plan.seed)
                .record(RecordMode::Full)
                .backend(plan.backend.clone())
                .run()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(same_run(&a, &b, Fields::Computed), Ok(()));
        let schedules = same_schedule(&a.trace.unwrap(), &b.trace.unwrap());
        assert_eq!(schedules, Ok(()));
    }

    #[test]
    fn label_regression_detector() {
        use asynciter_models::{LabelStore, Trace};
        // Two workers over n = 2; worker 0 acts at odd steps. Labels
        // only grow: no regression.
        let mut t = Trace::new(2, LabelStore::Full);
        t.push_step(&[0], &[0, 0]);
        t.push_step(&[1], &[0, 0]);
        t.push_step(&[0], &[1, 2]);
        t.push_step(&[1], &[3, 2]);
        assert!(!has_label_regression(&t, 2));
        // Worker 1's view of component 0 regresses 3 → 1.
        let mut t = Trace::new(2, LabelStore::Full);
        t.push_step(&[0], &[0, 0]);
        t.push_step(&[1], &[3, 0]);
        t.push_step(&[0], &[1, 2]);
        t.push_step(&[1], &[1, 2]);
        assert!(has_label_regression(&t, 2));
        // The same steps viewed as one worker interleave legitimately.
        assert!(has_label_regression(&t, 1));
    }
}
