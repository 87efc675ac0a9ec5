//! Scopes: the small universes the explorer enumerates exhaustively.
//!
//! Bounded model checking trades generality for completeness — a scope
//! pins the worker count, the producing-step horizon, and which channel
//! nondeterminism is enabled, so the reachable state space is finite
//! and small enough to visit *every* state. The named scopes below are
//! the committed tiers: `quick` is the CI sweep (drops + duplicates +
//! reorders under `KeepFreshest`), `flex` adds flexible
//! partial-exchange subset choices, `reorder` is the out-of-order
//! rediscovery probe (`AsReceived` + holds, the
//! `fault-cluster-reorder.trace` violation class), and `inject` is the
//! negative-control universe for the severed-label bug.

use asynciter_models::conditions::DelayEnvelope;
use asynciter_models::Partition;
use asynciter_numerics::sparse::tridiagonal;
use asynciter_numerics::vecops;
use asynciter_opt::linear::JacobiOperator;
use asynciter_opt::traits::Operator;

/// Problem dimension of every scope — matches the conformance Jacobi
/// problem (`ConformanceProblem::build(ProblemKind::Jacobi)`), so
/// emitted counterexamples slot straight into the corpus checks that
/// match traces to problems by dimension.
pub const MC_DIM: usize = 16;

/// The fixed-point problem a scope is explored on: the conformance
/// Jacobi instance (tridiagonal(16, 4, −1), b = 1), which is a max-norm
/// contraction with factor ½ — the contraction certificate the
/// residual-monotonicity invariant checks against.
pub struct McProblem {
    /// The operator (all workers step this).
    pub op: JacobiOperator,
    /// Canonical start (all zeros).
    pub x0: Vec<f64>,
    /// The exact fixed point (for error measurements only).
    pub xstar: Vec<f64>,
    /// Max-norm contraction factor of `op`.
    pub alpha: f64,
    /// Initial error `‖x0 − x*‖_∞`.
    pub e0: f64,
}

impl McProblem {
    /// Builds the canonical scope problem.
    ///
    /// # Panics
    /// Never in practice (the static Jacobi instance is well-formed).
    pub fn build() -> Self {
        let op = JacobiOperator::new(tridiagonal(MC_DIM, 4.0, -1.0), vec![1.0; MC_DIM])
            .expect("static Jacobi instance");
        let xstar = op.solve_dense_spd().expect("SPD solve");
        let x0 = vec![0.0; MC_DIM];
        let alpha = op.contraction_factor();
        let e0 = vecops::max_abs_diff(&x0, &xstar);
        Self {
            op,
            x0,
            xstar,
            alpha,
            e0,
        }
    }

    /// Dimension `n`.
    pub fn n(&self) -> usize {
        self.op.dim()
    }
}

/// Receiver policy, re-exported from the runtime for scope literals.
pub use asynciter_runtime::ApplyPolicy;

/// One bounded universe for the explorer.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Scope name (reports, artefact file names).
    pub name: String,
    /// Worker (shard) count; blocks are `Partition::blocks(n, workers)`.
    pub workers: usize,
    /// Producing-step horizon (total global steps).
    pub steps: u64,
    /// Receiver policy applied on delivery.
    pub apply_policy: ApplyPolicy,
    /// Admissibility envelope used as a *pruning* predicate on the spec
    /// label book: a branch whose read staleness leaves the envelope is
    /// not an admissible schedule of this scope and is cut (counted in
    /// `pruned_inadmissible`), never explored.
    pub envelope: DelayEnvelope,
    /// Allow the channel to drop a posted message.
    pub allow_drop: bool,
    /// Allow the channel to duplicate a posted message.
    pub allow_dup: bool,
    /// Flexible-communication publish subsets offered *in addition to*
    /// the full block, as index lists into the sender's block.
    pub partial_masks: Vec<Vec<usize>>,
    /// Mailbox capacity per worker; sends that would exceed it prune
    /// the branch (counted in `pruned_capacity`).
    pub max_in_flight: usize,
    /// Track each worker's previous read-label vector in the state (and
    /// its hash). Needed by the out-of-order (label-regression)
    /// property, which compares across a worker's consecutive turns.
    pub track_read_history: bool,
    /// Negative control: every delivered message arrives with the
    /// engine label of the first component of worker 1's block severed
    /// (the value is still applied). The spec book stays correct, so
    /// pruning is unaffected and the checker must catch the divergence.
    pub inject_bug: bool,
}

impl Scope {
    /// The CI sweep: 2 workers × 6 steps, drops + duplicates + holds
    /// (reorders) under `KeepFreshest`, envelope non-binding at the
    /// horizon.
    pub fn quick() -> Self {
        Self {
            name: "quick".into(),
            workers: 2,
            steps: 6,
            apply_policy: ApplyPolicy::KeepFreshest,
            envelope: DelayEnvelope::Bounded(6),
            allow_drop: true,
            allow_dup: true,
            partial_masks: Vec::new(),
            max_in_flight: 2,
            track_read_history: false,
            inject_bug: false,
        }
    }

    /// Flexible communication: every exchange chooses full block, lower
    /// half, or upper half — the Definition-1 flexible regime as an
    /// explicit branch point.
    pub fn flex() -> Self {
        let half = MC_DIM / 2 / 2; // half of one 2-worker block
        Self {
            name: "flex".into(),
            workers: 2,
            steps: 5,
            apply_policy: ApplyPolicy::KeepFreshest,
            envelope: DelayEnvelope::Bounded(5),
            allow_drop: false,
            allow_dup: false,
            partial_masks: vec![(0..half).collect(), (half..2 * half).collect()],
            max_in_flight: 2,
            track_read_history: false,
            inject_bug: false,
        }
    }

    /// Out-of-order rediscovery: `AsReceived` + held messages, so some
    /// interleaving applies an older message after a newer one — the
    /// violation class of the committed `fault-cluster-reorder.trace`.
    pub fn reorder() -> Self {
        Self {
            name: "reorder".into(),
            workers: 2,
            steps: 6,
            apply_policy: ApplyPolicy::AsReceived,
            envelope: DelayEnvelope::Bounded(6),
            allow_drop: false,
            allow_dup: false,
            partial_masks: Vec::new(),
            max_in_flight: 2,
            track_read_history: true,
            inject_bug: false,
        }
    }

    /// Negative control: a tight envelope forces prompt delivery, and
    /// the injected severed-label bug must surface as a spec/engine
    /// book divergence the moment the corrupted message is read.
    pub fn inject() -> Self {
        Self {
            name: "inject".into(),
            workers: 2,
            steps: 4,
            apply_policy: ApplyPolicy::AsReceived,
            envelope: DelayEnvelope::Bounded(2),
            allow_drop: false,
            allow_dup: false,
            partial_masks: Vec::new(),
            max_in_flight: 3,
            track_read_history: false,
            inject_bug: true,
        }
    }

    /// The 3-worker nightly scope: two full rounds of three workers
    /// with drops + duplicates + holds under `KeepFreshest` — the
    /// smallest universe where messages from *different* senders race
    /// in one mailbox. Exhaustive within the nightly budget; the
    /// partial-order reduction cuts it several-fold (locked in tier-1).
    pub fn triple() -> Self {
        Self {
            name: "triple".into(),
            workers: 3,
            steps: 6,
            apply_policy: ApplyPolicy::KeepFreshest,
            envelope: DelayEnvelope::Bounded(6),
            allow_drop: true,
            allow_dup: true,
            partial_masks: Vec::new(),
            max_in_flight: 2,
            track_read_history: false,
            inject_bug: false,
        }
    }

    /// The horizon-8 nightly scope: `quick`'s channel nondeterminism
    /// pushed two rounds deeper, where delayed-delivery chains that a
    /// 6-step horizon truncates run to completion.
    pub fn deep() -> Self {
        Self {
            name: "deep".into(),
            steps: 8,
            envelope: DelayEnvelope::Bounded(8),
            ..Self::quick()
        }
    }

    /// The horizon-10 nightly scope: the deepest committed universe.
    /// Only feasible because of the partial-order reduction — the
    /// nightly job runs it `--por on` with a reduced-count lock.
    pub fn deeper() -> Self {
        Self {
            name: "deeper".into(),
            steps: 10,
            envelope: DelayEnvelope::Bounded(10),
            ..Self::quick()
        }
    }

    /// Looks a named scope up.
    ///
    /// # Errors
    /// Unknown name, as a message listing the valid ones.
    pub fn by_name(name: &str) -> Result<Self, String> {
        match name {
            "quick" => Ok(Self::quick()),
            "flex" => Ok(Self::flex()),
            "reorder" => Ok(Self::reorder()),
            "inject" => Ok(Self::inject()),
            "triple" => Ok(Self::triple()),
            "deep" => Ok(Self::deep()),
            "deeper" => Ok(Self::deeper()),
            other => Err(format!(
                "unknown scope '{other}' (valid: quick, flex, reorder, inject, \
                 triple, deep, deeper)"
            )),
        }
    }

    /// Derives a minimal scope from a conformance-corpus counterexample
    /// trace, so any fuzzer find auto-generates an exhaustive
    /// regression universe: the worker count is recovered by matching
    /// the trace's active sets against round-robin block partitions
    /// (shrunk corpus traces carry minimised active sets, so each step
    /// need only activate a *subset* of its round-robin block), the
    /// envelope is the tightest `Bounded` the trace's read labels
    /// satisfy, and the policy is `AsReceived` (with read-history
    /// tracking) exactly when the trace exhibits a label regression.
    ///
    /// # Errors
    /// Traces of the wrong dimension, with non-block active sets, or
    /// without full labels, as a message.
    pub fn from_trace(stem: &str, trace: &asynciter_models::Trace) -> Result<Self, String> {
        if trace.n() != MC_DIM {
            return Err(format!(
                "--from-trace: trace dimension {} != scope dimension {MC_DIM}",
                trace.n()
            ));
        }
        if trace.is_empty() {
            return Err("--from-trace: empty trace".into());
        }
        let workers = (2..=3usize)
            .find(|&w| {
                let p = Partition::blocks(MC_DIM, w).expect("scope partition");
                (1..=trace.len() as u64).all(|j| {
                    let block = p.components_of(((j - 1) % w as u64) as usize);
                    let active = &trace.step(j).active;
                    !active.is_empty() && active.iter().all(|&c| block.contains(&(c as usize)))
                })
            })
            .ok_or_else(|| {
                format!("--from-trace: '{stem}' has no round-robin 2- or 3-worker block schedule")
            })?;
        let mut staleness = 1u64;
        for j in 1..=trace.len() as u64 {
            let labels = trace
                .labels(j)
                .map_err(|e| format!("--from-trace: '{stem}' stores no labels: {e}"))?;
            for &l in labels {
                staleness = staleness.max(j.saturating_sub(l));
            }
        }
        let reordering = asynciter_conformance::cluster::has_label_regression(trace, workers);
        if reordering {
            // An out-of-order application needs room under round-robin:
            // the overtaken message and its overtaker are the same
            // sender's turns (≥ `workers` steps apart), the overtaker
            // was read one receiver turn (`workers` steps) earlier, and
            // the stale label must still clear the envelope floor at
            // the regressing read — so the class is admissible only for
            // `b ≥ 2·workers + 1`. Shrunk corpus traces understate this
            // (the shrinker minimises labels, not schedules).
            staleness = staleness.max(2 * workers as u64 + 1);
        }
        // The regression universe needs enough rounds for the source
        // trace's violation class (a delayed message overtaken by a
        // fresher one takes three of its sender's turns end to end),
        // not the source trace's full length — deriving a 3-worker
        // scope from a 20-step fuzzer find must still be exhaustively
        // explorable.
        let steps = (trace.len() as u64)
            .min(3 * workers as u64)
            .max(2 * workers as u64);
        Ok(Self {
            name: format!("from-{stem}"),
            workers,
            steps,
            apply_policy: if reordering {
                ApplyPolicy::AsReceived
            } else {
                ApplyPolicy::KeepFreshest
            },
            envelope: DelayEnvelope::Bounded(staleness),
            allow_drop: false,
            allow_dup: false,
            partial_masks: Vec::new(),
            // Two queued messages per incoming sender stream: enough
            // capacity for any pairwise out-of-order delivery the
            // source trace's regression class needs.
            max_in_flight: 2 * (workers - 1),
            track_read_history: reordering,
            inject_bug: false,
        })
    }

    /// Rejects a universe the explorer cannot run: an empty horizon, or
    /// a partial mask indexing past the smallest block of the
    /// partition (`--workers` can shrink the blocks under a mask).
    ///
    /// # Errors
    /// What is wrong, as a message.
    pub fn validate(&self) -> Result<(), String> {
        if self.steps == 0 {
            return Err(format!(
                "scope '{}': the horizon must be at least 1 step",
                self.name
            ));
        }
        let smallest = MC_DIM / self.workers;
        match self.partial_masks.iter().flatten().max() {
            Some(&k) if k >= smallest => Err(format!(
                "scope '{}': partial mask index {k} is outside the smallest block \
                 ({smallest} components with {} workers)",
                self.name, self.workers
            )),
            _ => Ok(()),
        }
    }

    /// Worker owning global step `j` (round-robin, 1-based steps).
    pub fn owner(&self, j: u64) -> usize {
        ((j - 1) % self.workers as u64) as usize
    }

    /// One-line description for reports.
    pub fn describe(&self) -> String {
        format!(
            "scope {}: {} workers x {} steps, {:?}, envelope {}, drop={}, dup={}, \
             partial-masks={}, capacity={}{}",
            self.name,
            self.workers,
            self.steps,
            self.apply_policy,
            self.envelope.describe(),
            self.allow_drop,
            self.allow_dup,
            self.partial_masks.len(),
            self.max_in_flight,
            if self.inject_bug {
                ", INJECTED BUG"
            } else {
                ""
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_scopes_resolve_and_partition() {
        for name in ["quick", "flex", "reorder", "inject"] {
            let s = Scope::by_name(name).unwrap();
            assert_eq!(s.name, name);
            s.validate().unwrap();
        }
        assert!(Scope::by_name("nope").is_err());
    }

    #[test]
    fn validate_rejects_masks_wider_than_the_smallest_block() {
        let mut s = Scope::flex();
        s.workers = 3; // blocks of 6, 5, 5: mask index 7 fits none
        assert!(s.validate().unwrap_err().contains("partial mask index 7"));
        s.partial_masks = vec![vec![4]];
        s.validate().unwrap();
        s.steps = 0;
        assert!(s.validate().unwrap_err().contains("horizon"));
    }

    #[test]
    fn round_robin_owner() {
        let s = Scope::quick();
        assert_eq!(s.owner(1), 0);
        assert_eq!(s.owner(2), 1);
        assert_eq!(s.owner(3), 0);
    }

    #[test]
    fn problem_is_a_half_contraction() {
        let p = McProblem::build();
        assert_eq!(p.n(), MC_DIM);
        assert!((p.alpha - 0.5).abs() < 1e-12);
        assert!(p.e0 > 0.0);
    }
}
