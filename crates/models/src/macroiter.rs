//! The macro-iteration sequence (Definition 2).
//!
//! With `l(j) = min_h l_h(j)`, the macro-iteration sequence `{j_k}` is
//!
//! ```text
//! j_0 = 0,
//! j_{k+1} = min_j { ⋃_{ r ≤ j,  l(r) ≥ j_k } S_r  =  {1, …, n} } :
//! ```
//!
//! the earliest iteration by which *every* component has been updated at
//! least once using only information labelled at or after the previous
//! macro-label. Macro-iterations are the unit in which totally
//! asynchronous convergence proofs advance (one contraction factor per
//! macro-iteration in Theorem 1), and — unlike the epoch sequence of
//! Mishchenko–Iutzeler–Malick — they remain meaningful under out-of-order
//! messages because they are defined through the labels actually read.
//!
//! [`OnlineMacroTracker`] is the one coverage walk, fed step by step by
//! the engines; two offline variants fold it over a recorded trace:
//!
//! - [`macro_iterations`] — the literal Definition 2. Coverage is
//!   required, but a step *after* `j_{k+1}` may still read a label older
//!   than `j_k` when delivery is out of order.
//! - [`macro_iterations_strict`] — additionally requires that every step
//!   after the boundary reads labels `≥ j_k` (checked against the suffix
//!   minima of `l(j)`). This is the box semantics of Bertsekas's General
//!   Convergence Theorem under which the per-macro-iteration contraction
//!   argument of Theorem 1 is airtight; on in-order traces the two
//!   variants typically coincide or differ by a few steps.

use crate::trace::Trace;

/// A computed macro-iteration sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroIterations {
    /// `j_0 = 0 < j_1 < j_2 < …`: the macro labels that completed within
    /// the trace.
    pub boundaries: Vec<u64>,
}

impl MacroIterations {
    /// Number of *completed* macro-iterations `k` (excludes `j_0`).
    pub fn count(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Lengths `j_{k+1} − j_k` of completed macro-iterations.
    pub fn lengths(&self) -> Vec<u64> {
        self.boundaries.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// The macro index `k(j) = max{k : j_k ≤ j}` of iteration `j`.
    pub fn index_of(&self, j: u64) -> usize {
        // boundaries is strictly increasing and starts at 0.
        self.boundaries.partition_point(|&b| b <= j) - 1
    }
}

/// Streaming macro-iteration detector (literal Definition 2).
///
/// Feed every executed step; boundaries are reported as they complete.
#[derive(Debug, Clone)]
pub struct OnlineMacroTracker {
    jk: u64,
    covered: Vec<bool>,
    count: usize,
    boundaries: u64,
}

impl OnlineMacroTracker {
    /// Tracker over `n` components.
    pub fn new(n: usize) -> Self {
        Self {
            jk: 0,
            covered: vec![false; n],
            count: 0,
            boundaries: 0,
        }
    }

    /// Observes step `j` with active set `active` and oldest read label
    /// `min_label`; returns `Some(j)` when `j` completes a
    /// macro-iteration.
    pub fn observe(&mut self, j: u64, active: &[usize], min_label: u64) -> Option<u64> {
        self.step(j, active.iter().copied(), min_label, |_| true)
    }

    /// [`Self::observe`], except that a covered step completes the
    /// macro-iteration only once `accept(j_k)` holds.
    fn step(
        &mut self,
        j: u64,
        active: impl Iterator<Item = usize>,
        min_label: u64,
        accept: impl FnOnce(u64) -> bool,
    ) -> Option<u64> {
        if min_label >= self.jk {
            for i in active {
                if !self.covered[i] {
                    self.covered[i] = true;
                    self.count += 1;
                }
            }
        }
        if self.count < self.covered.len() || !accept(self.jk) {
            return None;
        }
        self.jk = j;
        self.covered.fill(false);
        self.count = 0;
        self.boundaries += 1;
        Some(j)
    }

    /// Number of completed macro-iterations so far.
    pub fn completed(&self) -> u64 {
        self.boundaries
    }

    /// The most recent boundary `j_k` (0 before the first completes).
    pub fn last_boundary(&self) -> u64 {
        self.jk
    }
}

/// Folds the tracker over `trace`; a covered step `j` completes a
/// macro-iteration once `accept(j, j_k)` holds.
fn fold(trace: &Trace, accept: impl Fn(u64, u64) -> bool) -> MacroIterations {
    let mut tracker = OnlineMacroTracker::new(trace.n());
    let mut boundaries = vec![0u64];
    for (j, step) in trace.iter() {
        let active = step.active.iter().map(|&i| i as usize);
        boundaries.extend(tracker.step(j, active, step.min_label, |jk| accept(j, jk)));
    }
    MacroIterations { boundaries }
}

/// The literal Definition 2 macro-iteration sequence.
pub fn macro_iterations(trace: &Trace) -> MacroIterations {
    fold(trace, |_, _| true)
}

/// The strict (box-semantics) macro-iteration sequence: Definition 2 plus
/// the requirement that all reads after `j_{k+1}` carry labels `≥ j_k`.
pub fn macro_iterations_strict(trace: &Trace) -> MacroIterations {
    // `suffix[j]` is the oldest label read by any step `r > j` (vacuous
    // past the end): what is still in flight after a boundary at `j`.
    let suffix = trace.min_label_suffix();
    fold(trace, |j, jk| {
        suffix.get(j as usize).is_none_or(|&oldest| oldest >= jk)
    })
}

/// Counts freshness violations of a boundary sequence: steps `j` whose
/// oldest read `l(j)` is older than the *previous* boundary of the
/// interval containing `j`. For the macro-iteration guarantee of the paper
/// ("each update at `j ≥ j_{k+1}` uses values with labels `≥ j_k`") this
/// must be zero; for epoch sequences on out-of-order traces it typically
/// is not — which is experiment E2's quantitative comparison.
///
/// `boundaries` must start at 0 and be strictly increasing.
///
/// # Panics
/// Panics when `boundaries` is empty or does not start at 0.
pub fn boundary_freshness_violations(trace: &Trace, boundaries: &[u64]) -> u64 {
    assert!(!boundaries.is_empty(), "boundaries must be nonempty");
    assert_eq!(boundaries[0], 0, "boundaries must start at 0");
    let mut violations = 0u64;
    // For j in (boundaries[k], boundaries[k+1]] the containing interval is
    // k; the guarantee compares against boundaries[k-1] (nothing to check
    // for k = 0).
    let mut k = 0usize;
    for (j, step) in trace.iter() {
        while k + 1 < boundaries.len() && j > boundaries[k + 1] {
            k += 1;
        }
        if k >= 1 && step.min_label < boundaries[k - 1] {
            violations += 1;
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{record, ChaoticBounded, CyclicCoordinate, SyncJacobi};
    use crate::trace::LabelStore;

    #[test]
    fn sync_jacobi_macro_iteration_every_step() {
        // All components update every step with fresh labels, so each step
        // completes a macro-iteration.
        let t = record(&mut SyncJacobi::new(4), 10, LabelStore::Full);
        let m = macro_iterations(&t);
        assert_eq!(m.boundaries, (0..=10).collect::<Vec<u64>>());
        let ms = macro_iterations_strict(&t);
        assert_eq!(ms.boundaries, m.boundaries);
    }

    #[test]
    fn cyclic_macro_iteration_every_n_steps() {
        let t = record(&mut CyclicCoordinate::new(3), 12, LabelStore::Full);
        let m = macro_iterations(&t);
        assert_eq!(m.boundaries, vec![0, 3, 6, 9, 12]);
        assert_eq!(m.lengths(), vec![3, 3, 3, 3]);
        assert_eq!(m.count(), 4);
    }

    #[test]
    fn index_of_locates_intervals() {
        let m = MacroIterations {
            boundaries: vec![0, 3, 7],
        };
        assert_eq!(m.index_of(0), 0);
        assert_eq!(m.index_of(2), 0);
        assert_eq!(m.index_of(3), 1);
        assert_eq!(m.index_of(6), 1);
        assert_eq!(m.index_of(7), 2);
        assert_eq!(m.index_of(100), 2);
    }

    #[test]
    fn stale_reads_delay_macro_completion() {
        // Two components; component 1 keeps reading label 0 for a while:
        // coverage with l(r) >= j_k only counts once labels catch up.
        let mut t = Trace::new(2, LabelStore::Full);
        t.push_step(&[0], &[0, 0]); // j=1, l = 0 >= 0 → covers {0}
        t.push_step(&[1], &[0, 0]); // j=2, covers {1} → macro at 2
        t.push_step(&[0], &[0, 0]); // j=3: l(3) = 0 < 2 → does NOT count
        t.push_step(&[1], &[2, 2]); // j=4: covers {1}
        t.push_step(&[0], &[3, 3]); // j=5: covers {0} → macro at 5
        let m = macro_iterations(&t);
        assert_eq!(m.boundaries, vec![0, 2, 5]);
    }

    #[test]
    fn strict_postpones_until_flush() {
        // Coverage completes at j=2, but j=3 still reads label 0 (< j_1
        // candidate 2), so the strict boundary moves to j=3's completion
        // point where the suffix condition holds.
        let mut t = Trace::new(2, LabelStore::Full);
        t.push_step(&[0], &[0, 0]); // j=1
        t.push_step(&[1], &[1, 0]); // j=2: literal boundary here
        t.push_step(&[0], &[0, 1]); // j=3: reads label 0 — stale
        t.push_step(&[1], &[3, 3]); // j=4
        t.push_step(&[0], &[3, 3]); // j=5
        let literal = macro_iterations(&t);
        assert_eq!(literal.boundaries[1], 2);
        let strict = macro_iterations_strict(&t);
        // At j=2 the future still contains a read of label 0 < 2... but
        // jk is 0 at that point, and 0 >= 0 holds, so the boundary at 2 is
        // accepted (freshness is measured against the *previous* label
        // j_0 = 0). The second strict macro-iteration must then wait past
        // the stale j=3 read: coverage for jk=2 needs steps with l >= 2:
        // j=4 covers {1}, j=5 covers {0} → boundary 5, and suffix min
        // after 5 is vacuous.
        assert_eq!(strict.boundaries, vec![0, 2, 5]);
        // Literal also finds 5 here (the stale step simply doesn't count
        // towards coverage).
        assert_eq!(literal.boundaries, vec![0, 2, 5]);
    }

    #[test]
    fn strict_boundary_guarantees_zero_violations() {
        let mut g = ChaoticBounded::new(6, 1, 3, 10, false, 77);
        let t = record(&mut g, 3000, LabelStore::Full);
        let strict = macro_iterations_strict(&t);
        assert!(strict.count() > 10, "expected many macro-iterations");
        assert_eq!(boundary_freshness_violations(&t, &strict.boundaries), 0);
    }

    #[test]
    fn literal_never_later_than_strict() {
        let mut g = ChaoticBounded::new(5, 1, 3, 12, false, 13);
        let t = record(&mut g, 2000, LabelStore::Full);
        let lit = macro_iterations(&t);
        let strict = macro_iterations_strict(&t);
        assert!(lit.count() >= strict.count());
        // Each strict boundary is >= the corresponding literal boundary.
        for (a, b) in lit.boundaries.iter().zip(&strict.boundaries) {
            assert!(b >= a);
        }
    }

    #[test]
    fn out_of_order_boundaries_are_pinned() {
        // A delayed, out-of-order trace whose boundaries were computed by
        // the offline walk that preceded the tracker fold.
        let mut g = ChaoticBounded::new(5, 1, 3, 9, false, 33);
        let t = record(&mut g, 2000, LabelStore::Full);
        let mut tracker = OnlineMacroTracker::new(5);
        let mut online = vec![0u64];
        for (j, s) in t.iter() {
            let active: Vec<usize> = s.active.iter().map(|&i| i as usize).collect();
            online.extend(tracker.observe(j, &active, s.min_label));
        }
        assert_eq!(online[..10], [0, 7, 17, 28, 43, 55, 72, 83, 98, 117]);
        assert_eq!((tracker.completed(), online.len()), (166, 167));
        assert_eq!(macro_iterations(&t).boundaries, online);
    }

    #[test]
    fn bounded_delay_macro_lengths_are_bounded() {
        // With delays <= b and all components updated within every window
        // of n steps (k_min = n), macro-iterations complete within ~b + n.
        let mut g = ChaoticBounded::new(4, 4, 4, 5, false, 5);
        let t = record(&mut g, 1000, LabelStore::Full);
        let m = macro_iterations(&t);
        assert!(m.count() > 50);
        let max_len = m.lengths().into_iter().max().unwrap();
        assert!(max_len <= 16, "max macro length {max_len}");
    }

    #[test]
    fn freshness_violations_counted_against_coarse_boundaries() {
        // Use a deliberately wrong boundary sequence (every step a
        // boundary) on a delayed trace: violations must be positive.
        let mut g = ChaoticBounded::new(4, 1, 2, 20, false, 3);
        let t = record(&mut g, 500, LabelStore::Full);
        let every_step: Vec<u64> = (0..=500).collect();
        assert!(boundary_freshness_violations(&t, &every_step) > 0);
    }

    #[test]
    #[should_panic(expected = "start at 0")]
    fn violations_require_zero_start() {
        let t = record(&mut SyncJacobi::new(2), 5, LabelStore::Full);
        boundary_freshness_violations(&t, &[1, 3]);
    }
}
