//! Recorded executions of asynchronous iterations.
//!
//! A [`Trace`] is the concrete realisation of the pair `(𝒮, ℒ)` from
//! Definition 1 over a finite run: for every iteration `j = 1, 2, …` it
//! stores the updated set `S_j` and the read labels `(l_1(j), …, l_n(j))`.
//! All of the paper's analytic objects — conditions (a)–(d), the
//! macro-iteration sequence, the epoch sequence, delay statistics — are
//! computed from traces, whether they come from a synthetic schedule
//! generator, the discrete-event simulator, or a real multi-threaded run.
//!
//! Full per-step label vectors cost `O(n)` memory per step; long runs on
//! large problems can opt into [`LabelStore::MinOnly`], which keeps only
//! `l(j) = min_h l_h(j)` (sufficient for macro-iterations) and the delay
//! of the *performing* update.

use crate::error::ModelError;
use crate::partition::Partition;

/// How much label information a trace retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelStore {
    /// Keep the full label vector `(l_1(j), …, l_n(j))` for every step.
    Full,
    /// Keep only `l(j) = min_h l_h(j)` per step.
    MinOnly,
}

/// One recorded iteration: the set `S_j` and label summary for step `j`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// Components updated at this iteration (`S_j`), strictly increasing.
    pub active: Vec<u32>,
    /// `l(j) = min_h l_h(j)`: the oldest label read by this update.
    pub min_label: u64,
}

/// Whether `(active, labels)` is a structurally valid step over `n`
/// components: `S_j` non-empty, strictly increasing and below `n`, with
/// `n` labels. The one definition behind [`Trace::push_step`]'s panic
/// and the typed schedule error of the `asynciter-core` step loop.
pub fn well_formed_step(active: &[usize], labels: &[u64], n: usize) -> bool {
    labels.len() == n && well_formed_active(active, n)
}

pub(crate) fn well_formed_active(active: &[usize], n: usize) -> bool {
    active.last().is_some_and(|&i| i < n) && active.is_sorted_by(|a, b| a < b)
}

/// A recorded execution of an asynchronous iteration.
#[derive(Debug, Clone)]
pub struct Trace {
    n: usize,
    steps: Vec<TraceStep>,
    /// Full labels per step when `LabelStore::Full`; empty otherwise.
    labels: Vec<Vec<u64>>,
    store: LabelStore,
}

impl Trace {
    /// Creates an empty trace over `n` components.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn new(n: usize, store: LabelStore) -> Self {
        assert!(n > 0, "Trace::new: n must be positive");
        Self {
            n,
            steps: Vec::new(),
            labels: Vec::new(),
            store,
        }
    }

    /// Number of components `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of recorded iterations `J`; steps are `j = 1..=J`.
    #[inline]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when no step has been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Label storage mode.
    #[inline]
    pub fn store(&self) -> LabelStore {
        self.store
    }

    /// Records iteration `j = self.len() + 1`.
    ///
    /// `active` must be a nonempty strictly-increasing list of component
    /// indices; `labels` must have length `n` with every entry `≤ j − 1`
    /// *for the trace to satisfy condition (a)* — this method records
    /// whatever it is given (checkers live in [`crate::conditions`]), but
    /// enforces structural validity.
    ///
    /// # Panics
    /// Panics when `active` is empty/unsorted/out-of-range or when
    /// `labels.len() != n` (see [`well_formed_step`]).
    pub fn push_step(&mut self, active: &[usize], labels: &[u64]) {
        assert!(
            labels.len() == self.n,
            "push_step: labels must have length n"
        );
        let min_label = labels.iter().copied().min().expect("n > 0");
        self.push(active, min_label, Some(labels));
    }

    /// [`Trace::push_step`] from `l(j) = min_label` alone, for recorders
    /// that hold the minimum and not the vector: under
    /// [`LabelStore::Full`] every label of the step is `min_label`.
    ///
    /// # Panics
    /// As [`Trace::push_step`] on `active`.
    pub fn push_min_step(&mut self, active: &[usize], min_label: u64) {
        self.push(active, min_label, None);
    }

    fn push(&mut self, active: &[usize], min_label: u64, labels: Option<&[u64]>) {
        assert!(
            well_formed_active(active, self.n),
            "push_step: S_j must be nonempty, strictly increasing and in range"
        );
        self.steps.push(TraceStep {
            active: active.iter().map(|&i| i as u32).collect(),
            min_label,
        });
        if self.store == LabelStore::Full {
            self.labels
                .push(labels.map_or_else(|| vec![min_label; self.n], <[u64]>::to_vec));
        }
    }

    /// The recorded step for iteration `j` (1-based).
    ///
    /// # Panics
    /// Panics when `j` is 0 or beyond the recorded range.
    #[inline]
    pub fn step(&self, j: u64) -> &TraceStep {
        assert!(
            j >= 1 && (j as usize) <= self.steps.len(),
            "step: j out of range"
        );
        &self.steps[j as usize - 1]
    }

    /// Full label vector of iteration `j` (1-based).
    ///
    /// # Errors
    /// [`ModelError::LabelsNotStored`] when recorded with
    /// [`LabelStore::MinOnly`].
    ///
    /// # Panics
    /// Panics when `j` is out of range.
    pub fn labels(&self, j: u64) -> crate::Result<&[u64]> {
        if self.store != LabelStore::Full {
            return Err(ModelError::LabelsNotStored);
        }
        assert!(
            j >= 1 && (j as usize) <= self.labels.len(),
            "labels: j out of range"
        );
        Ok(&self.labels[j as usize - 1])
    }

    /// Iterates over `(j, step)` pairs in increasing `j`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &TraceStep)> {
        self.steps
            .iter()
            .enumerate()
            .map(|(k, s)| (k as u64 + 1, s))
    }

    /// Iteration indices at which component `i` was updated.
    pub fn activations_of(&self, i: usize) -> Vec<u64> {
        assert!(i < self.n, "activations_of: component out of range");
        self.iter()
            .filter(|(_, s)| s.active.binary_search(&(i as u32)).is_ok())
            .map(|(j, _)| j)
            .collect()
    }

    /// Count of updates performed by each machine under `partition`
    /// (a step updating components on several machines counts once per
    /// machine touched).
    ///
    /// # Panics
    /// Panics when the partition dimension disagrees with the trace.
    pub fn machine_update_counts(&self, partition: &Partition) -> Vec<u64> {
        assert_eq!(partition.n(), self.n, "machine_update_counts: dimension");
        let mut counts = vec![0u64; partition.num_machines()];
        let mut touched = vec![false; partition.num_machines()];
        for s in &self.steps {
            touched.fill(false);
            for &i in &s.active {
                touched[partition.machine_of(i as usize)] = true;
            }
            for (m, &t) in touched.iter().enumerate() {
                if t {
                    counts[m] += 1;
                }
            }
        }
        counts
    }

    /// Suffix minima of `l(j)`: `flush[j-1] = min_{r ≥ j} l(r)`, the
    /// "oldest information still in flight at or after step j". Used by the
    /// strict macro-iteration sequence and the condition (b) checker.
    pub fn min_label_suffix(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.steps.len()];
        let mut acc = u64::MAX;
        for (k, s) in self.steps.iter().enumerate().rev() {
            acc = acc.min(s.min_label);
            out[k] = acc;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_trace() -> Trace {
        let mut t = Trace::new(2, LabelStore::Full);
        t.push_step(&[0], &[0, 0]); // j = 1
        t.push_step(&[1], &[1, 0]); // j = 2
        t.push_step(&[0, 1], &[1, 2]); // j = 3
        t
    }

    #[test]
    fn push_and_read_back() {
        let t = toy_trace();
        assert_eq!(t.len(), 3);
        assert_eq!(t.step(1).active, vec![0]);
        assert_eq!(t.step(3).active, vec![0, 1]);
        assert_eq!(t.step(2).min_label, 0);
        assert_eq!(t.labels(3).unwrap(), &[1, 2]);
    }

    #[test]
    fn min_only_rejects_label_queries() {
        let mut t = Trace::new(2, LabelStore::MinOnly);
        t.push_step(&[0], &[0, 0]);
        assert_eq!(t.labels(1), Err(ModelError::LabelsNotStored));
        assert_eq!(t.step(1).min_label, 0);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_active_panics() {
        let mut t = Trace::new(2, LabelStore::Full);
        t.push_step(&[], &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_active_panics() {
        let mut t = Trace::new(3, LabelStore::Full);
        t.push_step(&[1, 0], &[0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "length n")]
    fn wrong_label_count_panics() {
        let mut t = Trace::new(3, LabelStore::Full);
        t.push_step(&[0], &[0, 0]);
    }

    #[test]
    fn activations_of_component() {
        let t = toy_trace();
        assert_eq!(t.activations_of(0), vec![1, 3]);
        assert_eq!(t.activations_of(1), vec![2, 3]);
    }

    #[test]
    fn machine_counts_identity() {
        let t = toy_trace();
        let p = Partition::identity(2);
        assert_eq!(t.machine_update_counts(&p), vec![2, 2]);
    }

    #[test]
    fn machine_counts_single_machine() {
        let t = toy_trace();
        let p = Partition::blocks(2, 1).unwrap();
        // Every step touches machine 0 exactly once.
        assert_eq!(t.machine_update_counts(&p), vec![3]);
    }

    #[test]
    fn min_label_suffix_is_suffix_min() {
        let t = toy_trace();
        // min labels per step: 0, 0, 1 → suffix minima: 0, 0, 1.
        assert_eq!(t.min_label_suffix(), vec![0, 0, 1]);
    }

    #[test]
    fn iter_yields_one_based_indices() {
        let t = toy_trace();
        let js: Vec<u64> = t.iter().map(|(j, _)| j).collect();
        assert_eq!(js, vec![1, 2, 3]);
    }
}
