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
//! The sets `S_j` live in one arena per trace: a pushed set equal to one
//! of the last 16 distinct sets stored points at that copy instead of
//! making another. So a message-passing run, whose `S_j` is always one of
//! its workers' blocks, stores each block once, and a step costs an
//! offset, a length and `l(j) = min_h l_h(j)` (24 bytes) under
//! [`LabelStore::MinOnly`] — enough for macro-iterations — plus its `n`
//! labels (`8n` bytes) under [`LabelStore::Full`]. A schedule drawing
//! random subsets misses and pays `4|S_j|` bytes per step for its copy.
//! A recorder that knows a set recurs names the earlier step instead
//! ([`Trace::push_min_step_like`], [`Trace::push_step_like`]): that push
//! neither checks nor compares the set again.

use crate::error::ModelError;
use crate::partition::Partition;
use std::collections::VecDeque;

/// How much label information a trace retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelStore {
    /// Keep the full label vector `(l_1(j), …, l_n(j))` for every step.
    Full,
    /// Keep only `l(j) = min_h l_h(j)` per step.
    MinOnly,
}

/// One recorded iteration: the set `S_j` and label summary for step `j`,
/// borrowed from its [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep<'a> {
    /// Components updated at this iteration (`S_j`), strictly increasing.
    pub active: &'a [u32],
    /// `l(j) = min_h l_h(j)`: the oldest label read by this update.
    pub min_label: u64,
}

/// How many of the most recently stored distinct sets a push compares
/// `S_j` against before copying it: at least the largest worker count a
/// message-passing run records, so each worker's block is stored once.
const RECENT_SETS: usize = 16;

/// Where a step's `S_j` sits in [`Trace`]'s arena, and its `l(j)`.
#[derive(Debug, Clone, Copy)]
struct StepRec {
    start: usize,
    len: usize,
    min_label: u64,
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
    steps: Vec<StepRec>,
    /// Every distinct `S_j` stored, back to back; steps point into it.
    arena: Vec<u32>,
    /// `(start, len)` in `arena` of the last [`RECENT_SETS`] distinct sets
    /// stored, oldest first. On the heap: a `Trace` sits inline in every
    /// run report, recorded or not.
    recent: VecDeque<(usize, usize)>,
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
            arena: Vec::new(),
            recent: VecDeque::new(),
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
        let min_label = self.min_of(labels);
        let set = self.checked_intern(active);
        self.push(set, min_label, Some(labels));
    }

    /// [`Trace::push_step`] from `l(j) = min_label` alone, for recorders
    /// that hold the minimum and not the vector: under
    /// [`LabelStore::Full`] every label of the step is `min_label`.
    ///
    /// # Panics
    /// As [`Trace::push_step`] on `active`.
    pub fn push_min_step(&mut self, active: &[usize], min_label: u64) {
        let set = self.checked_intern(active);
        self.push(set, min_label, None);
    }

    /// [`Trace::push_step`] with `S_j` equal to the recorded `S_k`, in
    /// O(1) beside the labels: the set is neither checked again nor
    /// compared, since step `k` of this trace passed both. A recorder
    /// whose sets recur (a worker's block) pushes each set once by
    /// [`Trace::push_step`] and names that step afterwards.
    ///
    /// # Panics
    /// Panics when `k` is not a recorded step (`1 ≤ k ≤ len()`) or when
    /// `labels.len() != n`.
    pub fn push_step_like(&mut self, k: u64, labels: &[u64]) {
        let min_label = self.min_of(labels);
        self.push(self.set_of(k), min_label, Some(labels));
    }

    /// [`Trace::push_min_step`] with `S_j` equal to the recorded `S_k`:
    /// see [`Trace::push_step_like`].
    ///
    /// # Panics
    /// Panics when `k` is not a recorded step (`1 ≤ k ≤ len()`).
    pub fn push_min_step_like(&mut self, k: u64, min_label: u64) {
        self.push(self.set_of(k), min_label, None);
    }

    /// `l(j)` of a full label vector, checked to have length `n`.
    fn min_of(&self, labels: &[u64]) -> u64 {
        assert!(
            labels.len() == self.n,
            "push_step: labels must have length n"
        );
        labels.iter().copied().min().expect("n > 0")
    }

    /// `(start, len)` in the arena of recorded step `k`'s `S_k`.
    fn set_of(&self, k: u64) -> (usize, usize) {
        assert!(
            k >= 1 && k as usize <= self.steps.len(),
            "push_step_like: step {k} is not recorded"
        );
        let rec = &self.steps[k as usize - 1];
        (rec.start, rec.len)
    }

    fn checked_intern(&mut self, active: &[usize]) -> (usize, usize) {
        assert!(
            well_formed_active(active, self.n),
            "push_step: S_j must be nonempty, strictly increasing and in range"
        );
        self.intern(active)
    }

    fn push(&mut self, (start, len): (usize, usize), min_label: u64, labels: Option<&[u64]>) {
        self.steps.push(StepRec {
            start,
            len,
            min_label,
        });
        if self.store == LabelStore::Full {
            self.labels
                .push(labels.map_or_else(|| vec![min_label; self.n], <[u64]>::to_vec));
        }
    }

    /// `(start, len)` of `active` in the arena: a recent equal set's, or
    /// a fresh copy's.
    fn intern(&mut self, active: &[usize]) -> (usize, usize) {
        let arena = &self.arena;
        let same = |&&(start, len): &&(usize, usize)| {
            len == active.len()
                && (arena[start..start + len].iter().zip(active)).all(|(&a, &i)| a == i as u32)
        };
        if let Some(&hit) = self.recent.iter().find(same) {
            return hit;
        }
        let set = (self.arena.len(), active.len());
        self.arena.extend(active.iter().map(|&i| i as u32));
        if self.recent.len() == RECENT_SETS {
            self.recent.pop_front();
        }
        self.recent.push_back(set);
        set
    }

    fn view(&self, rec: &StepRec) -> TraceStep<'_> {
        TraceStep {
            active: &self.arena[rec.start..rec.start + rec.len],
            min_label: rec.min_label,
        }
    }

    /// The recorded step for iteration `j` (1-based).
    ///
    /// # Panics
    /// Panics when `j` is 0 or beyond the recorded range.
    #[inline]
    pub fn step(&self, j: u64) -> TraceStep<'_> {
        assert!(
            j >= 1 && (j as usize) <= self.steps.len(),
            "step: j out of range"
        );
        self.view(&self.steps[j as usize - 1])
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
    pub fn iter(&self) -> impl Iterator<Item = (u64, TraceStep<'_>)> {
        (self.steps.iter().enumerate()).map(|(k, s)| (k as u64 + 1, self.view(s)))
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
        for (_, s) in self.iter() {
            touched.fill(false);
            for &i in s.active {
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

    /// The store the arena replaced, one owned copy of `S_j` per step:
    /// the reference every query of an interned trace must agree with.
    struct Naive {
        sets: Vec<Vec<u32>>,
        mins: Vec<u64>,
        labels: Vec<Vec<u64>>,
    }

    /// Pushes every `(S_j, labels)` onto a [`Trace`] and onto a [`Naive`]
    /// store; under `MinOnly` through `push_min_step`, so both doors run.
    fn record_both(
        n: usize,
        store: LabelStore,
        steps: &[(Vec<usize>, Vec<u64>)],
    ) -> (Trace, Naive) {
        let mut t = Trace::new(n, store);
        let mut naive = Naive {
            sets: Vec::new(),
            mins: Vec::new(),
            labels: Vec::new(),
        };
        for (active, labels) in steps {
            let min = *labels.iter().min().unwrap();
            match store {
                LabelStore::Full => t.push_step(active, labels),
                LabelStore::MinOnly => t.push_min_step(active, min),
            }
            naive.sets.push(active.iter().map(|&i| i as u32).collect());
            naive.mins.push(min);
            naive.labels.push(labels.clone());
        }
        (t, naive)
    }

    fn naive_text(t: &Trace, naive: &Naive) -> String {
        let full = t.store() == LabelStore::Full;
        let mode = if full { "full" } else { "min" };
        let mut text = format!("asynciter-trace v1 n={} labels={mode}\n", t.n());
        for (k, set) in naive.sets.iter().enumerate() {
            let ints =
                |v: &mut dyn Iterator<Item = u64>| v.map(|x| format!(" {x}")).collect::<String>();
            let active = ints(&mut set.iter().map(|&i| u64::from(i)));
            let tail = if full {
                format!("l{}", ints(&mut naive.labels[k].iter().copied()))
            } else {
                format!("m {}", naive.mins[k])
            };
            text += &format!("{} a{active} | {tail}\n", k + 1);
        }
        text
    }

    fn assert_agree(t: &Trace, naive: &Naive) {
        assert_eq!(t.len(), naive.sets.len());
        for (j, s) in t.iter() {
            let k = j as usize - 1;
            assert_eq!(s, t.step(j), "iter and step disagree at j={j}");
            assert_eq!(s.active, naive.sets[k], "S_j at j={j}");
            assert_eq!(s.min_label, naive.mins[k], "l(j) at j={j}");
            if t.store() == LabelStore::Full {
                assert_eq!(t.labels(j).unwrap(), naive.labels[k]);
            }
        }
        for i in 0..t.n() {
            let want: Vec<u64> = (1..)
                .zip(&naive.sets)
                .filter(|(_, set)| set.contains(&(i as u32)))
                .map(|(j, _)| j)
                .collect();
            assert_eq!(t.activations_of(i), want, "activations of {i}");
        }
        for machines in [1, 2, t.n()] {
            let p = Partition::blocks(t.n(), machines).unwrap();
            let mut want = vec![0u64; machines];
            for set in &naive.sets {
                let mut touched: Vec<usize> =
                    set.iter().map(|&i| p.machine_of(i as usize)).collect();
                touched.dedup();
                touched.iter().for_each(|&m| want[m] += 1);
            }
            assert_eq!(t.machine_update_counts(&p), want, "{machines} machines");
        }
        let suffix: Vec<u64> = (0..naive.mins.len())
            .map(|k| *naive.mins[k..].iter().min().unwrap())
            .collect();
        assert_eq!(t.min_label_suffix(), suffix);
        let text = crate::trace_io::trace_to_string(t).unwrap();
        assert_eq!(text, naive_text(t, naive));
    }

    fn check_both_stores(n: usize, sets: &[Vec<usize>]) -> Trace {
        let steps: Vec<_> = (0u64..)
            .zip(sets)
            .map(|(j, s)| (s.clone(), (0..n as u64).map(|i| (j + i) / 2).collect()))
            .collect();
        let checked = [LabelStore::Full, LabelStore::MinOnly].map(|store| {
            let (t, naive) = record_both(n, store, &steps);
            assert_agree(&t, &naive);
            t
        });
        let [_, min_only] = checked;
        min_only
    }

    #[test]
    fn a_push_like_an_earlier_step_reads_back_as_a_naive_push() {
        let blocks = [vec![0, 1, 2], vec![3, 4]];
        for store in [LabelStore::Full, LabelStore::MinOnly] {
            let mut t = Trace::new(5, store);
            let mut naive = Naive {
                sets: Vec::new(),
                mins: Vec::new(),
                labels: Vec::new(),
            };
            // Each block pushed by set once, then by naming that step.
            let mut first: [Option<u64>; 2] = [None; 2];
            for j in 1..=40u64 {
                let w = usize::from(j * j % 3 == 0);
                let labels: Vec<u64> = (0..5).map(|i| (j - 1).saturating_sub(i % 3)).collect();
                let min = *labels.iter().min().unwrap();
                match (first[w], store) {
                    (None, LabelStore::Full) => t.push_step(&blocks[w], &labels),
                    (None, LabelStore::MinOnly) => t.push_min_step(&blocks[w], min),
                    (Some(k), LabelStore::Full) => t.push_step_like(k, &labels),
                    (Some(k), LabelStore::MinOnly) => t.push_min_step_like(k, min),
                }
                first[w].get_or_insert(j);
                naive
                    .sets
                    .push(blocks[w].iter().map(|&i| i as u32).collect());
                naive.mins.push(min);
                naive.labels.push(labels);
            }
            assert_agree(&t, &naive);
            assert_eq!(t.arena.len(), 5, "each block stored once");
        }
    }

    #[test]
    #[should_panic(expected = "step 2 is not recorded")]
    fn a_push_like_an_unrecorded_step_panics() {
        let mut t = Trace::new(2, LabelStore::MinOnly);
        t.push_min_step(&[0], 0);
        t.push_min_step_like(2, 0);
    }

    #[test]
    fn a_set_recurring_past_the_recent_window_is_copied_again_and_reads_back() {
        let n = RECENT_SETS + 2;
        let mut sets: Vec<Vec<usize>> = (0..=RECENT_SETS).map(|i| vec![i]).collect();
        sets.push(vec![0]);
        sets.push(vec![RECENT_SETS]);
        let t = check_both_stores(n, &sets);
        // `{0}` had left the window and is stored twice; the last set hit.
        assert_eq!(t.arena.len(), RECENT_SETS + 2);
    }

    #[test]
    fn sets_equal_in_length_and_ends_but_not_middle_stay_distinct() {
        let sets = [vec![0, 1, 5], vec![0, 2, 5], vec![0, 1, 5], vec![0, 2, 5]];
        let t = check_both_stores(6, &sets);
        assert_eq!(t.arena.len(), 6);
    }

    #[test]
    fn a_prefix_of_a_stored_set_is_not_that_set() {
        let sets = [
            vec![0, 1],
            vec![0, 1, 2],
            vec![0],
            vec![0, 1, 2],
            vec![0, 1],
        ];
        let t = check_both_stores(3, &sets);
        assert_eq!(t.arena.len(), 6);
    }

    fn sets_of(mut gen: impl crate::schedule::ScheduleGen, steps: u64) -> Vec<Vec<usize>> {
        let mut buf = crate::schedule::StepBuf::new(gen.n());
        (1..=steps)
            .map(|j| {
                gen.step(j, &mut buf);
                buf.active.clone()
            })
            .collect()
    }

    #[test]
    fn random_subset_schedules_agree_with_the_reference() {
        for seed in 0..4 {
            let gen = crate::schedule::ChaoticBounded::new(24, 1, 6, 5, false, seed);
            check_both_stores(24, &sets_of(gen, 300));
        }
    }

    #[test]
    fn block_round_robin_stores_each_block_once() {
        for workers in [1, 2, 8, RECENT_SETS] {
            let n = 4 * RECENT_SETS;
            let blocks = Partition::blocks(n, workers).unwrap();
            let gen = crate::schedule::BlockRoundRobin::new(blocks, 2);
            let t = check_both_stores(n, &sets_of(gen, 500));
            assert_eq!(t.arena.len(), n, "{workers} workers");
        }
    }
}
