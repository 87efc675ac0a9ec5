//! The epoch sequence of Mishchenko–Iutzeler–Malick (SIOPT 2020).
//!
//! The paper under reproduction contrasts its macro-iteration sequence
//! (Definition 2) with the *epoch* sequence `{k_m}` used by \[30\]:
//!
//! ```text
//! k_0 = 0,
//! k_{m+1} = min k such that each machine made at least two updates
//!           on the interval {k_m, …, k}.
//! ```
//!
//! Epochs are defined purely through *update counts per machine* — they
//! never look at which labels were actually read. Under FIFO (monotone
//! labels) two updates per machine imply the second one read post-`k_m`
//! information, which is what the epoch analysis of \[30\] exploits. Under
//! out-of-order delivery that implication fails; the El-Baz paper's claim
//! that "macro-iteration sequences account for possible out of order
//! messages while epochs do not" is made quantitative by combining
//! [`epoch_sequence`] with
//! [`crate::macroiter::boundary_freshness_violations`]
//! (`tests::epochs_ignore_labels_macro_iterations_do_not`, and the
//! asserting `macro_vs_epoch` example).

use crate::partition::Partition;
use crate::trace::Trace;

/// A computed epoch sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Epochs {
    /// `k_0 = 0 < k_1 < k_2 < …`: completed epoch boundaries.
    pub boundaries: Vec<u64>,
}

impl Epochs {
    /// Number of completed epochs.
    pub fn count(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Lengths `k_{m+1} − k_m` of completed epochs.
    pub fn lengths(&self) -> Vec<u64> {
        self.boundaries.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// The epoch index `m(j) = max{m : k_m ≤ j}` of iteration `j`.
    pub fn index_of(&self, j: u64) -> usize {
        self.boundaries.partition_point(|&b| b <= j) - 1
    }
}

/// Computes the epoch sequence of a trace under a component → machine
/// partition: `k_{m+1}` is the earliest iteration by which every machine
/// has performed at least `min_updates` updates since `k_m` (the paper
/// quotes \[30\] with `min_updates = 2`).
///
/// A step whose active set touches components of several machines counts
/// as one update for each machine touched.
///
/// # Panics
/// Panics when the partition dimension disagrees with the trace or
/// `min_updates == 0`.
pub fn epoch_sequence(trace: &Trace, partition: &Partition, min_updates: u64) -> Epochs {
    assert_eq!(partition.n(), trace.n(), "epoch_sequence: dimension");
    assert!(min_updates > 0, "epoch_sequence: min_updates must be > 0");
    let p = partition.num_machines();
    let mut counts = vec![0u64; p];
    let mut satisfied = 0usize;
    let mut touched = vec![false; p];
    let mut boundaries = vec![0u64];
    for (j, step) in trace.iter() {
        touched.fill(false);
        for &i in step.active {
            touched[partition.machine_of(i as usize)] = true;
        }
        for (m, &t) in touched.iter().enumerate() {
            if t {
                counts[m] += 1;
                if counts[m] == min_updates {
                    satisfied += 1;
                }
            }
        }
        if satisfied == p {
            boundaries.push(j);
            counts.fill(0);
            satisfied = 0;
        }
    }
    Epochs { boundaries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macroiter::{boundary_freshness_violations, macro_iterations_strict};
    use crate::schedule::{record, ChaoticBounded, CyclicCoordinate, SyncJacobi};
    use crate::trace::LabelStore;

    #[test]
    fn sync_epochs_every_two_steps() {
        let t = record(&mut SyncJacobi::new(3), 10, LabelStore::Full);
        let p = Partition::identity(3);
        let e = epoch_sequence(&t, &p, 2);
        assert_eq!(e.boundaries, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(e.lengths(), vec![2; 5]);
    }

    #[test]
    fn cyclic_epochs_every_two_sweeps() {
        let t = record(&mut CyclicCoordinate::new(3), 18, LabelStore::Full);
        let p = Partition::identity(3);
        let e = epoch_sequence(&t, &p, 2);
        assert_eq!(e.boundaries, vec![0, 6, 12, 18]);
    }

    #[test]
    fn min_updates_one_recovers_coverage_times() {
        let t = record(&mut CyclicCoordinate::new(3), 9, LabelStore::Full);
        let p = Partition::identity(3);
        let e = epoch_sequence(&t, &p, 1);
        assert_eq!(e.boundaries, vec![0, 3, 6, 9]);
    }

    #[test]
    fn block_partition_counts_machine_touches() {
        // 4 components on 2 machines; sync steps touch both machines.
        let t = record(&mut SyncJacobi::new(4), 4, LabelStore::Full);
        let p = Partition::blocks(4, 2).unwrap();
        let e = epoch_sequence(&t, &p, 2);
        assert_eq!(e.boundaries, vec![0, 2, 4]);
    }

    #[test]
    fn index_of_locates_epochs() {
        let e = Epochs {
            boundaries: vec![0, 4, 9],
        };
        assert_eq!(e.index_of(0), 0);
        assert_eq!(e.index_of(3), 0);
        assert_eq!(e.index_of(4), 1);
        assert_eq!(e.index_of(9), 2);
    }

    #[test]
    fn epochs_ignore_labels_macro_iterations_do_not() {
        // Out-of-order bounded delays: epochs tick at the same cadence as
        // they would with fresh labels, but their boundaries do NOT carry
        // the freshness guarantee — while strict macro-iterations do.
        let mut g = ChaoticBounded::new(6, 6, 6, 40, false, 123);
        let t = record(&mut g, 4000, LabelStore::Full);
        let p = Partition::identity(6);
        let e = epoch_sequence(&t, &p, 2);
        // Every step updates every machine → epoch every 2 steps, blind to
        // the 40-step delays.
        assert_eq!(e.lengths(), vec![2; e.count()]);
        let epoch_violations = boundary_freshness_violations(&t, &e.boundaries);
        assert!(
            epoch_violations > 100,
            "expected many epoch freshness violations, got {epoch_violations}"
        );
        let strict = macro_iterations_strict(&t);
        assert_eq!(boundary_freshness_violations(&t, &strict.boundaries), 0);
        // And macro-iterations are correspondingly longer than epochs.
        assert!(strict.count() < e.count());
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn partition_dimension_checked() {
        let t = record(&mut SyncJacobi::new(3), 2, LabelStore::Full);
        let p = Partition::identity(2);
        epoch_sequence(&t, &p, 2);
    }
}
