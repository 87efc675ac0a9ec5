//! The lock-free shared iterate vector.
//!
//! One slot per component, each holding the `f64` value (as atomic bits)
//! and the global iteration label of its last write. The ownership
//! discipline is *single writer per component* (the partition assigns
//! each component to exactly one worker), so writes never race with each
//! other; readers are wait-free and may observe any interleaving of
//! value/label pairs — which is precisely the "possibly inconsistent
//! snapshot" the asynchronous model (Definition 1) is built to tolerate.
//!
//! Memory ordering: values are written with `Release` and read with
//! `Acquire`, so a reader that sees a value also sees everything the
//! writer did before publishing it; labels are written *after* the value
//! (also `Release`). A reader that pairs a value with the label read
//! immediately before can therefore attribute the value to a label that
//! is at most *older* — never newer — than the truth, keeping recorded
//! delays conservative (condition (a) is preserved by construction; see
//! `async_engine`).

use crate::session::block_partition;
use asynciter_core::{CoreError, Result};
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Checks what a shared-memory run adds to the race's opening — a
/// `threads` count that can own `n` components (see
/// [`block_partition`]), `spin` empty or one entry per worker — and
/// returns each worker's component block.
pub(crate) fn worker_blocks(n: usize, threads: usize, spin: &[u64]) -> Result<Vec<Vec<usize>>> {
    let partition = block_partition("threads", n, threads)?;
    if !spin.is_empty() && spin.len() != threads {
        return Err(CoreError::InvalidParameter {
            name: "spin",
            message: "must be empty or one entry per worker".into(),
        });
    }
    Ok((0..threads).map(|w| partition.components_of(w)).collect())
}

/// One component's slot: value bits + last-writer label.
#[derive(Debug)]
struct Slot {
    bits: AtomicU64,
    label: AtomicU64,
}

/// A shared vector of `f64` components with per-component write labels.
#[derive(Debug)]
pub struct SharedVec {
    slots: Vec<CachePadded<Slot>>,
}

impl SharedVec {
    /// Initialises from `x0` with all labels 0 (the initial iterate).
    pub fn new(x0: &[f64]) -> Self {
        Self {
            slots: x0
                .iter()
                .map(|&v| {
                    CachePadded::new(Slot {
                        bits: AtomicU64::new(v.to_bits()),
                        label: AtomicU64::new(0),
                    })
                })
                .collect(),
        }
    }

    /// Dimension `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the vector is empty (never for validated runs).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Reads component `i`'s value.
    #[inline]
    pub fn value(&self, i: usize) -> f64 {
        f64::from_bits(self.slots[i].bits.load(Ordering::Acquire))
    }

    /// Reads component `i`'s last-write label.
    #[inline]
    pub fn label(&self, i: usize) -> u64 {
        self.slots[i].label.load(Ordering::Acquire)
    }

    /// Reads `(label, value)` with the label loaded *first*: the value
    /// may then be newer than the label claims, so recorded staleness is
    /// an upper bound — conservative for condition checking.
    #[inline]
    pub fn read_labelled(&self, i: usize) -> (u64, f64) {
        let l = self.slots[i].label.load(Ordering::Acquire);
        let v = f64::from_bits(self.slots[i].bits.load(Ordering::Acquire));
        (l, v)
    }

    /// Publishes `value` for component `i` under global label `j`.
    /// Caller contract: single writer per component.
    #[inline]
    pub fn write(&self, i: usize, value: f64, j: u64) {
        self.slots[i].bits.store(value.to_bits(), Ordering::Release);
        self.slots[i].label.store(j, Ordering::Release);
    }

    /// Snapshot of all values into `out` (component-wise atomic; the
    /// vector as a whole may mix writes from different iterations — the
    /// asynchronous reading model).
    pub fn snapshot(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.len(), "SharedVec::snapshot: dimension");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.value(i);
        }
    }

    /// Snapshot of values and labels.
    pub fn snapshot_labelled(&self, values: &mut [f64], labels: &mut [u64]) {
        assert_eq!(values.len(), self.len(), "snapshot_labelled: values dim");
        assert_eq!(labels.len(), self.len(), "snapshot_labelled: labels dim");
        for i in 0..self.len() {
            let (l, v) = self.read_labelled(i);
            values[i] = v;
            labels[i] = l;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn roundtrip_value_and_label() {
        let v = SharedVec::new(&[1.5, -2.5]);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
        assert_eq!(v.value(0), 1.5);
        assert_eq!(v.label(0), 0);
        v.write(0, 3.25, 7);
        assert_eq!(v.value(0), 3.25);
        assert_eq!(v.label(0), 7);
        assert_eq!(v.read_labelled(0), (7, 3.25));
        assert_eq!(v.value(1), -2.5);
    }

    #[test]
    fn snapshot_copies_everything() {
        let v = SharedVec::new(&[1.0, 2.0, 3.0]);
        v.write(1, 9.0, 4);
        let mut vals = vec![0.0; 3];
        let mut labels = vec![0u64; 3];
        v.snapshot_labelled(&mut vals, &mut labels);
        assert_eq!(vals, vec![1.0, 9.0, 3.0]);
        assert_eq!(labels, vec![0, 4, 0]);
        let mut vals2 = vec![0.0; 3];
        v.snapshot(&mut vals2);
        assert_eq!(vals2, vals);
    }

    #[test]
    fn special_values_survive_bit_roundtrip() {
        let v = SharedVec::new(&[0.0]);
        for x in [f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e-308, f64::MAX] {
            v.write(0, x, 1);
            assert_eq!(v.value(0).to_bits(), x.to_bits());
        }
        v.write(0, f64::NAN, 2);
        assert!(v.value(0).is_nan());
    }

    #[test]
    fn concurrent_reads_never_tear() {
        // Writer alternates between two bit patterns; readers must only
        // ever observe one of them (atomicity of the 64-bit slot).
        let v = std::sync::Arc::new(SharedVec::new(&[f64::from_bits(0xAAAA_AAAA_AAAA_AAAA)]));
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let a = f64::from_bits(0xAAAA_AAAA_AAAA_AAAA);
        let b = f64::from_bits(0x5555_5555_5555_5555);
        std::thread::scope(|s| {
            {
                let v = v.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let mut j = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        v.write(0, if j.is_multiple_of(2) { a } else { b }, j);
                        j += 1;
                    }
                });
            }
            for _ in 0..4 {
                let v = v.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    for _ in 0..100_000 {
                        let bits = v.value(0).to_bits();
                        assert!(
                            bits == a.to_bits() || bits == b.to_bits(),
                            "torn read: {bits:#x}"
                        );
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
        });
    }

    #[test]
    fn labels_monotone_per_component_under_single_writer() {
        let v = std::sync::Arc::new(SharedVec::new(&[0.0]));
        std::thread::scope(|s| {
            {
                let v = v.clone();
                s.spawn(move || {
                    for j in 1..=50_000u64 {
                        v.write(0, j as f64, j);
                    }
                });
            }
            let v2 = v.clone();
            s.spawn(move || {
                let mut prev = 0u64;
                for _ in 0..50_000 {
                    let l = v2.label(0);
                    assert!(l >= prev, "label went backwards: {l} < {prev}");
                    prev = l;
                }
            });
        });
    }
}
