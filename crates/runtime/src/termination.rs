//! Distributed termination detection for asynchronous iterations
//! (in the spirit of El Baz \[22\]).
//!
//! Detecting convergence of an asynchronous iteration is harder than for
//! synchronous methods: there is no global step at which "everyone is
//! done", and a locally small residual can be destroyed by a stale
//! update still propagating. Reference \[22\] anchors detection to the
//! macro-iteration structure: activity must stay quiescent long enough
//! that every component has been refreshed from post-quiescence data.
//!
//! This module is that idea's [`Quiesce`] rule and its two parts, wired
//! behind every racing engine's step by the free-running harness `race`:
//!
//! - each worker's [`QuiescenceTracker`] declares it *quiet* after
//!   `streak` consecutive updates moving its block by at most `eps`;
//! - the shared [`QuiescenceDetector`] fires once **all** workers are
//!   quiet *and* have remained quiet for `margin` further global
//!   updates (the flush window standing in for "one more
//!   macro-iteration") — guaranteeing every component was recomputed
//!   from post-quiescence values before stopping.
//!
//! Experiment E10 compares this on shared memory against the naive rule
//! (`margin` 0) and measures premature stops.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Quiescence-based termination rule: a worker is *quiet* after
/// `streak` consecutive updates changing its block by at most `eps`,
/// and the run stops once every worker has stayed quiet over a
/// `margin`-step flush window (`0` = the naive rule: stop at the first
/// all-quiet instant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quiesce {
    /// Block-change threshold for a quiet update.
    pub eps: f64,
    /// Consecutive quiet updates before a worker declares itself quiet.
    pub streak: u64,
    /// Post-quiescence flush window in global steps.
    pub margin: u64,
}

/// Per-worker quiescence tracker.
#[derive(Debug, Clone)]
pub struct QuiescenceTracker {
    eps: f64,
    required: u64,
    streak: u64,
}

impl QuiescenceTracker {
    /// Quiet after `required` consecutive updates with block change
    /// `≤ eps`.
    ///
    /// # Panics
    /// Panics when `eps < 0` or `required == 0`.
    pub fn new(eps: f64, required: u64) -> Self {
        assert!(eps >= 0.0, "QuiescenceTracker: eps");
        assert!(required > 0, "QuiescenceTracker: required");
        Self {
            eps,
            required,
            streak: 0,
        }
    }

    /// Feeds the max change of the worker's latest block update; returns
    /// the updated quiet status.
    pub fn observe(&mut self, change: f64) -> bool {
        if change <= self.eps {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        self.streak >= self.required
    }

    /// Current quiet status.
    pub fn is_quiet(&self) -> bool {
        self.streak >= self.required
    }
}

/// Number of quiet updates every worker must contribute *inside* the
/// flush window before detection may fire. One fresh report is not
/// enough: a worker's solo scheduling burst advances the global counter
/// without any information exchange, so a peer's single report can sit
/// exactly at the window edge while everything it ever saw predates the
/// burst. Requiring several in-window reports from everyone forces real
/// interleaving — the epoch/macro-iteration intuition ("each machine
/// made at least two updates on the interval") made safe for shared
/// memory with a little slack.
pub const REPORTS_IN_WINDOW: usize = 8;

/// Shared detector state.
#[derive(Debug)]
pub struct QuiescenceDetector {
    quiet: Vec<AtomicBool>,
    /// Ring of each worker's recent report indices (single writer per
    /// ring, so a plain rotating cursor is race-free).
    report_ring: Vec<Vec<AtomicU64>>,
    cursor: Vec<AtomicU64>,
    /// Global update index of the most recent non-quiet report.
    last_disturbance: AtomicU64,
}

impl QuiescenceDetector {
    /// Detector over `workers` workers.
    pub fn new(workers: usize) -> Self {
        Self {
            quiet: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            report_ring: (0..workers)
                .map(|_| (0..REPORTS_IN_WINDOW).map(|_| AtomicU64::new(0)).collect())
                .collect(),
            cursor: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            last_disturbance: AtomicU64::new(0),
        }
    }

    /// Worker `w` reports its quiet status after global update `j`.
    pub fn report(&self, w: usize, j: u64, quiet: bool) {
        self.quiet[w].store(quiet, Ordering::Release);
        let c = self.cursor[w].fetch_add(1, Ordering::AcqRel) as usize;
        self.report_ring[w][c % REPORTS_IN_WINDOW].store(j, Ordering::Release);
        if !quiet {
            self.last_disturbance.fetch_max(j, Ordering::AcqRel);
        }
    }

    /// True when all workers are quiet, no disturbance has been reported
    /// within the last `margin` global updates before `current_j`, *and*
    /// every worker has contributed [`REPORTS_IN_WINDOW`] quiet reports
    /// inside that window.
    ///
    /// The last clause is the crux of sound detection under scheduling
    /// skew. A worker that went quiet and was then descheduled carries a
    /// stale flag — the others may meanwhile converge *against its stale
    /// block*, and stopping there is premature (its block is no longer in
    /// equilibrium with theirs). A *single* fresh report is still not
    /// enough (see [`REPORTS_IN_WINDOW`]); demanding several reports from
    /// everyone inside the window guarantees genuine interleaving: every
    /// worker recomputed its block repeatedly while every other worker's
    /// post-quiescence values were visible — the \[22\] principle that
    /// quiescence must survive a full exchange of post-quiescence
    /// information.
    pub fn detect(&self, current_j: u64, margin: u64) -> bool {
        if !self.quiet.iter().all(|q| q.load(Ordering::Acquire)) {
            return false;
        }
        let window_start = current_j.saturating_sub(margin);
        if self.last_disturbance.load(Ordering::Acquire) > window_start {
            return false;
        }
        if margin > 0 {
            for ring in &self.report_ring {
                // The oldest entry in the ring is the worker's
                // REPORTS_IN_WINDOW-th most recent report; all ring
                // entries must fall inside the window.
                let oldest = ring
                    .iter()
                    .map(|r| r.load(Ordering::Acquire))
                    .min()
                    .expect("ring nonempty");
                if oldest < window_start {
                    return false;
                }
            }
        }
        current_j.saturating_sub(self.last_disturbance.load(Ordering::Acquire)) >= margin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_streak_logic() {
        let mut t = QuiescenceTracker::new(0.1, 3);
        assert!(!t.observe(0.05));
        assert!(!t.observe(0.05));
        assert!(t.observe(0.05));
        assert!(t.is_quiet());
        assert!(!t.observe(0.5)); // reset
        assert!(!t.is_quiet());
    }

    #[test]
    fn detector_requires_all_quiet_and_margin() {
        let d = QuiescenceDetector::new(2);
        d.report(0, 10, true);
        assert!(!d.detect(10, 0), "worker 1 never reported");
        d.report(1, 12, false);
        assert!(!d.detect(12, 0));
        d.report(1, 20, true);
        assert!(d.detect(20, 0), "naive rule fires at first all-quiet");
        assert!(
            !d.detect(20, 16),
            "margin 16 not yet elapsed (last disturbance 12)"
        );
        // A single quiet report per worker inside the window is NOT
        // enough; each must contribute REPORTS_IN_WINDOW of them.
        assert!(!d.detect(30, 16), "stale quiet flags must not count");
        for k in 0..REPORTS_IN_WINDOW as u64 {
            d.report(0, 40 + 2 * k, true);
            d.report(1, 41 + 2 * k, true);
        }
        // Window [40, 56+]: all 8 reports of each worker inside, last
        // disturbance at 12 far outside.
        assert!(d.detect(40 + 2 * REPORTS_IN_WINDOW as u64, 16));
        // A fresh disturbance blocks again.
        d.report(1, 60, false);
        assert!(!d.detect(61, 16));
    }
}
