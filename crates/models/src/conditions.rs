//! Checkers for the paper's admissibility conditions.
//!
//! Definition 1 subjects the pair `(𝒮, ℒ)` to:
//!
//! - **(a)** `l_i(j) ≤ j − 1` — reads come from strictly earlier iterations;
//! - **(b)** `lim_{j→∞} l_i(j) = +∞` — no update keeps consuming arbitrarily
//!   old information forever (unbounded delays allowed, *abandoned* values
//!   not);
//! - **(c)** every component `i` appears infinitely often in `S_j`.
//!
//! Chaotic relaxation additionally assumes
//!
//! - **(d)** bounded delays: `l_i(j) = j − d_i(j)` with `0 ≤ d_i(j) < b(j)`,
//!   `b(j) ≤ min{b, j}`, `j − b(j)` monotone increasing.
//!
//! Conditions (b) and (c) are asymptotic, so on a *finite* trace they can
//! only be checked in proxy form. The proxies here are chosen so that the
//! adversarial generators that violate (b)/(c) by construction
//! ([`crate::schedule::FrozenLabelAdversary`],
//! [`crate::schedule::StarvedComponent`]) are always caught, while every
//! admissible generator in the library passes; this is itself validated by
//! the crate's property tests.

use crate::error::ModelError;
use crate::trace::Trace;

/// An explicit per-iteration bound on admissible delays — the
/// *certificate* form of conditions (b)/(d).
///
/// An envelope assigns to every iteration `j ≥ 1` a maximum delay
/// `D(j) ≥ 1`; a label is *within* the envelope when
/// `j − D(j) ≤ l ≤ j − 1` (delays clamp at `j`, so early iterations are
/// never over-constrained). Because both variants satisfy
/// `j − D(j) → ∞`, a trace whose every label stays within the envelope
/// satisfies condition (b) *by construction* — no windowed proxy needed.
/// The [`Bounded`](DelayEnvelope::Bounded) variant additionally certifies
/// condition (d) with the same constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayEnvelope {
    /// Constant bound: `D(j) = min(b, j)` (Chazan–Miranker regime).
    Bounded(u64),
    /// Baudet-style unbounded growth: `D(j) = min(1 + ⌊c·√j⌋, j)` —
    /// `sup_j D(j) = ∞` yet labels still escape to infinity.
    SqrtGrowth {
        /// Growth scale `c > 0`.
        c: f64,
    },
}

impl DelayEnvelope {
    /// Maximum admissible delay at iteration `j ≥ 1` (always in `[1, j]`).
    ///
    /// # Panics
    /// Panics when `j == 0`, on a non-positive bound, or a non-positive
    /// growth scale.
    pub fn max_delay(&self, j: u64) -> u64 {
        assert!(j >= 1, "DelayEnvelope::max_delay: j must be >= 1");
        match *self {
            DelayEnvelope::Bounded(b) => {
                assert!(b >= 1, "DelayEnvelope::Bounded: b must be >= 1");
                b.min(j)
            }
            DelayEnvelope::SqrtGrowth { c } => {
                assert!(
                    c > 0.0 && c.is_finite(),
                    "DelayEnvelope::SqrtGrowth: c must be positive and finite"
                );
                ((1.0 + (c * (j as f64).sqrt()).floor()) as u64).min(j)
            }
        }
    }

    /// Smallest admissible label at iteration `j`: `j − max_delay(j)`.
    pub fn min_label(&self, j: u64) -> u64 {
        j - self.max_delay(j)
    }

    /// Short description for logs (`"bounded(b=8)"`, `"sqrt(c=1.5)"`).
    pub fn describe(&self) -> String {
        match *self {
            DelayEnvelope::Bounded(b) => format!("bounded(b={b})"),
            DelayEnvelope::SqrtGrowth { c } => format!("sqrt(c={c})"),
        }
    }
}

/// A checkable *certificate* that a finite trace realises an admissible
/// pair `(𝒮, ℒ)` — the executable form of Definition 1 used by the
/// conformance fuzzer.
///
/// Unlike the windowed proxies ([`check_condition_b`]), a witness makes
/// the asymptotic conditions decidable by strengthening them to explicit
/// bounds that the guarded generators in [`crate::schedule`]
/// ([`crate::schedule::EnvelopeClamp`], [`crate::schedule::CoverageGuard`])
/// enforce *by construction*:
///
/// - **(a)** every label satisfies `l_h(j) ≤ j − 1` (exact);
/// - **(b)** every label stays within [`DelayEnvelope`], whose lower
///   bound `j − D(j)` diverges — so `lim l_h(j) = ∞` holds for any
///   infinite extension respecting the envelope;
/// - **(c)** every component's activation gap is at most `max_gap` — so
///   every component updates infinitely often in any infinite extension
///   respecting the gap bound;
/// - **(d)** for a [`DelayEnvelope::Bounded`] envelope, delays are
///   bounded by the same constant (checked for free).
///
/// A schedule that merely *fails the certificate* may still be admissible
/// in the asymptotic sense (the witness is sound, not complete); every
/// generator composed through the guard combinators is accepted exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissibilityWitness {
    /// The delay envelope certifying conditions (b)/(d).
    pub envelope: DelayEnvelope,
    /// Maximum activation gap certifying condition (c).
    pub max_gap: u64,
}

impl AdmissibilityWitness {
    /// A witness with the given envelope and gap bound.
    ///
    /// # Panics
    /// Panics when `max_gap == 0`.
    pub fn new(envelope: DelayEnvelope, max_gap: u64) -> Self {
        assert!(max_gap > 0, "AdmissibilityWitness: max_gap must be > 0");
        Self { envelope, max_gap }
    }

    /// Checks the full certificate against a recorded trace.
    ///
    /// Requires full label storage.
    ///
    /// # Errors
    /// The first [`ModelError::ConditionViolated`] encountered, tagged
    /// with the violated condition (`"a"`, `"b"` or `"c"`), or
    /// [`ModelError::LabelsNotStored`] / [`ModelError::EmptyTrace`] for
    /// structurally unusable traces.
    pub fn check(&self, trace: &Trace) -> crate::Result<()> {
        if trace.is_empty() {
            return Err(ModelError::EmptyTrace);
        }
        check_condition_a(trace)?;
        // (b) as an envelope certificate: stronger than the windowed
        // proxy and decidable per step.
        for (j, _) in trace.iter() {
            let lo = self.envelope.min_label(j);
            let labels = trace.labels(j)?;
            for (h, &l) in labels.iter().enumerate() {
                if l < lo {
                    return Err(ModelError::ConditionViolated {
                        condition: "b",
                        at_step: j,
                        component: h,
                        message: format!(
                            "label {l} below envelope {} floor {lo}",
                            self.envelope.describe()
                        ),
                    });
                }
            }
        }
        check_condition_c(trace, self.max_gap)?;
        if let DelayEnvelope::Bounded(b) = self.envelope {
            // Implied by the envelope check; kept as a cross-validation
            // of the two checkers against each other.
            check_condition_d(trace, b)?;
        }
        Ok(())
    }

    /// Short description for logs.
    pub fn describe(&self) -> String {
        format!(
            "witness({}, max_gap={})",
            self.envelope.describe(),
            self.max_gap
        )
    }
}

/// Checks condition (a): every stored label satisfies `l_h(j) ≤ j − 1`.
///
/// Requires full label storage.
///
/// # Errors
/// [`ModelError::ConditionViolated`] at the first offending `(j, h)`;
/// [`ModelError::LabelsNotStored`] for min-only traces.
pub fn check_condition_a(trace: &Trace) -> crate::Result<()> {
    for (j, _) in trace.iter() {
        let labels = trace.labels(j)?;
        for (h, &l) in labels.iter().enumerate() {
            if l > j - 1 {
                return Err(ModelError::ConditionViolated {
                    condition: "a",
                    at_step: j,
                    component: h,
                    message: format!("label {l} > j-1 = {}", j - 1),
                });
            }
        }
    }
    Ok(())
}

/// Finite-trace proxy for condition (b): split the trace into
/// `num_windows` equal windows and compute, for each component `h`, the
/// minimum and maximum of `l_h(j)` over each window. Condition (b)
/// requires labels to grow without bound; the proxy demands that
///
/// 1. window minima are nondecreasing up to `slack` (tolerating benign
///    jitter from out-of-order delivery within a window),
/// 2. the last window's minimum strictly exceeds the first window's, and
/// 3. the window *maxima* strictly grow from first to last window — this
///    is what catches a label frozen at a small value, which can slip
///    past the minima tests because early windows legitimately contain
///    small labels.
///
/// Requires full label storage and at least `2 * num_windows` steps.
///
/// # Errors
/// Reports the first component whose label envelope fails to grow, or the
/// structural errors of the underlying queries.
///
/// # Panics
/// Panics when `num_windows < 2`.
pub fn check_condition_b(trace: &Trace, num_windows: usize, slack: u64) -> crate::Result<()> {
    assert!(num_windows >= 2, "check_condition_b: need >= 2 windows");
    let len = trace.len() as u64;
    if len < 2 * num_windows as u64 {
        return Err(ModelError::InvalidParameter {
            name: "trace",
            message: format!(
                "need at least {} steps for {} windows, got {len}",
                2 * num_windows,
                num_windows
            ),
        });
    }
    let window = len / num_windows as u64;
    for h in 0..trace.n() {
        let mut mins = Vec::with_capacity(num_windows);
        let mut maxs = Vec::with_capacity(num_windows);
        for w in 0..num_windows as u64 {
            let lo = w * window + 1;
            let hi = if w as usize == num_windows - 1 {
                len
            } else {
                (w + 1) * window
            };
            let mut mn = u64::MAX;
            let mut mx = 0u64;
            for j in lo..=hi {
                let l = trace.labels(j)?[h];
                mn = mn.min(l);
                mx = mx.max(l);
            }
            mins.push(mn);
            maxs.push(mx);
        }
        // Nondecreasing up to slack.
        for w in 1..mins.len() {
            if mins[w] + slack < mins[w - 1] {
                return Err(ModelError::ConditionViolated {
                    condition: "b",
                    at_step: (w as u64) * window,
                    component: h,
                    message: format!(
                        "window minima regressed: {} -> {} (slack {slack})",
                        mins[w - 1],
                        mins[w]
                    ),
                });
            }
        }
        // Strict growth end-to-end.
        if mins[num_windows - 1] <= mins[0] {
            return Err(ModelError::ConditionViolated {
                condition: "b",
                at_step: 0,
                component: h,
                message: format!(
                    "label envelope did not grow: first-window min {} vs last-window min {}",
                    mins[0],
                    mins[num_windows - 1]
                ),
            });
        }
        // Stagnation: the freshest label read in the last window must
        // exceed the freshest of the first window, otherwise the label is
        // effectively frozen (condition (b) fails).
        if maxs[num_windows - 1] <= maxs[0] {
            return Err(ModelError::ConditionViolated {
                condition: "b",
                at_step: 0,
                component: h,
                message: format!(
                    "labels stagnate: first-window max {} vs last-window max {}",
                    maxs[0],
                    maxs[num_windows - 1]
                ),
            });
        }
    }
    Ok(())
}

/// Finite-trace proxy for condition (c): every component must be updated
/// at least once in every window of `max_gap` consecutive iterations
/// (including the leading and trailing partial windows).
///
/// # Errors
/// Reports the first component whose activation gap exceeds `max_gap`.
///
/// # Panics
/// Panics when `max_gap == 0`.
pub fn check_condition_c(trace: &Trace, max_gap: u64) -> crate::Result<()> {
    assert!(max_gap > 0, "check_condition_c: max_gap must be positive");
    let gaps = activation_gaps(trace);
    for (h, &g) in gaps.iter().enumerate() {
        if g > max_gap {
            return Err(ModelError::ConditionViolated {
                condition: "c",
                at_step: 0,
                component: h,
                message: format!("max activation gap {g} > allowed {max_gap}"),
            });
        }
    }
    Ok(())
}

/// Maximum activation gap per component: the longest run of consecutive
/// iterations during which the component is not updated, counting the gap
/// from the start of the trace to the first activation and from the last
/// activation to the end. A component never updated gets `trace.len() + 1`.
pub fn activation_gaps(trace: &Trace) -> Vec<u64> {
    let len = trace.len() as u64;
    let mut last = vec![0u64; trace.n()];
    let mut max_gap = vec![0u64; trace.n()];
    for (j, s) in trace.iter() {
        for &i in s.active {
            let i = i as usize;
            max_gap[i] = max_gap[i].max(j - last[i] - 1);
            last[i] = j;
        }
    }
    for h in 0..trace.n() {
        if last[h] == 0 {
            max_gap[h] = len + 1;
        } else {
            max_gap[h] = max_gap[h].max(len - last[h]);
        }
    }
    max_gap
}

/// Checks condition (d) with constant bound `b`: every delay satisfies
/// `1 ≤ d_h(j) = j − l_h(j) ≤ min(b, j)`. (The paper states
/// `0 ≤ d_i(j) < b(j)`; together with condition (a) the delay is at least
/// 1, and we take the inclusive bound `b` for the practical checker.)
///
/// Requires full label storage.
///
/// # Errors
/// Reports the first `(j, h)` whose delay exceeds the bound.
///
/// # Panics
/// Panics when `b == 0`.
pub fn check_condition_d(trace: &Trace, b: u64) -> crate::Result<()> {
    assert!(b > 0, "check_condition_d: b must be positive");
    for (j, _) in trace.iter() {
        let labels = trace.labels(j)?;
        for (h, &l) in labels.iter().enumerate() {
            let d = j - l;
            if d > b.min(j) {
                return Err(ModelError::ConditionViolated {
                    condition: "d",
                    at_step: j,
                    component: h,
                    message: format!("delay {d} > bound {}", b.min(j)),
                });
            }
        }
    }
    Ok(())
}

/// The smallest constant `b` for which [`check_condition_d`] passes, i.e.
/// the maximum observed delay `max_{j,h} (j − l_h(j))`.
///
/// # Errors
/// [`ModelError::LabelsNotStored`] / [`ModelError::EmptyTrace`].
pub fn max_delay(trace: &Trace) -> crate::Result<u64> {
    if trace.is_empty() {
        return Err(ModelError::EmptyTrace);
    }
    let mut m = 0u64;
    for (j, _) in trace.iter() {
        for &l in trace.labels(j)? {
            m = m.max(j - l);
        }
    }
    Ok(m)
}

/// True when every component's label sequence `j ↦ l_h(j)` is
/// nondecreasing — the FIFO / in-order-delivery regime assumed by
/// epoch-based analyses (Mishchenko–Iutzeler–Malick). Out-of-order
/// messages manifest exactly as a decrease somewhere.
///
/// # Errors
/// [`ModelError::LabelsNotStored`] for min-only traces.
pub fn labels_monotone(trace: &Trace) -> crate::Result<bool> {
    let mut prev = vec![0u64; trace.n()];
    for (j, _) in trace.iter() {
        let labels = trace.labels(j)?;
        for (h, &l) in labels.iter().enumerate() {
            if l < prev[h] {
                return Ok(false);
            }
            prev[h] = l;
        }
    }
    Ok(true)
}

/// True when every *reader's* view of every component is nondecreasing:
/// for each machine `m` (under `partition`), the sub-sequence of steps
/// performed by `m` must read nondecreasing labels of every component.
///
/// This is the FIFO-channel property actually assumed by epoch analyses:
/// a single reader never consumes older data than it already consumed.
/// It is strictly weaker than [`labels_monotone`], which additionally
/// compares labels across *different* readers — interleaved readers with
/// different staleness make the global sequence non-monotone even when
/// every channel is FIFO (Baudet's two-processor example exhibits this).
///
/// Steps that touch several machines are attributed to every machine
/// touched.
///
/// # Errors
/// [`ModelError::LabelsNotStored`] for min-only traces.
///
/// # Panics
/// Panics when the partition dimension disagrees with the trace.
pub fn labels_monotone_per_reader(
    trace: &Trace,
    partition: &crate::partition::Partition,
) -> crate::Result<bool> {
    assert_eq!(partition.n(), trace.n(), "labels_monotone_per_reader: dim");
    let p = partition.num_machines();
    let n = trace.n();
    // prev[m * n + h]: last label of component h read by machine m.
    let mut prev = vec![0u64; p * n];
    let mut touched = vec![false; p];
    for (j, step) in trace.iter() {
        let labels = trace.labels(j)?;
        touched.fill(false);
        for &i in step.active {
            touched[partition.machine_of(i as usize)] = true;
        }
        for (m, &t) in touched.iter().enumerate() {
            if !t {
                continue;
            }
            for (h, &l) in labels.iter().enumerate() {
                let slot = &mut prev[m * n + h];
                if l < *slot {
                    return Ok(false);
                }
                *slot = l;
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{
        record, ChaoticBounded, FrozenLabelAdversary, StarvedComponent, SyncJacobi,
        UnboundedSqrtDelay,
    };
    use crate::trace::LabelStore;

    fn sync_trace(n: usize, steps: u64) -> Trace {
        record(&mut SyncJacobi::new(n), steps, LabelStore::Full)
    }

    #[test]
    fn condition_a_passes_for_sync() {
        assert!(check_condition_a(&sync_trace(3, 50)).is_ok());
    }

    #[test]
    fn condition_a_detects_future_read() {
        let mut t = Trace::new(2, LabelStore::Full);
        t.push_step(&[0], &[0, 0]);
        t.push_step(&[1], &[2, 1]); // l_0(2) = 2 > 1.
        match check_condition_a(&t) {
            Err(ModelError::ConditionViolated {
                condition: "a",
                at_step: 2,
                component: 0,
                ..
            }) => {}
            other => panic!("expected (a) violation, got {other:?}"),
        }
    }

    #[test]
    fn condition_b_passes_for_bounded_and_sqrt_delays() {
        let mut g = ChaoticBounded::new(5, 1, 3, 8, false, 21);
        let t = record(&mut g, 2000, LabelStore::Full);
        assert!(check_condition_b(&t, 8, 16).is_ok());

        let mut g = UnboundedSqrtDelay::new(5, 1, 3, 1.5, 22);
        let t = record(&mut g, 2000, LabelStore::Full);
        assert!(check_condition_b(&t, 8, 256).is_ok());
    }

    #[test]
    fn condition_b_catches_frozen_label() {
        let inner = SyncJacobi::new(3);
        let mut g = FrozenLabelAdversary::new(inner, 1, 5);
        let t = record(&mut g, 400, LabelStore::Full);
        match check_condition_b(&t, 4, 0) {
            Err(ModelError::ConditionViolated {
                condition: "b",
                component: 1,
                ..
            }) => {}
            other => panic!("expected (b) violation on component 1, got {other:?}"),
        }
    }

    #[test]
    fn condition_b_requires_enough_steps() {
        let t = sync_trace(2, 5);
        assert!(check_condition_b(&t, 4, 0).is_err());
    }

    #[test]
    fn condition_c_passes_for_sync_and_catches_starvation() {
        let t = sync_trace(3, 100);
        assert!(check_condition_c(&t, 1).is_ok());

        let inner = SyncJacobi::new(3);
        let mut g = StarvedComponent::new(inner, 2, 20);
        let t = record(&mut g, 200, LabelStore::Full);
        match check_condition_c(&t, 50) {
            Err(ModelError::ConditionViolated {
                condition: "c",
                component: 2,
                ..
            }) => {}
            other => panic!("expected (c) violation on component 2, got {other:?}"),
        }
    }

    #[test]
    fn activation_gaps_counts_boundaries() {
        let mut t = Trace::new(2, LabelStore::Full);
        // Component 1 never updated; component 0 updated at j = 2 only.
        t.push_step(&[0], &[0, 0]);
        t.push_step(&[0], &[1, 0]);
        t.push_step(&[0], &[1, 0]);
        let gaps = activation_gaps(&t);
        assert_eq!(gaps[0], 0);
        assert_eq!(gaps[1], 4); // never updated: len + 1.

        let mut t = Trace::new(1, LabelStore::Full);
        t.push_step(&[0], &[0]); // j=1
                                 // gap of 3 then update at j=5.
        t.push_step(&[0], &[0]);
        let _ = t;
    }

    #[test]
    fn activation_gap_interior_and_tail() {
        let mut t = Trace::new(2, LabelStore::Full);
        t.push_step(&[0, 1], &[0, 0]); // j=1: both
        t.push_step(&[0], &[0, 0]); // j=2
        t.push_step(&[0], &[0, 0]); // j=3
        t.push_step(&[0, 1], &[0, 0]); // j=4: comp 1 gap = 2
        t.push_step(&[0], &[0, 0]); // j=5: comp 1 tail gap = 1
        let gaps = activation_gaps(&t);
        assert_eq!(gaps[0], 0);
        assert_eq!(gaps[1], 2);
    }

    #[test]
    fn condition_d_bound_checks() {
        let mut g = ChaoticBounded::new(4, 1, 2, 6, false, 2);
        let t = record(&mut g, 500, LabelStore::Full);
        assert!(check_condition_d(&t, 6).is_ok());
        // Both directions pinned against the trace's actual worst delay:
        // the checker accepts a bound iff it dominates `max_delay` (the
        // old `is_err() || md <= 5` form passed vacuously whenever the
        // checker rejected, asserting nothing about *why*).
        let md = max_delay(&t).unwrap();
        assert!((1..=6).contains(&md));
        if md <= 5 {
            assert!(
                check_condition_d(&t, 5).is_ok(),
                "bound 5 dominates the worst delay {md} and must be accepted"
            );
        } else {
            assert!(
                check_condition_d(&t, 5).is_err(),
                "worst delay {md} exceeds bound 5 and must be rejected"
            );
        }
        assert!(check_condition_d(&t, md).is_ok());
        if md > 1 {
            assert!(check_condition_d(&t, md - 1).is_err());
        }
    }

    #[test]
    fn condition_d_fails_for_unbounded() {
        let mut g = UnboundedSqrtDelay::new(3, 3, 3, 2.0, 9);
        let t = record(&mut g, 5000, LabelStore::Full);
        assert!(check_condition_d(&t, 8).is_err());
        // But condition (b) still holds — the paper's key distinction.
        assert!(check_condition_b(&t, 8, 512).is_ok());
    }

    #[test]
    fn monotone_detection() {
        let mut g = ChaoticBounded::new(4, 1, 2, 8, true, 31);
        let t = record(&mut g, 300, LabelStore::Full);
        assert!(labels_monotone(&t).unwrap());

        let mut g = ChaoticBounded::new(4, 1, 2, 8, false, 31);
        let t = record(&mut g, 300, LabelStore::Full);
        assert!(!labels_monotone(&t).unwrap());
    }

    #[test]
    fn max_delay_empty_trace_errors() {
        let t = Trace::new(2, LabelStore::Full);
        assert_eq!(max_delay(&t), Err(ModelError::EmptyTrace));
    }

    #[test]
    fn envelope_bounds_are_clamped_and_divergent() {
        let b = DelayEnvelope::Bounded(5);
        assert_eq!(b.max_delay(1), 1);
        assert_eq!(b.max_delay(3), 3);
        assert_eq!(b.max_delay(100), 5);
        assert_eq!(b.min_label(100), 95);
        let s = DelayEnvelope::SqrtGrowth { c: 2.0 };
        assert_eq!(s.max_delay(1), 1);
        // 1 + ⌊2·√100⌋ = 21.
        assert_eq!(s.max_delay(100), 21);
        assert_eq!(s.min_label(100), 79);
        // The label floor diverges: certificate form of condition (b).
        assert!(s.min_label(1_000_000) > s.min_label(100));
    }

    #[test]
    fn witness_accepts_guarded_regimes() {
        let mut g = ChaoticBounded::new(6, 1, 3, 8, false, 5);
        let t = record(&mut g, 400, LabelStore::Full);
        let w = AdmissibilityWitness::new(DelayEnvelope::Bounded(8), 400);
        assert!(w.check(&t).is_ok(), "{:?}", w.check(&t));
    }

    #[test]
    fn witness_rejects_frozen_label_via_b() {
        let mut g = FrozenLabelAdversary::new(SyncJacobi::new(3), 1, 2);
        let t = record(&mut g, 100, LabelStore::Full);
        let w = AdmissibilityWitness::new(DelayEnvelope::Bounded(8), 10);
        match w.check(&t) {
            Err(ModelError::ConditionViolated {
                condition: "b",
                component: 1,
                ..
            }) => {}
            other => panic!("expected (b) rejection, got {other:?}"),
        }
    }

    #[test]
    fn witness_rejects_starvation_via_c() {
        let mut g = StarvedComponent::new(SyncJacobi::new(3), 2, 10);
        let t = record(&mut g, 100, LabelStore::Full);
        let w = AdmissibilityWitness::new(DelayEnvelope::Bounded(128), 20);
        match w.check(&t) {
            Err(ModelError::ConditionViolated {
                condition: "c",
                component: 2,
                ..
            }) => {}
            other => panic!("expected (c) rejection, got {other:?}"),
        }
    }

    #[test]
    fn witness_rejects_future_read_and_empty() {
        let mut t = Trace::new(2, LabelStore::Full);
        let w = AdmissibilityWitness::new(DelayEnvelope::Bounded(4), 4);
        assert_eq!(w.check(&t), Err(ModelError::EmptyTrace));
        t.push_step(&[0], &[0, 0]);
        t.push_step(&[1], &[2, 1]);
        assert!(matches!(
            w.check(&t),
            Err(ModelError::ConditionViolated { condition: "a", .. })
        ));
    }

    #[test]
    fn min_only_traces_report_labels_not_stored() {
        let t = record(&mut SyncJacobi::new(2), 10, LabelStore::MinOnly);
        assert_eq!(check_condition_a(&t), Err(ModelError::LabelsNotStored));
        assert_eq!(labels_monotone(&t), Err(ModelError::LabelsNotStored));
        // Condition (c) needs no labels.
        assert!(check_condition_c(&t, 1).is_ok());
    }
}
