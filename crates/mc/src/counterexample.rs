//! From model-checking violation to committed regression test.
//!
//! A violation found by the explorer is a *choice path*; this module
//! rebuilds it into a producing-step [`Trace`] in the corpus format,
//! minimises it through the PR 3 shrinker under a trace-pure predicate
//! that preserves the violation class, and saves it as a `.trace` the
//! tier-1 suite replays bit for bit. The two deterministic demos are
//! the committed fixtures' generators:
//!
//! - [`inject_bug_demo`] — explores the `inject` scope with the severed
//!   block-boundary label bug planted, and emits the shrunk
//!   counterexample (`tests/corpus/mc-bug-severed-apply.trace`);
//! - [`find_reorder_demo`] — explores the `reorder` scope hunting the
//!   out-of-order label-regression class of the committed
//!   `fault-cluster-reorder.trace`, proving the bounded scope
//!   *rediscovers* it, and emits the shrunk witness
//!   (`tests/corpus/mc-reorder.trace`).
//!
//! Nothing in this module (or the whole crate) draws randomness: same
//! scope, same search, same counterexample, byte for byte.

use crate::explore::{explore, rebuild, ClusterModel, FoundViolation, Strategy};
use crate::invariants::Property;
use crate::scope::{McProblem, Scope};
use asynciter_conformance::cluster::has_label_regression;
use asynciter_conformance::corpus::save_trace;
use asynciter_conformance::shrink::shrink_and_save;
use asynciter_models::conditions::DelayEnvelope;
use asynciter_models::Trace;
use std::path::Path;

/// Shrink budget for counterexample minimisation (predicate calls).
const SHRINK_BUDGET: u64 = 20_000;

/// True when some recorded read label sits outside `envelope` — the
/// trace-level signature of a frozen/corrupted label book under a
/// delivery-forcing envelope. Trace-pure, so it drives the shrinker.
pub fn envelope_violation(trace: &Trace, envelope: DelayEnvelope) -> bool {
    (1..=trace.len() as u64).any(|j| {
        let floor = envelope.min_label(j);
        trace
            .labels(j)
            .map(|ls| ls.iter().any(|&l| l < floor))
            .unwrap_or(false)
    })
}

/// The trace-pure shrink predicate for a violation class, when one
/// exists. Properties whose failure is not a function of the trace
/// alone (e.g. a replay divergence rooted in engine state) fall back to
/// the envelope signature, and the caller keeps the unshrunk trace if
/// that signature is absent.
fn shrink_predicate(property: Property, scope: &Scope) -> Box<dyn FnMut(&Trace) -> bool + '_> {
    match property {
        Property::KeepFreshest | Property::Reorder => {
            let workers = scope.workers;
            Box::new(move |t: &Trace| has_label_regression(t, workers))
        }
        _ => {
            let envelope = scope.envelope;
            Box::new(move |t: &Trace| envelope_violation(t, envelope))
        }
    }
}

/// Rebuilds, minimises and saves the counterexample of a found
/// violation in the corpus `.trace` format. Returns `(rebuilt steps,
/// saved steps)`; a violation whose class leaves no trace-pure
/// signature is saved unshrunk.
///
/// # Errors
/// I/O failures from saving, as a message.
pub fn emit_counterexample(
    model: &ClusterModel<'_>,
    found: &FoundViolation,
    out: &Path,
) -> Result<(u64, u64), String> {
    let (trace, _terminal) = rebuild(model, &found.path);
    let mut pred = shrink_predicate(found.violation.property, model.scope);
    if !pred(&trace) {
        save_trace(out, &trace)?;
        return Ok((trace.len() as u64, trace.len() as u64));
    }
    let no_signature = "the violation left no trace-pure signature";
    shrink_and_save(&trace, pred, SHRINK_BUDGET, no_signature, out)
}

/// Negative control: plants the severed block-boundary label bug,
/// proves the explorer finds it, and emits the shrunk, replayable
/// counterexample to `out`. Returns `(orig_steps, shrunk_steps)`.
///
/// # Errors
/// When the explorer fails to find the bug (the checker has a blind
/// spot) or emission fails.
pub fn inject_bug_demo(out: &Path) -> Result<(u64, u64), String> {
    let scope = Scope::inject();
    let problem = McProblem::build();
    // The demos stay on `Por::Off`: the committed fixtures are locked
    // byte for byte, and the reduced enumeration would find a different
    // (equally valid) representative path.
    let model = ClusterModel::new(&scope, &problem);
    let outcome = explore(&model, Strategy::Dfs, 1_000_000);
    let found = outcome
        .violation
        .ok_or("inject-mc-bug: explorer did not find the planted bug — blind spot")?;
    if found.violation.property != Property::Admissibility {
        return Err(format!(
            "inject-mc-bug: expected an admissibility (book-divergence) catch, got {}: {}",
            found.violation.property.id(),
            found.violation.detail
        ));
    }
    emit_counterexample(&model, &found, out)
}

/// Rediscovery probe: explores the `reorder` scope hunting the
/// out-of-order label-regression class and emits the shrunk witness to
/// `out`. Returns `(orig_steps, shrunk_steps)`.
///
/// # Errors
/// When no reorder witness exists in the scope (a regression in the
/// channel model) or emission fails.
pub fn find_reorder_demo(out: &Path) -> Result<(u64, u64), String> {
    let scope = Scope::reorder();
    let problem = McProblem::build();
    let model = ClusterModel {
        find_reorder: true,
        ..ClusterModel::new(&scope, &problem)
    };
    let outcome = explore(&model, Strategy::Dfs, 1_000_000);
    let found = outcome
        .violation
        .ok_or("find-reorder: scope no longer exhibits out-of-order application")?;
    if found.violation.property != Property::Reorder {
        return Err(format!(
            "find-reorder: unexpected violation {}: {}",
            found.violation.property.id(),
            found.violation.detail
        ));
    }
    let (trace, _) = rebuild(&model, &found.path);
    if !has_label_regression(&trace, scope.workers) {
        return Err("find-reorder: rebuilt trace lost the regression".into());
    }
    emit_counterexample(&model, &found, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_violation_detects_frozen_labels() {
        use asynciter_models::{LabelStore, Trace};
        let mut t = Trace::new(2, LabelStore::Full);
        t.push_step(&[0], &[0, 0]);
        t.push_step(&[1], &[1, 0]);
        t.push_step(&[0], &[1, 2]);
        // Bounded(2): min_label(3) = 1; all labels ≥ 1 at j=3 → ok.
        assert!(!envelope_violation(&t, DelayEnvelope::Bounded(2)));
        let mut t = Trace::new(2, LabelStore::Full);
        t.push_step(&[0], &[0, 0]);
        t.push_step(&[1], &[1, 0]);
        t.push_step(&[0], &[1, 0]); // component 1 frozen at 0 < min_label(3)
        assert!(envelope_violation(&t, DelayEnvelope::Bounded(2)));
    }

    #[test]
    fn inject_demo_emits_a_small_replayable_counterexample() {
        let dir = std::env::temp_dir().join("asynciter-mc-inject-demo-test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.join("bug.trace");
        let (orig, shrunk) = inject_bug_demo(&out).expect("demo finds the bug");
        assert!(orig >= 3, "bug needs the boundary message read: {orig}");
        assert!(shrunk <= orig);
        let trace = asynciter_conformance::corpus::load_trace(&out).unwrap();
        assert!(envelope_violation(&trace, Scope::inject().envelope));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
