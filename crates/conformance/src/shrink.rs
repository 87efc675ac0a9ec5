//! Trace shrinking: minimise a failing schedule to a small replayable
//! counterexample.
//!
//! The shrinker is property-agnostic: it takes a predicate "does this
//! trace still exhibit the failure?" and greedily applies three
//! deterministic reduction passes until none makes progress:
//!
//! 1. **Prefix truncation** — the smallest failing prefix, found with
//!    the halving candidates of the `proptest` shim.
//! 2. **Steering-set thinning** — drop components from each step's
//!    `S_j` (never below one).
//! 3. **Label freshening** — move labels toward `j − 1`, removing
//!    staleness that is irrelevant to the failure. A label the
//!    predicate depends on survives, which is exactly what makes the
//!    minimised trace point at the offending read.
//!
//! All passes preserve the structural trace invariants (`push_step`
//! re-validates), so the result always replays through
//! `Session::replay_trace`.

use asynciter_models::{LabelStore, Trace};
use proptest::shrink::{minimize, u64_candidates, vec_remove_candidates};
use std::path::Path;

/// Outcome of a shrink run.
#[derive(Debug)]
pub struct ShrinkResult {
    /// The minimised trace (still failing the predicate).
    pub trace: Trace,
    /// Predicate evaluations spent.
    pub attempts: u64,
    /// Reduction passes completed.
    pub rounds: u32,
}

/// The first `k ≥ 1` steps of a trace (full labels).
fn prefix(t: &Trace, k: u64) -> Trace {
    let mut out = Trace::new(t.n(), LabelStore::Full);
    for j in 1..=k.min(t.len() as u64) {
        let active: Vec<usize> = t.step(j).active.iter().map(|&i| i as usize).collect();
        out.push_step(&active, t.labels(j).expect("shrink requires full labels"));
    }
    out
}

/// A copy of `t` with step `j`'s active set and labels replaced.
fn with_step(t: &Trace, j: u64, active: &[usize], labels: &[u64]) -> Trace {
    let mut out = Trace::new(t.n(), LabelStore::Full);
    for jj in 1..=t.len() as u64 {
        if jj == j {
            out.push_step(active, labels);
        } else {
            let a: Vec<usize> = t.step(jj).active.iter().map(|&i| i as usize).collect();
            out.push_step(&a, t.labels(jj).expect("full labels"));
        }
    }
    out
}

/// Size measure driving the fixed-point loop: total steps plus total
/// active components plus total staleness-carrying labels.
fn weight(t: &Trace) -> u64 {
    let mut w = t.len() as u64;
    for (j, s) in t.iter() {
        w += s.active.len() as u64;
        w += t
            .labels(j)
            .expect("full labels")
            .iter()
            .filter(|&&l| l != j - 1)
            .count() as u64;
    }
    w
}

/// Per-step edits only make sense on already-small traces; above this
/// the prefix pass must do the cutting first (a candidate costs a full
/// trace rebuild, so the quadratic passes are gated).
const EDIT_PASS_MAX_LEN: u64 = 2_000;

/// Greedily minimises `trace` while `still_fails` holds, spending at
/// most `max_attempts` predicate evaluations.
///
/// Returns the trace unchanged when the predicate does not fail on the
/// input (nothing to shrink) — callers should check the predicate first
/// if they need to distinguish the two cases.
///
/// # Panics
/// Panics on traces without full labels (min-only traces are not
/// replayable counterexamples).
pub fn shrink_trace<F: FnMut(&Trace) -> bool>(
    trace: &Trace,
    mut still_fails: F,
    max_attempts: u64,
) -> ShrinkResult {
    assert_eq!(
        trace.store(),
        LabelStore::Full,
        "shrink_trace: requires full labels"
    );
    if trace.is_empty() || !still_fails(trace) {
        return ShrinkResult {
            trace: trace.clone(),
            attempts: 0,
            rounds: 0,
        };
    }
    let mut cur = trace.clone();
    let mut spent = 0u64;
    let mut rounds = 0u32;
    loop {
        let before = weight(&cur);
        let budget = max_attempts.saturating_sub(spent);

        // Pass 1 — prefix truncation, searched over the *length* so a
        // candidate is one cheap rebuild, driven by the proptest shim's
        // halving candidates.
        let (best_len, attempts) = minimize(
            cur.len() as u64,
            |&k| still_fails(&prefix(&cur, k)),
            |&k| u64_candidates(1, k),
            budget,
        );
        spent += attempts;
        if best_len < cur.len() as u64 {
            cur = prefix(&cur, best_len);
        }

        // Passes 2 and 3 are quadratic in the trace length; only worth
        // it (and only affordable) once the prefix pass has cut down.
        if (cur.len() as u64) <= EDIT_PASS_MAX_LEN {
            // Pass 2 — steering-set thinning, per step from the end
            // (later steps usually carry the failure).
            for j in (1..=cur.len() as u64).rev() {
                if spent >= max_attempts {
                    break;
                }
                let active: Vec<usize> = cur.step(j).active.iter().map(|&i| i as usize).collect();
                if active.len() <= 1 {
                    continue;
                }
                let labels = cur.labels(j).expect("full labels").to_vec();
                let (thinned, attempts) = minimize(
                    active,
                    |a| still_fails(&with_step(&cur, j, a, &labels)),
                    |a| vec_remove_candidates(a, 1),
                    max_attempts.saturating_sub(spent),
                );
                spent += attempts;
                if thinned.len() < cur.step(j).active.len() {
                    cur = with_step(&cur, j, &thinned, &labels);
                }
            }

            // Pass 3 — label freshening: whole trace, then per step,
            // then per entry (short traces only).
            let all_fresh = {
                let mut t = Trace::new(cur.n(), LabelStore::Full);
                for j in 1..=cur.len() as u64 {
                    let a: Vec<usize> = cur.step(j).active.iter().map(|&i| i as usize).collect();
                    t.push_step(&a, &vec![j - 1; cur.n()]);
                }
                t
            };
            if weight(&all_fresh) < weight(&cur) && spent < max_attempts {
                spent += 1;
                if still_fails(&all_fresh) {
                    cur = all_fresh;
                }
            }
            for j in 1..=cur.len() as u64 {
                if spent >= max_attempts {
                    break;
                }
                let active: Vec<usize> = cur.step(j).active.iter().map(|&i| i as usize).collect();
                let labels = cur.labels(j).expect("full labels").to_vec();
                let fresh = vec![j - 1; cur.n()];
                if labels != fresh {
                    spent += 1;
                    if still_fails(&with_step(&cur, j, &active, &fresh)) {
                        cur = with_step(&cur, j, &active, &fresh);
                        continue;
                    }
                    if cur.len() <= 200 {
                        for h in 0..cur.n() {
                            if labels[h] == j - 1 || spent >= max_attempts {
                                continue;
                            }
                            let mut ls = cur.labels(j).expect("full labels").to_vec();
                            if ls[h] == j - 1 {
                                continue;
                            }
                            ls[h] = j - 1;
                            spent += 1;
                            if still_fails(&with_step(&cur, j, &active, &ls)) {
                                cur = with_step(&cur, j, &active, &ls);
                            }
                        }
                    }
                }
            }
        }

        rounds += 1;
        if weight(&cur) >= before || spent >= max_attempts || rounds >= 8 {
            break;
        }
    }
    ShrinkResult {
        trace: cur,
        attempts: spent,
        rounds,
    }
}

/// The one "check, shrink, re-check, save" sequence behind every
/// persisted exhibit: fails with `not_caught` unless `still_fails`
/// holds on `trace`, minimises within `budget` predicate evaluations,
/// confirms the minimised trace still fails, and writes it to `out`.
/// Returns `(original steps, shrunk steps)`.
///
/// # Errors
/// `not_caught`, a shrinker that lost the failure, or the save error.
///
/// # Panics
/// As [`shrink_trace`]: on traces without full labels.
pub fn shrink_and_save(
    trace: &Trace,
    mut still_fails: impl FnMut(&Trace) -> bool,
    budget: u64,
    not_caught: &str,
    out: &Path,
) -> Result<(u64, u64), String> {
    if !still_fails(trace) {
        return Err(not_caught.into());
    }
    let res = shrink_trace(trace, &mut still_fails, budget);
    if !still_fails(&res.trace) {
        return Err("shrinking lost the failure it was minimising".into());
    }
    crate::corpus::save_trace(out, &res.trace)?;
    Ok((trace.len() as u64, res.trace.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_models::conditions::{AdmissibilityWitness, DelayEnvelope};
    use asynciter_models::schedule::{record, ChaoticBounded};
    use asynciter_models::ModelError;

    fn chaotic_trace(steps: u64) -> Trace {
        let mut g = ChaoticBounded::new(6, 2, 4, 8, false, 5);
        record(&mut g, steps, LabelStore::Full)
    }

    #[test]
    fn shrinks_stale_read_to_a_tiny_trace() {
        // Failure: some step reads with delay >= 5. The minimal
        // exhibit is a single-digit trace whose last step carries the
        // stale read, with every other label freshened.
        let t = chaotic_trace(400);
        let fails = |t: &Trace| {
            t.iter().any(|(j, _)| {
                t.labels(j)
                    .map(|ls| ls.iter().any(|&l| j - l >= 5))
                    .unwrap_or(false)
            })
        };
        assert!(fails(&t));
        let res = shrink_trace(&t, fails, 200_000);
        assert!(fails(&res.trace), "shrunk trace lost the failure");
        assert!(
            res.trace.len() <= 6,
            "expected near-minimal trace, got {} steps",
            res.trace.len()
        );
        // Exactly one stale label survives the freshening pass.
        let stale: usize = res
            .trace
            .iter()
            .map(|(j, _)| {
                res.trace
                    .labels(j)
                    .unwrap()
                    .iter()
                    .filter(|&&l| j - l >= 5)
                    .count()
            })
            .sum();
        assert_eq!(stale, 1, "freshening left extra staleness");
    }

    #[test]
    fn shrinks_witness_violation_to_its_cause() {
        // Corrupt a long admissible trace by freezing component 2's
        // label at 0, then shrink against "witness rejects with (b) on
        // component 2". The minimum must still pin component 2.
        let base = chaotic_trace(400);
        let mut corrupt = Trace::new(base.n(), LabelStore::Full);
        for j in 1..=base.len() as u64 {
            let active: Vec<usize> = base.step(j).active.iter().map(|&i| i as usize).collect();
            let mut labels = base.labels(j).unwrap().to_vec();
            labels[2] = 0;
            corrupt.push_step(&active, &labels);
        }
        let witness = AdmissibilityWitness::new(DelayEnvelope::Bounded(8), 400);
        let fails = |t: &Trace| {
            matches!(
                witness.check(t),
                Err(ModelError::ConditionViolated {
                    condition: "b",
                    component: 2,
                    ..
                })
            )
        };
        assert!(fails(&corrupt));
        let res = shrink_trace(&corrupt, fails, 200_000);
        assert!(fails(&res.trace));
        // The envelope floor first rises above 0 at j = b + 1 = 9, so
        // the minimal rejected prefix has exactly 9 steps.
        assert_eq!(res.trace.len(), 9);
    }

    #[test]
    fn non_failing_trace_returns_unchanged() {
        let t = chaotic_trace(50);
        let res = shrink_trace(&t, |_| false, 10_000);
        assert_eq!(res.trace.len(), 50);
        assert_eq!(res.attempts, 0);
    }

    #[test]
    fn shrunk_traces_keep_structural_invariants() {
        let t = chaotic_trace(300);
        let fails = |t: &Trace| t.len() >= 3;
        let res = shrink_trace(&t, fails, 50_000);
        assert_eq!(res.trace.len(), 3);
        // Round-trips through the archive format (replayability).
        let text = asynciter_models::trace_io::trace_to_string(&res.trace).unwrap();
        let back = asynciter_models::trace_io::trace_from_str(&text).unwrap();
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn shrink_and_save_checks_before_and_after_and_persists() {
        let dir = std::env::temp_dir().join(format!("asynciter-shrink-{}", std::process::id()));
        let out = dir.join("nested/exhibit.trace");
        let t = chaotic_trace(120);
        // Not caught: nothing is shrunk, nothing is written.
        let err = shrink_and_save(&t, |_| false, 1_000, "not caught here", &out);
        assert_eq!(err, Err("not caught here".to_string()));
        assert!(!out.exists());
        // A predicate the minimised trace no longer satisfies is reported
        // rather than persisted.
        let mut calls = 0;
        let flaky = |_: &Trace| {
            calls += 1;
            calls == 1
        };
        let err = shrink_and_save(&t, flaky, 1_000, "n/a", &out).unwrap_err();
        assert_eq!(err, "shrinking lost the failure it was minimising");
        assert!(!out.exists());
        // Caught: minimised, re-checked, saved under a fresh parent.
        let steps = shrink_and_save(&t, |t| t.len() >= 4, 10_000, "n/a", &out);
        assert_eq!(steps, Ok((120, 4)));
        assert_eq!(crate::corpus::load_trace(&out).unwrap().len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
