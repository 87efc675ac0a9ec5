//! What "the same run" means, written once.
//!
//! Definition 1 makes the iterates a function of `(F, x(0), 𝒮, ℒ)`, so two
//! executions of one schedule must agree bit for bit, and every check of
//! that law in the workspace — the service's solo re-run, the conformance
//! oracles, `mc`'s horizon property and the tier-1 equivalences — goes
//! through this module:
//!
//! - [`same_bits`] compares two iterates on `to_bits`, so `0.0` and
//!   `-0.0` differ and a NaN equals its own bits (`==` on `f64` gets
//!   both wrong);
//! - [`same_schedule`] compares two recorded schedules step for step;
//! - [`differences`] / [`same_run`] compare two [`RunReport`]s on the
//!   [`Fields`] a law fixes and name every field that differs.

use crate::session::RunReport;
use asynciter_models::Trace;
use std::fmt::{self, Debug};

/// Where two sequences first part ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mismatch {
    /// The two sides have different lengths (components or steps):
    /// `(left, right)`.
    Length(usize, usize),
    /// The first differing index: a component of an iterate, or the
    /// 1-based step `j` of a schedule.
    At(usize),
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Length(left, right) => write!(f, "lengths differ ({left} vs {right})"),
            Self::At(i) => write!(f, "first difference at {i}"),
        }
    }
}

/// Equal lengths, then the first index of `first..first + len` that
/// `differs`.
fn first_mismatch(
    (left, right): (usize, usize),
    first: usize,
    differs: impl Fn(usize) -> bool,
) -> Result<(), Mismatch> {
    if left != right {
        return Err(Mismatch::Length(left, right));
    }
    (first..first + left)
        .find(|&i| differs(i))
        .map_or(Ok(()), |i| Err(Mismatch::At(i)))
}

/// Bit identity of two iterates: the first component whose `to_bits()`
/// differ, or a length mismatch.
///
/// # Errors
/// The first [`Mismatch`].
pub fn same_bits(a: &[f64], b: &[f64]) -> Result<(), Mismatch> {
    first_mismatch((a.len(), b.len()), 0, |i| a[i].to_bits() != b[i].to_bits())
}

/// Identity of two recorded schedules: the first step `j` whose
/// `step(j)` (active set and `min_label`) or `labels(j)` differ, or a
/// length mismatch.
///
/// # Errors
/// The first [`Mismatch`].
pub fn same_schedule(a: &Trace, b: &Trace) -> Result<(), Mismatch> {
    first_mismatch((a.len(), b.len()), 1, |j| {
        let j = j as u64;
        a.step(j) != b.step(j) || a.labels(j).ok() != b.labels(j).ok()
    })
}

/// Which fields of two [`RunReport`]s a comparison covers. Neither covers
/// what a run keeps or measures rather than computes: `trace`, `wall`,
/// `backend`, `tenant` and `job`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fields {
    /// What Definition 1 fixes whichever machine executed the schedule:
    /// `final_x`, `final_residual`, `steps`, `macro_iterations`, `errors`
    /// and `residuals`. The law between two backends, or between a run
    /// and the replay of its trace.
    Definition1,
    /// Everything a run computes: [`Fields::Definition1`], plus
    /// `stopped_early`, `error_times`, the partial and constraint
    /// counters, `per_worker_updates`, `sim_time` and `channel`. The law
    /// between two runs of one backend under one configuration, whatever
    /// they record and whoever shares their process.
    Computed,
}

/// One field where two runs differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Difference {
    /// The [`RunReport`] field (`"final_x"`, `"steps"`, …).
    pub field: &'static str,
    /// The first differing entry, left side first.
    pub detail: String,
}

impl fmt::Display for Difference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.detail)
    }
}

/// Slices `a` against `b`: `None` when equal, otherwise the first
/// differing entry as `left vs right`, or the lengths.
fn entries<T: Debug>(a: &[T], b: &[T], same: impl Fn(&T, &T) -> bool) -> Option<String> {
    match first_mismatch((a.len(), b.len()), 0, |i| !same(&a[i], &b[i])) {
        Ok(()) => None,
        Err(Mismatch::At(i)) => Some(format!("at {i}: {:?} vs {:?}", a[i], b[i])),
        Err(length) => Some(length.to_string()),
    }
}

/// A scalar `a` against `b`: `None` when equal, otherwise `left vs right`.
fn value<T: PartialEq + Debug>(a: T, b: T) -> Option<String> {
    (a != b).then(|| format!("{a:?} vs {b:?}"))
}

/// A float `a` against `b` on `to_bits`.
fn float(a: f64, b: f64) -> Option<String> {
    (a.to_bits() != b.to_bits()).then(|| format!("{a:?} vs {b:?}"))
}

/// Every field in `fields` where `a` and `b` differ, in declaration
/// order; empty when they are the same run. Floats compare on
/// `to_bits`, as in [`same_bits`].
pub fn differences(a: &RunReport, b: &RunReport, fields: Fields) -> Vec<Difference> {
    let bits = |x: &f64, y: &f64| x.to_bits() == y.to_bits();
    let sample = |x: &(u64, f64), y: &(u64, f64)| x.0 == y.0 && bits(&x.1, &y.1);
    let count = |field, get: fn(&RunReport) -> u64| (field, value(get(a), get(b)));
    let counts = |field, get: fn(&RunReport) -> &[u64]| (field, entries(get(a), get(b), u64::eq));
    let mut checks = vec![
        ("final_x", entries(&a.final_x, &b.final_x, bits)),
        count("steps", |r| r.steps),
        count("macro_iterations", |r| r.macro_iterations),
        ("errors", entries(&a.errors, &b.errors, sample)),
        ("residuals", entries(&a.residuals, &b.residuals, sample)),
        ("final_residual", float(a.final_residual, b.final_residual)),
    ];
    if fields == Fields::Computed {
        checks.extend([
            ("stopped_early", value(a.stopped_early, b.stopped_early)),
            counts("error_times", |r| &r.error_times),
            counts("per_worker_updates", |r| &r.per_worker_updates),
            count("partial_publishes", |r| r.partial_publishes),
            count("partial_reads", |r| r.partial_reads),
            count("constraint_checked", |r| r.constraint_checked),
            count("constraint_violations", |r| r.constraint_violations),
            ("sim_time", value(a.sim_time, b.sim_time)),
            ("channel", value(&a.channel, &b.channel)),
        ]);
    }
    checks
        .into_iter()
        .filter_map(|(field, detail)| detail.map(|detail| Difference { field, detail }))
        .collect()
}

/// [`differences`] as a verdict.
///
/// # Errors
/// Every differing field, `; `-separated.
pub fn same_run(a: &RunReport, b: &RunReport, fields: Fields) -> Result<(), String> {
    let found = differences(a, b, fields);
    if found.is_empty() {
        return Ok(());
    }
    let named: Vec<String> = found.iter().map(Difference::to_string).collect();
    Err(named.join("; "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_models::LabelStore;

    #[test]
    fn bit_identity_compares_bits_not_float_equality() {
        // 0.0 == -0.0 as floats, but the replay law is bitwise.
        assert_eq!(same_bits(&[0.0], &[-0.0]), Err(Mismatch::At(0)));
        // A NaN is not == to itself, but agrees with its own bits.
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        assert_eq!(same_bits(&[1.0, nan], &[1.0, nan]), Ok(()));
        assert_eq!(same_bits(&[1.0], &[1.0, 2.0]), Err(Mismatch::Length(1, 2)));
        assert_eq!(
            same_bits(&[1.0, 2.0], &[1.0]).unwrap_err().to_string(),
            "lengths differ (2 vs 1)"
        );
    }

    #[test]
    fn schedules_differing_only_in_one_min_label_differ() {
        // Min-only traces store no label vectors, so only `step(j)`
        // (active set and `l(j)`) can tell these apart.
        let mut a = Trace::new(3, LabelStore::MinOnly);
        let mut b = Trace::new(3, LabelStore::MinOnly);
        for j in 0..4u64 {
            a.push_min_step(&[0, 2], j);
            b.push_min_step(&[0, 2], if j == 2 { 1 } else { j });
        }
        assert_eq!(same_schedule(&a, &a), Ok(()));
        assert_eq!(same_schedule(&a, &b), Err(Mismatch::At(3)));
        b.push_min_step(&[1], 4);
        assert_eq!(same_schedule(&a, &b), Err(Mismatch::Length(4, 5)));
    }

    #[test]
    fn reports_differ_on_every_computed_field_they_name() {
        let a = RunReport {
            residuals: vec![(4, 0.5)],
            per_worker_updates: vec![3, 5],
            ..RunReport::new("cluster", vec![1.0, 0.0], 8, 0.25)
        };
        // What a run keeps or measures is not compared.
        let kept = RunReport {
            backend: "replay",
            tenant: Some(1),
            wall: std::time::Duration::from_secs(1),
            ..a.clone()
        };
        assert_eq!(same_run(&a, &kept, Fields::Computed), Ok(()));
        let b = RunReport {
            final_x: vec![1.0, -0.0],
            residuals: vec![(4, -0.5)],
            per_worker_updates: vec![3, 6],
            sim_time: Some(9),
            ..a.clone()
        };
        let named = |fields| -> Vec<_> {
            let found = differences(&a, &b, fields);
            found.into_iter().map(|d| d.field).collect()
        };
        assert_eq!(named(Fields::Definition1), ["final_x", "residuals"]);
        assert_eq!(
            named(Fields::Computed),
            ["final_x", "residuals", "per_worker_updates", "sim_time"]
        );
        assert_eq!(
            same_run(&a, &b, Fields::Definition1),
            Err("final_x: at 1: 0.0 vs -0.0; residuals: at 0: (4, 0.5) vs (4, -0.5)".into())
        );
    }
}
