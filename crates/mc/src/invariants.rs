//! The pluggable properties the explorer checks on every edge and every
//! terminal state.
//!
//! Four invariants guard the paper's claims inside a scope:
//!
//! 1. **Residual monotone** — the contraction certificate: each
//!    produced block satisfies `‖new − x*‖ ≤ α·‖read − x*‖`, and the
//!    system measure `Φ` (max error over all views and in-flight
//!    values) never increases along any edge. This is the mechanism
//!    behind Theorem 1's convergence under arbitrary admissible
//!    schedules, checked edge by edge.
//! 2. **KeepFreshest** — under `ApplyPolicy::KeepFreshest` no view
//!    label ever regresses: out-of-order and duplicated deliveries are
//!    absorbed, never applied stale.
//! 3. **Admissibility** — the engine's label book matches the spec book
//!    maintained independently from choice semantics, and every
//!    recorded read label satisfies condition (a) (`l_h(j) ≤ j − 1`).
//!    A divergence means the engine records labels its own deliveries
//!    did not justify — the class of bug `--inject-mc-bug` plants.
//! 4. **Horizon** — at every terminal state: once each worker has
//!    produced, the consensus error is at most `α·‖x0 − x*‖_∞`; the
//!    path's recorded trace is accepted by the scope's
//!    [`AdmissibilityWitness`]; and replaying that trace through the
//!    Definition-1 `Replay` engine reproduces the consensus **bit for
//!    bit** — a model-checking state is only "verified" if it is also
//!    the state the sequential semantics assigns to its schedule.
//!
//! The out-of-order *probe* ([`Property::Reorder`]) is the inverse: in
//! `--find-reorder` mode the explorer hunts for a label regression
//! across a worker's consecutive turns — the violation class of the
//! committed `fault-cluster-reorder.trace` — to prove the scope can
//! rediscover it.

use crate::book::{Book, EdgeInfo};
use crate::scope::{McProblem, Scope};
use crate::state::McState;
use asynciter_conformance::oracle::{replay, same_bits, Mismatch};
use asynciter_models::conditions::AdmissibilityWitness;
use asynciter_models::Trace;
use asynciter_runtime::ApplyPolicy;
use std::convert::identity;

/// Relative slack for floating-point property comparisons (shared with
/// the transport-seam checks).
pub(crate) const REL_EPS: f64 = 1e-9;
/// Absolute slack near zero.
pub(crate) const ABS_EPS: f64 = 1e-12;

/// The checked property families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Property {
    /// Contraction certificate: per-step block contraction and global
    /// `Φ` monotonicity.
    ResidualMonotone,
    /// `KeepFreshest` label monotonicity.
    KeepFreshest,
    /// Spec/engine book agreement + condition (a).
    Admissibility,
    /// Terminal convergence bound + witness + bit-identical replay.
    Horizon,
    /// Out-of-order application (label regression across a worker's
    /// consecutive turns) — the *target* of `--find-reorder`.
    Reorder,
}

impl Property {
    /// Stable identifier for reports and file names.
    pub fn id(self) -> &'static str {
        match self {
            Property::ResidualMonotone => "residual-monotone",
            Property::KeepFreshest => "keep-freshest",
            Property::Admissibility => "admissibility",
            Property::Horizon => "horizon",
            Property::Reorder => "reorder",
        }
    }
}

/// A property violation observed on an edge or at a terminal state.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which property failed.
    pub property: Property,
    /// Global step at (or by) which it failed.
    pub j: u64,
    /// Human-readable diagnosis.
    pub detail: String,
}

/// Residual monotonicity of one edge under the contraction
/// certificate: the produced block contracts the read error by `α`, and
/// the system measure `Φ` never increases.
pub(crate) fn check_contraction(problem: &McProblem, edge: &EdgeInfo) -> Option<Violation> {
    if edge.produced_err > problem.alpha * edge.read_err * (1.0 + REL_EPS) + ABS_EPS {
        return Some(Violation {
            property: Property::ResidualMonotone,
            j: edge.j,
            detail: format!(
                "block contraction broken at j={}: produced err {:.3e} > α·read err {:.3e}",
                edge.j,
                edge.produced_err,
                problem.alpha * edge.read_err
            ),
        });
    }
    if edge.phi_after > edge.phi_before * (1.0 + REL_EPS) + ABS_EPS {
        return Some(Violation {
            property: Property::ResidualMonotone,
            j: edge.j,
            detail: format!(
                "system measure Φ increased at j={}: {:.3e} → {:.3e}",
                edge.j, edge.phi_before, edge.phi_after
            ),
        });
    }
    None
}

/// Admissibility of one edge: condition (a) on the recorded read, and
/// agreement of every worker's engine label book with its spec book
/// after the step.
pub(crate) fn check_admissibility(
    problem: &McProblem,
    book: &Book,
    edge: &EdgeInfo,
) -> Option<Violation> {
    if let Some(c) = (0..problem.n()).find(|&c| edge.read_labels[c] >= edge.j) {
        return Some(Violation {
            property: Property::Admissibility,
            j: edge.j,
            detail: format!(
                "condition (a) violated at j={}: component {c} read label {} ≥ j",
                edge.j, edge.read_labels[c]
            ),
        });
    }
    for (ww, (worker, spec)) in book.workers.iter().zip(&book.spec).enumerate() {
        let engine = worker.labels();
        if let Some(c) = (0..problem.n()).find(|&c| engine[c] != spec[c]) {
            return Some(Violation {
                property: Property::Admissibility,
                j: edge.j,
                detail: format!(
                    "engine label book diverged from spec at j={}: worker {ww} component {c} \
                     engine={} spec={}",
                    edge.j, engine[c], spec[c]
                ),
            });
        }
    }
    None
}

/// Checks the edge-local invariants after applying one transition.
/// `parent`/`child` bracket the edge; `edge` carries the observations.
pub fn check_edge(
    scope: &Scope,
    problem: &McProblem,
    parent: &McState,
    child: &McState,
    edge: &EdgeInfo,
) -> Option<Violation> {
    if let Some(v) = check_contraction(problem, edge) {
        return Some(v);
    }
    // KeepFreshest label monotonicity (view labels never regress).
    let w = edge.worker;
    if scope.apply_policy == ApplyPolicy::KeepFreshest {
        let (before, after) = (
            parent.book.workers[w].labels(),
            child.book.workers[w].labels(),
        );
        if let Some(c) = (0..problem.n()).find(|&c| after[c] < before[c]) {
            return Some(Violation {
                property: Property::KeepFreshest,
                j: edge.j,
                detail: format!(
                    "KeepFreshest applied a stale value at j={}: component {c} label {} → {}",
                    edge.j, before[c], after[c]
                ),
            });
        }
    }
    check_admissibility(problem, &child.book, edge)
}

/// Checks the out-of-order probe on an edge: a label regression between
/// a worker's consecutive read vectors. Only meaningful when the scope
/// tracks read history. In `--find-reorder` mode this "violation" is
/// the sought witness.
pub fn check_reorder(problem: &McProblem, edge: &EdgeInfo) -> Option<Violation> {
    let prev = edge.prev_read.as_ref()?;
    let c = (0..problem.n()).find(|&c| edge.read_labels[c] < prev[c])?;
    Some(Violation {
        property: Property::Reorder,
        j: edge.j,
        detail: format!(
            "out-of-order application: worker {} read label of component {c} regressed {} → {} \
             between consecutive turns (turn ending j={})",
            edge.worker, prev[c], edge.read_labels[c], edge.j
        ),
    })
}

/// Checks the terminal (horizon) invariants of one fully-explored path:
/// consensus contraction bound, witness acceptance of the recorded
/// trace, and bit-identical replay through the Definition-1 engine.
pub fn check_terminal(
    scope: &Scope,
    problem: &McProblem,
    state: &McState,
    trace: &Trace,
) -> Option<Violation> {
    // Steering gap: round-robin updates every component within
    // `workers` steps.
    let witness = AdmissibilityWitness::new(scope.envelope, scope.workers as u64);
    check_horizon(problem, &state.book, scope.steps, &witness, trace)
}

/// The horizon invariants shared by every model: `book` holds the
/// workers at the terminal state, `steps` is the scope's
/// producing-step horizon, `witness` its admissibility witness
/// (envelope + steering gap).
pub(crate) fn check_horizon(
    problem: &McProblem,
    book: &Book,
    steps: u64,
    witness: &AdmissibilityWitness,
    trace: &Trace,
) -> Option<Violation> {
    let n = problem.n();
    let mut consensus = vec![0.0; n];
    for worker in &book.workers {
        for &i in worker.block() {
            consensus[i] = worker.view()[i];
        }
    }
    let violation = |detail| {
        Some(Violation {
            property: Property::Horizon,
            j: steps,
            detail,
        })
    };

    // Convergence at the horizon: once every worker has produced at
    // least once, each owned block went through one contraction of a
    // view whose error was ≤ Φ₀ = E₀.
    if steps >= book.workers.len() as u64 {
        let err = consensus
            .iter()
            .enumerate()
            .map(|(c, &v)| (v - problem.xstar[c]).abs())
            .fold(0.0_f64, f64::max);
        let bound = problem.alpha * problem.e0 * (1.0 + REL_EPS) + ABS_EPS;
        if err > bound {
            return violation(format!(
                "consensus error {err:.6e} exceeds the contraction bound α·E₀ = {bound:.6e}"
            ));
        }
    }

    // The recorded schedule must carry the scope's admissibility
    // witness.
    if let Err(e) = witness.check(trace) {
        return violation(format!("terminal trace rejected by the scope witness: {e}"));
    }

    // Bit-identical replay: the Definition-1 engine, fed the recorded
    // producing-step trace, must land on exactly the same consensus.
    let report = match replay(&problem.op, &problem.x0, trace, identity) {
        Ok(report) => report,
        Err(e) => return violation(format!("terminal trace does not replay: {e}")),
    };
    match same_bits(&report.final_x, &consensus) {
        Ok(()) => None,
        Err(Mismatch::At(c)) => violation(format!(
            "replay diverged from the explored state at component {c}: \
             replay={:?} vs consensus={:?}",
            report.final_x[c], consensus[c]
        )),
        Err(length) => violation(format!("replay vs consensus: {length}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{apply_choice, enumerate_choices, McState};

    #[test]
    fn fault_free_first_edge_passes_all_edge_checks() {
        let scope = Scope::quick();
        let problem = McProblem::build();
        let s = McState::initial(&scope, &problem);
        for choice in enumerate_choices(&s, &scope) {
            // Capacity/admissibility prunes (the Err side) are fine.
            if let Ok((t, edge)) = apply_choice(&s, &choice, &scope, &problem, None) {
                assert!(check_edge(&scope, &problem, &s, &t, &edge).is_none());
                assert!(check_reorder(&problem, &edge).is_none());
            }
        }
    }

    #[test]
    fn book_divergence_is_flagged() {
        let scope = Scope::quick();
        let problem = McProblem::build();
        let s = McState::initial(&scope, &problem);
        let choice = &enumerate_choices(&s, &scope)[0];
        let (mut t, edge) = apply_choice(&s, choice, &scope, &problem, None).unwrap();
        t.book.spec[1][3] = 7; // the books no longer agree
        let v = check_edge(&scope, &problem, &s, &t, &edge).expect("divergence caught");
        assert_eq!(v.property, Property::Admissibility);
    }

    #[test]
    fn reorder_probe_fires_on_a_regressed_read() {
        let problem = McProblem::build();
        let edge = EdgeInfo {
            j: 6,
            worker: 1,
            read_labels: vec![1; problem.n()],
            prev_read: Some(vec![3; problem.n()]),
            read_err: 0.0,
            produced_err: 0.0,
            phi_before: 1.0,
            phi_after: 1.0,
        };
        let v = check_reorder(&problem, &edge).expect("regression caught");
        assert_eq!(v.property, Property::Reorder);
    }
}
