//! The bounded exhaustive explorer: DFS/BFS over canonical states with
//! state-hash deduplication and budget guards.
//!
//! Both strategies enumerate the identical reachable-state set — the
//! frontier discipline only changes *visit order* — so visited counts,
//! dedup hits, edge counts, prune counts and verdicts are
//! strategy-independent, and the tier-1 suite locks that equality. The
//! visited set is a `BTreeSet<u128>` of [`crate::state::state_hash`]
//! values: platform-stable, iteration-order-free.
//!
//! Each frontier node carries its choice path from the root (scopes are
//! ≤ 8 steps deep, so paths are tiny); on a violation the path is
//! replayed deterministically to rebuild the producing-step trace for
//! the counterexample pipeline.

use crate::book::{EdgeInfo, PruneReason};
use crate::invariants::{check_edge, check_reorder, check_terminal, Violation};
use crate::scope::{McProblem, Scope, MC_DIM};
use crate::state::{
    apply_choice, enumerate_choices_por, state_hash, McState, Por, PorCounts, StepChoice,
};
use asynciter_models::{LabelStore, Trace};
use std::collections::{BTreeSet, VecDeque};

/// Frontier discipline. Coverage is identical; only visit order moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Depth-first (stack) — default; minimal frontier memory.
    Dfs,
    /// Breadth-first (queue) — shortest-path counterexamples.
    Bfs,
}

impl Strategy {
    /// Parses `"dfs"` / `"bfs"`.
    ///
    /// # Errors
    /// Anything else, as a message.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "dfs" => Ok(Strategy::Dfs),
            "bfs" => Ok(Strategy::Bfs),
            other => Err(format!("unknown strategy '{other}' (valid: dfs, bfs)")),
        }
    }

    /// Stable identifier (`"dfs"` / `"bfs"`).
    pub fn id(self) -> &'static str {
        match self {
            Strategy::Dfs => "dfs",
            Strategy::Bfs => "bfs",
        }
    }
}

/// A bounded transition system the explorer can exhaust. The two
/// instances are the cluster-regime scopes ([`ClusterModel`]) and the
/// transport-seam scopes ([`crate::seam::SeamModel`]); everything about
/// search order, deduplication, budgets and counters lives in
/// [`explore`], everything about *what* a step is lives behind this
/// trait.
pub trait Model {
    /// Canonical global state.
    type State: Clone;
    /// The resolved nondeterminism of one transition.
    type Choice;
    /// Observations of one applied transition, consumed by
    /// [`Model::check_edge`].
    type Edge;

    /// The root state.
    fn initial(&self) -> Self::State;
    /// True at the scope's horizon (no successors; terminal checks run).
    fn is_terminal(&self, state: &Self::State) -> bool;
    /// Every choice available in `state`, in a deterministic order,
    /// plus what a partial-order reduction removed (zeros when the
    /// model has none).
    fn enumerate(&self, state: &Self::State) -> (Vec<Self::Choice>, PorCounts);
    /// Applies `choice`, pushing the executed step onto `trace` when
    /// given.
    ///
    /// # Errors
    /// [`PruneReason`] when the branch leaves the scope.
    fn apply(
        &self,
        state: &Self::State,
        choice: &Self::Choice,
        trace: Option<&mut Trace>,
    ) -> Result<(Self::State, Self::Edge), PruneReason>;
    /// Edge-local invariants of the transition `parent → child`.
    fn check_edge(
        &self,
        parent: &Self::State,
        child: &Self::State,
        edge: &Self::Edge,
    ) -> Option<Violation>;
    /// Terminal invariants of one fully-explored path and its trace.
    fn check_terminal(&self, state: &Self::State, trace: &Trace) -> Option<Violation>;
    /// The dedup key of `state`.
    fn state_hash(&self, state: &Self::State) -> u128;
}

/// The cluster-regime model: a [`Scope`] on the scope problem, with the
/// two exploration modes that change its transition relation or goal.
#[derive(Clone, Copy)]
pub struct ClusterModel<'a> {
    /// The bounded universe.
    pub scope: &'a Scope,
    /// The fixed-point problem every worker steps.
    pub problem: &'a McProblem,
    /// Switches the goal: edge invariants still guard the run, but the
    /// explorer *hunts* the out-of-order label-regression witness and
    /// reports it as the (sought) violation.
    pub find_reorder: bool,
    /// [`Por::On`] explores the reduced space (same verdicts and
    /// violation classes, fewer states — see [`enumerate_choices_por`]).
    /// Choice indices, and hence paths, are relative to this mode.
    pub por: Por,
}

impl<'a> ClusterModel<'a> {
    /// The plain exhaustive sweep: no reorder hunt, no reduction.
    pub fn new(scope: &'a Scope, problem: &'a McProblem) -> Self {
        Self {
            scope,
            problem,
            find_reorder: false,
            por: Por::Off,
        }
    }
}

impl Model for ClusterModel<'_> {
    type State = McState;
    type Choice = StepChoice;
    type Edge = EdgeInfo;

    fn initial(&self) -> McState {
        McState::initial(self.scope, self.problem)
    }

    fn is_terminal(&self, state: &McState) -> bool {
        state.next_step > self.scope.steps
    }

    fn enumerate(&self, state: &McState) -> (Vec<StepChoice>, PorCounts) {
        enumerate_choices_por(state, self.scope, self.por)
    }

    fn apply(
        &self,
        state: &McState,
        choice: &StepChoice,
        trace: Option<&mut Trace>,
    ) -> Result<(McState, EdgeInfo), PruneReason> {
        apply_choice(state, choice, self.scope, self.problem, trace)
    }

    fn check_edge(&self, parent: &McState, child: &McState, edge: &EdgeInfo) -> Option<Violation> {
        let found = check_edge(self.scope, self.problem, parent, child, edge);
        if found.is_none() && self.find_reorder {
            return check_reorder(self.problem, edge);
        }
        found
    }

    fn check_terminal(&self, state: &McState, trace: &Trace) -> Option<Violation> {
        check_terminal(self.scope, self.problem, state, trace)
    }

    fn state_hash(&self, state: &McState) -> u128 {
        state_hash(state)
    }
}

/// Counters of one exploration run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct states visited (dedup keys inserted), root included.
    pub visited: u64,
    /// Successors that hashed to an already-visited state.
    pub dedup_hits: u64,
    /// Transitions applied (excludes pruned branches).
    pub edges: u64,
    /// Terminal (horizon) states reached.
    pub terminals: u64,
    /// Branches cut by mailbox capacity.
    pub pruned_capacity: u64,
    /// Branches cut by the admissibility envelope (spec book).
    pub pruned_inadmissible: u64,
    /// Delivery sequences pruned by partial-order reduction
    /// (non-representative subsets / permutations). Zero under
    /// [`Por::Off`].
    pub por_pruned_deliveries: u64,
    /// Send combinations pruned by partial-order reduction (redundant
    /// duplicate posts). Zero under [`Por::Off`].
    pub por_pruned_sends: u64,
    /// Total step choices pruned by partial-order reduction. Zero under
    /// [`Por::Off`].
    pub por_pruned_choices: u64,
    /// Peak frontier size (stack or queue).
    pub max_frontier: u64,
}

/// A violation plus the deterministic choice path that reaches it.
#[derive(Debug, Clone)]
pub struct FoundViolation {
    /// The failed property and diagnosis.
    pub violation: Violation,
    /// Choice indices (into [`Model::enumerate`] at each state along the
    /// path) from the root up to and including the violating edge —
    /// meaningful only to the model that produced them.
    pub path: Vec<u32>,
}

/// Result of exploring a scope.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// Exploration counters.
    pub stats: ExploreStats,
    /// First violation found, if any (exploration stops there).
    pub violation: Option<FoundViolation>,
    /// True when the state budget cut exploration short (the sweep is
    /// then *not* exhaustive and the verdict only covers visited
    /// states).
    pub truncated: bool,
}

/// Exhaustively explores `model`, checking every edge and terminal
/// invariant, until the space is exhausted, a violation is found, or
/// `max_states` distinct states have been visited.
pub fn explore<M: Model>(model: &M, strategy: Strategy, max_states: u64) -> ExploreOutcome {
    let mut stats = ExploreStats::default();
    let mut visited: BTreeSet<u128> = BTreeSet::new();
    let root = model.initial();
    visited.insert(model.state_hash(&root));
    stats.visited = 1;

    let mut frontier: VecDeque<(M::State, Vec<u32>)> = VecDeque::new();
    frontier.push_back((root, Vec::new()));
    let mut truncated = false;
    let found = |stats, violation, path, truncated| ExploreOutcome {
        stats,
        violation: Some(FoundViolation { violation, path }),
        truncated,
    };

    while let Some((state, path)) = match strategy {
        Strategy::Dfs => frontier.pop_back(),
        Strategy::Bfs => frontier.pop_front(),
    } {
        if model.is_terminal(&state) {
            stats.terminals += 1;
            let (trace, _) = rebuild(model, &path);
            if let Some(v) = model.check_terminal(&state, &trace) {
                return found(stats, v, path, truncated);
            }
            continue;
        }
        let (choices, por_counts) = model.enumerate(&state);
        stats.por_pruned_deliveries += por_counts.deliveries;
        stats.por_pruned_sends += por_counts.sends;
        stats.por_pruned_choices += por_counts.choices;
        for (i, choice) in choices.iter().enumerate() {
            match model.apply(&state, choice, None) {
                Err(PruneReason::Capacity) => stats.pruned_capacity += 1,
                Err(PruneReason::Inadmissible) => stats.pruned_inadmissible += 1,
                Ok((child, edge)) => {
                    stats.edges += 1;
                    let child_path = || {
                        let mut p = path.clone();
                        p.push(i as u32);
                        p
                    };
                    if let Some(v) = model.check_edge(&state, &child, &edge) {
                        return found(stats, v, child_path(), truncated);
                    }
                    if visited.insert(model.state_hash(&child)) {
                        if stats.visited >= max_states {
                            truncated = true;
                            continue;
                        }
                        stats.visited += 1;
                        frontier.push_back((child, child_path()));
                        stats.max_frontier = stats.max_frontier.max(frontier.len() as u64);
                    } else {
                        stats.dedup_hits += 1;
                    }
                }
            }
        }
    }
    ExploreOutcome {
        stats,
        violation: None,
        truncated,
    }
}

/// Deterministically replays a choice path from the root, accumulating
/// the producing-step trace — the bridge from a model-checking path to
/// a corpus-format counterexample. `model` must be the one the path was
/// found under (choice indices are relative to its enumeration).
///
/// # Panics
/// Panics when the path indexes a pruned or out-of-range choice (paths
/// produced by [`explore`] never do).
pub fn rebuild<M: Model>(model: &M, path: &[u32]) -> (Trace, M::State) {
    let mut state = model.initial();
    let mut trace = Trace::new(MC_DIM, LabelStore::Full);
    for &i in path {
        let (choices, _) = model.enumerate(&state);
        let (next, _edge) = model
            .apply(&state, &choices[i as usize], Some(&mut trace))
            .expect("explored paths never hit a pruned branch");
        state = next;
    }
    (trace, state)
}

/// Runs `model`'s sweep under [`Por::Off`] and [`Por::On`] and asserts
/// the reduction is verdict-preserving: identical exhaustiveness,
/// identical violation presence, and — when a violation exists —
/// identical property class. Returns both outcomes (off, on) for
/// reporting.
///
/// # Errors
/// A diagnostic message naming the first divergence.
pub fn explore_check_por(
    model: &ClusterModel<'_>,
    strategy: Strategy,
    max_states: u64,
) -> Result<(ExploreOutcome, ExploreOutcome), String> {
    let scope = model.scope;
    let sweep = |por| explore(&ClusterModel { por, ..*model }, strategy, max_states);
    let (off, on) = (sweep(Por::Off), sweep(Por::On));
    if off.truncated != on.truncated {
        return Err(format!(
            "por-check divergence on scope '{}': truncated off={} on={}",
            scope.name, off.truncated, on.truncated
        ));
    }
    match (&off.violation, &on.violation) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            if a.violation.property != b.violation.property {
                return Err(format!(
                    "por-check divergence on scope '{}': violation class off={} on={}",
                    scope.name,
                    a.violation.property.id(),
                    b.violation.property.id()
                ));
            }
        }
        (a, b) => {
            return Err(format!(
                "por-check divergence on scope '{}': violation off={} on={}",
                scope.name,
                a.is_some(),
                b.is_some()
            ));
        }
    }
    if on.stats.visited > off.stats.visited {
        return Err(format!(
            "por-check divergence on scope '{}': reduction grew the space ({} > {})",
            scope.name, on.stats.visited, off.stats.visited
        ));
    }
    Ok((off, on))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inject_scope_space_is_tiny_and_caught() {
        let scope = Scope::inject();
        let problem = McProblem::build();
        let model = ClusterModel::new(&scope, &problem);
        let out = explore(&model, Strategy::Dfs, 100_000);
        let v = out.violation.expect("the injected bug must be found");
        assert_eq!(
            v.violation.property,
            crate::invariants::Property::Admissibility
        );
        assert!(!out.truncated);
    }

    #[test]
    fn rebuild_follows_the_found_path() {
        let scope = Scope::inject();
        let problem = McProblem::build();
        let model = ClusterModel::new(&scope, &problem);
        let found = explore(&model, Strategy::Dfs, 100_000).violation.unwrap();
        let (trace, state) = rebuild(&model, &found.path);
        assert_eq!(trace.len() as u64, found.path.len() as u64);
        assert_eq!(state.next_step, found.path.len() as u64 + 1);
    }

    #[test]
    fn por_check_holds_on_quick_and_reorder() {
        let problem = McProblem::build();
        // quick (KeepFreshest + dup): redundant-delivery forcing and
        // duplicate-send pruning both fire and must shrink the space.
        let (off, on) = explore_check_por(
            &ClusterModel::new(&Scope::quick(), &problem),
            Strategy::Dfs,
            1_000_000,
        )
        .unwrap();
        assert!(
            on.stats.visited < off.stats.visited,
            "reduction must shrink the quick scope"
        );
        assert!(on.stats.por_pruned_choices > 0);
        assert_eq!(off.stats.por_pruned_choices, 0);
        // reorder (AsReceived, single sender per mailbox): nothing
        // commutes, so the reduction may be a no-op — but the
        // equivalence contract must still hold.
        explore_check_por(
            &ClusterModel::new(&Scope::reorder(), &problem),
            Strategy::Dfs,
            1_000_000,
        )
        .unwrap();
    }
}
