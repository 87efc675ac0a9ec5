//! Bounded exhaustive model checking of the concurrent cluster engine:
//! the runtime's own [`Worker`] step and [`FaultRouter`] driven by a
//! third scheduler — every interleaving of worker steps crossed with
//! every [`SendFate`] the `FaultEndpoint` could draw.
//!
//! The cluster-regime scopes ([`crate::scope::Scope`]) enumerate an
//! *abstract* channel (per-receiver mailboxes with hold/drop/dup as
//! delivery-subset choices). This module instead executes the concrete
//! concurrent stack of `crates/runtime`; what it adds around that code
//! is only what a checker needs:
//!
//! - **Production code on both sides of the wire.** A state holds one
//!   [`Worker`] per shard and one [`FaultRouter`] per sender — the same
//!   types `ThreadedCluster` and `FaultEndpoint` run. Receiving,
//!   producing, building the posted block, drop/dup/hold bookkeeping
//!   and the release scan are theirs; a test in `tests/mc.rs` steps a
//!   real `FaultEndpoint` over `MpscTransport` and this model through
//!   one script and compares them bit for bit.
//! - **FIFO channels, `AsReceived` application.** `MpscTransport` is
//!   FIFO per sender/receiver pair and the threaded engine's default
//!   apply policy is `AsReceived`; with the committed ≤ 2-worker seam
//!   scopes every receiver has exactly one sender, so the drain order
//!   of a worker's inbox is fully determined by the fate history — the
//!   *only* nondeterminism is which worker steps next and what the
//!   fault layer does to each send, which is precisely what the
//!   explorer enumerates.
//! - **Linearised free-running steps.** The threaded engine's workers
//!   drain their whole inbox, take the next global step number from a
//!   shared counter, produce, then exchange. A model transition is one
//!   such worker step; because a message posted mid-step is
//!   indistinguishable from one posted just after it (it waits for the
//!   receiver's next drain either way), interleaving whole worker steps
//!   covers every behaviour of the finer-grained concurrent execution.
//!   A steering bound (`lag`) keeps worker progress within the scopes
//!   the admissibility witness speaks about.
//! - **An independent spec book and pruning.** The workers sit in the
//!   [`Book`] this model shares with the cluster-regime scopes: spec
//!   labels travel beside every message ([`SpecMessage`]) and are
//!   applied from fate semantics alone; they drive admissibility
//!   pruning and are compared with the workers' own label books on
//!   every edge. Capacity bounds keep the universe finite.
//!
//! With one worker the seam has a single schedule, and the explorer's
//! terminal state must match the sequential `Cluster{1}` engine **bit
//! for bit** — the tier-1 `ThreadedCluster{1} ≡ Cluster{1}` test lifted
//! from one sampled run to an exhaustive bounded statement. With two
//! workers the healthy scope verifies every invariant on every fate
//! interleaving, and three planted transport bugs (one per fault kind:
//! hold, drop, dup, each hooked on the router [`Exit`] of that kind)
//! are the standing negative controls, each caught as an engine/spec
//! label-book divergence and shrunk to a committed corpus trace.

use crate::book::{enc_u64, fnv128, Book, EdgeInfo, PruneReason, SpecMessage};
use crate::counterexample::envelope_violation;
use crate::explore::{explore, rebuild, Model, Strategy};
use crate::invariants::{
    check_admissibility, check_contraction, check_horizon, Property, Violation,
};
use crate::scope::McProblem;
use crate::state::{per_destination, PorCounts};
use asynciter_conformance::shrink::shrink_and_save;
use asynciter_models::conditions::{AdmissibilityWitness, DelayEnvelope};
use asynciter_models::Trace;
use asynciter_runtime::transport::{Exit, FaultRouter, SendFate};
use asynciter_runtime::{ApplyPolicy, Worker};
use std::collections::VecDeque;
use std::path::Path;

/// The planted transport defects — one per `FaultEndpoint` fault kind,
/// each a realistic seam bug that corrupts the *engine-side* message
/// while the spec book keeps modelling the chosen fate correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeamBug {
    /// A message released from hold arrives with its label metadata
    /// lost: values applied, engine label update severed. (A transport
    /// that re-serialises parked payloads and drops the label frame.)
    Hold,
    /// A dropped send leaks: the spec models the loss, but the message
    /// still reaches the engine — with zeroed labels. (A fault layer
    /// that marks a buffer dropped without unlinking it.)
    Drop,
    /// The prompt duplicate copy is torn: the engine sees it with
    /// zeroed labels. (A duplication path that clones the payload but
    /// not the label frame.) Detectable exactly when the original is
    /// parked behind the copy.
    Dup,
}

impl SeamBug {
    /// Stable identifier (CLI flag suffix, artefact file names).
    pub fn id(self) -> &'static str {
        match self {
            SeamBug::Hold => "hold",
            SeamBug::Drop => "drop",
            SeamBug::Dup => "dup",
        }
    }
}

/// One bounded universe over the transport seam.
#[derive(Debug, Clone)]
pub struct SeamScope {
    /// Scope name (reports, artefact file names).
    pub name: String,
    /// Worker count (1 or 2 — one sender per receiver keeps the FIFO
    /// drain order deterministic, see the module docs).
    pub workers: usize,
    /// Updates each worker performs (horizon = `workers * rounds`
    /// producing steps).
    pub rounds: u64,
    /// Admissibility envelope, used as the spec-book pruning predicate
    /// exactly as in the cluster-regime scopes.
    pub envelope: DelayEnvelope,
    /// Steering bound: a worker may act only while its completed-update
    /// lead over the slowest worker is `< lag`.
    pub lag: u64,
    /// Fates enumerate `hold` in `0..=hold_max` sends of parking.
    pub hold_max: u64,
    /// Enumerate the `Drop` fate.
    pub allow_drop: bool,
    /// Enumerate prompt-duplicate fates.
    pub allow_dup: bool,
    /// Per-receiver bound on queued + parked messages; fates that would
    /// exceed it prune the branch.
    pub max_in_flight: usize,
    /// Planted transport defect, if any (negative controls).
    pub bug: Option<SeamBug>,
}

impl SeamScope {
    /// The single-schedule seam: one free-running worker, faultless
    /// transport. Exhaustive trivially — and its one terminal state is
    /// asserted bit-identical to the sequential `Cluster{1}` engine,
    /// the exhaustive form of the `ThreadedCluster{1} ≡ Cluster{1}`
    /// conformance test.
    pub fn seam1() -> Self {
        Self {
            name: "seam1".into(),
            workers: 1,
            rounds: 4,
            envelope: DelayEnvelope::Bounded(4),
            lag: 1,
            hold_max: 0,
            allow_drop: false,
            allow_dup: false,
            max_in_flight: 2,
            bug: None,
        }
    }

    /// The two-worker seam sweep: every interleaving of free-running
    /// worker steps × every `FaultEndpoint` fate (drop, dup, hold up to
    /// 2 sends) on every exchange.
    pub fn seam2() -> Self {
        Self {
            name: "seam2".into(),
            workers: 2,
            rounds: 3,
            envelope: DelayEnvelope::Bounded(6),
            lag: 2,
            hold_max: 2,
            allow_drop: true,
            allow_dup: true,
            max_in_flight: 3,
            bug: None,
        }
    }

    /// The negative-control universe for one planted fault-kind bug:
    /// `seam2` with a tighter envelope, so the corrupted (zeroed /
    /// frozen) engine labels sit far below the admissibility floor and
    /// the shrinker has a trace-pure signature to minimise against.
    pub fn seam_bug(bug: SeamBug) -> Self {
        Self {
            name: format!("seam-bug-{}", bug.id()),
            envelope: DelayEnvelope::Bounded(3),
            bug: Some(bug),
            ..Self::seam2()
        }
    }

    /// Looks a named seam scope up.
    ///
    /// # Errors
    /// Unknown name, as a message listing the valid ones.
    pub fn by_name(name: &str) -> Result<Self, String> {
        match name {
            "seam1" => Ok(Self::seam1()),
            "seam2" => Ok(Self::seam2()),
            other => Err(format!(
                "unknown seam scope '{other}' (valid: seam1, seam2)"
            )),
        }
    }

    /// Total producing steps of the scope.
    pub fn steps(&self) -> u64 {
        self.workers as u64 * self.rounds
    }

    /// The admissibility-witness activation-gap bound implied by the
    /// steering constraint: a worker that just produced may lead by up
    /// to `lag`, and each other worker can then advance until it leads
    /// by `lag` itself — at most `2·lag` of its updates — before the
    /// first worker must act again.
    pub fn witness_gap(&self) -> u64 {
        if self.workers == 1 {
            1
        } else {
            (self.workers as u64 - 1) * 2 * self.lag + 1
        }
    }

    /// One-line description for reports.
    pub fn describe(&self) -> String {
        format!(
            "seam scope {}: {} workers x {} rounds (AsReceived, FIFO per sender), \
             envelope {}, lag {}, hold<= {}, drop={}, dup={}, capacity={}{}",
            self.name,
            self.workers,
            self.rounds,
            self.envelope.describe(),
            self.lag,
            self.hold_max,
            self.allow_drop,
            self.allow_dup,
            self.max_in_flight,
            match self.bug {
                Some(b) => format!(", PLANTED {} BUG", b.id()),
                None => String::new(),
            },
        )
    }
}

/// A canonical global state of the seam model: the shared [`Book`] (the
/// runtime's own workers and the independent spec book) and the
/// runtime's per-sender fault routers, plus what the model adds — the
/// channels between them.
#[derive(Debug, Clone, PartialEq)]
pub struct SeamState {
    /// Next global producing step (1-based) — the value the threaded
    /// engine's shared counter would hand out next.
    pub next_step: u64,
    /// The workers (views, engine label books, completed updates) and
    /// the spec label books maintained from fate semantics alone.
    pub book: Book,
    /// Per-sender fault routers: parked messages and send counters.
    pub routers: Vec<FaultRouter<SpecMessage>>,
    /// Per-receiver FIFO inbox, in channel arrival order.
    pub inboxes: Vec<VecDeque<SpecMessage>>,
}

impl SeamState {
    /// Every in-flight message: queued in an inbox or parked in a
    /// router.
    pub fn in_flight(&self) -> impl Iterator<Item = &SpecMessage> {
        let parked = self.routers.iter().flat_map(|r| r.parked()).map(|p| &p.2);
        self.inboxes.iter().flatten().chain(parked)
    }
}

/// Completed updates of `worker`.
fn done(worker: &Worker) -> u64 {
    worker.counters().updates
}

/// The resolved nondeterminism of one seam worker step: who acts, and
/// what the fault layer does to each posted exchange (destinations in
/// ascending worker order; empty when no exchange is due).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeamChoice {
    /// The acting worker.
    pub worker: usize,
    /// One fate per destination.
    pub fates: Vec<SendFate>,
}

/// Enumeration order matters for DFS: the explorer's stack visits
/// choices in *reverse* order, so faulty fates come first here and the
/// all-healthy prompt delivery is explored first — planted bugs are
/// then caught on paths with prior healthy deliveries, which is where
/// their label corruption is observable as a regression.
fn fate_options(scope: &SeamScope) -> Vec<SendFate> {
    let mut out = Vec::new();
    if scope.allow_drop {
        out.push(SendFate::Drop);
    }
    for dup in [true, false] {
        if dup && !scope.allow_dup {
            continue;
        }
        for hold in (0..=scope.hold_max).rev() {
            out.push(SendFate::Deliver { dup, hold });
        }
    }
    out
}

/// What the scope's planted bug, if any, does to a message leaving the
/// fault router — each plant sits on the [`Exit`] of its fault kind and
/// zeroes the engine labels (payload survives, label frame lost) while
/// the spec labels keep modelling the chosen fate correctly. `None`
/// when the message is lost.
fn plant(bug: Option<SeamBug>, exit: Exit, mut m: SpecMessage) -> Option<SpecMessage> {
    let torn = match (exit, bug) {
        // Leak: the spec models the loss (a message without spec labels
        // bypasses the spec book), the engine still sees it.
        (Exit::Dropped, Some(SeamBug::Drop)) => {
            m.spec.clear();
            true
        }
        (Exit::Dropped, _) => return None,
        (Exit::Duplicate, Some(SeamBug::Dup)) | (Exit::Released, Some(SeamBug::Hold)) => true,
        _ => false,
    };
    if torn {
        for entry in &mut m.msg.comps {
            entry.2 = 0;
        }
    }
    Some(m)
}

/// The transport-seam model: a [`SeamScope`] on the scope problem,
/// explored by the same [`explore`] as the cluster-regime scopes.
#[derive(Clone, Copy)]
pub struct SeamModel<'a> {
    /// The bounded universe.
    pub scope: &'a SeamScope,
    /// The fixed-point problem every worker steps.
    pub problem: &'a McProblem,
}

impl<'a> SeamModel<'a> {
    /// The seam sweep of `scope` on `problem`.
    pub fn new(scope: &'a SeamScope, problem: &'a McProblem) -> Self {
        Self { scope, problem }
    }
}

impl Model for SeamModel<'_> {
    type State = SeamState;
    type Choice = SeamChoice;
    type Edge = EdgeInfo;

    /// All views at `x0`, all labels 0, empty channels.
    fn initial(&self) -> SeamState {
        let scope = self.scope;
        SeamState {
            next_step: 1,
            book: Book::new(self.problem, scope.workers, ApplyPolicy::AsReceived),
            routers: vec![FaultRouter::default(); scope.workers],
            inboxes: vec![VecDeque::new(); scope.workers],
        }
    }

    /// Once every worker has completed its rounds.
    fn is_terminal(&self, state: &SeamState) -> bool {
        state
            .book
            .workers
            .iter()
            .all(|w| done(w) == self.scope.rounds)
    }

    /// Each worker that still has rounds left and respects the steering
    /// bound, crossed with every fate combination when its exchange is
    /// due.
    fn enumerate(&self, state: &SeamState) -> (Vec<SeamChoice>, PorCounts) {
        let scope = self.scope;
        let min_done = state.book.workers.iter().map(done).min().unwrap_or(0);
        let mut out = Vec::new();
        for (w, worker) in state.book.workers.iter().enumerate() {
            if done(worker) >= scope.rounds || done(worker) - min_done >= scope.lag {
                continue;
            }
            if !worker.next_update_posts() {
                out.push(SeamChoice {
                    worker: w,
                    fates: Vec::new(),
                });
                continue;
            }
            for fates in per_destination(&fate_options(scope), scope.workers - 1) {
                out.push(SeamChoice { worker: w, fates });
            }
        }
        (out, PorCounts::default())
    }

    /// One linearised step of the threaded engine's worker loop, on the
    /// runtime's own [`Worker`] through the shared [`Book`]: drain the
    /// whole inbox in channel order, produce, post, and route the post
    /// through the sender's [`FaultRouter`] under the chosen fates. The
    /// model adds the channels and the capacity prune (a fate would
    /// overflow a receiver's queue/parking bound).
    ///
    /// # Panics
    /// Panics when the operator produces a non-finite iterate
    /// (impossible for the contraction scope problem).
    fn apply(
        &self,
        state: &SeamState,
        choice: &SeamChoice,
        trace: Option<&mut Trace>,
    ) -> Result<(SeamState, EdgeInfo), PruneReason> {
        let (scope, problem) = (self.scope, self.problem);
        let j = state.next_step;
        let w = choice.worker;
        let phi_before = state.book.phi(problem, state.in_flight());
        let mut t = state.clone();

        // The planted bugs corrupted the message when the fault layer
        // handled it; receiving is the worker's own code.
        while let Some(m) = t.inboxes[w].pop_front() {
            t.book.receive(w, &m);
        }
        let edge = t.book.produce(problem, w, j, scope.envelope, trace)?;

        // The posted exchange, one fate per destination.
        if let Some(posted) = t.book.post(w, j) {
            let mut fates = choice.fates.iter();
            for dest in t.book.workers[w].peers() {
                let fate = *fates.next().expect("one fate per destination");
                // Parking counts against the receiver's bound too (after
                // the prompt duplicate, if any, took its inbox slot).
                let in_flight = t.routers[w].parked().len() + t.inboxes[dest].len();
                let mut overflow = matches!(fate, SendFate::Deliver { dup, hold }
                    if hold > 0 && in_flight + usize::from(dup) >= scope.max_in_flight);
                t.routers[w].route(dest, posted.clone(), fate, |exit, dest, m| {
                    if let Some(m) = plant(scope.bug, exit, m) {
                        overflow |= t.inboxes[dest].len() >= scope.max_in_flight;
                        t.inboxes[dest].push_back(m);
                    }
                });
                if overflow {
                    return Err(PruneReason::Capacity);
                }
            }
        }

        t.next_step = j + 1;
        let phi_after = t.book.phi(problem, t.in_flight());
        let edge = EdgeInfo {
            phi_before,
            phi_after,
            ..edge
        };
        Ok((t, edge))
    }

    /// The cluster-regime families minus `KeepFreshest`: the seam runs
    /// the threaded engine's `AsReceived` policy, where stale
    /// application is legal and *recorded*, not absorbed.
    fn check_edge(&self, _: &SeamState, child: &SeamState, edge: &EdgeInfo) -> Option<Violation> {
        check_contraction(self.problem, edge)
            .or_else(|| check_admissibility(self.problem, &child.book, edge))
    }

    /// The linearised trace must carry the steering-implied activation
    /// gap.
    fn check_terminal(&self, state: &SeamState, trace: &Trace) -> Option<Violation> {
        let witness = AdmissibilityWitness::new(self.scope.envelope, self.scope.witness_gap());
        check_horizon(
            self.problem,
            &state.book,
            self.scope.steps(),
            &witness,
            trace,
        )
    }

    /// 128-bit FNV-1a over a canonical byte encoding: index-ordered,
    /// IEEE bits, channel queues in arrival order (part of the state
    /// under `AsReceived`). Parked messages are encoded in the router's
    /// own order, which decides the order they are released in — until
    /// their sender has finished its rounds: it never sends again, so
    /// nothing is released any more and the order is dead state,
    /// encoded sorted.
    fn state_hash(&self, s: &SeamState) -> u128 {
        let mut out = Vec::with_capacity(256);
        enc_u64(&mut out, s.next_step);
        enc_u64(&mut out, s.book.workers.len() as u64);
        for (w, worker) in s.book.workers.iter().enumerate() {
            enc_u64(&mut out, done(worker));
            enc_u64(&mut out, s.routers[w].stats().sent);
            s.book.encode_worker(w, &mut out);
            enc_u64(&mut out, s.inboxes[w].len() as u64);
            for m in &s.inboxes[w] {
                m.encode(&mut out);
            }
            let mut parked: Vec<&(u64, usize, SpecMessage)> =
                s.routers[w].parked().iter().collect();
            if done(worker) == self.scope.rounds {
                parked.sort_by_cached_key(|(release, dest, m)| (*release, *dest, m.key()));
            }
            enc_u64(&mut out, parked.len() as u64);
            for (release, dest, m) in parked {
                enc_u64(&mut out, *release);
                enc_u64(&mut out, *dest as u64);
                m.encode(&mut out);
            }
        }
        fnv128(&out)
    }
}

/// Negative control for one planted transport bug: explores the
/// `seam-bug-*` scope, proves the explorer catches the corruption as a
/// label-book divergence, extends the witness path to the horizon so
/// the zeroed label is recorded where the envelope floor is positive,
/// shrinks against the envelope signature and saves the result to
/// `out`. Returns `(orig_steps, shrunk_steps)`.
///
/// # Errors
/// When the explorer fails to catch the planted bug (a blind spot in
/// the seam checks), the caught trace lacks the envelope signature, or
/// emission fails.
pub fn seam_bug_demo(bug: SeamBug, out: &Path) -> Result<(u64, u64), String> {
    let scope = SeamScope::seam_bug(bug);
    let problem = McProblem::build();
    let model = SeamModel::new(&scope, &problem);
    let outcome = explore(&model, Strategy::Dfs, 2_000_000);
    let found = outcome.violation.ok_or(format!(
        "inject-seam-{}: explorer did not catch the planted transport bug — blind spot",
        bug.id()
    ))?;
    if found.violation.property != Property::Admissibility {
        return Err(format!(
            "inject-seam-{}: expected a book-divergence catch, got {}: {}",
            bug.id(),
            found.violation.property.id(),
            found.violation.detail
        ));
    }
    let (mut trace, mut state) = rebuild(&model, &found.path);

    // Extend the caught prefix to the horizon so the victim's zeroed
    // label is recorded at steps where the envelope floor is positive
    // (the trace-pure signature the shrinker minimises against). The
    // extension drops every exchange — no healthy delivery heals the
    // corrupted book — and runs envelope-unconstrained: the point is a
    // trace that *fails* admissibility.
    let relaxed = SeamScope {
        envelope: DelayEnvelope::Bounded(u64::MAX),
        ..scope.clone()
    };
    let relaxed = SeamModel::new(&relaxed, &problem);
    while !relaxed.is_terminal(&state) {
        let (choices, _) = relaxed.enumerate(&state);
        let choice = choices
            .iter()
            .find(|c| c.fates.iter().all(|&f| f == SendFate::Drop))
            .ok_or("seam extension: no all-drop choice available")?;
        match relaxed.apply(&state, choice, Some(&mut trace)) {
            Ok((next, _)) => state = next,
            Err(_) => break,
        }
    }
    let not_caught = format!(
        "inject-seam-{}: caught trace carries no envelope-violation signature",
        bug.id()
    );
    let envelope = scope.envelope;
    let pred = |t: &Trace| envelope_violation(t, envelope);
    shrink_and_save(&trace, pred, 20_000, &not_caught, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seam1_has_a_single_schedule() {
        let scope = SeamScope::seam1();
        let problem = McProblem::build();
        let model = SeamModel::new(&scope, &problem);
        let out = explore(&model, Strategy::Dfs, 1_000_000);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(!out.truncated);
        // One worker, no fates: exactly one path of `rounds` steps.
        assert_eq!(out.stats.visited, scope.rounds + 1);
        assert_eq!(out.stats.terminals, 1);
        assert_eq!(out.stats.edges, scope.rounds);
    }

    #[test]
    fn fate_options_cover_the_fault_plan_space() {
        let scope = SeamScope::seam2();
        let fates = fate_options(&scope);
        // dup ∈ {false,true} × hold ∈ {0,1,2} + Drop.
        assert_eq!(fates.len(), 7);
        assert!(fates.contains(&SendFate::Drop));
        assert!(fates.contains(&SendFate::Deliver { dup: true, hold: 2 }));
    }

    #[test]
    fn planted_bugs_are_caught_as_book_divergence() {
        for bug in [SeamBug::Hold, SeamBug::Drop, SeamBug::Dup] {
            let scope = SeamScope::seam_bug(bug);
            let problem = McProblem::build();
            let model = SeamModel::new(&scope, &problem);
            let out = explore(&model, Strategy::Dfs, 2_000_000);
            let found = out
                .violation
                .unwrap_or_else(|| panic!("{}: planted bug not caught", bug.id()));
            assert_eq!(
                found.violation.property,
                Property::Admissibility,
                "{}: {}",
                bug.id(),
                found.violation.detail
            );
        }
    }
}
