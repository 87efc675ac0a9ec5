//! Bounded exhaustive model checking of the PR 7 transport seam itself:
//! every [`SendFate`] the `FaultEndpoint` could draw, over the same
//! `apply_message` / `produce_block` step halves the threaded engine
//! runs.
//!
//! The cluster-regime scopes ([`crate::scope::Scope`]) enumerate an
//! *abstract* channel (per-receiver mailboxes with hold/drop/dup as
//! delivery-subset choices). This module instead models the concrete
//! concurrent stack of `crates/runtime`:
//!
//! - **Sender-side faults, exactly as `FaultEndpoint` applies them.**
//!   Each exchange enumerates a [`SendFate`] — drop, prompt delivery,
//!   prompt duplicate, or parking behind `hold` later sends — and the
//!   model's bookkeeping (per-sender send counters, parked-message
//!   release when the counter passes the release mark) is the same
//!   arithmetic as `FaultEndpoint::send_with_fate`.
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
//!
//! With one worker the seam has a single schedule, and the explorer's
//! terminal state must match the sequential `Cluster{1}` engine **bit
//! for bit** — the tier-1 `ThreadedCluster{1} ≡ Cluster{1}` test lifted
//! from one sampled run to an exhaustive bounded statement. With two
//! workers the healthy scope verifies every invariant on every fate
//! interleaving, and three planted transport bugs (one per fault kind:
//! hold, drop, dup) are the standing negative controls, each caught as
//! an engine/spec label-book divergence and shrunk to a committed
//! corpus trace.

use crate::counterexample::envelope_violation;
use crate::explore::{explore, rebuild, Model, Strategy};
use crate::invariants::{
    check_admissibility, check_contraction, check_horizon, Property, Violation,
};
use crate::scope::{McProblem, MC_DIM};
use crate::state::{enc_u64, fnv128, per_destination, EdgeInfo, PorCounts, PruneReason};
use asynciter_conformance::corpus::save_trace;
use asynciter_conformance::shrink::shrink_trace;
use asynciter_models::conditions::{AdmissibilityWitness, DelayEnvelope};
use asynciter_models::{LabelStore, Partition, Trace};
use asynciter_opt::traits::Operator;
use asynciter_runtime::transport::SendFate;
use asynciter_runtime::{apply_message, produce_step, ApplyPolicy};
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
    /// A worker posts its block every this many of its own updates.
    pub exchange_every: u64,
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
            exchange_every: 1,
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
            exchange_every: 1,
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

    /// The owned block of every worker.
    ///
    /// # Panics
    /// Never for the committed scopes (the partition is valid).
    pub fn blocks(&self) -> Vec<Vec<usize>> {
        let p = Partition::blocks(MC_DIM, self.workers).expect("seam partition");
        (0..self.workers).map(|w| p.components_of(w)).collect()
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

/// One in-flight seam message: the engine payload (possibly corrupted
/// by a planted bug), the spec labels, and the fault-layer provenance
/// flags the planted bugs key on.
#[derive(Debug, Clone, PartialEq)]
pub struct SeamMessage {
    /// Sending worker.
    pub src: u32,
    /// Engine payload `(component, value, label)` — what
    /// `apply_message` consumes.
    pub comps: Vec<(u32, f64, u64)>,
    /// Spec labels, one per `comps` entry.
    pub spec: Vec<u64>,
    /// The spec book must ignore this message (engine-side leak of a
    /// spec-modelled drop — only under [`SeamBug::Drop`]).
    pub spec_ghost: bool,
}

impl SeamMessage {
    fn sort_key(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.comps.len() * 32);
        enc_u64(&mut out, u64::from(self.src));
        enc_u64(&mut out, u64::from(self.spec_ghost));
        for &(c, v, l) in &self.comps {
            enc_u64(&mut out, u64::from(c));
            enc_u64(&mut out, v.to_bits());
            enc_u64(&mut out, l);
        }
        for &s in &self.spec {
            enc_u64(&mut out, s);
        }
        out
    }
}

/// A canonical global state of the seam model.
#[derive(Debug, Clone, PartialEq)]
pub struct SeamState {
    /// Next global producing step (1-based) — the value the threaded
    /// engine's shared counter would hand out next.
    pub next_step: u64,
    /// Completed updates per worker.
    pub done: Vec<u64>,
    /// Per-worker local views.
    pub views: Vec<Vec<f64>>,
    /// Engine label books (written by the shared runtime step halves).
    pub labels: Vec<Vec<u64>>,
    /// Spec label books (maintained from fate semantics alone).
    pub spec_labels: Vec<Vec<u64>>,
    /// Per-receiver FIFO inbox, in channel arrival order.
    pub inboxes: Vec<VecDeque<SeamMessage>>,
    /// Per-sender parked messages: `(release after this many sends,
    /// dest, message)` — the `FaultEndpoint.held` list.
    pub held: Vec<Vec<(u64, usize, SeamMessage)>>,
    /// Per-sender send counters — the `FaultEndpoint.sends` counter.
    pub sends: Vec<u64>,
}

impl SeamState {
    /// The initial state: all views at `x0`, all labels 0, empty
    /// channels.
    pub fn initial(scope: &SeamScope, problem: &McProblem) -> Self {
        let n = problem.n();
        Self {
            next_step: 1,
            done: vec![0; scope.workers],
            views: vec![problem.x0.clone(); scope.workers],
            labels: vec![vec![0; n]; scope.workers],
            spec_labels: vec![vec![0; n]; scope.workers],
            inboxes: vec![VecDeque::new(); scope.workers],
            held: vec![Vec::new(); scope.workers],
            sends: vec![0; scope.workers],
        }
    }

    /// True once every worker has completed its rounds.
    pub fn terminal(&self, scope: &SeamScope) -> bool {
        self.done.iter().all(|&d| d == scope.rounds)
    }
}

/// Canonical byte encoding of a seam state (index-ordered, IEEE bits,
/// channel queues in arrival order — arrival order is part of the
/// state under `AsReceived`).
pub fn seam_canonical_bytes(s: &SeamState) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    enc_u64(&mut out, s.next_step);
    enc_u64(&mut out, s.views.len() as u64);
    for w in 0..s.views.len() {
        enc_u64(&mut out, s.done[w]);
        enc_u64(&mut out, s.sends[w]);
        for &v in &s.views[w] {
            enc_u64(&mut out, v.to_bits());
        }
        for &l in &s.labels[w] {
            enc_u64(&mut out, l);
        }
        for &l in &s.spec_labels[w] {
            enc_u64(&mut out, l);
        }
        enc_u64(&mut out, s.inboxes[w].len() as u64);
        for m in &s.inboxes[w] {
            let k = m.sort_key();
            enc_u64(&mut out, k.len() as u64);
            out.extend_from_slice(&k);
        }
        enc_u64(&mut out, s.held[w].len() as u64);
        for (release, dest, m) in &s.held[w] {
            enc_u64(&mut out, *release);
            enc_u64(&mut out, *dest as u64);
            let k = m.sort_key();
            enc_u64(&mut out, k.len() as u64);
            out.extend_from_slice(&k);
        }
    }
    out
}

/// The seam dedup key: 128-bit FNV-1a over [`seam_canonical_bytes`].
pub fn seam_state_hash(s: &SeamState) -> u128 {
    fnv128(&seam_canonical_bytes(s))
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

/// Enumerates every [`SeamChoice`] available in `state`: each worker
/// that still has rounds left and respects the steering bound, crossed
/// with every fate combination when its exchange is due.
pub fn seam_enumerate(state: &SeamState, scope: &SeamScope) -> Vec<SeamChoice> {
    let min_done = state.done.iter().copied().min().unwrap_or(0);
    let mut out = Vec::new();
    for w in 0..scope.workers {
        if state.done[w] >= scope.rounds || state.done[w] - min_done >= scope.lag {
            continue;
        }
        let exchange =
            scope.workers > 1 && (state.done[w] + 1).is_multiple_of(scope.exchange_every.max(1));
        if !exchange {
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
    out
}

/// Applies one message to the spec book (AsReceived semantics, from the
/// spec labels), skipping engine-side ghosts.
fn seam_apply_spec(spec: &mut [u64], msg: &SeamMessage) {
    if msg.spec_ghost {
        return;
    }
    for (k, &(c, _, _)) in msg.comps.iter().enumerate() {
        spec[c as usize] = msg.spec[k];
    }
}

/// Zeroes the engine labels of a message (the shared corruption of the
/// planted drop-leak and torn-duplicate bugs: payload survives, label
/// frame lost).
fn strip_labels(msg: &mut SeamMessage) {
    for entry in &mut msg.comps {
        entry.2 = 0;
    }
}

/// Mirrors `FaultEndpoint::send_with_fate` + `release_due` for one
/// posted exchange: the same send-counter arithmetic, parking rule and
/// release scan, with the scope's planted bug applied where that fault
/// kind acts.
fn seam_send(
    state: &mut SeamState,
    scope: &SeamScope,
    src: usize,
    dest: usize,
    msg: SeamMessage,
    fate: SendFate,
) -> Result<(), PruneReason> {
    state.sends[src] += 1;
    match fate {
        SendFate::Drop => {
            if scope.bug == Some(SeamBug::Drop) {
                // Leak: the spec models the loss, the engine still sees
                // the payload — with the label frame zeroed.
                let mut leaked = msg;
                strip_labels(&mut leaked);
                leaked.spec_ghost = true;
                push_inbox(state, scope, dest, leaked)?;
            }
        }
        SendFate::Deliver { dup, hold } => {
            if dup {
                let mut copy = msg.clone();
                if scope.bug == Some(SeamBug::Dup) {
                    // Torn duplicate: the prompt copy loses its labels.
                    strip_labels(&mut copy);
                }
                push_inbox(state, scope, dest, copy)?;
            }
            if hold > 0 {
                if state.held[src].len() + state.inboxes[dest].len() >= scope.max_in_flight {
                    return Err(PruneReason::Capacity);
                }
                state.held[src].push((state.sends[src] + hold, dest, msg));
            } else {
                push_inbox(state, scope, dest, msg)?;
            }
        }
    }
    // Release parked messages the counter has now passed — FIFO by
    // release mark then parking order, the canonical serialisation of
    // `release_due`'s scan (unobservable: one sender per receiver keeps
    // released traffic ordered only relative to itself).
    state.held[src].sort_by_key(|(release, dest, _)| (*release, *dest));
    while let Some(pos) = state.held[src]
        .iter()
        .position(|(release, _, _)| *release <= state.sends[src])
    {
        let (_, d, mut m) = state.held[src].remove(pos);
        if scope.bug == Some(SeamBug::Hold) {
            // Released payload re-serialised without its label frame.
            strip_labels(&mut m);
        }
        push_inbox(state, scope, d, m)?;
    }
    Ok(())
}

fn push_inbox(
    state: &mut SeamState,
    scope: &SeamScope,
    dest: usize,
    msg: SeamMessage,
) -> Result<(), PruneReason> {
    if state.inboxes[dest].len() >= scope.max_in_flight {
        return Err(PruneReason::Capacity);
    }
    state.inboxes[dest].push_back(msg);
    Ok(())
}

/// System error measure over a seam state: every view, queued message
/// and parked message.
pub fn seam_phi(state: &SeamState, problem: &McProblem) -> f64 {
    let mut m = 0.0_f64;
    for view in &state.views {
        for (c, &v) in view.iter().enumerate() {
            m = m.max((v - problem.xstar[c]).abs());
        }
    }
    let msg_err = |msg: &SeamMessage, m: &mut f64| {
        for &(c, v, _) in &msg.comps {
            *m = m.max((v - problem.xstar[c as usize]).abs());
        }
    };
    for inbox in &state.inboxes {
        for msg in inbox {
            msg_err(msg, &mut m);
        }
    }
    for held in &state.held {
        for (_, _, msg) in held {
            msg_err(msg, &mut m);
        }
    }
    m
}

/// Applies `choice` to `state`: full FIFO drain, produce via the
/// engine's own step half, then the posted exchange under the chosen
/// fates — one linearised worker step of the threaded engine.
///
/// # Errors
/// [`PruneReason`] for capacity (a fate would overflow a receiver's
/// queue/parking bound) or admissibility cuts.
///
/// # Panics
/// Panics when the operator produces a non-finite iterate (impossible
/// for the contraction scope problem).
pub fn seam_apply(
    state: &SeamState,
    choice: &SeamChoice,
    scope: &SeamScope,
    problem: &McProblem,
    trace: Option<&mut Trace>,
) -> Result<(SeamState, EdgeInfo), PruneReason> {
    let j = state.next_step;
    let w = choice.worker;
    let phi_before = seam_phi(state, problem);
    let mut t = state.clone();

    // Drain the whole inbox in channel order (the worker-loop drain).
    // The planted bugs corrupted the message when the fault layer
    // handled it; application itself is the engine's own step half.
    while let Some(msg) = t.inboxes[w].pop_front() {
        apply_message(
            &mut t.views[w],
            &mut t.labels[w],
            &msg.comps,
            ApplyPolicy::AsReceived,
        );
        seam_apply_spec(&mut t.spec_labels[w], &msg);
    }

    // Admissibility pruning on the spec book at the produce.
    let floor = scope.envelope.min_label(j);
    if t.spec_labels[w].iter().any(|&l| l < floor) {
        return Err(PruneReason::Inadmissible);
    }

    let read_labels = t.labels[w].clone();
    let read_err = t.views[w]
        .iter()
        .enumerate()
        .map(|(c, &v)| (v - problem.xstar[c]).abs())
        .fold(0.0_f64, f64::max);
    let blocks = scope.blocks();
    let n = problem.n();
    let mut upd = vec![0.0; n];
    let mut scratch = vec![0.0; Operator::scratch_len(&problem.op)];
    let mut throwaway = Trace::new(n, LabelStore::Full);
    let tr = trace.unwrap_or(&mut throwaway);
    produce_step(
        &problem.op,
        &mut t.views[w],
        &mut t.labels[w],
        &blocks[w],
        j,
        tr,
        &mut upd,
        &mut scratch,
    )
    .expect("contraction scope cannot produce non-finite iterates");
    for &i in &blocks[w] {
        t.spec_labels[w][i] = j;
    }
    let produced_err = blocks[w]
        .iter()
        .map(|&i| (t.views[w][i] - problem.xstar[i]).abs())
        .fold(0.0_f64, f64::max);
    t.done[w] += 1;

    // The posted exchange, one fate per destination.
    if !choice.fates.is_empty() {
        let comps: Vec<(u32, f64, u64)> = blocks[w]
            .iter()
            .map(|&i| (i as u32, t.views[w][i], t.labels[w][i]))
            .collect();
        let spec: Vec<u64> = blocks[w].iter().map(|&i| t.spec_labels[w][i]).collect();
        let mut fates = choice.fates.iter();
        for dest in 0..scope.workers {
            if dest == w {
                continue;
            }
            let fate = *fates.next().expect("one fate per destination");
            let msg = SeamMessage {
                src: w as u32,
                comps: comps.clone(),
                spec: spec.clone(),
                spec_ghost: false,
            };
            seam_send(&mut t, scope, w, dest, msg, fate)?;
        }
    }

    t.next_step = j + 1;
    let phi_after = seam_phi(&t, problem);
    Ok((
        t,
        EdgeInfo {
            j,
            worker: w,
            read_labels,
            prev_read: None,
            read_err,
            produced_err,
            phi_before,
            phi_after,
        },
    ))
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

    fn initial(&self) -> SeamState {
        SeamState::initial(self.scope, self.problem)
    }

    fn is_terminal(&self, state: &SeamState) -> bool {
        state.terminal(self.scope)
    }

    fn enumerate(&self, state: &SeamState) -> (Vec<SeamChoice>, PorCounts) {
        (seam_enumerate(state, self.scope), PorCounts::default())
    }

    fn apply(
        &self,
        state: &SeamState,
        choice: &SeamChoice,
        trace: Option<&mut Trace>,
    ) -> Result<(SeamState, EdgeInfo), PruneReason> {
        seam_apply(state, choice, self.scope, self.problem, trace)
    }

    /// The cluster-regime families minus `KeepFreshest`: the seam runs
    /// the threaded engine's `AsReceived` policy, where stale
    /// application is legal and *recorded*, not absorbed.
    fn check_edge(&self, _: &SeamState, child: &SeamState, edge: &EdgeInfo) -> Option<Violation> {
        check_contraction(self.problem, edge)
            .or_else(|| check_admissibility(self.problem, &child.labels, &child.spec_labels, edge))
    }

    /// The linearised trace must carry the steering-implied activation
    /// gap.
    fn check_terminal(&self, state: &SeamState, trace: &Trace) -> Option<Violation> {
        let witness = AdmissibilityWitness::new(self.scope.envelope, self.scope.witness_gap());
        check_horizon(
            self.problem,
            &self.scope.blocks(),
            &state.views,
            self.scope.steps(),
            &witness,
            trace,
        )
    }

    fn state_hash(&self, state: &SeamState) -> u128 {
        seam_state_hash(state)
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
    while !state.terminal(&relaxed) {
        let choices = seam_enumerate(&state, &relaxed);
        let choice = choices
            .iter()
            .find(|c| c.fates.iter().all(|&f| f == SendFate::Drop))
            .ok_or("seam extension: no all-drop choice available")?;
        match seam_apply(&state, choice, &relaxed, &problem, Some(&mut trace)) {
            Ok((next, _)) => state = next,
            Err(_) => break,
        }
    }
    if !envelope_violation(&trace, scope.envelope) {
        return Err(format!(
            "inject-seam-{}: caught trace carries no envelope-violation signature",
            bug.id()
        ));
    }
    let orig_steps = trace.len() as u64;
    let envelope = scope.envelope;
    let mut pred = |t: &Trace| envelope_violation(t, envelope);
    let result = shrink_trace(&trace, &mut pred, 20_000);
    save_trace(out, &result.trace)?;
    Ok((orig_steps, result.trace.len() as u64))
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
