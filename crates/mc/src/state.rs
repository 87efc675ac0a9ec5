//! Canonical model-checking states, choices, hashing, and the
//! one-step transition.
//!
//! An [`McState`] captures everything the future of a cluster run
//! depends on: the per-worker views, *two* label books (the engine book
//! written by the shared runtime step halves, and an independent spec
//! book maintained from choice semantics alone), and each worker's
//! mailbox as a canonically sorted message list. The global step
//! counter is part of the state, so states at different depths never
//! alias; everything else about the schedule (who acts when, when an
//! exchange is due) is derived round-robin from it.
//!
//! A [`StepChoice`] resolves the nondeterminism of one producing step:
//! which mailbox messages to deliver (and, under `AsReceived`, in which
//! order — undelivered messages are *held*, which is exactly how
//! reorders arise), and per destination whether the posted exchange is
//! dropped, duplicated, or cut to a flexible partial subset.
//!
//! States are deduplicated by [`state_hash`], a 128-bit FNV-1a over a
//! canonical little-endian byte encoding. There is no platform-,
//! allocation- or iteration-order-dependent input anywhere in the
//! encoding: vectors are encoded in index order, mailboxes in their
//! canonical sort order, and `f64` values by their IEEE bit patterns.

use crate::scope::{McProblem, Scope};
use asynciter_models::{LabelStore, Trace};
use asynciter_opt::traits::Operator;
use asynciter_runtime::{apply_message, produce_step, ApplyPolicy};

/// One in-flight message: a (component, value, label) payload plus the
/// spec book's independent labels for the same entries.
#[derive(Debug, Clone, PartialEq)]
pub struct McMessage {
    /// Global step at which the message was posted.
    pub sent_at: u64,
    /// Sending worker.
    pub src: u32,
    /// Engine payload: `(component, value, producing label)` — exactly
    /// the envelope payload of the cluster engine.
    pub comps: Vec<(u32, f64, u64)>,
    /// Spec labels, one per `comps` entry.
    pub spec: Vec<u64>,
}

impl McMessage {
    /// Canonical sort key (byte encoding of the whole message).
    fn sort_key(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.comps.len() * 28);
        enc_u64(&mut out, self.sent_at);
        enc_u64(&mut out, u64::from(self.src));
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

/// A canonical global state of the bounded cluster model.
#[derive(Debug, Clone, PartialEq)]
pub struct McState {
    /// Next global step to execute (1-based); terminal when
    /// `next_step > scope.steps`.
    pub next_step: u64,
    /// Per-worker local views.
    pub views: Vec<Vec<f64>>,
    /// Engine label book: written by the shared runtime step halves,
    /// recorded into traces, checked by properties.
    pub labels: Vec<Vec<u64>>,
    /// Spec label book: maintained independently from choice semantics;
    /// drives admissibility pruning. Divergence from `labels` IS a
    /// checked property violation.
    pub spec_labels: Vec<Vec<u64>>,
    /// Per-worker mailboxes, canonically sorted.
    pub mailboxes: Vec<Vec<McMessage>>,
    /// Per-worker read-label vector of the previous turn (engine book),
    /// kept only when `scope.track_read_history` — the out-of-order
    /// property compares consecutive turns of the same worker.
    pub prev_read: Vec<Vec<u64>>,
}

impl McState {
    /// The initial state of a scope: all views at `x0`, all labels 0,
    /// empty mailboxes.
    pub fn initial(scope: &Scope, problem: &McProblem) -> Self {
        let n = problem.n();
        Self {
            next_step: 1,
            views: vec![problem.x0.clone(); scope.workers],
            labels: vec![vec![0; n]; scope.workers],
            spec_labels: vec![vec![0; n]; scope.workers],
            mailboxes: vec![Vec::new(); scope.workers],
            prev_read: vec![Vec::new(); scope.workers],
        }
    }

    /// Total in-flight messages (for stats).
    pub fn in_flight(&self) -> usize {
        self.mailboxes.iter().map(Vec::len).sum()
    }
}

/// What the channel does with one posted exchange to one destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendChoice {
    /// The message is lost.
    Drop,
    /// The message is posted `copies` times (2 = duplicated), carrying
    /// the full block when `mask` is `None`, else the scope's partial
    /// mask with that index.
    Send {
        /// Index into `scope.partial_masks`; `None` posts the full block.
        mask: Option<usize>,
        /// 1 or 2 (duplication).
        copies: u8,
    },
}

/// The resolved nondeterminism of one producing step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepChoice {
    /// Mailbox indices (into the acting worker's canonical mailbox) to
    /// deliver, in application order. Indices not listed are *held*.
    pub deliver: Vec<usize>,
    /// One send choice per destination (destinations in ascending
    /// worker order, the acting worker skipped). Empty when no exchange
    /// is due this step.
    pub sends: Vec<SendChoice>,
}

/// Partial-order reduction mode of an exploration.
///
/// Reduction prunes choices whose successors are provably covered by a
/// retained representative (see [`enumerate_choices_por`]); verdicts
/// and reachable violation classes are unchanged, which the
/// `--por check` CLI mode and the tier-1 suite assert by running both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Por {
    /// Full, unreduced enumeration — the baseline the reduced run is
    /// checked against.
    #[default]
    Off,
    /// Reduced enumeration: redundant-delivery forcing, commuting
    /// reorder canonicalisation, and duplicate-send pruning.
    On,
}

/// Choices removed by partial-order reduction at one enumeration,
/// accumulated into [`crate::explore::ExploreStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PorCounts {
    /// Delivery sequences pruned (non-representative subsets /
    /// permutations).
    pub deliveries: u64,
    /// Send combinations pruned (redundant duplicate posts).
    pub sends: u64,
    /// Total step choices pruned (full cross-product minus kept).
    pub choices: u64,
}

/// Why a branch was cut instead of explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// A send would exceed the scope's mailbox capacity.
    Capacity,
    /// The spec label book left the scope's admissibility envelope —
    /// the branch is not an admissible schedule of this scope.
    Inadmissible,
}

/// Observations of one applied transition, consumed by the invariant
/// checks (everything here is derived, never fed back into the state).
#[derive(Debug, Clone)]
pub struct EdgeInfo {
    /// The executed global step.
    pub j: u64,
    /// The acting worker.
    pub worker: usize,
    /// Engine-book read labels at produce time (what the trace records).
    pub read_labels: Vec<u64>,
    /// The same worker's read labels at its previous turn, when the
    /// scope tracks read history.
    pub prev_read: Option<Vec<u64>>,
    /// `‖view − x*‖_∞` over the full read view, before producing.
    pub read_err: f64,
    /// `max_{i ∈ block} |new_i − x*_i|` of the produced block.
    pub produced_err: f64,
    /// System error measure `Φ` (max error over all views and all
    /// in-flight values) before the step.
    pub phi_before: f64,
    /// `Φ` after the step.
    pub phi_after: f64,
}

// ---------------------------------------------------------------------------
// Canonical encoding + 128-bit FNV-1a
// ---------------------------------------------------------------------------

pub(crate) fn enc_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Canonical byte encoding of a state. Length-prefixed, index-ordered,
/// IEEE bits for floats — bit-identical across platforms and runs.
pub fn canonical_bytes(s: &McState) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    enc_u64(&mut out, s.next_step);
    enc_u64(&mut out, s.views.len() as u64);
    for w in 0..s.views.len() {
        for &v in &s.views[w] {
            enc_u64(&mut out, v.to_bits());
        }
        for &l in &s.labels[w] {
            enc_u64(&mut out, l);
        }
        for &l in &s.spec_labels[w] {
            enc_u64(&mut out, l);
        }
        enc_u64(&mut out, s.mailboxes[w].len() as u64);
        for m in &s.mailboxes[w] {
            let k = m.sort_key();
            enc_u64(&mut out, k.len() as u64);
            out.extend_from_slice(&k);
        }
        enc_u64(&mut out, s.prev_read[w].len() as u64);
        for &l in &s.prev_read[w] {
            enc_u64(&mut out, l);
        }
    }
    out
}

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

/// 128-bit FNV-1a over an arbitrary canonical encoding — shared by the
/// cluster-regime and transport-seam state hashes.
pub(crate) fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// 128-bit FNV-1a over [`canonical_bytes`] — the dedup key of the
/// explorer. Pure function of the canonical encoding; a known-value
/// lock test pins it against accidental re-ordering of the encoding.
pub fn state_hash(s: &McState) -> u128 {
    fnv128(&canonical_bytes(s))
}

// ---------------------------------------------------------------------------
// Choice enumeration
// ---------------------------------------------------------------------------

/// All delivery sequences for a mailbox of `m` messages: subsets in
/// ascending index order for order-insensitive receivers
/// (`KeepFreshest` keeps the freshest label no matter the order), and
/// every permutation of every subset under `AsReceived`, where
/// application order is observable. Deterministic enumeration order.
fn delivery_choices(m: usize, policy: ApplyPolicy) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for mask in 0u32..(1u32 << m) {
        let subset: Vec<usize> = (0..m).filter(|&i| mask & (1 << i) != 0).collect();
        match policy {
            ApplyPolicy::KeepFreshest => out.push(subset),
            ApplyPolicy::AsReceived => permutations(&subset, &mut out),
        }
    }
    out
}

/// Pushes every permutation of `items` (lexicographic by construction).
fn permutations(items: &[usize], out: &mut Vec<Vec<usize>>) {
    if items.is_empty() {
        out.push(Vec::new());
        return;
    }
    fn rec(rest: &mut Vec<usize>, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(cur.clone());
            return;
        }
        for i in 0..rest.len() {
            let x = rest.remove(i);
            cur.push(x);
            rec(rest, cur, out);
            cur.pop();
            rest.insert(i, x);
        }
    }
    rec(&mut items.to_vec(), &mut Vec::new(), out);
}

/// Send options for one destination under a scope.
fn send_options(scope: &Scope) -> Vec<SendChoice> {
    let mut out = vec![SendChoice::Send {
        mask: None,
        copies: 1,
    }];
    if scope.allow_dup {
        out.push(SendChoice::Send {
            mask: None,
            copies: 2,
        });
    }
    for i in 0..scope.partial_masks.len() {
        out.push(SendChoice::Send {
            mask: Some(i),
            copies: 1,
        });
    }
    if scope.allow_drop {
        out.push(SendChoice::Drop);
    }
    out
}

/// True when delivering `msg` to worker `w` changes nothing but the
/// mailbox: every payload entry is engine-stale (or bitwise-equal at an
/// equal label) *and* spec-stale. Under `KeepFreshest` labels only grow,
/// so a redundant message stays redundant for the rest of the branch —
/// holding it only multiplies timing-equivalent states.
fn message_redundant(state: &McState, w: usize, msg: &McMessage) -> bool {
    msg.comps.iter().enumerate().all(|(k, &(c, v, l))| {
        let c = c as usize;
        let engine_noop = l < state.labels[w][c]
            || (l == state.labels[w][c] && v.to_bits() == state.views[w][c].to_bits());
        engine_noop && msg.spec[k] <= state.spec_labels[w][c]
    })
}

/// True when applying `a` then `b` equals applying `b` then `a` for
/// *any* receiver state: the messages touch disjoint components, or
/// carry identical payload and spec labels (last-writer ties resolve
/// identically either way).
fn messages_commute(a: &McMessage, b: &McMessage) -> bool {
    if a.comps == b.comps && a.spec == b.spec {
        return true;
    }
    a.comps
        .iter()
        .all(|(ca, _, _)| b.comps.iter().all(|(cb, _, _)| ca != cb))
}

/// Canonical-representative filter for `AsReceived` delivery orders: a
/// permutation is the class representative iff no adjacent pair is an
/// *inversion of commuting messages* (swapping such a pair yields the
/// identical successor, and bubble-sorting by commuting swaps reaches
/// the unique locally-minimal order, so exactly one representative per
/// Mazurkiewicz class survives).
fn is_canonical_order(perm: &[usize], mbox: &[McMessage]) -> bool {
    perm.windows(2)
        .all(|p| p[0] < p[1] || !messages_commute(&mbox[p[0]], &mbox[p[1]]))
}

/// Every way to pick one of `options` independently for each of `dests`
/// destinations, in lexicographic order (first destination outermost).
pub(crate) fn per_destination<T: Copy>(options: &[T], dests: usize) -> Vec<Vec<T>> {
    let mut combos: Vec<Vec<T>> = vec![Vec::new()];
    for _ in 0..dests {
        combos = combos
            .iter()
            .flat_map(|c| {
                options.iter().map(move |&o| {
                    let mut c = c.clone();
                    c.push(o);
                    c
                })
            })
            .collect();
    }
    combos
}

/// Enumerates every [`StepChoice`] available in `state` under `scope`,
/// in a deterministic canonical order (delivery choices outer, send
/// cross-product inner). Full enumeration — [`Por::Off`].
pub fn enumerate_choices(state: &McState, scope: &Scope) -> Vec<StepChoice> {
    enumerate_choices_por(state, scope, Por::Off).0
}

/// Enumerates the step choices of `state` under `scope`, applying the
/// partial-order reduction when `por` is [`Por::On`]:
///
/// - **Forced redundant delivery** (`KeepFreshest`, bug-free scopes):
///   messages that are no-ops for both label books must be delivered
///   now — holding them only branches on unobservable timing. Every
///   pruned subset's successor is reached by its superset
///   representative with the redundant messages absorbed earlier.
/// - **Commuting-reorder canonicalisation** (`AsReceived`): delivery
///   permutations that contain an adjacent inversion of commuting
///   messages are dropped; one representative per equivalence class of
///   identical successors survives (`is_canonical_order`).
/// - **Duplicate-send pruning** (`KeepFreshest`, bug-free scopes with
///   `allow_dup`): posting two identical copies is observationally
///   dominated by posting one — the second copy can only ever be
///   absorbed as a no-op or consume mailbox capacity (and capacity
///   pruning removes states, never violations).
///
/// The reductions are disabled under `inject_bug` scopes: the planted
/// engine defect makes the redundancy judgement unsound there, and
/// negative controls must see the full space.
pub fn enumerate_choices_por(
    state: &McState,
    scope: &Scope,
    por: Por,
) -> (Vec<StepChoice>, PorCounts) {
    let j = state.next_step;
    let w = scope.owner(j);
    let mbox = &state.mailboxes[w];
    let mut counts = PorCounts::default();
    let mut deliveries = delivery_choices(mbox.len(), scope.apply_policy);
    let deliveries_full = deliveries.len() as u64;
    if por == Por::On {
        match scope.apply_policy {
            ApplyPolicy::KeepFreshest if !scope.inject_bug => {
                let redundant: Vec<usize> = (0..mbox.len())
                    .filter(|&i| message_redundant(state, w, &mbox[i]))
                    .collect();
                if !redundant.is_empty() {
                    deliveries.retain(|d| redundant.iter().all(|r| d.contains(r)));
                }
            }
            ApplyPolicy::AsReceived => {
                deliveries.retain(|d| is_canonical_order(d, mbox));
            }
            ApplyPolicy::KeepFreshest => {}
        }
        counts.deliveries = deliveries_full - deliveries.len() as u64;
    }
    let (sends, sends_full): (Vec<Vec<SendChoice>>, u64) = if scope.exchange_due(j) {
        let mut per_dest = send_options(scope);
        let per_dest_full = per_dest.len() as u64;
        if por == Por::On
            && scope.apply_policy == ApplyPolicy::KeepFreshest
            && !scope.inject_bug
            && scope.allow_dup
        {
            per_dest.retain(|s| !matches!(s, SendChoice::Send { copies: 2, .. }));
        }
        let dests = scope.workers - 1;
        let full = per_dest_full.pow(dests as u32);
        counts.sends = full - (per_dest.len() as u64).pow(dests as u32);
        (per_destination(&per_dest, dests), full)
    } else {
        (vec![Vec::new()], 1)
    };
    let mut out = Vec::with_capacity(deliveries.len() * sends.len());
    for d in &deliveries {
        for s in &sends {
            out.push(StepChoice {
                deliver: d.clone(),
                sends: s.clone(),
            });
        }
    }
    counts.choices = deliveries_full * sends_full - out.len() as u64;
    (out, counts)
}

// ---------------------------------------------------------------------------
// The transition
// ---------------------------------------------------------------------------

/// Applies one message to the spec book with the same policy semantics
/// the engine book uses, but judged on spec labels — the two books
/// coincide exactly while the engine's bookkeeping is correct.
fn spec_apply(spec: &mut [u64], msg: &McMessage, policy: ApplyPolicy) {
    for (k, &(c, _, _)) in msg.comps.iter().enumerate() {
        let c = c as usize;
        let l = msg.spec[k];
        match policy {
            ApplyPolicy::AsReceived => spec[c] = l,
            ApplyPolicy::KeepFreshest => {
                if l >= spec[c] {
                    spec[c] = l;
                }
            }
        }
    }
}

/// Engine-book delivery used only under `inject_bug`: identical to
/// [`asynciter_runtime::apply_message`] except the *label* update for
/// the severed component is skipped — a modelled bookkeeping defect the
/// checker must catch (the value is still applied, so the run looks
/// healthy to anything that ignores labels).
fn buggy_apply(view: &mut [f64], labels: &mut [u64], comps: &[(u32, f64, u64)], severed: usize) {
    for &(c, v, l) in comps {
        let c = c as usize;
        view[c] = v;
        if c != severed {
            labels[c] = l;
        }
    }
}

/// System error measure `Φ`: the max-norm distance to `x*` over every
/// value anywhere in the system — all worker views and all in-flight
/// message payloads. The contraction certificate makes `Φ`
/// non-increasing along *every* admissible edge.
pub fn phi(state: &McState, problem: &McProblem) -> f64 {
    let mut m = 0.0_f64;
    for view in &state.views {
        for (c, &v) in view.iter().enumerate() {
            m = m.max((v - problem.xstar[c]).abs());
        }
    }
    for mbox in &state.mailboxes {
        for msg in mbox {
            for &(c, v, _) in &msg.comps {
                m = m.max((v - problem.xstar[c as usize]).abs());
            }
        }
    }
    m
}

/// Applies `choice` to `state`, producing the successor and the edge
/// observations, or the reason the branch is pruned.
///
/// When `trace` is given, the producing step is appended to it (the
/// counterexample rebuild path); exploration passes `None` and a
/// throwaway single-step trace is used instead.
///
/// # Errors
/// [`PruneReason`] for capacity or admissibility cuts.
///
/// # Panics
/// Panics when `choice` indexes outside the mailbox (enumerated choices
/// never do) or the operator produces a non-finite iterate (impossible
/// for the contraction scopes).
pub fn apply_choice(
    state: &McState,
    choice: &StepChoice,
    scope: &Scope,
    problem: &McProblem,
    trace: Option<&mut Trace>,
) -> Result<(McState, EdgeInfo), PruneReason> {
    let j = state.next_step;
    let w = scope.owner(j);
    let phi_before = phi(state, problem);
    let mut t = state.clone();

    // Deliveries, in the chosen order; everything else is held.
    for &idx in &choice.deliver {
        let msg = state.mailboxes[w][idx].clone();
        if scope.inject_bug {
            buggy_apply(
                &mut t.views[w],
                &mut t.labels[w],
                &msg.comps,
                scope.bug_component(),
            );
        } else {
            apply_message(
                &mut t.views[w],
                &mut t.labels[w],
                &msg.comps,
                scope.apply_policy,
            );
        }
        spec_apply(&mut t.spec_labels[w], &msg, scope.apply_policy);
    }
    let mut kept = 0usize;
    t.mailboxes[w].retain(|_| {
        let keep = !choice.deliver.contains(&kept);
        kept += 1;
        keep
    });

    // Admissibility pruning on the spec book: every label read at this
    // producing step must be inside the scope's delay envelope.
    let floor = scope.envelope.min_label(j);
    if t.spec_labels[w].iter().any(|&l| l < floor) {
        return Err(PruneReason::Inadmissible);
    }

    // Produce: the engine's own step half records the trace row and
    // stamps the block. Read-side observations are taken just before.
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
    .expect("contraction scopes cannot produce non-finite iterates");
    for &i in &blocks[w] {
        t.spec_labels[w][i] = j;
    }
    let produced_err = blocks[w]
        .iter()
        .map(|&i| (t.views[w][i] - problem.xstar[i]).abs())
        .fold(0.0_f64, f64::max);
    let prev_read = if scope.track_read_history {
        let prev = std::mem::replace(&mut t.prev_read[w], read_labels.clone());
        (!prev.is_empty()).then_some(prev)
    } else {
        None
    };

    // Sends, destinations in ascending order.
    if scope.exchange_due(j) {
        let mut sends = choice.sends.iter();
        for dest in 0..scope.workers {
            if dest == w {
                continue;
            }
            let sc = sends.next().expect("one send choice per destination");
            match *sc {
                SendChoice::Drop => {}
                SendChoice::Send { mask, copies } => {
                    let comps_idx: Vec<usize> = match mask {
                        None => blocks[w].clone(),
                        Some(mi) => scope.partial_masks[mi]
                            .iter()
                            .map(|&k| blocks[w][k])
                            .collect(),
                    };
                    let comps: Vec<(u32, f64, u64)> = comps_idx
                        .iter()
                        .map(|&i| (i as u32, t.views[w][i], t.labels[w][i]))
                        .collect();
                    let spec: Vec<u64> = comps_idx.iter().map(|&i| t.spec_labels[w][i]).collect();
                    if t.mailboxes[dest].len() + copies as usize > scope.max_in_flight {
                        return Err(PruneReason::Capacity);
                    }
                    for _ in 0..copies {
                        t.mailboxes[dest].push(McMessage {
                            sent_at: j,
                            src: w as u32,
                            comps: comps.clone(),
                            spec: spec.clone(),
                        });
                    }
                }
            }
        }
    }

    // Canonicalise mailboxes so path-equivalent states hash equal.
    for mbox in &mut t.mailboxes {
        mbox.sort_by_cached_key(McMessage::sort_key);
    }
    t.next_step = j + 1;
    let phi_after = phi(&t, problem);
    let edge = EdgeInfo {
        j,
        worker: w,
        read_labels,
        prev_read,
        read_err,
        produced_err,
        phi_before,
        phi_after,
    };
    Ok((t, edge))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_enumeration_counts() {
        // KeepFreshest: subsets only.
        assert_eq!(delivery_choices(2, ApplyPolicy::KeepFreshest).len(), 4);
        // AsReceived: ordered subsets: 1 + 2 + 2 = 5 for m = 2.
        assert_eq!(delivery_choices(2, ApplyPolicy::AsReceived).len(), 5);
        // m = 3: 1 + 3 + 6 + 6 = 16.
        assert_eq!(delivery_choices(3, ApplyPolicy::AsReceived).len(), 16);
    }

    #[test]
    fn state_hash_is_stable_and_sensitive() {
        let scope = Scope::quick();
        let problem = McProblem::build();
        let s = McState::initial(&scope, &problem);
        assert_eq!(state_hash(&s), state_hash(&s.clone()));
        let mut s2 = s.clone();
        s2.labels[0][0] = 1;
        assert_ne!(state_hash(&s), state_hash(&s2));
        let mut s3 = s.clone();
        s3.spec_labels[0][0] = 1;
        assert_ne!(state_hash(&s), state_hash(&s3), "spec book is hashed");
    }

    #[test]
    fn mailbox_order_is_canonical() {
        let scope = Scope::quick();
        let problem = McProblem::build();
        let mk = |sent_at, src| McMessage {
            sent_at,
            src,
            comps: vec![(0, 1.0, sent_at)],
            spec: vec![sent_at],
        };
        let mut a = McState::initial(&scope, &problem);
        a.mailboxes[0] = vec![mk(1, 0), mk(3, 1)];
        let mut b = McState::initial(&scope, &problem);
        b.mailboxes[0] = vec![mk(3, 1), mk(1, 0)];
        for s in [&mut a, &mut b] {
            for mbox in &mut s.mailboxes {
                mbox.sort_by_cached_key(McMessage::sort_key);
            }
        }
        assert_eq!(state_hash(&a), state_hash(&b));
    }

    #[test]
    fn transition_prunes_capacity_and_inadmissible() {
        let problem = McProblem::build();
        let mut scope = Scope::quick();
        scope.max_in_flight = 0;
        let s = McState::initial(&scope, &problem);
        let send_full = StepChoice {
            deliver: vec![],
            sends: vec![SendChoice::Send {
                mask: None,
                copies: 1,
            }],
        };
        assert_eq!(
            apply_choice(&s, &send_full, &scope, &problem, None).unwrap_err(),
            PruneReason::Capacity
        );
        // A tight envelope prunes a produce over all-stale labels.
        let mut tight = Scope::inject();
        tight.inject_bug = false;
        let mut s = McState::initial(&tight, &problem);
        s.next_step = 3; // min_label(3) = 1 under Bounded(2)
        let hold_all = StepChoice {
            deliver: vec![],
            sends: vec![SendChoice::Send {
                mask: None,
                copies: 1,
            }],
        };
        assert_eq!(
            apply_choice(&s, &hold_all, &tight, &problem, None).unwrap_err(),
            PruneReason::Inadmissible
        );
    }

    #[test]
    fn phi_never_increases_along_a_fault_free_edge() {
        let scope = Scope::quick();
        let problem = McProblem::build();
        let s = McState::initial(&scope, &problem);
        let choice = &enumerate_choices(&s, &scope)[0];
        let (t, edge) = apply_choice(&s, choice, &scope, &problem, None).unwrap();
        assert!(edge.phi_after <= edge.phi_before);
        assert!(edge.produced_err <= problem.alpha * edge.read_err + 1e-12);
        assert_eq!(t.next_step, 2);
        assert_eq!(t.labels, t.spec_labels, "books agree without the bug");
    }
}
