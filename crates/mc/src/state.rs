//! The cluster-regime model's state, choices, hashing, and one-step
//! transition over an *abstract* channel.
//!
//! An [`McState`] is the shared [`Book`] — the runtime's own
//! [`Worker`](asynciter_runtime::Worker)s and the independent spec
//! label book — plus what this model adds: each worker's mailbox as a
//! canonically sorted message list. The global step counter is part of
//! the state, so states at different depths never alias; who acts when
//! is derived round-robin from it, and every update is followed by an
//! exchange.
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

use crate::book::{enc_u64, fnv128, Book, EdgeInfo, PruneReason, SpecMessage};
use crate::scope::{McProblem, Scope};
use asynciter_models::Trace;
use asynciter_runtime::ApplyPolicy;

/// A canonical global state of the bounded cluster model.
#[derive(Debug, Clone, PartialEq)]
pub struct McState {
    /// Next global step to execute (1-based); terminal when
    /// `next_step > scope.steps`.
    pub next_step: u64,
    /// The workers (views, engine label books) and the spec label book
    /// that drives admissibility pruning.
    pub book: Book,
    /// Per-worker mailboxes, canonically sorted.
    pub mailboxes: Vec<Vec<SpecMessage>>,
    /// Per-worker read-label vector of the previous turn (engine book),
    /// kept only when `scope.track_read_history` — the out-of-order
    /// property compares consecutive turns of the same worker.
    pub prev_read: Vec<Vec<u64>>,
}

impl McState {
    /// The initial state of a scope: all views at `x0`, all labels 0,
    /// empty mailboxes.
    pub fn initial(scope: &Scope, problem: &McProblem) -> Self {
        Self {
            next_step: 1,
            book: Book::new(problem, scope.workers, scope.apply_policy),
            mailboxes: vec![Vec::new(); scope.workers],
            prev_read: vec![Vec::new(); scope.workers],
        }
    }

    /// Every in-flight message.
    pub fn in_flight(&self) -> impl Iterator<Item = &SpecMessage> {
        self.mailboxes.iter().flatten()
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

// ---------------------------------------------------------------------------
// Canonical encoding
// ---------------------------------------------------------------------------

/// Canonical byte encoding of a state. Length-prefixed, index-ordered,
/// IEEE bits for floats — bit-identical across platforms and runs.
pub fn canonical_bytes(s: &McState) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    enc_u64(&mut out, s.next_step);
    enc_u64(&mut out, s.mailboxes.len() as u64);
    for (w, mbox) in s.mailboxes.iter().enumerate() {
        s.book.encode_worker(w, &mut out);
        enc_u64(&mut out, mbox.len() as u64);
        for m in mbox {
            m.encode(&mut out);
        }
        enc_u64(&mut out, s.prev_read[w].len() as u64);
        for &l in &s.prev_read[w] {
            enc_u64(&mut out, l);
        }
    }
    out
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
fn message_redundant(state: &McState, w: usize, msg: &SpecMessage) -> bool {
    let (worker, spec) = (&state.book.workers[w], &state.book.spec[w]);
    msg.msg.comps.iter().zip(&msg.spec).all(|(&(c, v, l), &s)| {
        let c = c as usize;
        let engine_noop = l < worker.labels()[c]
            || (l == worker.labels()[c] && v.to_bits() == worker.view()[c].to_bits());
        engine_noop && s <= spec[c]
    })
}

/// True when applying `a` then `b` equals applying `b` then `a` for
/// *any* receiver state: the messages touch disjoint components, or
/// carry identical payload and spec labels (last-writer ties resolve
/// identically either way).
fn messages_commute(a: &SpecMessage, b: &SpecMessage) -> bool {
    if a.msg.comps == b.msg.comps && a.spec == b.spec {
        return true;
    }
    let (a, b) = (&a.msg.comps, &b.msg.comps);
    a.iter()
        .all(|(ca, _, _)| b.iter().all(|(cb, _, _)| ca != cb))
}

/// Canonical-representative filter for `AsReceived` delivery orders: a
/// permutation is the class representative iff no adjacent pair is an
/// *inversion of commuting messages* (swapping such a pair yields the
/// identical successor, and bubble-sorting by commuting swaps reaches
/// the unique locally-minimal order, so exactly one representative per
/// Mazurkiewicz class survives).
fn is_canonical_order(perm: &[usize], mbox: &[SpecMessage]) -> bool {
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
    let posts = state.book.workers[w].next_update_posts();
    let (sends, sends_full): (Vec<Vec<SendChoice>>, u64) = if posts {
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

/// The `inject_bug` plant: the delivered copy of `m` as a receiver whose
/// label book currently holds `current` for component `severed` would
/// see it had the label write for that entry been skipped — the entry's
/// label is rewritten to `current`, so under `AsReceived` the worker's
/// own receive stores the value and leaves the label where it was (the
/// run looks healthy to anything that ignores labels). The spec labels
/// keep modelling the delivery correctly.
fn sever(m: &SpecMessage, severed: usize, current: u64) -> SpecMessage {
    let mut m = m.clone();
    for entry in &mut m.msg.comps {
        if entry.0 as usize == severed {
            entry.2 = current;
        }
    }
    m
}

/// Applies `choice` to `state`, producing the successor and the edge
/// observations, or the reason the branch is pruned. Deliveries, the
/// block update and the posted block are the runtime worker's own
/// `receive` / `produce` / `post`, through the shared [`Book`]; this
/// model adds the abstract channel around them.
///
/// When `trace` is given, the producing step is appended to it (the
/// counterexample rebuild path).
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
    let phi_before = state.book.phi(problem, state.in_flight());
    let mut t = state.clone();

    // Deliveries, in the chosen order; everything else is held. The
    // planted bug severs the first component of worker 1's block — a
    // block *boundary* component, coupled across the partition cut by
    // the tridiagonal operator.
    for &idx in &choice.deliver {
        let m = &state.mailboxes[w][idx];
        if scope.inject_bug {
            let severed = t.book.workers[1].block()[0];
            let current = t.book.workers[w].labels()[severed];
            t.book.receive(w, &sever(m, severed, current));
        } else {
            t.book.receive(w, m);
        }
    }
    let mut kept = 0usize;
    t.mailboxes[w].retain(|_| {
        let keep = !choice.deliver.contains(&kept);
        kept += 1;
        keep
    });

    let edge = t.book.produce(problem, w, j, scope.envelope, trace)?;
    let prev_read = if scope.track_read_history {
        let prev = std::mem::replace(&mut t.prev_read[w], edge.read_labels.clone());
        (!prev.is_empty()).then_some(prev)
    } else {
        None
    };

    // Sends, destinations in ascending order; a flexible-exchange
    // choice cuts the posted block to the scope mask.
    if let Some(posted) = t.book.post(w, j) {
        let mut sends = choice.sends.iter();
        for dest in t.book.workers[w].peers() {
            let sc = sends.next().expect("one send choice per destination");
            let SendChoice::Send { mask, copies } = *sc else {
                continue;
            };
            let mut m = posted.clone();
            if let Some(mi) = mask {
                let mask = &scope.partial_masks[mi];
                m.msg.comps = mask.iter().map(|&k| posted.msg.comps[k]).collect();
                m.spec = mask.iter().map(|&k| posted.spec[k]).collect();
                m.msg.partial = true;
            }
            if t.mailboxes[dest].len() + copies as usize > scope.max_in_flight {
                return Err(PruneReason::Capacity);
            }
            t.mailboxes[dest].extend(std::iter::repeat_n(m, copies as usize));
        }
    }

    // Canonicalise mailboxes so path-equivalent states hash equal.
    for mbox in &mut t.mailboxes {
        mbox.sort_by_cached_key(SpecMessage::key);
    }
    t.next_step = j + 1;
    let phi_after = t.book.phi(problem, t.in_flight());
    let edge = EdgeInfo {
        prev_read,
        phi_before,
        phi_after,
        ..edge
    };
    Ok((t, edge))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_runtime::transport::BlockMessage;

    fn message(sent_at: u64, from: usize) -> SpecMessage {
        SpecMessage {
            sent_at,
            msg: BlockMessage {
                from,
                comps: vec![(0, 0.0, sent_at)],
                partial: false,
            },
            spec: vec![0],
        }
    }

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
        // A delivery that moves one engine label and nothing else.
        let mut s2 = s.clone();
        s2.book.receive(0, &message(1, 1));
        assert_eq!(s2.book.workers[0].labels()[0], 1);
        assert_eq!(
            (s2.book.workers[0].view(), &s2.book.spec),
            (s.book.workers[0].view(), &s.book.spec)
        );
        assert_ne!(state_hash(&s), state_hash(&s2), "engine book is hashed");
        let mut s3 = s.clone();
        s3.book.spec[0][0] = 1;
        assert_ne!(state_hash(&s), state_hash(&s3), "spec book is hashed");
    }

    #[test]
    fn mailbox_order_is_canonical() {
        let scope = Scope::quick();
        let problem = McProblem::build();
        let mut a = McState::initial(&scope, &problem);
        a.mailboxes[0] = vec![message(1, 0), message(3, 1)];
        let mut b = McState::initial(&scope, &problem);
        b.mailboxes[0] = vec![message(3, 1), message(1, 0)];
        for s in [&mut a, &mut b] {
            for mbox in &mut s.mailboxes {
                mbox.sort_by_cached_key(SpecMessage::key);
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
        assert_eq!(
            apply_choice(&s, &send_full, &tight, &problem, None).unwrap_err(),
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
        let labels: Vec<&[u64]> = t.book.workers.iter().map(|w| w.labels()).collect();
        assert_eq!(labels, t.book.spec, "books agree without the bug");
    }

    #[test]
    fn the_planted_bug_freezes_the_boundary_label_only() {
        let scope = Scope::inject();
        let problem = McProblem::build();
        let s = McState::initial(&scope, &problem);
        // Step 1: worker 0 posts; step 2: worker 1 posts its block,
        // boundary component included; step 3: worker 0 reads it.
        let send = |s: &McState, deliver: Vec<usize>| {
            let choice = StepChoice {
                deliver,
                sends: vec![SendChoice::Send {
                    mask: None,
                    copies: 1,
                }],
            };
            apply_choice(s, &choice, &scope, &problem, None).unwrap().0
        };
        let s = send(&send(&s, vec![]), vec![0]);
        let boundary = crate::scope::MC_DIM / 2;
        let before = s.mailboxes[0][0].msg.comps[0];
        assert_eq!(before, (boundary as u32, before.1, 2));
        let t = send(&s, vec![0]);
        let (worker, spec) = (&t.book.workers[0], &t.book.spec[0]);
        assert_eq!(worker.view()[boundary].to_bits(), before.1.to_bits());
        assert_eq!((worker.labels()[boundary], spec[boundary]), (0, 2));
        assert_eq!(worker.labels()[boundary + 1..], spec[boundary + 1..]);
    }
}
