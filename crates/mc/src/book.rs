//! The book-keeping every model family shares: production workers, the
//! independent spec label book, and messages that carry both kinds of
//! label.
//!
//! A model state is a [`Book`] plus the model's own channel. The book
//! holds one `runtime` [`Worker`] per shard — views and *engine* labels
//! are written only by [`Worker::receive`] and [`Worker::produce`], the
//! code every cluster engine runs — and beside it a *spec* label book
//! maintained from choice semantics alone. Admissibility pruning reads
//! the spec book, property checks compare the two, so a bookkeeping bug
//! on the engine path cannot hide itself by steering the search.
//!
//! Defined here once, used by [`crate::explore::ClusterModel`] and
//! [`crate::seam::SeamModel`] alike: the spec-carrying message and its
//! canonical key, spec-book application, the admissibility-floor prune,
//! the system measure `Φ`, the observe → produce → stamp step that
//! fills an [`EdgeInfo`], and the per-worker part of the canonical
//! state encoding. A model adds its channel, its choice enumeration
//! and its planted bugs — nothing else.

use crate::scope::{McProblem, MC_DIM};
use asynciter_models::conditions::DelayEnvelope;
use asynciter_models::{Partition, Trace};
use asynciter_numerics::rng::rng;
use asynciter_runtime::transport::BlockMessage;
use asynciter_runtime::{ApplyPolicy, Worker};

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

pub(crate) fn enc_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

/// 128-bit FNV-1a over a canonical state encoding.
pub(crate) fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// One in-flight message: what the receiving [`Worker`] is handed
/// (possibly corrupted by a planted bug) plus the spec book's
/// independent labels for the same entries.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecMessage {
    /// Global step at which the message was posted.
    pub sent_at: u64,
    /// The engine message, as [`Worker::post`] built it.
    pub msg: BlockMessage,
    /// Spec labels, one per `msg.comps` entry — or none at all for a
    /// message the spec book must ignore (an engine-side leak of a
    /// spec-modelled drop).
    pub spec: Vec<u64>,
}

impl SpecMessage {
    /// Canonical byte encoding of the whole message. Starts with the
    /// posting step, so sorting by key orders a mailbox by age.
    pub(crate) fn key(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.msg.comps.len() * 32);
        enc_u64(&mut out, self.sent_at);
        enc_u64(&mut out, self.msg.from as u64);
        enc_u64(&mut out, self.msg.comps.len() as u64);
        for &(c, v, l) in &self.msg.comps {
            enc_u64(&mut out, u64::from(c));
            enc_u64(&mut out, v.to_bits());
            enc_u64(&mut out, l);
        }
        for &s in &self.spec {
            enc_u64(&mut out, s);
        }
        out
    }

    /// Appends the length-prefixed [`SpecMessage::key`] to a state
    /// encoding.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        let k = self.key();
        enc_u64(out, k.len() as u64);
        out.extend_from_slice(&k);
    }
}

/// `‖v − x*‖_∞` over `(component, value)` pairs.
fn max_err(problem: &McProblem, values: impl Iterator<Item = (usize, f64)>) -> f64 {
    values
        .map(|(c, v)| (v - problem.xstar[c]).abs())
        .fold(0.0_f64, f64::max)
}

/// The workers of a model state and the spec label book beside them.
#[derive(Debug, Clone, PartialEq)]
pub struct Book {
    /// The runtime's own workers: views, engine label books, counters.
    pub workers: Vec<Worker>,
    /// Spec label books, one per worker (maintained from choice
    /// semantics alone). Divergence from the workers' own labels IS a
    /// checked property violation.
    pub spec: Vec<Vec<u64>>,
    policy: ApplyPolicy,
}

impl Book {
    /// `workers` block owners on the scope problem: all views at `x0`,
    /// all labels 0, a full-block post after every update.
    ///
    /// # Panics
    /// Panics when `workers` does not partition the scope dimension.
    pub fn new(problem: &McProblem, workers: usize, policy: ApplyPolicy) -> Self {
        let partition = Partition::blocks(MC_DIM, workers).expect("scope partition");
        let workers =
            Worker::mesh(&problem.op, &problem.x0, &partition, policy, 1, 0.0).expect("scope mesh");
        Self {
            spec: vec![vec![0; problem.n()]; workers.len()],
            workers,
            policy,
        }
    }

    /// Delivers `m` to worker `w`: the engine side is the worker's own
    /// [`Worker::receive`]; the spec book applies the same policy,
    /// judged on spec labels — the two coincide exactly while the
    /// engine's bookkeeping is correct.
    pub fn receive(&mut self, w: usize, m: &SpecMessage) {
        self.workers[w].receive(&m.msg);
        for (&(c, _, _), &l) in m.msg.comps.iter().zip(&m.spec) {
            let slot = &mut self.spec[w][c as usize];
            if self.policy == ApplyPolicy::AsReceived || l >= *slot {
                *slot = l;
            }
        }
    }

    /// Worker `w`'s block update at global step `j`, on the worker's
    /// own [`Worker::produce`], with the read-side observations taken
    /// just before it and the produced block stamped `j` in the spec
    /// book. The step is appended to `trace` when given. The returned
    /// edge leaves the channel-dependent fields (`prev_read`, `phi_*`)
    /// for the model to fill.
    ///
    /// # Errors
    /// [`PruneReason::Inadmissible`] when a spec label read at this
    /// step lies below `envelope`'s floor: the branch is not an
    /// admissible schedule of the scope.
    ///
    /// # Panics
    /// Panics when the operator produces a non-finite iterate
    /// (impossible for the contraction scope problem).
    pub fn produce(
        &mut self,
        problem: &McProblem,
        w: usize,
        j: u64,
        envelope: DelayEnvelope,
        trace: Option<&mut Trace>,
    ) -> Result<EdgeInfo, PruneReason> {
        let floor = envelope.min_label(j);
        if self.spec[w].iter().any(|&l| l < floor) {
            return Err(PruneReason::Inadmissible);
        }
        let worker = &mut self.workers[w];
        let read_labels = worker.labels().to_vec();
        let read_err = max_err(problem, worker.view().iter().copied().enumerate());
        if let Some(trace) = trace {
            trace.push_step(worker.block(), &read_labels);
        }
        worker
            .produce(&problem.op, j)
            .expect("contraction scopes cannot produce non-finite iterates");
        for &i in worker.block() {
            self.spec[w][i] = j;
        }
        let produced = worker.block().iter().map(|&i| (i, worker.view()[i]));
        Ok(EdgeInfo {
            j,
            worker: w,
            read_labels,
            prev_read: None,
            read_err,
            produced_err: max_err(problem, produced),
            phi_before: 0.0,
            phi_after: 0.0,
        })
    }

    /// The exchange after worker `w`'s update at step `j`: its
    /// [`Worker::post`] with the spec labels of the same entries, or
    /// `None` when no exchange is due.
    pub fn post(&mut self, w: usize, j: u64) -> Option<SpecMessage> {
        // Model meshes post with `partial_prob = 0`, so the stream is
        // never drawn from.
        let msg = self.workers[w].post(&mut rng(0))?;
        let spec = &self.spec[w];
        Some(SpecMessage {
            sent_at: j,
            spec: msg
                .comps
                .iter()
                .map(|&(c, _, _)| spec[c as usize])
                .collect(),
            msg,
        })
    }

    /// System error measure `Φ`: the max-norm distance to `x*` over
    /// every value anywhere in the system — all worker views and all
    /// `in_flight` message payloads. The contraction certificate makes
    /// `Φ` non-increasing along *every* admissible edge.
    pub fn phi<'a>(
        &self,
        problem: &McProblem,
        in_flight: impl Iterator<Item = &'a SpecMessage>,
    ) -> f64 {
        let views = self.workers.iter().map(Worker::view);
        let flying = in_flight.flat_map(|m| m.msg.comps.iter().map(|&(c, v, _)| (c as usize, v)));
        max_err(
            problem,
            views
                .flat_map(|view| view.iter().copied().enumerate())
                .chain(flying),
        )
    }

    /// Appends worker `w`'s part of a canonical state encoding: view
    /// (IEEE bits), engine labels, spec labels, each in index order.
    pub(crate) fn encode_worker(&self, w: usize, out: &mut Vec<u8>) {
        for &v in self.workers[w].view() {
            enc_u64(out, v.to_bits());
        }
        for &l in self.workers[w].labels().iter().chain(&self.spec[w]) {
            enc_u64(out, l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghosts_bypass_the_spec_book_and_keys_order_by_age() {
        let problem = McProblem::build();
        let mut book = Book::new(&problem, 2, ApplyPolicy::AsReceived);
        book.produce(&problem, 1, 1, DelayEnvelope::Bounded(4), None)
            .unwrap();
        let posted = book.post(1, 1).expect("exchange every update");
        assert_eq!(posted.spec, vec![1; MC_DIM / 2]);
        let ghost = SpecMessage {
            spec: Vec::new(),
            ..posted.clone()
        };
        book.receive(0, &ghost);
        assert_eq!(book.workers[0].labels()[MC_DIM / 2], 1, "engine saw it");
        assert_eq!(book.spec[0], vec![0; MC_DIM], "spec book did not");
        book.receive(0, &posted);
        assert_eq!(book.workers[0].labels(), &book.spec[0][..]);
        let later = SpecMessage {
            sent_at: 3,
            ..posted.clone()
        };
        assert!(posted.key() < later.key());
        assert_ne!(posted.key(), ghost.key());
    }

    #[test]
    fn stale_spec_labels_prune_the_produce() {
        let problem = McProblem::build();
        let mut book = Book::new(&problem, 2, ApplyPolicy::KeepFreshest);
        // min_label(3) = 1 under Bounded(2); every spec label is 0.
        assert_eq!(
            book.produce(&problem, 0, 3, DelayEnvelope::Bounded(2), None)
                .unwrap_err(),
            PruneReason::Inadmissible
        );
        let edge = book
            .produce(&problem, 0, 3, DelayEnvelope::Bounded(3), None)
            .unwrap();
        assert!(edge.produced_err <= problem.alpha * edge.read_err + 1e-12);
        assert_eq!(book.spec[0][0], 3, "produced block stamped");
        assert_eq!(book.workers[0].labels(), &book.spec[0][..]);
    }
}
