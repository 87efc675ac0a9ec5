//! The message-passing worker: one shard owner's receive → produce →
//! post step, shared by every cluster scheduler.
//!
//! A [`Worker`] owns one [`Partition`] block, a full local view of its
//! best knowledge of everyone else, the producing-step label of every
//! view entry, its operator scratch and its counters. It never decides
//! *when* it runs or what happens to a message once posted — that is
//! the scheduler's job, and three schedulers drive this same code:
//!
//! - [`crate::cluster::Cluster`] — round-robin turns, latency
//!   mailboxes, one seeded stream (deterministic);
//! - [`crate::threaded::ThreadedCluster`] — one OS thread per worker,
//!   step numbers from a shared `SeqCst` counter, messages over a
//!   [`crate::transport::Transport`];
//! - `asynciter-mc`'s `SeamModel` — every interleaving of worker steps
//!   crossed with every [`crate::transport::SendFate`], exhaustively.
//!
//! `Worker` is `Clone` so the model checker can branch a state; a clone
//! is a deep copy of everything the worker's future depends on.

use crate::cluster::ApplyPolicy;
use crate::error::RuntimeError;
use crate::transport::{BlockMessage, SendStats};
use asynciter_core::session::{ClusterStats, RunReport};
use asynciter_models::partition::Partition;
use asynciter_opt::traits::Operator;
use rand::rngs::StdRng;
use rand::RngExt;

/// What one worker did so far. Summed over workers these are the
/// receiver-side and flexible-exchange counters of a `RunReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Block updates produced.
    pub updates: u64,
    /// Messages received (duplicates included).
    pub delivered: u64,
    /// Partial (subset) messages posted.
    pub partial_publishes: u64,
    /// Component values applied out of partial messages.
    pub partial_reads: u64,
    /// Freshness checks performed (`KeepFreshest`: one per received
    /// component).
    pub constraint_checked: u64,
    /// Received components discarded as stale (`KeepFreshest` only).
    pub constraint_violations: u64,
}

/// One shard owner of a message-passing cluster. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Worker {
    id: usize,
    workers: usize,
    block: Vec<usize>,
    policy: ApplyPolicy,
    exchange_every: u64,
    partial_prob: f64,
    view: Vec<f64>,
    labels: Vec<u64>,
    // Block output and operator scratch, allocated once: the step is
    // heap-allocation-free apart from the posted message payload.
    upd: Vec<f64>,
    scratch: Vec<f64>,
    counters: WorkerCounters,
}

impl Worker {
    /// One worker per [`Partition`] machine, each owning its block and
    /// starting from `x0` with every label 0. Workers fold received
    /// messages in under `policy` and post their block every
    /// `exchange_every` of their own updates, as a random nonempty
    /// subset with probability `partial_prob`.
    ///
    /// # Errors
    /// `x0` or `partition` not sized for `op`, `exchange_every == 0`, or
    /// `partial_prob` outside `[0, 1]`.
    pub fn mesh(
        op: &dyn Operator,
        x0: &[f64],
        partition: &Partition,
        policy: ApplyPolicy,
        exchange_every: u64,
        partial_prob: f64,
    ) -> crate::Result<Vec<Worker>> {
        let n = op.dim();
        for (actual, context) in [
            (x0.len(), "Worker::mesh (x0)"),
            (partition.n(), "Worker::mesh (partition)"),
        ] {
            if actual != n {
                return Err(RuntimeError::DimensionMismatch {
                    expected: n,
                    actual,
                    context,
                });
            }
        }
        check_positive(&[("exchange_every", exchange_every)])?;
        check_probabilities(&[("partial_prob", partial_prob)])?;
        let workers = partition.num_machines();
        let worker = |id| Worker {
            id,
            workers,
            block: partition.components_of(id),
            policy,
            exchange_every,
            partial_prob,
            view: x0.to_vec(),
            labels: vec![0; n],
            upd: vec![0.0; n],
            scratch: vec![0.0; op.scratch_len()],
            counters: WorkerCounters::default(),
        };
        Ok((0..workers).map(worker).collect())
    }

    /// This worker's index in the mesh.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The owned components.
    pub fn block(&self) -> &[usize] {
        &self.block
    }

    /// The local view: own block plus best knowledge of everyone else.
    pub fn view(&self) -> &[f64] {
        &self.view
    }

    /// The label book: the global producing step of every view entry
    /// (0 = initial value). Recording these just before
    /// [`Worker::produce`] is what makes a run replay bit for bit.
    pub fn labels(&self) -> &[u64] {
        &self.labels
    }

    /// What this worker did so far.
    pub fn counters(&self) -> WorkerCounters {
        self.counters
    }

    /// Adds what a finished run's mesh counted to a fresh `report`:
    /// updates per worker, the flexible-exchange and freshness counters,
    /// and as `RunReport::channel` the summed `sends` and receipts.
    pub(crate) fn count_into(
        workers: &[Worker],
        sends: impl IntoIterator<Item = SendStats>,
        report: &mut RunReport,
    ) {
        let mut channel = ClusterStats::default();
        for s in sends {
            channel.sent += s.sent;
            channel.dropped += s.dropped;
            channel.duplicated += s.duplicated;
            channel.held += s.held;
        }
        for c in workers.iter().map(|w| w.counters) {
            channel.delivered += c.delivered;
            channel.discarded_stale += c.constraint_violations;
            report.partial_publishes += c.partial_publishes;
            report.partial_reads += c.partial_reads;
            report.constraint_checked += c.constraint_checked;
            report.constraint_violations += c.constraint_violations;
        }
        report.per_worker_updates = workers.iter().map(|w| w.counters.updates).collect();
        report.channel = Some(channel);
    }

    /// Every other worker of the mesh, ascending — the destinations of
    /// a posted message.
    pub fn peers(&self) -> impl Iterator<Item = usize> {
        let id = self.id;
        (0..self.workers).filter(move |&dest| dest != id)
    }

    /// Whether the next [`Worker::produce`] is followed by an exchange
    /// ([`Worker::post`] returns a message). A lone worker never posts.
    pub fn next_update_posts(&self) -> bool {
        self.exchange_due(self.counters.updates + 1)
    }

    fn exchange_due(&self, updates: u64) -> bool {
        self.workers > 1 && updates.is_multiple_of(self.exchange_every)
    }

    /// Folds one received message into the view and label book: every
    /// `(component, value, producing step)` entry under `AsReceived`,
    /// only entries at least as fresh as current knowledge under
    /// `KeepFreshest`.
    ///
    /// # Panics
    /// Panics when a component index is out of range.
    pub fn receive(&mut self, msg: &BlockMessage) {
        self.counters.delivered += 1;
        for &(c, v, l) in &msg.comps {
            let c = c as usize;
            if self.policy == ApplyPolicy::KeepFreshest {
                self.counters.constraint_checked += 1;
                if l < self.labels[c] {
                    self.counters.constraint_violations += 1;
                    continue;
                }
            }
            self.view[c] = v;
            self.labels[c] = l;
            self.counters.partial_reads += u64::from(msg.partial);
        }
    }

    /// One block update at global step `j`: Jacobi within the block on
    /// the current view, the produced components stamped with label `j`.
    ///
    /// # Errors
    /// [`RuntimeError::NonFiniteIterate`] when the operator diverges.
    pub fn produce(&mut self, op: &dyn Operator, j: u64) -> Result<(), RuntimeError> {
        op.update_active_with(&self.view, &self.block, &mut self.upd, &mut self.scratch);
        for &i in &self.block {
            let v = self.upd[i];
            if !v.is_finite() {
                return Err(RuntimeError::NonFiniteIterate {
                    at_step: j,
                    component: i,
                });
            }
            self.view[i] = v;
            self.labels[i] = j;
        }
        self.counters.updates += 1;
        Ok(())
    }

    /// The exchange after an update: the owned block with its labels —
    /// or, with probability `partial_prob`, a random nonempty subset of
    /// it (Definition-3 flexible communication) — to be sent to every
    /// [peer](Worker::peers). `None` when no exchange is due. `rng` is
    /// drawn from only when `partial_prob > 0`.
    pub fn post(&mut self, rng: &mut StdRng) -> Option<BlockMessage> {
        if !self.exchange_due(self.counters.updates) {
            return None;
        }
        let partial = self.partial_prob > 0.0 && rng.random_range(0.0..1.0) < self.partial_prob;
        let entry = |i: usize| (i as u32, self.view[i], self.labels[i]);
        let mut comps: Vec<(u32, f64, u64)> = self.block.iter().map(|&i| entry(i)).collect();
        if partial {
            self.counters.partial_publishes += 1;
            comps.retain(|_| rng.random_range(0..2u32) == 1);
            if comps.is_empty() {
                // A partial exchange carries at least one entry.
                comps.push(entry(self.block[rng.random_range(0..self.block.len())]));
            }
        }
        Some(BlockMessage {
            from: self.id,
            comps,
            partial,
        })
    }

    /// Fixed-point residual of the local view.
    pub fn residual(&mut self, op: &dyn Operator) -> f64 {
        op.residual_inf_with(&self.view, &mut self.scratch)
    }
}

/// Rejects any named count that is zero.
pub(crate) fn check_positive(counts: &[(&'static str, u64)]) -> Result<(), RuntimeError> {
    match counts.iter().find(|(_, count)| *count == 0) {
        None => Ok(()),
        Some(&(name, _)) => Err(RuntimeError::InvalidParameter {
            name,
            message: "must be positive".into(),
        }),
    }
}

/// Rejects any named probability outside `[0, 1]`.
pub(crate) fn check_probabilities(probs: &[(&'static str, f64)]) -> Result<(), RuntimeError> {
    match probs.iter().find(|(_, p)| !(0.0..=1.0).contains(p)) {
        None => Ok(()),
        Some(&(name, p)) => Err(RuntimeError::InvalidParameter {
            name,
            message: format!("{name} = {p} outside [0,1]"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_opt::linear::JacobiOperator;

    #[test]
    fn receive_keep_freshest_discards_and_counts_stale_entries() {
        let op = JacobiOperator::new(tridiagonal(2, 4.0, -1.0), vec![1.0; 2]).unwrap();
        let partition = Partition::blocks(2, 2).unwrap();
        let msg = |comps, partial| BlockMessage {
            from: 1,
            comps,
            partial,
        };
        for (policy, view, labels, checked, stale) in [
            (ApplyPolicy::KeepFreshest, [1.0, 7.0], [5, 4], 4, 1),
            (ApplyPolicy::AsReceived, [9.0, 7.0], [3, 4], 0, 0),
        ] {
            let mut mesh = Worker::mesh(&op, &[0.0; 2], &partition, policy, 1, 0.0).unwrap();
            let w = &mut mesh[0];
            w.receive(&msg(vec![(0, 1.0, 5), (1, 1.0, 1)], false));
            w.receive(&msg(vec![(0, 9.0, 3), (1, 7.0, 4)], true));
            assert_eq!((w.view(), w.labels()), (&view[..], &labels[..]));
            let c = w.counters();
            assert_eq!(
                (c.constraint_checked, c.constraint_violations),
                (checked, stale)
            );
            assert_eq!(
                c.partial_reads,
                2 - stale,
                "entries applied out of the partial"
            );
            assert_eq!(c.delivered, 2);
        }
    }
}
