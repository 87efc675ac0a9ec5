//! The transport seam of the concurrent cluster: labelled block
//! messages over swappable, socket-ready channels.
//!
//! The threaded cluster's free-running workers ([`crate::threaded`])
//! never share memory; they exchange [`BlockMessage`]s through
//! per-worker [`Endpoint`]s handed out by a [`Transport`]. The trait
//! boundary is deliberately narrow — fire-and-forget `send`,
//! non-blocking `try_recv`, loss allowed — exactly the contract a
//! datagram socket or a framed TCP stream can satisfy, so promoting the
//! in-process cluster to a real distributed deployment means
//! implementing `Transport` over sockets, not touching the engine.
//!
//! Two implementations ship today:
//!
//! - [`MpscTransport`] — `std::sync::mpsc` channels, one receiver per
//!   worker, any-to-any senders: the in-process concurrent transport;
//! - [`FaultEndpoint`] — a decorator injecting seeded hold / drop /
//!   duplicate faults *at the seam*, so the channel chaos the paper
//!   tolerates is exercised on real threads without the engine knowing.
//!
//! The fault plane itself is [`FaultRouter`]: what a [`SendFate`] does
//! to one send, which messages are parked and when they are released.
//! `FaultEndpoint` draws its fates from a seeded stream; the model
//! checker's seam scopes enumerate every fate over the same router; the
//! sequential cluster engine uses it for its drop/duplicate decisions.
//!
//! ## Why labels travel with the payload
//!
//! Every component value in a message carries the global producing step
//! of that value. The receiver folds them into its local label book
//! ([`crate::worker::Worker::receive`]), and each block update logs the
//! labels it read — which is what makes a *racy, nondeterministic*
//! threaded run replayable: the recorded trace pins down exactly which
//! producing step each read observed, and the Definition-1 replay
//! engine re-executes that schedule bit for bit.

use asynciter_numerics::rng::rng;
use rand::rngs::StdRng;
use rand::RngExt;
use std::sync::mpsc::{channel, Receiver, Sender};

/// One labelled block exchange: a sender's freshest values for (a
/// subset of) its own block, each entry carrying the global producing
/// step of the value.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMessage {
    /// Sending worker.
    pub from: usize,
    /// `(component, value, producing step)` triples.
    pub comps: Vec<(u32, f64, u64)>,
    /// True when the message carries a partial (subset) exchange —
    /// Definition-3 flexible communication at the message level.
    pub partial: bool,
}

/// A worker's handle on the transport mesh.
///
/// `send` is fire-and-forget (a message may be lost; asynchronous
/// iterations absorb transient losses because newer messages supersede
/// older ones) and `try_recv` never blocks — workers drain their
/// mailbox opportunistically between block updates and keep computing
/// when it is empty.
pub trait Endpoint: Send {
    /// Posts `msg` towards worker `dest`. Delivery is asynchronous and
    /// may silently fail (peer gone, message dropped in flight).
    fn send(&mut self, dest: usize, msg: BlockMessage);

    /// Takes the next pending message, if any. Never blocks.
    fn try_recv(&mut self) -> Option<BlockMessage>;
}

/// A factory wiring `workers` [`Endpoint`]s into a connected
/// any-to-any mesh (endpoint `w` belongs to worker `w`).
///
/// ```
/// use asynciter_runtime::transport::{BlockMessage, MpscTransport, Transport};
///
/// let mut ends = MpscTransport.connect(2);
/// let mut w1 = ends.pop().unwrap();
/// let mut w0 = ends.pop().unwrap();
/// w0.send(
///     1,
///     BlockMessage { from: 0, comps: vec![(0, 1.5, 7)], partial: false },
/// );
/// let got = w1.try_recv().expect("message delivered");
/// assert_eq!(got.comps, vec![(0, 1.5, 7)]);
/// assert!(w1.try_recv().is_none(), "try_recv never blocks");
/// ```
pub trait Transport {
    /// Builds one connected endpoint per worker.
    fn connect(&mut self, workers: usize) -> Vec<Box<dyn Endpoint>>;
}

/// The in-process transport: one `std::sync::mpsc` channel per worker,
/// every peer holding a cloned sender — any-to-any, FIFO per
/// sender/receiver pair, lossless (faults are layered on top by
/// [`FaultEndpoint`]).
#[derive(Debug, Default)]
pub struct MpscTransport;

struct ChannelEndpoint {
    peers: Vec<Sender<BlockMessage>>,
    rx: Receiver<BlockMessage>,
}

impl Endpoint for ChannelEndpoint {
    fn send(&mut self, dest: usize, msg: BlockMessage) {
        // A peer that already finished dropped its receiver; a send to
        // it is indistinguishable from a message lost in flight.
        let _ = self.peers[dest].send(msg);
    }

    fn try_recv(&mut self) -> Option<BlockMessage> {
        self.rx.try_recv().ok()
    }
}

impl Transport for MpscTransport {
    fn connect(&mut self, workers: usize) -> Vec<Box<dyn Endpoint>> {
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..workers).map(|_| channel()).unzip();
        receivers
            .into_iter()
            .map(|rx| {
                Box::new(ChannelEndpoint {
                    peers: senders.clone(),
                    rx,
                }) as Box<dyn Endpoint>
            })
            .collect()
    }
}

/// Seeded fault model applied by [`FaultEndpoint`] at send time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a send is parked behind later traffic — genuine
    /// out-of-order delivery once released.
    pub hold_prob: f64,
    /// Maximum number of subsequent sends a held message waits behind
    /// (uniform in `1..=hold_extra`).
    pub hold_extra: u64,
    /// Probability a send is dropped.
    pub drop_prob: f64,
    /// Probability a send is duplicated (the copy delivered promptly,
    /// independent of whether the original is held).
    pub dup_prob: f64,
}

impl FaultPlan {
    /// A faultless plan (every send delivered exactly once, in order).
    pub fn none() -> Self {
        Self {
            hold_prob: 0.0,
            hold_extra: 8,
            drop_prob: 0.0,
            dup_prob: 0.0,
        }
    }
}

/// What the fault layer does with one send — the decision the seeded
/// RNG draws in production ([`Endpoint::send`] on [`FaultEndpoint`]),
/// the branch point the model checker enumerates exhaustively
/// (`asynciter-mc`'s transport-seam scopes walk every fate the plan
/// could draw), and the input of [`FaultRouter::route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFate {
    /// The send is lost.
    Drop,
    /// The send is delivered: a prompt duplicate first when `dup`, and
    /// the original parked behind `hold` subsequent sends (`0` = posted
    /// promptly, in order).
    Deliver {
        /// Post an extra prompt copy before deciding the original.
        dup: bool,
        /// Number of later sends the original waits behind.
        hold: u64,
    },
}

/// Sender-side channel statistics of one [`FaultEndpoint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendStats {
    /// Sends attempted (one per message per destination).
    pub sent: u64,
    /// Sends dropped.
    pub dropped: u64,
    /// Sends duplicated.
    pub duplicated: u64,
    /// Sends held back behind later traffic (out-of-order delivery).
    pub held: u64,
}

/// Why a message leaves a [`FaultRouter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// The original, posted promptly and in order.
    Prompt,
    /// The extra prompt copy of a duplicated send.
    Duplicate,
    /// The original, re-posted after waiting behind newer sends — where
    /// out-of-order arrival happens.
    Released,
    /// Lost: the caller must not deliver it.
    Dropped,
}

/// The fault plane's bookkeeping for one sender: given the [`SendFate`]
/// of each send it decides which messages go on the wire now, which are
/// parked and when parked ones are released, and counts all of it.
///
/// It is generic over the message so that [`FaultEndpoint`] (seeded
/// fates, [`BlockMessage`]s onto a real [`Endpoint`]) and the model
/// checker's seam scopes (enumerated fates, messages carrying a spec
/// book alongside) run the same code. Every message handed to
/// [`FaultRouter::route`] leaves through its `out` callback exactly
/// once — plus once more per duplicate — tagged with the [`Exit`] that
/// says why.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRouter<M> {
    /// Parked messages: `(release once this many sends were routed,
    /// dest, message)`.
    held: Vec<(u64, usize, M)>,
    stats: SendStats,
}

impl<M> Default for FaultRouter<M> {
    fn default() -> Self {
        Self {
            held: Vec::new(),
            stats: SendStats::default(),
        }
    }
}

impl<M: Clone> FaultRouter<M> {
    /// Sender-side statistics so far; `sent` is the send counter parked
    /// messages are released against.
    pub fn stats(&self) -> SendStats {
        self.stats
    }

    /// The parked messages, as `(release mark, dest, message)`.
    pub fn parked(&self) -> &[(u64, usize, M)] {
        &self.held
    }

    /// Routes one send of `msg` to `dest` under `fate`, then releases
    /// every parked message that has now waited behind enough newer
    /// sends.
    pub fn route(
        &mut self,
        dest: usize,
        msg: M,
        fate: SendFate,
        mut out: impl FnMut(Exit, usize, M),
    ) {
        self.stats.sent += 1;
        match fate {
            SendFate::Drop => {
                self.stats.dropped += 1;
                out(Exit::Dropped, dest, msg);
            }
            SendFate::Deliver { dup, hold } => {
                if dup {
                    self.stats.duplicated += 1;
                    out(Exit::Duplicate, dest, msg.clone());
                }
                if hold > 0 {
                    self.stats.held += 1;
                    self.held.push((self.stats.sent + hold, dest, msg));
                } else {
                    out(Exit::Prompt, dest, msg);
                }
            }
        }
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].0 <= self.stats.sent {
                let (_, dest, msg) = self.held.swap_remove(i);
                out(Exit::Released, dest, msg);
            } else {
                i += 1;
            }
        }
    }
}

/// A fault-injecting decorator around any [`Endpoint`]: drops,
/// duplicates and holds messages at the transport seam — a
/// [`FaultRouter`] whose fates come from a seeded per-worker RNG and
/// whose exits go onto the wrapped endpoint.
pub struct FaultEndpoint {
    inner: Box<dyn Endpoint>,
    plan: FaultPlan,
    rng: StdRng,
    router: FaultRouter<BlockMessage>,
}

impl std::fmt::Debug for FaultEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultEndpoint")
            .field("plan", &self.plan)
            .field("held", &self.router.parked().len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl FaultEndpoint {
    /// Wraps `inner` with the fault `plan`, drawing every fault decision
    /// from a fresh RNG stream seeded by `seed`.
    pub fn new(inner: Box<dyn Endpoint>, plan: FaultPlan, seed: u64) -> Self {
        Self {
            inner,
            plan,
            rng: rng(seed),
            router: FaultRouter::default(),
        }
    }

    /// Sender-side statistics accumulated so far.
    pub fn stats(&self) -> SendStats {
        self.router.stats()
    }

    /// Draws one [`SendFate`] from the seeded stream: drop, then dup,
    /// then hold, then the hold distance — the draw order seeded runs
    /// are pinned to.
    fn draw_fate(&mut self) -> SendFate {
        if self.plan.drop_prob > 0.0 && self.rng.random_range(0.0..1.0) < self.plan.drop_prob {
            return SendFate::Drop;
        }
        let dup = self.plan.dup_prob > 0.0 && self.rng.random_range(0.0..1.0) < self.plan.dup_prob;
        let hold =
            if self.plan.hold_prob > 0.0 && self.rng.random_range(0.0..1.0) < self.plan.hold_prob {
                self.rng.random_range(1..=self.plan.hold_extra.max(1))
            } else {
                0
            };
        SendFate::Deliver { dup, hold }
    }

    /// Applies one send under an explicit `fate` — the deterministic
    /// core of [`Endpoint::send`], public so a test can step a real
    /// `FaultEndpoint` and the model checker's seam model through the
    /// same fate script and compare them.
    pub fn send_with_fate(&mut self, dest: usize, msg: BlockMessage, fate: SendFate) {
        let inner = &mut self.inner;
        self.router.route(dest, msg, fate, |exit, dest, msg| {
            if exit != Exit::Dropped {
                inner.send(dest, msg);
            }
        });
    }
}

impl Endpoint for FaultEndpoint {
    fn send(&mut self, dest: usize, msg: BlockMessage) {
        let fate = self.draw_fate();
        self.send_with_fate(dest, msg, fate);
    }

    fn try_recv(&mut self) -> Option<BlockMessage> {
        self.inner.try_recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(from: usize, c: u32, v: f64, l: u64) -> BlockMessage {
        BlockMessage {
            from,
            comps: vec![(c, v, l)],
            partial: false,
        }
    }

    #[test]
    fn mpsc_mesh_delivers_any_to_any_in_fifo_order() {
        let mut ends = MpscTransport.connect(3);
        let mut e2 = ends.pop().unwrap();
        let mut e1 = ends.pop().unwrap();
        let mut e0 = ends.pop().unwrap();
        e0.send(2, msg(0, 1, 1.0, 1));
        e1.send(2, msg(1, 2, 2.0, 2));
        e0.send(2, msg(0, 3, 3.0, 3));
        // FIFO per sender pair; e0's two messages keep their order.
        let got: Vec<BlockMessage> = std::iter::from_fn(|| e2.try_recv()).collect();
        assert_eq!(got.len(), 3);
        let from0: Vec<u64> = got
            .iter()
            .filter(|m| m.from == 0)
            .map(|m| m.comps[0].2)
            .collect();
        assert_eq!(from0, vec![1, 3]);
        assert!(e0.try_recv().is_none());
        assert!(e1.try_recv().is_none());
    }

    #[test]
    fn send_to_finished_peer_is_a_silent_loss() {
        let mut ends = MpscTransport.connect(2);
        drop(ends.pop().unwrap()); // worker 1 is gone
        ends[0].send(1, msg(0, 0, 1.0, 1));
    }

    #[test]
    fn drop_all_plan_loses_everything() {
        let mut ends = MpscTransport.connect(2);
        let e1 = ends.pop().unwrap();
        let mut f0 = FaultEndpoint::new(
            ends.pop().unwrap(),
            FaultPlan {
                drop_prob: 1.0,
                ..FaultPlan::none()
            },
            7,
        );
        let mut e1 = e1;
        for k in 0..10 {
            f0.send(1, msg(0, 0, k as f64, k));
        }
        assert!(e1.try_recv().is_none());
        assert_eq!(f0.stats().dropped, 10);
        assert_eq!(f0.stats().sent, 10);
    }

    #[test]
    fn held_messages_arrive_out_of_order() {
        let mut ends = MpscTransport.connect(2);
        let mut e1 = ends.pop().unwrap();
        let mut f0 = FaultEndpoint::new(
            ends.pop().unwrap(),
            FaultPlan {
                hold_prob: 0.5,
                hold_extra: 4,
                ..FaultPlan::none()
            },
            11,
        );
        for k in 0..200u64 {
            f0.send(1, msg(0, 0, k as f64, k + 1));
        }
        assert!(f0.stats().held > 0, "holds not exercised");
        let labels: Vec<u64> = std::iter::from_fn(|| e1.try_recv())
            .map(|m| m.comps[0].2)
            .collect();
        assert!(
            labels.windows(2).any(|w| w[0] > w[1]),
            "expected at least one out-of-order arrival"
        );
    }

    #[test]
    fn explicit_fates_reproduce_hold_release_and_dup_semantics() {
        let mut ends = MpscTransport.connect(2);
        let mut e1 = ends.pop().unwrap();
        let mut f0 = FaultEndpoint::new(ends.pop().unwrap(), FaultPlan::none(), 0);
        // Hold message 1 behind one later send; send message 2 promptly;
        // the hold releases as part of send 2's bookkeeping.
        f0.send_with_fate(
            1,
            msg(0, 0, 1.0, 1),
            SendFate::Deliver {
                dup: false,
                hold: 1,
            },
        );
        assert!(e1.try_recv().is_none(), "held message must not arrive yet");
        f0.send_with_fate(
            1,
            msg(0, 0, 2.0, 2),
            SendFate::Deliver { dup: true, hold: 0 },
        );
        let labels: Vec<u64> = std::iter::from_fn(|| e1.try_recv())
            .map(|m| m.comps[0].2)
            .collect();
        // Prompt dup copy + prompt original of message 2, then the
        // released message 1: genuine out-of-order arrival.
        assert_eq!(labels, vec![2, 2, 1]);
        assert_eq!(f0.stats().held, 1);
        assert_eq!(f0.stats().duplicated, 1);
        f0.send_with_fate(1, msg(0, 0, 3.0, 3), SendFate::Drop);
        assert!(e1.try_recv().is_none());
        assert_eq!(f0.stats().dropped, 1);
    }

    #[test]
    fn duplicates_are_counted_and_delivered_twice() {
        let mut ends = MpscTransport.connect(2);
        let mut e1 = ends.pop().unwrap();
        let mut f0 = FaultEndpoint::new(
            ends.pop().unwrap(),
            FaultPlan {
                dup_prob: 1.0,
                ..FaultPlan::none()
            },
            3,
        );
        f0.send(1, msg(0, 0, 1.0, 1));
        assert_eq!(f0.stats().duplicated, 1);
        assert!(e1.try_recv().is_some());
        assert!(e1.try_recv().is_some());
        assert!(e1.try_recv().is_none());
    }
}
