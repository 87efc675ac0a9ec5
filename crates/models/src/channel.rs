//! The channel model both discrete-event loops share.
//!
//! `Sim` (in ticks) and `Cluster` (in global steps) deliver block messages
//! the same way: each message draws a [`LinkModel`] latency and waits in
//! an [`EventQueue`] — earliest first, equal times in scheduling order, as
//! in a DSLab-style discrete-event core — until its time comes. A draw
//! that saturates at [`NEVER`] is a message that never arrives.

use asynciter_numerics::rng::pareto;
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::BTreeMap;

/// The time that never comes: an event due then is never scheduled.
pub const NEVER: u64 = u64::MAX;

/// Per-link latency distribution, mirroring the delay zoo. Latencies are
/// in the loop's time unit: ticks in `Sim`, global steps in `Cluster`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkModel {
    /// Constant latency: in-order, bounded staleness (condition (d)).
    Fixed {
        /// Latency.
        ticks: u64,
    },
    /// Uniform latency in `[lo, hi]`: bounded, reordering once the jitter
    /// is wider than the send period.
    Jitter {
        /// Minimum latency.
        lo: u64,
        /// Maximum latency.
        hi: u64,
    },
    /// Pareto-tailed latency `round(pareto(max(scale, 1), alpha))`:
    /// unbounded delays, occasionally enormous.
    HeavyTail {
        /// Scale (minimum latency).
        scale: u64,
        /// Pareto shape (smaller = heavier tail); must be positive.
        alpha: f64,
    },
}

impl LinkModel {
    /// Draws one latency; a draw past `u64::MAX` saturates there.
    ///
    /// # Panics
    /// Panics when the model does not [`validate`](Self::validate).
    pub fn sample(&self, r: &mut StdRng) -> u64 {
        match *self {
            LinkModel::Fixed { ticks } => ticks,
            LinkModel::Jitter { lo, hi } => r.random_range(lo..=hi),
            LinkModel::HeavyTail { scale, alpha } => {
                pareto(r, scale.max(1) as f64, alpha).round() as u64
            }
        }
    }

    /// Checks the distribution's parameters.
    ///
    /// # Errors
    /// What is wrong, as a message: `Jitter` with `hi < lo`, or
    /// `HeavyTail` with a shape that is not positive.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            LinkModel::Jitter { lo, hi } if hi < lo => Err(format!(
                "jitter delay needs lo <= hi (got lo {lo}, hi {hi})"
            )),
            // A NaN shape fails the guard and is rejected too.
            LinkModel::HeavyTail { alpha, .. } if alpha > 0.0 => Ok(()),
            LinkModel::HeavyTail { alpha, .. } => {
                Err(format!("heavy-tail alpha must be positive (got {alpha})"))
            }
            _ => Ok(()),
        }
    }
}

/// Pending events of type `T`, each due at a time: earliest first, equal
/// times in push order. A push due at [`NEVER`] is never scheduled.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Keyed by `(due time, push count)`.
    events: BTreeMap<(u64, u64), T>,
    pushed: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self {
            events: BTreeMap::new(),
            pushed: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Schedules `event` at time `at`; an event due at [`NEVER`] is
    /// dropped.
    pub fn push(&mut self, at: u64, event: T) {
        if at != NEVER {
            self.pushed += 1;
            self.events.insert((at, self.pushed), event);
        }
    }

    /// Removes and returns the earliest event with its time.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.events.pop_first().map(|((at, _), event)| (at, event))
    }

    /// Removes and returns the earliest event if it is due by `now`;
    /// later events stay queued.
    pub fn pop_due(&mut self, now: u64) -> Option<(u64, T)> {
        let (&(at, _), _) = self.events.first_key_value()?;
        if at > now {
            return None;
        }
        self.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_numerics::rng::rng;

    fn drain<T>(q: &mut EventQueue<T>) -> Vec<(u64, T)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn earliest_time_pops_first() {
        let mut q = EventQueue::default();
        for (at, e) in [(7, 'c'), (2, 'a'), (5, 'b'), (9, 'd')] {
            q.push(at, e);
        }
        assert_eq!(drain(&mut q), [(2, 'a'), (5, 'b'), (7, 'c'), (9, 'd')]);
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut q = EventQueue::default();
        for e in 0..50 {
            q.push(3, e);
            q.push(1, 100 + e);
        }
        let order: Vec<i32> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        let want: Vec<i32> = (100..150).chain(0..50).collect();
        assert_eq!(order, want);
    }

    #[test]
    fn pop_due_leaves_later_events_queued() {
        let mut q = EventQueue::default();
        q.push(4, "late");
        q.push(2, "early");
        q.push(2, "early too");
        assert_eq!(q.pop_due(1), None);
        assert_eq!(q.pop_due(3), Some((2, "early")));
        assert_eq!(q.pop_due(3), Some((2, "early too")));
        assert_eq!(q.pop_due(3), None);
        assert_eq!(q.pop_due(4), Some((4, "late")));
        assert_eq!(q.pop_due(u64::MAX), None);
    }

    #[test]
    fn a_push_at_u64_max_is_never_scheduled() {
        let mut q = EventQueue::default();
        q.push(NEVER, "never");
        q.push(NEVER - 1, "last");
        assert_eq!(q.pop_due(NEVER), Some((NEVER - 1, "last")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fixed_latency_is_constant_and_jitter_stays_in_range() {
        let mut r = rng(1);
        assert_eq!(LinkModel::Fixed { ticks: 2 }.sample(&mut r), 2);
        let jitter = LinkModel::Jitter { lo: 3, hi: 9 };
        assert!((0..200).all(|_| (3..=9).contains(&jitter.sample(&mut r))));
    }

    #[test]
    fn heavy_tail_is_at_least_its_scale_and_occasionally_huge() {
        let mut r = rng(4);
        let m = LinkModel::HeavyTail {
            scale: 3,
            alpha: 1.1,
        };
        let draws: Vec<u64> = (0..5000).map(|_| m.sample(&mut r)).collect();
        assert!(draws.iter().all(|&d| d >= 3));
        assert!(draws.iter().any(|&d| d > 150), "no draw past 50x the scale");
        // A zero scale draws as scale 1.
        let zero = LinkModel::HeavyTail {
            scale: 0,
            alpha: 1.1,
        };
        assert!((0..100).all(|_| zero.sample(&mut r) >= 1));
    }

    #[test]
    fn validation_names_what_is_wrong() {
        let err = |m: LinkModel| m.validate().unwrap_err();
        assert_eq!(
            err(LinkModel::Jitter { lo: 5, hi: 2 }),
            "jitter delay needs lo <= hi (got lo 5, hi 2)"
        );
        for alpha in [0.0, -1.0, f64::NAN] {
            let msg = err(LinkModel::HeavyTail { scale: 1, alpha });
            assert!(
                msg.starts_with("heavy-tail alpha must be positive"),
                "{msg}"
            );
        }
        for ok in [
            LinkModel::Fixed { ticks: 0 },
            LinkModel::Jitter { lo: 2, hi: 2 },
            LinkModel::HeavyTail {
                scale: 0,
                alpha: 0.1,
            },
        ] {
            assert_eq!(ok.validate(), Ok(()), "{ok:?}");
        }
    }
}
