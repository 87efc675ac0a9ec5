//! Per-processor compute-time models.
//!
//! Simulated time is `u64` ticks. Compute models determine how long each
//! updating phase takes; when a sent value arrives is the link model
//! `Cluster` shares, `asynciter_models::channel::LinkModel`. Baudet's
//! model (`k`-th update takes `k` ticks) reproduces the `√j` delay
//! growth of the paper's §II example. Every draw saturates at `u64::MAX`
//! ticks, which the simulator treats as never.

use rand::rngs::StdRng;
use rand::RngExt;

/// How long a processor's `k`-th updating phase takes (k counts from 1).
#[derive(Debug, Clone)]
pub enum ComputeModel {
    /// Every phase takes `ticks`.
    Fixed {
        /// Phase duration.
        ticks: u64,
    },
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Minimum duration.
        lo: u64,
        /// Maximum duration.
        hi: u64,
    },
    /// Baudet's slowing processor: the `k`-th phase takes `k · scale`.
    Baudet {
        /// Per-phase scale.
        scale: u64,
    },
    /// Pareto-tailed durations: `ceil(scale · pareto(alpha))`.
    HeavyTail {
        /// Scale (minimum duration).
        scale: u64,
        /// Tail index.
        alpha: f64,
    },
}

impl ComputeModel {
    /// Checks the model's parameters.
    ///
    /// # Errors
    /// What is wrong, as a message: `Uniform` with `hi < lo`, or
    /// `HeavyTail` with a tail index that is not positive.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ComputeModel::Uniform { lo, hi } if hi < lo => Err(format!(
                "uniform duration needs lo <= hi (got lo {lo}, hi {hi})"
            )),
            // A NaN tail index fails the guard and is rejected too.
            ComputeModel::HeavyTail { alpha, .. } if alpha > 0.0 => Ok(()),
            ComputeModel::HeavyTail { alpha, .. } => {
                Err(format!("heavy-tail alpha must be positive (got {alpha})"))
            }
            _ => Ok(()),
        }
    }

    /// Duration of phase `k ≥ 1`.
    ///
    /// # Panics
    /// Panics when `k == 0` or the model does not [`validate`](Self::validate).
    pub fn duration(&self, k: u64, rng: &mut StdRng) -> u64 {
        assert!(k >= 1, "ComputeModel::duration: k counts from 1");
        match self {
            ComputeModel::Fixed { ticks } => (*ticks).max(1),
            ComputeModel::Uniform { lo, hi } => {
                assert!(lo <= hi, "ComputeModel::Uniform: lo > hi");
                rng.random_range(*lo..=*hi).max(1)
            }
            ComputeModel::Baudet { scale } => k.saturating_mul(*scale.max(&1)),
            ComputeModel::HeavyTail { scale, alpha } => {
                let d = asynciter_numerics::rng::pareto(rng, 1.0, *alpha);
                ((*scale as f64 * d).ceil() as u64).max(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_numerics::rng::rng;

    #[test]
    fn fixed_models_are_constant() {
        let mut r = rng(1);
        assert_eq!(ComputeModel::Fixed { ticks: 5 }.duration(1, &mut r), 5);
        assert_eq!(ComputeModel::Fixed { ticks: 5 }.duration(9, &mut r), 5);
        // Zero tick durations are clamped to 1 (time must advance).
        assert_eq!(ComputeModel::Fixed { ticks: 0 }.duration(1, &mut r), 1);
    }

    #[test]
    fn baudet_model_grows_linearly() {
        let mut r = rng(2);
        let m = ComputeModel::Baudet { scale: 1 };
        assert_eq!(m.duration(1, &mut r), 1);
        assert_eq!(m.duration(7, &mut r), 7);
        let m2 = ComputeModel::Baudet { scale: 3 };
        assert_eq!(m2.duration(4, &mut r), 12);
        assert_eq!(m2.duration(u64::MAX / 2, &mut r), u64::MAX);
    }

    #[test]
    fn uniform_within_range() {
        let mut r = rng(3);
        let m = ComputeModel::Uniform { lo: 2, hi: 6 };
        for _ in 0..100 {
            let d = m.duration(1, &mut r);
            assert!((2..=6).contains(&d));
        }
    }
}
