//! Weighted maximum norms.
//!
//! The convergence theory of totally asynchronous iterations is phrased in
//! the weighted maximum norm
//!
//! ```text
//! ‖x‖_u = max_{1≤i≤n} |x_i| / u_i ,     u_i > 0,
//! ```
//!
//! (El-Baz IPPS 2022, Eq. (3); Bertsekas–Tsitsiklis Ch. 6). Contraction with
//! respect to some `‖·‖_u` is exactly the property that survives unbounded
//! delays and out-of-order messages, which is why this crate treats the
//! weighted max norm as a first-class object rather than hard-coding the
//! unweighted `‖·‖_∞`.
//!
//! [`BlockWeightedMaxNorm`] generalises to block components: the paper's
//! `‖x̃_i(j) − x_i*‖_i / u_i` uses a per-block inner norm `‖·‖_i` (here the
//! Euclidean norm on the block) scaled by a positive weight.

use crate::error::NumericsError;

/// Weighted maximum norm `‖x‖_u = max_i |x_i|/u_i` with positive weights.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedMaxNorm {
    u: Vec<f64>,
}

impl WeightedMaxNorm {
    /// Builds a weighted max norm from positive weights `u`.
    ///
    /// # Errors
    /// Returns [`NumericsError::InvalidParameter`] if any weight is not
    /// strictly positive and finite, or [`NumericsError::Empty`] when `u`
    /// is empty.
    pub fn new(u: Vec<f64>) -> crate::Result<Self> {
        if u.is_empty() {
            return Err(NumericsError::Empty {
                context: "WeightedMaxNorm::new",
            });
        }
        if let Some((i, &w)) = u
            .iter()
            .enumerate()
            .find(|(_, &w)| !(w.is_finite() && w > 0.0))
        {
            return Err(NumericsError::InvalidParameter {
                name: "u",
                message: format!("weight u[{i}] = {w} must be finite and > 0"),
            });
        }
        Ok(Self { u })
    }

    /// The unweighted `‖·‖_∞` on `ℝⁿ` (all weights 1).
    pub fn uniform(n: usize) -> Self {
        Self { u: vec![1.0; n] }
    }

    /// Dimension `n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.u.len()
    }

    /// The weight vector.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.u
    }

    /// Evaluates `‖x‖_u`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.dim()`.
    #[inline]
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.u.len(), "WeightedMaxNorm::eval: dim mismatch");
        x.iter()
            .zip(&self.u)
            .fold(0.0_f64, |m, (&v, &w)| m.max(v.abs() / w))
    }

    /// Evaluates `‖x − y‖_u`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    #[inline]
    pub fn dist(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), self.u.len(), "WeightedMaxNorm::dist: dim mismatch");
        assert_eq!(y.len(), self.u.len(), "WeightedMaxNorm::dist: dim mismatch");
        x.iter()
            .zip(y)
            .zip(&self.u)
            .fold(0.0_f64, |m, ((&a, &b), &w)| m.max((a - b).abs() / w))
    }

    /// Weighted magnitude of a single component: `|x_i|/u_i`.
    ///
    /// # Panics
    /// Panics if `i >= self.dim()`.
    #[inline]
    pub fn component(&self, i: usize, xi: f64) -> f64 {
        xi.abs() / self.u[i]
    }

    /// Index attaining the max along with the attained value, or `None`
    /// for zero-dimensional input.
    pub fn argmax(&self, x: &[f64]) -> Option<(usize, f64)> {
        assert_eq!(
            x.len(),
            self.u.len(),
            "WeightedMaxNorm::argmax: dim mismatch"
        );
        let mut best: Option<(usize, f64)> = None;
        for (i, (&v, &w)) in x.iter().zip(&self.u).enumerate() {
            let m = v.abs() / w;
            if best.map(|(_, b)| m > b).unwrap_or(true) {
                best = Some((i, m));
            }
        }
        best
    }
}

/// Block-weighted maximum norm: components are contiguous blocks, each
/// measured in the Euclidean norm and scaled by a positive weight:
///
/// ```text
/// ‖x‖ = max_b ‖x_{block b}‖₂ / u_b .
/// ```
///
/// This is the norm used in the flexible-communication constraint (3) when
/// iterate components are vector blocks owned by different processors.
/// No engine calls it yet; the Theorem 1 certificate of ROADMAP item 4(a)
/// is its likely first caller, so it stays.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockWeightedMaxNorm {
    /// Block boundaries: block `b` covers `offsets[b]..offsets[b+1]`.
    offsets: Vec<usize>,
    u: Vec<f64>,
}

impl BlockWeightedMaxNorm {
    /// Builds a block norm from block sizes and per-block weights.
    ///
    /// # Errors
    /// Returns an error when the numbers of sizes and weights differ, a
    /// block is empty, or a weight is not positive.
    pub fn new(block_sizes: &[usize], u: Vec<f64>) -> crate::Result<Self> {
        if block_sizes.is_empty() {
            return Err(NumericsError::Empty {
                context: "BlockWeightedMaxNorm::new",
            });
        }
        if block_sizes.len() != u.len() {
            return Err(NumericsError::DimensionMismatch {
                expected: block_sizes.len(),
                actual: u.len(),
                context: "BlockWeightedMaxNorm::new (weights)",
            });
        }
        if let Some((b, _)) = block_sizes.iter().enumerate().find(|(_, &s)| s == 0) {
            return Err(NumericsError::InvalidParameter {
                name: "block_sizes",
                message: format!("block {b} is empty"),
            });
        }
        if let Some((b, &w)) = u
            .iter()
            .enumerate()
            .find(|(_, &w)| !(w.is_finite() && w > 0.0))
        {
            return Err(NumericsError::InvalidParameter {
                name: "u",
                message: format!("weight u[{b}] = {w} must be finite and > 0"),
            });
        }
        let mut offsets = Vec::with_capacity(block_sizes.len() + 1);
        offsets.push(0);
        let mut acc = 0usize;
        for &s in block_sizes {
            acc += s;
            offsets.push(acc);
        }
        Ok(Self { offsets, u })
    }

    /// Uniform partition of `n` components into `nb` blocks (the last block
    /// absorbs the remainder), all weights 1.
    ///
    /// # Errors
    /// Errors when `nb == 0` or `nb > n`.
    pub fn uniform_partition(n: usize, nb: usize) -> crate::Result<Self> {
        if nb == 0 || nb > n {
            return Err(NumericsError::InvalidParameter {
                name: "nb",
                message: format!("need 1 <= nb <= n, got nb={nb}, n={n}"),
            });
        }
        let base = n / nb;
        let rem = n % nb;
        let sizes: Vec<usize> = (0..nb).map(|b| base + usize::from(b < rem)).collect();
        Self::new(&sizes, vec![1.0; nb])
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.u.len()
    }

    /// Total dimension (sum of block sizes).
    #[inline]
    pub fn dim(&self) -> usize {
        *self.offsets.last().expect("offsets nonempty")
    }

    /// Range of component indices covered by block `b`.
    ///
    /// # Panics
    /// Panics if `b >= self.num_blocks()`.
    #[inline]
    pub fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        self.offsets[b]..self.offsets[b + 1]
    }

    /// The block that owns component `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.dim()`.
    pub fn block_of(&self, i: usize) -> usize {
        assert!(i < self.dim(), "BlockWeightedMaxNorm::block_of: index");
        // offsets is sorted; partition_point returns the first offset > i.
        self.offsets.partition_point(|&o| o <= i) - 1
    }

    /// Evaluates the block norm of `x`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "BlockWeightedMaxNorm::eval: dim");
        let mut m = 0.0_f64;
        for b in 0..self.num_blocks() {
            let r = self.block_range(b);
            m = m.max(crate::vecops::norm2(&x[r]) / self.u[b]);
        }
        m
    }

    /// Evaluates the block norm of `x − y`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn dist(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "BlockWeightedMaxNorm::dist: dim");
        assert_eq!(y.len(), self.dim(), "BlockWeightedMaxNorm::dist: dim");
        let mut m = 0.0_f64;
        for b in 0..self.num_blocks() {
            let r = self.block_range(b);
            let d: f64 = x[r.clone()]
                .iter()
                .zip(&y[r])
                .map(|(a, c)| (a - c) * (a - c))
                .sum();
            m = m.max(d.sqrt() / self.u[b]);
        }
        m
    }

    /// Weighted norm of a single block of `x`.
    ///
    /// # Panics
    /// Panics on block index or dimension mismatch.
    pub fn block_norm(&self, b: usize, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "BlockWeightedMaxNorm::block_norm: dim");
        let r = self.block_range(b);
        crate::vecops::norm2(&x[r]) / self.u[b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_matches_norm_inf() {
        let n = WeightedMaxNorm::uniform(3);
        assert_eq!(n.eval(&[1.0, -4.0, 2.0]), 4.0);
    }

    #[test]
    fn weights_rescale_components() {
        let n = WeightedMaxNorm::new(vec![1.0, 10.0]).unwrap();
        // |−4|/10 = 0.4 < |1|/1.
        assert_eq!(n.eval(&[1.0, -4.0]), 1.0);
        assert_eq!(n.argmax(&[1.0, -4.0]), Some((0, 1.0)));
    }

    #[test]
    fn dist_is_norm_of_difference() {
        let n = WeightedMaxNorm::new(vec![2.0, 1.0]).unwrap();
        let x = [4.0, 1.0];
        let y = [0.0, 0.0];
        assert_eq!(n.dist(&x, &y), n.eval(&x));
    }

    #[test]
    fn rejects_nonpositive_weights() {
        assert!(WeightedMaxNorm::new(vec![1.0, 0.0]).is_err());
        assert!(WeightedMaxNorm::new(vec![-1.0]).is_err());
        assert!(WeightedMaxNorm::new(vec![f64::NAN]).is_err());
        assert!(WeightedMaxNorm::new(vec![]).is_err());
    }

    #[test]
    fn triangle_inequality_spot_check() {
        let n = WeightedMaxNorm::new(vec![1.0, 3.0, 0.5]).unwrap();
        let x = [1.0, -2.0, 0.25];
        let y = [0.5, 4.0, -1.0];
        let sum: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        assert!(n.eval(&sum) <= n.eval(&x) + n.eval(&y) + 1e-15);
    }

    #[test]
    fn component_matches_eval_for_basis_vectors() {
        let n = WeightedMaxNorm::new(vec![2.0, 5.0]).unwrap();
        assert_eq!(n.component(1, -10.0), 2.0);
        assert_eq!(n.eval(&[0.0, -10.0]), 2.0);
    }

    #[test]
    fn block_norm_uniform_partition() {
        let b = BlockWeightedMaxNorm::uniform_partition(5, 2).unwrap();
        assert_eq!(b.num_blocks(), 2);
        assert_eq!(b.dim(), 5);
        assert_eq!(b.block_range(0), 0..3);
        assert_eq!(b.block_range(1), 3..5);
    }

    #[test]
    fn block_of_locates_components() {
        let b = BlockWeightedMaxNorm::new(&[2, 3, 1], vec![1.0; 3]).unwrap();
        assert_eq!(b.block_of(0), 0);
        assert_eq!(b.block_of(1), 0);
        assert_eq!(b.block_of(2), 1);
        assert_eq!(b.block_of(4), 1);
        assert_eq!(b.block_of(5), 2);
    }

    #[test]
    fn block_eval_is_max_of_block_euclidean_norms() {
        let b = BlockWeightedMaxNorm::new(&[2, 2], vec![1.0, 2.0]).unwrap();
        // block 0: ‖(3,4)‖₂ = 5; block 1: ‖(0,8)‖₂/2 = 4.
        assert!((b.eval(&[3.0, 4.0, 0.0, 8.0]) - 5.0).abs() < 1e-15);
        assert!((b.block_norm(1, &[3.0, 4.0, 0.0, 8.0]) - 4.0).abs() < 1e-15);
    }

    #[test]
    fn block_dist_matches_eval_of_difference() {
        let b = BlockWeightedMaxNorm::new(&[1, 2], vec![1.0, 1.0]).unwrap();
        let x = [1.0, 2.0, 3.0];
        let y = [0.0, 0.0, 0.0];
        assert!((b.dist(&x, &y) - b.eval(&x)).abs() < 1e-15);
    }

    #[test]
    fn block_rejects_bad_input() {
        assert!(BlockWeightedMaxNorm::new(&[], vec![]).is_err());
        assert!(BlockWeightedMaxNorm::new(&[1, 0], vec![1.0, 1.0]).is_err());
        assert!(BlockWeightedMaxNorm::new(&[1], vec![1.0, 2.0]).is_err());
        assert!(BlockWeightedMaxNorm::new(&[1], vec![-1.0]).is_err());
        assert!(BlockWeightedMaxNorm::uniform_partition(3, 0).is_err());
        assert!(BlockWeightedMaxNorm::uniform_partition(3, 4).is_err());
    }

    #[test]
    fn scalar_blocks_reduce_to_weighted_max_norm() {
        let w = vec![1.0, 2.0, 4.0];
        let b = BlockWeightedMaxNorm::new(&[1, 1, 1], w.clone()).unwrap();
        let s = WeightedMaxNorm::new(w).unwrap();
        let x = [3.0, -8.0, 4.0];
        assert!((b.eval(&x) - s.eval(&x)).abs() < 1e-15);
    }
}
