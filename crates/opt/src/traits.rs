//! Core abstractions: operators, smooth objectives, separable proxes.
//!
//! Every engine in the workspace (the deterministic replay engine, the
//! flexible-communication engine, the threaded runtimes and the
//! discrete-event simulator) drives a fixed-point [`Operator`]
//! `F : ℝⁿ → ℝⁿ` one component at a time — the shape dictated by
//! Definition 1, where iteration `j` recomputes `x_i(j) = F_i(x(l(j)))`
//! for `i ∈ S_j` from a possibly stale assembled vector `x(l(j))`.

/// A fixed-point operator `F : ℝⁿ → ℝⁿ` evaluated componentwise.
///
/// `Sync` is required because the threaded runtimes evaluate components
/// of a shared operator concurrently.
pub trait Operator: Sync {
    /// Dimension `n`.
    fn dim(&self) -> usize;

    /// `F_i(x)` for a single component.
    ///
    /// # Panics
    /// Implementations may panic when `i ≥ dim()` or `x.len() != dim()`.
    fn component(&self, i: usize, x: &[f64]) -> f64;

    /// Full application `out ← F(x)`.
    ///
    /// The default loops [`Operator::component`]; implementations with
    /// shared subexpressions should override.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    fn apply(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "Operator::apply: x dimension");
        assert_eq!(out.len(), self.dim(), "Operator::apply: out dimension");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.component(i, x);
        }
    }

    /// Writes `F_i(x)` for each `i ∈ active` into `out[i]`, leaving other
    /// entries of `out` untouched. Engines use this to realise the
    /// `i ∈ S_j` branch of Eq. (1).
    ///
    /// # Panics
    /// Panics on dimension mismatch or out-of-range indices (debug).
    fn update_active(&self, x: &[f64], active: &[usize], out: &mut [f64]) {
        for &i in active {
            out[i] = self.component(i, x);
        }
    }

    /// Residual `‖x − F(x)‖_∞`, the practical fixed-point error measure.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    fn residual_inf(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "Operator::residual_inf: dimension");
        let mut m = 0.0_f64;
        for i in 0..self.dim() {
            m = m.max((x[i] - self.component(i, x)).abs());
        }
        m
    }

    /// Length of the caller-owned scratch slice the `_with` evaluation
    /// paths need (`0` for operators whose components share no
    /// subexpressions). Engines allocate `vec![0.0; op.scratch_len()]`
    /// **once** per run/worker and thread it through every step, so the
    /// per-step paths stay heap-allocation-free even for operators with
    /// dense shared state (e.g. the `n` gradient accumulators that
    /// [`crate::logistic::LogisticGradOperator`] fills in one pass over
    /// its data, or the `n` values of `prox(x)` that
    /// [`crate::proxgrad::SparseProxGrad`] computes once per call instead
    /// of once per row entry).
    fn scratch_len(&self) -> usize {
        0
    }

    /// Like [`Operator::update_active`], with caller-owned scratch.
    ///
    /// The default ignores `scratch` and delegates; operators with shared
    /// subexpressions override this to compute them once into `scratch`
    /// instead of once per component. Implementations must produce values
    /// **bit-identical** to [`Operator::component`] — engines mix the two
    /// paths and the cross-backend equivalence suite compares them
    /// bitwise.
    ///
    /// # Panics
    /// Panics on dimension mismatch, out-of-range indices (debug), or
    /// `scratch.len() < self.scratch_len()`.
    fn update_active_with(
        &self,
        x: &[f64],
        active: &[usize],
        out: &mut [f64],
        scratch: &mut [f64],
    ) {
        let _ = scratch;
        self.update_active(x, active, out);
    }

    /// Like [`Operator::apply`], with caller-owned scratch (same
    /// bit-identity contract as [`Operator::update_active_with`]).
    ///
    /// # Panics
    /// Panics on dimension mismatch or short scratch.
    fn apply_with(&self, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        let _ = scratch;
        self.apply(x, out);
    }

    /// Like [`Operator::residual_inf`], with caller-owned scratch (same
    /// bit-identity contract as [`Operator::update_active_with`]).
    ///
    /// # Panics
    /// Panics on dimension mismatch or short scratch.
    fn residual_inf_with(&self, x: &[f64], scratch: &mut [f64]) -> f64 {
        let _ = scratch;
        self.residual_inf(x)
    }
}

/// A smooth (differentiable) objective `f : ℝⁿ → ℝ` with curvature
/// metadata. `lipschitz`/`strong_convexity` bound the eigenvalues of the
/// Hessian: `μ·I ⪯ ∇²f ⪯ L·I` (with `μ = 0` for merely convex `f`).
pub trait SmoothObjective: Sync {
    /// Dimension `n`.
    fn dim(&self) -> usize;

    /// Objective value `f(x)`.
    fn value(&self, x: &[f64]) -> f64;

    /// Partial derivative `∂f/∂x_i (x)`.
    fn grad_component(&self, i: usize, x: &[f64]) -> f64;

    /// Full gradient `out ← ∇f(x)`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    fn grad(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "SmoothObjective::grad: x dimension");
        assert_eq!(out.len(), self.dim(), "SmoothObjective::grad: out dim");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.grad_component(i, x);
        }
    }

    /// A Lipschitz constant `L` of `∇f` (upper curvature bound).
    fn lipschitz(&self) -> f64;

    /// A strong-convexity modulus `μ ≥ 0` (lower curvature bound).
    fn strong_convexity(&self) -> f64;
}

/// A *separable* smooth objective `f(x) = Σ_i f_i(x_i)` — the form
/// assumed by problem (4) of the paper ("`f` is a separable, L-smooth,
/// μ-strongly convex function"), under which the Definition-4 operator is
/// a componentwise max-norm contraction with factor `1 − γμ`.
pub trait SeparableSmooth: Sync {
    /// Dimension `n`.
    fn dim(&self) -> usize;

    /// `f_i(v)`.
    fn value_component(&self, i: usize, v: f64) -> f64;

    /// `f_i'(v)`.
    fn grad_component(&self, i: usize, v: f64) -> f64;

    /// Componentwise curvature bounds `(μ, L)`: for every `i` and `v`,
    /// `μ ≤ f_i''(v) ≤ L`.
    fn curvature(&self) -> (f64, f64);

    /// Total value `Σ_i f_i(x_i)`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    fn value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "SeparableSmooth::value: dimension");
        x.iter()
            .enumerate()
            .map(|(i, &v)| self.value_component(i, v))
            .sum()
    }
}

/// Every separable smooth objective is a smooth objective.
impl<T: SeparableSmooth> SmoothObjective for T {
    fn dim(&self) -> usize {
        SeparableSmooth::dim(self)
    }

    fn value(&self, x: &[f64]) -> f64 {
        SeparableSmooth::value(self, x)
    }

    fn grad_component(&self, i: usize, x: &[f64]) -> f64 {
        SeparableSmooth::grad_component(self, i, x[i])
    }

    fn lipschitz(&self) -> f64 {
        self.curvature().1
    }

    fn strong_convexity(&self) -> f64 {
        self.curvature().0
    }
}

/// A separable lower semi-continuous convex regulariser `g(x) = Σ_i
/// g_i(x_i)` given through its componentwise proximal maps
/// `prox_{γ g_i}(v) = argmin_u { g_i(u) + (u − v)²/(2γ) }`.
///
/// Separability of `g` is what makes `prox_{γg}` componentwise, which in
/// turn is what allows asynchronous component updates to apply it locally
/// — all of the paper's machine-learning regularisers (`ℓ₁`, box
/// indicators, elastic net) are of this form.
pub trait SeparableProx: Sync {
    /// `prox_{γ g_i}(v)`.
    ///
    /// # Panics
    /// Implementations with per-component data may panic for out-of-range
    /// `i`.
    fn prox_component(&self, i: usize, v: f64, gamma: f64) -> f64;

    /// `g(x)` (may be `+∞` for indicator functions; return
    /// [`f64::INFINITY`] outside the domain).
    fn value(&self, x: &[f64]) -> f64;

    /// Dimension constraint, when the prox carries per-component data
    /// (`None` for dimension-agnostic regularisers like scalar `ℓ₁`).
    fn dim_hint(&self) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy operator F(x) = c (constant map) for trait-default testing.
    struct ConstMap {
        c: Vec<f64>,
    }

    impl Operator for ConstMap {
        fn dim(&self) -> usize {
            self.c.len()
        }
        fn component(&self, i: usize, _x: &[f64]) -> f64 {
            self.c[i]
        }
    }

    #[test]
    fn default_apply_loops_components() {
        let f = ConstMap {
            c: vec![1.0, 2.0, 3.0],
        };
        let mut out = [0.0; 3];
        f.apply(&[0.0; 3], &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn update_active_leaves_inactive_untouched() {
        let f = ConstMap {
            c: vec![1.0, 2.0, 3.0],
        };
        let mut out = [9.0; 3];
        f.update_active(&[0.0; 3], &[1], &mut out);
        assert_eq!(out, [9.0, 2.0, 9.0]);
    }

    #[test]
    fn residual_at_fixed_point_is_zero() {
        let f = ConstMap { c: vec![1.0, 2.0] };
        assert_eq!(f.residual_inf(&[1.0, 2.0]), 0.0);
        assert_eq!(f.residual_inf(&[0.0, 2.0]), 1.0);
    }

    #[test]
    fn scratch_defaults_delegate_to_plain_paths() {
        let f = ConstMap {
            c: vec![1.0, 2.0, 3.0],
        };
        assert_eq!(f.scratch_len(), 0);
        let mut scratch = [0.0; 0];
        let mut out = [9.0; 3];
        f.update_active_with(&[0.0; 3], &[1], &mut out, &mut scratch);
        assert_eq!(out, [9.0, 2.0, 9.0]);
        f.apply_with(&[0.0; 3], &mut out, &mut scratch);
        assert_eq!(out, [1.0, 2.0, 3.0]);
        assert_eq!(f.residual_inf_with(&[1.0, 2.0, 3.0], &mut scratch), 0.0);
    }

    /// Separable quadratic halves-distance toy to exercise the blanket
    /// SmoothObjective impl.
    struct Sep;

    impl SeparableSmooth for Sep {
        fn dim(&self) -> usize {
            2
        }
        fn value_component(&self, _i: usize, v: f64) -> f64 {
            v * v
        }
        fn grad_component(&self, _i: usize, v: f64) -> f64 {
            2.0 * v
        }
        fn curvature(&self) -> (f64, f64) {
            (2.0, 2.0)
        }
    }

    #[test]
    fn separable_blanket_impl() {
        let s = Sep;
        assert_eq!(SmoothObjective::dim(&s), 2);
        assert_eq!(SmoothObjective::value(&s, &[1.0, 2.0]), 5.0);
        assert_eq!(SmoothObjective::grad_component(&s, 1, &[1.0, 2.0]), 4.0);
        assert_eq!(s.lipschitz(), 2.0);
        assert_eq!(s.strong_convexity(), 2.0);
        let mut g = [0.0; 2];
        s.grad(&[3.0, -1.0], &mut g);
        assert_eq!(g, [6.0, -2.0]);
    }
}
