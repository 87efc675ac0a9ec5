//! Approximate gradient-type operators (Definition 4 of the paper) and
//! the classical forward–backward operator.
//!
//! For the composite problem `min_x f(x) + g(x)` (Eq. (4)) with step
//! `γ ∈ (0, 2/(μ+L)]`, the paper's Definition 4 iterates the *prox-then-
//! gradient* operator
//!
//! ```text
//! G_i(x) = [prox_{γg}(x)]_i − γ ∇_i f( prox_{γg}(x) ) .
//! ```
//!
//! Its fixed point `x*` satisfies `p* = prox_{γg}(x*)`,
//! `x* = p* − γ∇f(p*)`, and a one-line subgradient computation shows `p*`
//! solves (4): the iteration converges to `x*` and the problem solution
//! is recovered by one final prox. When both `f` and `g` are separable
//! (the paper's assumption), `G` is a componentwise contraction with
//! max-norm factor `max(|1−γμ|, |1−γL|) ≤ 1 − γμ = 1 − ρ` — the constant
//! of Theorem 1. When `f` couples components through a sparse
//! diagonally-dominant quadratic, [`SparseProxGrad`] still contracts in
//! the max norm with a Gershgorin-certified factor.
//!
//! [`ForwardBackward`] is the textbook *gradient-then-prox* operator
//! `T(x) = prox_{γg}(x − γ∇f(x))`, whose fixed point is the solution of
//! (4) itself; it is provided both as a baseline and as the reference
//! solver used to compute exact solutions.

use crate::error::OptError;
use crate::quadratic::SparseQuadratic;
use crate::traits::{Operator, SeparableProx, SeparableSmooth, SmoothObjective};

/// Largest step size admitted by Theorem 1: `γ_max = 2/(μ+L)`.
///
/// # Panics
/// Panics unless `0 < μ ≤ L`.
#[inline]
pub fn gamma_max(mu: f64, l: f64) -> f64 {
    assert!(mu > 0.0 && l >= mu, "gamma_max: need 0 < mu <= l");
    2.0 / (mu + l)
}

/// The contraction modulus `ρ = γμ` of Theorem 1.
#[inline]
pub fn rho(gamma: f64, mu: f64) -> f64 {
    gamma * mu
}

/// Max-norm contraction factor of the scalar gradient step
/// `v ↦ v − γ f'(v)` over curvatures in `[μ, L]`:
/// `α = max(|1 − γμ|, |1 − γL|)`.
#[inline]
pub fn gradient_step_factor(gamma: f64, mu: f64, l: f64) -> f64 {
    (1.0 - gamma * mu).abs().max((1.0 - gamma * l).abs())
}

pub(crate) fn validate_gamma(gamma: f64, mu: f64, l: f64) -> crate::Result<()> {
    if !gamma.is_finite() || gamma <= 0.0 {
        return Err(OptError::InvalidParameter {
            name: "gamma",
            message: format!("step size must be finite and positive, got {gamma}"),
        });
    }
    if !(mu > 0.0 && l >= mu) {
        return Err(OptError::InvalidParameter {
            name: "mu/L",
            message: format!("Theorem 1 needs curvature 0 < mu <= L, got mu = {mu}, L = {l}"),
        });
    }
    let gmax = gamma_max(mu, l);
    if gamma > gmax * (1.0 + 1e-12) {
        return Err(OptError::InvalidParameter {
            name: "gamma",
            message: format!(
                "step size {gamma} exceeds Theorem 1 range (0, 2/(mu+L)] = (0, {gmax}]"
            ),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Definition 4, separable f (the paper's exact setting)
// ---------------------------------------------------------------------------

/// Definition-4 operator for separable `f` and separable `g`:
/// `G_i(x) = prox_i(x_i) − γ f_i'(prox_i(x_i))`, an `O(1)`-per-component
/// max-norm contraction with factor `≤ 1 − γμ`.
#[derive(Debug, Clone)]
pub struct SeparableProxGrad<F, P> {
    f: F,
    g: P,
    gamma: f64,
}

impl<F: SeparableSmooth, P: SeparableProx> SeparableProxGrad<F, P> {
    /// Builds the operator, checking `γ ∈ (0, 2/(μ+L)]` and the prox's
    /// dimension hint.
    ///
    /// # Errors
    /// Errors on step-size or dimension violations.
    pub fn new(f: F, g: P, gamma: f64) -> crate::Result<Self> {
        let (mu, l) = f.curvature();
        validate_gamma(gamma, mu, l)?;
        if let Some(d) = g.dim_hint() {
            if d != SeparableSmooth::dim(&f) {
                return Err(OptError::DimensionMismatch {
                    expected: SeparableSmooth::dim(&f),
                    actual: d,
                    context: "SeparableProxGrad::new (prox dim)",
                });
            }
        }
        Ok(Self { f, g, gamma })
    }

    /// Step size `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The certified max-norm contraction factor
    /// `α = max(|1−γμ|, |1−γL|) ≤ 1 − γμ`.
    pub fn contraction_factor(&self) -> f64 {
        let (mu, l) = self.f.curvature();
        gradient_step_factor(self.gamma, mu, l)
    }

    /// Theorem 1's `ρ = γμ`.
    pub fn rho(&self) -> f64 {
        rho(self.gamma, self.f.curvature().0)
    }

    /// The smooth part.
    pub fn f(&self) -> &F {
        &self.f
    }

    /// The regulariser.
    pub fn g(&self) -> &P {
        &self.g
    }

    /// Computes the fixed point `x*` of `G` and the problem solution
    /// `p* = prox(x*)` by iterating each (independent) scalar component
    /// to machine precision.
    ///
    /// # Errors
    /// [`OptError::DidNotConverge`] if some component fails to settle
    /// (cannot happen for admissible `γ`; defensive).
    pub fn solve_exact(&self) -> crate::Result<(Vec<f64>, Vec<f64>)> {
        let n = SeparableSmooth::dim(&self.f);
        let mut xstar = vec![0.0; n];
        let mut pstar = vec![0.0; n];
        for i in 0..n {
            let mut x = 0.0_f64;
            let mut converged = false;
            for _ in 0..100_000 {
                let p = self.g.prox_component(i, x, self.gamma);
                let next = p - self.gamma * self.f.grad_component(i, p);
                // One-ULP-aware tolerance: below ~2.2e-16·|x| the iterate
                // can oscillate between adjacent floats forever.
                if (next - x).abs() <= 1e-15 * (1.0 + x.abs()) {
                    x = next;
                    converged = true;
                    break;
                }
                x = next;
            }
            if !converged {
                return Err(OptError::DidNotConverge {
                    iterations: 100_000,
                    residual: f64::NAN,
                });
            }
            xstar[i] = x;
            pstar[i] = self.g.prox_component(i, x, self.gamma);
        }
        Ok((xstar, pstar))
    }
}

impl<F: SeparableSmooth, P: SeparableProx> Operator for SeparableProxGrad<F, P> {
    fn dim(&self) -> usize {
        SeparableSmooth::dim(&self.f)
    }

    #[inline]
    fn component(&self, i: usize, x: &[f64]) -> f64 {
        let p = self.g.prox_component(i, x[i], self.gamma);
        p - self.gamma * SeparableSmooth::grad_component(&self.f, i, p)
    }
}

// ---------------------------------------------------------------------------
// Definition 4, sparse coupled quadratic f
// ---------------------------------------------------------------------------

/// Definition-4 operator with `f(x) = ½xᵀQx − bᵀx` (sparse, strictly
/// diagonally dominant) and separable `g`:
///
/// ```text
/// G_i(x) = p_i − γ ( Σ_c q_ic · p_c − b_i ),    p_c = prox_c(x_c),
/// ```
///
/// evaluated over row `i`'s sparsity pattern only.
///
/// `p = prox_{γg}(x)` is shared by every component, so the scratch paths
/// hoist it: [`Operator::update_active_with`] and
/// [`Operator::residual_inf_with`] fill `scratch[..n]` with `p` in one
/// contiguous pass (`scratch_len() == n`), then fold each row against it.
/// [`Operator::component`] computes each `p_c` inline instead. All paths
/// run one row kernel, which sums `q_ic · p_c` in the same CSR order, so
/// they are bit-identical.
///
/// A scratch call costs `n` prox evaluations whatever `|S_j|` is, where
/// the per-component fold costs `Σ_{i∈S_j} nnz(row i)`. One path is kept,
/// with no cost-based choice between the two: every caller in the
/// workspace has `Σ_{i∈S_j} nnz(row i) ≥ n` (the canonical lasso rows are
/// dense; the benchmark's sparse family updates at least `n/8` rows of
/// ≈ 17 entries per step), so no workload sits on the other side.
#[derive(Debug, Clone)]
pub struct SparseProxGrad<P> {
    f: SparseQuadratic,
    g: P,
    gamma: f64,
}

impl<P: SeparableProx> SparseProxGrad<P> {
    /// Builds the operator, checking the Theorem-1 step range against the
    /// Gershgorin curvature bounds of `Q` and that `Q`'s rows carry
    /// strictly increasing column indices. The latter is load-bearing:
    /// [`Operator::component`] folds the prox over row `i`'s sparsity
    /// pattern and identifies the diagonal by `c == i`, so a duplicate or
    /// unsorted column (possible for external CSR data built with
    /// `CsrMatrix::from_raw_parts`) would silently compute wrong
    /// gradients — and Gershgorin certificates read through `diagonal()`
    /// would be wrong too.
    ///
    /// # Errors
    /// Errors on step-size, dimension, or sparsity-structure violations.
    pub fn new(f: SparseQuadratic, g: P, gamma: f64) -> crate::Result<Self> {
        if !f.q().rows_sorted_strictly() {
            return Err(OptError::InvalidProblem {
                message: "Q has unsorted or duplicate column indices in some row; \
                          rebuild it via CsrMatrix::from_triplets"
                    .into(),
            });
        }
        validate_gamma(gamma, f.strong_convexity(), f.lipschitz())?;
        if let Some(d) = g.dim_hint() {
            if d != f.dim() {
                return Err(OptError::DimensionMismatch {
                    expected: f.dim(),
                    actual: d,
                    context: "SparseProxGrad::new (prox dim)",
                });
            }
        }
        Ok(Self { f, g, gamma })
    }

    /// Step size `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The smooth part.
    pub fn f(&self) -> &SparseQuadratic {
        &self.f
    }

    /// The regulariser.
    pub fn g(&self) -> &P {
        &self.g
    }

    /// Certified max-norm contraction factor of `G = (I − γ∇f) ∘ prox`:
    /// since the prox is componentwise nonexpansive,
    /// `‖G(x) − G(y)‖_∞ ≤ ‖I − γQ‖_∞ · ‖x − y‖_∞`.
    pub fn contraction_factor(&self) -> f64 {
        self.f.gradient_step_inf_contraction(self.gamma)
    }

    /// Theorem 1's `ρ = γμ` with `μ` the Gershgorin strong-convexity
    /// bound.
    pub fn rho(&self) -> f64 {
        rho(self.gamma, self.f.strong_convexity())
    }

    /// Computes the fixed point `x*` of `G` (and the solution
    /// `p* = prox(x*)` of problem (4)) by running the synchronous
    /// iteration to machine precision — valid because `G` is a certified
    /// max-norm contraction.
    ///
    /// # Errors
    /// [`OptError::DidNotConverge`] when the residual stalls above
    /// `1e-14` (ill-conditioned `γ` near the boundary).
    pub fn solve_exact(&self) -> crate::Result<(Vec<f64>, Vec<f64>)> {
        let n = self.f.dim();
        let mut x = vec![0.0; n];
        let mut next = vec![0.0; n];
        let mut res = f64::INFINITY;
        for _ in 0..2_000_000 {
            self.apply(&x, &mut next);
            res = asynciter_numerics::vecops::max_abs_diff(&x, &next);
            std::mem::swap(&mut x, &mut next);
            if res <= 1e-15 {
                break;
            }
        }
        if res > 1e-13 {
            return Err(OptError::DidNotConverge {
                iterations: 2_000_000,
                residual: res,
            });
        }
        let p: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| self.g.prox_component(i, v, self.gamma))
            .collect();
        Ok((x, p))
    }
}

impl<P: SeparableProx> Operator for SparseProxGrad<P> {
    fn dim(&self) -> usize {
        self.f.dim()
    }

    #[inline]
    fn component(&self, i: usize, x: &[f64]) -> f64 {
        self.row(i, |c| self.g.prox_component(c, x[c], self.gamma))
    }

    fn scratch_len(&self) -> usize {
        self.dim()
    }

    fn update_active_with(
        &self,
        x: &[f64],
        active: &[usize],
        out: &mut [f64],
        scratch: &mut [f64],
    ) {
        let p = self.prox_into(x, scratch);
        for &i in active {
            out[i] = self.row(i, |c| p[c]);
        }
    }

    fn residual_inf_with(&self, x: &[f64], scratch: &mut [f64]) -> f64 {
        let p = self.prox_into(x, scratch);
        let mut m = 0.0_f64;
        for (i, &xi) in x.iter().enumerate() {
            m = m.max((xi - self.row(i, |c| p[c])).abs());
        }
        m
    }
}

impl<P: SeparableProx> SparseProxGrad<P> {
    /// `G_i` given where each `p_c = prox_c(x_c)` comes from: the one row
    /// kernel of every evaluation path.
    #[inline(always)]
    fn row(&self, i: usize, p: impl Fn(usize) -> f64) -> f64 {
        let (idx, vals) = self.f.q().row(i);
        let mut qp = 0.0;
        let mut pi = None;
        for (&c, &qic) in idx.iter().zip(vals) {
            let pc = p(c);
            qp += qic * pc;
            if c == i {
                pi = Some(pc);
            }
        }
        // Row might lack an explicit diagonal (never for validated
        // diagonally-dominant Q, but stay correct regardless).
        let pi = pi.unwrap_or_else(|| p(i));
        pi - self.gamma * (qp - self.f.b()[i])
    }

    /// Fills `scratch[..n]` with `prox_{γg}(x)` in one pass and returns it.
    fn prox_into<'s>(&self, x: &[f64], scratch: &'s mut [f64]) -> &'s [f64] {
        assert_eq!(x.len(), self.dim(), "SparseProxGrad: x dimension");
        let p = &mut scratch[..x.len()];
        for (c, (pc, &xc)) in p.iter_mut().zip(x).enumerate() {
            *pc = self.g.prox_component(c, xc, self.gamma);
        }
        p
    }
}

// ---------------------------------------------------------------------------
// Forward–backward (gradient-then-prox) baseline
// ---------------------------------------------------------------------------

/// The classical forward–backward operator
/// `T_i(x) = prox_i( x_i − γ ∇_i f(x) )`, whose fixed point is the
/// solution of problem (4) directly.
#[derive(Debug, Clone)]
pub struct ForwardBackward<F, P> {
    f: F,
    g: P,
    gamma: f64,
}

impl<F: SmoothObjective, P: SeparableProx> ForwardBackward<F, P> {
    /// Builds the operator with the same step-size validation as the
    /// Definition-4 operators.
    ///
    /// # Errors
    /// Errors on step-size or dimension violations.
    pub fn new(f: F, g: P, gamma: f64) -> crate::Result<Self> {
        validate_gamma(
            gamma,
            f.strong_convexity().max(f64::MIN_POSITIVE),
            f.lipschitz(),
        )?;
        if let Some(d) = g.dim_hint() {
            if d != f.dim() {
                return Err(OptError::DimensionMismatch {
                    expected: f.dim(),
                    actual: d,
                    context: "ForwardBackward::new (prox dim)",
                });
            }
        }
        Ok(Self { f, g, gamma })
    }

    /// Step size `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The smooth part.
    pub fn f(&self) -> &F {
        &self.f
    }

    /// The regulariser.
    pub fn g(&self) -> &P {
        &self.g
    }

    /// Reference solve: iterate synchronously until the residual drops
    /// below `tol` or `max_iter` is exhausted; returns the solution of
    /// problem (4).
    ///
    /// # Errors
    /// [`OptError::DidNotConverge`] on stall.
    pub fn solve(&self, tol: f64, max_iter: usize) -> crate::Result<Vec<f64>> {
        let n = self.f.dim();
        let mut x = vec![0.0; n];
        let mut next = vec![0.0; n];
        for _ in 0..max_iter {
            self.apply(&x, &mut next);
            let res = asynciter_numerics::vecops::max_abs_diff(&x, &next);
            std::mem::swap(&mut x, &mut next);
            if res <= tol {
                return Ok(x);
            }
        }
        let mut fin = vec![0.0; n];
        self.apply(&x, &mut fin);
        Err(OptError::DidNotConverge {
            iterations: max_iter,
            residual: asynciter_numerics::vecops::max_abs_diff(&x, &fin),
        })
    }
}

impl<F: SmoothObjective, P: SeparableProx> Operator for ForwardBackward<F, P> {
    fn dim(&self) -> usize {
        self.f.dim()
    }

    #[inline]
    fn component(&self, i: usize, x: &[f64]) -> f64 {
        self.g.prox_component(
            i,
            x[i] - self.gamma * self.f.grad_component(i, x),
            self.gamma,
        )
    }
}

/// Plain gradient-descent operator `x ↦ x − γ∇f(x)` (the `g ≡ 0` case).
#[derive(Debug, Clone)]
pub struct GradientOperator<F> {
    f: F,
    gamma: f64,
}

impl<F: SmoothObjective> GradientOperator<F> {
    /// Builds the operator; `γ` must be positive and finite (no upper
    /// check — used for ablations beyond the certified range).
    ///
    /// # Errors
    /// Errors on nonpositive `γ`.
    pub fn new(f: F, gamma: f64) -> crate::Result<Self> {
        if !gamma.is_finite() || gamma <= 0.0 {
            return Err(OptError::InvalidParameter {
                name: "gamma",
                message: format!("step size must be finite and positive, got {gamma}"),
            });
        }
        Ok(Self { f, gamma })
    }

    /// Step size `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The objective.
    pub fn f(&self) -> &F {
        &self.f
    }
}

impl<F: SmoothObjective> Operator for GradientOperator<F> {
    fn dim(&self) -> usize {
        self.f.dim()
    }

    #[inline]
    fn component(&self, i: usize, x: &[f64]) -> f64 {
        x[i] - self.gamma * self.f.grad_component(i, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prox::{BoxConstraint, ZeroReg, L1};
    use crate::quadratic::{SeparableQuadratic, SparseQuadratic};
    use asynciter_numerics::vecops;

    #[test]
    fn curvature_outside_theorem_1_is_an_error_not_a_panic() {
        for (mu, l) in [(f64::NAN, 1.0), (1.0, f64::NAN), (0.0, 1.0), (2.0, 1.0)] {
            let err = validate_gamma(0.1, mu, l);
            assert!(
                matches!(err, Err(OptError::InvalidParameter { name: "mu/L", .. })),
                "mu={mu} L={l}: {err:?}"
            );
        }
    }

    fn sep_problem() -> SeparableProxGrad<SeparableQuadratic, L1> {
        let f = SeparableQuadratic::new(vec![1.0, 2.0, 4.0], vec![1.0, -2.0, 0.1]).unwrap();
        let g = L1::new(0.5);
        let gamma = gamma_max(1.0, 4.0); // 0.4
        SeparableProxGrad::new(f, g, gamma).unwrap()
    }

    #[test]
    fn gamma_helpers() {
        assert_eq!(gamma_max(1.0, 3.0), 0.5);
        assert_eq!(rho(0.5, 1.0), 0.5);
        assert!((gradient_step_factor(0.4, 1.0, 4.0) - 0.6).abs() < 1e-15);
    }

    #[test]
    fn step_size_validation() {
        let f = SeparableQuadratic::new(vec![1.0, 4.0], vec![0.0, 0.0]).unwrap();
        assert!(SeparableProxGrad::new(f.clone(), ZeroReg, 0.5).is_err()); // > 2/5
        assert!(SeparableProxGrad::new(f.clone(), ZeroReg, -0.1).is_err());
        assert!(SeparableProxGrad::new(f, ZeroReg, 0.4).is_ok());
    }

    #[test]
    fn dim_hint_checked() {
        let f = SeparableQuadratic::new(vec![1.0, 1.0], vec![0.0, 0.0]).unwrap();
        let g = BoxConstraint::per_component(vec![0.0; 3], vec![1.0; 3]);
        assert!(SeparableProxGrad::new(f, g, 0.5).is_err());
    }

    #[test]
    fn separable_fixed_point_solves_problem() {
        let op = sep_problem();
        let (xstar, pstar) = op.solve_exact().unwrap();
        // x* is a fixed point of G.
        for i in 0..3 {
            assert!(
                (op.component(i, &xstar) - xstar[i]).abs() < 1e-12,
                "component {i}"
            );
        }
        // p* solves min f + g: optimality 0 ∈ ∇f(p) + ∂g(p) componentwise.
        let f = op.f();
        let lam = 0.5;
        for (i, &pi) in pstar.iter().enumerate().take(3) {
            let gpi = SeparableSmooth::grad_component(f, i, pi);
            if pstar[i] > 1e-12 {
                assert!((gpi + lam).abs() < 1e-9, "i={i}: {gpi}");
            } else if pstar[i] < -1e-12 {
                assert!((gpi - lam).abs() < 1e-9, "i={i}: {gpi}");
            } else {
                assert!(gpi.abs() <= lam + 1e-9, "i={i}: {gpi}");
            }
        }
        // And x* = p* − γ∇f(p*).
        for i in 0..3 {
            let expect = pstar[i] - op.gamma() * SeparableSmooth::grad_component(f, i, pstar[i]);
            assert!((xstar[i] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn separable_contraction_observed() {
        let op = sep_problem();
        let alpha = op.contraction_factor();
        assert!(alpha < 1.0);
        let mut rng = asynciter_numerics::rng::rng(1);
        for _ in 0..20 {
            let x = asynciter_numerics::rng::normal_vec(&mut rng, 3);
            let y = asynciter_numerics::rng::normal_vec(&mut rng, 3);
            let mut tx = vec![0.0; 3];
            let mut ty = vec![0.0; 3];
            op.apply(&x, &mut tx);
            op.apply(&y, &mut ty);
            assert!(vecops::max_abs_diff(&tx, &ty) <= alpha * vecops::max_abs_diff(&x, &y) + 1e-12);
        }
    }

    #[test]
    fn rho_bounds_contraction() {
        let op = sep_problem();
        // alpha <= 1 - rho for gamma <= 2/(mu+L).
        assert!(op.contraction_factor() <= 1.0 - op.rho() + 1e-15);
    }

    #[test]
    fn sparse_proxgrad_rejects_duplicate_or_unsorted_columns() {
        // External CSR data with a duplicated diagonal entry. The
        // duplicate hides from `is_symmetric`/Gershgorin (binary search
        // finds one copy: diagonal reads 2.0, true row sum 4.0), so
        // SparseQuadratic construction succeeds with silently wrong
        // curvature — the operator must refuse at its own front door.
        let q = asynciter_numerics::sparse::CsrMatrix::from_raw_parts(
            2,
            2,
            vec![0, 3, 5],
            vec![0, 0, 1, 0, 1],
            vec![2.0, 2.0, -1.0, -1.0, 4.0],
        )
        .unwrap();
        assert!(!q.rows_sorted_strictly());
        let f = SparseQuadratic::new(q, vec![0.0, 0.0]).expect(
            "duplicate columns slip past symmetry/Gershgorin checks — \
             exactly why SparseProxGrad must validate",
        );
        let gamma = 0.5 * gamma_max(f.strong_convexity(), f.lipschitz());
        let err = SparseProxGrad::new(f, ZeroReg, gamma).unwrap_err();
        assert!(
            err.to_string().contains("unsorted or duplicate"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn sparse_component_is_the_same_with_or_without_a_stored_diagonal() {
        // Row 0 of Q with its diagonal stored, stored as zero, and absent.
        // `SparseQuadratic::new` admits only the first; the fold must not
        // depend on that.
        let (g, gamma, x, b0) = (L1::new(0.3), 0.5, [1.7, -0.4], 0.25);
        let p = [0, 1].map(|c| g.prox_component(c, x[c], gamma));
        for (cols, vals, q00) in [
            (vec![0, 1], vec![3.0, -1.0], 3.0),
            (vec![0, 1], vec![0.0, -1.0], 0.0),
            (vec![1], vec![-1.0], 0.0),
        ] {
            let row_ptr = vec![0, cols.len(), cols.len() + 2];
            let q = asynciter_numerics::sparse::CsrMatrix::from_raw_parts(
                2,
                2,
                row_ptr,
                [cols, vec![0, 1]].concat(),
                [vals, vec![-1.0, 3.0]].concat(),
            )
            .unwrap();
            let f = SparseQuadratic::unvalidated(q, vec![b0, 0.0]);
            let op = SparseProxGrad { f, g, gamma };
            let expect = p[0] - gamma * (q00 * p[0] + -p[1] - b0);
            assert_eq!(op.component(0, &x).to_bits(), expect.to_bits(), "q00={q00}");
            let mut out = [0.0; 2];
            op.update_active_with(&x, &[0], &mut out, &mut [0.0; 2]);
            assert_eq!(out[0].to_bits(), expect.to_bits(), "scratch q00={q00}");
        }
    }

    /// A quiet NaN with a payload no arithmetic produces: an entry the
    /// update must leave alone keeps exactly these bits.
    const SENTINEL: u64 = 0x7ff8_dead_beef_0001;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        /// The scratch paths, which compute `prox(x)` once per call, equal
        /// the per-component fold bit for bit: each row sums `q_ic · p_c`
        /// in the same CSR order, so reordering a row's sum, or reading a
        /// stale or wrong `p_c`, shows here. `x` holds exact zeros of both
        /// signs and values exactly at the L1 threshold `±γλ`.
        #[test]
        fn sparse_scratch_paths_match_component_bitwise(seed in 0u64..1 << 32) {
            use asynciter_numerics::rng;
            let mut r = rng::rng(seed);
            let lam = 0.1;
            for (n, degree) in [(1, 0), (12, 11), (64, 8), (257, 8)] {
                let f = SparseQuadratic::random_diag_dominant(n, degree, 0.4, 1.0, seed).unwrap();
                let gamma = 0.9 * gamma_max(f.strong_convexity(), f.lipschitz());
                let op = SparseProxGrad::new(f, L1::new(lam), gamma).unwrap();
                let t = gamma * lam;
                let mut x = rng::normal_vec(&mut r, n);
                for (k, &i) in rng::sample_indices(&mut r, n, n.min(4)).iter().enumerate() {
                    x[i] = [0.0, -0.0, t, -t][k];
                }
                let want: Vec<f64> = (0..n).map(|i| op.component(i, &x)).collect();

                let mut half = rng::sample_indices(&mut r, n, n / 2);
                half.sort_unstable();
                let one = vec![rng::sample_indices(&mut r, n, 1)[0]];
                let all: Vec<usize> = (0..n).collect();
                let mut scratch = vec![f64::from_bits(SENTINEL); op.scratch_len()];
                for active in [Vec::new(), one, all, half] {
                    let mut out = vec![f64::from_bits(SENTINEL); n];
                    op.update_active_with(&x, &active, &mut out, &mut scratch);
                    for i in 0..n {
                        let expect = if active.contains(&i) { want[i].to_bits() } else { SENTINEL };
                        assert_eq!(out[i].to_bits(), expect, "update n={n} |S|={} i={i}", active.len());
                    }
                }

                let mut scratch = vec![f64::from_bits(SENTINEL); op.scratch_len()];
                let residual = op.residual_inf(&x);
                let folded = (0..n).fold(0.0_f64, |r, i| r.max((x[i] - want[i]).abs()));
                assert_eq!(residual.to_bits(), folded.to_bits(), "default residual n={n}");
                let via_with = op.residual_inf_with(&x, &mut scratch);
                assert_eq!(via_with.to_bits(), residual.to_bits(), "residual_inf_with n={n}");
            }
        }
    }

    #[test]
    fn sparse_proxgrad_matches_dense_composition() {
        let f = SparseQuadratic::random_diag_dominant(10, 3, 0.4, 1.5, 5).unwrap();
        let gamma = gamma_max(f.strong_convexity(), f.lipschitz());
        let g = L1::new(0.3);
        let op = SparseProxGrad::new(f, g, gamma).unwrap();
        let mut rng = asynciter_numerics::rng::rng(2);
        let x = asynciter_numerics::rng::normal_vec(&mut rng, 10);
        // Reference: p = prox(x); out = p − γ(Qp − b).
        let p: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| op.g().prox_component(i, v, gamma))
            .collect();
        let mut qp = vec![0.0; 10];
        op.f().q().matvec(&p, &mut qp);
        for i in 0..10 {
            let expect = p[i] - gamma * (qp[i] - op.f().b()[i]);
            let got = op.component(i, &x);
            assert!((got - expect).abs() < 1e-12, "i={i}: {got} vs {expect}");
        }
    }

    #[test]
    fn sparse_fixed_point_is_solution() {
        let f = SparseQuadratic::random_diag_dominant(12, 3, 0.4, 1.5, 6).unwrap();
        let gamma = 0.9 * gamma_max(f.strong_convexity(), f.lipschitz());
        let lam = 0.2;
        let op = SparseProxGrad::new(f, L1::new(lam), gamma).unwrap();
        let (xstar, pstar) = op.solve_exact().unwrap();
        assert!(op.residual_inf(&xstar) < 1e-10);
        // Optimality of p*: 0 ∈ Qp − b + λ∂‖·‖₁.
        let mut grad = vec![0.0; 12];
        op.f().grad(&pstar, &mut grad);
        for i in 0..12 {
            if pstar[i] > 1e-10 {
                assert!((grad[i] + lam).abs() < 1e-8, "i={i}");
            } else if pstar[i] < -1e-10 {
                assert!((grad[i] - lam).abs() < 1e-8, "i={i}");
            } else {
                assert!(grad[i].abs() <= lam + 1e-8, "i={i}");
            }
        }
    }

    #[test]
    fn sparse_contraction_certificate_holds() {
        let f = SparseQuadratic::random_diag_dominant(14, 4, 0.5, 2.0, 8).unwrap();
        let gamma = gamma_max(f.strong_convexity(), f.lipschitz());
        let op = SparseProxGrad::new(f, L1::new(0.1), gamma).unwrap();
        let alpha = op.contraction_factor();
        assert!(alpha < 1.0);
        let mut rng = asynciter_numerics::rng::rng(3);
        for _ in 0..10 {
            let x = asynciter_numerics::rng::normal_vec(&mut rng, 14);
            let y = asynciter_numerics::rng::normal_vec(&mut rng, 14);
            let mut tx = vec![0.0; 14];
            let mut ty = vec![0.0; 14];
            op.apply(&x, &mut tx);
            op.apply(&y, &mut ty);
            assert!(vecops::max_abs_diff(&tx, &ty) <= alpha * vecops::max_abs_diff(&x, &y) + 1e-12);
        }
    }

    #[test]
    fn forward_backward_agrees_with_defn4_solution() {
        // The FB fixed point is p*; the Definition-4 fixed point is
        // x* = p* − γ∇f(p*). Both recover the same problem solution.
        let f = SparseQuadratic::random_diag_dominant(9, 2, 0.3, 1.0, 12).unwrap();
        let gamma = 0.8 * gamma_max(f.strong_convexity(), f.lipschitz());
        let lam = 0.15;
        let fb = ForwardBackward::new(f.clone(), L1::new(lam), gamma).unwrap();
        let p_fb = fb.solve(1e-14, 1_000_000).unwrap();
        let d4 = SparseProxGrad::new(f, L1::new(lam), gamma).unwrap();
        let (_, p_d4) = d4.solve_exact().unwrap();
        assert!(vecops::max_abs_diff(&p_fb, &p_d4) < 1e-9);
    }

    #[test]
    fn gradient_operator_is_fb_with_zero_reg() {
        let f = SparseQuadratic::random_diag_dominant(8, 2, 0.3, 1.0, 13).unwrap();
        let gamma = 0.5 * gamma_max(f.strong_convexity(), f.lipschitz());
        let gop = GradientOperator::new(f.clone(), gamma).unwrap();
        let fb = ForwardBackward::new(f, ZeroReg, gamma).unwrap();
        let mut rng = asynciter_numerics::rng::rng(4);
        let x = asynciter_numerics::rng::normal_vec(&mut rng, 8);
        for i in 0..8 {
            assert!((gop.component(i, &x) - fb.component(i, &x)).abs() < 1e-15);
        }
    }

    #[test]
    fn gradient_operator_rejects_bad_gamma() {
        let f = SeparableQuadratic::new(vec![1.0, 1.0], vec![0.0, 0.0]).unwrap();
        assert!(GradientOperator::new(f.clone(), 0.0).is_err());
        assert!(GradientOperator::new(f, f64::NAN).is_err());
    }
}
