//! ℓ₂-regularised logistic regression.
//!
//! `f(x) = (1/m) Σ_h log(1 + exp(−z_h · a_hᵀx)) + (λ/2)‖x‖²` with labels
//! `z_h ∈ {−1, +1}` — the regularised empirical-risk form the paper's §V
//! motivates ("some loss function h gives a measure on how well a
//! prediction matches the target; we use the regularization function g to
//! avoid over-fitting"). It is `μ = λ` strongly convex and `L`-smooth
//! with `L ≤ λ + λ_max(AᵀA)/(4m)`.
//!
//! The gradient couples all components through the data, so this is the
//! workload for the *threaded* (Hogwild-style) runtime experiments rather
//! than the componentwise contraction theory.

use crate::error::OptError;
use crate::traits::{Operator, SmoothObjective};
use asynciter_numerics::dense::DenseMatrix;

/// A binary-classification logistic-regression objective.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// `m × n` feature matrix.
    a: DenseMatrix,
    /// Labels in `{−1, +1}`, length `m`.
    z: Vec<f64>,
    /// Ridge weight `λ > 0` (provides strong convexity).
    lambda: f64,
    /// Cached Lipschitz bound.
    lipschitz: f64,
}

impl LogisticRegression {
    /// Builds the objective.
    ///
    /// # Errors
    /// Errors on dimension mismatch, a non-finite entry of `a`, labels
    /// outside `{−1, +1}`, or nonpositive `λ`.
    pub fn new(a: DenseMatrix, z: Vec<f64>, lambda: f64) -> crate::Result<Self> {
        if a.rows() != z.len() {
            return Err(OptError::DimensionMismatch {
                expected: a.rows(),
                actual: z.len(),
                context: "LogisticRegression::new",
            });
        }
        if let Some((h, &v)) = z.iter().enumerate().find(|(_, &v)| v != 1.0 && v != -1.0) {
            return Err(OptError::InvalidParameter {
                name: "z",
                message: format!("label z[{h}] = {v} must be ±1"),
            });
        }
        if let Some(k) = a.data().iter().position(|v| !v.is_finite()) {
            return Err(OptError::InvalidParameter {
                name: "a",
                message: format!(
                    "entry a[{}][{}] = {} must be finite",
                    k / a.cols(),
                    k % a.cols(),
                    a.data()[k]
                ),
            });
        }
        if lambda.is_nan() || lambda <= 0.0 {
            return Err(OptError::InvalidParameter {
                name: "lambda",
                message: "must be positive (strong convexity)".into(),
            });
        }
        let m = a.rows() as f64;
        // λ_max(AᵀA) ≤ ‖A‖_F²; cheap and safe.
        let frob_sq: f64 = a.data().iter().map(|v| v * v).sum();
        let lipschitz = lambda + frob_sq / (4.0 * m);
        Ok(Self {
            a,
            z,
            lambda,
            lipschitz,
        })
    }

    /// Random two-Gaussian classification instance: class `+1` features
    /// centred at `+μ·1/√n`, class `−1` at `−μ·1/√n`, unit noise.
    ///
    /// # Errors
    /// Errors on degenerate sizes or nonpositive `λ`.
    pub fn random(n: usize, m: usize, sep: f64, lambda: f64, seed: u64) -> crate::Result<Self> {
        if n == 0 || m < 2 {
            return Err(OptError::InvalidParameter {
                name: "n/m",
                message: format!("need n >= 1, m >= 2; got n={n}, m={m}"),
            });
        }
        let mut rng = asynciter_numerics::rng::rng(seed);
        let shift = sep / (n as f64).sqrt();
        let mut data = Vec::with_capacity(m * n);
        let mut z = Vec::with_capacity(m);
        for h in 0..m {
            let label = if h % 2 == 0 { 1.0 } else { -1.0 };
            z.push(label);
            for _ in 0..n {
                data.push(label * shift + asynciter_numerics::rng::normal(&mut rng));
            }
        }
        let a = DenseMatrix::from_vec(m, n, data)?;
        Self::new(a, z, lambda)
    }

    /// Number of samples `m`.
    pub fn samples(&self) -> usize {
        self.a.rows()
    }

    /// The ridge weight.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Classification accuracy of parameters `x` on the training set.
    pub fn accuracy(&self, x: &[f64]) -> f64 {
        let mut correct = 0usize;
        for h in 0..self.a.rows() {
            let score = asynciter_numerics::vecops::dot(self.a.row(h), x);
            if score * self.z[h] > 0.0 {
                correct += 1;
            }
        }
        correct as f64 / self.a.rows() as f64
    }

    /// Rebuilds the objective over the same data with a different ridge
    /// weight (the data, and hence the coupling bound, are unchanged).
    ///
    /// # Errors
    /// Errors on nonpositive `λ`.
    pub fn with_lambda(&self, lambda: f64) -> crate::Result<Self> {
        Self::new(self.a.clone(), self.z.clone(), lambda)
    }

    /// Certified max-norm coupling of the data term: with
    /// `M_ij = (1/4m) Σ_h |a_hi||a_hj|` (an entrywise upper bound on the
    /// Hessian of the empirical loss, since `σ' ≤ 1/4`), returns
    /// `c = max_i Σ_{j≠i} M_ij` — the worst off-diagonal absolute row sum
    /// any Hessian `∇²f(x)` can have. Whenever `λ > c` the gradient-step
    /// operator of [`LogisticGradOperator`] is a certified max-norm
    /// contraction (see its docs).
    pub fn max_norm_coupling(&self) -> f64 {
        let m = self.a.rows();
        let n = self.a.cols();
        let mut off = vec![0.0; n];
        for h in 0..m {
            let row = self.a.row(h);
            let s: f64 = row.iter().map(|v| v.abs()).sum();
            for (o, &v) in off.iter_mut().zip(row) {
                // |a_hi| (S_h − |a_hi|) = Σ_{j≠i} |a_hi||a_hj|.
                *o += v.abs() * (s - v.abs());
            }
        }
        off.iter().fold(0.0_f64, |acc, &o| acc.max(o)) / (4.0 * m as f64)
    }

    /// Reference minimiser by (synchronous) gradient descent with step
    /// `1/L` run to gradient norm `tol`.
    ///
    /// # Errors
    /// [`OptError::DidNotConverge`] when `max_iter` is exhausted.
    pub fn reference_solution(&self, tol: f64, max_iter: usize) -> crate::Result<Vec<f64>> {
        let n = self.dim();
        let mut x = vec![0.0; n];
        let mut g = vec![0.0; n];
        let step = 1.0 / self.lipschitz();
        for _ in 0..max_iter {
            self.grad(&x, &mut g);
            let gn = asynciter_numerics::vecops::norm_inf(&g);
            if gn <= tol {
                return Ok(x);
            }
            asynciter_numerics::vecops::axpy(-step, &g, &mut x);
        }
        self.grad(&x, &mut g);
        Err(OptError::DidNotConverge {
            iterations: max_iter,
            residual: asynciter_numerics::vecops::norm_inf(&g),
        })
    }
}

/// Numerically-stable `log(1 + exp(t))`.
#[inline]
fn log1p_exp(t: f64) -> f64 {
    if t > 30.0 {
        t
    } else if t < -30.0 {
        t.exp()
    } else {
        t.exp().ln_1p()
    }
}

/// Numerically-stable logistic sigmoid `1/(1 + exp(−t))`.
#[inline]
fn sigmoid(t: f64) -> f64 {
    if t >= 0.0 {
        1.0 / (1.0 + (-t).exp())
    } else {
        let e = t.exp();
        e / (1.0 + e)
    }
}

impl SmoothObjective for LogisticRegression {
    fn dim(&self) -> usize {
        self.a.cols()
    }

    fn value(&self, x: &[f64]) -> f64 {
        let m = self.a.rows();
        let mut loss = 0.0;
        for h in 0..m {
            let margin = self.z[h] * asynciter_numerics::vecops::dot(self.a.row(h), x);
            loss += log1p_exp(-margin);
        }
        loss / m as f64 + 0.5 * self.lambda * x.iter().map(|v| v * v).sum::<f64>()
    }

    fn grad_component(&self, i: usize, x: &[f64]) -> f64 {
        let m = self.a.rows();
        let mut g = 0.0;
        for h in 0..m {
            let row = self.a.row(h);
            let margin = self.z[h] * asynciter_numerics::vecops::dot(row, x);
            // d/dx_i log(1+exp(-z aᵀx)) = -z a_i σ(-z aᵀx).
            g -= self.z[h] * row[i] * sigmoid(-margin);
        }
        g / m as f64 + self.lambda * x[i]
    }

    fn grad(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "LogisticRegression::grad: x dim");
        assert_eq!(out.len(), self.dim(), "LogisticRegression::grad: out dim");
        out.fill(0.0);
        let m = self.a.rows();
        for h in 0..m {
            let row = self.a.row(h);
            let margin = self.z[h] * asynciter_numerics::vecops::dot(row, x);
            let w = -self.z[h] * sigmoid(-margin);
            asynciter_numerics::vecops::axpy(w, row, out);
        }
        for (o, &xi) in out.iter_mut().zip(x) {
            *o = *o / m as f64 + self.lambda * xi;
        }
    }

    fn lipschitz(&self) -> f64 {
        self.lipschitz
    }

    fn strong_convexity(&self) -> f64 {
        self.lambda
    }
}

// ---------------------------------------------------------------------------
// The canonical Session operator: certified asynchronous gradient descent
// ---------------------------------------------------------------------------

/// Gradient-descent fixed-point operator `G(x) = x − γ∇f(x)` for
/// ℓ₂-regularised logistic regression, with a *certified* max-norm
/// contraction factor — the canonical wiring that makes logistic
/// regression a first-class problem for every engine (gate matrix,
/// conformance fuzzer, cross-backend equivalence).
///
/// By the componentwise mean-value theorem,
/// `|G_i(x) − G_i(y)| ≤ (|1 − γH_ii| + γ Σ_{j≠i} |H_ij|) ‖x − y‖_∞` for
/// some Hessian `H = ∇²f(ξ)`. Since `σ' ∈ (0, 1/4]`, every Hessian obeys
/// `λ ≤ H_ii ≤ λ + M_ii` and `|H_ij| ≤ M_ij` with
/// `M = (1/4m) Σ_h |a_h||a_h|ᵀ`; for `γ ∈ (0, 2/(μ+L)]` this yields the
/// uniform bound `α = 1 − γ(λ − c)` with
/// `c = max_i Σ_{j≠i} M_ij` ([`LogisticRegression::max_norm_coupling`]).
/// Construction **fails unless `λ > c`** — only certifiably contractive
/// instances run under the totally asynchronous engines.
///
/// The gradient couples every component through the data, so the
/// per-sample weights `w_h = z_h σ(−z_h a_hᵀx)` are shared by all
/// components. Every scratch path makes **one** row-major pass over the
/// data: per sample, `w_h`, then `g_i −= w_h a_hi` into one accumulator
/// per evaluated component — `out` itself for
/// [`Operator::apply_with`] (no scratch), the caller-owned scratch for
/// [`Operator::update_active_with`] and [`Operator::residual_inf_with`]
/// (`scratch_len() == n`). A block update is `O(m·n)` instead of
/// `O(|block|·m·n)`, reads the data once, and allocates nothing. Each
/// `g_i` is summed over `h = 0, 1, …, m−1` in order, exactly as in
/// [`Operator::component`], so all evaluation paths are bit-identical
/// to it.
#[derive(Debug, Clone)]
pub struct LogisticGradOperator {
    f: LogisticRegression,
    gamma: f64,
    alpha: f64,
}

impl LogisticGradOperator {
    /// Builds the operator, checking `γ ∈ (0, 2/(μ+L)]` and the
    /// contraction certificate `λ > c`.
    ///
    /// # Errors
    /// [`OptError::InvalidParameter`] on a step-size violation,
    /// [`OptError::InvalidProblem`] when the instance is not certifiably
    /// max-norm contractive (ridge too weak for the data coupling).
    pub fn new(f: LogisticRegression, gamma: f64) -> crate::Result<Self> {
        crate::proxgrad::validate_gamma(gamma, f.strong_convexity(), f.lipschitz())?;
        let coupling = f.max_norm_coupling();
        // ±∞ data make the coupling ∞ − ∞ = NaN: that is not a certificate.
        if coupling.is_nan() || coupling >= f.lambda() {
            return Err(OptError::InvalidProblem {
                message: format!(
                    "logistic instance is not certifiably max-norm contractive: \
                     coupling bound c = {coupling:.3e} >= lambda = {:.3e}; \
                     increase the ridge weight",
                    f.lambda()
                ),
            });
        }
        let alpha = 1.0 - gamma * (f.lambda() - coupling);
        Ok(Self { f, gamma, alpha })
    }

    /// Builds the operator at the largest certified step
    /// `γ = 2/(μ+L)` (Theorem 1's boundary).
    ///
    /// # Errors
    /// As [`LogisticGradOperator::new`].
    pub fn with_max_step(f: LogisticRegression) -> crate::Result<Self> {
        let gamma = crate::proxgrad::gamma_max(f.strong_convexity(), f.lipschitz());
        Self::new(f, gamma)
    }

    /// The canonical certified instance over random two-Gaussian data
    /// ([`LogisticRegression::random`]): ridge `1.5×` the data-coupling
    /// bound (floored at `0.5`, so tiny well-separated datasets stay
    /// numerically sane) at the maximal Theorem-1 step. This is **the**
    /// recipe shared by the gate matrix, the conformance problems and
    /// the cross-backend equivalence suites — one definition, so the
    /// certification margin can never drift between them.
    ///
    /// # Errors
    /// Propagates data-generation errors; the certification itself
    /// succeeds by construction (`λ > c`).
    pub fn certified_random(n: usize, m: usize, sep: f64, seed: u64) -> crate::Result<Self> {
        let data = LogisticRegression::random(n, m, sep, 1.0, seed)?;
        let data = data.with_lambda(1.5 * data.max_norm_coupling().max(0.5))?;
        Self::with_max_step(data)
    }

    /// Step size `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The certified max-norm contraction factor `α = 1 − γ(λ − c) < 1`.
    pub fn contraction_factor(&self) -> f64 {
        self.alpha
    }

    /// The underlying objective.
    pub fn f(&self) -> &LogisticRegression {
        &self.f
    }

    /// The operator's fixed point — the regularised empirical-risk
    /// minimiser — via the synchronous reference solver.
    ///
    /// # Errors
    /// [`OptError::DidNotConverge`] on stall (cannot happen for certified
    /// instances; defensive).
    pub fn solve_exact(&self) -> crate::Result<Vec<f64>> {
        self.f.reference_solution(1e-12, 2_000_000)
    }

    /// The one row-major pass over the data that every scratch path
    /// shares: for each sample `h` in order, the weight
    /// `w_h = z_h σ(−z_h a_hᵀx)` and the row `a_h`. Each caller folds
    /// `g_i −= w_h a_hi` into its accumulators, so every `g_i` sees the
    /// same operations in the same order as [`Operator::component`].
    #[inline]
    fn for_each_sample(&self, x: &[f64], mut f: impl FnMut(f64, &[f64])) {
        for (h, &z) in self.f.z.iter().enumerate() {
            let row = self.f.a.row(h);
            let margin = z * asynciter_numerics::vecops::dot(row, x);
            f(z * sigmoid(-margin), row);
        }
    }

    /// `g_i = −Σ_h w_h a_hi` for every component, into `g`.
    #[inline]
    fn gradient_sums(&self, x: &[f64], g: &mut [f64]) {
        g.fill(0.0);
        self.for_each_sample(x, |w, row| {
            for (gi, &a) in g.iter_mut().zip(row) {
                *gi -= w * a;
            }
        });
    }

    /// `G_i(x)` from the data sum `g = −Σ_h w_h a_hi`.
    #[inline]
    fn finish(&self, i: usize, x: &[f64], g: f64) -> f64 {
        x[i] - self.gamma * (g / self.f.samples() as f64 + self.f.lambda * x[i])
    }
}

impl Operator for LogisticGradOperator {
    fn dim(&self) -> usize {
        self.f.dim()
    }

    fn component(&self, i: usize, x: &[f64]) -> f64 {
        let m = self.f.samples();
        let mut g = 0.0;
        for h in 0..m {
            let row = self.f.a.row(h);
            let margin = self.f.z[h] * asynciter_numerics::vecops::dot(row, x);
            let w = self.f.z[h] * sigmoid(-margin);
            g -= w * row[i];
        }
        x[i] - self.gamma * (g / m as f64 + self.f.lambda * x[i])
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
        assert_eq!(x.len(), self.dim(), "LogisticGradOperator: x dim");
        assert_eq!(out.len(), self.dim(), "LogisticGradOperator: out dim");
        // One accumulator per entry of `active`.
        let g = &mut scratch[..active.len()];
        g.fill(0.0);
        self.for_each_sample(x, |w, row| {
            for (gk, &i) in g.iter_mut().zip(active) {
                *gk -= w * row[i];
            }
        });
        for (&gk, &i) in g.iter().zip(active) {
            out[i] = self.finish(i, x, gk);
        }
    }

    fn apply_with(&self, x: &[f64], out: &mut [f64], _scratch: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "LogisticGradOperator: x dim");
        assert_eq!(out.len(), self.dim(), "LogisticGradOperator: out dim");
        self.gradient_sums(x, out);
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.finish(i, x, *o);
        }
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.apply_with(x, out, &mut []);
    }

    fn residual_inf_with(&self, x: &[f64], scratch: &mut [f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "LogisticGradOperator: x dim");
        let g = &mut scratch[..self.dim()];
        self.gradient_sums(x, g);
        let mut r = 0.0_f64;
        for (i, &gi) in g.iter().enumerate() {
            r = r.max((x[i] - self.finish(i, x, gi)).abs());
        }
        r
    }

    fn residual_inf(&self, x: &[f64]) -> f64 {
        let mut scratch = vec![0.0; self.scratch_len()];
        self.residual_inf_with(x, &mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> LogisticRegression {
        LogisticRegression::random(4, 60, 3.0, 0.1, 5).unwrap()
    }

    #[test]
    fn stable_helpers() {
        assert!((log1p_exp(0.0) - std::f64::consts::LN_2).abs() < 1e-15);
        assert!((log1p_exp(100.0) - 100.0).abs() < 1e-12);
        assert!(log1p_exp(-100.0) < 1e-40);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-100.0) < 1e-40);
        // σ(t) + σ(−t) = 1.
        for t in [-5.0, -0.3, 0.0, 2.0, 40.0] {
            assert!((sigmoid(t) + sigmoid(-t) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let f = toy();
        let mut rng = asynciter_numerics::rng::rng(1);
        let x = asynciter_numerics::rng::normal_vec(&mut rng, 4);
        let mut g = vec![0.0; 4];
        f.grad(&x, &mut g);
        let h = 1e-6;
        for i in 0..4 {
            let mut xp = x.clone();
            xp[i] += h;
            let mut xm = x.clone();
            xm[i] -= h;
            let fd = (f.value(&xp) - f.value(&xm)) / (2.0 * h);
            assert!((fd - g[i]).abs() < 1e-5, "i={i}: fd {fd} vs {}", g[i]);
            assert!((f.grad_component(i, &x) - g[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn reference_solution_has_small_gradient_and_learns() {
        let f = toy();
        let x = f.reference_solution(1e-10, 200_000).unwrap();
        let mut g = vec![0.0; 4];
        f.grad(&x, &mut g);
        assert!(asynciter_numerics::vecops::norm_inf(&g) <= 1e-10);
        // Well-separated classes → high training accuracy.
        assert!(f.accuracy(&x) > 0.85, "accuracy {}", f.accuracy(&x));
    }

    #[test]
    fn strong_convexity_is_lambda() {
        let f = toy();
        assert_eq!(f.strong_convexity(), 0.1);
        assert!(f.lipschitz() > 0.1);
    }

    #[test]
    fn value_decreases_along_negative_gradient() {
        let f = toy();
        let x = vec![0.5; 4];
        let mut g = vec![0.0; 4];
        f.grad(&x, &mut g);
        let mut y = x.clone();
        asynciter_numerics::vecops::axpy(-1e-3, &g, &mut y);
        assert!(f.value(&y) < f.value(&x));
    }

    /// A certifiably contractive instance: ridge above the coupling.
    fn certified() -> LogisticGradOperator {
        LogisticGradOperator::certified_random(6, 40, 2.0, 11).unwrap()
    }

    #[test]
    fn grad_operator_rejects_uncertified_instances() {
        let data = LogisticRegression::random(6, 40, 2.0, 1.0, 11).unwrap();
        let c = data.max_norm_coupling();
        assert!(c > 0.0);
        // Ridge below the coupling bound: not certifiable.
        let weak = data.with_lambda((0.5 * c).max(1e-6)).unwrap();
        assert!(LogisticGradOperator::with_max_step(weak).is_err());
        // Step size outside Theorem 1's range.
        let strong = data.with_lambda(2.0 * c).unwrap();
        let gmax = crate::proxgrad::gamma_max(strong.strong_convexity(), strong.lipschitz());
        assert!(LogisticGradOperator::new(strong, 1.1 * gmax).is_err());
    }

    /// A quiet NaN with a payload no arithmetic produces: an entry the
    /// update must leave alone keeps exactly these bits.
    const SENTINEL: u64 = 0x7ff8_dead_beef_0001;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        /// Every scratch path equals `component(i, x)` bit for bit: the
        /// row-major pass sums each `g_i` over `h = 0, 1, …, m−1` in the
        /// same order, so reordering the samples or rescaling the weights
        /// shows here.
        #[test]
        fn grad_operator_scratch_paths_match_component_bitwise(seed in 0u64..1 << 32) {
            use asynciter_numerics::rng;
            let mut r = rng::rng(seed);
            for (n, m) in [(6, 40), (8, 48), (128, 256)] {
                let op = LogisticGradOperator::certified_random(n, m, 2.0, seed).unwrap();
                let mut x = rng::normal_vec(&mut r, n);
                let zeros = rng::sample_indices(&mut r, n, 2);
                x[zeros[0]] = 0.0;
                x[zeros[1]] = -0.0;
                let want: Vec<f64> = (0..n).map(|i| op.component(i, &x)).collect();

                let mut scratch = vec![0.0; op.scratch_len()];
                for k in [1, n / 4, n] {
                    let mut active = rng::sample_indices(&mut r, n, k);
                    active.sort_unstable();
                    let mut out = vec![f64::from_bits(SENTINEL); n];
                    op.update_active_with(&x, &active, &mut out, &mut scratch);
                    for i in 0..n {
                        let expect = if active.contains(&i) { want[i].to_bits() } else { SENTINEL };
                        assert_eq!(out[i].to_bits(), expect, "update n={n} |S|={k} i={i}");
                    }
                }

                let mut via_with = vec![f64::from_bits(SENTINEL); n];
                op.apply_with(&x, &mut via_with, &mut []);
                let mut via_apply = vec![f64::from_bits(SENTINEL); n];
                op.apply(&x, &mut via_apply);
                for i in 0..n {
                    assert_eq!(via_with[i].to_bits(), want[i].to_bits(), "apply_with n={n} i={i}");
                    assert_eq!(via_apply[i].to_bits(), want[i].to_bits(), "apply n={n} i={i}");
                }

                let mut scratch = vec![f64::from_bits(SENTINEL); op.scratch_len()];
                let residual = (0..n).fold(0.0_f64, |r, i| r.max((x[i] - want[i]).abs()));
                let via_with = op.residual_inf_with(&x, &mut scratch);
                assert_eq!(via_with.to_bits(), residual.to_bits(), "residual_inf_with n={n}");
                assert_eq!(op.residual_inf(&x).to_bits(), residual.to_bits(), "residual_inf n={n}");
            }
        }
    }

    #[test]
    fn non_finite_data_is_an_error_not_a_panic() {
        for bad in [f64::NAN, f64::INFINITY] {
            let a = DenseMatrix::from_vec(2, 2, vec![1.0, bad, 0.5, -1.0]).unwrap();
            let built = LogisticRegression::new(a, vec![1.0, -1.0], 1.0)
                .and_then(LogisticGradOperator::with_max_step);
            assert!(
                matches!(built, Err(OptError::InvalidParameter { name: "a", .. })),
                "{bad}: {built:?}"
            );
        }
    }

    #[test]
    fn grad_operator_contraction_certificate_holds() {
        let op = certified();
        let n = op.dim();
        let alpha = op.contraction_factor();
        assert!((0.0..1.0).contains(&alpha), "alpha = {alpha}");
        let mut rng = asynciter_numerics::rng::rng(7);
        let mut scratch = vec![0.0; op.scratch_len()];
        for _ in 0..20 {
            let x = asynciter_numerics::rng::normal_vec(&mut rng, n);
            let y = asynciter_numerics::rng::normal_vec(&mut rng, n);
            let mut tx = vec![0.0; n];
            let mut ty = vec![0.0; n];
            op.apply_with(&x, &mut tx, &mut scratch);
            op.apply_with(&y, &mut ty, &mut scratch);
            let lhs = asynciter_numerics::vecops::max_abs_diff(&tx, &ty);
            let rhs = alpha * asynciter_numerics::vecops::max_abs_diff(&x, &y);
            assert!(lhs <= rhs + 1e-12, "{lhs} > alpha * {rhs}");
        }
    }

    #[test]
    fn grad_operator_fixed_point_is_the_minimiser() {
        let op = certified();
        let xstar = op.solve_exact().unwrap();
        // x* is a fixed point of G …
        assert!(op.residual_inf(&xstar) < 1e-10);
        // … and synchronous iteration reaches it.
        let n = op.dim();
        let mut x = vec![0.0; n];
        let mut next = vec![0.0; n];
        let mut scratch = vec![0.0; op.scratch_len()];
        for _ in 0..2_000 {
            op.apply_with(&x, &mut next, &mut scratch);
            std::mem::swap(&mut x, &mut next);
        }
        assert!(asynciter_numerics::vecops::max_abs_diff(&x, &xstar) < 1e-9);
    }

    #[test]
    fn coupling_is_data_only() {
        let data = LogisticRegression::random(5, 30, 1.5, 0.3, 9).unwrap();
        let c1 = data.max_norm_coupling();
        let c2 = data.with_lambda(7.0).unwrap().max_norm_coupling();
        assert_eq!(c1.to_bits(), c2.to_bits(), "coupling must ignore lambda");
    }

    #[test]
    fn rejects_invalid_input() {
        let a = DenseMatrix::zeros(3, 2);
        assert!(LogisticRegression::new(a.clone(), vec![1.0, -1.0], 0.1).is_err());
        assert!(LogisticRegression::new(a.clone(), vec![1.0, 0.5, -1.0], 0.1).is_err());
        assert!(LogisticRegression::new(a, vec![1.0, -1.0, 1.0], 0.0).is_err());
        assert!(LogisticRegression::random(0, 5, 1.0, 0.1, 0).is_err());
    }
}
