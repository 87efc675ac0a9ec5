//! Steering sequences `𝒮` and delay labels `ℒ` (Definition 1).
//!
//! A [`ScheduleGen`] streams, for each iteration `j = 1, 2, …`, the pair
//! `(S_j, (l_1(j), …, l_n(j)))`: which components are updated and which
//! past iterate each read uses. The replay engines in `asynciter-core`
//! consume schedules to *execute* asynchronous iterations exactly as
//! written in Eq. (1) of the paper; the checkers in
//! [`crate::conditions`] validate them against conditions (a)–(d).
//!
//! The generator library covers every delay regime the paper discusses:
//!
//! | Generator | Regime |
//! |---|---|
//! | [`SyncJacobi`] | synchronous baseline (`S_j = {1..n}`, labels `j−1`) |
//! | [`CyclicCoordinate`] | Gauss–Seidel sweep (fresh labels) |
//! | [`BlockRoundRobin`] | block-iterative round robin |
//! | [`ChaoticBounded`] | Chazan–Miranker/Miellou bounded delays, optionally FIFO-monotone or out-of-order |
//! | [`UnboundedSqrtDelay`] | delays growing like `√j` (condition (b) holds, (d) fails) |
//! | [`HeavyTailDelay`] | Pareto-tailed delays (unbounded, occasionally enormous) |
//! | [`StarvedComponent`] | adversarial violation of condition (c) |
//! | [`FrozenLabelAdversary`] | adversarial violation of condition (b) |
//!
//! On top of the zoo sit *admissibility-preserving combinators* used by
//! the conformance fuzzer to machine-generate schedule diversity while
//! keeping a checkable certificate
//! ([`crate::conditions::AdmissibilityWitness`]):
//!
//! | Combinator | Effect |
//! |---|---|
//! | [`EnvelopeClamp`] | forces conditions (a)/(b) via a [`crate::conditions::DelayEnvelope`] |
//! | [`CoverageGuard`] | forces condition (c) with an explicit gap bound |
//! | [`LabelJitter`] | random extra delay / out-of-order mutation within the envelope |
//! | [`ActiveThin`] | random partial-update mutation of the steering sets |
//!
//! Every generator whose delays are bounded by an envelope also promises
//! a *label floor* ([`ScheduleGen::label_floor`]): its own smallest
//! drawable label `j − D(j)`, and for a [`RecordedSchedule`] the suffix
//! minimum of its labels. The replay engines check each label against it
//! and keep only the history a read can still reach. The adversaries that
//! break condition (b) and the heavy-tailed delays promise nothing.

use crate::trace::{LabelStore, Trace};
use rand::rngs::StdRng;
use rand::RngExt;

/// Reusable output buffer for one schedule step.
#[derive(Debug, Clone, Default)]
pub struct StepBuf {
    /// `S_j`: strictly increasing, nonempty.
    pub active: Vec<usize>,
    /// `(l_1(j), …, l_n(j))`, length `n`, each `≤ j − 1`.
    pub labels: Vec<u64>,
}

impl StepBuf {
    /// A buffer sized for `n` components.
    pub fn new(n: usize) -> Self {
        Self {
            active: Vec::with_capacity(n),
            labels: vec![0; n],
        }
    }
}

/// A streaming generator of steering sets and delay labels.
pub trait ScheduleGen {
    /// Number of components `n`.
    fn n(&self) -> usize;

    /// Produces `S_j` and the label tuple for iteration `j ≥ 1` into `buf`.
    ///
    /// Implementations must leave `buf.active` nonempty, strictly
    /// increasing and within `0..n`, and `buf.labels` of length `n` with
    /// every entry `≤ j − 1` (condition (a)). Adversarial generators that
    /// deliberately violate conditions (b)/(c) still respect these
    /// structural rules.
    fn step(&mut self, j: u64, buf: &mut StepBuf);

    /// A promised *label floor*: every label of every step `j' ≥ j` is
    /// `≥ label_floor(j)`, so nothing older than it will be read again.
    ///
    /// Condition (b) alone gives no such floor — a later step may read an
    /// older label than an earlier one — so it has to come from the
    /// generator, typically as its delay envelope `j − D(j)`
    /// (Feyzmahdavian & Johansson; Peng–Xu–Yan–Yin). The default `0`
    /// promises nothing. A floor must be nondecreasing in `j` and must
    /// not depend on the steps drawn so far. The replay engines discard
    /// history below it, and answer a label under it with the typed
    /// schedule error they give a condition-(a) violation
    /// (`InvalidParameter { name: "schedule" }`).
    fn label_floor(&self, j: u64) -> u64 {
        let _ = j;
        0
    }

    /// A short human-readable description for experiment logs.
    fn describe(&self) -> String {
        format!("schedule(n={})", self.n())
    }
}

impl<G: ScheduleGen + ?Sized> ScheduleGen for Box<G> {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        (**self).step(j, buf);
    }

    fn label_floor(&self, j: u64) -> u64 {
        (**self).label_floor(j)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

impl<G: ScheduleGen + ?Sized> ScheduleGen for &mut G {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        (**self).step(j, buf);
    }

    fn label_floor(&self, j: u64) -> u64 {
        (**self).label_floor(j)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

/// Runs a generator for `num_steps` iterations, recording a [`Trace`].
pub fn record(gen: &mut dyn ScheduleGen, num_steps: u64, store: LabelStore) -> Trace {
    let mut trace = Trace::new(gen.n(), store);
    let mut buf = StepBuf::new(gen.n());
    for j in 1..=num_steps {
        gen.step(j, &mut buf);
        trace.push_step(&buf.active, &buf.labels);
    }
    trace
}

// ---------------------------------------------------------------------------
// Synchronous / deterministic baselines
// ---------------------------------------------------------------------------

/// Synchronous Jacobi steering: every component updates at every iteration
/// with fresh labels `j − 1`. Delays are identically 1, the degenerate case
/// of both the asynchronous model and condition (d) with `b = 1`.
#[derive(Debug, Clone)]
pub struct SyncJacobi {
    n: usize,
}

impl SyncJacobi {
    /// Synchronous schedule over `n` components.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "SyncJacobi: n must be positive");
        Self { n }
    }
}

impl ScheduleGen for SyncJacobi {
    fn n(&self) -> usize {
        self.n
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        buf.active.clear();
        buf.active.extend(0..self.n);
        buf.labels.resize(self.n, 0);
        buf.labels.fill(j - 1);
    }

    fn label_floor(&self, j: u64) -> u64 {
        j.saturating_sub(1)
    }

    fn describe(&self) -> String {
        format!("sync-jacobi(n={})", self.n)
    }
}

/// Cyclic single-coordinate steering with fresh labels: `S_j = {(j−1) mod
/// n}`, labels `j − 1`. This is the Gauss–Seidel sweep expressed in the
/// asynchronous formalism.
#[derive(Debug, Clone)]
pub struct CyclicCoordinate {
    n: usize,
}

impl CyclicCoordinate {
    /// Cyclic schedule over `n` components.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "CyclicCoordinate: n must be positive");
        Self { n }
    }
}

impl ScheduleGen for CyclicCoordinate {
    fn n(&self) -> usize {
        self.n
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        buf.active.clear();
        buf.active.push(((j - 1) % self.n as u64) as usize);
        buf.labels.resize(self.n, 0);
        buf.labels.fill(j - 1);
    }

    fn label_floor(&self, j: u64) -> u64 {
        j.saturating_sub(1)
    }

    fn describe(&self) -> String {
        format!("cyclic-gauss-seidel(n={})", self.n)
    }
}

/// Block round-robin steering: machine `(j−1) mod p` updates its whole
/// block at iteration `j`, reading labels delayed by a fixed lag `d ≥ 1`
/// (clamped at 0), which models a pipeline of block updates.
#[derive(Debug, Clone)]
pub struct BlockRoundRobin {
    partition: crate::partition::Partition,
    lag: u64,
}

impl BlockRoundRobin {
    /// Round robin over the machines of `partition` with read lag `lag ≥ 1`.
    ///
    /// # Panics
    /// Panics when `lag == 0`.
    pub fn new(partition: crate::partition::Partition, lag: u64) -> Self {
        assert!(lag >= 1, "BlockRoundRobin: lag must be >= 1");
        Self { partition, lag }
    }
}

impl ScheduleGen for BlockRoundRobin {
    fn n(&self) -> usize {
        self.partition.n()
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        let p = self.partition.num_machines() as u64;
        let m = ((j - 1) % p) as usize;
        buf.active.clear();
        buf.active.extend(
            self.partition
                .map()
                .iter()
                .enumerate()
                .filter(|(_, &mm)| mm as usize == m)
                .map(|(i, _)| i),
        );
        buf.labels.resize(self.n(), 0);
        buf.labels.fill(self.label_floor(j));
    }

    fn label_floor(&self, j: u64) -> u64 {
        j.saturating_sub(self.lag)
    }

    fn describe(&self) -> String {
        format!(
            "block-round-robin(n={}, p={}, lag={})",
            self.n(),
            self.partition.num_machines(),
            self.lag
        )
    }
}

// ---------------------------------------------------------------------------
// Chaotic relaxation: bounded random delays
// ---------------------------------------------------------------------------

/// Chaotic relaxation schedule (Chazan–Miranker \[12\], Miellou \[14\]):
/// a random nonempty subset of components updates at each iteration and
/// reads labels with random delays bounded by `b` (condition (d)).
///
/// With `monotone = true`, per-component labels never decrease across
/// iterations — the FIFO-channel regime assumed by epoch-based analyses.
/// With `monotone = false`, labels are drawn independently each step, so
/// successive reads of the same component can go *backwards in time*:
/// exactly the "possible out of order messages" of the paper.
#[derive(Debug)]
pub struct ChaoticBounded {
    n: usize,
    k_min: usize,
    k_max: usize,
    b: u64,
    monotone: bool,
    last_label: Vec<u64>,
    rng: StdRng,
}

impl ChaoticBounded {
    /// Random-subset schedule over `n` components: each step updates
    /// between `k_min` and `k_max` components with delays in `[1, b]`.
    ///
    /// # Panics
    /// Panics unless `1 ≤ k_min ≤ k_max ≤ n` and `b ≥ 1`.
    pub fn new(n: usize, k_min: usize, k_max: usize, b: u64, monotone: bool, seed: u64) -> Self {
        assert!(n > 0, "ChaoticBounded: n must be positive");
        assert!(
            1 <= k_min && k_min <= k_max && k_max <= n,
            "ChaoticBounded: need 1 <= k_min <= k_max <= n"
        );
        assert!(b >= 1, "ChaoticBounded: b must be >= 1");
        Self {
            n,
            k_min,
            k_max,
            b,
            monotone,
            last_label: vec![0; n],
            rng: asynciter_numerics::rng::rng(seed),
        }
    }
}

impl ScheduleGen for ChaoticBounded {
    fn n(&self) -> usize {
        self.n
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        let k = self.rng.random_range(self.k_min..=self.k_max);
        let mut active = asynciter_numerics::rng::sample_indices(&mut self.rng, self.n, k);
        active.sort_unstable();
        buf.active.clear();
        buf.active.extend(active);
        buf.labels.resize(self.n, 0);
        for h in 0..self.n {
            let d = self.rng.random_range(1..=self.b.min(j));
            let mut l = j - d;
            if self.monotone {
                l = l.max(self.last_label[h]);
                self.last_label[h] = l;
            }
            buf.labels[h] = l;
        }
    }

    /// `j − b`: a FIFO-monotone label only ever rises above its draw.
    fn label_floor(&self, j: u64) -> u64 {
        j.saturating_sub(self.b)
    }

    fn describe(&self) -> String {
        format!(
            "chaotic-bounded(n={}, k∈[{},{}], b={}, {})",
            self.n,
            self.k_min,
            self.k_max,
            self.b,
            if self.monotone {
                "fifo"
            } else {
                "out-of-order"
            }
        )
    }
}

// ---------------------------------------------------------------------------
// Unbounded delays
// ---------------------------------------------------------------------------

/// Unbounded delays growing like `√j` (Baudet's regime, §II of the paper):
/// delays are drawn from `[1, 1 + ⌊c·√j⌋]`, so `sup_j d(j) = ∞` —
/// condition (d) fails for every fixed `b` — yet `l_h(j) ≥ j − 1 − c√j →
/// ∞`, so condition (b) holds.
#[derive(Debug)]
pub struct UnboundedSqrtDelay {
    n: usize,
    k_min: usize,
    k_max: usize,
    c: f64,
    rng: StdRng,
}

impl UnboundedSqrtDelay {
    /// Random-subset schedule with `√j`-growing delays, scale `c > 0`.
    ///
    /// # Panics
    /// Panics unless `1 ≤ k_min ≤ k_max ≤ n` and `c > 0`.
    pub fn new(n: usize, k_min: usize, k_max: usize, c: f64, seed: u64) -> Self {
        assert!(n > 0, "UnboundedSqrtDelay: n must be positive");
        assert!(
            1 <= k_min && k_min <= k_max && k_max <= n,
            "UnboundedSqrtDelay: need 1 <= k_min <= k_max <= n"
        );
        assert!(c > 0.0, "UnboundedSqrtDelay: c must be positive");
        Self {
            n,
            k_min,
            k_max,
            c,
            rng: asynciter_numerics::rng::rng(seed),
        }
    }

    /// The largest delay step `j` may draw, `⌊1 + c√j⌋ ≥ 1`, rounded
    /// exactly as [`ScheduleGen::step`] rounds it.
    fn max_delay(&self, j: u64) -> u64 {
        (1.0 + self.c * (j as f64).sqrt()).floor() as u64
    }
}

impl ScheduleGen for UnboundedSqrtDelay {
    fn n(&self) -> usize {
        self.n
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        let k = self.rng.random_range(self.k_min..=self.k_max);
        let mut active = asynciter_numerics::rng::sample_indices(&mut self.rng, self.n, k);
        active.sort_unstable();
        buf.active.clear();
        buf.active.extend(active);
        buf.labels.resize(self.n, 0);
        let dmax = self.max_delay(j).min(j);
        for h in 0..self.n {
            let d = self.rng.random_range(1..=dmax);
            buf.labels[h] = j - d;
        }
    }

    /// The smallest drawable label `j − min(j, ⌊1 + c√j⌋)`: `0` while
    /// the delay bound covers `j`, nondecreasing after, since past
    /// `j = c²` the term `c√j` grows by less than ½ per step.
    fn label_floor(&self, j: u64) -> u64 {
        j - self.max_delay(j).min(j)
    }

    fn describe(&self) -> String {
        format!(
            "unbounded-sqrt(n={}, k∈[{},{}], c={})",
            self.n, self.k_min, self.k_max, self.c
        )
    }
}

/// Heavy-tailed delays: Pareto(shape `alpha`, scale 1) rounded up and
/// clamped to `[1, j]`. For `alpha ≤ 2` the delay distribution has
/// infinite variance: most reads are fresh, but occasionally an update
/// consumes extremely stale data — the stress regime for totally
/// asynchronous convergence.
#[derive(Debug)]
pub struct HeavyTailDelay {
    n: usize,
    k_min: usize,
    k_max: usize,
    alpha: f64,
    rng: StdRng,
}

impl HeavyTailDelay {
    /// Random-subset schedule with Pareto(`alpha`) delays.
    ///
    /// # Panics
    /// Panics unless `1 ≤ k_min ≤ k_max ≤ n` and `alpha > 0`.
    pub fn new(n: usize, k_min: usize, k_max: usize, alpha: f64, seed: u64) -> Self {
        assert!(n > 0, "HeavyTailDelay: n must be positive");
        assert!(
            1 <= k_min && k_min <= k_max && k_max <= n,
            "HeavyTailDelay: need 1 <= k_min <= k_max <= n"
        );
        assert!(alpha > 0.0, "HeavyTailDelay: alpha must be positive");
        Self {
            n,
            k_min,
            k_max,
            alpha,
            rng: asynciter_numerics::rng::rng(seed),
        }
    }
}

impl ScheduleGen for HeavyTailDelay {
    fn n(&self) -> usize {
        self.n
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        let k = self.rng.random_range(self.k_min..=self.k_max);
        let mut active = asynciter_numerics::rng::sample_indices(&mut self.rng, self.n, k);
        active.sort_unstable();
        buf.active.clear();
        buf.active.extend(active);
        buf.labels.resize(self.n, 0);
        for h in 0..self.n {
            let d = asynciter_numerics::rng::pareto(&mut self.rng, 1.0, self.alpha).ceil() as u64;
            buf.labels[h] = j - d.clamp(1, j);
        }
    }

    fn describe(&self) -> String {
        format!(
            "heavy-tail(n={}, k∈[{},{}], alpha={})",
            self.n, self.k_min, self.k_max, self.alpha
        )
    }
}

// ---------------------------------------------------------------------------
// Adversaries: controlled violations of conditions (b) and (c)
// ---------------------------------------------------------------------------

/// Wraps a schedule and removes component `victim` from every `S_j` with
/// `j > after` — a controlled violation of condition (c) ("no component is
/// abandoned forever"). When the wrapped active set would become empty, a
/// fallback component is substituted so `S_j` stays nonempty.
#[derive(Debug)]
pub struct StarvedComponent<G> {
    inner: G,
    victim: usize,
    after: u64,
}

impl<G: ScheduleGen> StarvedComponent<G> {
    /// Starves `victim` after iteration `after`.
    ///
    /// # Panics
    /// Panics when `victim` is out of range or `inner.n() < 2` (a single
    /// component cannot be starved while keeping `S_j` nonempty).
    pub fn new(inner: G, victim: usize, after: u64) -> Self {
        assert!(victim < inner.n(), "StarvedComponent: victim out of range");
        assert!(inner.n() >= 2, "StarvedComponent: need n >= 2");
        Self {
            inner,
            victim,
            after,
        }
    }
}

impl<G: ScheduleGen> ScheduleGen for StarvedComponent<G> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        self.inner.step(j, buf);
        if j > self.after {
            buf.active.retain(|&i| i != self.victim);
            if buf.active.is_empty() {
                // Deterministic fallback: the next component cyclically.
                buf.active.push((self.victim + 1) % self.n());
            }
        }
    }

    fn label_floor(&self, j: u64) -> u64 {
        self.inner.label_floor(j)
    }

    fn describe(&self) -> String {
        format!(
            "starved(victim={}, after={}) ∘ {}",
            self.victim,
            self.after,
            self.inner.describe()
        )
    }
}

/// Wraps a schedule and freezes the label of component `victim` at
/// `freeze_at` — after enough iterations this violates condition (b)
/// (`lim l_i(j) = ∞` fails) while conditions (a) and (c) still hold.
/// Models a peer that keeps re-delivering one ancient message.
#[derive(Debug)]
pub struct FrozenLabelAdversary<G> {
    inner: G,
    victim: usize,
    freeze_at: u64,
}

impl<G: ScheduleGen> FrozenLabelAdversary<G> {
    /// Caps `l_victim(j)` at `freeze_at` for all `j`.
    ///
    /// # Panics
    /// Panics when `victim` is out of range.
    pub fn new(inner: G, victim: usize, freeze_at: u64) -> Self {
        assert!(victim < inner.n(), "FrozenLabelAdversary: victim range");
        Self {
            inner,
            victim,
            freeze_at,
        }
    }
}

impl<G: ScheduleGen> ScheduleGen for FrozenLabelAdversary<G> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        self.inner.step(j, buf);
        buf.labels[self.victim] = buf.labels[self.victim].min(self.freeze_at);
    }

    fn describe(&self) -> String {
        format!(
            "frozen-label(victim={}, at={}) ∘ {}",
            self.victim,
            self.freeze_at,
            self.inner.describe()
        )
    }
}

// ---------------------------------------------------------------------------
// Admissibility-preserving combinators (conformance-fuzzer building blocks)
// ---------------------------------------------------------------------------

/// Clamps every label into the window `[j − D(j), j − 1]` of a
/// [`DelayEnvelope`](crate::conditions::DelayEnvelope) — after this
/// wrapper, conditions (a) and (b) hold
/// *by construction* (and (d), for a bounded envelope), whatever the
/// inner generator emits. The outermost guard of every fuzzer-composed
/// schedule, and the reason a generated schedule's
/// [`AdmissibilityWitness`](crate::conditions::AdmissibilityWitness)
/// provably accepts it.
#[derive(Debug, Clone)]
pub struct EnvelopeClamp<G> {
    inner: G,
    envelope: crate::conditions::DelayEnvelope,
}

impl<G: ScheduleGen> EnvelopeClamp<G> {
    /// Clamps `inner`'s labels into `envelope`.
    pub fn new(inner: G, envelope: crate::conditions::DelayEnvelope) -> Self {
        Self { inner, envelope }
    }
}

impl<G: ScheduleGen> ScheduleGen for EnvelopeClamp<G> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        self.inner.step(j, buf);
        let lo = self.envelope.min_label(j);
        for l in buf.labels.iter_mut() {
            *l = (*l).clamp(lo, j - 1);
        }
    }

    fn label_floor(&self, j: u64) -> u64 {
        self.envelope.min_label(j).max(self.inner.label_floor(j))
    }

    fn describe(&self) -> String {
        format!(
            "clamp({}) ∘ {}",
            self.envelope.describe(),
            self.inner.describe()
        )
    }
}

/// Forces condition (c) constructively: tracks each component's last
/// activation and inserts any component whose gap would reach `max_gap`
/// into `S_j`, so activation gaps stay `< max_gap` no matter how the
/// inner generator (or a thinning mutation) steers. Forced components
/// read the same labels the step already carries, which keeps the
/// envelope certificate intact.
#[derive(Debug, Clone)]
pub struct CoverageGuard<G> {
    inner: G,
    max_gap: u64,
    last: Vec<u64>,
}

impl<G: ScheduleGen> CoverageGuard<G> {
    /// Guards `inner` so every component updates at least once per
    /// `max_gap` iterations.
    ///
    /// # Panics
    /// Panics when `max_gap == 0`.
    pub fn new(inner: G, max_gap: u64) -> Self {
        assert!(max_gap > 0, "CoverageGuard: max_gap must be positive");
        let n = inner.n();
        Self {
            inner,
            max_gap,
            last: vec![0; n],
        }
    }
}

impl<G: ScheduleGen> ScheduleGen for CoverageGuard<G> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        self.inner.step(j, buf);
        let mut dirty = false;
        for (i, &last) in self.last.iter().enumerate() {
            if j - last >= self.max_gap && !buf.active.contains(&i) {
                buf.active.push(i);
                dirty = true;
            }
        }
        if dirty {
            buf.active.sort_unstable();
        }
        for &i in &buf.active {
            self.last[i] = j;
        }
    }

    fn label_floor(&self, j: u64) -> u64 {
        self.inner.label_floor(j)
    }

    fn describe(&self) -> String {
        format!("cover(gap<{}) ∘ {}", self.max_gap, self.inner.describe())
    }
}

/// Random label mutation: each component's label is, with probability
/// `prob`, redrawn uniformly from the envelope window `[j − D(j), j − 1]`.
/// Injects extra delay variance and out-of-order reads while staying
/// admissible — the "random delay/label mutations" of the conformance
/// fuzzer.
#[derive(Debug)]
pub struct LabelJitter<G> {
    inner: G,
    envelope: crate::conditions::DelayEnvelope,
    prob: f64,
    rng: StdRng,
}

impl<G: ScheduleGen> LabelJitter<G> {
    /// Jitters `inner`'s labels within `envelope` with per-component
    /// probability `prob`.
    ///
    /// # Panics
    /// Panics unless `0.0 ≤ prob ≤ 1.0`.
    pub fn new(inner: G, envelope: crate::conditions::DelayEnvelope, prob: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&prob),
            "LabelJitter: prob must be in [0, 1]"
        );
        Self {
            inner,
            envelope,
            prob,
            rng: asynciter_numerics::rng::rng(seed),
        }
    }
}

impl<G: ScheduleGen> ScheduleGen for LabelJitter<G> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        self.inner.step(j, buf);
        let lo = self.envelope.min_label(j);
        for l in buf.labels.iter_mut() {
            if self.rng.random_range(0.0..1.0) < self.prob {
                *l = self.rng.random_range(lo..=j - 1);
            }
        }
    }

    /// A label is the inner one or a redraw from the envelope window.
    fn label_floor(&self, j: u64) -> u64 {
        self.envelope.min_label(j).min(self.inner.label_floor(j))
    }

    fn describe(&self) -> String {
        format!(
            "jitter({}, p={}) ∘ {}",
            self.envelope.describe(),
            self.prob,
            self.inner.describe()
        )
    }
}

/// Random partial-update mutation: drops each active component
/// independently with probability `1 − keep_prob`, modelling machines
/// that update only part of their block per iteration (flexible partial
/// updates in schedule form). When everything would be dropped, one
/// random survivor of the original set is kept so `S_j` stays nonempty.
/// Compose under a [`CoverageGuard`] to retain condition (c).
#[derive(Debug)]
pub struct ActiveThin<G> {
    inner: G,
    keep_prob: f64,
    rng: StdRng,
}

impl<G: ScheduleGen> ActiveThin<G> {
    /// Thins `inner`'s active sets, keeping each member with probability
    /// `keep_prob`.
    ///
    /// # Panics
    /// Panics unless `0.0 < keep_prob ≤ 1.0`.
    pub fn new(inner: G, keep_prob: f64, seed: u64) -> Self {
        assert!(
            keep_prob > 0.0 && keep_prob <= 1.0,
            "ActiveThin: keep_prob must be in (0, 1]"
        );
        Self {
            inner,
            keep_prob,
            rng: asynciter_numerics::rng::rng(seed),
        }
    }
}

impl<G: ScheduleGen> ScheduleGen for ActiveThin<G> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        self.inner.step(j, buf);
        if buf.active.len() <= 1 {
            return;
        }
        let fallback = buf.active[self.rng.random_range(0..buf.active.len())];
        let rng = &mut self.rng;
        let keep = self.keep_prob;
        buf.active.retain(|_| rng.random_range(0.0..1.0) < keep);
        if buf.active.is_empty() {
            buf.active.push(fallback);
        }
    }

    fn label_floor(&self, j: u64) -> u64 {
        self.inner.label_floor(j)
    }

    fn describe(&self) -> String {
        format!("thin(keep={}) ∘ {}", self.keep_prob, self.inner.describe())
    }
}

// ---------------------------------------------------------------------------
// Replay of recorded traces
// ---------------------------------------------------------------------------

/// Replays a recorded trace (with full labels) as a schedule — the bridge
/// from real multi-threaded runs back into the deterministic replay engine.
#[derive(Debug, Clone)]
pub struct RecordedSchedule {
    trace: Trace,
    /// `floors[k]`: the smallest label of any step `≥ k + 1`.
    floors: Vec<u64>,
}

impl RecordedSchedule {
    /// Wraps a trace recorded with [`LabelStore::Full`].
    ///
    /// # Errors
    /// [`crate::ModelError::LabelsNotStored`] for min-only traces,
    /// [`crate::ModelError::EmptyTrace`] for empty ones.
    pub fn new(trace: Trace) -> crate::Result<Self> {
        if trace.store() != LabelStore::Full {
            return Err(crate::ModelError::LabelsNotStored);
        }
        if trace.is_empty() {
            return Err(crate::ModelError::EmptyTrace);
        }
        let floors = trace.min_label_suffix();
        Ok(Self { trace, floors })
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the underlying trace is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }
}

impl ScheduleGen for RecordedSchedule {
    fn n(&self) -> usize {
        self.trace.n()
    }

    /// # Panics
    /// Panics when `j` exceeds the recorded length.
    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        let s = self.trace.step(j);
        buf.active.clear();
        buf.active.extend(s.active.iter().map(|&i| i as usize));
        let labels = self.trace.labels(j).expect("checked Full in constructor");
        buf.labels.clear();
        buf.labels.extend_from_slice(labels);
    }

    /// The suffix minimum of the recorded steps' smallest labels (the
    /// last step's beyond the recorded length).
    fn label_floor(&self, j: u64) -> u64 {
        match j.min(self.floors.len() as u64) {
            0 => 0,
            k => self.floors[k as usize - 1],
        }
    }

    fn describe(&self) -> String {
        format!("recorded(n={}, steps={})", self.trace.n(), self.trace.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partition;

    fn run(gen: &mut dyn ScheduleGen, steps: u64) -> Trace {
        record(gen, steps, LabelStore::Full)
    }

    #[test]
    fn sync_jacobi_updates_everything_fresh() {
        let t = run(&mut SyncJacobi::new(3), 5);
        for (j, s) in t.iter() {
            assert_eq!(s.active, vec![0, 1, 2]);
            assert_eq!(s.min_label, j - 1);
        }
    }

    #[test]
    fn cyclic_visits_components_in_order() {
        let t = run(&mut CyclicCoordinate::new(3), 6);
        let order: Vec<u32> = t.iter().map(|(_, s)| s.active[0]).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn block_round_robin_covers_blocks() {
        let p = Partition::blocks(4, 2).unwrap();
        let t = run(&mut BlockRoundRobin::new(p, 1), 4);
        assert_eq!(t.step(1).active, vec![0, 1]);
        assert_eq!(t.step(2).active, vec![2, 3]);
        assert_eq!(t.step(3).active, vec![0, 1]);
    }

    #[test]
    fn block_round_robin_lag_clamps_at_zero() {
        let p = Partition::blocks(2, 2).unwrap();
        let t = run(&mut BlockRoundRobin::new(p, 5), 3);
        assert_eq!(t.step(1).min_label, 0);
        assert_eq!(t.step(3).min_label, 0);
    }

    #[test]
    fn chaotic_bounded_respects_delay_bound() {
        let mut g = ChaoticBounded::new(8, 1, 4, 3, false, 11);
        let t = run(&mut g, 200);
        for (j, s) in t.iter() {
            assert!(s.min_label >= j.saturating_sub(3));
            assert!(s.min_label < j);
            assert!(!s.active.is_empty() && s.active.len() <= 4);
        }
    }

    #[test]
    fn chaotic_monotone_labels_never_decrease() {
        let mut g = ChaoticBounded::new(4, 1, 2, 16, true, 7);
        let t = run(&mut g, 300);
        for h in 0..4 {
            let mut prev = 0u64;
            for j in 1..=t.len() as u64 {
                let l = t.labels(j).unwrap()[h];
                assert!(l >= prev, "component {h} label decreased at j={j}");
                prev = l;
            }
        }
    }

    #[test]
    fn chaotic_nonmonotone_reorders_labels() {
        let mut g = ChaoticBounded::new(4, 1, 2, 16, false, 7);
        let t = run(&mut g, 300);
        let mut decreased = false;
        'outer: for h in 0..4 {
            let mut prev = 0u64;
            for j in 1..=t.len() as u64 {
                let l = t.labels(j).unwrap()[h];
                if l < prev {
                    decreased = true;
                    break 'outer;
                }
                prev = l;
            }
        }
        assert!(decreased, "expected at least one out-of-order label");
    }

    #[test]
    fn unbounded_sqrt_delays_grow() {
        let mut g = UnboundedSqrtDelay::new(4, 4, 4, 1.0, 3);
        let t = run(&mut g, 5000);
        // Delays beyond any small constant appear...
        let max_delay = t.iter().map(|(j, s)| j - s.min_label).max().unwrap();
        assert!(max_delay > 16, "max delay {max_delay}");
        // ...but labels still grow: the suffix minimum at the end is large.
        let suffix = t.min_label_suffix();
        assert!(suffix[4000] > 3500, "suffix {}", suffix[4000]);
    }

    #[test]
    fn heavy_tail_produces_extreme_delays() {
        let mut g = HeavyTailDelay::new(4, 4, 4, 1.1, 5);
        let t = run(&mut g, 20_000);
        let max_delay = t.iter().map(|(j, s)| j - s.min_label).max().unwrap();
        assert!(max_delay > 100, "max delay {max_delay}");
    }

    #[test]
    fn starved_component_disappears() {
        let inner = SyncJacobi::new(3);
        let mut g = StarvedComponent::new(inner, 1, 10);
        let t = run(&mut g, 30);
        for (j, s) in t.iter() {
            if j > 10 {
                assert!(!s.active.contains(&1), "victim active at j={j}");
            }
        }
        // Before the cutoff it was active.
        assert!(t.step(5).active.contains(&1));
    }

    #[test]
    fn starved_fallback_keeps_steps_nonempty() {
        let inner = CyclicCoordinate::new(2);
        let mut g = StarvedComponent::new(inner, 0, 0);
        let t = run(&mut g, 10);
        for (_, s) in t.iter() {
            assert!(!s.active.is_empty());
            assert!(!s.active.contains(&0));
        }
    }

    #[test]
    fn frozen_label_caps_victim() {
        let inner = SyncJacobi::new(2);
        let mut g = FrozenLabelAdversary::new(inner, 0, 3);
        let t = run(&mut g, 50);
        for j in 1..=50u64 {
            let l = t.labels(j).unwrap();
            assert!(l[0] <= 3);
            assert_eq!(l[1], j - 1);
        }
    }

    #[test]
    fn recorded_schedule_replays_exactly() {
        let mut g = ChaoticBounded::new(5, 1, 3, 4, false, 99);
        let t = run(&mut g, 50);
        let mut replay = RecordedSchedule::new(t.clone()).unwrap();
        let t2 = record(&mut replay, 50, LabelStore::Full);
        for j in 1..=50u64 {
            assert_eq!(t.step(j).active, t2.step(j).active);
            assert_eq!(t.labels(j).unwrap(), t2.labels(j).unwrap());
        }
    }

    #[test]
    fn recorded_schedule_rejects_min_only() {
        let mut g = SyncJacobi::new(2);
        let t = record(&mut g, 5, LabelStore::MinOnly);
        assert!(RecordedSchedule::new(t).is_err());
    }

    #[test]
    fn condition_a_structurally_respected_by_all_generators() {
        let p = Partition::blocks(6, 3).unwrap();
        let gens: Vec<Box<dyn ScheduleGen>> = vec![
            Box::new(SyncJacobi::new(6)),
            Box::new(CyclicCoordinate::new(6)),
            Box::new(BlockRoundRobin::new(p, 2)),
            Box::new(ChaoticBounded::new(6, 1, 6, 5, false, 1)),
            Box::new(ChaoticBounded::new(6, 1, 6, 5, true, 2)),
            Box::new(UnboundedSqrtDelay::new(6, 1, 6, 2.0, 3)),
            Box::new(HeavyTailDelay::new(6, 1, 6, 1.5, 4)),
        ];
        for mut g in gens {
            let t = record(g.as_mut(), 100, LabelStore::Full);
            for (j, _) in t.iter() {
                let labels = t.labels(j).unwrap();
                assert!(
                    labels.iter().all(|&l| l < j),
                    "{} violated condition (a) at j={j}",
                    g.describe()
                );
            }
        }
    }

    #[test]
    fn envelope_clamp_certifies_a_and_b() {
        use crate::conditions::{AdmissibilityWitness, DelayEnvelope};
        // Even an adversarially frozen label is pulled back into the
        // envelope window.
        let inner = FrozenLabelAdversary::new(ChaoticBounded::new(5, 1, 3, 64, false, 3), 2, 0);
        let mut g = EnvelopeClamp::new(inner, DelayEnvelope::Bounded(6));
        let t = run(&mut g, 300);
        let w = AdmissibilityWitness::new(DelayEnvelope::Bounded(6), 300);
        assert!(w.check(&t).is_ok());
    }

    #[test]
    fn coverage_guard_bounds_gaps() {
        use crate::conditions::activation_gaps;
        // Cyclic over 8 thinned hard: without the guard, gaps can grow
        // arbitrarily; with it they stay below the bound.
        let inner = ActiveThin::new(ChaoticBounded::new(8, 1, 2, 4, false, 9), 0.5, 13);
        let mut g = CoverageGuard::new(inner, 10);
        let t = run(&mut g, 500);
        assert!(activation_gaps(&t).iter().all(|&gap| gap < 10));
        // Forced insertions preserve the structural invariants (checked
        // by Trace::push_step) and condition (a).
        assert!(crate::conditions::check_condition_a(&t).is_ok());
    }

    #[test]
    fn label_jitter_stays_in_envelope_and_mutates() {
        use crate::conditions::DelayEnvelope;
        let env = DelayEnvelope::Bounded(12);
        let mut plain = SyncJacobi::new(4);
        let t_plain = run(&mut plain, 200);
        let mut g = LabelJitter::new(SyncJacobi::new(4), env, 0.5, 17);
        let t = run(&mut g, 200);
        let mut mutated = false;
        for j in 1..=200u64 {
            let lo = env.min_label(j);
            for (h, &l) in t.labels(j).unwrap().iter().enumerate() {
                assert!(l >= lo && l < j, "label {l} outside envelope at j={j}");
                if l != t_plain.labels(j).unwrap()[h] {
                    mutated = true;
                }
            }
        }
        assert!(mutated, "jitter with p=0.5 never mutated a label");
    }

    #[test]
    fn active_thin_keeps_steps_nonempty() {
        let mut g = ActiveThin::new(SyncJacobi::new(6), 0.2, 23);
        let t = run(&mut g, 300);
        let mut thinned = false;
        for (_, s) in t.iter() {
            assert!(!s.active.is_empty());
            if s.active.len() < 6 {
                thinned = true;
            }
        }
        assert!(thinned, "keep=0.2 never dropped a component");
    }

    #[test]
    fn composed_stack_is_admissible_by_construction() {
        use crate::conditions::{AdmissibilityWitness, DelayEnvelope};
        let env = DelayEnvelope::SqrtGrowth { c: 1.5 };
        let base = HeavyTailDelay::new(10, 1, 5, 1.2, 31);
        let stack = CoverageGuard::new(
            EnvelopeClamp::new(
                LabelJitter::new(ActiveThin::new(base, 0.6, 32), env, 0.3, 33),
                env,
            ),
            25,
        );
        let mut g = stack;
        let t = run(&mut g, 1000);
        let w = AdmissibilityWitness::new(env, 25);
        assert!(w.check(&t).is_ok(), "{:?}", w.check(&t));
        assert!(g.describe().contains("cover"));
        assert!(g.describe().contains("clamp"));
    }

    /// Steps `gen` through `steps` iterations and checks the promise of
    /// [`ScheduleGen::label_floor`]: it never decreases, and no label of
    /// step `j` lies below `label_floor(j)`. Returns the last floor.
    fn keeps_floor_promise(gen: &mut dyn ScheduleGen, steps: u64) -> u64 {
        let mut buf = StepBuf::new(gen.n());
        let mut prev = 0;
        for j in 1..=steps {
            gen.step(j, &mut buf);
            let floor = gen.label_floor(j);
            assert!(floor >= prev, "{}: floor fell at j={j}", gen.describe());
            let min = *buf.labels.iter().min().unwrap();
            assert!(min >= floor, "{}: label {min} at j={j}", gen.describe());
            prev = floor;
        }
        prev
    }

    #[test]
    fn sqrt_delay_floor_is_its_own_smallest_label() {
        // The largest f64 below 1: at j = 4^q, c√j is the largest f64
        // below 2^q, one ulp under an integer, and `⌊1.0 + c√j⌋` rounds
        // up to 2^q + 1 where the envelope's `1 + ⌊c√j⌋` gives 2^q.
        let below_one = 1.0 - f64::EPSILON / 2.0;
        for c in [0.5, 1.0, 10.0, below_one] {
            for seed in 1..=3 {
                let mut g = UnboundedSqrtDelay::new(8, 1, 8, c, seed);
                let last = keeps_floor_promise(&mut g, 5_000);
                assert!(last > 4_000, "c={c}: floor {last} at j=5000");
            }
        }
        // At c = 10 the delay bound covers j for about 100 steps.
        let g = UnboundedSqrtDelay::new(8, 1, 8, 10.0, 1);
        assert_eq!(g.label_floor(100), 0);
        assert!(g.label_floor(110) > 0);
        // Where the two roundings part, the generator's floor is the lower
        // one, and a label sits on it: the envelope's would be broken.
        let env = crate::conditions::DelayEnvelope::SqrtGrowth { c: below_one };
        let mut g = UnboundedSqrtDelay::new(64, 1, 64, below_one, 5);
        let mut buf = StepBuf::new(64);
        for j in 1..=16 {
            g.step(j, &mut buf);
        }
        assert_eq!(g.label_floor(16), 11);
        assert_eq!(env.min_label(16), 12);
        assert!(buf.labels.contains(&11), "{:?}", buf.labels);
    }

    #[test]
    fn every_generator_keeps_its_floor_promise() {
        use crate::conditions::DelayEnvelope;
        let envelopes = [
            DelayEnvelope::Bounded(6),
            DelayEnvelope::SqrtGrowth { c: 1.5 },
        ];
        for seed in 1..=3 {
            let p = Partition::blocks(6, 3).unwrap();
            let mut gens: Vec<Box<dyn ScheduleGen>> = vec![
                Box::new(SyncJacobi::new(6)),
                Box::new(CyclicCoordinate::new(6)),
                Box::new(BlockRoundRobin::new(p, 4)),
                Box::new(ChaoticBounded::new(6, 1, 6, 5, false, seed)),
                Box::new(ChaoticBounded::new(6, 1, 6, 5, true, seed)),
                Box::new(HeavyTailDelay::new(6, 1, 6, 1.5, seed)),
                Box::new(StarvedComponent::new(SyncJacobi::new(6), 1, 10)),
                Box::new(FrozenLabelAdversary::new(SyncJacobi::new(6), 0, 3)),
                Box::new(CoverageGuard::new(
                    ActiveThin::new(ChaoticBounded::new(6, 1, 3, 9, false, seed), 0.5, seed),
                    12,
                )),
            ];
            for env in envelopes {
                let heavy = || HeavyTailDelay::new(6, 1, 6, 1.2, seed);
                let chaotic = || ChaoticBounded::new(6, 1, 6, 40, false, seed);
                gens.push(Box::new(EnvelopeClamp::new(heavy(), env)));
                gens.push(Box::new(EnvelopeClamp::new(chaotic(), env)));
                gens.push(Box::new(LabelJitter::new(heavy(), env, 0.3, seed)));
                gens.push(Box::new(LabelJitter::new(chaotic(), env, 0.3, seed)));
                gens.push(Box::new(EnvelopeClamp::new(
                    LabelJitter::new(SyncJacobi::new(6), env, 0.5, seed),
                    env,
                )));
            }
            for mut g in gens {
                keeps_floor_promise(g.as_mut(), 5_000);
            }
        }
    }

    #[test]
    fn recorded_schedule_floor_is_the_suffix_minimum() {
        // An out-of-order trace: a later step may read older labels than
        // an earlier one, so the floor is the suffix minimum, not the
        // step's own minimum.
        let t = run(&mut ChaoticBounded::new(5, 1, 3, 30, false, 99), 5_000);
        let mut g = RecordedSchedule::new(t.clone()).unwrap();
        assert!(keeps_floor_promise(&mut g, 5_000) > 4_900);
        let suffix = t.min_label_suffix();
        let below_own_min = (1..=5_000u64).filter(|&j| g.label_floor(j) < t.step(j).min_label);
        assert!(below_own_min.count() > 0);
        assert_eq!(g.label_floor(5_000), suffix[4_999]);
        assert_eq!(g.label_floor(9_999), suffix[4_999]);
    }

    #[test]
    fn describe_mentions_parameters() {
        assert!(SyncJacobi::new(4).describe().contains("n=4"));
        assert!(ChaoticBounded::new(4, 1, 2, 9, true, 0)
            .describe()
            .contains("b=9"));
    }
}
