//! The benchmark's workloads. Every generator of instances and jobs lives
//! in this directory: the program receives only generated inputs, and a
//! change to the repo's own test or gate builders cannot move a number
//! here.

mod record_replay;
mod service;
mod solve;
mod threaded_exchange;

use crate::trace::Tracer;
use asynciter_opt::traits::Operator;
use asynciter_report::stream::hash_f64s;

/// Seed of every matrix and data set. They are the same on every
/// `--seed`, which drives the random streams a run consumes instead:
/// schedules, link latencies, fault fates, job seeds. A random instance's
/// contraction factor and right-hand side — and with them the steps to
/// the residual target — vary by tens of percent between draws; a
/// benchmark that compares commits must not let that variation drown a
/// regression.
pub const INSTANCE_SEED: u64 = 2022;

/// The seed of random stream `stream` of a run seeded `seed`.
///
/// Under a random asynchronous schedule the steps to a residual target
/// are themselves random (±5–9 % between draws on these workloads, the
/// matrix held fixed). A run therefore draws a fresh schedule or fault
/// stream for every timed operation and reports medians over the draws;
/// stream 0 is the warm-up's, repeated wherever bit-identity is checked.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    asynciter_numerics::rng::child_seed(seed, stream)
}

/// What one operation produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Wall time of the timed part of the operation, in seconds. Output
    /// checks run after it and are not included.
    pub wall_s: f64,
    /// Engine steps the operation needed to reach its residual target.
    pub steps: u64,
    /// Digest of the operation's outputs (final iterate bits, per-tenant
    /// hashes); equal on every repetition of a deterministic workload.
    pub hash: u64,
    /// Operations attempted: one per solve or cycle, one per job.
    pub attempted: u64,
    /// Operations that failed an output check, with the reasons.
    pub failures: Vec<String>,
    /// Exact counters read from the program's own result structs, by
    /// per-layer metric name.
    pub counters: Vec<(&'static str, f64)>,
    /// `(tenant, run time in milliseconds)` of every job that ran
    /// (service workloads only).
    pub job_ms: Vec<(u64, f64)>,
}

impl Outcome {
    /// An operation (of `attempted` units) that could not run at all.
    pub fn failed(attempted: u64, why: String) -> Self {
        Self {
            attempted,
            failures: vec![why],
            ..Self::default()
        }
    }

    /// Records a failed output check.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }
}

/// Arithmetic and memory traffic of one operator, computed from its
/// array sizes — not measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel {
    /// Flops per block-update call that do not depend on the block size.
    pub call_flops: f64,
    /// Bytes read or written per block-update call, likewise.
    pub call_bytes: f64,
    /// Flops per updated component.
    pub comp_flops: f64,
    /// Bytes per updated component.
    pub comp_bytes: f64,
    /// Dimension (a residual evaluation costs one call plus `n`
    /// components).
    pub n: f64,
}

impl CostModel {
    /// Cost of a CSR operator whose component `i` folds row `i`: a
    /// multiply-add per stored entry; value, column index and the
    /// gathered `x` entry per stored entry, plus `b_i` and the output.
    pub fn csr(rows: usize, nnz: usize) -> Self {
        let per_row = nnz as f64 / rows as f64;
        Self {
            call_flops: 0.0,
            call_bytes: 0.0,
            comp_flops: 2.0 * per_row,
            comp_bytes: 24.0 * per_row + 16.0,
            n: rows as f64,
        }
    }
}

/// One benchmark workload: a generated instance plus the operation that
/// is timed on it.
pub trait Workload {
    /// Threads the timed operation keeps busy.
    fn threads(&self) -> usize {
        1
    }

    /// Whether every repetition on the same stream must produce the same
    /// steps and digest.
    fn deterministic(&self) -> bool {
        true
    }

    /// Whether the operation consumes a random stream of its own (see
    /// [`stream_seed`]); otherwise every operation repeats the same work.
    fn redraws(&self) -> bool {
        true
    }

    /// Digest of the generated inputs, pinned in `pins.json`.
    fn fingerprint(&self) -> u64;

    /// Runs the operation once on random stream `stream`. With a tracer,
    /// the seam decorators are installed and spans recorded.
    fn op(&mut self, stream: u64, tracer: Option<&Tracer>) -> Outcome;

    /// Untimed output checks that need more than one operation's result
    /// (cross-mode digests, bitwise replay of a recorded run). Counts
    /// into `attempted`/`failures` like an operation.
    fn verify(&mut self, reference: &Outcome) -> Outcome;

    /// The operator cost model, when the workload drives one operator.
    fn cost(&self) -> CostModel {
        CostModel::default()
    }

    /// Single-thread probes and other per-layer figures that do not come
    /// from the span log, by metric name.
    fn probes(&mut self, reference: &Outcome) -> Vec<(&'static str, f64)>;
}

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 6] = [
    "replay_sparse",
    "logistic_dense",
    "record_replay",
    "threaded_exchange",
    "service_mix",
    "service_serial",
];

/// Builds the named workload from `seed` (instance and certificate
/// construction; the caller times it as part of set-up).
///
/// # Errors
/// An unknown name, or an instance that fails its certificate.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "replay_sparse" => Box::new(solve::replay_sparse(seed)?),
        "logistic_dense" => Box::new(solve::logistic_dense(seed)?),
        "record_replay" => Box::new(record_replay::RecordReplay::new(seed)?),
        "threaded_exchange" => Box::new(threaded_exchange::ThreadedExchange::new(seed)?),
        "service_mix" => Box::new(service::ServiceLoad::new(seed, true)),
        "service_serial" => Box::new(service::ServiceLoad::new(seed, false)),
        other => {
            return Err(format!(
                "unknown workload `{other}` (known: {})",
                NAMES.join(", ")
            ))
        }
    })
}

/// Digest of an operator's data, taken through the trait: `F` applied to
/// a fixed probe vector touches every stored coefficient.
pub fn operator_fingerprint(op: &dyn Operator) -> u64 {
    let n = op.dim();
    let probe: Vec<f64> = (0..n)
        .map(|i| ((i * 37 + 11) % 101) as f64 / 101.0 - 0.5)
        .collect();
    let mut out = vec![0.0; n];
    op.apply(&probe, &mut out);
    hash_f64s(&out)
}

/// The residual check every solve gets, recomputed from outside the
/// engine: `‖x − F(x)‖_∞ ≤ eps · slack`.
pub fn check_residual(out: &mut Outcome, op: &dyn Operator, x: &[f64], eps: f64, slack: f64) {
    let r = op.residual_inf(x);
    if r.is_nan() || r > eps * slack {
        out.fail(format!(
            "residual {r:e} above target {eps:e} (slack {slack})"
        ));
    }
}

/// FNV-1a over 64-bit words, the same digest `hash_f64s` takes of float
/// bits, for inputs that are not floats.
pub fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Runs `f` inside a span when tracing, plainly otherwise.
pub fn span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}
