//! One run of one workload in this process: set-up, the measured loop (or
//! the traced operations), the output checks, and the metrics.

use crate::config::{Catalogue, Facts, MetricDef, PINNED_COUNTERS};
use crate::ledger::{self, Ledger, TracedRun};
use crate::stats::median_of;
use crate::trace::{spans_to_json, Span, Tracer};
use crate::workloads::{self, Outcome, Workload};
use asynciter_report::json::Json;
use asynciter_report::stream::render_hash;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed operations of a measured loop, however long they take.
const MIN_SAMPLES: usize = 5;
/// Fewest untraced operations a traced run measures for its base line.
const MIN_BASE_SAMPLES: usize = 3;
/// Operations the traced run repeats with the decorators installed.
const TRACED_OPS: usize = 2;
/// The random stream of the warm-up and of every operation whose bits
/// are compared with it.
const WARM_UP_STREAM: u64 = 0;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed one.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in the catalogue.
    pub name: String,
    /// Unit, as in the catalogue.
    pub unit: String,
    /// The value.
    pub value: f64,
    /// Samples it summarises.
    pub samples: usize,
}

/// The result of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// No output check failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// Every metric of the run's kind, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Pinnable facts the run produced, rendered: the input fingerprint
    /// (as `fingerprint`) and the exact counters of a deterministic
    /// workload.
    pub pins: Facts,
    /// Why the run is not correct, if it is not.
    pub complaints: Vec<String>,
    /// The span log (traced runs).
    pub spans: Vec<Span>,
}

impl RunResult {
    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::Obj(vec![
                                    ("value".into(), Json::Num(m.value)),
                                    ("unit".into(), Json::Str(m.unit.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The span log as a trace document.
    pub fn trace_json(&self, args: &RunArgs) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(args.workload.clone())),
            ("seed".into(), Json::Num(args.seed as f64)),
            ("spans".into(), spans_to_json(&self.spans)),
        ])
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Tallies attempted and failed operations and keeps the reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    complaints: Vec<String>,
}

impl Tally {
    fn add(&mut self, what: &str, outcome: &Outcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failures.len() as u64;
        for why in &outcome.failures {
            self.complaints.push(format!("{what}: {why}"));
        }
    }

    /// Every repetition of a deterministic workload on the same random
    /// stream takes the same steps to the same bits.
    fn same_as(&mut self, what: &str, reference: &Outcome, outcome: &Outcome) {
        if (outcome.steps, outcome.hash) != (reference.steps, reference.hash) {
            self.failed += 1;
            self.complaints.push(format!(
                "{what}: steps {} digest {} differ from the stream's first repetition ({} / {})",
                outcome.steps,
                render_hash(outcome.hash),
                reference.steps,
                render_hash(reference.hash)
            ));
        }
    }
}

impl Tally {
    /// The run's result. The pinnable facts are the input fingerprint
    /// and, for a deterministic workload, its exact `counters`.
    fn finish(
        self,
        workload: &dyn Workload,
        metrics: Vec<Metric>,
        counters: Facts,
        spans: Vec<Span>,
    ) -> RunResult {
        let mut pins = vec![(
            "fingerprint".to_string(),
            render_hash(workload.fingerprint()),
        )];
        if workload.deterministic() {
            pins.extend(counters);
        }
        RunResult {
            correct: self.complaints.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            pins,
            complaints: self.complaints,
            spans,
        }
    }
}

/// Builds the workload and runs its warm-up operation; returns both and
/// the time they took together.
fn set_up(args: &RunArgs) -> Result<(Box<dyn Workload>, Outcome, f64), String> {
    let start = Instant::now();
    let mut workload = workloads::build(&args.workload, args.seed)?;
    let warm_up = workload.op(WARM_UP_STREAM, None);
    Ok((workload, warm_up, start.elapsed().as_secs_f64()))
}

/// Repeats the untraced operation for `seconds`, at least `min` times,
/// each repetition on a random stream of its own where the workload
/// consumes one.
fn measure(workload: &mut dyn Workload, seconds: f64, min: usize) -> Vec<Outcome> {
    let start = Instant::now();
    let mut outcomes = Vec::new();
    while outcomes.len() < min || start.elapsed().as_secs_f64() < seconds {
        let stream = if workload.redraws() {
            WARM_UP_STREAM + 1 + outcomes.len() as u64
        } else {
            WARM_UP_STREAM
        };
        outcomes.push(workload.op(stream, None));
    }
    outcomes
}

fn metric(def: &MetricDef, value: f64, samples: usize) -> Metric {
    Metric {
        name: def.name.clone(),
        unit: def.unit.clone(),
        value,
        samples,
    }
}

/// Runs the workload as `args` say.
///
/// # Errors
/// An unknown workload, an instance that cannot be built, or a metric
/// the catalogue names and the run did not produce (a bug here).
pub fn run(args: &RunArgs, catalogue: &Catalogue) -> Result<RunResult, String> {
    if args.trace {
        traced(args, catalogue)
    } else {
        timed(args, catalogue)
    }
}

fn timed(args: &RunArgs, catalogue: &Catalogue) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let (mut setups, mut warm_ups) = (Vec::new(), Vec::new());
    let mut workload = None;
    for _ in 0..SETUPS {
        // One instance at a time: peak memory is a metric.
        drop(workload.take());
        let (built, warm_up, secs) = set_up(args)?;
        setups.push(secs);
        warm_ups.push(warm_up);
        workload = Some(built);
    }
    let mut workload = workload.expect("SETUPS > 0");
    let reference = &warm_ups[0];
    for warm_up in &warm_ups {
        tally.add("warm-up", warm_up);
        if workload.deterministic() {
            tally.same_as("warm-up", reference, warm_up);
        }
    }
    // Read before the measured loop: its operations draw streams of
    // different lengths, and the longest of them — not the program —
    // would set the peak. Set-up ran the operation three times.
    let peak_rss = peak_rss_mb()?;

    let outcomes = measure(workload.as_mut(), args.seconds, MIN_SAMPLES);
    for (i, outcome) in outcomes.iter().enumerate() {
        tally.add(&format!("operation {i}"), outcome);
        if workload.deterministic() && !workload.redraws() {
            tally.same_as(&format!("operation {i}"), reference, outcome);
        }
    }
    tally.add("verification", &workload.verify(reference));

    let walls: Vec<f64> = outcomes.iter().map(|o| o.wall_s).collect();
    let steps: Vec<f64> = outcomes.iter().map(|o| o.steps as f64).collect();
    let rates: Vec<f64> = outcomes.iter().map(|o| o.steps as f64 / o.wall_s).collect();
    let metrics = catalogue
        .end_to_end
        .iter()
        .map(|def| {
            Ok(match def.name.as_str() {
                "setup_s" => metric(def, median_of(&setups), setups.len()),
                "solve_s" => metric(def, median_of(&walls), walls.len()),
                "steps_per_s" => metric(def, median_of(&rates), rates.len()),
                "steps_to_target" => metric(def, median_of(&steps), steps.len()),
                "peak_rss_mb" => metric(def, peak_rss, 1),
                other => return Err(format!("no end-to-end metric `{other}` is measured")),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;

    let counters = vec![("steps_to_target".to_string(), reference.steps.to_string())];
    Ok(tally.finish(workload.as_ref(), metrics, counters, Vec::new()))
}

fn traced(args: &RunArgs, catalogue: &Catalogue) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let (mut workload, reference, _) = set_up(args)?;
    tally.add("warm-up", &reference);

    // End-to-end metrics never come from this run; the untraced
    // operations here only give the base line the tracing overhead is
    // stated against, from the same process and instance.
    let untraced = measure(workload.as_mut(), args.seconds / 3.0, MIN_BASE_SAMPLES);
    let tracer = Tracer::new();
    let traced: Vec<(u64, Outcome)> = (0..TRACED_OPS)
        .map(|_| {
            let op = tracer.next_op();
            (op, workload.op(WARM_UP_STREAM, Some(&tracer)))
        })
        .collect();
    for outcome in &untraced {
        tally.add("untraced operation", outcome);
        if workload.deterministic() && !workload.redraws() {
            tally.same_as("untraced operation", &reference, outcome);
        }
    }
    for (_, outcome) in &traced {
        tally.add("traced operation", outcome);
        if workload.deterministic() {
            // Decorators on or off, the bits are the same.
            tally.same_as("traced operation", &reference, outcome);
        }
    }
    tally.add("verification", &workload.verify(&reference));

    let probes = workload.probes(typical(&untraced));
    let spans = tracer.spans();
    let ledger = ledger::build(&TracedRun {
        spans: &spans,
        traced: &traced,
        untraced: &untraced,
        threads: workload.threads(),
        cost: workload.cost(),
        probes: &probes,
    });
    if let Some(stray) = ledger
        .keys()
        .find(|k| !catalogue.per_layer.iter().any(|d| &d.name == *k))
    {
        return Err(format!(
            "per-layer metric `{stray}` is measured but not in BENCHMARK.json"
        ));
    }
    // A layer the workload bypasses did no work: its metrics read zero.
    let metrics = catalogue
        .per_layer
        .iter()
        .map(|def| {
            metric(
                def,
                ledger.get(&def.name).copied().unwrap_or(0.0),
                traced.len(),
            )
        })
        .collect();

    let counters = pinned_counters(&ledger);
    Ok(tally.finish(workload.as_ref(), metrics, counters, spans))
}

/// The operation whose wall time is the (upper) median.
fn typical(outcomes: &[Outcome]) -> &Outcome {
    let mut by_wall: Vec<&Outcome> = outcomes.iter().collect();
    by_wall.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    by_wall[by_wall.len() / 2]
}

/// The exact counters of the ledger that are pinned (those the workload
/// produced: a bypassed layer's zero is not a fact worth pinning).
fn pinned_counters(ledger: &Ledger) -> Facts {
    PINNED_COUNTERS
        .iter()
        .filter_map(|&name| {
            ledger
                .get(name)
                .filter(|&&v| v != 0.0)
                .map(|&v| (name.to_string(), Json::Num(v).render()))
        })
        .collect()
}
