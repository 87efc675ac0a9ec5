//! The whole set: every workload in a fresh process each (so that peak
//! memory is per workload), the pin check, `out/result.json`, and the
//! self-check that runs the set twice.

use crate::config::{Catalogue, Facts, Pins, PINS_JSON};
use asynciter_report::json::Json;
use std::path::Path;
use std::process::{Command, Stdio};

/// Where results and traces are written.
pub const OUT_DIR: &str = "benchmark/out";

/// What the suite was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteArgs {
    /// Input seed.
    pub seed: u64,
    /// Measuring time of each run, in seconds.
    pub seconds: u64,
    /// Also make the traced run of each workload.
    pub trace: bool,
    /// Run the set twice and compare.
    pub selfcheck: bool,
    /// Rewrite `pins.json` from this run.
    pub write_pins: bool,
}

/// What one child process reported.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildReport {
    /// The result line.
    pub result: Json,
    /// `pin <workload> <name> <value>` lines, as `(name, value)`.
    pub pins: Facts,
}

/// One pass over every workload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pass {
    /// Timed runs by workload.
    pub timed: Vec<(String, ChildReport)>,
    /// Traced runs by workload (with `--trace`).
    pub traced: Vec<(String, ChildReport)>,
}

/// Parses a child's standard output: metric and pin lines, then the
/// result object on the last line.
///
/// # Errors
/// No parsable last line.
pub fn parse_child(stdout: &str) -> Result<ChildReport, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the run printed nothing")?;
    let result = Json::parse(last).map_err(|e| format!("last line is not a result: {e}"))?;
    let pins = stdout
        .lines()
        .filter_map(|l| {
            let mut words = l.split_whitespace();
            match (words.next(), words.next(), words.next(), words.next()) {
                (Some("pin"), Some(_), Some(name), Some(value)) => {
                    Some((name.to_string(), value.to_string()))
                }
                _ => None,
            }
        })
        .collect();
    Ok(ChildReport { result, pins })
}

/// Runs one workload in a fresh process of this executable, passing its
/// metric lines through, and waits for it.
fn spawn(workload: &str, args: &SuiteArgs, trace: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout
        .lines()
        .filter(|l| !l.starts_with('{') && !l.starts_with("pin "))
    {
        println!("{line}");
    }
    let report = parse_child(&stdout).map_err(|e| format!("{workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: an output check failed (see above)"));
    }
    Ok(report)
}

fn pass(catalogue: &Catalogue, args: &SuiteArgs) -> Result<Pass, String> {
    let mut pass = Pass::default();
    for workload in &catalogue.workloads {
        pass.timed
            .push((workload.clone(), spawn(workload, args, false)?));
        if args.trace {
            pass.traced
                .push((workload.clone(), spawn(workload, args, true)?));
        }
    }
    Ok(pass)
}

fn metric_value(report: &ChildReport, name: &str) -> Option<f64> {
    report
        .result
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Every pinnable fact of a pass, by workload.
fn produced_pins(pass: &Pass) -> Vec<(String, Facts)> {
    pass.timed
        .iter()
        .map(|(workload, timed)| {
            let mut facts = timed.pins.clone();
            if let Some((_, traced)) = pass.traced.iter().find(|(w, _)| w == workload) {
                for fact in &traced.pins {
                    if !facts.contains(fact) {
                        facts.push(fact.clone());
                    }
                }
            }
            (workload.clone(), facts)
        })
        .collect()
}

/// Compares what a pass produced with the pins taken at the same seed.
pub fn pin_drift(pins: &Pins, produced: &[(String, Facts)]) -> Vec<String> {
    let mut drift = Vec::new();
    for (workload, facts) in produced {
        let Some((_, pinned)) = pins.workloads.iter().find(|(w, _)| w == workload) else {
            drift.push(format!("{workload} has no entry in {PINS_JSON}"));
            continue;
        };
        for (name, value) in facts {
            match pinned.iter().find(|(k, _)| k == name) {
                Some((_, expected)) if expected != value => drift.push(format!(
                    "{workload} {name} is {value}, {PINS_JSON} says {expected}"
                )),
                None => drift.push(format!("{workload} {name} is not pinned in {PINS_JSON}")),
                Some(_) => {}
            }
        }
    }
    drift
}

/// The result document: arguments plus every child's result line.
pub fn result_json(args: &SuiteArgs, pass: &Pass) -> Json {
    let runs = |runs: &[(String, ChildReport)]| {
        Json::Obj(
            runs.iter()
                .map(|(w, r)| (w.clone(), r.result.clone()))
                .collect(),
        )
    };
    Json::Obj(vec![
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds as f64)),
        ("end_to_end".into(), runs(&pass.timed)),
        ("per_layer".into(), runs(&pass.traced)),
    ])
}

/// Writes `text` to `OUT_DIR/name`.
///
/// # Errors
/// The directory or the file cannot be written.
pub fn write_out(name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Where two passes of the same build disagree by more than the
/// benchmark's own bounds, or in an exact counter.
pub fn disagreements(catalogue: &Catalogue, first: &Pass, second: &Pass) -> Vec<String> {
    let mut out = Vec::new();
    for ((workload, a), (_, b)) in first.timed.iter().zip(&second.timed) {
        for def in &catalogue.end_to_end {
            let (Some(x), Some(y), Some(bound)) = (
                metric_value(a, &def.name),
                metric_value(b, &def.name),
                def.bound,
            ) else {
                out.push(format!("{workload} {}: missing from a pass", def.name));
                continue;
            };
            let gap = (x - y).abs() / x.min(y);
            if gap > bound {
                out.push(format!(
                    "{workload} {}: {x} vs {y} differ by {:.1} % of the lower, bound {:.1} %",
                    def.name,
                    gap * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    for ((workload, a), (_, b)) in produced_pins(first).iter().zip(&produced_pins(second)) {
        if a != b {
            out.push(format!(
                "{workload}: exact counters differ between passes: {a:?} vs {b:?}"
            ));
        }
    }
    out
}

/// Runs the suite as `args` say.
///
/// # Errors
/// A failed output check, pin drift, or (with `--selfcheck`) two passes
/// that disagree.
pub fn run(catalogue: &Catalogue, args: &SuiteArgs) -> Result<(), String> {
    let first = pass(catalogue, args)?;
    write_out("result.json", &result_json(args, &first).render_pretty())?;
    let produced = produced_pins(&first);

    if args.write_pins {
        let pins = Pins {
            seed: args.seed,
            workloads: produced,
        };
        std::fs::write(PINS_JSON, pins.to_json().render_pretty())
            .map_err(|e| format!("{PINS_JSON}: {e}"))?;
        println!("# wrote {PINS_JSON} at seed {}", args.seed);
    } else if let Some(pins) = Pins::load()?.filter(|p| p.seed == args.seed) {
        let drift = pin_drift(&pins, &produced);
        if !drift.is_empty() {
            return Err(format!(
                "pin drift at seed {}: a generator or an iteration count changed. If that is \
                 intended, refresh the pins with `benchmark/run.sh --write-pins`.\n  {}",
                args.seed,
                drift.join("\n  ")
            ));
        }
    }

    if args.selfcheck {
        let second = pass(catalogue, args)?;
        let diffs = disagreements(catalogue, &first, &second);
        if !diffs.is_empty() {
            return Err(format!(
                "self-check: two passes of the same build disagree:\n  {}",
                diffs.join("\n  ")
            ));
        }
        println!("# self-check: two passes agree within every bound");
    }
    Ok(())
}
