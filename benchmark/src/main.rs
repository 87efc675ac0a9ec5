//! The repo's benchmark: end-to-end metrics of six workloads, and a
//! per-layer ledger from a traced run, all measured from outside the
//! program — by timing calls into its public functions and by timing
//! decorators at its three public seams. See `benchmark/README.md`.
//!
//! ```text
//! asynciter-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run in this process; the last line printed is the result object
//! asynciter-benchmark [--seed N] [--seconds S] [--trace] [--selfcheck] [--write-pins]
//!     every workload, each in a fresh process; writes benchmark/out/
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(clippy::all)]

mod config;
mod ledger;
mod probes;
mod run;
mod seams;
mod stats;
mod suite;
mod trace;
mod workloads;

use config::Catalogue;
use run::RunArgs;
use std::process::ExitCode;
use suite::SuiteArgs;

/// The seed of a run that names none; the pins are taken at it.
const DEFAULT_SEED: u64 = 2022;

/// The parsed command line.
#[derive(Debug, Clone, PartialEq, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    selfcheck: bool,
    write_pins: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter().peekable();
    let number = |flag: &str, v: Option<&String>| -> Result<u64, String> {
        v.and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a whole number"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                cli.workload = Some(it.next().ok_or("--workload needs a name")?.clone());
            }
            "--seed" => cli.seed = Some(number("--seed", it.next())?),
            "--seconds" => cli.seconds = Some(number("--seconds", it.next())?),
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--selfcheck" => cli.selfcheck = true,
            "--write-pins" => cli.write_pins = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.workload.is_some() && (cli.selfcheck || cli.write_pins) {
        return Err("--selfcheck and --write-pins run the whole set; drop --workload".into());
    }
    Ok(cli)
}

/// One run in this process. Prints a line per metric, the pinnable facts,
/// and the result object last.
fn single(catalogue: &Catalogue, args: &RunArgs) -> Result<bool, String> {
    let result = run::run(args, catalogue)?;
    for m in &result.metrics {
        println!(
            "{} {} {} {} {}",
            args.workload, m.name, m.unit, m.value, m.samples
        );
    }
    for (name, value) in &result.pins {
        println!("pin {} {name} {value}", args.workload);
    }
    for complaint in &result.complaints {
        eprintln!("{}: FAILED {complaint}", args.workload);
    }
    if args.trace {
        suite::write_out(
            &format!("trace-{}.json", args.workload),
            &result.trace_json(args).render_pretty(),
        )?;
    }
    println!("{}", result.to_json().render());
    Ok(result.correct)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;
    let catalogue = Catalogue::load()?;
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    let seconds = cli.seconds.unwrap_or(catalogue.run_seconds);
    match cli.workload {
        Some(workload) => single(
            &catalogue,
            &RunArgs {
                workload,
                seed,
                seconds: seconds as f64,
                trace: cli.trace,
            },
        ),
        None => suite::run(
            &catalogue,
            &SuiteArgs {
                seed,
                seconds,
                // The exact counters that are pinned come from the ledger.
                trace: cli.trace || cli.write_pins,
                selfcheck: cli.selfcheck,
                write_pins: cli.write_pins,
            },
        )
        .map(|()| true),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("asynciter-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
