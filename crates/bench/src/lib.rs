//! # asynciter-bench
//!
//! The experiment harness: one module (and thin binary) per paper
//! figure/claim — see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded outcomes — plus the `gate`, `conformance`,
//! `mc` and `service` CLIs. Timing is measured by the standalone
//! `benchmark/` crate, not here.
//!
//! Binaries write CSV + ASCII-chart artefacts under `results/<exp>/`
//! (override with `ASYNCITER_RESULTS`) and print headline tables to
//! stdout. The `run_all` binary regenerates everything.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod experiments;
pub mod gate;
pub mod harness;
pub mod service_cli;

pub use harness::{results_dir, save_text, ExpContext};

use asynciter_report::cli::Arity::{Int, Switch};
use asynciter_report::cli::{Flag, Spec, EXIT_OK};

/// The flag table every experiment binary shares (README §
/// "Command-line contract"); `tool` is replaced by the binary's name.
pub const EXPERIMENT: Spec<'static> = Spec {
    tool: "experiment",
    about: "Regenerates one paper figure or experiment: headline tables on stdout, CSV and\n\
            ASCII-chart artefacts under results/<id>/ (override with ASYNCITER_RESULTS).",
    flags: &[
        Flag("--seed", Int("N"), "base seed (default 2022)"),
        Flag("--quick", Switch, "seconds-fast sizes"),
    ],
};

/// [`parse_args`] on an explicit command line: `(seed, quick)`, or the
/// exit code after the usage text or a diagnostic has been printed.
fn experiment_args(tool: &str, args: &[String]) -> Result<(u64, bool), i32> {
    let mut parsed = None;
    let code = Spec { tool, ..EXPERIMENT }.run(args, |m| {
        parsed = Some((m.int("--seed").unwrap_or(2022), m.has("--quick"))); // IPPS 2022
        Ok(EXIT_OK)
    });
    parsed.ok_or(code)
}

/// Parses an optional `--seed N` / `--quick` command line for the
/// experiment binaries. Returns `(seed, quick)`; `--help` and bad argv
/// print the usage text and exit (0 and 2) without running anything.
pub fn parse_args() -> (u64, bool) {
    let mut argv = std::env::args();
    let path = argv.next().unwrap_or_default();
    let tool = std::path::Path::new(&path).file_stem().unwrap_or_default();
    experiment_args(&tool.to_string_lossy(), &argv.collect::<Vec<_>>())
        .unwrap_or_else(|code| std::process::exit(code))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_argv_never_panics() {
        let s = |args: &[&str]| args.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let run = |args: &[&str]| experiment_args("exp_newton", &s(args));
        assert_eq!(run(&[]), Ok((2022, false)));
        assert_eq!(run(&["--quick", "--seed", "7"]), Ok((7, true)));
        for bad in [&["--seed", "x"][..], &["--seed"], &["--bogus"]] {
            assert_eq!(run(bad), Err(2), "{bad:?}");
        }
        assert_eq!(run(&["--quick", "--help"]), Err(0));
    }
}
