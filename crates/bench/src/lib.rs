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

/// Parses an optional `--seed N` / `--quick` command line for the
/// experiment binaries. Returns `(seed, quick)`.
pub fn parse_args() -> (u64, bool) {
    let mut seed = 2022u64; // IPPS 2022
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed requires an integer");
            }
            "--quick" => quick = true,
            other => panic!("unknown argument `{other}` (supported: --seed N, --quick)"),
        }
    }
    (seed, quick)
}
