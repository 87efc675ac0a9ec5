//! The command-line contract (README § "Command-line contract") checked
//! against every tool's own flag table: hostile argv is a usage error
//! (exit 2), `--help` is exit 0 on stdout, nothing panics and nothing
//! runs. The rows are generated from the tables, so a new flag is
//! covered the moment it is declared — the seed corpus of ROADMAP 5(a).

use asynciter_bench::gate::{gate_main, GATE};
use asynciter_bench::service_cli::{service_main, SERVICE};
use asynciter_conformance::runner::{conformance_main, inject_fault_demo, CONFORMANCE};
use asynciter_mc::cli::{mc_main, MC};
use asynciter_report::cli::{Arity, Flag, Spec};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

type Main = fn(&[String]) -> i32;

const TOOLS: [(Spec<'static>, Main); 4] = [
    (GATE, gate_main),
    (SERVICE, service_main),
    (MC, mc_main),
    (CONFORMANCE, conformance_main),
];

fn s(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

/// A flag with a well-formed value, when it takes one.
fn well_formed(&Flag(name, arity, _): &Flag) -> Vec<String> {
    match arity {
        Arity::Switch | Arity::Optional(..) => s(&[name]),
        Arity::Int(_) => s(&[name, "3"]),
        Arity::Value(_) => s(&[name, "v"]),
    }
}

/// Every hostile command line the table implies, with the exit code the
/// contract assigns it.
fn hostile_rows(spec: &Spec<'_>) -> Vec<(Vec<String>, i32)> {
    let mut rows = vec![
        (s(&["--no-such-flag"]), 2),
        (s(&["stray"]), 2),
        (s(&["--help"]), 0),
        (s(&["-h"]), 0),
        (s(&["--no-such-flag", "--help"]), 0),
    ];
    for flag in spec.flags {
        let Flag(name, arity, _) = *flag;
        if matches!(arity, Arity::Int(_) | Arity::Value(_)) {
            rows.push((s(&[name]), 2));
            // A value flag takes the next argument whatever it is, but
            // `--help` still wins in any position.
            rows.push((s(&[name, "--help"]), 0));
        }
        if matches!(arity, Arity::Int(_)) {
            rows.push((s(&[name, "x"]), 2));
            rows.push((s(&[name, "-1"]), 2));
        }
        rows.push(([well_formed(flag), well_formed(flag)].concat(), 2));
        rows.push(([well_formed(flag), s(&["-h"])].concat(), 0));
    }
    rows
}

#[test]
fn every_flag_table_is_total() {
    // What a tool that wrongly *ran* would leave in the working directory.
    let artefacts = [
        "BENCH_gate.json",
        "BENCH_service.json",
        "CONFORMANCE_report.json",
        "tests/corpus",
        "results",
    ];
    for (spec, main) in TOOLS {
        let mut rows = hostile_rows(&spec);
        // Semantic rejections (folded in from the per-tool unit tests).
        match spec.tool {
            "service" => rows.push((s(&["--mode", "warp"]), 2)),
            "mc" => rows.push((s(&["--scope", "nope"]), 2)),
            _ => {}
        }
        for (args, want) in rows {
            let code = std::panic::catch_unwind(|| main(&args))
                .unwrap_or_else(|_| panic!("{} {args:?} panicked", spec.tool));
            assert_eq!(code, want, "{} {args:?}", spec.tool);
        }
    }
    for artefact in artefacts {
        assert!(!Path::new(artefact).exists(), "{artefact} was written");
    }
}

#[test]
fn readme_prints_every_table_as_help_does() {
    let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(readme).unwrap();
    let experiment = Spec {
        tool: "exp_newton",
        ..asynciter_bench::EXPERIMENT
    };
    for spec in [GATE, SERVICE, MC, CONFORMANCE, experiment] {
        let usage = format!("```text\n{}\n```", spec.usage());
        assert!(readme.contains(&usage), "README is stale for {}", spec.tool);
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asynciter-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn(exe: &str, cwd: &Path, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .current_dir(cwd)
        .output()
        .unwrap_or_else(|e| panic!("{exe}: {e}"))
}

/// The `main`s themselves (CI's `cli-contract` step loops all 19 release
/// binaries; this is the debug-build sample): `--help` prints the usage
/// text to stdout and exits 0, bad argv prints `tool: message` and the
/// usage text to stderr and exits 2 — and neither runs anything.
#[test]
fn binaries_answer_help_on_stdout_and_bad_argv_on_stderr() {
    let dir = scratch_dir("mains");
    for (tool, exe) in [
        ("gate", env!("CARGO_BIN_EXE_gate")),
        ("service", env!("CARGO_BIN_EXE_service")),
        ("mc", env!("CARGO_BIN_EXE_mc")),
        ("conformance", env!("CARGO_BIN_EXE_conformance")),
        ("exp_newton", env!("CARGO_BIN_EXE_exp_newton")),
        ("run_all", env!("CARGO_BIN_EXE_run_all")),
    ] {
        let usage = format!("usage: {tool} [OPTIONS]");
        let help = spawn(exe, &dir, &["--quick", "--help"]);
        assert_eq!(help.status.code(), Some(0), "{tool} --help");
        assert!(String::from_utf8_lossy(&help.stdout).starts_with(&usage));
        assert!(help.stderr.is_empty(), "{tool} --help wrote to stderr");
        for bad in [&["--no-such-flag"][..], &["--seed", "x"]] {
            let out = spawn(exe, &dir, bad);
            assert_eq!(out.status.code(), Some(2), "{tool} {bad:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.starts_with(&format!("{tool}: ")), "{stderr}");
            assert!(stderr.contains(&usage), "{stderr}");
            assert!(out.stdout.is_empty(), "{tool} {bad:?} wrote to stdout");
        }
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "something ran");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An optional `[PATH]` is only ever an argument that does not start with
/// `-`: `--inject-fault --seed 7` is the demo with seed 7 on the default
/// path, and `--inject-fault --out r.json` writes no file named `--out`.
#[test]
fn an_optional_path_is_never_taken_from_a_following_flag() {
    let dir = scratch_dir("optional");
    let exe = env!("CARGO_BIN_EXE_conformance");
    let fixture = dir.join("tests/corpus/fault-frozen-label.trace");
    for args in [
        &["--inject-fault", "--seed", "7"][..],
        &["--inject-fault", "--out", "r.json", "--seed", "7"],
    ] {
        let out = spawn(exe, &dir, args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        // The demo ran with seed 7 on the default fixture path.
        let want = dir.join("want.trace");
        inject_fault_demo(7, &want).unwrap();
        assert_eq!(
            std::fs::read(&fixture).unwrap(),
            std::fs::read(&want).unwrap()
        );
        assert!(!dir.join("--seed").exists() && !dir.join("--out").exists());
        std::fs::remove_file(&fixture).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `conformance --out` creates the report's parent directory like the
/// other tools, and a report that cannot be written is exit 2 (I/O), not
/// exit 1 (a finding).
#[test]
fn conformance_out_creates_its_parent_and_fails_with_exit_2() {
    let dir = scratch_dir("out");
    let campaign = |out: &Path| {
        let fault_dir = dir.display().to_string();
        let out = out.display().to_string();
        conformance_main(&s(&[
            "--cases",
            "1",
            "--no-corpus",
            "--fault-dir",
            &fault_dir,
            "--out",
            &out,
        ]))
    };
    let nested = dir.join("new/dir/report.json");
    assert_eq!(campaign(&nested), 0);
    assert!(nested.is_file());
    // A regular file where the parent directory should be: unwritable.
    assert_eq!(campaign(&nested.join("report.json")), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
