//! Command-line driver behind `cargo run -p asynciter-bench --bin mc`.
//!
//! ```text
//! mc --scope quick --stats            # exhaustive CI sweep, verdict + counters
//! mc --scope flex --strategy bfs      # flexible-communication scope, BFS
//! mc --inject-mc-bug                  # negative control: must find + shrink + emit
//! mc --find-reorder                   # rediscover the out-of-order class
//! mc --scope quick --out MC_report.json
//! ```
//!
//! Exit codes (the same table as `gate`, `service` and `conformance`):
//! `0` — scope verified, `--help`, or, in the must-find modes
//! (`--inject-mc-bug`, `--inject-seam-*`, `--find-reorder`), the sought
//! violation was found and emitted; `1` — a violation was found in a
//! normal sweep, a must-find mode came up empty, a state-count lock or
//! POR cross-check failed, or the state budget truncated the sweep;
//! `2` — usage error (unknown flag, bad value, unreadable
//! `--from-trace`) or an unwritable `--out`.

use crate::counterexample::{emit_counterexample, find_reorder_demo, inject_bug_demo};
use crate::explore::{
    explore, explore_check_por, rebuild, ClusterModel, ExploreOutcome, FoundViolation, Strategy,
};
use crate::invariants::Property;
use crate::scope::{McProblem, Scope};
use crate::seam::{seam_bug_demo, SeamBug, SeamModel, SeamScope};
use crate::state::Por;
use asynciter_conformance::corpus::save_trace;
use asynciter_report::json::Json;
use std::path::{Path, PathBuf};

fn usage() -> String {
    "usage: mc [--scope quick|flex|reorder|inject|triple|deep|deeper|seam1|seam2] \
     [--strategy dfs|bfs] [--por off|on|check] [--steps N] [--workers N] \
     [--max-states N] [--expect-states N] [--stats] [--fault-dir DIR] \
     [--out FILE] [--from-trace FILE] [--inject-mc-bug] [--find-reorder] \
     [--inject-seam-hold] [--inject-seam-drop] [--inject-seam-dup]"
        .into()
}

/// The three CLI reduction modes: run unreduced, run reduced, or run
/// both and assert equivalence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PorMode {
    Off,
    On,
    Check,
}

impl PorMode {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(PorMode::Off),
            "on" => Ok(PorMode::On),
            "check" => Ok(PorMode::Check),
            other => Err(format!(
                "unknown por mode '{other}' (valid: off, on, check)"
            )),
        }
    }
}

struct Args {
    scope: Scope,
    seam: Option<SeamScope>,
    seam_bug: Option<SeamBug>,
    strategy: Strategy,
    por: PorMode,
    max_states: u64,
    expect_states: Option<u64>,
    stats: bool,
    fault_dir: PathBuf,
    out: Option<PathBuf>,
    inject: bool,
    find_reorder: bool,
    scope_from_trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut scope_name: Option<String> = None;
    let mut seam_bug: Option<SeamBug> = None;
    let mut strategy = Strategy::Dfs;
    let mut por: Option<PorMode> = None;
    let mut steps: Option<u64> = None;
    let mut workers: Option<usize> = None;
    let mut max_states = 5_000_000u64;
    let mut expect_states: Option<u64> = None;
    let mut stats = false;
    let mut fault_dir = PathBuf::from("target/mc-failures");
    let mut out = None;
    let mut from_trace: Option<PathBuf> = None;
    let mut inject = false;
    let mut find_reorder = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or(format!("{name} needs a value"))
                .map(str::to_string)
        };
        match a.as_str() {
            "--scope" => scope_name = Some(val("--scope")?),
            "--strategy" => strategy = Strategy::parse(&val("--strategy")?)?,
            "--por" => por = Some(PorMode::parse(&val("--por")?)?),
            "--steps" => {
                steps = Some(
                    val("--steps")?
                        .parse()
                        .map_err(|e| format!("--steps: {e}"))?,
                )
            }
            "--workers" => {
                workers = Some(
                    val("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                )
            }
            "--max-states" => {
                max_states = val("--max-states")?
                    .parse()
                    .map_err(|e| format!("--max-states: {e}"))?
            }
            "--expect-states" => {
                expect_states = Some(
                    val("--expect-states")?
                        .parse()
                        .map_err(|e| format!("--expect-states: {e}"))?,
                )
            }
            "--stats" => stats = true,
            "--fault-dir" => fault_dir = PathBuf::from(val("--fault-dir")?),
            "--out" => out = Some(PathBuf::from(val("--out")?)),
            "--from-trace" => from_trace = Some(PathBuf::from(val("--from-trace")?)),
            "--inject-mc-bug" => inject = true,
            "--find-reorder" => find_reorder = true,
            "--inject-seam-hold" => seam_bug = Some(SeamBug::Hold),
            "--inject-seam-drop" => seam_bug = Some(SeamBug::Drop),
            "--inject-seam-dup" => seam_bug = Some(SeamBug::Dup),
            "--quick" => scope_name = Some("quick".into()),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    // The seam scopes are a different model: the cluster-regime scope
    // knobs and reduction do not apply to them.
    let seam = match scope_name.as_deref() {
        Some(name) if name.starts_with("seam") => {
            let seam = SeamScope::by_name(name)?;
            if por.is_some()
                || steps.is_some()
                || workers.is_some()
                || inject
                || find_reorder
                || from_trace.is_some()
            {
                return Err(format!(
                    "--scope {name}: seam scopes take no --por/--steps/--workers \
                     and no --inject-mc-bug/--find-reorder/--from-trace"
                ));
            }
            Some(seam)
        }
        _ => None,
    };
    let por = por.unwrap_or(PorMode::Off);
    let mut scope = match (&seam, &from_trace, &scope_name, inject, find_reorder) {
        (Some(_), ..) => Scope::quick(), // unused carrier; the seam scope drives the run
        (None, Some(path), _, _, _) => {
            let trace = asynciter_conformance::corpus::load_trace(path)?;
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("trace")
                .to_string();
            Scope::from_trace(&stem, &trace)?
        }
        (None, None, Some(name), _, _) => Scope::by_name(name)?,
        (None, None, None, true, _) => Scope::inject(),
        (None, None, None, false, true) => Scope::reorder(),
        (None, None, None, false, false) => Scope::quick(),
    };
    if inject {
        scope.inject_bug = true;
    }
    if let Some(s) = steps {
        scope.steps = s;
    }
    if let Some(w) = workers {
        if !(2..=3).contains(&w) {
            return Err("--workers: bounded scopes support 2 or 3 workers".into());
        }
        scope.workers = w;
    }
    scope.validate()?;
    Ok(Args {
        scope,
        seam,
        seam_bug,
        strategy,
        por,
        max_states,
        expect_states,
        stats,
        fault_dir,
        out,
        inject,
        find_reorder,
        scope_from_trace: from_trace.is_some(),
    })
}

/// The scope-independent facts the shared reporting path prints and
/// serialises next to an [`ExploreOutcome`].
struct Sweep<'a> {
    name: &'a str,
    description: String,
    por: Por,
    wall_ms: u128,
}

fn stats_json(outcome: &ExploreOutcome, sweep: &Sweep<'_>, strategy: Strategy) -> Json {
    let s = &outcome.stats;
    let mut obj = vec![
        ("scope".into(), Json::Str(sweep.name.into())),
        ("description".into(), Json::Str(sweep.description.clone())),
        ("strategy".into(), Json::Str(strategy.id().into())),
        (
            "por".into(),
            Json::Str(
                match sweep.por {
                    Por::Off => "off",
                    Por::On => "on",
                }
                .into(),
            ),
        ),
        ("visited".into(), Json::Num(s.visited as f64)),
        ("dedup_hits".into(), Json::Num(s.dedup_hits as f64)),
        ("edges".into(), Json::Num(s.edges as f64)),
        ("terminals".into(), Json::Num(s.terminals as f64)),
        (
            "pruned_capacity".into(),
            Json::Num(s.pruned_capacity as f64),
        ),
        (
            "pruned_inadmissible".into(),
            Json::Num(s.pruned_inadmissible as f64),
        ),
        (
            "por_pruned_choices".into(),
            Json::Num(s.por_pruned_choices as f64),
        ),
        ("max_frontier".into(), Json::Num(s.max_frontier as f64)),
        ("truncated".into(), Json::Bool(outcome.truncated)),
        (
            "verdict".into(),
            Json::Str(if outcome.violation.is_some() {
                "violation".into()
            } else if outcome.truncated {
                "truncated".into()
            } else {
                "verified".into()
            }),
        ),
    ];
    if let Some(v) = &outcome.violation {
        obj.push((
            "violation".into(),
            Json::Obj(vec![
                (
                    "property".into(),
                    Json::Str(v.violation.property.id().into()),
                ),
                ("step".into(), Json::Num(v.violation.j as f64)),
                ("detail".into(), Json::Str(v.violation.detail.clone())),
                ("path_len".into(), Json::Num(v.path.len() as f64)),
            ]),
        ));
    }
    obj.push(("wall_ms".into(), Json::Num(sweep.wall_ms as f64)));
    Json::Obj(obj)
}

/// The one reporting path of a finished sweep: `--stats`, `--out`, the
/// `--expect-states` lock and the verdict. `emit` turns a found
/// violation into a saved counterexample and describes what it wrote.
fn report(
    parsed: &Args,
    sweep: &Sweep<'_>,
    outcome: &ExploreOutcome,
    emit: impl FnOnce(&FoundViolation) -> Result<String, String>,
) -> i32 {
    let s = &outcome.stats;
    if parsed.stats {
        println!(
            "  visited {} states, {} dedup hits, {} edges, {} terminals",
            s.visited, s.dedup_hits, s.edges, s.terminals
        );
        println!(
            "  pruned: {} capacity, {} inadmissible, {} por; max frontier {}; {} ms",
            s.pruned_capacity,
            s.pruned_inadmissible,
            s.por_pruned_choices,
            s.max_frontier,
            sweep.wall_ms
        );
    }
    if let Some(path) = &parsed.out {
        if let Err(e) = std::fs::write(
            path,
            stats_json(outcome, sweep, parsed.strategy).render_pretty(),
        ) {
            eprintln!("mc: cannot write {}: {e}", path.display());
            return 2;
        }
        println!("mc: wrote {}", path.display());
    }
    if let Some(expect) = parsed.expect_states {
        if s.visited != expect {
            eprintln!(
                "mc: state-count lock FAILED — expected {expect} states, visited {} \
                 (coverage changed; re-measure and update the lock deliberately)",
                s.visited
            );
            return 1;
        }
        println!("mc: state-count lock ok ({expect} states)");
    }
    match &outcome.violation {
        None if outcome.truncated => {
            eprintln!(
                "mc: state budget exhausted after {} states — sweep NOT exhaustive",
                s.visited
            );
            1
        }
        None if parsed.find_reorder => {
            eprintln!(
                "mc: find-reorder came up empty on scope '{}' — {} states, \
                 no out-of-order application",
                sweep.name, s.visited
            );
            1
        }
        None => {
            println!(
                "mc: scope '{}' verified — {} states, all invariants hold on every \
                 admissible interleaving",
                sweep.name, s.visited
            );
            0
        }
        Some(found) if parsed.find_reorder && found.violation.property == Property::Reorder => {
            println!(
                "mc: find-reorder rediscovered the out-of-order class on scope '{}' \
                 at step {}: {}",
                sweep.name, found.violation.j, found.violation.detail
            );
            0
        }
        Some(found) => {
            eprintln!(
                "mc: VIOLATION [{}] at step {}: {}",
                found.violation.property.id(),
                found.violation.j,
                found.violation.detail
            );
            match emit(found) {
                Ok(saved) => eprintln!("mc: {saved}"),
                Err(e) => eprintln!("mc: counterexample emission failed: {e}"),
            }
            1
        }
    }
}

/// Reports a must-find demo: exit 0 iff the sought violation was found,
/// shrunk and saved to `out`.
fn demo_exit(name: &str, out: &Path, run: Result<(u64, u64), String>) -> i32 {
    match run {
        Ok((orig, shrunk)) => {
            println!(
                "{name}: violation found, shrunk {orig} -> {shrunk} steps, saved {}",
                out.display()
            );
            0
        }
        Err(e) => {
            eprintln!("{name}: FAILED: {e}");
            1
        }
    }
}

/// CLI entry point; returns the process exit code.
pub fn mc_main(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return 0;
    }
    let parsed = match parse_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };

    // Must-find modes delegate to the deterministic demos (the same
    // functions the tier-1 fixtures are generated and locked by): one
    // planted transport bug per seam fault kind, the severed cluster
    // apply, and the reorder rediscovery — except `--from-trace
    // --find-reorder`, which hunts the class on the derived scope in
    // the normal sweep below.
    if let Some(bug) = parsed.seam_bug {
        let out = parsed.fault_dir.join(format!("mc-seam-{}.trace", bug.id()));
        let name = format!("inject-seam-{}", bug.id());
        return demo_exit(&name, &out, seam_bug_demo(bug, &out));
    }
    if parsed.inject {
        let out = parsed.fault_dir.join("mc-bug-severed-apply.trace");
        return demo_exit("inject-mc-bug", &out, inject_bug_demo(&out));
    }
    if parsed.find_reorder && !parsed.scope_from_trace {
        let out = parsed.fault_dir.join("mc-reorder.trace");
        return demo_exit("find-reorder", &out, find_reorder_demo(&out));
    }

    let problem = McProblem::build();
    let start = std::time::Instant::now();

    // Seam scopes: exhaustive sweep of the transport-seam model.
    if let Some(seam) = &parsed.seam {
        println!("mc: {}", seam.describe());
        let model = SeamModel::new(seam, &problem);
        let outcome = explore(&model, parsed.strategy, parsed.max_states);
        let sweep = Sweep {
            name: &seam.name,
            description: seam.describe(),
            por: Por::Off,
            wall_ms: start.elapsed().as_millis(),
        };
        return report(&parsed, &sweep, &outcome, |found| {
            let (trace, _) = rebuild(&model, &found.path);
            let out = parsed.fault_dir.join("mc-seam-violation.trace");
            save_trace(&out, &trace)?;
            Ok(format!(
                "counterexample ({} steps) saved {}",
                trace.len(),
                out.display()
            ))
        });
    }

    println!("mc: {}", parsed.scope.describe());
    let mut model = ClusterModel {
        scope: &parsed.scope,
        problem: &problem,
        find_reorder: parsed.find_reorder,
        por: Por::Off,
    };
    let outcome = match parsed.por {
        PorMode::Off => explore(&model, parsed.strategy, parsed.max_states),
        PorMode::On => {
            model.por = Por::On;
            explore(&model, parsed.strategy, parsed.max_states)
        }
        PorMode::Check => match explore_check_por(&model, parsed.strategy, parsed.max_states) {
            Err(e) => {
                eprintln!("mc: POR-CHECK FAILED: {e}");
                return 1;
            }
            Ok((off, on)) => {
                let factor = off.stats.visited as f64 / on.stats.visited.max(1) as f64;
                println!(
                    "mc: por-check ok — identical verdict; {} states unreduced, \
                         {} reduced ({factor:.2}x)",
                    off.stats.visited, on.stats.visited
                );
                off
            }
        },
    };
    let sweep = Sweep {
        name: &parsed.scope.name,
        description: parsed.scope.describe(),
        por: model.por,
        wall_ms: start.elapsed().as_millis(),
    };
    report(&parsed, &sweep, &outcome, |found| {
        let out = parsed
            .fault_dir
            .join(format!("mc-{}.trace", found.violation.property.id()));
        let rep = emit_counterexample(&model, found, &out)?;
        Ok(format!(
            "counterexample shrunk {} -> {} steps, saved {}",
            rep.orig_steps,
            rep.shrunk_steps,
            out.display()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn arg_parsing_covers_modes_and_errors() {
        assert!(parse_args(&s(&["--scope", "nope"])).is_err());
        assert!(parse_args(&s(&["--bogus"])).is_err());
        assert!(parse_args(&s(&["--workers", "9"])).is_err());
        let a = parse_args(&s(&["--quick", "--stats", "--strategy", "bfs"])).unwrap();
        assert_eq!(a.scope.name, "quick");
        assert!(a.stats);
        assert_eq!(a.strategy, Strategy::Bfs);
        let a = parse_args(&s(&["--inject-mc-bug"])).unwrap();
        assert!(a.scope.inject_bug);
        assert_eq!(a.scope.name, "inject");
        let a = parse_args(&s(&["--find-reorder"])).unwrap();
        assert_eq!(a.scope.name, "reorder");
        assert!(a.find_reorder);
    }

    #[test]
    fn error_messages_and_exit_codes_are_pinned() {
        // Every rejection path: exact message (operators script against
        // these) and exit code 2 through `mc_main` — never 1, which
        // means "violation found".
        let cases: &[(&[&str], &str)] = &[
            (
                &["--scope", "nope"],
                "unknown scope 'nope' (valid: quick, flex, reorder, inject, \
                 triple, deep, deeper)",
            ),
            (
                &["--scope", "seam3"],
                "unknown seam scope 'seam3' (valid: seam1, seam2)",
            ),
            (
                &["--strategy", "ids"],
                "unknown strategy 'ids' (valid: dfs, bfs)",
            ),
            (
                &["--por", "maybe"],
                "unknown por mode 'maybe' (valid: off, on, check)",
            ),
            (
                &["--workers", "4"],
                "--workers: bounded scopes support 2 or 3 workers",
            ),
            (
                &["--scope", "flex", "--workers", "3"],
                "scope 'flex': partial mask index 7 is outside the smallest block \
                 (5 components with 3 workers)",
            ),
            (
                &["--steps", "0"],
                "scope 'quick': the horizon must be at least 1 step",
            ),
            (
                &["--scope", "seam2", "--por", "on"],
                "--scope seam2: seam scopes take no --por/--steps/--workers \
                 and no --inject-mc-bug/--find-reorder/--from-trace",
            ),
        ];
        for (args, want) in cases {
            let err = parse_args(&s(args)).err().expect("parse must fail");
            assert_eq!(&err, want, "message drifted for {args:?}");
            assert_eq!(mc_main(&s(args)), 2, "exit code drifted for {args:?}");
        }
        // Outside input: a trace file whose step 2 has an unsorted `S_j`
        // used to reach an `assert!` (exit 101 with a backtrace).
        let path = std::env::temp_dir().join(format!("mc-cli-{}.trace", std::process::id()));
        let text = "asynciter-trace v1 n=2 labels=full\n1 a 0 | l 0 0\n2 a 1 0 | l 1 1\n";
        std::fs::write(&path, text).unwrap();
        let args = s(&["--from-trace", path.to_str().unwrap()]);
        let want = format!(
            "parse {path:?}: invalid parameter `trace-input`: line 3: S_j = [1, 0] \
             must be nonempty, strictly increasing and below n = 2"
        );
        assert_eq!(parse_args(&args).err(), Some(want));
        assert_eq!(mc_main(&args), 2, "a malformed trace file is a usage error");
        std::fs::remove_file(&path).ok();
        assert_eq!(
            mc_main(&s(&["--steps"])),
            2,
            "missing value is a usage error"
        );
        assert_eq!(mc_main(&s(&["--help"])), 0, "--help is not an error");
    }

    #[test]
    fn seam_scopes_and_seam_bug_flags_parse() {
        let a = parse_args(&s(&["--scope", "seam1"])).unwrap();
        assert_eq!(a.seam.as_ref().unwrap().name, "seam1");
        assert_eq!(a.seam.as_ref().unwrap().workers, 1);
        let a = parse_args(&s(&["--scope", "seam2", "--stats", "--strategy", "bfs"])).unwrap();
        assert_eq!(a.seam.as_ref().unwrap().workers, 2);
        assert!(a.stats);
        assert_eq!(
            a.strategy,
            Strategy::Bfs,
            "one explorer: seam sweeps take BFS"
        );
        for (flag, bug) in [
            ("--inject-seam-hold", SeamBug::Hold),
            ("--inject-seam-drop", SeamBug::Drop),
            ("--inject-seam-dup", SeamBug::Dup),
        ] {
            let a = parse_args(&s(&[flag])).unwrap();
            assert_eq!(a.seam_bug, Some(bug));
        }
        // --find-reorder composes with --from-trace: the hunt runs on
        // the derived scope instead of the fixed reorder scope.
        let trace = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/corpus/mc-reorder.trace"
        );
        let a = parse_args(&s(&["--from-trace", trace, "--find-reorder"])).unwrap();
        assert!(a.scope_from_trace && a.find_reorder);
    }

    #[test]
    fn must_find_modes_exit_zero() {
        let dir = std::env::temp_dir().join("asynciter-mc-cli-test");
        let _ = std::fs::remove_dir_all(&dir);
        let code = mc_main(&s(&[
            "--inject-mc-bug",
            "--fault-dir",
            dir.to_str().unwrap(),
        ]));
        assert_eq!(code, 0, "negative control must be caught");
        assert!(dir.join("mc-bug-severed-apply.trace").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
