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
//! Exit codes, the uniform usage-error forms and the flag table are the
//! workspace-wide contract of [`asynciter_report::cli`] (README §
//! "Command-line contract"). What `1` means here: a violation found in
//! a normal sweep, a must-find mode (`--inject-mc-bug`,
//! `--inject-seam-*`, `--find-reorder`) that came up empty, a failed
//! state-count lock or POR cross-check, or a sweep the state budget
//! truncated.

use crate::counterexample::{emit_counterexample, find_reorder_demo, inject_bug_demo};
use crate::explore::{
    explore, explore_check_por, rebuild, ClusterModel, ExploreOutcome, FoundViolation, Strategy,
};
use crate::invariants::Property;
use crate::scope::{McProblem, Scope};
use crate::seam::{seam_bug_demo, SeamBug, SeamModel, SeamScope};
use crate::state::Por;
use asynciter_conformance::corpus::{load_trace, save_trace};
use asynciter_report::cli::Arity::{Int, Switch, Value};
use asynciter_report::cli::{
    must_find, shrunk_to, write_artefact, Flag, Matches, Spec, EXIT_FINDING, EXIT_OK,
};
use asynciter_report::json::Json;
use std::path::Path;

/// The model checker's flag table (README § "Command-line contract").
#[rustfmt::skip] // one flag per row
pub const MC: Spec<'static> = Spec {
    tool: "mc",
    about: "Enumerates every admissible interleaving of a bounded scope, checks the\n\
            invariants on every edge and terminal state, and shrinks any violation to a\n\
            replayable corpus counterexample.",
    flags: &[
        Flag("--scope", Value("NAME"), "quick (default), flex, reorder, inject, triple, deep, deeper, seam1, seam2"),
        Flag("--quick", Switch, "alias for --scope quick"),
        Flag("--strategy", Value("dfs|bfs"), "search order (default dfs)"),
        Flag("--por", Value("off|on|check"), "partial-order reduction; check runs both and compares (default off)"),
        Flag("--steps", Int("N"), "override the scope's horizon"),
        Flag("--workers", Int("N"), "override the scope's worker count (2 or 3)"),
        Flag("--max-states", Int("N"), "state budget (default 5000000)"),
        Flag("--expect-states", Int("N"), "lock: exit 1 unless exactly N states are visited"),
        Flag("--stats", Switch, "print the search counters"),
        Flag("--fault-dir", Value("DIR"), "where counterexamples go (default target/mc-failures)"),
        Flag("--out", Value("FILE"), "write the sweep report as JSON"),
        Flag("--from-trace", Value("FILE"), "derive the scope from a corpus trace"),
        Flag("--inject-mc-bug", Switch, "must-find: the planted severed-apply bug"),
        Flag("--find-reorder", Switch, "must-find: the out-of-order application class"),
        Flag("--inject-seam-hold", Switch, "must-find: a planted transport bug on a held message"),
        Flag("--inject-seam-drop", Switch, "must-find: a planted transport bug on a dropped message"),
        Flag("--inject-seam-dup", Switch, "must-find: a planted transport bug on a duplicated message"),
    ],
};

/// What the flags select; plain values are read off the [`Matches`]
/// where they are used.
struct Args {
    scope: Scope,
    seam: Option<SeamScope>,
    seam_bug: Option<SeamBug>,
    strategy: Strategy,
    por: Por,
    /// `--por check`: run unreduced and reduced, assert equivalence.
    por_check: bool,
    find_reorder: bool,
}

/// The semantic half of argument handling: scope selection, overrides
/// and the combinations the models do not support.
fn read_args(m: &Matches<'_>) -> Result<Args, String> {
    let scope_name = match m.last_of(&["--scope", "--quick"]) {
        Some("--quick") => Some("quick"),
        _ => m.value("--scope"),
    };
    let strategy = m.value("--strategy").map(Strategy::parse).transpose()?;
    let (por, por_check) = match m.value("--por") {
        None | Some("off") => (Por::Off, false),
        Some("on") => (Por::On, false),
        Some("check") => (Por::Off, true),
        Some(other) => {
            return Err(format!(
                "unknown por mode '{other}' (valid: off, on, check)"
            ))
        }
    };
    let from_trace = m.value("--from-trace").map(Path::new);
    let (inject, find_reorder) = (m.has("--inject-mc-bug"), m.has("--find-reorder"));
    // The seam scopes are a different model: the cluster-regime scope
    // knobs and reduction do not apply to them.
    let seam = match scope_name {
        Some(name) if name.starts_with("seam") => {
            let seam = SeamScope::by_name(name)?;
            let cluster_only = ["--por", "--steps", "--workers", "--from-trace"];
            if inject || find_reorder || cluster_only.iter().any(|f| m.has(f)) {
                return Err(format!(
                    "--scope {name}: seam scopes take no --por/--steps/--workers \
                     and no --inject-mc-bug/--find-reorder/--from-trace"
                ));
            }
            Some(seam)
        }
        _ => None,
    };
    let mut scope = match (&seam, from_trace, scope_name, inject, find_reorder) {
        (Some(_), ..) => Scope::quick(), // unused carrier; the seam scope drives the run
        (None, Some(path), _, _, _) => {
            let stem = path.file_stem().and_then(|s| s.to_str());
            Scope::from_trace(stem.unwrap_or("trace"), &load_trace(path)?)?
        }
        (None, None, Some(name), _, _) => Scope::by_name(name)?,
        (None, None, None, true, _) => Scope::inject(),
        (None, None, None, false, true) => Scope::reorder(),
        (None, None, None, false, false) => Scope::quick(),
    };
    scope.inject_bug |= inject;
    if let Some(s) = m.int("--steps") {
        scope.steps = s;
    }
    if let Some(w) = m.int("--workers") {
        if !(2..=3).contains(&w) {
            return Err("--workers: bounded scopes support 2 or 3 workers".into());
        }
        scope.workers = w as usize;
    }
    scope.validate()?;
    let seam_bugs = [
        "--inject-seam-hold",
        "--inject-seam-drop",
        "--inject-seam-dup",
    ];
    Ok(Args {
        scope,
        seam,
        seam_bug: match m.last_of(&seam_bugs) {
            Some("--inject-seam-hold") => Some(SeamBug::Hold),
            Some("--inject-seam-drop") => Some(SeamBug::Drop),
            Some(_) => Some(SeamBug::Dup),
            None => None,
        },
        strategy: strategy.unwrap_or(Strategy::Dfs),
        por,
        por_check,
        find_reorder,
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
    m: &Matches<'_>,
    parsed: &Args,
    sweep: &Sweep<'_>,
    outcome: &ExploreOutcome,
    emit: impl FnOnce(&FoundViolation) -> Result<String, String>,
) -> Result<i32, String> {
    let s = &outcome.stats;
    if m.has("--stats") {
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
    if let Some(path) = m.value("--out").map(Path::new) {
        let json = stats_json(outcome, sweep, parsed.strategy);
        write_artefact(path, &json.render_pretty())?;
        println!("mc: wrote {}", path.display());
    }
    if let Some(expect) = m.int("--expect-states") {
        if s.visited != expect {
            eprintln!(
                "mc: state-count lock FAILED — expected {expect} states, visited {} \
                 (coverage changed; re-measure and update the lock deliberately)",
                s.visited
            );
            return Ok(EXIT_FINDING);
        }
        println!("mc: state-count lock ok ({expect} states)");
    }
    Ok(match &outcome.violation {
        None if outcome.truncated => {
            eprintln!(
                "mc: state budget exhausted after {} states — sweep NOT exhaustive",
                s.visited
            );
            EXIT_FINDING
        }
        None if parsed.find_reorder => {
            eprintln!(
                "mc: find-reorder came up empty on scope '{}' — {} states, \
                 no out-of-order application",
                sweep.name, s.visited
            );
            EXIT_FINDING
        }
        None => {
            println!(
                "mc: scope '{}' verified — {} states, all invariants hold on every \
                 admissible interleaving",
                sweep.name, s.visited
            );
            EXIT_OK
        }
        Some(found) if parsed.find_reorder && found.violation.property == Property::Reorder => {
            println!(
                "mc: find-reorder rediscovered the out-of-order class on scope '{}' \
                 at step {}: {}",
                sweep.name, found.violation.j, found.violation.detail
            );
            EXIT_OK
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
            EXIT_FINDING
        }
    })
}

/// CLI entry point; returns the process exit code.
pub fn mc_main(args: &[String]) -> i32 {
    MC.run(args, |m| run_mc(m, &read_args(m)?))
}

fn run_mc(m: &Matches<'_>, parsed: &Args) -> Result<i32, String> {
    // Must-find modes delegate to the deterministic demos (the same
    // functions the tier-1 fixtures are generated and locked by): one
    // planted transport bug per seam fault kind, the severed cluster
    // apply, and the reorder rediscovery — except `--from-trace
    // --find-reorder`, which hunts the class on the derived scope in
    // the normal sweep below.
    let fault_dir = Path::new(m.value("--fault-dir").unwrap_or("target/mc-failures"));
    let max_states = m.int("--max-states").unwrap_or(5_000_000);
    let saved = |file: &str| fault_dir.join(file);
    if let Some(bug) = parsed.seam_bug {
        let out = saved(&format!("mc-seam-{}.trace", bug.id()));
        let run = seam_bug_demo(bug, &out).map(shrunk_to(&out));
        return Ok(must_find(&format!("inject-seam-{}", bug.id()), run));
    }
    if m.has("--inject-mc-bug") {
        let out = saved("mc-bug-severed-apply.trace");
        let run = inject_bug_demo(&out).map(shrunk_to(&out));
        return Ok(must_find("inject-mc-bug", run));
    }
    if parsed.find_reorder && !m.has("--from-trace") {
        let out = saved("mc-reorder.trace");
        let run = find_reorder_demo(&out).map(shrunk_to(&out));
        return Ok(must_find("find-reorder", run));
    }

    let problem = McProblem::build();
    let start = std::time::Instant::now();

    // Seam scopes: exhaustive sweep of the transport-seam model.
    if let Some(seam) = &parsed.seam {
        println!("mc: {}", seam.describe());
        let model = SeamModel::new(seam, &problem);
        let outcome = explore(&model, parsed.strategy, max_states);
        let sweep = Sweep {
            name: &seam.name,
            description: seam.describe(),
            por: Por::Off,
            wall_ms: start.elapsed().as_millis(),
        };
        return report(m, parsed, &sweep, &outcome, |found| {
            let (trace, _) = rebuild(&model, &found.path);
            let out = saved("mc-seam-violation.trace");
            save_trace(&out, &trace)?;
            Ok(format!(
                "counterexample ({} steps) saved {}",
                trace.len(),
                out.display()
            ))
        });
    }

    println!("mc: {}", parsed.scope.describe());
    let model = ClusterModel {
        scope: &parsed.scope,
        problem: &problem,
        find_reorder: parsed.find_reorder,
        por: parsed.por,
    };
    let outcome = if parsed.por_check {
        match explore_check_por(&model, parsed.strategy, max_states) {
            Err(e) => {
                eprintln!("mc: POR-CHECK FAILED: {e}");
                return Ok(EXIT_FINDING);
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
        }
    } else {
        explore(&model, parsed.strategy, max_states)
    };
    let sweep = Sweep {
        name: &parsed.scope.name,
        description: parsed.scope.describe(),
        por: model.por,
        wall_ms: start.elapsed().as_millis(),
    };
    report(m, parsed, &sweep, &outcome, |found| {
        let out = saved(&format!("mc-{}.trace", found.violation.property.id()));
        emit_counterexample(&model, found, &out).map(shrunk_to(&out))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn parse_args(args: &[String]) -> Result<Args, String> {
        read_args(&MC.parse(args)?)
    }

    #[test]
    fn arg_parsing_covers_modes_and_errors() {
        assert!(parse_args(&s(&["--scope", "nope"])).is_err());
        assert!(parse_args(&s(&["--bogus"])).is_err());
        assert!(parse_args(&s(&["--workers", "9"])).is_err());
        let a = parse_args(&s(&["--quick", "--stats", "--strategy", "bfs"])).unwrap();
        assert_eq!(a.scope.name, "quick");
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
        assert!(
            a.find_reorder && a.scope.name.contains("mc-reorder"),
            "{}",
            a.scope.name
        );
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
