//! The one command-line front end of the workspace's binaries: a
//! declarative flag table with one parser, the exit contract, artefact
//! and baseline I/O, and the must-find report. `gate`, `service`, `mc`,
//! `conformance` and the experiment binaries differ only in their
//! tables; README § "Command-line contract" prints each.
//!
//! Every tool exits with [`EXIT_OK`], [`EXIT_FINDING`] or [`EXIT_USAGE`].
//! Syntax errors are uniform and followed by the usage text:
//! ``unknown argument `--x` ``, `--x requires a value`,
//! ``--x: expected an integer, got `v` ``, `--x given more than once`.

use std::fmt::Display;
use std::path::Path;

/// Exit code: verified; a must-find mode found what it sought; or
/// `--help` / `-h` (usage on stdout, nothing run).
pub const EXIT_OK: i32 = 0;
/// Exit code: a regression, violation or failed lock, or a must-find
/// mode that came up empty.
pub const EXIT_FINDING: i32 = 1;
/// Exit code: bad argv, or a file that cannot be read, parsed or
/// written (`tool: message` on stderr).
pub const EXIT_USAGE: i32 = 2;

/// The exit code of a finished run: [`EXIT_OK`] when every check passed,
/// [`EXIT_FINDING`] otherwise.
pub fn exit_code(passed: bool) -> i32 {
    if passed {
        EXIT_OK
    } else {
        EXIT_FINDING
    }
}

/// What follows a flag on the command line; the first `&str` is the
/// value's placeholder in the usage text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// Nothing: the flag is a switch.
    Switch,
    /// A required non-negative integer.
    Int(&'static str),
    /// A required free-form value (the next argument, whatever it is).
    Value(&'static str),
    /// An optional value — the next argument unless it starts with `-`
    /// — and the default it takes otherwise.
    Optional(&'static str, &'static str),
}

/// One row of a tool's flag table: the flag as typed (`"--seed"`), what
/// follows it, and one line of help.
#[derive(Debug, Clone, Copy)]
pub struct Flag(pub &'static str, pub Arity, pub &'static str);

/// A tool: its name, a paragraph of description and its flag table.
#[derive(Debug, Clone, Copy)]
pub struct Spec<'a> {
    /// Prefix of every diagnostic and the name in the usage line.
    pub tool: &'a str,
    /// What the tool does (printed under the usage line).
    pub about: &'a str,
    /// Every flag the tool accepts; `--help` / `-h` are implied.
    pub flags: &'a [Flag],
}

/// A parsed command line: the flags given, in argv order.
#[derive(Debug)]
pub struct Matches<'a> {
    given: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Matches<'a> {
    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The value given with `name` (for an [`Arity::Optional`] flag
    /// given bare, its default).
    pub fn value(&self, name: &str) -> Option<&'a str> {
        self.given.iter().find(|(n, _)| *n == name)?.1
    }

    /// The value of an [`Arity::Int`] flag (validated by the parser).
    pub fn int(&self, name: &str) -> Option<u64> {
        self.value(name)?.parse().ok()
    }

    /// Which of `names` appears last in argv — for flags that override
    /// one another (`--quick` / `--full`).
    pub fn last_of(&self, names: &[&str]) -> Option<&'static str> {
        let mut given = self.given.iter().rev().map(|(n, _)| *n);
        given.find(|n| names.contains(n))
    }
}

impl Spec<'_> {
    /// The usage text, rendered from the flag table.
    pub fn usage(&self) -> String {
        let row = |&Flag(name, arity, help): &Flag| match arity {
            Arity::Switch => (name.to_string(), help.to_string()),
            Arity::Int(meta) | Arity::Value(meta) => (format!("{name} {meta}"), help.to_string()),
            Arity::Optional(meta, default) => (
                format!("{name} [{meta}]"),
                format!("{help} (default {default})"),
            ),
        };
        let help = Flag("--help, -h", Arity::Switch, "print this text and exit 0");
        let rows: Vec<_> = self.flags.iter().chain([&help]).map(row).collect();
        let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let mut out = format!(
            "usage: {} [OPTIONS]\n\n{}\n\noptions:",
            self.tool, self.about
        );
        for (l, h) in rows {
            out.push_str(&format!("\n  {l:<width$}  {h}"));
        }
        out
    }

    /// Parses `args` against the table.
    ///
    /// # Errors
    /// One of the uniform syntax messages of the module doc.
    pub fn parse<'a>(&self, args: &'a [String]) -> Result<Matches<'a>, String> {
        let mut given: Vec<(&'static str, Option<&str>)> = Vec::new();
        let mut it = args.iter().map(String::as_str).peekable();
        while let Some(arg) = it.next() {
            let Some(&Flag(name, arity, _)) = self.flags.iter().find(|f| f.0 == arg) else {
                return Err(format!("unknown argument `{arg}`"));
            };
            if given.iter().any(|(n, _)| *n == name) {
                return Err(format!("{name} given more than once"));
            }
            let value = match arity {
                Arity::Switch => None,
                Arity::Optional(_, default) => {
                    it.next_if(|v| !v.starts_with('-')).or(Some(default))
                }
                Arity::Int(_) | Arity::Value(_) => match it.next() {
                    None => return Err(format!("{name} requires a value")),
                    Some(v) if matches!(arity, Arity::Int(_)) && v.parse::<u64>().is_err() => {
                        return Err(format!("{name}: expected an integer, got `{v}`"));
                    }
                    some => some,
                },
            };
            given.push((name, value));
        }
        Ok(Matches { given })
    }

    /// The one `main`: `--help` / `-h` anywhere prints the usage text to
    /// stdout and returns [`EXIT_OK`] without running anything;
    /// otherwise parses (a syntax error is reported with the usage
    /// text) and runs `body`, whose `Err` — a semantic usage error or an
    /// I/O failure — becomes `tool: message` on stderr. Both errors
    /// return [`EXIT_USAGE`].
    pub fn run(
        &self,
        args: &[String],
        body: impl FnOnce(&Matches<'_>) -> Result<i32, String>,
    ) -> i32 {
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", self.usage());
            return EXIT_OK;
        }
        let outcome = match self.parse(args) {
            Ok(m) => body(&m),
            Err(msg) => Err(format!("{msg}\n\n{}", self.usage())),
        };
        outcome.unwrap_or_else(|msg| {
            eprintln!("{}: {msg}", self.tool);
            EXIT_USAGE
        })
    }
}

/// Writes a text artefact, creating its parent directory first
/// (`cannot create …` / `cannot write …` otherwise).
pub fn write_artefact(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Reads a committed baseline and parses it with `parse` (`cannot read
/// baseline …` / `corrupt baseline …` otherwise).
pub fn read_baseline<T, E: Display>(
    path: &Path,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("corrupt baseline {}: {e}", path.display()))
}

/// Reports a must-find mode (a negative control or a rediscovery
/// probe): [`EXIT_OK`] with `name: <what was found>` iff it found what
/// it sought, [`EXIT_FINDING`] with the reason otherwise.
pub fn must_find(name: &str, run: Result<String, String>) -> i32 {
    match run {
        Ok(found) => {
            println!("{name}: {found}");
            EXIT_OK
        }
        Err(e) => {
            eprintln!("{name}: FAILED: {e}");
            EXIT_FINDING
        }
    }
}

/// The [`must_find`] line of a shrink demo, from its `(original steps,
/// shrunk steps)` and the file it saved.
pub fn shrunk_to(out: &Path) -> impl Fn((u64, u64)) -> String + '_ {
    move |(orig, shrunk)| {
        format!(
            "violation found, shrunk {orig} -> {shrunk} steps, saved {}",
            out.display()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag("--quick", Arity::Switch, "small sizes"),
        Flag("--seed", Arity::Int("N"), "master seed"),
        Flag("--out", Arity::Value("PATH"), "artefact path"),
        Flag(
            "--inject",
            Arity::Optional("PATH", "d.trace"),
            "negative control",
        ),
    ];
    const TOOL: Spec<'static> = Spec {
        tool: "tool",
        about: "Does a thing.",
        flags: FLAGS,
    };

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn typed_getters_read_the_table() {
        let args = s(&["--seed", "7", "--inject", "--out", "r.json", "--quick"]);
        let m = TOOL.parse(&args).unwrap();
        assert_eq!(m.int("--seed"), Some(7));
        assert_eq!(m.value("--out"), Some("r.json"));
        assert!(m.has("--quick") && m.has("--inject"));
        // An optional value is never taken from a following flag.
        assert_eq!(m.value("--inject"), Some("d.trace"));
        assert_eq!(m.last_of(&["--seed", "--out"]), Some("--out"));
        let args = s(&["--inject", "x.trace"]);
        let m = TOOL.parse(&args).unwrap();
        assert_eq!(m.value("--inject"), Some("x.trace"));
        assert_eq!((m.value("--out"), m.int("--seed")), (None, None));
        assert!(!m.has("--quick"));
    }

    #[test]
    fn syntax_errors_are_uniform() {
        for (args, want) in [
            (&["--bogus"][..], "unknown argument `--bogus`"),
            (&["stray"], "unknown argument `stray`"),
            (&["--seed"], "--seed requires a value"),
            (&["--out"], "--out requires a value"),
            (&["--seed", "x"], "--seed: expected an integer, got `x`"),
            (&["--seed", "-1"], "--seed: expected an integer, got `-1`"),
            (&["--quick", "--quick"], "--quick given more than once"),
        ] {
            assert_eq!(TOOL.parse(&s(args)).unwrap_err(), want);
            assert_eq!(TOOL.run(&s(args), |_| Ok(EXIT_OK)), EXIT_USAGE);
        }
    }

    #[test]
    fn run_maps_help_and_errors_to_the_exit_contract() {
        // --help wins in any position and runs nothing.
        for args in [&["--help"][..], &["--bogus", "-h"], &["--out", "--help"]] {
            assert_eq!(TOOL.run(&s(args), |_| unreachable!("body ran")), EXIT_OK);
        }
        assert_eq!(TOOL.run(&[], |_| Ok(EXIT_FINDING)), EXIT_FINDING);
        assert_eq!(TOOL.run(&[], |_| Err("semantic".into())), EXIT_USAGE);
    }

    #[test]
    fn usage_is_rendered_from_the_table() {
        assert_eq!(
            TOOL.usage(),
            "usage: tool [OPTIONS]\n\nDoes a thing.\n\noptions:\
             \n  --quick          small sizes\
             \n  --seed N         master seed\
             \n  --out PATH       artefact path\
             \n  --inject [PATH]  negative control (default d.trace)\
             \n  --help, -h       print this text and exit 0"
        );
    }

    #[test]
    fn artefacts_create_their_parent_and_baselines_name_their_failure() {
        let dir = std::env::temp_dir().join(format!("asynciter-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/a.json");
        write_artefact(&path, "41").unwrap();
        let parse = |t: &str| t.parse::<u32>();
        assert_eq!(read_baseline(&path, parse), Ok(41));
        write_artefact(&path, "x").unwrap();
        let err = read_baseline(&path, parse).unwrap_err();
        assert!(err.starts_with("corrupt baseline "), "{err}");
        let err = read_baseline(&dir.join("none"), parse).unwrap_err();
        assert!(err.starts_with("cannot read baseline "), "{err}");
        // A file where a directory is needed: the parent cannot be made.
        let err = write_artefact(&path.join("b.json"), "").unwrap_err();
        assert!(err.starts_with("cannot create "), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn must_find_exits_zero_iff_found() {
        let out = Path::new("x.trace");
        let found: Result<String, String> = Ok((9, 3)).map(shrunk_to(out));
        assert_eq!(
            found.as_deref(),
            Ok("violation found, shrunk 9 -> 3 steps, saved x.trace")
        );
        assert_eq!(must_find("demo", found), EXIT_OK);
        assert_eq!(must_find("demo", Err("blind spot".into())), EXIT_FINDING);
        assert_eq!((exit_code(true), exit_code(false)), (EXIT_OK, EXIT_FINDING));
    }
}
