//! Shared experiment plumbing: results directories, artefact saving, and
//! a tiny experiment context that stamps every run with its parameters.

use std::path::{Path, PathBuf};

/// The workspace results directory for an experiment id (e.g. `"F1"`),
/// honouring the `ASYNCITER_RESULTS` environment variable and defaulting
/// to `results/` under the current directory.
pub fn results_dir(exp: &str) -> PathBuf {
    let base = std::env::var("ASYNCITER_RESULTS").unwrap_or_else(|_| "results".to_string());
    Path::new(&base).join(exp)
}

/// Saves a text artefact, creating directories as needed.
///
/// # Panics
/// Panics on I/O failure (experiment binaries want loud failures).
pub fn save_text(dir: &Path, name: &str, contents: &str) {
    asynciter_report::cli::write_artefact(&dir.join(name), contents)
        .unwrap_or_else(|e| panic!("{e}"));
}

/// Context for one experiment run: id, seed, and collected notes that
/// become the experiment's `summary.txt`.
#[derive(Debug)]
pub struct ExpContext {
    /// Experiment id (e.g. `"T1"`).
    pub exp: String,
    /// Base seed used by the run.
    pub seed: u64,
    dir: PathBuf,
    summary: String,
}

impl ExpContext {
    /// Creates the context and announces the run on stdout.
    pub fn new(exp: &str, seed: u64) -> Self {
        let dir = results_dir(exp);
        println!("=== experiment {exp} (seed {seed}) → {} ===", dir.display());
        Self {
            exp: exp.to_string(),
            seed,
            dir,
            summary: format!("experiment {exp}\nseed {seed}\n\n"),
        }
    }

    /// The experiment's results directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Prints a line and records it in the summary.
    pub fn log(&mut self, line: impl AsRef<str>) {
        let line = line.as_ref();
        println!("{line}");
        self.summary.push_str(line);
        self.summary.push('\n');
    }

    /// Saves a named artefact under the experiment directory.
    pub fn save(&self, name: &str, contents: &str) {
        save_text(&self.dir, name, contents);
    }

    /// Writes the accumulated summary and closes the experiment.
    pub fn finish(self) {
        save_text(&self.dir, "summary.txt", &self.summary);
        println!("=== {} done ===", self.exp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_honours_env() {
        // Serialise against other tests touching the var.
        let dir = results_dir("X0");
        assert!(dir.ends_with("X0"));
    }

    #[test]
    fn context_accumulates_summary() {
        let tmp = std::env::temp_dir().join(format!("asynciter_ctx_{}", std::process::id()));
        std::env::set_var("ASYNCITER_RESULTS", &tmp);
        let mut ctx = ExpContext::new("T0", 7);
        ctx.log("hello");
        ctx.save("a.txt", "artefact");
        let dir = ctx.dir().to_path_buf();
        ctx.finish();
        let summary = std::fs::read_to_string(dir.join("summary.txt")).unwrap();
        assert!(summary.contains("hello"));
        assert!(summary.contains("seed 7"));
        assert_eq!(
            std::fs::read_to_string(dir.join("a.txt")).unwrap(),
            "artefact"
        );
        std::env::remove_var("ASYNCITER_RESULTS");
        std::fs::remove_dir_all(&tmp).ok();
    }
}
