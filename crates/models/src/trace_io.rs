//! Trace serialisation: archive executions for offline analysis.
//!
//! Real multi-threaded runs are not reproducible; what *is* reproducible
//! is their recorded trace. This module round-trips [`Trace`]s through a
//! simple line-oriented text format so experiments can archive a racy
//! run once and re-analyse (macro-iterations, epochs, condition checks)
//! or deterministically replay it forever after.
//!
//! Format (one record per line, space-separated):
//!
//! ```text
//! asynciter-trace v1 n=<n> labels=<full|min>
//! <j> a <i1> <i2> … | l <l1> … <ln>     # full-label traces
//! <j> a <i1> <i2> … | m <min_label>     # min-only traces
//! ```

use crate::error::ModelError;
use crate::trace::{well_formed_step, LabelStore, Trace};
use std::io::{BufRead, Write};

/// Serialises a trace to a writer.
///
/// # Errors
/// I/O errors (wrapped as [`ModelError::InvalidParameter`] carrying the
/// message — traces have no dedicated I/O error variant by design; this
/// is a tooling path, not a hot path).
pub fn write_trace(trace: &Trace, out: &mut dyn Write) -> crate::Result<()> {
    let io_err = |e: std::io::Error| ModelError::InvalidParameter {
        name: "writer",
        message: e.to_string(),
    };
    let mode = match trace.store() {
        LabelStore::Full => "full",
        LabelStore::MinOnly => "min",
    };
    writeln!(out, "asynciter-trace v1 n={} labels={mode}", trace.n()).map_err(io_err)?;
    for (j, step) in trace.iter() {
        write!(out, "{j} a").map_err(io_err)?;
        for &i in &step.active {
            write!(out, " {i}").map_err(io_err)?;
        }
        match trace.store() {
            LabelStore::Full => {
                write!(out, " | l").map_err(io_err)?;
                for &l in trace.labels(j)? {
                    write!(out, " {l}").map_err(io_err)?;
                }
            }
            LabelStore::MinOnly => {
                write!(out, " | m {}", step.min_label).map_err(io_err)?;
            }
        }
        writeln!(out).map_err(io_err)?;
    }
    Ok(())
}

/// Serialises a trace to a string.
///
/// # Errors
/// Propagates [`write_trace`] failures (none for in-memory writers in
/// practice).
pub fn trace_to_string(trace: &Trace) -> crate::Result<String> {
    let mut buf = Vec::new();
    write_trace(trace, &mut buf)?;
    Ok(String::from_utf8(buf).expect("trace text is ASCII"))
}

fn parse_err(line: usize, message: impl Into<String>) -> ModelError {
    ModelError::InvalidParameter {
        name: "trace-input",
        message: format!("line {line}: {}", message.into()),
    }
}

/// Deserialises a trace from a reader.
///
/// # Errors
/// [`ModelError::InvalidParameter`] naming the line, on malformed input
/// and on a step that is not well formed ([`well_formed_step`]: `S_j`
/// non-empty, strictly increasing, below `n`) — a trace file is outside
/// input and never reaches [`Trace::push_step`]'s assertion.
pub fn read_trace(input: &mut dyn BufRead) -> crate::Result<Trace> {
    let mut lines = input.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| parse_err(1, "empty input"))?;
    let header = header.map_err(|e| parse_err(1, e.to_string()))?;
    let parts: Vec<&str> = header.split_whitespace().collect();
    if parts.len() != 4 || parts[0] != "asynciter-trace" || parts[1] != "v1" {
        return Err(parse_err(1, format!("bad header `{header}`")));
    }
    let n: usize = parts[2]
        .strip_prefix("n=")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| parse_err(1, "bad n field"))?;
    let store = match parts[3] {
        "labels=full" => LabelStore::Full,
        "labels=min" => LabelStore::MinOnly,
        other => return Err(parse_err(1, format!("bad labels field `{other}`"))),
    };
    if n == 0 {
        return Err(parse_err(1, "n must be positive"));
    }

    let mut trace = Trace::new(n, store);
    let mut labels = vec![0u64; n];
    for (idx, line) in lines {
        let lineno = idx + 1;
        let line = line.map_err(|e| parse_err(lineno, e.to_string()))?;
        if line.trim().is_empty() {
            continue;
        }
        let (head, tail) = line
            .split_once(" | ")
            .ok_or_else(|| parse_err(lineno, "missing ` | ` separator"))?;
        let mut head_it = head.split_whitespace();
        let j: u64 = head_it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| parse_err(lineno, "bad step index"))?;
        if j != trace.len() as u64 + 1 {
            return Err(parse_err(
                lineno,
                format!("non-consecutive step {j} (expected {})", trace.len() + 1),
            ));
        }
        if head_it.next() != Some("a") {
            return Err(parse_err(lineno, "missing `a` marker"));
        }
        let active: Vec<usize> = head_it
            .map(|v| v.parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|e| parse_err(lineno, format!("bad active index: {e}")))?;

        let mut tail_it = tail.split_whitespace();
        let min_label = match tail_it.next() {
            Some("l") => {
                let parsed: Vec<u64> = tail_it
                    .map(|v| v.parse::<u64>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| parse_err(lineno, format!("bad label: {e}")))?;
                if parsed.len() != n {
                    return Err(parse_err(
                        lineno,
                        format!("expected {n} labels, got {}", parsed.len()),
                    ));
                }
                labels.copy_from_slice(&parsed);
                None
            }
            Some("m") => {
                let m: u64 = tail_it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad min label"))?;
                Some(m)
            }
            _ => return Err(parse_err(lineno, "missing label marker")),
        };
        if !well_formed_step(&active, &labels, n) {
            let message =
                format!("S_j = {active:?} must be nonempty, strictly increasing and below n = {n}");
            return Err(parse_err(lineno, message));
        }
        match min_label {
            Some(m) => trace.push_min_step(&active, m),
            None => trace.push_step(&active, &labels),
        }
    }
    Ok(trace)
}

/// Deserialises a trace from a string.
///
/// # Errors
/// See [`read_trace`].
pub fn trace_from_str(s: &str) -> crate::Result<Trace> {
    read_trace(&mut s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macroiter::macro_iterations;
    use crate::schedule::{record, ChaoticBounded, SyncJacobi};

    #[test]
    fn roundtrip_full_labels() {
        let mut gen = ChaoticBounded::new(5, 1, 3, 7, false, 42);
        let t = record(&mut gen, 100, LabelStore::Full);
        let text = trace_to_string(&t).unwrap();
        let back = trace_from_str(&text).unwrap();
        assert_eq!(back.n(), 5);
        assert_eq!(back.len(), 100);
        for j in 1..=100u64 {
            assert_eq!(t.step(j).active, back.step(j).active);
            assert_eq!(t.labels(j).unwrap(), back.labels(j).unwrap());
        }
        // Analysis results survive the roundtrip.
        assert_eq!(
            macro_iterations(&t).boundaries,
            macro_iterations(&back).boundaries
        );
    }

    #[test]
    fn roundtrip_min_only() {
        let mut gen = SyncJacobi::new(3);
        let t = record(&mut gen, 20, LabelStore::MinOnly);
        let text = trace_to_string(&t).unwrap();
        let back = trace_from_str(&text).unwrap();
        assert_eq!(back.store(), LabelStore::MinOnly);
        for j in 1..=20u64 {
            assert_eq!(t.step(j).min_label, back.step(j).min_label);
        }
    }

    #[test]
    fn header_is_self_describing() {
        let mut gen = SyncJacobi::new(4);
        let t = record(&mut gen, 2, LabelStore::Full);
        let text = trace_to_string(&t).unwrap();
        assert!(text.starts_with("asynciter-trace v1 n=4 labels=full\n"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(trace_from_str("").is_err());
        assert!(trace_from_str("bogus header\n").is_err());
        assert!(trace_from_str("asynciter-trace v1 n=0 labels=full\n").is_err());
        assert!(trace_from_str("asynciter-trace v2 n=2 labels=full\n").is_err());
        // Missing separator.
        assert!(trace_from_str("asynciter-trace v1 n=2 labels=full\n1 a 0 l 0 0\n").is_err());
        // Wrong label count.
        assert!(trace_from_str("asynciter-trace v1 n=2 labels=full\n1 a 0 | l 0\n").is_err());
        // Non-consecutive step numbering.
        assert!(trace_from_str("asynciter-trace v1 n=2 labels=full\n2 a 0 | l 0 0\n").is_err());
    }

    #[test]
    fn a_malformed_active_set_is_a_typed_error_naming_its_line() {
        // Unsorted, empty, out of range, repeated: each used to reach
        // the `assert!` in `Trace::push_step`.
        for step in [
            "1 a 1 0 | l 0 0",
            "1 a | l 0 0",
            "1 a 0 7 | l 0 0",
            "1 a 1 1 | m 0",
        ] {
            let text = format!("asynciter-trace v1 n=2 labels=full\n{step}\n");
            match trace_from_str(&text) {
                Err(ModelError::InvalidParameter { name, message }) => {
                    assert_eq!(name, "trace-input", "{step}");
                    assert!(message.starts_with("line 2: S_j = ["), "{step}: {message}");
                }
                other => panic!("{step}: expected a typed parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn blank_lines_ignored() {
        let t = trace_from_str("asynciter-trace v1 n=2 labels=full\n\n1 a 0 | l 0 0\n\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn condition_a_violations_roundtrip_too() {
        // The format preserves whatever was recorded, including traces
        // that violate condition (a) — checkers must still catch them
        // after a roundtrip.
        let mut t = Trace::new(2, LabelStore::Full);
        t.push_step(&[0], &[0, 0]);
        t.push_step(&[1], &[5, 0]); // label 5 > j-1 = 1
        let back = trace_from_str(&trace_to_string(&t).unwrap()).unwrap();
        assert!(crate::conditions::check_condition_a(&back).is_err());
    }
}
