//! Trace serialisation: archive executions for offline analysis.
//!
//! Real multi-threaded runs are not reproducible; what *is* reproducible
//! is their recorded trace. This module round-trips [`Trace`]s through a
//! simple line-oriented text format so experiments can archive a racy
//! run once and re-analyse (macro-iterations, epochs, condition checks)
//! or deterministically replay it forever after. Every bitwise-replay
//! check writes and parses this text, so both halves work on bytes,
//! without `fmt`: the writer puts integers straight into one buffer that
//! a counting pass sized exactly (one allocation per trace), and the
//! parser accumulates digits straight into the step's label buffer.
//!
//! Format (one record per line, space-separated, ASCII):
//!
//! ```text
//! asynciter-trace v1 n=<n> labels=<full|min>
//! <j> a <i1> <i2> … | l <l1> … <ln>     # full-label traces
//! <j> a <i1> <i2> … | m <min_label>     # min-only traces
//! ```
//!
//! A step's label marker must match the header: `l` under `labels=full`,
//! `m` under `labels=min`; the other one is an error naming its line.
//! The reader never allocates by the header's `n`: its buffers grow only
//! with the tokens it parses, so what it holds is bounded by a constant
//! times the length of its input (eight bytes per label, which takes at
//! least two bytes of text).
//!
//! The writer emits ASCII only. Text outside ASCII reads as it always
//! did or is a typed `trace-input` error, never a panic: the header and
//! blank lines are split on Unicode whitespace, but a step line only on
//! ASCII whitespace, so a non-ASCII character there is part of a token
//! that does not parse.

use crate::error::ModelError;
use crate::trace::{well_formed_active, LabelStore, Trace, TraceStep};
use std::io::{BufRead, Write};
use std::num::ParseIntError;
use std::str::FromStr;

/// Where rendered text goes: a [`Len`] counting it first, then the
/// [`Cursor`] filling a buffer of exactly that length.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
    fn put_int(&mut self, v: u64);
}

/// Decimal digits of `v`.
#[inline]
fn digits(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Counts the bytes a render would emit.
struct Len(usize);

impl Sink for Len {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    #[inline]
    fn put_int(&mut self, v: u64) {
        self.0 += digits(v);
    }
}

/// A buffer of the exact rendered length and how much of it is written.
struct Cursor {
    buf: Vec<u8>,
    at: usize,
}

impl Sink for Cursor {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.at..self.at + bytes.len()].copy_from_slice(bytes);
        self.at += bytes.len();
    }

    #[inline]
    fn put_int(&mut self, mut v: u64) {
        let end = self.at + digits(v);
        for slot in self.buf[self.at..end].iter_mut().rev() {
            *slot = b'0' + (v % 10) as u8;
            v /= 10;
        }
        self.at = end;
    }
}

fn render_step(
    trace: &Trace,
    j: u64,
    step: TraceStep<'_>,
    out: &mut impl Sink,
) -> crate::Result<()> {
    out.put_int(j);
    out.put(b" a");
    for &i in step.active {
        out.put(b" ");
        out.put_int(u64::from(i));
    }
    match trace.store() {
        LabelStore::Full => {
            out.put(b" | l");
            for &l in trace.labels(j)? {
                out.put(b" ");
                out.put_int(l);
            }
        }
        LabelStore::MinOnly => {
            out.put(b" | m ");
            out.put_int(step.min_label);
        }
    }
    out.put(b"\n");
    Ok(())
}

fn render(trace: &Trace, out: &mut impl Sink) -> crate::Result<()> {
    out.put(b"asynciter-trace v1 n=");
    out.put_int(trace.n() as u64);
    out.put(match trace.store() {
        LabelStore::Full => b" labels=full\n",
        LabelStore::MinOnly => b" labels=min\n".as_slice(),
    });
    for (j, step) in trace.iter() {
        render_step(trace, j, step, out)?;
    }
    Ok(())
}

/// Serialises a trace to a writer: the text of [`trace_to_string`],
/// written at once.
///
/// # Errors
/// I/O errors (wrapped as [`ModelError::InvalidParameter`] carrying the
/// message — traces have no dedicated I/O error variant by design).
pub fn write_trace(trace: &Trace, out: &mut dyn Write) -> crate::Result<()> {
    out.write_all(trace_to_string(trace)?.as_bytes())
        .map_err(|e| ModelError::InvalidParameter {
            name: "writer",
            message: e.to_string(),
        })
}

/// Serialises a trace to a string of ASCII text. A counting pass sizes
/// the buffer first, so this allocates exactly once.
///
/// # Errors
/// None in practice: a step's labels are read under the store that
/// recorded them.
pub fn trace_to_string(trace: &Trace) -> crate::Result<String> {
    let mut len = Len(0);
    render(trace, &mut len)?;
    let mut out = Cursor {
        buf: vec![0; len.0],
        at: 0,
    };
    render(trace, &mut out)?;
    debug_assert_eq!(out.at, len.0, "the counting pass sized the text");
    Ok(String::from_utf8(out.buf).expect("trace text is ASCII"))
}

fn parse_err(line: usize, message: impl Into<String>) -> ModelError {
    ModelError::InvalidParameter {
        name: "trace-input",
        message: format!("line {line}: {}", message.into()),
    }
}

/// Deserialises a trace from a reader: reads it whole, then
/// [`trace_from_str`].
///
/// # Errors
/// As [`trace_from_str`]; a read error or a byte sequence that is not
/// UTF-8 is also [`ModelError::InvalidParameter`] naming its line, unless
/// an earlier line is already malformed.
pub fn read_trace(input: &mut dyn BufRead) -> crate::Result<Trace> {
    let line_of = |bytes: &[u8]| 1 + bytes.iter().filter(|&&b| b == b'\n').count();
    let mut bytes = Vec::new();
    if let Err(e) = input.read_to_end(&mut bytes) {
        return Err(parse_err(line_of(&bytes), e.to_string()));
    }
    match String::from_utf8(bytes) {
        Ok(text) => trace_from_str(&text),
        Err(e) => {
            let valid = &e.as_bytes()[..e.utf8_error().valid_up_to()];
            // The whole lines before the bad byte are text: an error in
            // them comes first, as it would reading line by line.
            let lines = &valid[..valid.iter().rposition(|&b| b == b'\n').map_or(0, |k| k + 1)];
            if let Some(text) = std::str::from_utf8(lines).ok().filter(|t| !t.is_empty()) {
                trace_from_str(text)?;
            }
            Err(parse_err(
                line_of(valid),
                "stream did not contain valid UTF-8",
            ))
        }
    }
}

/// Deserialises a trace from a string.
///
/// # Errors
/// [`ModelError::InvalidParameter`] naming the line, on malformed input,
/// on a label marker the header does not announce, and on a step that is
/// not well formed ([`crate::trace::well_formed_step`]: `S_j` non-empty,
/// strictly increasing, below `n`) or whose active index passes
/// `u32::MAX` — a trace file is outside input and never reaches
/// [`Trace::push_step`]'s assertion or its 32-bit index store.
pub fn trace_from_str(s: &str) -> crate::Result<Trace> {
    let mut lines = s.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| parse_err(1, "empty input"))?;
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
    let (mut active, mut labels) = (Vec::new(), Vec::new());
    for (idx, line) in lines {
        if !line.trim().is_empty() {
            parse_step(line, &mut trace, &mut active, &mut labels)
                .map_err(|message| parse_err(idx + 1, message))?;
        }
    }
    Ok(trace)
}

/// Parses one step line onto `trace`. `active` and `labels` are buffers
/// reused from line to line, so the trace's own copy of the step is the
/// only allocation a line makes once they have grown.
fn parse_step(
    line: &str,
    trace: &mut Trace,
    active: &mut Vec<usize>,
    labels: &mut Vec<u64>,
) -> Result<(), String> {
    let n = trace.n();
    let (head, tail) = line.split_once(" | ").ok_or("missing ` | ` separator")?;
    let (j, head) = next_token(head);
    let j: u64 = j.and_then(|v| v.parse().ok()).ok_or("bad step index")?;
    if j != trace.len() as u64 + 1 {
        return Err(format!(
            "non-consecutive step {j} (expected {})",
            trace.len() + 1
        ));
    }
    let (marker, head) = next_token(head);
    if marker != Some("a") {
        return Err("missing `a` marker".into());
    }
    parse_ints(head, active).map_err(|e| format!("bad active index: {e}"))?;

    let check_active = |active: &[usize]| match active.last() {
        _ if !well_formed_active(active, n) => Err(format!(
            "S_j = {active:?} must be nonempty, strictly increasing and below n = {n}"
        )),
        // A trace stores indices in 32 bits; only `n > 2^32` lets one past.
        Some(&i) if u32::try_from(i).is_err() => Err(format!(
            "active index {i} is above {}, the largest a trace stores",
            u32::MAX
        )),
        _ => Ok(()),
    };
    match (next_token(tail), trace.store()) {
        ((Some("l"), rest), LabelStore::Full) => {
            parse_ints(rest, labels).map_err(|e| format!("bad label: {e}"))?;
            if labels.len() != n {
                return Err(format!("expected {n} labels, got {}", labels.len()));
            }
            check_active(active)?;
            trace.push_step(active, labels);
        }
        ((Some("m"), rest), LabelStore::MinOnly) => {
            let m: u64 = next_token(rest)
                .0
                .and_then(|v| v.parse().ok())
                .ok_or("bad min label")?;
            check_active(active)?;
            trace.push_min_step(active, m);
        }
        ((Some(marker @ ("l" | "m")), _), store) => {
            check_active(active)?;
            let mode = if store == LabelStore::Full {
                "full"
            } else {
                "min"
            };
            return Err(format!(
                "label marker `{marker}` does not match the header's `labels={mode}`"
            ));
        }
        _ => return Err("missing label marker".into()),
    }
    Ok(())
}

/// ASCII whitespace as `char::is_whitespace` sees it, which (unlike
/// `u8::is_ascii_whitespace`) includes the vertical tab `\x0B`.
#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// The first token of `s` and the text after it: `str::split_whitespace`
/// on ASCII text. Both cuts fall on ASCII bytes, so on char boundaries.
fn next_token(s: &str) -> (Option<&str>, &str) {
    let Some(start) = s.bytes().position(|b| !is_space(b)) else {
        return (None, "");
    };
    let end = s
        .bytes()
        .skip(start)
        .position(is_space)
        .map_or(s.len(), |k| start + k);
    (Some(&s[start..end]), &s[end..])
}

/// Parses every token of `s` into `out`, cleared first. A token of at
/// most 19 ASCII digits — every token the writer emits — accumulates
/// digit by digit; the rest go through `str::parse`, so a sign, overflow
/// or a bad digit is accepted or rejected exactly as `parse` does.
fn parse_ints<T>(s: &str, out: &mut Vec<T>) -> Result<(), ParseIntError>
where
    T: FromStr<Err = ParseIntError> + TryFrom<u64>,
{
    out.clear();
    let bytes = s.as_bytes();
    let mut at = 0;
    while at < bytes.len() {
        if is_space(bytes[at]) {
            at += 1;
            continue;
        }
        let start = at;
        let mut value = 0u64;
        while let Some(d) = bytes
            .get(at)
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d < 10)
        {
            value = value.wrapping_mul(10).wrapping_add(u64::from(d));
            at += 1;
        }
        let plain = at - start <= 19 && bytes.get(at).is_none_or(|&b| is_space(b));
        match plain.then(|| T::try_from(value).ok()).flatten() {
            Some(v) => out.push(v),
            None => {
                at = bytes[at..]
                    .iter()
                    .position(|&b| is_space(b))
                    .map_or(bytes.len(), |k| at + k);
                out.push(s[start..at].parse()?);
            }
        }
    }
    Ok(())
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

    /// The codec as it stood before the byte-level rewrite, verbatim: the
    /// differential reference for both halves.
    mod reference {
        use crate::error::ModelError;
        use crate::trace::{well_formed_step, LabelStore, Trace};
        use std::io::{BufRead, Write};

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
                for &i in step.active {
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

        fn parse_err(line: usize, message: impl Into<String>) -> ModelError {
            ModelError::InvalidParameter {
                name: "trace-input",
                message: format!("line {line}: {}", message.into()),
            }
        }

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
                    let message = format!(
                        "S_j = {active:?} must be nonempty, strictly increasing and below n = {n}"
                    );
                    return Err(parse_err(lineno, message));
                }
                match min_label {
                    Some(m) => trace.push_min_step(&active, m),
                    None => trace.push_step(&active, &labels),
                }
            }
            Ok(trace)
        }
    }

    use rand::rngs::StdRng;
    use rand::RngExt;

    fn reference_text(t: &Trace) -> String {
        let mut out = Vec::new();
        reference::write_trace(t, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn reference_parse(text: &str) -> crate::Result<Trace> {
        reference::read_trace(&mut text.as_bytes())
    }

    /// Recorded `Full` and `MinOnly` traces with `n ∈ {1, 5, 4096}`: what
    /// the differential generator mutates.
    fn seed_texts() -> Vec<String> {
        let mut texts = Vec::new();
        for (n, steps) in [(1, 12), (5, 12), (4096, 3)] {
            for store in [LabelStore::Full, LabelStore::MinOnly] {
                let mut gen = ChaoticBounded::new(n, 1, n.min(8), 4, false, n as u64);
                texts.push(trace_to_string(&record(&mut gen, steps, store)).unwrap());
            }
        }
        texts
    }

    /// Byte offsets of the characters `pick` selects, one drawn at random.
    fn pick_at(text: &str, rng: &mut StdRng, pick: impl Fn(char) -> bool) -> Option<usize> {
        let at: Vec<usize> = text
            .char_indices()
            .filter(|&(_, c)| pick(c))
            .map(|(k, _)| k)
            .collect();
        (!at.is_empty()).then(|| at[rng.random_range(0..at.len())])
    }

    /// One random whitespace-separated token, as a byte range.
    fn pick_token(text: &str, rng: &mut StdRng) -> Option<std::ops::Range<usize>> {
        let start = pick_at(text, rng, |c| !c.is_whitespace())?;
        let start = text[..start]
            .rfind(char::is_whitespace)
            .map_or(0, |k| k + 1);
        let end = text[start..]
            .find(char::is_whitespace)
            .map_or(text.len(), |k| start + k);
        Some(start..end)
    }

    /// One mutation of the differential: token deletion or duplication,
    /// digit → letter, `+`, leading zeros, `u64::MAX` and one past it,
    /// tab / `\x0B` / `\x0C` / a run of spaces for a space, CRLF, a lost
    /// ` | `, a blank line, a non-consecutive `j`, a lost or `\r` ending.
    fn mutate(text: &mut String, rng: &mut StdRng) {
        let token = pick_token(text, rng).unwrap_or(0..0);
        let space = pick_at(text, rng, |c| c == ' ');
        let newline = pick_at(text, rng, |c| c == '\n');
        match rng.random_range(0..17u32) {
            0 => text.replace_range(token, ""),
            1 => {
                let copy = format!(" {}", &text[token.clone()]);
                text.insert_str(token.end, &copy);
            }
            2 => {
                if let Some(k) = pick_at(text, rng, |c| c.is_ascii_digit()) {
                    let letter = ["a", "l", "m", "x", "|"][rng.random_range(0..5)];
                    text.replace_range(k..k + 1, letter);
                }
            }
            3 => text.insert(token.start, '+'),
            4 => text.insert_str(token.start, "00"),
            5 => text.replace_range(token, &u64::MAX.to_string()),
            6 => text.replace_range(token, "18446744073709551616"),
            7..=10 => {
                if let Some(k) = space {
                    let with = ["\t", "\x0B", "\x0C", "   "][rng.random_range(0..4)];
                    text.replace_range(k..k + 1, with);
                }
            }
            11 => {
                if let Some(k) = newline {
                    text.insert(k, '\r');
                }
            }
            12 => {
                if let Some(k) = text.find(" | ") {
                    text.replace_range(k..k + 3, " ");
                }
            }
            13 => {
                if let Some(k) = newline {
                    let blank = ["\n", "  \n", "\t\x0B\n", "\r\n"][rng.random_range(0..4)];
                    text.insert_str(k + 1, blank);
                }
            }
            14 => {
                if let Some(k) = newline.filter(|&k| k + 1 < text.len()) {
                    let j = text[k + 1..].split(' ').next().unwrap_or("").to_string();
                    let bumped = j
                        .parse::<u64>()
                        .map_or(0, |j| j + rng.random_range(0..3u64));
                    text.replace_range(k + 1..k + 1 + j.len(), &bumped.to_string());
                }
            }
            15 => {
                if text.ends_with('\n') {
                    text.pop();
                } else {
                    text.push('\r');
                }
            }
            _ => {
                // A header announcing the other store: the marker class.
                let swapped = if text.contains("labels=full") {
                    text.replacen("labels=full", "labels=min", 1)
                } else {
                    text.replacen("labels=min", "labels=full", 1)
                };
                *text = swapped;
            }
        }
    }

    /// The first step line whose label marker is not the one its header
    /// announces (ASCII text).
    fn mismatched_marker_line(text: &str) -> Option<usize> {
        let header = text.lines().next()?;
        let other = match header.split_whitespace().nth(3)? {
            "labels=full" => "m",
            "labels=min" => "l",
            _ => return None,
        };
        text.lines().enumerate().skip(1).find_map(|(idx, line)| {
            let (_, tail) = line.split_once(" | ")?;
            (tail.split_whitespace().next() == Some(other)).then_some(idx + 1)
        })
    }

    /// Both parsers return the same `Ok` trace or the same `Err`, except
    /// on a marker the header does not announce: that is a typed error
    /// on its line, where the reference read on. Returns whether the
    /// exception applied.
    fn assert_agrees(text: &str) -> bool {
        let (new, old) = (trace_from_str(text), reference_parse(text));
        match (&new, &old) {
            (Ok(a), Ok(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{text:?}"),
            (Err(a), Err(b)) if a == b => {}
            _ => {
                let k = mismatched_marker_line(text)
                    .unwrap_or_else(|| panic!("{text:?}: new {new:?}, reference {old:?}"));
                let Err(ModelError::InvalidParameter { name, message }) = new else {
                    panic!("{text:?}: a mismatched marker was accepted: {new:?}");
                };
                assert_eq!(name, "trace-input");
                assert!(message.starts_with(&format!("line {k}: ")), "{message}");
                let before: String = text.lines().take(k - 1).map(|l| format!("{l}\n")).collect();
                assert!(reference_parse(&before).is_ok(), "{text:?}");
                return true;
            }
        }
        false
    }

    #[test]
    fn the_byte_parser_agrees_with_the_reference_on_mutated_traces() {
        let mut rng = asynciter_numerics::rng::rng(27);
        let (mut cases, mut errors, mut marker_class) = (0, 0, 0);
        for seed in seed_texts() {
            assert!(!assert_agrees(&seed));
            for _ in 0..150 {
                let mut text = seed.clone();
                for _ in 0..rng.random_range(1..=3u32) {
                    mutate(&mut text, &mut rng);
                }
                marker_class += usize::from(assert_agrees(&text));
                errors += usize::from(trace_from_str(&text).is_err());
                cases += 1;
            }
        }
        assert_eq!(cases, 900);
        assert!(errors > 300 && errors < cases - 100, "{errors} errors");
        assert!(marker_class > 20, "{marker_class} marker-class cases");
    }

    #[test]
    fn non_ascii_text_reads_the_same_or_is_a_typed_error() {
        let mut rng = asynciter_numerics::rng::rng(2027);
        let chars = [
            '\u{A0}', '\u{85}', '\u{2003}', '\u{2028}', '\u{3000}', 'é', '１',
        ];
        for seed in seed_texts() {
            for _ in 0..40 {
                let mut text = seed.clone();
                let c = chars[rng.random_range(0..chars.len())];
                match pick_at(&text, &mut rng, |c| c == ' ') {
                    Some(k) if rng.random::<bool>() => text.replace_range(k..k + 1, &c.to_string()),
                    _ => text.insert(rng.random_range(0..=text.len()), c),
                }
                let (new, old) = (trace_from_str(&text), reference_parse(&text));
                match (&new, &old) {
                    (Ok(a), Ok(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
                    (Err(ModelError::InvalidParameter { name, .. }), _) => {
                        assert_eq!(*name, "trace-input");
                    }
                    _ => panic!("{text:?}: new {new:?}, reference {old:?}"),
                }
            }
        }
        // Bytes that are not UTF-8 name their line, as the reference did,
        // unless an earlier line is malformed: the first bad line wins.
        for (bytes, want) in [
            (
                &b"asynciter-trace v1 n=2 labels=full\n1 a 0 | l 0 0\n2 a \xff | l 0 0\n"[..],
                "line 3: stream did not contain valid UTF-8",
            ),
            (
                b"asynciter-trace v1 n=2 labels=full\n1 a 0 l 0 0\n2 a 0 | l 0 0\n\
                  3 a 0 | l 0 0\n4 a \xff | l 0 0\n",
                "line 2: missing ` | ` separator",
            ),
            (
                b"asynciter-trace v1 n=2 labels=full\n1 a 0 | l 0 0\n2 a 0 | l 0 0 \xff",
                "line 3: stream did not contain valid UTF-8",
            ),
            (
                b"asynciter-trace v1 n=2 labels=f\xffull\n1 a 0 | l 0 0\n",
                "line 1: stream did not contain valid UTF-8",
            ),
        ] {
            let new = read_trace(&mut &bytes[..]).unwrap_err();
            assert_eq!(new, reference::read_trace(&mut &bytes[..]).unwrap_err());
            assert!(new.to_string().contains(want), "{new}");
        }
    }

    #[test]
    fn tokens_of_every_width_read_as_str_parse_reads_them() {
        // Widths 1..=20, so 19 digits accumulate and 20 go to `parse`;
        // each whitespace byte as the terminator; a token at the end.
        let mut rng = asynciter_numerics::rng::rng(9);
        for _ in 0..400 {
            let mut text = String::new();
            for _ in 0..rng.random_range(1..40usize) {
                let width = rng.random_range(1..=20u32);
                let mut token: String = (0..width)
                    .map(|_| char::from(b'0' + rng.random_range(0..10u8)))
                    .collect();
                if rng.random_range(0..50u32) == 0 {
                    token =
                        ["+7", "7x", "-1", "18446744073709551616"][rng.random_range(0..4)].into();
                }
                text.push_str(&token);
                text.push([' ', ' ', ' ', '\t', '\x0B', '\x0C', '\r'][rng.random_range(0..7)]);
            }
            if rng.random::<bool>() {
                text.pop();
            }
            let want: Result<Vec<u64>, _> = text.split_whitespace().map(str::parse).collect();
            let mut got = Vec::new();
            assert_eq!(parse_ints(&text, &mut got).map(|()| got), want, "{text:?}");
        }
    }

    #[test]
    fn a_header_n_never_sizes_an_allocation() {
        // Each used to pre-allocate `n` labels: 32 TB and an abort for
        // the first, a capacity overflow and a panic for the second.
        let full = "asynciter-trace v1 n=4000000000000 labels=full\n";
        let min = "asynciter-trace v1 n=2305843009213693952 labels=min\n";
        let t = trace_from_str(full).unwrap();
        assert_eq!((t.n(), t.len()), (4_000_000_000_000, 0));
        let t = trace_from_str(min).unwrap();
        assert_eq!((t.n(), t.len()), (2_305_843_009_213_693_952, 0));

        // Past `2^32` components an index can pass the trace's 32-bit
        // store: a typed error on its line, never a truncated `S_j`.
        let wide = "asynciter-trace v1 n=8589934592 labels=min\n";
        for (step, i) in [
            ("1 a 4294967296 | m 0", 4_294_967_296u64),
            ("1 a 1 4294967297 | m 0", 4_294_967_297),
        ] {
            let message = trace_from_str(&format!("{wide}{step}\n")).unwrap_err();
            let want = format!("line 2: active index {i} is above 4294967295");
            assert!(message.to_string().contains(&want), "{message}");
        }
        let t = trace_from_str(&format!("{wide}1 a 0 4294967295 | m 0\n")).unwrap();
        assert_eq!(t.step(1).active, [0, u32::MAX]);

        // The same headers over recorded steps: a min-only trace reads its
        // steps, a full one fails on its first label count.
        for seed in seed_texts() {
            let body = &seed[seed.find('\n').unwrap() + 1..];
            let original = trace_from_str(&seed).unwrap();
            match original.store() {
                LabelStore::MinOnly => {
                    let t = trace_from_str(&format!("{min}{body}")).unwrap();
                    assert_eq!(t.len(), original.len());
                    assert!(t.iter().eq(original.iter()));
                }
                LabelStore::Full => {
                    let message = trace_from_str(&format!("{full}{body}")).unwrap_err();
                    let want = format!(
                        "line 2: expected 4000000000000 labels, got {}",
                        original.n()
                    );
                    assert!(message.to_string().contains(&want), "{message}");
                }
            }
        }
    }

    #[test]
    fn a_label_marker_must_match_the_header() {
        // `m` under `labels=full` would materialise `n` labels; `l` under
        // `labels=min` parsed `n` labels to keep their minimum.
        for (header, step, want) in [
            (
                "full",
                "1 a 0 | m 0",
                "`m` does not match the header's `labels=full`",
            ),
            (
                "min",
                "1 a 0 | l 0 0",
                "`l` does not match the header's `labels=min`",
            ),
        ] {
            let text = format!("asynciter-trace v1 n=2 labels={header}\n{step}\n");
            match trace_from_str(&text) {
                Err(ModelError::InvalidParameter { name, message }) => {
                    assert_eq!(name, "trace-input");
                    assert_eq!(message, format!("line 2: label marker {want}"));
                }
                other => panic!("{step}: expected a typed parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn the_writer_renders_the_bytes_of_the_write_macro_writer() {
        let mut gen = ChaoticBounded::new(4096, 1, 512, 40, false, 7);
        let t = record(&mut gen, 700, LabelStore::Full);
        let text = trace_to_string(&t).unwrap();
        assert_eq!(text, reference_text(&t));
        let mut written = Vec::new();
        write_trace(&t, &mut written).unwrap();
        assert_eq!(written, text.as_bytes());

        // Every width an integer can take, and the min-only form.
        let mut t = Trace::new(5, LabelStore::Full);
        t.push_step(&[0, 4], &[u64::MAX, 0, 9, 10, 1 << 40]);
        assert_eq!(trace_to_string(&t).unwrap(), reference_text(&t));
        for seed in seed_texts() {
            let t = trace_from_str(&seed).unwrap();
            assert_eq!(trace_to_string(&t).unwrap(), reference_text(&t));
        }
    }
}
