//! The in-memory span log of the traced run.
//!
//! Spans are recorded by the benchmark's own thread around its calls
//! into the program (`Session::run`, `ClusterEngine::run`,
//! `trace_to_string`, `Service::drain`, …). Work the program does inside
//! such a call, behind one of its public seams, is timed by the
//! decorators in [`crate::seams`] and *folded* into the log afterwards as
//! one child per seam carrying the summed busy time and the call count —
//! a span per block update would cost more than the update.
//!
//! A span's self time is its duration minus the durations of its direct
//! children, so a parent's parts sum to its wall time by construction.

use crate::seams::Totals;
use asynciter_report::json::Json;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.session_run`.
    pub name: &'static str,
    /// The traced operation this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created.
    pub end_ns: u64,
    /// Calls this span stands for: `1` for a recorded interval, the call
    /// count for a folded seam total (whose interval is its parent's
    /// start plus the summed busy time).
    pub calls: u64,
    /// Items a folded seam total handled (components, labels, bytes);
    /// `0` for a recorded interval.
    pub items: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span log. Single-threaded: only the benchmark's driving thread
/// opens spans; worker threads report through the seam decorators.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty log.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next traced operation; spans opened from now on carry
    /// its identifier.
    pub fn next_op(&self) -> u64 {
        self.op.set(self.op.get() + 1);
        self.op.get()
    }

    /// Runs `f` inside a span named `name`, nested in whichever span is
    /// open.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.open.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                op: self.op.get(),
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
                calls: 1,
                items: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Folds a seam decorator's total into the log as one child of the
    /// most recent span named `parent`.
    ///
    /// # Panics
    /// Panics when no span named `parent` was recorded: that is a bug in
    /// the workload, not a measurement.
    pub fn fold(&self, parent: &'static str, name: &'static str, total: Totals) {
        let mut spans = self.spans.borrow_mut();
        let idx = spans
            .iter()
            .rposition(|s| s.name == parent)
            .unwrap_or_else(|| panic!("fold: no span named {parent}"));
        let (op, start_ns) = (spans[idx].op, spans[idx].start_ns);
        spans.push(Span {
            name,
            op,
            parent: Some(idx),
            start_ns,
            end_ns: start_ns + total.busy_ns,
            calls: total.calls,
            items: total.items,
        });
    }

    /// A copy of the log.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of span `idx`: its duration minus its direct children's.
/// Saturates at zero — folded totals of work done on several threads can
/// exceed the wall time of the span they ran under.
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(Span::dur_ns)
        .sum();
    spans[idx].dur_ns().saturating_sub(children)
}

/// Sums `f(spans, index)` over every span named `name` in operation
/// `op` — e.g. `|s, i| s[i].dur_ns()`, `self_ns`, `|s, i| s[i].calls`.
pub fn sum_named(spans: &[Span], op: u64, name: &str, f: impl Fn(&[Span], usize) -> u64) -> u64 {
    (0..spans.len())
        .filter(|&i| spans[i].op == op && spans[i].name == name)
        .map(|i| f(spans, i))
        .sum()
}

/// The log as JSON, one object per span.
pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(id as f64)),
                    ("name".into(), Json::Str(s.name.into())),
                    ("op".into(), Json::Num(s.op as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    ("calls".into(), Json::Num(s.calls as f64)),
                    ("items".into(), Json::Num(s.items as f64)),
                    ("self_ns".into(), Json::Num(self_ns(spans, id) as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns: start,
            end_ns: end,
            calls: 1,
            items: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a1", Some(1), 15, 25),
            span("b", Some(0), 50, 90),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 30 - 40, "siblings both subtract");
        assert_eq!(self_ns(&spans, 1), 30 - 10, "nested child subtracts once");
        assert_eq!(self_ns(&spans, 2), 10);
        assert_eq!(self_ns(&spans, 3), 40);
        // The parts of the root sum to its wall time exactly.
        let parts: u64 = (0..spans.len()).map(|i| self_ns(&spans, i)).sum();
        assert_eq!(parts, spans[0].dur_ns());
    }

    #[test]
    fn oversubscribed_children_saturate() {
        let spans = vec![span("root", None, 0, 10), span("busy", Some(0), 0, 25)];
        assert_eq!(self_ns(&spans, 0), 0);
    }

    #[test]
    fn tracer_nests_and_folds() {
        let t = Tracer::new();
        assert_eq!(t.next_op(), 1);
        t.span("outer", || {
            t.span("inner", || std::hint::black_box(1 + 1));
        });
        t.fold(
            "inner",
            "seam",
            Totals {
                calls: 7,
                items: 21,
                busy_ns: 5,
            },
        );
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].dur_ns(), 5);
        assert_eq!(sum_named(&spans, 1, "seam", |s, i| s[i].calls), 7);
        assert_eq!(sum_named(&spans, 1, "seam", |s, i| s[i].items), 21);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(
            sum_named(&spans, 1, "outer", self_ns),
            spans[0].dur_ns() - spans[1].dur_ns()
        );
        assert_eq!(t.next_op(), 2);
    }
}
