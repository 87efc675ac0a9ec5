//! The per-layer ledger: every per-layer metric of the traced run, by
//! name. Span-derived figures are computed the same way for every
//! workload — a layer a workload bypasses has no spans and reads zero.

use crate::stats::{median_of, percentile_or_zero};
use crate::trace::{self_ns, sum_named, Span};
use crate::workloads::{CostModel, Outcome};
use std::collections::BTreeMap;

/// Metric name → value.
pub type Ledger = BTreeMap<String, f64>;

/// `num / den`, or zero when the layer did no such work.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0u32), |(s, n), x| (s + x, n + 1));
    ratio(sum, f64::from(n))
}

/// What the traced run hands the ledger.
pub struct TracedRun<'a> {
    /// The span log.
    pub spans: &'a [Span],
    /// Traced operations: span-log operation id and outcome.
    pub traced: &'a [(u64, Outcome)],
    /// The untraced operations measured before them, in the same process.
    pub untraced: &'a [Outcome],
    /// Threads the timed operation keeps busy.
    pub threads: usize,
    /// Operator cost model.
    pub cost: CostModel,
    /// Probe results, by metric name.
    pub probes: &'a [(&'static str, f64)],
}

/// Builds the ledger. Every span-derived figure is the mean over the
/// traced operations, i.e. *per operation*.
pub fn build(run: &TracedRun<'_>) -> Ledger {
    let mut ledger = Ledger::new();
    let ops: Vec<u64> = run.traced.iter().map(|(op, _)| *op).collect();
    let spans = run.spans;
    // Per-operation means of a span total.
    let per_op = |name: &str, f: fn(&[Span], usize) -> u64| {
        mean(ops.iter().map(|&op| sum_named(spans, op, name, f) as f64))
    };
    let secs = |name: &str| per_op(name, |s, i| s[i].dur_ns()) * 1e-9;
    let self_secs = |name: &str| per_op(name, self_ns) * 1e-9;
    let calls = |name: &str| per_op(name, |s, i| s[i].calls);
    let items = |name: &str| per_op(name, |s, i| s[i].items);
    let counter = |name: &str| {
        mean(
            run.traced
                .iter()
                .filter_map(|(_, o)| o.counters.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)),
        )
    };
    let op_wall = mean(run.traced.iter().map(|(_, o)| o.wall_s));
    // Busy time of work done on `threads` threads is a share of
    // threads × wall.
    let thread_wall = op_wall * run.threads as f64;
    let mut put = |name: &str, value: f64| {
        ledger.insert(name.to_string(), value);
    };

    // Counters the workloads read from the program's result structs.
    for (name, _) in run.traced.iter().flat_map(|(_, o)| o.counters.iter()) {
        put(name, counter(name));
    }
    for &(name, value) in run.probes {
        put(name, value);
    }

    // opt: the Operator seam.
    let (upd_s, res_s) = (secs("opt.update"), secs("opt.residual"));
    let (upd_calls, upd_comps, res_calls) = (
        calls("opt.update"),
        items("opt.update"),
        calls("opt.residual"),
    );
    let c = run.cost;
    let flops =
        (upd_calls + res_calls) * c.call_flops + (upd_comps + res_calls * c.n) * c.comp_flops;
    let bytes =
        (upd_calls + res_calls) * c.call_bytes + (upd_comps + res_calls * c.n) * c.comp_bytes;
    put("opt.update_calls", upd_calls);
    put("opt.update_components", upd_comps);
    put("opt.residual_calls", res_calls);
    put("opt.update_busy_s", upd_s);
    put("opt.residual_busy_s", res_s);
    put("opt.update_ns_per_component", ratio(upd_s * 1e9, upd_comps));
    put("opt.busy_share", ratio(upd_s + res_s, thread_wall));
    put("opt.flops_computed", flops);
    put("opt.bytes_computed", bytes);
    put("opt.ops_per_byte_computed", ratio(flops, bytes));

    // models: the ScheduleGen seam and the spans around trace_io.
    let sched_s = secs("models.schedule");
    let text_mb = counter("models.trace_text_bytes") / 1e6;
    let (write_s, parse_s) = (secs("models.trace_write"), secs("models.trace_parse"));
    put("models.schedule_steps", calls("models.schedule"));
    put("models.schedule_busy_s", sched_s);
    put(
        "models.schedule_ns_per_label",
        ratio(sched_s * 1e9, items("models.schedule")),
    );
    put("models.schedule_busy_share", ratio(sched_s, op_wall));
    put("models.trace_write_s", write_s);
    put("models.trace_parse_s", parse_s);
    put("models.trace_write_mb_per_s", ratio(text_mb, write_s));
    put("models.trace_parse_mb_per_s", ratio(text_mb, parse_s));

    // core: what is left of a Session run once the seams are subtracted.
    let replay_self = self_secs("core.session_run");
    put("core.replay_self_s", replay_self);
    put("core.replay_self_share", ratio(replay_self, op_wall));
    put(
        "core.replay_self_ns_per_label",
        ratio(replay_self * 1e9, items("models.schedule")),
    );
    put("core.trace_replay_s", secs("core.trace_replay"));
    put("core.trace_replay_self_s", self_secs("core.trace_replay"));

    // runtime.cluster: the deterministic event loop.
    let cluster_self = self_secs("runtime.cluster.run");
    put("runtime.cluster.run_s", secs("runtime.cluster.run"));
    put("runtime.cluster.self_s", cluster_self);
    put(
        "runtime.cluster.self_ns_per_step",
        ratio(cluster_self * 1e9, counter("runtime.cluster.steps")),
    );
    put(
        "runtime.cluster.self_ns_per_message",
        ratio(cluster_self * 1e9, counter("runtime.cluster.sent")),
    );

    // runtime.transport: the Transport seam, below the fault layer.
    let (send_s, recv_s, poll_s) = (
        secs("runtime.transport.send"),
        secs("runtime.transport.recv"),
        secs("runtime.transport.empty_poll"),
    );
    let (sends, recvs) = (
        calls("runtime.transport.send"),
        calls("runtime.transport.recv"),
    );
    put("runtime.transport.sends", sends);
    put("runtime.transport.recvs", recvs);
    put(
        "runtime.transport.empty_polls",
        calls("runtime.transport.empty_poll"),
    );
    put(
        "runtime.transport.payload_bytes_computed",
        items("runtime.transport.send"),
    );
    put("runtime.transport.send_busy_s", send_s);
    put("runtime.transport.recv_busy_s", recv_s);
    put("runtime.transport.send_ns", ratio(send_s * 1e9, sends));
    put("runtime.transport.recv_ns", ratio(recv_s * 1e9, recvs));

    // runtime.threaded: where a worker thread's time goes.
    let threaded_wall = secs("runtime.threaded.run") * run.threads as f64;
    if threaded_wall > 0.0 {
        let opt_share = (upd_s + res_s) / threaded_wall;
        let transport_share = (send_s + recv_s + poll_s) / threaded_wall;
        put("runtime.threaded.worker_share_opt", opt_share);
        put("runtime.threaded.worker_share_transport", transport_share);
        put(
            "runtime.threaded.worker_share_other",
            1.0 - opt_share - transport_share,
        );
    }

    // service and report: spans around submit / drain / render.
    let drain_spans: Vec<f64> = ops
        .iter()
        .map(|&op| sum_named(spans, op, "service.drain", |s, i| s[i].dur_ns()) as f64 * 1e-9)
        .filter(|&s| s > 0.0)
        .collect();
    if !drain_spans.is_empty() {
        let jobs = mean(run.traced.iter().map(|(_, o)| o.attempted as f64));
        let drain_s = secs("service.drain");
        let render_s = secs("report.render");
        put(
            "service.submit_ns_per_job",
            ratio(secs("service.submit") * 1e9, jobs),
        );
        put("service.drain_s_p50", median_of(&drain_spans));
        put(
            "service.overhead_share",
            1.0 - ratio(counter("service.run_s_sum"), run.threads as f64 * drain_s),
        );
        put("report.doc_render_s", render_s);
        put(
            "report.render_mb_per_s",
            ratio(counter("report.doc_bytes") / 1e6, render_s),
        );
        let job_ms: Vec<f64> = run
            .untraced
            .iter()
            .flat_map(|o| o.job_ms.iter().map(|&(_, ms)| ms))
            .collect();
        for (name, q) in [
            ("service.job_run_ms_p50", 50.0),
            ("service.job_run_ms_p90", 90.0),
            ("service.job_run_ms_p99", 99.0),
        ] {
            put(name, percentile_or_zero(&job_ms, q));
        }
    }

    // The benchmark itself: what the decorators and spans cost. Stated
    // per step, because the untraced operations ran other random streams
    // and needed other numbers of steps.
    let per_step = |o: &Outcome| o.wall_s / o.steps as f64;
    let untraced: Vec<f64> = run.untraced.iter().map(per_step).collect();
    let base = median_of(&untraced);
    let traced = mean(run.traced.iter().map(|(_, o)| per_step(o)));
    put("bench.trace_overhead_share", (traced - base) / base);
    ledger
}
