//! Crate-level tests: the decorators change no bit, the documents
//! round-trip, the catalogue and the code agree, and every workload
//! builds on seeds the pins were not taken at.

use crate::config::{Catalogue, Pins};
use crate::run::{Metric, RunResult};
use crate::seams::{payload_bytes, Meter, TimedOperator, TimedSchedule, TimedTransport};
use crate::suite::{parse_child, pin_drift};
use crate::workloads;
use crate::{parse_cli, Cli};
use asynciter_core::session::{Replay, Session};
use asynciter_models::partition::Partition;
use asynciter_models::schedule::ChaoticBounded;
use asynciter_models::trace::LabelStore;
use asynciter_numerics::sparse::tridiagonal;
use asynciter_opt::linear::JacobiOperator;
use asynciter_report::json::Json;
use asynciter_runtime::transport::{BlockMessage, Transport};
use asynciter_runtime::{MpscTransport, ThreadedClusterEngine, ThreadedConfig};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn jacobi(n: usize) -> JacobiOperator {
    JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).expect("static instance")
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn timed_operator_and_schedule_change_no_bit() {
    let (n, steps) = (32, 400);
    let op = jacobi(n);
    let schedule = || ChaoticBounded::new(n, 4, 8, 6, false, 7);
    let plain = Session::new(&op)
        .steps(steps)
        .schedule(schedule())
        .backend(Replay)
        .run()
        .unwrap();

    let timed_op = TimedOperator::new(&op);
    let meter = Meter::default();
    let timed = Session::new(&timed_op)
        .steps(steps)
        .schedule(TimedSchedule::new(schedule(), &meter))
        .backend(Replay)
        .run()
        .unwrap();

    assert_eq!(bits(&plain.final_x), bits(&timed.final_x));
    assert_eq!(
        plain.final_residual.to_bits(),
        timed.final_residual.to_bits()
    );
    assert_eq!(plain.macro_iterations, timed.macro_iterations);
    let sched = meter.totals();
    assert_eq!((sched.calls, sched.items), (steps, steps * n as u64));
    let update = timed_op.update.totals();
    assert_eq!(update.calls, steps);
    assert!(update.items >= 4 * steps && update.items <= 8 * steps);
    // The one residual evaluation is the report's final residual.
    assert_eq!(timed_op.residual.totals().calls, 1);
}

#[test]
fn timed_transport_changes_no_bit() {
    // One worker: the threaded engine is deterministic, so the iterate
    // can be compared bit for bit with every decorator on and off.
    let n = 24;
    let op = jacobi(n);
    let partition = Partition::blocks(n, 1).unwrap();
    let cfg = ThreadedConfig::new(300).with_record(LabelStore::MinOnly);
    let plain =
        ThreadedClusterEngine::run_with(&op, &vec![0.0; n], &partition, &cfg, &mut MpscTransport)
            .unwrap();
    let timed_op = TimedOperator::new(&op);
    let mut transport = TimedTransport::new(MpscTransport);
    let timed =
        ThreadedClusterEngine::run_with(&timed_op, &vec![0.0; n], &partition, &cfg, &mut transport)
            .unwrap();
    assert_eq!(bits(&plain.consensus), bits(&timed.consensus));
    assert_eq!(plain.steps_run, timed.steps_run);
    assert_eq!(timed_op.update.totals().calls, 300);

    // Several endpoints: the same messages arrive in the same order, and
    // the meters count them.
    let message = |from: usize, k: u32| BlockMessage {
        from,
        comps: (0..k)
            .map(|c| (c, f64::from(c) * 0.5, u64::from(k)))
            .collect(),
        partial: k.is_multiple_of(2),
    };
    let drain = |transport: &mut dyn Transport| {
        let mut ends = transport.connect(3);
        for k in 1..=5 {
            ends[0].send(2, message(0, k));
            ends[1].send(2, message(1, k + 10));
        }
        std::iter::from_fn(|| ends[2].try_recv()).collect::<Vec<_>>()
    };
    let mut transport = TimedTransport::new(MpscTransport);
    let (bare, metered) = (drain(&mut MpscTransport), drain(&mut transport));
    assert_eq!(bare, metered);
    let m = &transport.meters;
    assert_eq!(m.send.totals().calls, 10);
    assert_eq!(m.recv.totals().calls, 10);
    assert_eq!(m.empty.totals().calls, 1, "the poll that ended the drain");
    let bytes: u64 = bare.iter().map(payload_bytes).sum();
    assert_eq!(m.send.totals().items, bytes);
    assert_eq!(m.recv.totals().items, bytes);
}

#[test]
fn meters_merge_what_threads_recorded() {
    let meter = Meter::default();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..100 {
                    meter.record(std::time::Instant::now(), 3);
                }
            });
        }
    });
    let totals = meter.totals();
    assert_eq!((totals.calls, totals.items), (400, 1200));
}

fn sample_result() -> RunResult {
    RunResult {
        correct: true,
        attempted: 26,
        failed: 0,
        metrics: vec![
            Metric {
                name: "solve_s".into(),
                unit: "s".into(),
                value: 0.232_844_099,
                samples: 22,
            },
            Metric {
                name: "steps_to_target".into(),
                unit: "count".into(),
                value: 704.0,
                samples: 22,
            },
        ],
        pins: vec![("fingerprint".into(), "ebefb344c9e5419d".into())],
        complaints: Vec::new(),
        spans: Vec::new(),
    }
}

#[test]
fn result_line_round_trips_through_report_json() {
    let result = sample_result();
    let json = result.to_json();
    let Json::Obj(fields) = &json else {
        panic!("result is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let line = json.render();
    assert!(!line.contains('\n'), "the result is one line");
    assert_eq!(Json::parse(&line).unwrap(), json);
    assert_eq!(Json::parse(&json.render_pretty()).unwrap(), json);
    let solve = json.get("metrics").unwrap().get("solve_s").unwrap();
    assert_eq!(solve.get("value").unwrap().as_f64(), Some(0.232_844_099));
    assert_eq!(solve.get("unit").unwrap().as_str(), Some("s"));

    // What the suite reads back from a child's standard output.
    let stdout = format!(
        "record_replay solve_s s 0.232844099 22\npin record_replay fingerprint ebefb344c9e5419d\n{line}\n"
    );
    let report = parse_child(&stdout).unwrap();
    assert_eq!(report.result, json);
    assert_eq!(report.pins, result.pins);
    assert!(parse_child("no result here\n").is_err());
}

#[test]
fn pins_round_trip_and_drift_is_named() {
    let facts = |bytes: &str| {
        vec![(
            "record_replay".to_string(),
            vec![
                ("fingerprint".to_string(), "ebefb344c9e5419d".to_string()),
                ("models.trace_text_bytes".to_string(), bytes.to_string()),
            ],
        )]
    };
    let pins = Pins {
        seed: 2022,
        workloads: facts("12742058"),
    };
    assert_eq!(Pins::parse(&pins.to_json().render_pretty()).unwrap(), pins);

    assert!(pin_drift(&pins, &facts("12742058")).is_empty());
    let drift = pin_drift(&pins, &facts("12742059"));
    assert_eq!(drift.len(), 1);
    assert!(drift[0].contains("models.trace_text_bytes is 12742059"));
    assert!(drift[0].contains("says 12742058"));
}

#[test]
fn catalogue_and_code_agree() {
    let catalogue = Catalogue::parse(BENCHMARK_JSON).unwrap();
    assert_eq!(catalogue.workloads, workloads::NAMES);
    let end_to_end: Vec<&str> = catalogue
        .end_to_end
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    assert_eq!(
        end_to_end,
        [
            "setup_s",
            "solve_s",
            "steps_per_s",
            "steps_to_target",
            "peak_rss_mb"
        ]
    );
    assert!(catalogue.end_to_end.iter().all(|m| m.bound.is_some()));
    let setup_bound = catalogue.end_to_end[0].bound.unwrap();
    assert!(
        catalogue
            .end_to_end
            .iter()
            .all(|m| m.bound.unwrap() <= setup_bound),
        "setup_s carries the largest bound"
    );
    for pinned in crate::config::PINNED_COUNTERS {
        assert!(
            catalogue
                .end_to_end
                .iter()
                .chain(&catalogue.per_layer)
                .any(|m| m.name == pinned),
            "{pinned} is pinned but not in the catalogue"
        );
    }
}

#[test]
fn command_line_accepts_both_spellings_of_trace() {
    let cli = |args: &[&str]| parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    assert_eq!(cli(&[]).unwrap(), Cli::default());
    assert!(cli(&["--trace"]).unwrap().trace);
    assert!(cli(&["--trace", "1"]).unwrap().trace);
    assert!(!cli(&["--trace", "0"]).unwrap().trace);
    let driver = cli(&[
        "--workload",
        "service_mix",
        "--seed",
        "7",
        "--seconds",
        "10",
        "--trace",
        "0",
    ])
    .unwrap();
    assert_eq!(driver.workload.as_deref(), Some("service_mix"));
    assert_eq!((driver.seed, driver.seconds), (Some(7), Some(10)));
    assert!(cli(&["--trace", "--selfcheck"]).unwrap().selfcheck);
    assert!(cli(&["--seed"]).is_err());
    assert!(cli(&["--frobnicate"]).is_err());
    assert!(cli(&["--workload", "service_mix", "--selfcheck"]).is_err());
}

#[test]
fn every_workload_builds_on_unseen_seeds() {
    // The logistic certificate (λ > c) and the Gershgorin margin must
    // hold on seeds nobody tuned for.
    for seed in 2022..=2026 {
        for name in workloads::NAMES {
            let built = workloads::build(name, seed);
            assert!(built.is_ok(), "{name} at seed {seed}: {:?}", built.err());
        }
    }
    assert!(workloads::build("no_such_workload", 2022).is_err());
}

#[test]
fn fingerprints_follow_the_seed_where_the_inputs_do() {
    let fingerprint = |name: &str, seed: u64| workloads::build(name, seed).unwrap().fingerprint();
    assert_eq!(
        fingerprint("service_mix", 2022),
        fingerprint("service_mix", 2022)
    );
    assert_ne!(
        fingerprint("service_mix", 2022),
        fingerprint("service_mix", 2023)
    );
    // Matrices and data are the same on every seed; the streams vary.
    for name in ["record_replay", "threaded_exchange"] {
        assert_eq!(fingerprint(name, 2022), fingerprint(name, 2023));
    }
    // Both service workloads are fed the same job list.
    assert_eq!(
        fingerprint("service_mix", 2022),
        fingerprint("service_serial", 2022)
    );
}
