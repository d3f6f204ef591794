//! The trace stream is a complete record of the report's observability
//! numbers: folding a run's recorded events through fresh
//! `LatencyReport`, `StageTracker` and `LineLens` instances reproduces
//! `report.latency`, `report.stages` and `report.lens` byte for byte,
//! as the runner serializes them. Checked under CCSM and direct store,
//! and under a direct-network drop + duplicate fault plan whose push
//! retries, degraded pushes and duplicate deliveries (hand-offs of
//! transactions that already completed) the folds must absorb the same
//! way live and replayed.

use ds_core::{FaultPlan, InputSize, Mode, Pipeline, RunReport, SystemConfig};
use ds_probe::{BufferTracer, LatencyReport, LineLens, StageTracker, TraceEvent, Tracer};
use ds_runner::report_to_json;
use ds_workloads::catalog;

fn traced(code: &str, mode: Mode, faults: &FaultPlan) -> (RunReport, Vec<TraceEvent>) {
    let bench = catalog::by_code(code).expect("test codes are in the catalog");
    let (result, probes) = Pipeline::with_config(SystemConfig::paper_default()).run(
        &bench,
        InputSize::Small,
        mode,
        BufferTracer::new(),
        faults,
        None,
    );
    let report = result.expect("translates and runs");
    (report, probes.tracer.into_events())
}

/// `report` with its latency, stage and lens numbers replaced by what
/// fresh folds make of `events`.
fn refold(report: &RunReport, events: &[TraceEvent]) -> RunReport {
    let cfg = SystemConfig::paper_default();
    let mut latency = LatencyReport::new();
    let mut stages = StageTracker::new();
    let mut lens = LineLens::new(cfg.gpu_l2_slices(), cfg.dram.total_banks() as usize);
    for &e in events {
        latency.record(e);
        stages.record(e);
        lens.record(e);
    }
    latency.finish();
    stages.finish();
    lens.finish();
    let mut refolded = report.clone();
    refolded.latency = latency;
    refolded.stages = stages.breakdown().clone();
    refolded.lens = lens.report();
    refolded
}

fn assert_stream_carries_report(label: &str, report: &RunReport, events: &[TraceEvent]) {
    let live = report_to_json(report);
    let folded = report_to_json(&refold(report, events));
    for key in ["latency", "stages", "lens"] {
        let part = |json: &ds_runner::json::Json| json.get(key).expect("report key").compact();
        assert_eq!(part(&folded), part(&live), "{label}: {key}");
    }
}

#[test]
fn folding_the_recorded_stream_reproduces_the_report() {
    for code in ["VA", "MM"] {
        for mode in [Mode::Ccsm, Mode::DirectStore] {
            let (report, events) = traced(code, mode, &FaultPlan::default());
            assert!(report.stages.loads > 0 && report.lens.lines_touched > 0);
            assert_stream_carries_report(&format!("{code} {mode}"), &report, &events);
        }
    }
}

#[test]
fn the_stream_stays_complete_under_drops_and_duplicates() {
    // One retry and a tight ack timeout: a push whose resend is also
    // lost degrades, so one seeded run exercises retries, degraded
    // pushes and duplicated deliveries together.
    let mut plan = FaultPlan {
        seed: 1,
        ack_timeout: 160,
        max_retries: 1,
        ..FaultPlan::default()
    };
    plan.direct_net.drop = 256;
    plan.direct_net.dup = 8192;
    let (report, events) = traced("VA", Mode::DirectStore, &plan);
    assert!(report.pushes_retried > 0, "no retries");
    assert!(report.pushes_degraded > 0, "no degraded pushes");
    assert!(report.lens.push_degraded > 0);
    assert_stream_carries_report("VA ds faulted", &report, &events);
}
