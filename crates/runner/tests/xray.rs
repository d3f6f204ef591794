//! End-to-end guarantees of the per-transaction cycle accounting:
//!
//! 1. the accounting telescopes — for every mode and path, the sum of
//!    per-stage cycles equals the summed end-to-end latencies exactly,
//!    and agrees with the latency histograms' sample counts and sums;
//! 2. the breakdown stitched back from the trace stream equals the
//!    one the live tracker accumulated during the run, per
//!    transaction and in aggregate;
//! 3. CCSM attributes zero cycles to the direct-store push stages and
//!    routes zero messages over the direct network (negative control
//!    for the mode split, with a direct-store positive control).

use ds_core::{FaultPlan, InputSize, Mode, Pipeline, SystemConfig};
use ds_probe::{xray, BufferTracer, Stage, TxnPath};
use ds_workloads::catalog;

fn traced_run(code: &str, mode: Mode) -> (ds_core::RunReport, BufferTracer) {
    let cfg = SystemConfig::paper_default();
    let bench = catalog::by_code(code).expect("test codes are in the catalog");
    let (result, probes) = Pipeline::with_config(cfg).run(
        &bench,
        InputSize::Small,
        mode,
        BufferTracer::new(),
        &FaultPlan::default(),
        None,
    );
    (result.expect("translates and runs"), probes.tracer)
}

#[test]
fn stage_sums_telescope_to_end_to_end_totals() {
    for (code, mode) in [
        ("VA", Mode::Ccsm),
        ("VA", Mode::DirectStore),
        ("MM", Mode::DirectStore),
        ("BF", Mode::Ccsm),
    ] {
        let (report, _) = traced_run(code, mode);
        let b = &report.stages;
        assert_eq!(
            b.path_stage_sum(TxnPath::GpuLoad),
            b.load_cycles,
            "{code} {mode:?}: load stage sum must equal end-to-end load cycles"
        );
        assert_eq!(
            b.path_stage_sum(TxnPath::Push),
            b.push_cycles,
            "{code} {mode:?}: push stage sum must equal end-to-end push cycles"
        );
        // The accounting and the latency histograms observe the same
        // transactions.
        assert_eq!(b.loads, report.latency.load_to_use.samples());
        assert_eq!(u128::from(b.load_cycles), report.latency.load_to_use.sum());
        assert_eq!(b.pushes, report.direct_pushes);
        assert!(b.loads > 0, "{code} {mode:?}: the run must track loads");
    }
}

#[test]
fn stitched_records_agree_with_the_live_tracker() {
    for mode in [Mode::Ccsm, Mode::DirectStore] {
        let (report, tracer) = traced_run("VA", mode);
        let records = xray::stitch(tracer.events());
        assert_eq!(
            records.len() as u64,
            report.stages.loads + report.stages.pushes,
            "every tracked transaction completes and stitches"
        );
        // Per-record telescoping: segment cycles sum to the record's
        // end-to-end latency.
        for r in &records {
            let seg_sum: u64 = r.segments().iter().map(|&(_, c)| c).sum();
            assert_eq!(seg_sum, r.total(), "txn {} segments must telescope", r.txn);
        }
        assert_eq!(
            xray::breakdown(&records),
            report.stages,
            "{mode:?}: stitched aggregate must equal the live tracker's"
        );
    }
}

#[test]
fn ccsm_attributes_zero_cycles_to_the_direct_store_path() {
    let (report, tracer) = traced_run("VA", Mode::Ccsm);
    for stage in Stage::ALL {
        if stage.path() == TxnPath::Push {
            assert_eq!(
                report.stages.stage_cycles(stage),
                0,
                "CCSM must not accrue cycles in push stage {}",
                stage.name()
            );
        }
    }
    assert_eq!(report.stages.pushes, 0);
    assert_eq!(report.stages.push_cycles, 0);
    assert_eq!(report.direct_net.total_msgs(), 0);
    let records = xray::stitch(tracer.events());
    assert!(records.iter().all(|r| r.path == TxnPath::GpuLoad));

    // Positive control: direct store on the same benchmark does push,
    // so the zeros above are not an accounting blind spot.
    let (ds_report, _) = traced_run("VA", Mode::DirectStore);
    assert!(ds_report.stages.pushes > 0);
    assert!(ds_report.stages.push_cycles > 0);
}
