//! End-to-end guarantees of the per-cacheline lens:
//!
//! 1. every run's `RunReport.lens` reconciles exactly against the
//!    counters the caches and networks already keep — push efficacy
//!    classes partition `pushed_fills`, installed + bypassed pushes
//!    equal `direct_pushes`, slice/bank/link sums match the aggregate
//!    stats;
//! 2. a CCSM run is push-quiescent through the lens: no efficacy
//!    records, no pushed lines, no direct-network traffic rows;
//! 3. the lens is observation-only: a lensed run's report equals the
//!    plain run bit for bit (the lens ships in both, so this also
//!    pins its determinism).

use ds_core::{FaultPlan, InputSize, Mode, Pipeline, RunReport, SystemConfig};
use ds_probe::{LensReport, NetId, NullTracer};
use ds_workloads::catalog;

fn run(code: &str, mode: Mode) -> RunReport {
    let bench = catalog::by_code(code).expect("test codes are in the catalog");
    let pipeline = Pipeline::with_config(SystemConfig::paper_default());
    let (result, _) = pipeline.run(
        &bench,
        InputSize::Small,
        mode,
        NullTracer,
        &FaultPlan::default(),
        None,
    );
    result.expect("translates and runs")
}

/// The identities `dslens --check` verifies, as a reusable assertion.
fn assert_reconciles(report: &RunReport) {
    let lens: &LensReport = &report.lens;
    assert_eq!(
        lens.push_total(),
        report.gpu_l2.pushed_fills.value(),
        "useful + dead + clobbered must partition the installed pushes"
    );
    assert_eq!(lens.push_bypasses, report.push_bypasses);
    assert_eq!(
        lens.push_total() + lens.push_bypasses,
        report.direct_pushes,
        "installed + bypassed must equal the CPU-side push count"
    );
    assert_eq!(
        lens.first_touch.samples(),
        lens.push_useful,
        "every useful push contributes exactly one first-touch sample"
    );
    assert!(lens.lines_touched > 0);
    assert!(lens.lines_pushed <= lens.lines_touched);

    let slice_sum = |f: fn(&ds_probe::SliceTraffic) -> u64| lens.slices.iter().map(f).sum::<u64>();
    assert_eq!(slice_sum(|s| s.hits), report.gpu_l2.hits.value());
    assert_eq!(slice_sum(|s| s.misses), report.gpu_l2.misses.value());
    assert_eq!(
        slice_sum(|s| s.push_fills),
        report.gpu_l2.pushed_fills.value()
    );
    assert_eq!(slice_sum(|s| s.push_hits), report.gpu_l2.push_hits.value());
    assert_eq!(slice_sum(|s| s.evictions), report.gpu_l2.evictions.value());
    assert_eq!(
        slice_sum(|s| s.writebacks),
        report.gpu_l2.writebacks.value()
    );

    assert_eq!(
        lens.banks.iter().map(|b| b.reads).sum::<u64>(),
        report.dram_reads
    );
    assert_eq!(
        lens.banks.iter().map(|b| b.writes).sum::<u64>(),
        report.dram_writes
    );
    assert_eq!(
        lens.banks.iter().map(|b| b.row_hits).sum::<u64>(),
        report.dram_row_hits
    );

    for (net, stats) in [
        (NetId::Coherence, &report.coh_net),
        (NetId::Direct, &report.direct_net),
        (NetId::GpuInternal, &report.gpu_net),
    ] {
        assert_eq!(
            lens.net_sums(net),
            (stats.control_msgs, stats.data_msgs),
            "{} link rows must sum to the crossbar totals",
            net.name()
        );
    }
}

#[test]
fn lens_reconciles_against_cache_and_network_counters_in_both_modes() {
    for mode in [Mode::Ccsm, Mode::DirectStore] {
        assert_reconciles(&run("VA", mode));
        assert_reconciles(&run("MM", mode));
    }
}

#[test]
fn ccsm_run_is_push_quiescent_through_the_lens() {
    let report = run("VA", Mode::Ccsm);
    let lens = &report.lens;
    assert_eq!(lens.push_total(), 0);
    assert_eq!(lens.push_bypasses, 0);
    assert_eq!(lens.lines_pushed, 0);
    assert_eq!(lens.first_touch.samples(), 0);
    assert_eq!(lens.net_sums(NetId::Direct), (0, 0));
    assert!(lens.slices.iter().all(|s| s.push_fills == 0));

    // Positive control: direct store on the same benchmark pushes.
    let ds = run("VA", Mode::DirectStore);
    assert!(ds.lens.push_total() > 0);
    assert!(ds.lens.lines_pushed > 0);
}

#[test]
fn lensed_run_returns_the_same_report_and_a_matching_raw_lens() {
    let bench = catalog::by_code("NN").expect("NN is in the catalog");
    let plain = run("NN", Mode::DirectStore);
    let (lensed, probes) = Pipeline::with_config(SystemConfig::paper_default()).run(
        &bench,
        InputSize::Small,
        Mode::DirectStore,
        NullTracer,
        &FaultPlan::default(),
        None,
    );
    let lensed = lensed.expect("lensed run succeeds");
    let raw = probes.lens.expect("the full probe level keeps the lens");
    assert_eq!(
        format!("{plain:?}"),
        format!("{lensed:?}"),
        "the lens must be observation only"
    );
    // The raw lens agrees with the report's summary, and exposes the
    // per-line histories the summary was derived from.
    assert_eq!(format!("{:?}", raw.report()), format!("{:?}", lensed.lens));
    assert_eq!(raw.lines().count() as u64, lensed.lens.lines_touched);
    assert!(raw
        .lines()
        .all(|(_, h)| h.useful + h.dead + h.clobbered == h.pushes));
}
