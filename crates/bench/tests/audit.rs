//! The audits `ds check` runs, on real runs: each holds where the
//! catalog says it must, and each names the counter that a tampered
//! report or stream breaks. The positive controls that hold only for
//! some benchmarks (VA pushes, say) live here rather than in the
//! audits.

use std::sync::{Mutex, MutexGuard};

use ds_bench::audit::{self, Stitched};
use ds_core::{
    Comparison, FaultKind, FaultNet, FaultPlan, InputSize, Mode, Pipeline, RunReport, SystemConfig,
};
use ds_probe::prof::{self, ProbeLevel};
use ds_probe::xray::Stitch;
use ds_probe::{
    BufferTracer, Component, HostPhase, HostProfile, NetId, NullTracer, Probes, PulseConfig,
    TraceEvent, TraceKind, Tracer,
};
use ds_workloads::catalog;

/// The profiler and the probe level are process-wide switches a
/// system reads when it is built, so every test that simulates holds
/// this lock: no run sees another test's settings.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One small-input run of `code`, its stream fed to `tracer`, which
/// comes back with the report and the folds.
fn run_with<T: Tracer>(
    code: &str,
    mode: Mode,
    tracer: T,
    faults: &FaultPlan,
    pulse: Option<PulseConfig>,
) -> (RunReport, Probes<T>) {
    let bench = catalog::by_code(code).expect("test codes are in the catalog");
    let (result, probes) = Pipeline::with_config(SystemConfig::paper_default()).run(
        &bench,
        InputSize::Small,
        mode,
        tracer,
        faults,
        pulse,
    );
    (result.expect("translates and runs"), probes)
}

/// One plain small-input run of `code`.
fn run(code: &str, mode: Mode) -> RunReport {
    run_with(code, mode, NullTracer, &FaultPlan::default(), None).0
}

/// VA small under direct store with `faults`, pulse sampling on.
fn pulsed_va(faults: &FaultPlan) -> RunReport {
    let pulse = Some(PulseConfig::default());
    run_with("VA", Mode::DirectStore, NullTracer, faults, pulse).0
}

fn holds(errs: Vec<String>) {
    assert!(errs.is_empty(), "{errs:#?}");
}

/// Asserts an audit failed with a violation naming `what`.
fn names(errs: Vec<String>, what: &str) {
    assert!(
        errs.iter().any(|e| e.contains(what)),
        "expected a violation naming {what:?}, got {errs:#?}"
    );
}

/// `r` with `tamper` applied.
fn tampered(r: &RunReport, tamper: impl FnOnce(&mut RunReport)) -> RunReport {
    let mut r = r.clone();
    tamper(&mut r);
    r
}

#[test]
fn report_audits_hold_and_name_a_tampered_counter() {
    let _guard = lock();
    let runs: Vec<(Mode, RunReport)> = [
        ("VA", Mode::Ccsm),
        ("VA", Mode::DirectStore),
        ("MM", Mode::Ccsm),
        ("MM", Mode::DirectStore),
        ("BF", Mode::Ccsm),
    ]
    .into_iter()
    .map(|(code, mode)| (mode, run(code, mode)))
    .collect();
    for (mode, r) in &runs {
        holds(audit::unobserved(r));
        holds(audit::lens(r));
        holds(audit::stages(r));
        if *mode == Mode::Ccsm {
            holds(audit::ccsm_quiescence(r));
        }
    }
    // Positive control: direct store pushes on VA, so the CCSM zeros
    // are no blind spot of the lens or the stage tracker.
    let (ccsm, ds) = (&runs[0].1, &runs[1].1);
    assert!(ds.lens.push_total() > 0 && ds.lens.lines_pushed > 0);
    assert!(ds.stages.pushes > 0 && ds.stages.push_cycles > 0);
    names(audit::ccsm_quiescence(ds), "direct_pushes");

    let host = tampered(ds, |t| t.host = Some(HostProfile::default()));
    names(audit::unobserved(&host), "host");
    let fills = tampered(ds, |t| t.gpu_l2.pushed_fills.add(1));
    names(audit::lens(&fills), "gpu_l2.pushed_fills");
    let row_hits = tampered(ds, |t| t.dram_row_hits += 1);
    names(audit::lens(&row_hits), "dram_row_hits");
    let cycles = tampered(ds, |t| t.stages.load_cycles += 1);
    names(audit::stages(&cycles), "stages.load_cycles");
    let direct = tampered(ccsm, |t| t.direct_net.data_msgs += 1);
    names(audit::ccsm_quiescence(&direct), "direct_net messages");
}

/// What the stitch audit collects from a recorded stream.
fn stitch_recorded(events: &[TraceEvent]) -> Stitched {
    let mut fold = Stitch::new(Stitched::default());
    events.iter().for_each(|&e| fold.record(e));
    fold.into_sink()
}

#[test]
fn the_live_stitch_agrees_with_the_tracker_and_catches_a_tampered_stream() {
    let _guard = lock();
    let plain = FaultPlan::default();
    let runs = [
        ("VA", Mode::Ccsm),
        ("VA", Mode::DirectStore),
        ("NN", Mode::DirectStore),
    ];
    for (code, mode) in runs {
        // The untraced run: its tracer is compiled out (`ENABLED` is
        // false), so the two tracing runs must equal it.
        let r = run(code, mode);
        let stitch = Stitch::new(Stitched::default());
        let (stitching, probes) = run_with(code, mode, stitch, &plain, None);
        let live = probes.tracer.into_sink();
        holds(audit::identity(&r, &stitching, ProbeLevel::Full));
        holds(audit::stitched(&live, &r));
        let (traced, probes) = run_with(code, mode, BufferTracer::new(), &plain, None);
        holds(audit::identity(&r, &traced, ProbeLevel::Full));
        // The raw lens is the report's summary, line by line.
        let raw = probes.lens.expect("the full probe level keeps the lens");
        assert_eq!(format!("{:?}", raw.report()), format!("{:?}", traced.lens));
        assert_eq!(raw.lines().count() as u64, traced.lens.lines_touched);
        assert!(raw
            .lines()
            .all(|(_, h)| h.useful + h.dead + h.clobbered == h.pushes));
        let mut events = probes.tracer.into_events();
        holds(audit::stitched(&stitch_recorded(&events), &r));

        // Only direct store uses the direct network and installs pushes.
        let ds = mode == Mode::DirectStore;
        let on_direct = |e: &TraceEvent| e.component == Component::Net { net: NetId::Direct };
        let push_fill = |e: &TraceEvent| matches!(e.kind, TraceKind::PushFill);
        assert_eq!(events.iter().any(on_direct), ds);
        assert_eq!(events.iter().any(push_fill), ds);
        if !ds {
            let other =
                |e: &TraceEvent| matches!(e.kind, TraceKind::PushOverwrite | TraceKind::PushBypass);
            assert!(!events.iter().any(other));
            assert_eq!(live.breakdown.pushes, 0);
            continue;
        }

        // A lost completion: one transaction never stitches.
        let done = events
            .iter()
            .position(|e| matches!(e.kind, TraceKind::TxnDone { .. }))
            .expect("the run completes transactions");
        let mut lost = events.clone();
        lost.remove(done);
        let errs = audit::stitched(&stitch_recorded(&lost), &r);
        names(errs, "stitched records");
        // A completion stamped before the transaction's last mark.
        events[done].cycle = 0;
        let errs = audit::stitched(&stitch_recorded(&events), &r);
        names(errs, "before its last mark");
    }
}

#[test]
fn observed_runs_equal_the_plain_run_and_name_a_tampered_field() {
    let _guard = lock();
    let plain = run("VA", Mode::DirectStore);
    prof::set_enabled(true);
    let profiled: Vec<(ProbeLevel, RunReport)> = ProbeLevel::ALL
        .into_iter()
        .map(|level| {
            prof::set_level(level);
            (level, run("VA", Mode::DirectStore))
        })
        .collect();
    prof::set_enabled(false);
    prof::set_level(ProbeLevel::Full);
    for (level, r) in &profiled {
        holds(audit::host(r, *level));
        holds(audit::identity(&plain, r, *level));
    }
    let inactive = FaultPlan {
        seed: 1,
        ..FaultPlan::default()
    };
    let pulsed = pulsed_va(&inactive);
    holds(audit::pulse(&pulsed));
    holds(audit::identity(&plain, &pulsed, ProbeLevel::Full));

    let full = ProbeLevel::Full;
    let reads = tampered(&pulsed, |t| t.dram_reads += 1);
    names(audit::identity(&plain, &reads, full), "dram_reads");
    names(audit::pulse(&reads), "dram_reads");
    let hits = tampered(&pulsed, |t| t.gpu_l2.hits.add(1));
    names(audit::identity(&plain, &hits, full), "gpu_l2.hits");
    let (level, staged) = &profiled[1];
    let lens_spans = tampered(staged, |t| {
        if let Some(host) = &mut t.host {
            host.counts[HostPhase::TaxLens.index()] += 1;
        }
    });
    names(audit::host(&lens_spans, *level), "tax_lens");
}

#[test]
fn faults_keep_the_push_ledger_and_trip_the_detectors() {
    let _guard = lock();
    let mut ledger = FaultPlan::single(1, FaultNet::Direct, FaultKind::Delay, 8192);
    ledger.direct_net.dup = 1024;
    let (faulted, _) = run_with("VA", Mode::DirectStore, NullTracer, &ledger, None);
    assert!(faulted.pushes_retried > 0, "the plan must force retries");
    holds(audit::push_ledger(&faulted));
    let lost = tampered(&faulted, |t| t.pushes_attempted += 1);
    names(audit::push_ledger(&lost), "pushes_attempted");

    let storm = FaultPlan::single(7, FaultNet::Direct, FaultKind::Delay, 32_000);
    let r = pulsed_va(&storm);
    holds(audit::anomalies(&r));
    holds(audit::pulse(&r));
    holds(audit::push_ledger(&r));
    let quiet = tampered(&r, |t| {
        if let Some(series) = &mut t.pulse {
            series.anomalies.clear();
        }
    });
    names(audit::anomalies(&quiet), "pulse anomalies");
}

#[test]
fn va_small_has_the_papers_shape_and_a_tampered_pair_breaks_it() {
    let _guard = lock();
    let c = Comparison {
        code: "VA".into(),
        input: InputSize::Small,
        ccsm: run("VA", Mode::Ccsm),
        direct_store: run("VA", Mode::DirectStore),
    };
    holds(audit::never_hurts(&c));
    holds(audit::miss_rate(&c));
    holds(audit::compulsory(&c));
    holds(audit::headline(&c));
    holds(audit::pt_flat(&c));
    let slower = |pct: u64| {
        let mut t = c.clone();
        let ccsm = t.ccsm.total_cycles.as_u64();
        t.direct_store.total_cycles = ds_sim::Cycle::new(ccsm + ccsm * pct / 100);
        t
    };
    names(audit::never_hurts(&slower(2)), "total_cycles");
    names(audit::headline(&slower(0)), "total_cycles");
    let mut pt = c.clone();
    pt.code = "PT".into();
    names(audit::pt_flat(&pt), "total_cycles");

    let mut t = c.clone();
    let (ccsm, ds) = (t.ccsm.gpu_l2.accesses(), t.direct_store.gpu_l2.accesses());
    t.ccsm.gpu_l2.hits.add(100 * ccsm);
    t.direct_store.gpu_l2.misses.add(10 * ds);
    names(audit::miss_rate(&t), "gpu_l2 miss rate");
    let mut t = c;
    let ccsm = t.ccsm.gpu_l2.compulsory_misses.value();
    t.direct_store.gpu_l2.compulsory_misses.add(ccsm + 1);
    names(audit::compulsory(&t), "gpu_l2.compulsory_misses");
}
