//! `dspulse` — the cycle-domain time-series telemetry CLI.
//!
//! Runs one benchmark with the pulse sampler attached and renders the
//! windowed counter series: a sparkline terminal dashboard, the raw
//! per-window CSV, or an anomaly report. `--check` instead sweeps the
//! full small catalog and proves the observability contract: every
//! per-window counter series sums exactly to the corresponding final
//! `RunReport` total, the report serializes bit-identically with pulse
//! stripped (sampling never perturbs simulated timing — the fig-4
//! guarantee), and a seeded fault run produces at least one detected
//! anomaly.
//!
//! ```text
//! dspulse --bench VA [--input small|big] [--mode ccsm|ds|ds-only]
//!         [--window N] [--format dashboard|csv|report] [--out FILE]
//!         [--seed N] [--drop RATE]
//! dspulse --check [--window N]
//! ```

use ds_core::Scenario as _;
use ds_core::{FaultPlan, InputSize, Mode, Pipeline, RunReport, SystemConfig};
use ds_probe::pulse::{ctr, gauge, PULSE_COUNTER_NAMES, PULSE_GAUGE_NAMES};
use ds_probe::{sparkline, NullTracer, PulseConfig, PulseSeries, DEFAULT_PULSE_WINDOW};
use ds_runner::report_to_json;
use ds_workloads::catalog;

const USAGE: &str = "usage: dspulse --bench CODE [options]
       dspulse --check [--window N]

Runs one benchmark with pulse telemetry and renders the time series.

options:
  --bench CODE             Table II benchmark code, e.g. VA
  --input small|big        input size (default: small)
  --mode ccsm|ds|ds-only   coherence mode (default: ds; direct is
                           accepted as an alias for ds)
  --window N               pulse window in cycles (default: 1000)
  --format dashboard|csv|report
                           output format (default: dashboard):
                           dashboard  sparkline panel per counter
                           csv        one row per window, all series
                           report     anomaly report + totals
  --seed N                 fault-plan seed (default: 0)
  --drop RATE              direct-network drop rate in parts-per-65536
                           (default: 0 = no faults); activates the
                           ack/retry protocol so anomaly detectors
                           have something to find
  --delay RATE             direct-network delay rate in parts-per-65536
                           (default: 0); delayed acks overshoot the ack
                           timeout and trigger retries without ever
                           losing a message
  --delay-cycles N         extra latency for delayed messages
                           (default: 400, past the 200-cycle ack
                           timeout)
  --sb-entries N           override the store-buffer size (default:
                           paper Table I, 16 entries); starving the
                           buffer is the reproducible way to drive
                           the stall-storm detector
  --out FILE               write to FILE instead of stdout
  --check                  sweep the full small catalog in ccsm and ds
                           modes proving conservation and pulse-off
                           bit-identity, then a seeded fault run that
                           must surface at least one anomaly
  --help                   show this help";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Dashboard,
    Csv,
    Report,
}

struct Options {
    code: String,
    input: InputSize,
    mode: Mode,
    window: u64,
    format: Format,
    seed: u64,
    drop: u16,
    delay: u16,
    delay_cycles: u64,
    sb_entries: Option<usize>,
    out: Option<String>,
    check: bool,
}

fn usage_error(message: &str) -> ! {
    eprintln!("dspulse: {message}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_options(args: &[String]) -> Options {
    let mut code = None;
    let mut opts = Options {
        code: String::new(),
        input: InputSize::Small,
        mode: Mode::DirectStore,
        window: DEFAULT_PULSE_WINDOW,
        format: Format::Dashboard,
        seed: 0,
        drop: 0,
        delay: 0,
        delay_cycles: 400,
        sb_entries: None,
        out: None,
        check: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--bench needs a value"));
                code = Some(v.clone());
            }
            "--input" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--input needs a value"));
                opts.input = match v.as_str() {
                    "small" => InputSize::Small,
                    "big" => InputSize::Big,
                    other => usage_error(&format!("unknown input size {other:?}")),
                };
            }
            "--mode" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--mode needs a value"));
                opts.mode = match v.as_str() {
                    "ccsm" => Mode::Ccsm,
                    "ds" | "direct" => Mode::DirectStore,
                    "ds-only" => Mode::DirectStoreOnly,
                    other => usage_error(&format!("unknown mode {other:?}")),
                };
            }
            "--window" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--window needs a value"));
                match v.parse::<u64>() {
                    Ok(n) if n > 0 => opts.window = n,
                    _ => usage_error(&format!("--window needs a positive integer, got {v:?}")),
                }
            }
            "--format" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--format needs a value"));
                opts.format = match v.as_str() {
                    "dashboard" => Format::Dashboard,
                    "csv" => Format::Csv,
                    "report" => Format::Report,
                    other => usage_error(&format!("unknown format {other:?}")),
                };
            }
            "--seed" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--seed needs a value"));
                opts.seed = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--seed needs an integer, got {v:?}"))
                });
            }
            "--drop" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--drop needs a value"));
                opts.drop = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--drop needs a rate in 0..=65535, got {v:?}"))
                });
            }
            "--delay" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--delay needs a value"));
                opts.delay = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--delay needs a rate in 0..=65535, got {v:?}"))
                });
            }
            "--delay-cycles" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--delay-cycles needs a value"));
                opts.delay_cycles = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--delay-cycles needs an integer, got {v:?}"))
                });
            }
            "--sb-entries" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--sb-entries needs a value"));
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => opts.sb_entries = Some(n),
                    _ => usage_error(&format!("--sb-entries needs a positive integer, got {v:?}")),
                }
            }
            "--out" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--out needs a value"));
                opts.out = Some(v.clone());
            }
            "--check" => opts.check = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if !opts.check {
        opts.code = code.unwrap_or_else(|| usage_error("--bench is required (or use --check)"));
    }
    opts
}

/// The fault plan a `--drop` / `--delay` run executes under:
/// deterministic drops and delays on the direct-store network with the
/// default ack/retry protocol, so the retry-burst and
/// livelock-precursor detectors have real signal.
fn fault_plan(seed: u64, drop: u16, delay: u16, delay_cycles: u64) -> FaultPlan {
    let mut plan = FaultPlan {
        seed,
        ..FaultPlan::default()
    };
    plan.direct_net.drop = drop;
    plan.direct_net.delay = delay;
    plan.direct_net.delay_cycles = delay_cycles;
    plan
}

/// CSV header for the per-window series: the window bounds followed by
/// every counter delta and every sampled gauge, in declaration order.
fn pulse_csv_header() -> String {
    let mut s = String::from("window_start,window_end");
    for name in PULSE_COUNTER_NAMES {
        s.push(',');
        s.push_str(name);
    }
    for name in PULSE_GAUGE_NAMES {
        s.push(',');
        s.push_str(name);
    }
    s
}

fn render_csv(series: &PulseSeries) -> String {
    let mut s = pulse_csv_header();
    s.push('\n');
    for w in 0..series.len() {
        let (start, end) = series.window_bounds(w);
        s.push_str(&format!("{start},{end}"));
        for c in 0..PULSE_COUNTER_NAMES.len() {
            s.push_str(&format!(",{}", series.counter(c)[w]));
        }
        for g in 0..PULSE_GAUGE_NAMES.len() {
            s.push_str(&format!(",{}", series.gauge(g)[w]));
        }
        s.push('\n');
    }
    s
}

/// The curated dashboard panel: the series a human scans first when a
/// run looks unhealthy, in rough causal order (work issued → memory
/// system → push protocol → queue pressure).
const DASHBOARD_COUNTERS: &[usize] = &[
    ctr::SM_OPS,
    ctr::GPU_L2_ACCESSES,
    ctr::GPU_L2_MISSES,
    ctr::DRAM_BUSY_CYCLES,
    ctr::COH_MSGS,
    ctr::DIRECT_MSGS,
    ctr::GPU_MSGS,
    ctr::DIRECT_PUSHES,
    ctr::PUSHES_RETRIED,
    ctr::PUSHES_DEGRADED,
    ctr::SB_STALLS,
    ctr::EVENTS,
];

const DASHBOARD_GAUGES: &[usize] = &[
    gauge::QUEUE_DEPTH,
    gauge::SB_OCCUPANCY,
    gauge::INFLIGHT_PUSHES,
];

const SPARK_WIDTH: usize = 60;

fn render_dashboard(header: &str, series: &PulseSeries) -> String {
    let mut s = format!(
        "{header}: {} window(s) of {} cycles (base {}, {} coalescing(s))\n",
        series.len(),
        series.window,
        series.base_window,
        series.coalescings,
    );
    let name_w = PULSE_COUNTER_NAMES
        .iter()
        .chain(PULSE_GAUGE_NAMES.iter())
        .map(|n| n.len())
        .max()
        .unwrap_or(0);
    for &c in DASHBOARD_COUNTERS {
        let values = series.counter(c);
        s.push_str(&format!(
            "  {:<name_w$} {:<SPARK_WIDTH$} total {}\n",
            PULSE_COUNTER_NAMES[c],
            sparkline(values, SPARK_WIDTH),
            series.totals.counters[c],
        ));
    }
    for &g in DASHBOARD_GAUGES {
        let values = series.gauge(g);
        s.push_str(&format!(
            "  {:<name_w$} {:<SPARK_WIDTH$} peak  {}\n",
            PULSE_GAUGE_NAMES[g],
            sparkline(values, SPARK_WIDTH),
            values.iter().max().copied().unwrap_or(0),
        ));
    }
    s.push_str(&render_anomaly_lines(series));
    s
}

fn render_anomaly_lines(series: &PulseSeries) -> String {
    if series.anomalies.is_empty() {
        return "anomalies: none\n".to_string();
    }
    let mut s = format!("anomalies ({}):\n", series.anomalies.len());
    for a in &series.anomalies {
        s.push_str(&format!("  {a}\n"));
    }
    s
}

fn render_report(header: &str, series: &PulseSeries) -> String {
    let mut s = format!(
        "{header}: {} window(s) of {} cycles\n",
        series.len(),
        series.window,
    );
    s.push_str(&render_anomaly_lines(series));
    s.push_str("totals:\n");
    for (c, name) in PULSE_COUNTER_NAMES.iter().enumerate() {
        if series.totals.counters[c] > 0 {
            s.push_str(&format!("  {name}: {}\n", series.totals.counters[c]));
        }
    }
    s
}

/// Every pulse counter with an exact `RunReport` counterpart, paired
/// with that counterpart. `dram_busy_cycles` and `sm_ops` are pulse-
/// only (the report never carried them), so conservation for those two
/// rests on [`PulseSeries::check_conservation`] alone.
fn report_counterparts(r: &RunReport) -> Vec<(usize, u64)> {
    vec![
        (ctr::GPU_L2_ACCESSES, r.gpu_l2.accesses()),
        (ctr::GPU_L2_MISSES, r.gpu_l2.misses.value()),
        (ctr::CPU_L2_ACCESSES, r.cpu_l2.accesses()),
        (ctr::CPU_L2_MISSES, r.cpu_l2.misses.value()),
        (ctr::COH_MSGS, r.coh_net.total_msgs()),
        (ctr::DIRECT_MSGS, r.direct_net.total_msgs()),
        (ctr::GPU_MSGS, r.gpu_net.total_msgs()),
        (ctr::COH_BYTES, r.coh_net.bytes),
        (ctr::DIRECT_BYTES, r.direct_net.bytes),
        (ctr::GPU_BYTES, r.gpu_net.bytes),
        (ctr::DRAM_READS, r.dram_reads),
        (ctr::DRAM_WRITES, r.dram_writes),
        (ctr::DRAM_ROW_HITS, r.dram_row_hits),
        (ctr::DIRECT_PUSHES, r.direct_pushes),
        (ctr::PUSHES_ATTEMPTED, r.pushes_attempted),
        (ctr::PUSHES_RETRIED, r.pushes_retried),
        (ctr::PUSHES_DEGRADED, r.pushes_degraded),
        (ctr::PUSH_BYPASSES, r.push_bypasses),
        (ctr::FAULTS_INJECTED, r.faults_injected),
        (ctr::SB_STALLS, r.store_buffer_stalls),
        (ctr::WARPS_COMPLETED, r.warps_completed),
        (ctr::KERNELS_RUN, r.kernels_run),
        (ctr::HUB_TRANSACTIONS, r.hub_transactions),
        (ctr::HUB_CONFLICTS, r.hub_conflicts),
        (ctr::HUB_PROBES, r.hub_probes),
        (ctr::EVENTS, r.events),
    ]
}

/// Proves `series` conserves against the final `report` totals: the
/// internal invariant (windows sum to series totals) plus the cross
/// check that those totals equal the `RunReport`'s own counters.
fn check_against_report(series: &PulseSeries, report: &RunReport) -> Result<(), String> {
    series.check_conservation()?;
    for (c, expect) in report_counterparts(report) {
        let got = series.totals.counters[c];
        if got != expect {
            return Err(format!(
                "counter {} sums to {got} but the run report says {expect}",
                PULSE_COUNTER_NAMES[c],
            ));
        }
    }
    Ok(())
}

/// The fig-4 guarantee, proven at the byte level: a pulsed run's
/// report with the pulse payload stripped must serialize identically
/// to the plain run's — same cycles, same counters, same histograms.
fn check_bit_identity(baseline: &RunReport, pulsed: &RunReport) -> Result<(), String> {
    let mut stripped = pulsed.clone();
    stripped.pulse = None;
    stripped.epochs = Vec::new();
    stripped.epoch_window = 0;
    let a = report_to_json(baseline).pretty();
    let b = report_to_json(&stripped).pretty();
    if a != b {
        return Err(format!(
            "pulsed report differs from baseline (pulse stripped): \
             {} vs {} cycles",
            pulsed.total_cycles.as_u64(),
            baseline.total_cycles.as_u64(),
        ));
    }
    Ok(())
}

/// The `--check` sweep. Exits nonzero on the first violated invariant.
fn run_check(window: u64) -> Result<(), String> {
    let pipeline = Pipeline::with_config(SystemConfig::paper_default());
    let cfg = PulseConfig::with_window(window);
    let mut runs = 0usize;
    for bench in catalog::all() {
        for mode in [Mode::Ccsm, Mode::DirectStore] {
            let label = format!("{} small {mode}", bench.code());
            let (baseline, _) = pipeline.run(
                &bench,
                InputSize::Small,
                mode,
                NullTracer,
                &FaultPlan::default(),
                None,
            );
            let baseline = baseline.map_err(|e| format!("{label}: baseline run failed: {e}"))?;
            let (result, _) = pipeline.run(
                &bench,
                InputSize::Small,
                mode,
                NullTracer,
                &FaultPlan::default(),
                Some(cfg),
            );
            let pulsed = result.map_err(|e| format!("{label}: pulsed run failed: {e}"))?;
            let series = pulsed
                .pulse
                .as_ref()
                .ok_or_else(|| format!("{label}: pulsed run carries no pulse series"))?;
            check_against_report(series, &pulsed).map_err(|e| format!("{label}: {e}"))?;
            check_bit_identity(&baseline, &pulsed).map_err(|e| format!("{label}: {e}"))?;
            runs += 1;
        }
    }
    eprintln!("dspulse --check: {runs} run(s) conserved and bit-identical with pulse stripped");

    // A seeded fault sweep must surface at least one anomaly: drops on
    // the direct network force retries, and the retry-burst / livelock-
    // precursor detectors must see them.
    let plan = fault_plan(7, 0, 32_000, 400);
    let (result, _) = pipeline.run(
        catalog::by_code("VA").as_ref().expect("VA is in Table II"),
        InputSize::Small,
        Mode::DirectStore,
        NullTracer,
        &plan,
        Some(cfg),
    );
    let faulted = result.map_err(|e| format!("seeded fault run failed: {e}"))?;
    let series = faulted
        .pulse
        .as_ref()
        .ok_or_else(|| "seeded fault run carries no pulse series".to_string())?;
    series
        .check_conservation()
        .map_err(|e| format!("seeded fault run: {e}"))?;
    if series.anomalies.is_empty() {
        return Err(format!(
            "seeded fault run (seed {}, delay {}) detected no anomalies \
             despite {} retried / {} degraded push(es)",
            plan.seed, plan.direct_net.delay, faulted.pushes_retried, faulted.pushes_degraded,
        ));
    }
    eprintln!(
        "dspulse --check: seeded fault run surfaced {} anomaly(ies), e.g. {}",
        series.anomalies.len(),
        series.anomalies[0],
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_options(&args);

    if opts.check {
        if let Err(e) = run_check(opts.window) {
            eprintln!("dspulse: check failed: {e}");
            std::process::exit(1);
        }
        println!("dspulse --check: ok");
        return;
    }

    let bench = catalog::by_code(&opts.code).unwrap_or_else(|| {
        eprintln!(
            "dspulse: unknown benchmark code {:?} (see Table II)",
            opts.code
        );
        std::process::exit(1);
    });

    let mut cfg = SystemConfig::paper_default();
    if let Some(entries) = opts.sb_entries {
        cfg.store_buffer_entries = entries;
    }
    let pipeline = Pipeline::with_config(cfg);
    let plan = fault_plan(opts.seed, opts.drop, opts.delay, opts.delay_cycles);
    let (result, _) = pipeline.run(
        &bench,
        opts.input,
        opts.mode,
        NullTracer,
        &plan,
        Some(PulseConfig::with_window(opts.window)),
    );
    let report = result.unwrap_or_else(|e| {
        eprintln!("dspulse: {e}");
        std::process::exit(1);
    });
    let series = report.pulse.as_ref().expect("pulsed run carries a series");

    let header = format!(
        "{} {} {}: {} cycles",
        opts.code,
        opts.input,
        report.mode,
        report.total_cycles.as_u64(),
    );
    let text = match opts.format {
        Format::Dashboard => render_dashboard(&header, series),
        Format::Csv => render_csv(series),
        Format::Report => render_report(&header, series),
    };

    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("dspulse: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "dspulse: {} {} {}: {} window(s) -> {path}",
                opts.code,
                opts.input,
                report.mode,
                series.len(),
            );
        }
        None => print!("{text}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_header_carries_every_series() {
        let header = pulse_csv_header();
        assert!(header.starts_with("window_start,window_end,gpu_l2_accesses,"));
        assert_eq!(
            header.split(',').count(),
            2 + PULSE_COUNTER_NAMES.len() + PULSE_GAUGE_NAMES.len()
        );
    }

    #[test]
    fn fault_plan_is_inactive_without_faults() {
        assert!(!fault_plan(7, 0, 0, 400).is_active());
        let dropped = fault_plan(7, 1000, 0, 400);
        assert!(dropped.is_active());
        assert!(dropped.retries_enabled());
        assert_eq!(dropped.seed, 7);
        let delayed = fault_plan(7, 0, 1000, 400);
        assert!(delayed.is_active());
        assert_eq!(delayed.direct_net.delay_cycles, 400);
    }

    #[test]
    fn dashboard_and_report_render_a_real_run() {
        let pipeline = Pipeline::with_config(SystemConfig::paper_default());
        let bench = catalog::by_code("VA").unwrap();
        let (result, _) = pipeline.run(
            &bench,
            InputSize::Small,
            Mode::DirectStore,
            NullTracer,
            &FaultPlan::default(),
            Some(PulseConfig::default()),
        );
        let report = result.unwrap();
        let series = report.pulse.as_ref().unwrap();
        check_against_report(series, &report).unwrap();

        let dash = render_dashboard("VA small ds", series);
        assert!(dash.contains("sm_ops"), "{dash}");
        assert!(dash.contains("queue_depth"), "{dash}");
        let csv = render_csv(series);
        assert_eq!(csv.lines().count(), series.len() + 1);
        let rep = render_report("VA small ds", series);
        assert!(rep.contains("totals:"), "{rep}");
    }

    #[test]
    fn bit_identity_detects_a_perturbed_report() {
        let pipeline = Pipeline::with_config(SystemConfig::paper_default());
        let bench = catalog::by_code("VA").unwrap();
        let baseline = pipeline
            .run(
                &bench,
                InputSize::Small,
                Mode::DirectStore,
                NullTracer,
                &FaultPlan::default(),
                None,
            )
            .0
            .unwrap();
        let (result, _) = pipeline.run(
            &bench,
            InputSize::Small,
            Mode::DirectStore,
            NullTracer,
            &FaultPlan::default(),
            Some(PulseConfig::default()),
        );
        let pulsed = result.unwrap();
        check_bit_identity(&baseline, &pulsed).unwrap();

        let mut tampered = pulsed.clone();
        tampered.dram_reads += 1;
        assert!(check_bit_identity(&baseline, &tampered).is_err());
    }
}
