//! `ds pulse` — the cycle-domain time-series telemetry subcommand.
//!
//! Runs one benchmark with the pulse sampler attached and renders the
//! windowed counter series: a sparkline terminal dashboard, the raw
//! per-window CSV, or an anomaly report. `ds check` audits the
//! observability contract: every per-window counter series sums
//! exactly to the corresponding final `RunReport` total, a pulsed run
//! equals the plain one with the series stripped (sampling never
//! perturbs simulated timing — the fig-4 guarantee), and a seeded
//! fault run surfaces at least one detected anomaly.
//!
//! ```text
//! ds pulse --bench VA [--input small|big] [--mode ccsm|ds|ds-only]
//!          [--window N] [--format dashboard|csv|report] [--out FILE]
//!          [--seed N] [--net NET] [--kind KIND] [--rate RATE]
//! ```

use ds_core::{FaultKind, FaultNet, FaultPlan, InputSize, Mode, Pipeline, SystemConfig};
use ds_probe::pulse::{ctr, gauge, PULSE_COUNTER_NAMES, PULSE_GAUGE_NAMES};
use ds_probe::{sparkline, NullTracer, PulseConfig, PulseSeries, DEFAULT_PULSE_WINDOW};

use crate::cli::{benchmark, fail, unknown, usage, Args, Cli, Parsed};

pub const USAGE: &str = "usage: ds pulse --bench CODE [options]

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
  --net direct|coh|gpu|dram
                           where to inject faults (default: direct)
  --kind drop|dup|delay    fault kind for NoC nets (default: drop);
                           delayed acks overshoot the ack timeout and
                           trigger retries without losing a message
  --rate RATE              fault rate in parts-per-65536 (default: 0 =
                           no faults); faults activate the ack/retry
                           protocol so anomaly detectors have
                           something to find
  --sb-entries N           override the store-buffer size (default:
                           paper Table I, 16 entries); starving the
                           buffer is the reproducible way to drive
                           the stall-storm detector
  --out FILE               write to FILE instead of stdout
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
    plan: FaultPlan,
    sb_entries: Option<usize>,
    out: Option<String>,
}

fn parse(mut args: Args) -> Parsed<Options> {
    let mut code = None;
    let mut opts = Options {
        code: String::new(),
        input: InputSize::Small,
        mode: Mode::DirectStore,
        window: DEFAULT_PULSE_WINDOW,
        format: Format::Dashboard,
        plan: FaultPlan::default(),
        sb_entries: None,
        out: None,
    };
    let (mut seed, mut net, mut kind, mut rate) = (0, FaultNet::Direct, FaultKind::Drop, 0);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => code = Some(args.value("--bench")?),
            "--input" => opts.input = args.input()?,
            "--mode" => opts.mode = args.run_mode()?,
            "--window" => opts.window = args.positive("--window")?,
            "--format" => {
                opts.format = args.choice(
                    "--format",
                    "format",
                    &[
                        ("dashboard", Format::Dashboard),
                        ("csv", Format::Csv),
                        ("report", Format::Report),
                    ],
                )?;
            }
            "--seed" => seed = args.parsed("--seed", "an integer")?,
            "--net" => net = args.fault_net()?,
            "--kind" => kind = args.fault_kind()?,
            "--rate" => rate = args.parsed("--rate", "a rate in 0..=65535")?,
            "--sb-entries" => opts.sb_entries = Some(args.positive("--sb-entries")?),
            "--out" => opts.out = Some(args.value("--out")?),
            "--help" | "-h" => return Err(Cli::Help),
            other => return unknown(other),
        }
    }
    let Some(code) = code else {
        return usage("--bench is required");
    };
    opts.code = code;
    opts.plan = FaultPlan::single(seed, net, kind, rate);
    Ok(opts)
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

pub fn main(args: Args) -> Parsed<()> {
    let opts = parse(args)?;

    let bench = benchmark(&opts.code);

    let mut cfg = SystemConfig::paper_default();
    if let Some(entries) = opts.sb_entries {
        cfg.store_buffer_entries = entries;
    }
    let pipeline = Pipeline::with_config(cfg);
    let (result, _) = pipeline.run(
        &bench,
        opts.input,
        opts.mode,
        NullTracer,
        &opts.plan,
        Some(PulseConfig::with_window(opts.window)),
    );
    let report = result.unwrap_or_else(|e| fail(&e.to_string()));
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
            std::fs::write(path, &text)
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
            eprintln!(
                "ds pulse: {} {} {}: {} window(s) -> {path}",
                opts.code,
                opts.input,
                report.mode,
                series.len(),
            );
        }
        None => print!("{text}"),
    }
    Ok(())
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
        let plan = |flags: &[&str]| {
            let mut argv = vec!["--bench".to_string(), "VA".to_string()];
            argv.extend(flags.iter().map(|f| f.to_string()));
            parse(Args::new(argv)).unwrap().plan
        };
        assert!(!plan(&["--seed", "7"]).is_active());
        let dropped = plan(&["--seed", "7", "--rate", "1000"]);
        assert!(dropped.is_active());
        assert!(dropped.retries_enabled());
        assert_eq!(dropped.seed, 7);
        let delayed = plan(&["--seed", "7", "--kind", "delay", "--rate", "1000"]);
        assert!(delayed.is_active());
        assert_eq!(delayed.direct_net.delay_cycles, 400);
    }

    #[test]
    fn cli_and_served_faults_build_equal_plans() {
        for net in FaultNet::ALL.map(FaultNet::name) {
            for kind in FaultKind::ALL.map(FaultKind::name) {
                let flags = [
                    "--bench", "VA", "--net", net, "--kind", kind, "--rate", "300",
                ];
                let argv = [&flags[..], &["--seed", "5"]].concat();
                let cli = parse(Args::new(argv.iter().map(|a| a.to_string()).collect()));
                let body = format!(
                    r#"{{"tasks": [{{"bench": "VA", "input": "small", "mode": "ds"}}],
                        "faults": {{"net": "{net}", "kind": "{kind}", "rate": 300, "seed": 5}}}}"#
                );
                let served = ds_serve::api::parse_submission(body.as_bytes()).unwrap();
                assert_eq!(served[0].faults, cli.unwrap().plan, "{net} {kind}");
            }
        }
    }

    #[test]
    fn dashboard_and_report_render_a_real_run() {
        let pipeline = Pipeline::with_config(SystemConfig::paper_default());
        let bench = benchmark("VA");
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

        let dash = render_dashboard("VA small ds", series);
        assert!(dash.contains("sm_ops"), "{dash}");
        assert!(dash.contains("queue_depth"), "{dash}");
        let csv = render_csv(series);
        assert_eq!(csv.lines().count(), series.len() + 1);
        let rep = render_report("VA small ds", series);
        assert!(rep.contains("totals:"), "{rep}");
    }
}
