//! `ds xray` — per-transaction cycle accounting and stall attribution.
//!
//! Runs one benchmark under both CCSM and direct store with the live
//! stitcher attached, which reassembles the trace stream into
//! per-transaction records, and prints a side-by-side stall stack:
//! for every lifecycle stage, how many cycles the mode's loads (and
//! pushes) spent there. Because stage intervals telescope, each
//! column's stage sum equals its end-to-end cycle total exactly —
//! the report prints both lines so the invariant is visible.
//!
//! ```text
//! ds xray --bench VA [--input small|big] [--top K] [--out FILE]
//! ```
//!
//! `ds check` audits the same accounting on every run.

use ds_bench::pct;
use ds_core::{FaultPlan, InputSize, Mode, Pipeline, RunReport, SystemConfig};
use ds_probe::xray::{self, Stitch};
use ds_probe::{Stage, StageBreakdown, TxnPath};

use crate::cli::{benchmark, fail, unknown, usage, Args, Cli, Parsed};

pub const USAGE: &str = "usage: ds xray --bench CODE [options]

Runs one benchmark under both CCSM and direct store and prints a
side-by-side per-stage stall stack plus the slowest critical paths.

options:
  --bench CODE       Table II benchmark code (required), e.g. VA
  --input small|big  input size (default: small)
  --top K            critical paths to print per mode (default: 3)
  --out FILE         write the report to FILE instead of stdout
  --help             show this help";

/// Everything `ds xray` derives from one instrumented run.
struct ModeView {
    report: RunReport,
    records: Vec<xray::TxnRecord>,
}

fn run_mode(code: &str, input: InputSize, mode: Mode) -> ModeView {
    let bench = benchmark(code);
    let mut records = Vec::new();
    let pipeline = Pipeline::with_config(SystemConfig::paper_default());
    let (result, _) = pipeline.run(
        &bench,
        input,
        mode,
        Stitch::new(|t| records.push(t)),
        &FaultPlan::default(),
        None,
    );
    let report = result.unwrap_or_else(|e| fail(&e.to_string()));
    ModeView { report, records }
}

/// One stall-stack table for `path`, the two modes side by side.
fn render_stack(out: &mut String, path: TxnPath, ccsm: &StageBreakdown, ds: &StageBreakdown) {
    let (title, ccsm_total, ds_total) = match path {
        TxnPath::GpuLoad => ("GPU load stall stack", ccsm.load_cycles, ds.load_cycles),
        TxnPath::Push => (
            "direct-store push stall stack",
            ccsm.push_cycles,
            ds.push_cycles,
        ),
    };
    out.push_str(&format!(
        "{title} (cycles, % of path total)\n{:16} {:>14} {:>6}   {:>14} {:>6}\n",
        "stage", "ccsm", "%", "ds", "%"
    ));
    for stage in Stage::ALL {
        if stage.path() != path {
            continue;
        }
        let (c, d) = (ccsm.stage_cycles(stage), ds.stage_cycles(stage));
        out.push_str(&format!(
            "{:16} {c:>14} {:>5.1}%   {d:>14} {:>5.1}%\n",
            stage.name(),
            pct(c, ccsm_total),
            pct(d, ds_total),
        ));
    }
    out.push_str(&format!(
        "{:16} {:>14}          {:>14}\n",
        "stage sum",
        ccsm.path_stage_sum(path),
        ds.path_stage_sum(path),
    ));
    out.push_str(&format!(
        "{:16} {:>14}          {:>14}\n\n",
        "end-to-end total", ccsm_total, ds_total,
    ));
}

/// The `k` slowest transactions of one mode, with their per-stage
/// critical path.
fn render_critical_paths(out: &mut String, label: &str, view: &ModeView, k: usize) {
    if k == 0 {
        return;
    }
    out.push_str(&format!("slowest transactions, {label}"));
    match xray::p99_threshold(&view.records, TxnPath::GpuLoad) {
        Some(p99) => out.push_str(&format!(" (load p99 >= {p99} cycles):\n")),
        None => out.push_str(":\n"),
    }
    for r in xray::slowest(&view.records, k) {
        // Coalesce consecutive same-stage segments (MSHR retries
        // re-enter their stage once per attempt) so the path reads as
        // one hop per stage visit.
        let mut merged: Vec<(Stage, u64)> = Vec::new();
        for (stage, cycles) in r.segments() {
            match merged.last_mut() {
                Some((last, sum)) if *last == stage => *sum += cycles,
                _ => merged.push((stage, cycles)),
            }
        }
        let segments: Vec<String> = merged
            .iter()
            .map(|(s, c)| format!("{} {c}", s.name()))
            .collect();
        out.push_str(&format!(
            "  txn {} ({}, {} cycles): {}\n",
            r.txn,
            r.path.name(),
            r.total(),
            segments.join(" -> "),
        ));
    }
    out.push('\n');
}

fn render(code: &str, input: InputSize, ccsm: &ModeView, ds: &ModeView, top: usize) -> String {
    let (cc, dc) = (
        ccsm.report.total_cycles.as_u64(),
        ds.report.total_cycles.as_u64(),
    );
    let speedup = if dc == 0 { 0.0 } else { cc as f64 / dc as f64 };
    let mut out = format!(
        "ds xray: {code} {input} — ccsm {cc} cycles, ds {dc} cycles, speedup {speedup:.3}\n\
         loads: ccsm {} / ds {}; pushes: ccsm {} / ds {}\n\n",
        ccsm.report.stages.loads,
        ds.report.stages.loads,
        ccsm.report.stages.pushes,
        ds.report.stages.pushes,
    );
    render_stack(
        &mut out,
        TxnPath::GpuLoad,
        &ccsm.report.stages,
        &ds.report.stages,
    );
    render_stack(
        &mut out,
        TxnPath::Push,
        &ccsm.report.stages,
        &ds.report.stages,
    );
    render_critical_paths(&mut out, "ccsm", ccsm, top);
    render_critical_paths(&mut out, "ds", ds, top);
    out
}

pub fn main(mut args: Args) -> Parsed<()> {
    let mut code = None;
    let mut input = InputSize::Small;
    let mut top = 3;
    let mut out: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => code = Some(args.value("--bench")?),
            "--input" => input = args.input()?,
            "--top" => top = args.parsed("--top", "a non-negative integer")?,
            "--out" => out = Some(args.value("--out")?),
            "--help" | "-h" => return Err(Cli::Help),
            other => return unknown(other),
        }
    }
    let Some(code) = code else {
        return usage("--bench is required");
    };

    let ccsm = run_mode(&code, input, Mode::Ccsm);
    let ds = run_mode(&code, input, Mode::DirectStore);

    let text = render(&code, input, &ccsm, &ds, top);

    match &out {
        Some(path) => {
            std::fs::write(path, &text)
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
            eprintln!("ds xray: {code} {input} -> {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}
