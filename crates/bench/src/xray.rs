//! `ds xray` — per-transaction cycle accounting and stall attribution.
//!
//! Runs one benchmark under both CCSM and direct store with the
//! in-memory tracer attached, stitches the trace stream back into
//! per-transaction records, and prints a side-by-side stall stack:
//! for every lifecycle stage, how many cycles the mode's loads (and
//! pushes) spent there. Because stage intervals telescope, each
//! column's stage sum equals its end-to-end cycle total exactly —
//! the report prints both lines so the invariant is visible.
//!
//! ```text
//! ds xray --bench VA [--input small|big] [--top K] [--check]
//!         [--out FILE]
//! ```

use ds_bench::pct;
use ds_core::{FaultPlan, InputSize, Mode, Pipeline, RunReport, SystemConfig};
use ds_probe::{xray, BufferTracer, Stage, StageBreakdown, TxnPath};

use crate::cli::{fail, unknown, usage, Args, Cli, Parsed};

pub const USAGE: &str = "usage: ds xray --bench CODE [options]

Runs one benchmark under both CCSM and direct store and prints a
side-by-side per-stage stall stack plus the slowest critical paths.

options:
  --bench CODE       Table II benchmark code (required), e.g. VA
  --input small|big  input size (default: small)
  --top K            critical paths to print per mode (default: 3)
  --check            verify the accounting invariants and exit
                     non-zero on any violation
  --out FILE         write the report to FILE instead of stdout
  --help             show this help";

/// Everything `ds xray` derives from one instrumented run.
struct ModeView {
    report: RunReport,
    records: Vec<xray::TxnRecord>,
    stitched: StageBreakdown,
}

fn run_mode(code: &str, input: InputSize, mode: Mode) -> ModeView {
    let bench = ds_workloads::catalog::by_code(code)
        .unwrap_or_else(|| fail(&format!("unknown benchmark code {code:?} (see Table II)")));
    let pipeline = Pipeline::with_config(SystemConfig::paper_default());
    let (result, probes) = pipeline.run(
        &bench,
        input,
        mode,
        BufferTracer::new(),
        &FaultPlan::default(),
        None,
    );
    let report = result.unwrap_or_else(|e| fail(&e.to_string()));
    let records = xray::stitch(probes.tracer.events());
    let stitched = xray::breakdown(&records);
    ModeView {
        report,
        records,
        stitched,
    }
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
        "dsxray: {code} {input} — ccsm {cc} cycles, ds {dc} cycles, speedup {speedup:.3}\n\
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

/// `--check` exit code for an empty trace: every invariant below holds
/// vacuously over zero transaction records, so an instrumented run
/// that recorded nothing must fail distinctly rather than "pass".
const EXIT_EMPTY_TRACE: i32 = 3;

/// True when neither mode's run produced any transaction records.
fn traces_are_empty(ccsm: &[xray::TxnRecord], ds: &[xray::TxnRecord]) -> bool {
    ccsm.is_empty() && ds.is_empty()
}

/// Verifies the accounting invariants for one mode's view; returns a
/// list of human-readable violations (empty means all hold).
fn check_view(label: &str, view: &ModeView) -> Vec<String> {
    let mut errs = Vec::new();
    for r in &view.records {
        // Marks must be monotone in cycle, and the per-segment cycles
        // must telescope to the end-to-end total.
        let mut prev = r.marks.first().map_or(0, |&(_, c)| c);
        for &(_, at) in &r.marks {
            if at < prev {
                errs.push(format!(
                    "{label}: txn {} has non-monotone stage marks",
                    r.txn
                ));
                break;
            }
            prev = at;
        }
        if r.end < prev {
            errs.push(format!(
                "{label}: txn {} completes before its last mark",
                r.txn
            ));
        }
        let seg_sum: u64 = r.segments().iter().map(|&(_, c)| c).sum();
        if seg_sum != r.total() {
            errs.push(format!(
                "{label}: txn {} segments sum to {seg_sum}, end-to-end is {}",
                r.txn,
                r.total()
            ));
        }
    }
    // The breakdown stitched from the trace must agree exactly with
    // the one the live tracker accumulated during the run.
    if view.stitched != view.report.stages {
        errs.push(format!(
            "{label}: stitched breakdown disagrees with the live tracker"
        ));
    }
    // Per-path stage sums telescope in aggregate, too.
    for (path, total) in [
        (TxnPath::GpuLoad, view.report.stages.load_cycles),
        (TxnPath::Push, view.report.stages.push_cycles),
    ] {
        let sum = view.report.stages.path_stage_sum(path);
        if sum != total {
            errs.push(format!(
                "{label}: {} stage sum {sum} != end-to-end total {total}",
                path.name()
            ));
        }
    }
    // Stage accounting and the latency histograms observe the same
    // loads: counts and cycle sums must agree.
    let loads = view.report.latency.load_to_use.samples();
    if view.report.stages.loads != loads {
        errs.push(format!(
            "{label}: {} load transactions but {loads} load_to_use samples",
            view.report.stages.loads
        ));
    }
    if u128::from(view.report.stages.load_cycles) != view.report.latency.load_to_use.sum() {
        errs.push(format!(
            "{label}: load cycle sum {} != load_to_use histogram sum {}",
            view.report.stages.load_cycles,
            view.report.latency.load_to_use.sum()
        ));
    }
    if view.report.stages.pushes != view.report.direct_pushes {
        errs.push(format!(
            "{label}: {} push transactions but {} direct pushes",
            view.report.stages.pushes, view.report.direct_pushes
        ));
    }
    errs
}

/// CCSM has no direct-store path: it must attribute zero cycles to
/// the push stages and route zero messages over the direct network.
fn check_ccsm_quiescence(view: &ModeView) -> Vec<String> {
    let mut errs = Vec::new();
    for stage in Stage::ALL {
        if stage.path() == TxnPath::Push && view.report.stages.stage_cycles(stage) != 0 {
            errs.push(format!(
                "ccsm: nonzero cycles attributed to push stage {}",
                stage.name()
            ));
        }
    }
    if view.report.stages.pushes != 0 {
        errs.push("ccsm: nonzero push transactions".into());
    }
    if view.report.direct_net.total_msgs() != 0 {
        errs.push("ccsm: direct network routed messages".into());
    }
    errs
}

pub fn main(mut args: Args) -> Parsed<()> {
    let mut code = None;
    let mut input = InputSize::Small;
    let mut top = 3;
    let mut check = false;
    let mut out: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => code = Some(args.value("--bench")?),
            "--input" => input = args.input()?,
            "--top" => top = args.parsed("--top", "a non-negative integer")?,
            "--check" => check = true,
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

    if check {
        if traces_are_empty(&ccsm.records, &ds.records) {
            eprintln!("ds xray: check failed: no transaction records in either mode (empty trace)");
            std::process::exit(EXIT_EMPTY_TRACE);
        }
        let mut errs = check_view("ccsm", &ccsm);
        errs.extend(check_view("ds", &ds));
        errs.extend(check_ccsm_quiescence(&ccsm));
        if !errs.is_empty() {
            for e in &errs {
                eprintln!("ds xray: check failed: {e}");
            }
            std::process::exit(1);
        }
        eprintln!("ds xray: all accounting invariants hold");
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_detection_requires_both_modes_empty() {
        let none = xray::stitch(&[]);
        assert!(traces_are_empty(&none, &none));
        assert_eq!(
            EXIT_EMPTY_TRACE, 3,
            "distinct from failure (1) and usage (2)"
        );
    }

    #[test]
    fn one_nonempty_mode_is_not_an_empty_trace() {
        use ds_probe::{Component, Stage, TraceEvent, TraceKind};
        let events = vec![
            TraceEvent {
                cycle: 10,
                component: Component::GpuL1 { sm: 0 },
                line: Some(4),
                kind: TraceKind::TxnBegin {
                    txn: 1,
                    stage: Stage::SmL1,
                },
            },
            TraceEvent {
                cycle: 30,
                component: Component::GpuL1 { sm: 0 },
                line: Some(4),
                kind: TraceKind::TxnDone { txn: 1 },
            },
        ];
        let records = xray::stitch(&events);
        assert_eq!(records.len(), 1);
        assert!(!traces_are_empty(&records, &xray::stitch(&[])));
    }
}
