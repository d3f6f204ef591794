//! `ds trace` — the single-run tracing subcommand.
//!
//! Runs one benchmark with the in-memory tracer attached and renders
//! the recorded stream in the requested format: raw JSONL events, a
//! Chrome-trace-format document (Perfetto / `chrome://tracing`), the
//! windowed epoch series as CSV, or a human-readable latency summary.
//!
//! ```text
//! ds trace --bench VA [--input small|big] [--mode ccsm|ds|ds-only]
//!          [--format summary|jsonl|chrome|epochs] [--window N]
//!          [--out FILE] [--check]
//! ```

use ds_core::{FaultPlan, InputSize, Mode, Pipeline, RunReport, SystemConfig};
use ds_probe::{chrome, jsonl, render_epoch_csv, BufferTracer, PulseConfig};
use ds_runner::json;

use crate::cli::{benchmark, fail, unknown, usage, Args, Cli, Parsed};

pub const USAGE: &str = "usage: ds trace --bench CODE [options]

Runs one benchmark with tracing enabled and writes the trace.

options:
  --bench CODE             Table II benchmark code (required), e.g. VA
  --input small|big        input size (default: small)
  --mode ccsm|ds|ds-only   coherence mode (default: ds; direct is
                           accepted as an alias for ds)
  --format summary|jsonl|chrome|epochs
                           output format (default: summary):
                           summary  latency histograms + run counters
                           jsonl    one JSON object per trace event
                           chrome   Chrome trace-event JSON (load in
                                    Perfetto or chrome://tracing)
                           epochs   windowed activity series as CSV
  --window N               pulse window in cycles (default: 1000 for
                           --format epochs, off otherwise); with
                           --format chrome, also emits pulse counter
                           tracks and anomaly instants
  --out FILE               write to FILE instead of stdout
  --check                  re-parse the rendered output and fail if it
                           is not well-formed
  --help                   show this help";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Summary,
    Jsonl,
    Chrome,
    Epochs,
}

/// `--check` exit code for an empty trace: distinct from validation
/// failure (1) and usage errors (2), so callers can tell "nothing was
/// recorded" apart from "output malformed". An empty stream passes
/// every per-line/per-row validation vacuously; that must not read as
/// success.
const EXIT_EMPTY_TRACE: i32 = 3;

/// Full `--check` validation: an empty trace fails with
/// [`EXIT_EMPTY_TRACE`], anything malformed with exit code 1.
fn check_trace(format: Format, events: usize, text: &str) -> Result<(), (i32, String)> {
    if events == 0 {
        return Err((
            EXIT_EMPTY_TRACE,
            "trace is empty (no events recorded)".to_string(),
        ));
    }
    check_output(format, text).map_err(|e| (1, e))
}

/// Validates rendered output before it is written: JSONL must parse
/// line by line, a Chrome trace as one document, an epoch CSV must
/// carry its exact header and well-formed, non-overlapping windows.
fn check_output(format: Format, text: &str) -> Result<(), String> {
    match format {
        Format::Jsonl => {
            for (i, line) in text.lines().enumerate() {
                json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            }
            Ok(())
        }
        Format::Chrome => {
            let doc = json::parse(text).map_err(|e| e.to_string())?;
            doc.get("traceEvents")
                .and_then(json::Json::as_arr)
                .map(|_| ())
                .ok_or_else(|| "missing traceEvents array".to_string())
        }
        Format::Epochs => check_epoch_csv(text),
        Format::Summary => Ok(()),
    }
}

/// Epoch-CSV validation: the header line must match exactly, every
/// row's `[start, end)` window must be non-empty (`end > start`), and
/// consecutive windows must not overlap (`start >= previous end`).
fn check_epoch_csv(text: &str) -> Result<(), String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(header) if header == ds_probe::EPOCH_CSV_HEADER => {}
        _ => return Err("missing epoch CSV header".to_string()),
    }
    let mut prev_end = 0u64;
    for (i, line) in lines.enumerate() {
        let row = i + 2; // 1-based, after the header
        let mut fields = line.split(',');
        let start: u64 = fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("row {row}: window_start is not an integer"))?;
        let end: u64 = fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("row {row}: window_end is not an integer"))?;
        if end <= start {
            return Err(format!(
                "row {row}: window [{start}, {end}) is zero-width or inverted"
            ));
        }
        if start < prev_end {
            return Err(format!(
                "row {row}: window [{start}, {end}) overlaps previous (ends at {prev_end})"
            ));
        }
        prev_end = end;
    }
    Ok(())
}

fn summary(report: &RunReport, events: usize) -> String {
    let mut s = format!(
        "{} {}: {} cycles, {} kernel(s), {} warp(s), {} trace event(s)\n",
        report.mode,
        if report.kernels_run > 0 {
            "run"
        } else {
            "idle"
        },
        report.total_cycles.as_u64(),
        report.kernels_run,
        report.warps_completed,
        events,
    );
    s.push_str(&format!(
        "gpu_l2: {:.4} miss rate, {} push hit(s); {} direct push(es), {} bypass(es)\n",
        report.gpu_l2_miss_rate(),
        report.gpu_l2.push_hits.value(),
        report.direct_pushes,
        report.push_bypasses,
    ));
    s.push_str(&format!("{}\n", report.latency));
    if report.epoch_window > 0 {
        s.push_str(&format!(
            "epochs: {} window(s) of {} cycles\n",
            report.epochs.len(),
            report.epoch_window,
        ));
    }
    s
}

pub fn main(mut args: Args) -> Parsed<()> {
    let mut code = None;
    let mut input = InputSize::Small;
    let mut mode = Mode::DirectStore;
    let mut format = Format::Summary;
    let mut window: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut check = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => code = Some(args.value("--bench")?),
            "--input" => input = args.input()?,
            "--mode" => mode = args.run_mode()?,
            "--format" => {
                format = args.choice(
                    "--format",
                    "format",
                    &[
                        ("summary", Format::Summary),
                        ("jsonl", Format::Jsonl),
                        ("chrome", Format::Chrome),
                        ("epochs", Format::Epochs),
                    ],
                )?;
            }
            "--window" => window = Some(args.positive("--window")?),
            "--out" => out = Some(args.value("--out")?),
            "--check" => check = true,
            "--help" | "-h" => return Err(Cli::Help),
            other => return unknown(other),
        }
    }
    let Some(code) = code else {
        return usage("--bench is required");
    };

    let bench = benchmark(&code);

    let window = window.or((format == Format::Epochs).then_some(1000));
    let pipeline = Pipeline::with_config(SystemConfig::paper_default());
    let (result, probes) = pipeline.run(
        &bench,
        input,
        mode,
        BufferTracer::new(),
        &FaultPlan::default(),
        window.map(PulseConfig::with_window),
    );
    let report = result.unwrap_or_else(|e| fail(&e.to_string()));
    let events = probes.tracer.into_events();

    let text = match format {
        Format::Summary => summary(&report, events.len()),
        Format::Jsonl => jsonl::render(&events),
        Format::Chrome => chrome::render_with_pulse(&events, report.pulse.as_ref()),
        Format::Epochs => render_epoch_csv(report.epoch_window, &report.epochs),
    };

    if check {
        if let Err((code, e)) = check_trace(format, events.len(), &text) {
            eprintln!("ds trace: output failed validation: {e}");
            std::process::exit(code);
        }
    }

    match &out {
        Some(path) => {
            std::fs::write(path, &text)
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
            eprintln!(
                "ds trace: {code} {input} {}: {} event(s) -> {path}",
                report.mode,
                events.len(),
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch_csv(rows: &[(u64, u64)]) -> String {
        let mut s = format!("{}\n", ds_probe::EPOCH_CSV_HEADER);
        for (start, end) in rows {
            s.push_str(&format!("{start},{end},0,0,0.0000,0,0,0,0,0,0,0\n"));
        }
        s
    }

    #[test]
    fn empty_trace_fails_check_with_distinct_code() {
        for format in [
            Format::Summary,
            Format::Jsonl,
            Format::Chrome,
            Format::Epochs,
        ] {
            let (code, msg) = check_trace(format, 0, "").unwrap_err();
            assert_eq!(code, EXIT_EMPTY_TRACE);
            assert!(msg.contains("empty"), "{msg}");
        }
        // A non-empty trace with valid output still passes...
        assert!(check_trace(Format::Jsonl, 3, "{\"a\": 1}\n{\"b\": 2}\n").is_ok());
        // ...and malformed output still fails with the plain code.
        let (code, _) = check_trace(Format::Jsonl, 3, "not json\n").unwrap_err();
        assert_eq!(code, 1);
    }

    #[test]
    fn epoch_check_accepts_well_formed_windows() {
        assert!(check_epoch_csv(&epoch_csv(&[(0, 1000), (1000, 2000), (2000, 3000)])).is_ok());
        // Gaps are fine (idle windows are not emitted); only overlap
        // and emptiness are errors.
        assert!(check_epoch_csv(&epoch_csv(&[(0, 1000), (5000, 6000)])).is_ok());
        assert!(check_epoch_csv(&epoch_csv(&[])).is_ok());
    }

    #[test]
    fn epoch_check_rejects_zero_width_and_inverted_windows() {
        let err = check_epoch_csv(&epoch_csv(&[(0, 1000), (1000, 1000)])).unwrap_err();
        assert!(err.contains("zero-width or inverted"), "{err}");
        let err = check_epoch_csv(&epoch_csv(&[(2000, 1000)])).unwrap_err();
        assert!(err.contains("zero-width or inverted"), "{err}");
    }

    #[test]
    fn epoch_check_rejects_overlapping_windows() {
        let err = check_epoch_csv(&epoch_csv(&[(0, 1000), (500, 1500)])).unwrap_err();
        assert!(err.contains("overlaps previous"), "{err}");
    }

    #[test]
    fn epoch_check_rejects_bad_header_and_malformed_rows() {
        assert!(check_epoch_csv("nope\n0,1000\n").is_err());
        let mut s = format!("{}\n", ds_probe::EPOCH_CSV_HEADER);
        s.push_str("abc,1000,0,0,0.0,0,0,0,0,0,0,0\n");
        let err = check_epoch_csv(&s).unwrap_err();
        assert!(err.contains("window_start"), "{err}");
    }
}
