//! `dstrace` — the single-run tracing CLI.
//!
//! Runs one benchmark with the in-memory tracer attached and renders
//! the recorded stream in the requested format: raw JSONL events, a
//! Chrome-trace-format document (Perfetto / `chrome://tracing`), the
//! windowed epoch series as CSV, or a human-readable latency summary.
//!
//! ```text
//! dstrace --bench VA [--input small|big] [--mode ccsm|ds|ds-only]
//!         [--format summary|jsonl|chrome|epochs] [--window N]
//!         [--out FILE] [--check]
//! ```

use ds_core::{FaultPlan, InputSize, Mode, Pipeline, RunReport, SystemConfig};
use ds_probe::{chrome, jsonl, render_epoch_csv, BufferTracer, PulseConfig};
use ds_runner::json;

const USAGE: &str = "usage: dstrace --bench CODE [options]

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

struct Options {
    code: String,
    input: InputSize,
    mode: Mode,
    format: Format,
    window: Option<u64>,
    out: Option<String>,
    check: bool,
}

fn usage_error(message: &str) -> ! {
    eprintln!("dstrace: {message}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_options(args: &[String]) -> Options {
    let mut code = None;
    let mut opts = Options {
        code: String::new(),
        input: InputSize::Small,
        mode: Mode::DirectStore,
        format: Format::Summary,
        window: None,
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
            "--format" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--format needs a value"));
                opts.format = match v.as_str() {
                    "summary" => Format::Summary,
                    "jsonl" => Format::Jsonl,
                    "chrome" => Format::Chrome,
                    "epochs" => Format::Epochs,
                    other => usage_error(&format!("unknown format {other:?}")),
                };
            }
            "--window" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--window needs a value"));
                match v.parse::<u64>() {
                    Ok(n) if n > 0 => opts.window = Some(n),
                    _ => usage_error(&format!("--window needs a positive integer, got {v:?}")),
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
    opts.code = code.unwrap_or_else(|| usage_error("--bench is required"));
    opts
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_options(&args);

    let bench = ds_workloads::catalog::by_code(&opts.code).unwrap_or_else(|| {
        eprintln!(
            "dstrace: unknown benchmark code {:?} (see Table II)",
            opts.code
        );
        std::process::exit(1);
    });

    let window = opts
        .window
        .or((opts.format == Format::Epochs).then_some(1000));
    let pipeline = Pipeline::with_config(SystemConfig::paper_default());
    let (result, probes) = pipeline.run(
        &bench,
        opts.input,
        opts.mode,
        BufferTracer::new(),
        &FaultPlan::default(),
        window.map(PulseConfig::with_window),
    );
    let report = result.unwrap_or_else(|e| {
        eprintln!("dstrace: {e}");
        std::process::exit(1);
    });
    let events = probes.tracer.into_events();

    let text = match opts.format {
        Format::Summary => summary(&report, events.len()),
        Format::Jsonl => jsonl::render(&events),
        Format::Chrome => chrome::render_with_pulse(&events, report.pulse.as_ref()),
        Format::Epochs => render_epoch_csv(report.epoch_window, &report.epochs),
    };

    if opts.check {
        if let Err((code, e)) = check_trace(opts.format, events.len(), &text) {
            eprintln!("dstrace: output failed validation: {e}");
            std::process::exit(code);
        }
    }

    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("dstrace: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "dstrace: {} {} {}: {} event(s) -> {path}",
                opts.code,
                opts.input,
                report.mode,
                events.len(),
            );
        }
        None => print!("{text}"),
    }
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
