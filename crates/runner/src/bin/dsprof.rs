//! `dsprof` — host-time self-profiling.
//!
//! Runs benchmarks with the `ds_probe::prof` scoped profiler enabled
//! and reports where *host* time goes: the simulator's hot phases
//! (event queue, cache lookups, protocol transitions, the push path,
//! NoC and DRAM ticks) plus the observability tax — the cost of the
//! stage fold, the LineLens fold, the latency histograms and pulse
//! window sampling, each in its own bucket. Host time never feeds
//! back into simulated timing; `--check` proves it by asserting
//! bit-identical simulated cycles with the profiler on, off, and at
//! every probe level.
//!
//! ```text
//! dsprof [--bench CODE] [--input small|big] [--mode ccsm|ds|both]
//!        [--probe-level full|stages|minimal] [--window N]
//!        [--format table|folded]
//! dsprof --check [--bench CODE]
//! ```

use ds_core::{FaultPlan, InputSize, Mode, Pipeline, RunReport, Scenario, SystemConfig};
use ds_probe::prof::{self, HostPhase, HostProfile, ProbeLevel};

const USAGE: &str = "usage: dsprof [options]
       dsprof --check [--bench CODE]

Profiles the simulator's own host time over the Table II catalog and
prints a per-phase breakdown including the observability tax.

options:
  --bench CODE       profile only this benchmark (default: catalog)
  --input small|big  input size (default: small)
  --mode ccsm|ds|both
                     modes to profile (default: both)
  --probe-level full|stages|minimal
                     observability level to profile at (default: full)
  --window N         enable pulse sampling with an N-cycle window
                     during profiling, so the tax_epochs bucket
                     measures the ds-pulse observability tax
                     (default: off)
  --format table|folded
                     per-phase table or folded-stack lines suitable
                     for flamegraph tooling (default: table)
  --check            invariant mode: per-phase sums never exceed
                     wall-clock, shed probe levels have exactly-zero
                     tax buckets, and simulated cycles are
                     bit-identical with the profiler on, off, and at
                     every probe level; exits non-zero on violation
  --help             show this help";

struct Options {
    bench: Option<String>,
    input: InputSize,
    modes: Vec<Mode>,
    level: ProbeLevel,
    window: Option<u64>,
    folded: bool,
    check: bool,
}

fn usage_error(message: &str) -> ! {
    eprintln!("dsprof: {message}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_options(args: &[String]) -> Options {
    let mut opts = Options {
        bench: None,
        input: InputSize::Small,
        modes: vec![Mode::Ccsm, Mode::DirectStore],
        level: ProbeLevel::Full,
        window: None,
        folded: false,
        check: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--bench needs a value"));
                opts.bench = Some(v.clone());
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
                opts.modes = match v.as_str() {
                    "ccsm" => vec![Mode::Ccsm],
                    "ds" => vec![Mode::DirectStore],
                    "both" => vec![Mode::Ccsm, Mode::DirectStore],
                    other => usage_error(&format!("unknown mode {other:?}")),
                };
            }
            "--probe-level" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--probe-level needs a value"));
                opts.level = ProbeLevel::parse(v)
                    .unwrap_or_else(|| usage_error(&format!("unknown probe level {v:?}")));
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
            "--format" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--format needs a value"));
                opts.folded = match v.as_str() {
                    "table" => false,
                    "folded" => true,
                    other => usage_error(&format!("unknown format {other:?}")),
                };
            }
            "--check" => opts.check = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    opts
}

fn benches(filter: Option<&str>) -> Vec<ds_workloads::Benchmark> {
    match filter {
        Some(code) => match ds_workloads::catalog::by_code(code) {
            Some(b) => vec![b],
            None => {
                eprintln!("dsprof: unknown benchmark code {code:?} (see Table II)");
                std::process::exit(1);
            }
        },
        None => ds_workloads::catalog::all(),
    }
}

/// One profiled simulation. The profiler globals are already set by
/// the caller; a fresh [`System`] picks the probe level up at
/// construction.
///
/// [`System`]: ds_core::System
fn run_profiled(bench: &dyn Scenario, input: InputSize, mode: Mode) -> RunReport {
    run_profiled_pulsed(bench, input, mode, None)
}

/// Like [`run_profiled`] but optionally with pulse sampling enabled,
/// so the `tax_epochs` bucket measures the ds-pulse observability tax.
fn run_profiled_pulsed(
    bench: &dyn Scenario,
    input: InputSize,
    mode: Mode,
    window: Option<u64>,
) -> RunReport {
    let pipeline = Pipeline::with_config(SystemConfig::paper_default());
    let pulse = window.map(ds_probe::PulseConfig::with_window);
    let (result, _) = pipeline.run(
        bench,
        input,
        mode,
        ds_probe::NullTracer,
        &FaultPlan::default(),
        pulse,
    );
    result.unwrap_or_else(|e| {
        eprintln!("dsprof: {e}");
        std::process::exit(1);
    })
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// The per-phase table: simulation phases first, then the tax
/// buckets, then the untracked remainder, each as self time against
/// total wall-clock.
fn render_table(profile: &HostProfile, runs: &[(String, u64)]) -> String {
    let wall = profile.wall_nanos;
    let mut out = format!(
        "{:16} {:>12} {:>12} {:>7}\n",
        "phase", "spans", "self ms", "% wall"
    );
    let section = |out: &mut String, title: &str, tax: bool| {
        out.push_str(&format!("-- {title}\n"));
        for &phase in HostPhase::ALL.iter().filter(|p| p.is_tax() == tax) {
            out.push_str(&format!(
                "{:16} {:>12} {:>12.3} {:>6.2}%\n",
                phase.name(),
                profile.phase_count(phase),
                ms(profile.phase_nanos(phase)),
                pct(profile.phase_nanos(phase), wall),
            ));
        }
    };
    section(&mut out, "simulation", false);
    section(&mut out, "observability tax", true);
    out.push_str(&format!(
        "-- totals\n\
         {:16} {:>12} {:>12.3} {:>6.2}%\n\
         {:16} {:>12} {:>12.3} {:>6.2}%\n\
         {:16} {:>12} {:>12.3} {:>6.2}%\n\
         {:16} {:>12} {:>12.3} {:>6.2}%\n",
        "tracked",
        "",
        ms(profile.total_self_nanos()),
        pct(profile.total_self_nanos(), wall),
        "tax",
        "",
        ms(profile.tax_nanos()),
        pct(profile.tax_nanos(), wall),
        "untracked",
        "",
        ms(profile.untracked_nanos()),
        pct(profile.untracked_nanos(), wall),
        "wall",
        "",
        ms(wall),
        100.0,
    ));
    out.push_str("-- runs\n");
    for (label, nanos) in runs {
        out.push_str(&format!("{label:16} {:>12.3} ms wall\n", ms(*nanos)));
    }
    out
}

/// The simulated outcome of a run, everything host profiling must
/// not perturb. Compared across profiler variants in `--check`.
fn sim_fingerprint(r: &RunReport) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        r.total_cycles.as_u64(),
        r.events,
        r.dram_reads,
        r.dram_writes,
        r.direct_pushes,
        r.gpu_l2.hits.value(),
        r.gpu_l2.misses.value(),
    )
}

/// The `--check` invariants for one benchmark/input/mode: runs the
/// simulation with the profiler off and then on at every probe
/// level, returning human-readable violations (empty means all
/// hold).
fn check_one(bench: &dyn Scenario, input: InputSize, mode: Mode) -> Vec<String> {
    let code = bench.code();
    let label = format!("{code} {input} {mode}");
    let mut errs = Vec::new();

    prof::set_enabled(false);
    prof::set_level(ProbeLevel::Full);
    let baseline = run_profiled(bench, input, mode);
    if baseline.host.is_some() {
        errs.push(format!("{label}: disabled profiler produced a profile"));
    }
    let expected = sim_fingerprint(&baseline);

    for level in ProbeLevel::ALL {
        prof::set_enabled(true);
        prof::set_level(level);
        let report = run_profiled(bench, input, mode);
        let tag = format!("{label} @{level}");
        if sim_fingerprint(&report) != expected {
            errs.push(format!(
                "{tag}: simulated outcome diverged from unprofiled baseline \
                 ({:?} != {expected:?})",
                sim_fingerprint(&report)
            ));
        }
        let Some(host) = &report.host else {
            errs.push(format!("{tag}: enabled profiler produced no profile"));
            continue;
        };
        if let Err(e) = host.check() {
            errs.push(format!("{tag}: {e}"));
        }
        // Shed observability layers must cost exactly nothing: their
        // tax spans live behind the layer's own disabled guard.
        if level < ProbeLevel::Full {
            for phase in [HostPhase::TaxLens] {
                if host.phase_count(phase) != 0 {
                    errs.push(format!(
                        "{tag}: {} recorded {} spans with the lens shed",
                        phase.name(),
                        host.phase_count(phase)
                    ));
                }
            }
        }
        if level < ProbeLevel::Stages && host.phase_count(HostPhase::TaxStages) != 0 {
            errs.push(format!(
                "{tag}: tax_stages recorded {} spans at minimal level",
                host.phase_count(HostPhase::TaxStages)
            ));
        }
    }
    prof::set_enabled(false);
    prof::set_level(ProbeLevel::Full);
    errs
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_options(&args);

    if opts.check {
        let mut failed = false;
        for bench in benches(opts.bench.as_deref()) {
            let mut errs = Vec::new();
            for &mode in &opts.modes {
                errs.extend(check_one(&bench, opts.input, mode));
            }
            if errs.is_empty() {
                eprintln!("dsprof: {:4} invariants hold", bench.code());
            } else {
                failed = true;
                for e in &errs {
                    eprintln!("dsprof: check failed: {e}");
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "dsprof: host-time invariants hold (profiler never perturbs simulated cycles; \
             shed levels have zero-cost tax buckets)"
        );
        return;
    }

    prof::set_enabled(true);
    prof::set_level(opts.level);
    let mut merged = HostProfile::default();
    let mut runs = Vec::new();
    for bench in benches(opts.bench.as_deref()) {
        for &mode in &opts.modes {
            let report = run_profiled_pulsed(&bench, opts.input, mode, opts.window);
            let host = report.host.expect("profiler is enabled");
            runs.push((format!("{} {}", bench.code(), mode), host.wall_nanos));
            merged.merge(&host);
        }
    }

    if opts.folded {
        for line in merged.folded() {
            println!("{line}");
        }
    } else {
        println!(
            "dsprof: {} run{} at probe level {} — host-time self profile",
            runs.len(),
            if runs.len() == 1 { "" } else { "s" },
            opts.level,
        );
        print!("{}", render_table(&merged, &runs));
        if opts.window.is_some() {
            println!(
                "pulse tax (tax_epochs): {:.2}% of wall",
                pct(merged.phase_nanos(HostPhase::TaxEpochs), merged.wall_nanos),
            );
        }
    }
}
