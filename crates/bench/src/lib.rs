//! # ds-bench — the `ds` command and the paper's regeneration harness
//!
//! The package builds one binary, `ds` (`src/main.rs`), with one
//! subcommand per tool; `ds --help` lists them all. The paper's
//! tables and figures (see `DESIGN.md` for the full index):
//!
//! | subcommand | regenerates |
//! |---|---|
//! | `ds table1` | Table I (system configuration) |
//! | `ds table2` | Table II (benchmark inventory) |
//! | `ds fig1` | Fig. 1 (CCSM vs DS data movement) |
//! | `ds fig2` | Fig. 2 (control flow + topology) |
//! | `ds fig3` | Fig. 3 (modified Hammer transition table) |
//! | `ds fig4` | Fig. 4 (speedup, small/big inputs) |
//! | `ds fig5` | Fig. 5 (GPU L2 miss rates, small/big inputs) |
//! | `ds export-csv` | the full evaluation as CSV |
//! | `ds ablate <study>` | design-choice ablations (DESIGN.md) |
//!
//! This library holds the shared formatting code and the [`audit`]s
//! `ds check` runs; the subcommands are thin wrappers over the
//! `ds-runner` orchestration subsystem (parallel execution,
//! memoization, `DS_RUNNER_JOBS`) and the `ds-serve` job service.

pub mod audit;

use ds_core::{Comparison, PipelineError};

/// Unwraps a pipeline result in a subcommand, exiting with a
/// message instead of a panic backtrace.
pub fn exit_on_error<T>(result: Result<T, PipelineError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// Speedups within this of 1.0 count as "zero" for Fig. 4's geomean:
/// the paper's summary bar averages only benchmarks direct store
/// actually moves, and sub-half-percent deltas are scheduling noise on
/// these workload sizes, not signal.
pub const FLAT_SPEEDUP_EPSILON: f64 = 0.005;

/// The paper's Fig. 4 summary statistic: geometric mean over the
/// *non-zero* speedups (per [`FLAT_SPEEDUP_EPSILON`]), as a percentage.
pub fn geomean_nonzero_speedup_percent(comparisons: &[Comparison]) -> f64 {
    let gains: Vec<f64> = comparisons
        .iter()
        .map(|c| c.speedup())
        .filter(|&s| (s - 1.0).abs() > FLAT_SPEEDUP_EPSILON)
        .collect();
    (ds_sim::geomean(gains) - 1.0) * 100.0
}

/// Geometric mean of miss rates (the Fig. 5 right-most bars), in
/// percent, over benchmarks with a non-zero rate.
pub fn geomean_miss_rate_percent(rates: impl IntoIterator<Item = f64>) -> f64 {
    ds_sim::geomean(rates.into_iter().filter(|&r| r > 0.0)) * 100.0
}

/// Renders a horizontal ASCII bar scaled to `max`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "█".repeat(n.min(width))
}

/// `part` as a percentage of `whole` (0 when `whole` is 0).
pub fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_core::{InputSize, Mode, SystemConfig};
    use ds_runner::Runner;

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(5.0, 10.0, 10), "█████");
        assert_eq!(bar(20.0, 10.0, 10).chars().count(), 10);
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn geomean_speedup_ignores_flat_benchmarks() {
        // Built synthetically from two sweeps of one benchmark.
        let cfg = SystemConfig::paper_default();
        let cs = Runner::new()
            .progress(false)
            .sweep(&cfg, InputSize::Small, Mode::DirectStore, |b| {
                ds_core::Scenario::code(b) == "VA"
            })
            .unwrap();
        assert_eq!(cs.len(), 1);
        let g = geomean_nonzero_speedup_percent(&cs);
        assert!(g > 0.0, "VA small must show a gain, got {g}");
    }
}
