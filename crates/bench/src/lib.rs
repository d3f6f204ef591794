//! # ds-bench — the figure and table regeneration harness
//!
//! One binary per table/figure of the paper (see `DESIGN.md` for the
//! full index):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table I (system configuration) |
//! | `table2` | Table II (benchmark inventory) |
//! | `fig1_dataflow` | Fig. 1 (CCSM vs DS data movement) |
//! | `fig2_topology` | Fig. 2 (control flow + topology) |
//! | `fig3_protocol` | Fig. 3 (modified Hammer transition table) |
//! | `fig4_speedup` | Fig. 4 (speedup, small/big inputs) |
//! | `fig5_missrate` | Fig. 5 (GPU L2 miss rates, small/big inputs) |
//! | `ablate_*` | design-choice ablations (DESIGN.md) |
//!
//! This library holds the shared formatting and argument code; the
//! binaries are thin wrappers over the `ds-runner` orchestration
//! subsystem (parallel execution, memoization, `DS_RUNNER_JOBS`).

use ds_core::{Comparison, InputSize, PipelineError};

/// Unwraps a pipeline result in a binary's `main`, exiting with a
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

/// Parses a binary's optional `small` / `big` / `both` CLI argument;
/// no argument means both. Any other argument, or a second one, is an
/// error naming it.
fn parse_sizes(args: &[String]) -> Result<Vec<InputSize>, String> {
    match args {
        [] => Ok(vec![InputSize::Small, InputSize::Big]),
        [size] => match size.as_str() {
            "small" => Ok(vec![InputSize::Small]),
            "big" => Ok(vec![InputSize::Big]),
            "both" => Ok(vec![InputSize::Small, InputSize::Big]),
            other => Err(format!("unknown input size {other:?}")),
        },
        [_, extra, ..] => Err(format!("unexpected argument {extra:?}")),
    }
}

/// Reads the input sizes from a binary's command line with
/// [`parse_sizes`]; a bad argument prints the usage on stderr and
/// exits 2.
pub fn sizes_from_args(bin: &str) -> Vec<InputSize> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_sizes(&args).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}\n\nusage: {bin} [small|big|both]");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_core::{Mode, SystemConfig};
    use ds_runner::Runner;

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(5.0, 10.0, 10), "█████");
        assert_eq!(bar(20.0, 10.0, 10).chars().count(), 10);
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn parse_sizes_variants() {
        let sizes =
            |args: &[&str]| parse_sizes(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        let both = vec![InputSize::Small, InputSize::Big];
        assert_eq!(sizes(&["small"]), Ok(vec![InputSize::Small]));
        assert_eq!(sizes(&["big"]), Ok(vec![InputSize::Big]));
        assert_eq!(sizes(&["both"]), Ok(both.clone()));
        assert_eq!(sizes(&[]), Ok(both));
        for bad in [
            &["--help"][..],
            &["smal"],
            &["small", "big"],
            &["both", "VA"],
        ] {
            assert!(sizes(bad).is_err(), "{bad:?} must be rejected");
        }
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
