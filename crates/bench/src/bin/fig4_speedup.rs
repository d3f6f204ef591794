//! Regenerates Fig. 4: direct-store speedup over CCSM for small (top)
//! and big (bottom) inputs, with the geometric mean of non-zero
//! speedups as the right-most bar.
//!
//! Runs through the `ds-runner` subsystem: simulations execute in
//! parallel (`DS_RUNNER_JOBS` sets the worker count) and are memoized
//! across the two input sweeps.
//!
//! Usage: `fig4_speedup [small|big|both]`

use ds_bench::{
    bar, exit_on_error, geomean_nonzero_speedup_percent, sizes_from_args, FLAT_SPEEDUP_EPSILON,
};
use ds_core::{Mode, SystemConfig};
use ds_runner::Runner;

fn main() {
    let cfg = SystemConfig::paper_default();
    let mut runner = Runner::new();
    for input in sizes_from_args("fig4_speedup") {
        println!();
        println!("FIG. 4 ({input}) — DIRECT-STORE SPEEDUP OVER CCSM");
        println!("==================================================");
        let comparisons = exit_on_error(runner.sweep(&cfg, input, Mode::DirectStore, |_| true));
        let max = comparisons
            .iter()
            .map(|c| c.speedup_percent())
            .fold(1.0f64, f64::max);
        for c in &comparisons {
            let pct = c.speedup_percent();
            println!("{:<4} {:>7.2}%  {}", c.code, pct, bar(pct, max, 40));
        }
        let geo = geomean_nonzero_speedup_percent(&comparisons);
        println!(
            "{:<4} {:>7.2}%  {}  (geomean of speedups beyond ±{:.1}%)",
            "GEO",
            geo,
            bar(geo, max, 40),
            FLAT_SPEEDUP_EPSILON * 100.0
        );
        println!(
            "paper reference geomean: {}",
            match input {
                ds_core::InputSize::Small => "7.8%",
                ds_core::InputSize::Big => "5.7%",
            }
        );
    }
}
