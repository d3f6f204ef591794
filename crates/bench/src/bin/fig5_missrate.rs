//! Regenerates Fig. 5: GPU L2 miss rate under CCSM (red bars in the
//! paper) and direct store (blue bars), small (top) and big (bottom)
//! inputs, with geometric means as the right-most bars.
//!
//! Runs through the `ds-runner` subsystem: simulations execute in
//! parallel (`DS_RUNNER_JOBS` sets the worker count) and are memoized
//! across the two input sweeps.
//!
//! Usage: `fig5_missrate [small|big|both]`

use ds_bench::{bar, exit_on_error, geomean_miss_rate_percent, sizes_from_args};
use ds_core::{Mode, SystemConfig};
use ds_runner::Runner;

fn main() {
    let cfg = SystemConfig::paper_default();
    let mut runner = Runner::new();
    for input in sizes_from_args("fig5_missrate") {
        println!();
        println!("FIG. 5 ({input}) — GPU L2 MISS RATE, CCSM vs DIRECT STORE");
        println!("==========================================================");
        let comparisons = exit_on_error(runner.sweep(&cfg, input, Mode::DirectStore, |_| true));
        let max = comparisons
            .iter()
            .map(|c| c.miss_rates().0.max(c.miss_rates().1) * 100.0)
            .fold(1.0f64, f64::max);
        println!(
            "{:<4} {:>8} {:>8}   {:<25} (ccsm █ / ds ▒)",
            "", "ccsm", "ds", ""
        );
        for c in &comparisons {
            let (mc, md) = c.miss_rates();
            let (pc, pd) = (mc * 100.0, md * 100.0);
            println!(
                "{:<4} {:>7.2}% {:>7.2}%   {:<25}",
                c.code,
                pc,
                pd,
                format!(
                    "{}|{}",
                    bar(pc, max, 20),
                    bar(pd, max, 20).replace('█', "▒")
                )
            );
        }
        let gc = geomean_miss_rate_percent(comparisons.iter().map(|c| c.miss_rates().0));
        let gd = geomean_miss_rate_percent(comparisons.iter().map(|c| c.miss_rates().1));
        println!(
            "{:<4} {:>7.2}% {:>7.2}%   (geomean of non-zero rates)",
            "GEO", gc, gd
        );
        println!(
            "paper reference geomeans: {}",
            match input {
                ds_core::InputSize::Small => "9.3% -> 7.3%",
                ds_core::InputSize::Big => "12.5% -> 11.1%",
            }
        );
        println!();
        println!("compulsory misses (ccsm -> ds):");
        for c in &comparisons {
            let (cc, cd) = c.compulsory_misses();
            println!("  {:<4} {:>8} -> {:>8}", c.code, cc, cd);
        }
    }
}
