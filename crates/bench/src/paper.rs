//! The paper's tables and figures, the evaluation CSV and the
//! one-benchmark diagnostic: `ds table1|table2|fig1|...|fig5`,
//! `ds export-csv` and `ds diag`.
//!
//! The sweeps run through the `ds-runner` subsystem: simulations
//! execute in parallel (`DS_RUNNER_JOBS` sets the worker count), are
//! memoized across input sweeps, and print in a fixed order.

use ds_bench::{
    bar, exit_on_error, geomean_miss_rate_percent, geomean_nonzero_speedup_percent,
    FLAT_SPEEDUP_EPSILON,
};
use ds_coherence::{transition_table, NextState, ProtocolEvent};
use ds_core::topology::Topology;
use ds_core::trace::{trace_lines, trace_single_line};
use ds_core::{InputSize, Mode, Scenario, SystemConfig};
use ds_runner::{report_csv_row, Runner, Task, REPORT_CSV_HEADER};
use ds_workloads::catalog;

use crate::cli::{no_args, sizes, unknown, Args, Parsed};

pub const TABLE1_USAGE: &str = "usage: ds table1

Regenerates Table I: the simulated system configuration.";

pub const TABLE2_USAGE: &str = "usage: ds table2

Regenerates Table II: the benchmark inventory.";

pub const FIG1_USAGE: &str = "usage: ds fig1

Regenerates Fig. 1: data movement from a CPU store to the GPU's
consuming load, CCSM vs direct store, as measured message counts.";

pub const FIG2_USAGE: &str = "usage: ds fig2

Regenerates Fig. 2: the TLB control flow of a CPU store (left) and the
simulated topology with the added direct-store network (right).";

pub const FIG3_USAGE: &str = "usage: ds fig3

Regenerates Fig. 3: the modified Hammer state-transition table. Rows
marked `**` are the paper's bold direct-store additions; the row marked
`..>` is the blue dashed GPU-L2 `I -> MM` edge.";

pub const FIG4_USAGE: &str = "usage: ds fig4 [--input small|big|both]

Regenerates Fig. 4: direct-store speedup over CCSM per benchmark, with
the geometric mean of non-zero speedups as the right-most bar
(default: both inputs).";

pub const FIG5_USAGE: &str = "usage: ds fig5 [--input small|big|both]

Regenerates Fig. 5: GPU L2 miss rate under CCSM and direct store per
benchmark, with geometric means as the right-most bars (default: both
inputs).";

pub const EXPORT_CSV_USAGE: &str = "usage: ds export-csv [--input small|big|both]

Writes the full evaluation as CSV on stdout (default: both inputs):
benchmark, suite, shared memory, input size, mode, total cycles, GPU
L2 accesses/misses/miss-rate/compulsory, pushes, coherence/direct/gpu
network messages, DRAM reads/writes, load-to-use latency percentiles
(p50/p95/p99), then the per-stage cycle breakdown: one stage_<name>
column per lifecycle stage plus stage_loads/stage_load_cycles and
stage_pushes/stage_push_cycles aggregates.";

pub const DIAG_USAGE: &str = "usage: ds diag [--bench CODE] [--input small|big]

Prints the full run reports of one benchmark under CCSM and direct
store (default: VA, small input).";

/// `ds table1`.
pub fn table1(args: Args) -> Parsed<()> {
    no_args(args)?;
    println!("TABLE I — SYSTEM CONFIGURATION");
    println!("==============================");
    println!("{}", SystemConfig::paper_default());
    Ok(())
}

/// `ds table2`.
pub fn table2(args: Args) -> Parsed<()> {
    no_args(args)?;
    println!("TABLE II — BENCHMARKS");
    println!("=====================");
    println!(
        "{:<5} {:<26} {:<15} {:<15} {:<11} {:<6} {:>12} {:>12}",
        "Name",
        "Benchmark",
        "Small input",
        "Big input",
        "Suite",
        "Shared",
        "small bytes",
        "big bytes"
    );
    for b in catalog::all() {
        let small: u64 = b
            .spec(InputSize::Small)
            .arrays
            .iter()
            .map(|a| a.bytes)
            .sum();
        let big: u64 = b.spec(InputSize::Big).arrays.iter().map(|a| a.bytes).sum();
        println!(
            "{:<5} {:<26} {:<15} {:<15} {:<11} {:<6} {:>12} {:>12}",
            b.code(),
            b.name(),
            b.small_label(),
            b.big_label(),
            b.suite().to_string(),
            if b.uses_shared_memory() { "Yes" } else { "No" },
            small,
            big
        );
    }
    Ok(())
}

/// `ds fig1`.
pub fn fig1(args: Args) -> Parsed<()> {
    no_args(args)?;
    println!("FIG. 1 — DATA MOVEMENT: st x (CPU) ... ld x (GPU)");
    println!("==================================================");
    println!("single line:");
    for mode in [Mode::Ccsm, Mode::DirectStore, Mode::DirectStoreOnly] {
        println!("  {}", trace_single_line(mode));
    }
    println!();
    println!("64-line buffer (steady-state shape):");
    for mode in [Mode::Ccsm, Mode::DirectStore, Mode::DirectStoreOnly] {
        println!("  {}", trace_lines(mode, 64));
    }
    println!();
    println!("Reading: under CCSM the GPU's first access pulls the line through");
    println!("the coherence network (GETS, probes, data, unblock); under direct");
    println!("store the line was pushed over the dedicated network at store time");
    println!("and the GPU L2 hits locally.");
    Ok(())
}

/// `ds fig2`.
pub fn fig2(args: Args) -> Parsed<()> {
    no_args(args)?;
    println!("FIG. 2 (left) — CONTROL FLOW OF A CPU STORE");
    println!("============================================");
    println!("  1. CPU issues `st x`");
    println!("  2. MMU consults the TLB for VA -> PA");
    println!("  3. TLB compares the high-order VA bits to the direct-window base");
    println!("  4a. ordinary VA  -> store drains through CPU L1/L2 (CCSM)");
    println!("  4b. direct VA    -> TLB signals the MMU; the L1 controller");
    println!("      forwards GETX + PUTX over the dedicated network to the");
    println!("      GPU L2 slice homing the line; the slice installs I -> MM");
    println!();
    println!("FIG. 2 (right) — SIMULATED TOPOLOGY");
    println!("====================================");
    print!("{}", Topology::of(&SystemConfig::paper_default()));
    Ok(())
}

/// `ds fig3`.
pub fn fig3(args: Args) -> Parsed<()> {
    no_args(args)?;
    println!("FIG. 3 — MODIFIED HAMMER PROTOCOL (MM, M, O, S, I)");
    println!("===================================================");
    println!(
        "{:<6} {:<13} {:<12} {:<30} annotation",
        "state", "event", "next", "actions"
    );
    for row in transition_table() {
        let Some(t) = row.outcome else {
            continue;
        };
        let next = match t.next {
            NextState::Imm(s) => s.to_string(),
            NextState::OnData { shared, exclusive } => format!("{shared}|{exclusive}"),
        };
        let actions = t
            .actions
            .iter()
            .map(|a| format!("{a:?}"))
            .collect::<Vec<_>>()
            .join(", ");
        let mark = if row.event == ProtocolEvent::PutXArrive {
            "..> blue dashed (GPU L2 only)"
        } else if row.is_direct_store_addition {
            "**  bold (direct-store addition)"
        } else {
            ""
        };
        println!(
            "{:<6} {:<13} {:<12} {:<30} {}",
            row.state.to_string(),
            row.event.to_string(),
            next,
            actions,
            mark
        );
    }
    Ok(())
}

/// `ds fig4`.
pub fn fig4(args: Args) -> Parsed<()> {
    let sizes = sizes(args)?;
    let cfg = SystemConfig::paper_default();
    let mut runner = Runner::new();
    for input in sizes {
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
                InputSize::Small => "7.8%",
                InputSize::Big => "5.7%",
            }
        );
    }
    Ok(())
}

/// `ds fig5`.
pub fn fig5(args: Args) -> Parsed<()> {
    let sizes = sizes(args)?;
    let cfg = SystemConfig::paper_default();
    let mut runner = Runner::new();
    for input in sizes {
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
                InputSize::Small => "9.3% -> 7.3%",
                InputSize::Big => "12.5% -> 11.1%",
            }
        );
        println!();
        println!("compulsory misses (ccsm -> ds):");
        for c in &comparisons {
            let (cc, cd) = c.compulsory_misses();
            println!("  {:<4} {:>8} -> {:>8}", c.code, cc, cd);
        }
    }
    Ok(())
}

/// `ds export-csv`.
pub fn export_csv(args: Args) -> Parsed<()> {
    let sizes = sizes(args)?;
    let cfg = SystemConfig::paper_default();

    let mut plan = Vec::new();
    for &input in &sizes {
        for b in catalog::all() {
            for mode in [Mode::Ccsm, Mode::DirectStore] {
                plan.push((b.clone(), Task::new(&cfg, b.code(), input, mode)));
            }
        }
    }
    let tasks: Vec<Task> = plan.iter().map(|(_, t)| t.clone()).collect();
    let mut runner = Runner::new();
    let reports = exit_on_error(runner.run_tasks(&tasks));

    println!("{REPORT_CSV_HEADER}");
    for ((b, task), report) in plan.iter().zip(&reports) {
        println!(
            "{}",
            report_csv_row(
                b.code(),
                &b.suite().to_string(),
                b.uses_shared_memory(),
                task.input,
                report
            )
        );
    }
    Ok(())
}

/// `ds diag`.
pub fn diag(mut args: Args) -> Parsed<()> {
    let mut code = "VA".to_string();
    let mut input = InputSize::Small;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => code = args.value("--bench")?,
            "--input" => input = args.input()?,
            other => return unknown(other),
        }
    }
    let cfg = SystemConfig::paper_default();
    let modes = [Mode::Ccsm, Mode::DirectStore];
    let tasks: Vec<Task> = modes
        .iter()
        .map(|&mode| Task::new(&cfg, &code, input, mode))
        .collect();
    let reports = exit_on_error(Runner::new().progress(false).run_tasks(&tasks));
    for r in &reports {
        println!("{r}");
        println!(
            "  gpu-l1: {}  push_hits={} pushed_fills={}",
            r.gpu_l1,
            r.gpu_l2.push_hits.value(),
            r.gpu_l2.pushed_fills.value()
        );
        println!(
            "  sb stalls={} warps={} kernels={}",
            r.store_buffer_stalls, r.warps_completed, r.kernels_run
        );
        println!(
            "  hub: txns={} conflicts={} probes={}  dram row hits={}  events={}",
            r.hub_transactions, r.hub_conflicts, r.hub_probes, r.dram_row_hits, r.events
        );
        println!(
            "  phases: produce ~{}  kernels ~{}  tail ~{}",
            r.first_kernel_start.as_u64(),
            r.last_kernel_end.as_u64() - r.first_kernel_start.as_u64(),
            r.total_cycles
                .as_u64()
                .saturating_sub(r.last_kernel_end.as_u64())
        );
        for line in r.latency.to_string().lines() {
            println!("  {line}");
        }
        println!();
    }
    Ok(())
}
