//! Exports the full evaluation as CSV for external plotting.
//!
//! Columns: benchmark, suite, shared memory, input size, mode, total
//! cycles, GPU L2 accesses/misses/miss-rate/compulsory, pushes,
//! coherence/direct/gpu network messages, DRAM reads/writes,
//! load-to-use latency percentiles (p50/p95/p99), then the
//! per-stage cycle breakdown: one `stage_<name>` column per
//! lifecycle stage (`sm_l1` … `direct_ack`, see `ds_probe::Stage`)
//! plus `stage_loads`/`stage_load_cycles` and
//! `stage_pushes`/`stage_push_cycles` aggregates.
//!
//! The whole run plan is batched through the `ds-runner` subsystem, so
//! rows are simulated in parallel (`DS_RUNNER_JOBS` sets the worker
//! count) while the output order stays fixed.
//!
//! Usage: `export_csv [small|big|both]` (default both); writes to
//! stdout.

use ds_bench::{exit_on_error, sizes_from_args};
use ds_core::{Mode, Scenario, SystemConfig};
use ds_runner::{report_csv_row, Runner, Task, REPORT_CSV_HEADER};
use ds_workloads::catalog;

fn main() {
    let sizes = sizes_from_args("export_csv");
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
}
