//! Ablation: direct store as a complement vs. a stand-alone
//! replacement for coherence (§III.H).
//!
//! The replacement design removes the broadcast protocol entirely;
//! the paper argues it is "a simpler design with better performance".
//!
//! All three modes of every catalog benchmark are batched through the
//! `ds-runner` subsystem and simulated in parallel.
//!
//! Usage: `ablate_replacement [small|big|both]` (default both)

use ds_bench::{exit_on_error, sizes_from_args};
use ds_core::{Mode, Scenario, SystemConfig};
use ds_runner::{Runner, Task};
use ds_workloads::catalog;

fn main() {
    let cfg = SystemConfig::paper_default();
    let mut runner = Runner::new();
    for input in sizes_from_args("ablate_replacement") {
        let codes: Vec<String> = catalog::all()
            .iter()
            .map(|b| b.code().to_string())
            .collect();
        let mut tasks = Vec::new();
        for code in &codes {
            for mode in [Mode::Ccsm, Mode::DirectStore, Mode::DirectStoreOnly] {
                tasks.push(Task::new(&cfg, code, input, mode));
            }
        }
        let reports = exit_on_error(runner.run_tasks(&tasks));

        println!();
        println!("ABLATION — DS-complement vs DS-replacement ({input} inputs)");
        println!("============================================================");
        println!(
            "{:<5} {:>10} {:>10} {:>10} {:>14}",
            "name", "ccsm", "ds", "ds-only", "coh msgs saved"
        );
        for (code, triple) in codes.iter().zip(reports.chunks(3)) {
            let (ccsm, ds, dso) = (&triple[0], &triple[1], &triple[2]);
            println!(
                "{:<5} {:>10} {:>10} {:>10} {:>14}",
                code,
                ccsm.total_cycles.as_u64(),
                ds.total_cycles.as_u64(),
                dso.total_cycles.as_u64(),
                ds.coh_net.total_msgs() - dso.coh_net.total_msgs()
            );
        }
    }
}
