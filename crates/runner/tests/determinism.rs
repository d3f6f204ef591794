//! The runner's headline guarantees, asserted end to end:
//!
//! 1. a 4-worker parallel sweep is *bit-identical* to running the same
//!    simulations serially through the pipeline (every cycle count,
//!    miss counter and message counter — compared via the reports'
//!    full `Debug` rendering);
//! 2. a memo-warm second pass performs zero simulations;
//! 3. a disk-cache-warm fresh runner performs zero simulations and
//!    reproduces the same reports.

use ds_core::{FaultPlan, InputSize, Mode, Pipeline, SystemConfig};
use ds_probe::NullTracer;
use ds_runner::{Runner, Task};
use ds_workloads::catalog;

const CODES: [&str; 4] = ["VA", "MM", "NN", "BP"];

fn tasks(cfg: &SystemConfig) -> Vec<Task> {
    CODES
        .iter()
        .flat_map(|code| {
            [
                Task::new(cfg, code, InputSize::Small, Mode::Ccsm),
                Task::new(cfg, code, InputSize::Small, Mode::DirectStore),
            ]
        })
        .collect()
}

/// The serial reference: the same simulations through the pipeline
/// directly, no runner involved.
fn serial_reference(cfg: &SystemConfig) -> Vec<String> {
    let pipeline = Pipeline::with_config(cfg.clone());
    tasks(cfg)
        .iter()
        .map(|t| {
            let bench = catalog::by_code(&t.code).expect("test codes are in the catalog");
            let (report, _) = pipeline.run(
                &bench,
                t.input,
                t.mode,
                NullTracer,
                &FaultPlan::default(),
                None,
            );
            let report = report.expect("translates");
            format!("{report:?}")
        })
        .collect()
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial_and_memo_warm_runs_are_free() {
    let cfg = SystemConfig::paper_default();
    let expected = serial_reference(&cfg);

    let mut runner = Runner::new().jobs(4).progress(false);
    let reports = runner.run_tasks(&tasks(&cfg)).expect("sweep succeeds");
    assert_eq!(runner.simulations_run(), expected.len() as u64);

    let got: Vec<String> = reports.iter().map(|r| format!("{r:?}")).collect();
    assert_eq!(
        got, expected,
        "4-worker runner must reproduce the serial pipeline bit for bit"
    );

    // Memo-warm second pass: same tasks, zero new simulations, same
    // reports.
    let again = runner
        .run_tasks(&tasks(&cfg))
        .expect("memo-warm sweep succeeds");
    assert_eq!(
        runner.simulations_run(),
        expected.len() as u64,
        "warm memo must not re-simulate"
    );
    let again: Vec<String> = again.iter().map(|r| format!("{r:?}")).collect();
    assert_eq!(again, expected);
}

#[test]
fn disk_cache_warm_runner_re_simulates_nothing() {
    let dir = std::env::temp_dir().join(format!("ds-runner-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cfg = SystemConfig::paper_default();

    let mut writer = Runner::new().jobs(4).progress(false).with_disk_cache(&dir);
    let first = writer.run_tasks(&tasks(&cfg)).expect("cold sweep succeeds");
    assert_eq!(writer.simulations_run(), tasks(&cfg).len() as u64);

    // A fresh runner — fresh memo — must be fully served by the disk
    // cache.
    let mut reader = Runner::new().jobs(4).progress(false).with_disk_cache(&dir);
    let second = reader.run_tasks(&tasks(&cfg)).expect("warm sweep succeeds");
    assert_eq!(
        reader.simulations_run(),
        0,
        "warm disk cache must serve every task"
    );
    let first: Vec<String> = first.iter().map(|r| format!("{r:?}")).collect();
    let second: Vec<String> = second.iter().map(|r| format!("{r:?}")).collect();
    assert_eq!(second, first, "cached reports must round-trip exactly");

    // An edited config misses the cache (different fingerprint) and
    // simulates again.
    let mut edited = SystemConfig::paper_default();
    edited.direct_hop_latency += 1;
    let mut third = Runner::new().jobs(2).progress(false).with_disk_cache(&dir);
    third
        .run_tasks(&[Task::new(&edited, "VA", InputSize::Small, Mode::Ccsm)])
        .expect("edited-config run succeeds");
    assert_eq!(third.simulations_run(), 1, "config edit must invalidate");

    std::fs::remove_dir_all(&dir).unwrap();
}
