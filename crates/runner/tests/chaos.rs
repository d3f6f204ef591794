//! Harness-level ds-chaos guarantees, asserted end to end on catalog
//! benchmarks:
//!
//! 1. a permanently-stalled DRAM bank aborts with a deadlock
//!    diagnostic instead of hanging (guarded by a test-side timeout);
//! 2. faulted runs are deterministic: the same (seed, plan) twice
//!    produces byte-identical serialized reports, and the worker count
//!    does not matter;
//! 3. the executor survives broken runs and reports them as outcomes.

use std::sync::mpsc;
use std::time::Duration;

use ds_core::{FaultPlan, InputSize, Mode, PipelineError, SystemConfig};
use ds_runner::{report_to_json, Runner, Task, TaskOutcome};

fn delay_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan {
        seed,
        ..FaultPlan::default()
    };
    plan.direct_net.delay = 8_192;
    plan.direct_net.delay_cycles = 400;
    plan.direct_net.dup = 1_024;
    plan
}

#[test]
fn stalled_dram_bank_aborts_with_a_deadlock_diagnostic() {
    let cfg = SystemConfig::paper_default();
    let banks = cfg.dram.total_banks();
    let plan = FaultPlan {
        seed: 1,
        stuck_banks: (0..banks as u16).collect(),
        ..FaultPlan::default()
    };
    let task = Task::new(&cfg, "VA", InputSize::Small, Mode::Ccsm).with_faults(plan);

    // The point under test is "aborts instead of hangs", so the test
    // itself must not hang if the watchdog is broken: run on a helper
    // thread and give it a generous wall-clock bound.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut runner = Runner::new().jobs(1).progress(false);
        let _ = tx.send(runner.run_tasks_outcomes(&[task]));
    });
    let outcomes = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("watchdog must abort the run well within the bound");
    match &outcomes[..] {
        [TaskOutcome::Failed(PipelineError::Aborted(msg))] => {
            assert!(msg.contains("deadlock"), "{msg}");
            assert!(
                msg.contains("mshr") || msg.contains("in flight"),
                "diagnostic must dump outstanding transactions: {msg}"
            );
        }
        other => panic!("expected a Failed outcome with a diagnostic, got {other:?}"),
    }
}

#[test]
fn faulted_runs_serialize_byte_identically_across_reruns_and_worker_counts() {
    let cfg = SystemConfig::paper_default();
    let tasks: Vec<Task> = ["VA", "MM"]
        .iter()
        .map(|code| {
            Task::new(&cfg, code, InputSize::Small, Mode::DirectStore).with_faults(delay_plan(42))
        })
        .collect();

    let render = |outcomes: &[TaskOutcome]| -> Vec<String> {
        outcomes
            .iter()
            .map(|o| {
                let r = o.report().expect("delay faults are survivable");
                report_to_json(r).pretty()
            })
            .collect()
    };

    // Two fresh single-worker runners: byte-identical JSON.
    let mut first = Runner::new().jobs(1).progress(false);
    let first_outcomes = first.run_tasks_outcomes(&tasks);
    let a = render(&first_outcomes);
    let mut second = Runner::new().jobs(1).progress(false);
    let b = render(&second.run_tasks_outcomes(&tasks));
    assert_eq!(a, b, "same (seed, plan) must serialize byte-identically");

    // A 4-worker runner: scheduling must not leak into results.
    let mut wide = Runner::new().jobs(4).progress(false);
    let c = render(&wide.run_tasks_outcomes(&tasks));
    assert_eq!(a, c, "worker count must not affect faulted results");

    // Sanity: the faults really were live in the runs being compared.
    let r = first_outcomes[0].report().unwrap();
    assert!(
        r.faults_injected > 0 && r.pushes_retried > 0,
        "retries {} faults {}",
        r.pushes_retried,
        r.faults_injected
    );
}

#[test]
fn fault_plans_do_not_pollute_the_fault_free_memo() {
    let cfg = SystemConfig::paper_default();
    let plain = Task::new(&cfg, "VA", InputSize::Small, Mode::DirectStore);
    let faulted = plain.clone().with_faults(delay_plan(5));

    let mut runner = Runner::new().jobs(2).progress(false);
    let outcomes = runner.run_tasks_outcomes(&[plain.clone(), faulted]);
    assert_eq!(runner.simulations_run(), 2, "distinct keys, distinct runs");
    let plain_report = outcomes[0].report().expect("plain run succeeds");
    let faulted_report = outcomes[1].report().expect("delay faults are survivable");
    assert_eq!(plain_report.faults_injected, 0);
    assert!(faulted_report.faults_injected > 0);
    assert_ne!(
        plain_report.total_cycles.as_u64(),
        faulted_report.total_cycles.as_u64(),
        "this delay mix visibly perturbs timing"
    );

    // The fault-free task is memo-served on a second pass; the plan
    // did not overwrite its slot.
    let again = runner.run_tasks_outcomes(&[plain]);
    assert_eq!(runner.simulations_run(), 2, "memo hit, no re-simulation");
    assert_eq!(
        format!("{:?}", again[0].report().unwrap()),
        format!("{plain_report:?}")
    );
}
