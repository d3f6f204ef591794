//! Crash postmortems are deterministic: the same faulted task dumps
//! byte-identical flight-recorder files regardless of worker count.

use std::path::PathBuf;

use ds_core::{FaultPlan, InputSize, Mode, SystemConfig};
use ds_runner::{postmortem_path, Runner, Task, TaskOutcome};

/// Delays hot enough to exhaust the retry budget: some pushes
/// degrade — so the runner reports `Degraded` and dumps a postmortem
/// — but no message is ever lost, so the run still completes (drops
/// at comparable rates sever CPU demand-load replies and abort).
fn degrading_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan {
        seed,
        ack_timeout: 50,
        max_retries: 1,
        ..FaultPlan::default()
    };
    plan.direct_net.delay = 20_000; // ~31% of messages
    plan.direct_net.delay_cycles = 400; // well past the ack timeout
    plan
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ds-scope-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn postmortems_are_byte_identical_across_worker_counts() {
    let cfg = SystemConfig::paper_default();
    let tasks: Vec<Task> = ["VA", "MM"]
        .iter()
        .map(|code| {
            Task::new(&cfg, code, InputSize::Small, Mode::DirectStore)
                .with_faults(degrading_plan(3))
        })
        .collect();

    let run = |jobs: usize, tag: &str| -> (PathBuf, Vec<TaskOutcome>) {
        let dir = temp_dir(tag);
        let mut runner = Runner::new()
            .jobs(jobs)
            .progress(false)
            .with_postmortems(&dir);
        let outcomes = runner.run_tasks_outcomes(&tasks);
        (dir, outcomes)
    };

    let (narrow_dir, narrow) = run(1, "narrow");
    let (wide_dir, wide) = run(4, "wide");

    for (task, outcome) in tasks.iter().zip(&narrow) {
        assert!(
            matches!(outcome, TaskOutcome::Degraded(_)),
            "{} at this loss rate must degrade, got {}",
            task.code,
            outcome.tag()
        );
        let a = std::fs::read(postmortem_path(&narrow_dir, task))
            .expect("degraded outcome dumps a postmortem");
        let b = std::fs::read(postmortem_path(&wide_dir, task))
            .expect("worker count must not decide whether a postmortem exists");
        assert_eq!(
            a, b,
            "{}: postmortem bytes differ across worker counts",
            task.code
        );
        let text = String::from_utf8(a).expect("postmortems are UTF-8 JSON");
        assert!(text.contains("\"outcome\": \"degraded\""), "{text}");
        assert!(
            text.contains("\"entries\""),
            "faulted tasks arm the flight recorder: {text}"
        );
    }
    assert_eq!(narrow.len(), wide.len());

    let _ = std::fs::remove_dir_all(narrow_dir);
    let _ = std::fs::remove_dir_all(wide_dir);
}
