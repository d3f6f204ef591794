//! `ds run` — the experiment-orchestration subcommand.
//!
//! Runs the CCSM-vs-direct-store comparison sweep through the parallel
//! [`Runner`], with optional benchmark selection, worker-count control,
//! an on-disk result cache, and text/JSON/CSV output.
//!
//! ```text
//! ds run [--input small|big|both] [--bench VA,MM,...] [--mode ds|ds-only]
//!        [--jobs N] [--cache [DIR]] [--format text|json|csv] [--quiet]
//! ```

use ds_core::Scenario as _;
use ds_core::{Comparison, InputSize, Mode, SystemConfig};
use ds_runner::{
    comparison_csv_row, comparison_to_json, json::Json, postmortem_path, sweep_tasks, Runner,
    TaskOutcome, COMPARISON_CSV_HEADER,
};
use std::path::Path;
use std::time::Duration;

use crate::cli::{fail, unknown, usage, Args, Cli, Parsed};

pub const USAGE: &str = "usage: ds run [options]

Runs the paper's CCSM-vs-direct-store comparison sweep in parallel.

options:
  --input small|big|both   input size(s) to sweep (default: both)
  --bench A,B,...          only these Table II codes (default: all 22)
  --mode ds|ds-only        direct-store variant: complement (default)
                           or the Sec. III.H coherence replacement
  --jobs N                 worker threads (default: DS_RUNNER_JOBS or
                           the machine's available parallelism)
  --cache [DIR]            reuse/populate the on-disk result cache
                           (default DIR: results)
  --format text|json|csv   output format on stdout (default: text)
  --probe-level LEVEL      observability probes kept live: full
                           (default), stages, or minimal; shed levels
                           skip StageTracker/LineLens bookkeeping
                           without touching simulated cycles
  --quiet                  suppress per-job progress lines on stderr
  --keep-going             do not stop at the first failed task: run
                           everything, report failures on stderr, and
                           exit nonzero at the end if any task failed;
                           every non-clean task dumps a postmortem
                           file under <cache-dir>/postmortem/
  --timeout SECS           wall-clock budget per simulation; tasks
                           over budget are abandoned and reported as
                           timed out (requires --keep-going)
  --help                   show this help";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Csv,
}

pub fn main(mut args: Args) -> Parsed<()> {
    let mut inputs = vec![InputSize::Small, InputSize::Big];
    let mut codes: Option<Vec<String>> = None;
    let mut ds_mode = Mode::DirectStore;
    let mut jobs: Option<usize> = None;
    let mut cache: Option<String> = None;
    let mut format = Format::Text;
    let mut probe_level = ds_probe::ProbeLevel::Full;
    let (mut quiet, mut keep_going) = (false, false);
    let mut timeout: Option<u64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--input" => inputs = args.inputs()?,
            "--bench" => codes = Some(args.codes()?),
            "--mode" => ds_mode = args.sweep_mode()?,
            "--jobs" => jobs = Some(args.positive("--jobs")?),
            // The directory operand is optional: `--cache` alone uses
            // the conventional results/ directory.
            "--cache" => cache = Some(args.operand().unwrap_or_else(|| "results".into())),
            "--format" => {
                format = args.choice(
                    "--format",
                    "format",
                    &[
                        ("text", Format::Text),
                        ("json", Format::Json),
                        ("csv", Format::Csv),
                    ],
                )?;
            }
            "--probe-level" => probe_level = args.probe_level()?,
            "--timeout" => timeout = Some(args.parsed("--timeout", "a number of seconds")?),
            "--quiet" => quiet = true,
            "--keep-going" => keep_going = true,
            "--help" | "-h" => return Err(Cli::Help),
            other => return unknown(other),
        }
    }
    if timeout.is_some() && !keep_going {
        // A timed-out task can only be reported, not retried, so a
        // budget without --keep-going would just abort the sweep.
        return usage("--timeout requires --keep-going");
    }
    // Probe shedding is process-global: set it once before any worker
    // thread simulates. The disk cache refuses to persist shed-level
    // reports, so `--cache` stays safe at every level.
    ds_probe::prof::set_level(probe_level);

    let cfg = SystemConfig::paper_default();
    let mut runner = Runner::new().progress(!quiet);
    if let Some(n) = jobs {
        runner = runner.jobs(n);
    }
    if let Some(dir) = &cache {
        runner = runner.with_disk_cache(dir);
    }
    if let Some(secs) = timeout {
        runner = runner.task_timeout(Duration::from_secs(secs));
    }
    // Under --keep-going every non-clean outcome ships a postmortem
    // file next to the result cache (results/postmortem by default).
    let pm_dir = format!("{}/postmortem", cache.as_deref().unwrap_or("results"));
    if keep_going {
        runner = runner.with_postmortems(&pm_dir);
    }

    let mut all: Vec<Comparison> = Vec::new();
    let mut failed_tasks = 0usize;
    if keep_going {
        // Unknown codes never make it into the sweep's task list, so
        // surface them here instead of silently dropping them.
        if let Some(codes) = &codes {
            for code in codes {
                if ds_workloads::catalog::by_code(code).is_none() {
                    eprintln!("ds run: unknown benchmark code {code:?} (see Table II)");
                    failed_tasks += 1;
                }
            }
        }
    }
    for &input in &inputs {
        let filter = |b: &ds_workloads::Benchmark| {
            codes
                .as_ref()
                .is_none_or(|codes| codes.iter().any(|c| c == b.code()))
        };
        if keep_going {
            // Run every task and fold only fully-successful pairs into
            // comparisons; failures are reported and counted.
            let tasks = sweep_tasks(&cfg, input, ds_mode, filter);
            let outcomes = runner.run_tasks_outcomes(&tasks);
            for (task, outcome) in tasks.iter().zip(&outcomes) {
                // Degraded runs still yield a comparison, but they also
                // shipped a postmortem — say where it went.
                if matches!(outcome, TaskOutcome::Degraded(_)) {
                    eprintln!(
                        "ds run: {} {} {}: degraded (postmortem: {})",
                        task.code,
                        task.input,
                        task.mode,
                        postmortem_path(Path::new(&pm_dir), task).display()
                    );
                }
            }
            for (pair, outs) in tasks.chunks(2).zip(outcomes.chunks(2)) {
                if let (Some(ccsm), Some(ds)) = (outs[0].report(), outs[1].report()) {
                    all.push(Comparison {
                        code: pair[0].code.clone(),
                        input,
                        ccsm: ccsm.clone(),
                        direct_store: ds.clone(),
                    });
                } else {
                    for (task, outcome) in pair.iter().zip(outs) {
                        let detail = match outcome {
                            TaskOutcome::Panicked(msg) => format!("panicked: {msg}"),
                            TaskOutcome::TimedOut => "timed out".to_string(),
                            TaskOutcome::Failed(e) => e.to_string(),
                            _ => continue, // this half of the pair was fine
                        };
                        failed_tasks += 1;
                        eprintln!(
                            "ds run: {} {} {}: {detail} (postmortem: {})",
                            task.code,
                            task.input,
                            task.mode,
                            postmortem_path(Path::new(&pm_dir), task).display()
                        );
                    }
                }
            }
        } else {
            let sweep = runner
                .sweep(&cfg, input, ds_mode, filter)
                .unwrap_or_else(|e| fail(&e.to_string()));
            all.extend(sweep);
        }
    }

    if let Some(codes) = &codes {
        let per_input = all.len() / inputs.len();
        if per_input != codes.len() {
            let known: Vec<&str> = all.iter().map(|c| c.code.as_str()).collect();
            let missing: Vec<&String> = codes
                .iter()
                .filter(|c| !known.contains(&c.as_str()))
                .collect();
            // Under --keep-going a known code can also be absent
            // because its task failed; that is already reported.
            if !missing.is_empty() && !keep_going {
                fail(&format!(
                    "unknown benchmark code(s): {missing:?} (see Table II)"
                ));
            }
        }
    }

    match format {
        Format::Text => {
            for c in &all {
                println!("{c}");
            }
        }
        Format::Json => {
            let doc = Json::Obj(vec![
                (
                    "fingerprint".into(),
                    Json::Str(format!("{:016x}", Runner::fingerprint(&cfg))),
                ),
                ("mode".into(), Json::Str(ds_mode.to_string())),
                (
                    "comparisons".into(),
                    Json::Arr(all.iter().map(comparison_to_json).collect()),
                ),
            ]);
            println!("{}", doc.pretty());
        }
        Format::Csv => {
            println!("{COMPARISON_CSV_HEADER}");
            for c in &all {
                println!("{}", comparison_csv_row(c));
            }
        }
    }

    if !quiet {
        eprintln!(
            "ds run: {} comparison(s), {} simulation(s) run{}",
            all.len(),
            runner.simulations_run(),
            if cache.is_some() {
                " (rest served from cache)"
            } else {
                ""
            }
        );
    }
    if failed_tasks > 0 {
        fail(&format!("{failed_tasks} task(s) failed"));
    }
    Ok(())
}
