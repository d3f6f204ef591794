//! `ds chaos` — deterministic fault injection for the memory system.
//!
//! Sweeps message-loss rates over a NoC (or DRAM stall rates over the
//! banks) per benchmark and reports how the direct-store protocol
//! held up: pushes attempted, retried, degraded to the demand path,
//! and total faults injected. Runs ride the hardened [`Runner`]
//! executor, so a panicking or watchdog-aborted simulation is a row
//! in the table, not a dead harness.
//!
//! ```text
//! ds chaos [--bench VA,MM,...] [--input small|big] [--mode ds|ds-only]
//!          [--net direct|coh|gpu|dram] [--kind drop|dup|delay]
//!          [--rates N,N,...] [--seed S] [--jobs N] [--timeout SECS]
//!          [--format text|csv] [--quiet] [--check]
//! ```
//!
//! `--check` runs the invariant audit instead of a sweep:
//!
//! 1. **Zero-fault identity** — with an inactive [`FaultPlan`] the
//!    simulator must produce a bit-identical report to a plain run
//!    (the fault layer adds no events and consumes no randomness).
//! 2. **No silent loss** — under direct-network faults, every drained
//!    push is either acknowledged or degraded:
//!    `pushes_attempted == direct_pushes + pushes_degraded`.

use ds_core::Scenario as _;
use ds_core::{FaultKind, FaultNet, FaultPlan, InputSize, Mode, Pipeline, SystemConfig};
use ds_probe::NullTracer;
use ds_runner::{postmortem_path, Runner, Task, TaskOutcome};
use ds_workloads::catalog;
use std::path::Path;

use crate::cli::{fail, unknown, Args, Cli, Parsed};

/// Where sweep postmortems land, mirroring `ds run --keep-going`.
const POSTMORTEM_DIR: &str = "results/postmortem";

pub const USAGE: &str = "usage: ds chaos [options]

Sweeps deterministic fault injection over the memory system and
reports direct-store retry/degradation behavior per benchmark.

options:
  --bench A,B,...          only these Table II codes (default: all 22)
  --input small|big        input size (default: small)
  --mode ds|ds-only        direct-store variant under test (default: ds)
  --net direct|coh|gpu|dram  where to inject (default: direct)
  --kind drop|dup|delay    fault kind for NoC nets (default: drop)
  --rates N,N,...          per-65536 fault rates to sweep
                           (default: 0,64,256,1024,4096)
  --seed S                 fault-plan seed (default: 1)
  --jobs N                 worker threads (default: DS_RUNNER_JOBS or
                           the machine's available parallelism)
  --timeout SECS           per-run wall-clock budget (default: none)
  --format text|csv        output format on stdout (default: text)
  --quiet                  suppress per-job progress lines on stderr
  --check                  run the invariant audit instead of a sweep:
                           zero-fault bit-identity + no-silent-loss
  --help                   show this help";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Csv,
}

struct Options {
    codes: Option<Vec<String>>,
    input: InputSize,
    ds_mode: Mode,
    net: FaultNet,
    kind: FaultKind,
    rates: Vec<u16>,
    seed: u64,
    jobs: Option<usize>,
    timeout: Option<u64>,
    format: Format,
    quiet: bool,
    check: bool,
}

fn parse(mut args: Args) -> Parsed<Options> {
    let mut opts = Options {
        codes: None,
        input: InputSize::Small,
        ds_mode: Mode::DirectStore,
        net: FaultNet::Direct,
        kind: FaultKind::Drop,
        rates: vec![0, 64, 256, 1024, 4096],
        seed: 1,
        jobs: None,
        timeout: None,
        format: Format::Text,
        quiet: false,
        check: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => opts.codes = Some(args.codes()?),
            "--input" => opts.input = args.input()?,
            "--mode" => opts.ds_mode = args.sweep_mode()?,
            "--net" => opts.net = args.fault_net()?,
            "--kind" => opts.kind = args.fault_kind()?,
            "--rates" => {
                let v = args.value("--rates")?;
                opts.rates = v
                    .split(',')
                    .map(|r| {
                        r.parse::<u16>().map_err(|_| {
                            Cli::Usage(format!("--rates needs integers in 0..=65535, got {r:?}"))
                        })
                    })
                    .collect::<Parsed<_>>()?;
            }
            "--seed" => opts.seed = args.parsed("--seed", "an integer")?,
            "--jobs" => opts.jobs = Some(args.positive("--jobs")?),
            "--timeout" => opts.timeout = Some(args.positive("--timeout")?),
            "--format" => {
                opts.format = args.choice(
                    "--format",
                    "format",
                    &[("text", Format::Text), ("csv", Format::Csv)],
                )?;
            }
            "--quiet" => opts.quiet = true,
            "--check" => opts.check = true,
            "--help" | "-h" => return Err(Cli::Help),
            other => return unknown(other),
        }
    }
    Ok(opts)
}

fn selected_codes(opts: &Options) -> Vec<String> {
    let all: Vec<String> = catalog::all()
        .iter()
        .map(|b| b.code().to_string())
        .collect();
    match &opts.codes {
        None => all,
        Some(codes) => {
            for c in codes {
                if !all.iter().any(|a| a == c) {
                    fail(&format!("unknown benchmark code {c:?} (see Table II)"));
                }
            }
            codes.clone()
        }
    }
}

fn outcome_cells(outcome: &TaskOutcome) -> (String, String) {
    match outcome.report() {
        Some(r) => (
            r.total_cycles.as_u64().to_string(),
            format!(
                "{},{},{},{},{}",
                r.pushes_attempted,
                r.direct_pushes,
                r.pushes_retried,
                r.pushes_degraded,
                r.faults_injected
            ),
        ),
        None => ("-".into(), "-,-,-,-,-".into()),
    }
}

fn run_sweep(opts: &Options, cfg: &SystemConfig) -> i32 {
    let codes = selected_codes(opts);
    let mut tasks = Vec::new();
    for code in &codes {
        for &rate in &opts.rates {
            let plan = FaultPlan::single(opts.seed, opts.net, opts.kind, rate);
            tasks.push(Task::new(cfg, code, opts.input, opts.ds_mode).with_faults(plan));
        }
    }

    let mut runner = Runner::new()
        .progress(!opts.quiet)
        .with_postmortems(POSTMORTEM_DIR);
    if let Some(n) = opts.jobs {
        runner = runner.jobs(n);
    }
    if let Some(secs) = opts.timeout {
        runner = runner.task_timeout(std::time::Duration::from_secs(secs));
    }
    let outcomes = runner.run_tasks_outcomes(&tasks);

    if opts.format == Format::Csv {
        println!(
            "benchmark,input,mode,net,kind,rate,outcome,total_cycles,\
             pushes_attempted,direct_pushes,pushes_retried,pushes_degraded,faults_injected"
        );
    } else {
        println!(
            "{:<5} {:>6} {:<9} {:>12} {:>9} {:>8} {:>8} {:>9} {:>7}",
            "bench",
            "rate",
            "outcome",
            "cycles",
            "attempted",
            "acked",
            "retried",
            "degraded",
            "faults"
        );
    }
    let mut broken = 0usize;
    // Tasks are planned code-major, rate-minor.
    let rates = opts.rates.iter().cycle();
    for ((task, outcome), rate) in tasks.iter().zip(&outcomes).zip(rates) {
        match opts.format {
            Format::Csv => {
                let (cycles, counters) = outcome_cells(outcome);
                println!(
                    "{},{},{},{},{},{},{},{},{}",
                    task.code,
                    task.input,
                    task.mode,
                    opts.net.name(),
                    if opts.net == FaultNet::Dram {
                        "stall"
                    } else {
                        opts.kind.name()
                    },
                    rate,
                    outcome.tag(),
                    cycles,
                    counters
                );
            }
            Format::Text => match outcome.report() {
                Some(r) => {
                    println!(
                        "{:<5} {:>6} {:<9} {:>12} {:>9} {:>8} {:>8} {:>9} {:>7}",
                        task.code,
                        rate,
                        outcome.tag(),
                        r.total_cycles.as_u64(),
                        r.pushes_attempted,
                        r.direct_pushes,
                        r.pushes_retried,
                        r.pushes_degraded,
                        r.faults_injected
                    );
                    if matches!(outcome, TaskOutcome::Degraded(_)) {
                        eprintln!(
                            "ds chaos: {} rate {}: degraded (postmortem: {})",
                            task.code,
                            rate,
                            postmortem_path(Path::new(POSTMORTEM_DIR), task).display()
                        );
                    }
                }
                None => {
                    let detail = match outcome {
                        TaskOutcome::Panicked(msg) => format!("panicked: {msg}"),
                        TaskOutcome::TimedOut => "timed out".into(),
                        TaskOutcome::Failed(msg) => msg.clone(),
                        _ => unreachable!("report-less outcomes only"),
                    };
                    // Diagnostics are multi-line; keep the table row
                    // short and put the detail on stderr.
                    println!(
                        "{:<5} {:>6} {:<9} (no report)",
                        task.code,
                        rate,
                        outcome.tag()
                    );
                    eprintln!(
                        "ds chaos: {} rate {}: {} (postmortem: {})",
                        task.code,
                        rate,
                        detail,
                        postmortem_path(Path::new(POSTMORTEM_DIR), task).display()
                    );
                }
            },
        }
        if outcome.report().is_none() {
            broken += 1;
        }
    }
    if broken > 0 {
        eprintln!("ds chaos: {broken} run(s) produced no report");
        1
    } else {
        0
    }
}

/// The `--check` audit. Returns the process exit code.
fn run_check(opts: &Options, cfg: &SystemConfig) -> i32 {
    let codes = selected_codes(opts);
    let pipeline = Pipeline::with_config(cfg.clone());
    let mut failures = 0usize;

    for code in &codes {
        let bench = catalog::by_code(code).expect("codes come from the catalog");

        // 1. Zero-fault identity: an inactive plan must not perturb
        // the simulation in any observable way, whatever its seed.
        let inactive = FaultPlan {
            seed: opts.seed,
            ..FaultPlan::default()
        };
        for mode in [Mode::Ccsm, opts.ds_mode] {
            let run = |plan: &FaultPlan| {
                pipeline
                    .run(&bench, opts.input, mode, NullTracer, plan, None)
                    .0
            };
            let plain = run(&FaultPlan::default());
            let faulted = run(&inactive);
            match (&plain, &faulted) {
                (Ok(a), Ok(b)) if format!("{a:?}") == format!("{b:?}") => {}
                (Ok(_), Ok(_)) => {
                    eprintln!("ds chaos: FAIL {code} {mode}: inactive plan changed the report");
                    failures += 1;
                }
                (a, b) => {
                    eprintln!(
                        "ds chaos: FAIL {code} {mode}: run errored (plain ok={}, faulted ok={})",
                        a.is_ok(),
                        b.is_ok()
                    );
                    failures += 1;
                }
            }
        }

        // 2. No silent loss under direct-network faults: every drained
        // push must be acknowledged or degraded, never vanish. Delay
        // beyond the ack timeout forces retries (and the duplicates
        // they imply) on every benchmark while keeping the run
        // completable — drops can also sever CPU demand-load replies,
        // which only the watchdog can resolve (see the sweep mode).
        let mut plan = FaultPlan::single(opts.seed, FaultNet::Direct, FaultKind::Delay, 8192);
        plan.direct_net.dup = 1024;
        match pipeline
            .run(&bench, opts.input, opts.ds_mode, NullTracer, &plan, None)
            .0
        {
            Ok(r) => {
                if r.pushes_attempted != r.direct_pushes + r.pushes_degraded {
                    eprintln!(
                        "ds chaos: FAIL {code}: silent push loss \
                         (attempted {} != acked {} + degraded {})",
                        r.pushes_attempted, r.direct_pushes, r.pushes_degraded
                    );
                    failures += 1;
                } else if !opts.quiet {
                    eprintln!(
                        "ds chaos: ok {code}: attempted {} = acked {} + degraded {} \
                         ({} retries, {} faults)",
                        r.pushes_attempted,
                        r.direct_pushes,
                        r.pushes_degraded,
                        r.pushes_retried,
                        r.faults_injected
                    );
                }
            }
            Err(e) => {
                eprintln!("ds chaos: FAIL {code}: faulted run errored: {e}");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("ds chaos: check FAILED ({failures} violation(s))");
        1
    } else {
        println!(
            "dschaos: check passed for {} benchmark(s): zero-fault identity + no silent loss",
            codes.len()
        );
        0
    }
}

pub fn main(args: Args) -> Parsed<()> {
    let opts = parse(args)?;
    let cfg = SystemConfig::paper_default();
    let code = if opts.check {
        run_check(&opts, &cfg)
    } else {
        run_sweep(&opts, &cfg)
    };
    std::process::exit(code);
}
