//! `dschaos` — deterministic fault injection for the memory system.
//!
//! Sweeps message-loss rates over a NoC (or DRAM stall rates over the
//! banks) per benchmark and reports how the direct-store protocol
//! held up: pushes attempted, retried, degraded to the demand path,
//! and total faults injected. Runs ride the hardened [`Runner`]
//! executor, so a panicking or watchdog-aborted simulation is a row
//! in the table, not a dead harness.
//!
//! ```text
//! dschaos [--bench VA,MM,...] [--input small|big] [--mode ds|ds-only]
//!         [--net direct|coh|gpu|dram] [--kind drop|dup|delay]
//!         [--rates N,N,...] [--seed S] [--jobs N] [--timeout SECS]
//!         [--format text|csv] [--quiet] [--check]
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
use ds_core::{FaultPlan, InputSize, Mode, Pipeline, SystemConfig};
use ds_probe::NullTracer;
use ds_runner::{postmortem_path, Runner, Task, TaskOutcome};
use ds_workloads::catalog;
use std::path::Path;

/// Where sweep postmortems land, mirroring `dsrun --keep-going`.
const POSTMORTEM_DIR: &str = "results/postmortem";

const USAGE: &str = "usage: dschaos [options]

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
enum FaultNet {
    Direct,
    Coh,
    Gpu,
    Dram,
}

impl FaultNet {
    fn name(self) -> &'static str {
        match self {
            FaultNet::Direct => "direct",
            FaultNet::Coh => "coh",
            FaultNet::Gpu => "gpu",
            FaultNet::Dram => "dram",
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum FaultKind {
    Drop,
    Dup,
    Delay,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Dup => "dup",
            FaultKind::Delay => "delay",
        }
    }
}

#[derive(PartialEq)]
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

fn usage_error(message: &str) -> ! {
    eprintln!("dschaos: {message}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_options(args: &[String]) -> Options {
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
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--bench needs a value"));
                opts.codes = Some(v.split(',').map(str::to_string).collect());
            }
            "--input" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--input needs a value"));
                opts.input = match v.as_str() {
                    "small" => InputSize::Small,
                    "big" => InputSize::Big,
                    other => usage_error(&format!("unknown input size {other:?}")),
                };
            }
            "--mode" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--mode needs a value"));
                opts.ds_mode = match v.as_str() {
                    "ds" => Mode::DirectStore,
                    "ds-only" => Mode::DirectStoreOnly,
                    other => usage_error(&format!("unknown mode {other:?}")),
                };
            }
            "--net" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--net needs a value"));
                opts.net = match v.as_str() {
                    "direct" => FaultNet::Direct,
                    "coh" => FaultNet::Coh,
                    "gpu" => FaultNet::Gpu,
                    "dram" => FaultNet::Dram,
                    other => usage_error(&format!("unknown net {other:?}")),
                };
            }
            "--kind" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--kind needs a value"));
                opts.kind = match v.as_str() {
                    "drop" => FaultKind::Drop,
                    "dup" => FaultKind::Dup,
                    "delay" => FaultKind::Delay,
                    other => usage_error(&format!("unknown fault kind {other:?}")),
                };
            }
            "--rates" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--rates needs a value"));
                opts.rates = v
                    .split(',')
                    .map(|r| {
                        r.parse::<u16>().unwrap_or_else(|_| {
                            usage_error(&format!("--rates needs integers in 0..=65535, got {r:?}"))
                        })
                    })
                    .collect();
            }
            "--seed" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--seed needs a value"));
                opts.seed = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--seed needs an integer, got {v:?}"))
                });
            }
            "--jobs" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--jobs needs a value"));
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => opts.jobs = Some(n),
                    _ => usage_error(&format!("--jobs needs a positive integer, got {v:?}")),
                }
            }
            "--timeout" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--timeout needs a value"));
                match v.parse::<u64>() {
                    Ok(n) if n > 0 => opts.timeout = Some(n),
                    _ => usage_error(&format!("--timeout needs positive seconds, got {v:?}")),
                }
            }
            "--format" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--format needs a value"));
                opts.format = match v.as_str() {
                    "text" => Format::Text,
                    "csv" => Format::Csv,
                    other => usage_error(&format!("unknown format {other:?}")),
                };
            }
            "--quiet" => opts.quiet = true,
            "--check" => opts.check = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    opts
}

/// Builds the fault plan for one sweep point.
fn plan_for(opts: &Options, rate: u16) -> FaultPlan {
    let mut plan = FaultPlan {
        seed: opts.seed,
        ..FaultPlan::default()
    };
    match opts.net {
        FaultNet::Dram => {
            plan.dram_stall_rate = rate;
            plan.dram_stall_cycles = 500;
        }
        net => {
            let rates = match net {
                FaultNet::Direct => &mut plan.direct_net,
                FaultNet::Coh => &mut plan.coh_net,
                FaultNet::Gpu => &mut plan.gpu_net,
                FaultNet::Dram => unreachable!(),
            };
            match opts.kind {
                FaultKind::Drop => rates.drop = rate,
                FaultKind::Dup => rates.dup = rate,
                FaultKind::Delay => {
                    rates.delay = rate;
                    rates.delay_cycles = 400;
                }
            }
        }
    }
    plan
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
                    eprintln!("dschaos: unknown benchmark code {c:?} (see Table II)");
                    std::process::exit(1);
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
            tasks.push(
                Task::new(cfg, code, opts.input, opts.ds_mode).with_faults(plan_for(opts, rate)),
            );
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
    for (task, outcome) in tasks.iter().zip(&outcomes) {
        let rate = match opts.net {
            FaultNet::Dram => task.faults.dram_stall_rate,
            FaultNet::Direct => rate_of(&task.faults.direct_net, opts.kind),
            FaultNet::Coh => rate_of(&task.faults.coh_net, opts.kind),
            FaultNet::Gpu => rate_of(&task.faults.gpu_net, opts.kind),
        };
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
                            "dschaos: {} rate {}: degraded (postmortem: {})",
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
                        "dschaos: {} rate {}: {} (postmortem: {})",
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
        eprintln!("dschaos: {broken} run(s) produced no report");
        1
    } else {
        0
    }
}

fn rate_of(rates: &ds_core::NetFaultRates, kind: FaultKind) -> u16 {
    match kind {
        FaultKind::Drop => rates.drop,
        FaultKind::Dup => rates.dup,
        FaultKind::Delay => rates.delay,
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
                    eprintln!("dschaos: FAIL {code} {mode}: inactive plan changed the report");
                    failures += 1;
                }
                (a, b) => {
                    eprintln!(
                        "dschaos: FAIL {code} {mode}: run errored (plain ok={}, faulted ok={})",
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
        let mut plan = FaultPlan {
            seed: opts.seed,
            ..FaultPlan::default()
        };
        plan.direct_net.delay = 8192;
        plan.direct_net.delay_cycles = 400;
        plan.direct_net.dup = 1024;
        match pipeline
            .run(&bench, opts.input, opts.ds_mode, NullTracer, &plan, None)
            .0
        {
            Ok(r) => {
                if r.pushes_attempted != r.direct_pushes + r.pushes_degraded {
                    eprintln!(
                        "dschaos: FAIL {code}: silent push loss \
                         (attempted {} != acked {} + degraded {})",
                        r.pushes_attempted, r.direct_pushes, r.pushes_degraded
                    );
                    failures += 1;
                } else if !opts.quiet {
                    eprintln!(
                        "dschaos: ok {code}: attempted {} = acked {} + degraded {} \
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
                eprintln!("dschaos: FAIL {code}: faulted run errored: {e}");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("dschaos: check FAILED ({failures} violation(s))");
        1
    } else {
        println!(
            "dschaos: check passed for {} benchmark(s): zero-fault identity + no silent loss",
            codes.len()
        );
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_options(&args);
    let cfg = SystemConfig::paper_default();
    let code = if opts.check {
        run_check(&opts, &cfg)
    } else {
        run_sweep(&opts, &cfg)
    };
    std::process::exit(code);
}
