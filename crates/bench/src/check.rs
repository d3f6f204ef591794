//! `ds check` — every audit of [`ds_bench::audit`] in one pass over
//! the selected tasks (see `USAGE`).
//!
//! The profiler and the probe level are process-wide switches, so each
//! observed pass runs alone, after the plain pass. Every pass runs on
//! the runner's pool with a tracer per task and no memo
//! ([`Runner::run_traced`]): the plain, full and fault passes with the
//! compiled-out [`NullTracer`], the stages and minimal passes with a
//! live [`Stitch`], so the identity audits also compare traced runs
//! with untraced ones.

use ds_bench::audit::{self, Stitched};
use ds_core::Scenario as _;
use ds_core::{
    Comparison, FaultKind, FaultNet, FaultPlan, InputSize, Mode, RunReport, SystemConfig,
};
use ds_probe::prof::{self, ProbeLevel};
use ds_probe::xray::Stitch;
use ds_probe::{NullTracer, Tracer, DEFAULT_PULSE_WINDOW};
use ds_runner::{sweep_tasks, Runner, Task, TaskOutcome};

use crate::cli::{benchmark, fail, unknown, Args, Cli, Parsed};

pub const USAGE: &str = "usage: ds check [--bench A,B,...] [--input small|big|both]

Runs every audit over the selected tasks, each benchmark under CCSM
and direct store: once plain, once per probe level with the profiler
on (pulse and an inactive fault plan at full; the transaction
stitcher at stages and minimal), and under faults. Exits 1 naming the
audit and the task of any violation.

options:
  --bench A,B,...         only these Table II codes (default: all 22)
  --input small|big|both  input sizes (default: small)
  --help                  show this help";

/// The seed of the inactive plan and of the push-ledger plan.
const SEED: u64 = 1;

/// Direct-network delays past the ack timeout plus duplicates: every
/// benchmark retries pushes and absorbs duplicate deliveries, and no
/// message is lost, so the run completes (drops can also sever CPU
/// demand-load replies, which only the watchdog resolves).
fn ledger_plan() -> FaultPlan {
    let mut plan = FaultPlan::single(SEED, FaultNet::Direct, FaultKind::Delay, 8192);
    plan.direct_net.dup = 1024;
    plan
}

/// The seeded fault run whose retry storm the pulse detectors must
/// flag.
fn anomaly_task(cfg: &SystemConfig) -> Task {
    let plan = FaultPlan::single(7, FaultNet::Direct, FaultKind::Delay, 32_000);
    Task::new(cfg, "VA", InputSize::Small, Mode::DirectStore)
        .with_faults(plan)
        .with_pulse(DEFAULT_PULSE_WINDOW)
}

/// One pass's runs on the runner's pool, each fed to its own tracer
/// from `tracer`, which comes back with the run's report. A run that
/// ends without a report, or panics, fails the check naming its task.
fn run_pool<T: Tracer + Send + 'static>(
    tasks: &[Task],
    tracer: impl Fn() -> T,
) -> Vec<(RunReport, T)> {
    let tracers = tasks.iter().map(|_| tracer()).collect();
    let runs = Runner::new().progress(false).run_traced(tasks, tracers);
    let report = |(task, run): (&Task, (TaskOutcome, Option<T>))| match run {
        (TaskOutcome::Ok(r) | TaskOutcome::Degraded(r), Some(t)) => (*r, t),
        (o, _) => fail(&format!("run {} ended {o:?}", label(task))),
    };
    tasks.iter().zip(runs).map(report).collect()
}

/// [`run_pool`] with every run untraced.
fn run_plain(tasks: &[Task]) -> Vec<RunReport> {
    let runs = run_pool(tasks, || NullTracer);
    runs.into_iter().map(|(r, _)| r).collect()
}

/// The violations found so far, printed as they are found.
#[derive(Default)]
struct Log {
    failures: usize,
}

impl Log {
    fn record(&mut self, audit: &str, task: &Task, errs: Vec<String>) {
        for e in &errs {
            eprintln!("ds check: FAIL {audit} {}: {e}", label(task));
        }
        self.failures += errs.len();
    }

    /// Audits a run observed at `level` against the task's plain run:
    /// equal field for field once stripped, with a sound host profile.
    fn observed(&mut self, task: &Task, r: &RunReport, plain: &RunReport, level: ProbeLevel) {
        let identity = audit::identity(plain, r, level);
        self.record(&format!("identity@{level}"), task, identity);
        self.record(&format!("host@{level}"), task, audit::host(r, level));
    }
}

fn label(task: &Task) -> String {
    let faulted = if task.faults.is_active() {
        " (faulted)"
    } else {
        ""
    };
    format!("{} {} {}{faulted}", task.code, task.input, task.mode)
}

pub fn main(mut args: Args) -> Parsed<()> {
    let mut codes: Option<Vec<String>> = None;
    let mut inputs = vec![InputSize::Small];
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => codes = Some(args.codes()?),
            "--input" => inputs = args.inputs()?,
            "--help" | "-h" => return Err(Cli::Help),
            other => return unknown(other),
        }
    }
    for code in codes.iter().flatten() {
        benchmark(code);
    }
    let cfg = SystemConfig::paper_default();
    let tasks: Vec<Task> = inputs
        .iter()
        .flat_map(|&input| {
            sweep_tasks(&cfg, input, Mode::DirectStore, |b| {
                codes
                    .as_ref()
                    .is_none_or(|codes| codes.iter().any(|c| c == b.code()))
            })
        })
        .collect();
    let mut log = Log::default();

    // The plain runs, audited on their own and in CCSM-vs-DS pairs.
    eprintln!("ds check: plain pass, {} run(s)", tasks.len());
    let plain = run_plain(&tasks);
    for (task, r) in tasks.iter().zip(&plain) {
        log.record("unobserved", task, audit::unobserved(r));
        log.record("lens", task, audit::lens(r));
        log.record("stages", task, audit::stages(r));
        if task.mode == Mode::Ccsm {
            log.record("ccsm_quiescence", task, audit::ccsm_quiescence(r));
        }
    }
    for (pair, reports) in tasks.chunks(2).zip(plain.chunks(2)) {
        let c = Comparison {
            code: pair[0].code.clone(),
            input: pair[0].input,
            ccsm: reports[0].clone(),
            direct_store: reports[1].clone(),
        };
        log.record("never_hurts", &pair[1], audit::never_hurts(&c));
        log.record("miss_rate", &pair[1], audit::miss_rate(&c));
        log.record("compulsory", &pair[1], audit::compulsory(&c));
        log.record("headline", &pair[1], audit::headline(&c));
        log.record("pt_flat", &pair[1], audit::pt_flat(&c));
    }

    // Observed at full: pulse and an inactive seeded fault plan.
    eprintln!("ds check: full pass, {} run(s)", tasks.len());
    prof::set_enabled(true);
    let inactive = FaultPlan {
        seed: SEED,
        ..FaultPlan::default()
    };
    let observed: Vec<Task> = tasks
        .iter()
        .map(|t| {
            t.clone()
                .with_faults(inactive.clone())
                .with_pulse(DEFAULT_PULSE_WINDOW)
        })
        .collect();
    let full = run_plain(&observed);
    for ((task, r), base) in tasks.iter().zip(&full).zip(&plain) {
        log.observed(task, r, base, ProbeLevel::Full);
        log.record("pulse", task, audit::pulse(r));
    }

    // Observed at stages and at minimal, each stream stitched live. The
    // stream is the same at every level (a level sheds folds, not
    // events), so the stitched breakdown must equal the plain run's.
    for level in [ProbeLevel::Stages, ProbeLevel::Minimal] {
        eprintln!("ds check: {level} pass, {} run(s)", tasks.len());
        prof::set_level(level);
        let stitched = run_pool(&tasks, || Stitch::new(Stitched::default()));
        for ((task, (r, stitch)), base) in tasks.iter().zip(stitched).zip(&plain) {
            log.observed(task, &r, base, level);
            log.record("stitch", task, audit::stitched(&stitch.into_sink(), base));
        }
    }
    prof::set_enabled(false);
    prof::set_level(ProbeLevel::Full);

    // The fault runs: the push ledger of every direct-store task, and
    // the seeded anomaly run.
    let mut faulted: Vec<Task> = tasks
        .iter()
        .filter(|t| t.mode != Mode::Ccsm)
        .map(|t| t.clone().with_faults(ledger_plan()))
        .collect();
    faulted.push(anomaly_task(&cfg));
    eprintln!("ds check: fault pass, {} run(s)", faulted.len());
    for (task, r) in faulted.iter().zip(run_plain(&faulted)) {
        log.record("push_ledger", task, audit::push_ledger(&r));
        if task.pulse > 0 {
            log.record("pulse", task, audit::pulse(&r));
            log.record("anomalies", task, audit::anomalies(&r));
        }
    }

    if log.failures > 0 {
        fail(&format!("{} violation(s)", log.failures));
    }
    let simulations = 4 * tasks.len() + faulted.len();
    println!(
        "ds check: {} task(s), {simulations} simulation(s): every audit holds",
        tasks.len()
    );
    Ok(())
}
