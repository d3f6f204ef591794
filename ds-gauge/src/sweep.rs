//! The two sweep workloads: a fixed task set simulated in-process on
//! one thread, straight through `Translator::translate`,
//! `Scenario::build` and `System::run`.

use std::time::Instant;

use ds_core::{Mode, RunReport, Scenario, ScenarioBuild, System, SystemConfig};
use ds_probe::prof::{self, HostProfile};
use ds_xlat::Translator;

use crate::gate::{Pinned, Task};
use crate::layers;
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::{peak_rss_mb, Outcome};

/// Set-ups per run; the median is `setup_s`.
const SETUPS: usize = 21;

/// Passes of the traced run: its counts are exact and its phase times
/// are per pass, so one pass is enough, and with the profiler on a pass
/// takes about twice as long.
const TRACED_PASSES: usize = 1;

/// Translates (direct-store modes) and builds one task's programs.
///
/// # Errors
///
/// When the translator rejects the benchmark's source.
pub fn build(task: &Task) -> Result<ScenarioBuild, String> {
    build_traced(task, &mut Recorder::new(false, Instant::now(), 0), 0, 0)
}

fn build_traced(
    task: &Task,
    rec: &mut Recorder,
    parent: u64,
    item: u64,
) -> Result<ScenarioBuild, String> {
    let plan = if task.mode.pushes() {
        let source = rec.time("workloads.source", parent, item, || {
            task.bench.source(task.input)
        });
        let translation = rec
            .time("xlat.translate", parent, item, || {
                Translator::new().translate(&source)
            })
            .map_err(|e| format!("{}: {e}", task.label()))?;
        Some(translation.plan)
    } else {
        None
    };
    Ok(rec.time("workloads.build", parent, item, || {
        task.bench.build(plan.as_ref(), task.input)
    }))
}

/// Builds every task; returns the builds and the set-up's wall time.
fn set_up(tasks: &[Task], rec: &mut Recorder) -> Result<(Vec<ScenarioBuild>, f64), String> {
    let id = rec.reserve();
    let start = Instant::now();
    let builds = tasks
        .iter()
        .enumerate()
        .map(|(i, task)| build_traced(task, rec, id, i as u64))
        .collect::<Result<Vec<_>, _>>()?;
    let end = Instant::now();
    rec.record(id, "gauge.setup", 0, 0, start, end);
    Ok((builds, (end - start).as_secs_f64()))
}

/// What the measured passes produced.
struct Passes {
    /// Host seconds per task, one sample per pass.
    seconds: Vec<Vec<f64>>,
    /// The first pass's reports, in task order.
    reports: Vec<RunReport>,
    /// Host profiles merged over every pass (traced passes only).
    profile: HostProfile,
    attempted: u64,
    failed: u64,
}

impl Passes {
    /// One pass's wall time: the sum of per-task medians.
    fn wall_s(&self) -> f64 {
        self.seconds.iter().map(|s| median(s)).sum()
    }
}

fn run_passes(
    tasks: &[Task],
    builds: &[ScenarioBuild],
    passes: usize,
    pinned: &Pinned,
    rec: &mut Recorder,
) -> Passes {
    let cfg = SystemConfig::paper_default();
    let mut out = Passes {
        seconds: (0..tasks.len())
            .map(|_| Vec::with_capacity(passes))
            .collect(),
        reports: Vec::with_capacity(tasks.len()),
        profile: HostProfile::default(),
        attempted: 0,
        failed: 0,
    };
    for _ in 0..passes {
        let pass = rec.reserve();
        let pass_start = Instant::now();
        for (i, (task, build)) in tasks.iter().zip(builds).enumerate() {
            let (program, kernels) = (build.program.clone(), build.kernels.clone());
            let id = rec.reserve();
            let start = Instant::now();
            let report = System::new(cfg.clone(), task.mode).run(program, kernels);
            let end = Instant::now();
            rec.record(id, "core.run", pass, i as u64, start, end);
            out.seconds[i].push((end - start).as_secs_f64());
            out.attempted += 1;
            if let Err(e) = rec.time("gauge.check", pass, i as u64, || {
                pinned.check(task, &report)
            }) {
                eprintln!("ds-gauge: {e}");
                out.failed += 1;
            }
            if let Some(host) = &report.host {
                out.profile.merge(host);
            }
            if out.reports.len() < tasks.len() {
                out.reports.push(report);
            }
        }
        rec.record(pass, "gauge.pass", 0, 0, pass_start, Instant::now());
    }
    out
}

/// Runs a sweep workload: `SETUPS` set-ups, then `passes` measured
/// passes over `tasks`; with `trace`, the set-ups and `TRACED_PASSES`
/// passes again with spans and the host profiler on.
pub fn run(
    tasks: &[Task],
    passes: usize,
    trace: bool,
    pinned: &Pinned,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    let mut off = Recorder::new(false, Instant::now(), 0);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut builds = Vec::new();
    for _ in 0..SETUPS {
        let (b, secs) = set_up(tasks, &mut off)?;
        setups.push(secs);
        builds = b;
    }
    let measured = run_passes(tasks, &builds, passes, pinned, &mut off);

    let mut out = Outcome {
        attempted: measured.attempted,
        failed: measured.failed,
        ..Outcome::default()
    };
    let wall_s = measured.wall_s();
    let cycles: u64 = measured
        .reports
        .iter()
        .map(|r| r.total_cycles.as_u64())
        .sum();
    let task_ms: Vec<f64> = measured.seconds.iter().flatten().map(|s| s * 1e3).collect();
    out.e2e("setup_s", median(&setups));
    out.e2e("wall_s", wall_s);
    out.e2e("sim_mcyc_per_s", cycles as f64 / wall_s / 1e6);
    out.e2e("jobs_per_s", tasks.len() as f64 / wall_s);
    out.e2e_pct("job_p50_ms", percentile(&task_ms, 50.0));
    out.e2e_pct("job_p90_ms", percentile(&task_ms, 90.0));
    out.e2e("peak_rss_mb", peak_rss_mb());
    if !trace {
        return Ok(out);
    }

    let cost = layers::span_cost();
    prof::set_enabled(true);
    let traced = (|| {
        let mut builds = Vec::new();
        for _ in 0..SETUPS {
            builds = set_up(tasks, rec)?.0;
        }
        Ok::<_, String>(run_passes(tasks, &builds, TRACED_PASSES, pinned, rec))
    })();
    prof::set_enabled(false);
    let traced = traced?;
    out.attempted += traced.attempted;
    out.failed += traced.failed;

    let names = rec.by_name();
    let per_setup =
        |name: &str| names.get(name).map_or(0.0, |t| t.self_ns as f64) / SETUPS as f64 / 1e6;
    out.layer("xlat.translate_ms", per_setup("xlat.translate"));
    out.layer(
        "workloads.build_ms",
        per_setup("workloads.source") + per_setup("workloads.build"),
    );
    let mode_s = |mode: Mode| -> f64 {
        tasks
            .iter()
            .zip(&measured.seconds)
            .filter(|(t, _)| t.mode == mode)
            .map(|(_, s)| median(s))
            .sum()
    };
    out.layer("core.run_s.ccsm", mode_s(Mode::Ccsm));
    out.layer("core.run_s.ds", mode_s(Mode::DirectStore));
    layers::report_layers(&mut out, &measured.reports, wall_s);
    layers::profile_layers(&mut out, &traced.profile, TRACED_PASSES as f64, cost);
    out.layer("probe.trace_overhead_s", traced.wall_s() - wall_s);
    Ok(out)
}
