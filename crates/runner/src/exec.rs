//! The parallel executor.
//!
//! [`run_task`] is the one way a simulation runs, batch or served: it
//! looks the task's benchmark up, simulates it with panics caught and
//! under an optional wall-clock budget, and classifies how it ended.
//! [`Runner`] drains a task list over `std::thread::scope` workers
//! pulling from a shared queue, each task with its own tracer. This
//! is sound because each `System::run` is a self-contained seeded
//! simulation — no shared mutable state — so a parallel sweep is
//! *bit-identical* to the serial one (asserted by the `determinism`
//! integration test). Results land in per-task slots, making output
//! order independent of scheduling.
//!
//! Worker count comes from, in priority order: an explicit
//! [`Runner::jobs`] call, the `DS_RUNNER_JOBS` environment variable,
//! and the machine's available parallelism.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ds_core::{Comparison, InputSize, Mode, Pipeline, PipelineError, RunReport, SystemConfig};
use ds_probe::scope::{self, FlightLog, FlightRecorder};
use ds_probe::{NullTracer, PulseConfig, Tracer};
use ds_workloads::{catalog, Benchmark};

use crate::fingerprint::config_fingerprint;
use crate::job::{sweep_tasks, Task, TaskKey};
use crate::json::Json;
use crate::store::{write_atomic, ResultStore};

/// How one task ended, for harnesses that must keep going when a run
/// fails (`Runner::run_tasks_outcomes`). The chaos CLI and the fault
/// sweeps are built on this: a panicking or deadlocked simulation is a
/// data point, not a reason to lose the rest of the sweep.
#[derive(Debug, Clone)]
pub enum TaskOutcome {
    /// The run completed with no degraded pushes.
    Ok(Box<RunReport>),
    /// The run completed, but at least one direct-store push exhausted
    /// its retries and degraded to the demand path.
    Degraded(Box<RunReport>),
    /// The simulation panicked; payload is the panic message.
    Panicked(String),
    /// The simulation exceeded the harness wall-clock budget.
    TimedOut,
    /// Any other failure: translation error, unknown benchmark, or
    /// watchdog abort.
    Failed(PipelineError),
}

impl TaskOutcome {
    /// Classifies how a run ended: a report with degraded pushes is
    /// [`TaskOutcome::Degraded`].
    pub fn of(result: Result<RunReport, PipelineError>) -> TaskOutcome {
        match result {
            Ok(r) if r.pushes_degraded > 0 => TaskOutcome::Degraded(Box::new(r)),
            Ok(r) => TaskOutcome::Ok(Box::new(r)),
            Err(PipelineError::Panicked(msg)) => TaskOutcome::Panicked(msg),
            Err(PipelineError::TimedOut) => TaskOutcome::TimedOut,
            Err(e) => TaskOutcome::Failed(e),
        }
    }

    /// The report, or the error the run ended with.
    ///
    /// # Errors
    ///
    /// Every outcome without a report, as its [`PipelineError`].
    pub fn into_result(self) -> Result<RunReport, PipelineError> {
        match self {
            TaskOutcome::Ok(r) | TaskOutcome::Degraded(r) => Ok(*r),
            TaskOutcome::Panicked(msg) => Err(PipelineError::Panicked(msg)),
            TaskOutcome::TimedOut => Err(PipelineError::TimedOut),
            TaskOutcome::Failed(e) => Err(e),
        }
    }

    /// The completed report, if the run finished (ok or degraded).
    pub fn report(&self) -> Option<&RunReport> {
        match self {
            TaskOutcome::Ok(r) | TaskOutcome::Degraded(r) => Some(r),
            _ => None,
        }
    }

    /// Short status tag for tables and progress lines.
    pub fn tag(&self) -> &'static str {
        match self {
            TaskOutcome::Ok(_) => "ok",
            TaskOutcome::Degraded(_) => "degraded",
            TaskOutcome::Panicked(_) => "panicked",
            TaskOutcome::TimedOut => "timed-out",
            TaskOutcome::Failed(_) => "failed",
        }
    }
}

/// Extracts a human-readable message from a panic payload. Pass the
/// payload itself (`&*payload` for the `Box` that `catch_unwind` or
/// `JoinHandle::join` returns): a `&Box<dyn Any + Send>` would coerce
/// to a `dyn Any` whose concrete type is the box, and every downcast
/// would miss.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one task to its outcome: looks its benchmark up in the
/// catalog, simulates it with `tracer` and panics caught, and
/// classifies how it ended. The tracer comes back with the outcome
/// unless the run panicked or was abandoned; a [`FlightRecorder`]
/// shares its ring, so a clone kept by the caller outlives both.
///
/// Under a wall-clock `budget` the simulation runs on a detached
/// thread that is abandoned on timeout — leaked, since a simulator
/// offers no preemption point — which is why budgets are opt-in.
pub fn run_task<T: Tracer + Send + 'static>(
    task: &Task,
    tracer: T,
    budget: Option<Duration>,
) -> (TaskOutcome, Option<T>) {
    let Some(bench) = catalog::by_code(&task.code) else {
        let unknown = PipelineError::UnknownBenchmark(task.code.clone());
        return (TaskOutcome::Failed(unknown), Some(tracer));
    };
    let simulate = move |task: &Task| {
        let pulse = (task.pulse > 0).then(|| PulseConfig::with_window(task.pulse));
        let pipeline = Pipeline::with_config(task.cfg.clone());
        let run = catch_unwind(AssertUnwindSafe(|| {
            pipeline.run(&bench, task.input, task.mode, tracer, &task.faults, pulse)
        }));
        match run {
            Ok((result, probes)) => (TaskOutcome::of(result), Some(probes.tracer)),
            Err(payload) => (TaskOutcome::Panicked(panic_message(&*payload)), None),
        }
    };
    let Some(limit) = budget else {
        return simulate(task);
    };
    let (tx, rx) = mpsc::channel();
    let task = task.clone();
    std::thread::spawn(move || {
        let _ = tx.send(simulate(&task));
    });
    rx.recv_timeout(limit)
        .unwrap_or((TaskOutcome::TimedOut, None))
}

/// The postmortem file a non-Ok outcome of `task` dumps to when the
/// runner has a postmortem directory configured — deterministic, so
/// CLIs can point users at the file without plumbing paths back
/// through the executor.
pub fn postmortem_path(dir: &Path, task: &Task) -> PathBuf {
    let key = task.key();
    dir.join(format!(
        "{}-{}-{}-{:016x}-{:016x}.json",
        key.code, key.input, key.mode, key.fingerprint, key.fault_fp
    ))
}

/// Serializes a postmortem document. Contents are derived exclusively
/// from deterministic inputs (task coordinates, sim-cycle-stamped
/// flight entries, outcome detail), so a replayed faulted run dumps
/// byte-identical files regardless of worker count.
fn postmortem_doc(
    task: &Task,
    tag: &str,
    detail: Option<&str>,
    report: Option<&RunReport>,
    flight: Option<&FlightLog>,
) -> Json {
    let key = task.key();
    let mut fields = vec![
        ("format".into(), Json::Int(1)),
        ("bench".into(), Json::Str(key.code.clone())),
        ("input".into(), Json::Str(key.input.to_string())),
        ("mode".into(), Json::Str(key.mode.to_string())),
        (
            "fingerprint".into(),
            Json::Str(format!("{:016x}", key.fingerprint)),
        ),
        (
            "fault_fp".into(),
            Json::Str(format!("{:016x}", key.fault_fp)),
        ),
        ("outcome".into(), Json::Str(tag.into())),
        (
            "detail".into(),
            match detail {
                Some(text) => Json::Str(text.to_string()),
                None => Json::Null,
            },
        ),
    ];
    if let Some(r) = report {
        fields.push((
            "run".into(),
            Json::Obj(vec![
                ("total_cycles".into(), Json::Int(r.total_cycles.as_u64())),
                ("pushes_attempted".into(), Json::Int(r.pushes_attempted)),
                ("pushes_retried".into(), Json::Int(r.pushes_retried)),
                ("pushes_degraded".into(), Json::Int(r.pushes_degraded)),
                ("faults_injected".into(), Json::Int(r.faults_injected)),
            ]),
        ));
    }
    fields.push((
        "flight".into(),
        match flight {
            Some(log) => Json::Obj(vec![
                ("capacity".into(), Json::Int(scope::FLIGHT_CAPACITY as u64)),
                ("dropped".into(), Json::Int(log.dropped)),
                (
                    "entries".into(),
                    Json::Arr(
                        log.entries
                            .iter()
                            .map(|e| {
                                let line = ds_probe::jsonl::render_event(e);
                                crate::json::parse(&line).unwrap_or(Json::Str(line))
                            })
                            .collect(),
                    ),
                ),
            ]),
            // The ring rides the simulation thread; a timed-out run's
            // thread is abandoned mid-flight, so its (wall-clock-
            // dependent) contents are deliberately not captured.
            None => Json::Null,
        },
    ));
    Json::Obj(fields)
}

/// Reads `DS_RUNNER_JOBS`, falling back to the machine's available
/// parallelism.
pub fn default_jobs() -> usize {
    std::env::var("DS_RUNNER_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// The experiment runner: plans, executes in parallel, memoizes.
///
/// # Examples
///
/// ```no_run
/// use ds_core::{InputSize, Mode, SystemConfig};
/// use ds_runner::Runner;
///
/// let cfg = SystemConfig::paper_default();
/// let mut runner = Runner::new().jobs(4);
/// let comparisons = runner
///     .sweep(&cfg, InputSize::Small, Mode::DirectStore, |_| true)
///     .expect("catalog benchmarks translate");
/// assert_eq!(comparisons.len(), 22);
/// ```
#[derive(Debug)]
pub struct Runner {
    jobs: usize,
    progress: bool,
    store: ResultStore,
    simulations: u64,
    task_timeout: Option<Duration>,
    postmortem_dir: Option<PathBuf>,
}

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

impl Runner {
    /// A runner with [`default_jobs`] workers, progress lines enabled
    /// and no disk cache.
    pub fn new() -> Self {
        Runner {
            jobs: default_jobs(),
            progress: true,
            store: ResultStore::new(),
            simulations: 0,
            task_timeout: None,
            postmortem_dir: None,
        }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn jobs(mut self, n: usize) -> Self {
        self.jobs = n.max(1);
        self
    }

    /// Sets a per-task wall-clock budget. A run that exceeds it is
    /// reported as timed out; its simulation thread is abandoned (see
    /// [`run_task`] for the trade-off).
    pub fn task_timeout(mut self, limit: Duration) -> Self {
        self.task_timeout = Some(limit);
        self
    }

    /// Enables crash postmortems: every task that does not finish Ok
    /// (panicked, timed out, watchdog-aborted, or degraded) dumps a
    /// diagnostic file under `dir` (conventionally
    /// `results/postmortem/`), named by [`postmortem_path`]. Fault-
    /// injected tasks additionally run with a [`FlightRecorder`]
    /// armed, so the dump carries the simulation's last trace events
    /// alongside the outcome's diagnostic.
    pub fn with_postmortems(mut self, dir: impl Into<PathBuf>) -> Self {
        self.postmortem_dir = Some(dir.into());
        self
    }

    /// Enables or disables per-job progress lines on stderr.
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Enables the on-disk result cache under `dir` (conventionally
    /// `results/`).
    pub fn with_disk_cache(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.store.enable_disk(dir);
        self
    }

    /// Tasks this runner's pool has run (memo and disk hits excluded)
    /// — the metric the warm-cache tests assert on.
    pub fn simulations_run(&self) -> u64 {
        self.simulations
    }

    /// Runs every task, returning one report per input task in input
    /// order. Duplicate and already-cached tasks are not re-simulated.
    ///
    /// # Errors
    ///
    /// Returns the first failing task's error (by task order):
    /// [`PipelineError::UnknownBenchmark`] for a code the catalog does
    /// not know, or a translation failure. Every task that succeeded
    /// stays memoized.
    pub fn run_tasks(&mut self, tasks: &[Task]) -> Result<Vec<RunReport>, PipelineError> {
        self.run_tasks_outcomes(tasks)
            .into_iter()
            .map(TaskOutcome::into_result)
            .collect()
    }

    /// Runs every task like [`Runner::run_tasks`], but never gives up
    /// on the batch: each task gets a [`TaskOutcome`] — completed
    /// (clean or with degraded pushes), panicked, timed out, or failed
    /// — and one bad run does not hide the others' results. Fault
    /// plans attached via [`Task::with_faults`] are honored here.
    pub fn run_tasks_outcomes(&mut self, tasks: &[Task]) -> Vec<TaskOutcome> {
        let keys: Vec<TaskKey> = tasks.iter().map(Task::key).collect();

        // Plan: one run per key the store cannot serve.
        let mut planned = HashSet::new();
        let missing: Vec<usize> = (0..tasks.len())
            .filter(|&i| self.store.get(&keys[i]).is_none() && planned.insert(&keys[i]))
            .collect();

        let ran: Vec<TaskOutcome> = if self.postmortem_dir.is_none() {
            let work = missing.iter().map(|&i| (&tasks[i], NullTracer));
            self.pool(work).into_iter().map(|(o, _)| o).collect()
        } else {
            // Fault-injected tasks run with a flight recorder, whose
            // ring the postmortem ships; the caller's clone survives a
            // panicking run.
            let recorders: Vec<Option<FlightRecorder>> = missing
                .iter()
                .map(|&i| tasks[i].faults.is_active().then(FlightRecorder::new))
                .collect();
            let work = missing.iter().map(|&i| &tasks[i]).zip(recorders.clone());
            let ran = self.pool(work);
            // Dump in task order, so postmortems never depend on
            // worker scheduling. A timed-out run's ring is abandoned
            // mid-flight with its leaked thread; snapshotting it would
            // be wall-clock-dependent, so only decided outcomes
            // capture one.
            for ((&i, (outcome, _)), recorder) in missing.iter().zip(&ran).zip(&recorders) {
                let decided = !matches!(outcome, TaskOutcome::TimedOut);
                let flight = recorder.as_ref().filter(|_| decided);
                self.dump_postmortem(&tasks[i], outcome, flight.map(|r| r.snapshot()));
            }
            ran.into_iter().map(|(o, _)| o).collect()
        };

        // Memoize the successes, persisting each touched fingerprint.
        let mut failed: HashMap<&TaskKey, TaskOutcome> = HashMap::new();
        let mut touched: Vec<(u64, &SystemConfig)> = Vec::new();
        for (&i, outcome) in missing.iter().zip(ran) {
            match outcome {
                TaskOutcome::Ok(report) | TaskOutcome::Degraded(report) => {
                    let fingerprint = keys[i].fingerprint;
                    if !touched.iter().any(|&(fp, _)| fp == fingerprint) {
                        touched.push((fingerprint, &tasks[i].cfg));
                    }
                    self.store.insert(keys[i].clone(), *report);
                }
                failure => {
                    failed.insert(&keys[i], failure);
                }
            }
        }
        if self.store.disk_enabled() {
            for (fingerprint, cfg) in touched {
                self.store.persist(fingerprint, cfg);
            }
        }

        keys.iter()
            .map(|key| match self.store.get(key) {
                Some(report) => TaskOutcome::of(Ok(report.clone())),
                None => failed
                    .get(key)
                    .cloned()
                    .expect("every task either completed or recorded a failure"),
            })
            .collect()
    }

    /// Runs every task with its own tracer from `tracers` (one per
    /// task, in order) and hands each tracer back with the task's
    /// outcome, as [`run_task`] does. Traced runs bypass the memo, the
    /// disk cache and postmortems: every task runs, duplicates
    /// included, since each tracer must see its run's stream.
    ///
    /// # Panics
    ///
    /// If `tasks` and `tracers` differ in length.
    pub fn run_traced<T: Tracer + Send + 'static>(
        &mut self,
        tasks: &[Task],
        tracers: Vec<T>,
    ) -> Vec<(TaskOutcome, Option<T>)> {
        assert_eq!(tasks.len(), tracers.len(), "one tracer per task");
        self.pool(tasks.iter().zip(tracers))
    }

    /// Runs each `(task, tracer)` pair through [`run_task`] on the
    /// worker pool, returning the results in input order.
    fn pool<'t, T: Tracer + Send + 'static>(
        &mut self,
        work: impl Iterator<Item = (&'t Task, T)>,
    ) -> Vec<(TaskOutcome, Option<T>)> {
        let work: Vec<(&Task, T)> = work.collect();
        let total = work.len();
        if total == 0 {
            return Vec::new();
        }
        let workers = self.jobs.min(total);
        let (progress, budget) = (self.progress, self.task_timeout);
        if progress {
            eprintln!("ds-runner: {total} job(s) to simulate on {workers} worker(s)");
        }

        let queue = Mutex::new(work.into_iter().enumerate());
        let done = AtomicUsize::new(0);
        let mut ran: Vec<_> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut ran = Vec::new();
                        loop {
                            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                            let Some((i, (task, tracer))) = next else {
                                break ran;
                            };
                            let started = Instant::now();
                            let run = run_task(task, tracer, budget);
                            if progress {
                                let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                                let what = format!(
                                    "[{n}/{total}] {} {} {}",
                                    task.code, task.input, task.mode
                                );
                                match &run.0 {
                                    TaskOutcome::Ok(r) | TaskOutcome::Degraded(r) => eprintln!(
                                        "ds-runner: {what}: {} cycles ({} ms)",
                                        r.total_cycles.as_u64(),
                                        started.elapsed().as_millis()
                                    ),
                                    failure => eprintln!(
                                        "ds-runner: {what}: FAILED: {}",
                                        failure
                                            .clone()
                                            .into_result()
                                            .expect_err("an outcome without a report is an error")
                                    ),
                                }
                            }
                            ran.push((i, run));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("run_task catches simulation panics"))
                .collect()
        });
        self.simulations += total as u64;
        ran.sort_by_key(|&(i, _)| i);
        ran.into_iter().map(|(_, run)| run).collect()
    }

    /// Writes `task`'s postmortem file unless it finished clean Ok.
    /// Best-effort like the cache: IO failures are reported on stderr,
    /// never fatal.
    fn dump_postmortem(&self, task: &Task, outcome: &TaskOutcome, flight: Option<FlightLog>) {
        let Some(dir) = &self.postmortem_dir else {
            return;
        };
        let detail = match outcome {
            TaskOutcome::Ok(_) => return,
            TaskOutcome::Degraded(_) => None,
            TaskOutcome::Panicked(msg) => Some(msg.clone()),
            TaskOutcome::TimedOut => {
                Some("wall-clock budget exceeded; simulation thread abandoned".to_string())
            }
            TaskOutcome::Failed(e) => Some(e.to_string()),
        };
        let doc = postmortem_doc(
            task,
            outcome.tag(),
            detail.as_deref(),
            outcome.report(),
            flight.as_ref(),
        );
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!(
                "ds-runner: cannot create postmortem dir {}: {e}",
                dir.display()
            );
            return;
        }
        let path = postmortem_path(dir, task);
        if let Err(e) = write_atomic(dir, &path, doc.pretty().as_bytes()) {
            eprintln!("ds-runner: cannot write postmortem {}: {e}", path.display());
        }
    }

    /// Runs the CCSM-vs-`ds_mode` comparison sweep over the benchmarks
    /// `filter` selects, in catalog order.
    ///
    /// # Errors
    ///
    /// See [`Runner::run_tasks`].
    pub fn sweep(
        &mut self,
        cfg: &SystemConfig,
        input: InputSize,
        ds_mode: Mode,
        filter: impl Fn(&Benchmark) -> bool,
    ) -> Result<Vec<Comparison>, PipelineError> {
        let tasks = sweep_tasks(cfg, input, ds_mode, filter);
        let reports = self.run_tasks(&tasks)?;
        Ok(tasks
            .chunks(2)
            .zip(reports.chunks(2))
            .map(|(pair, reports)| Comparison {
                code: pair[0].code.clone(),
                input,
                ccsm: reports[0].clone(),
                direct_store: reports[1].clone(),
            })
            .collect())
    }

    /// The fingerprint the store files results under for `cfg` —
    /// exposed so tools can point users at the right cache file.
    pub fn fingerprint(cfg: &SystemConfig) -> u64 {
        config_fingerprint(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_reads_the_caught_payload() {
        let payload = catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(panic_message(&*payload), "boom 7");
        let payload = catch_unwind(|| panic!("static")).unwrap_err();
        assert_eq!(panic_message(&*payload), "static");
        let payload = catch_unwind(|| std::panic::panic_any(7u8)).unwrap_err();
        assert_eq!(panic_message(&*payload), "non-string panic payload");
    }

    #[test]
    fn unknown_benchmark_is_a_clean_error() {
        let cfg = SystemConfig::paper_default();
        let mut runner = Runner::new().jobs(2).progress(false);
        let err = runner
            .run_tasks(&[Task::new(&cfg, "NOPE", InputSize::Small, Mode::Ccsm)])
            .unwrap_err();
        assert!(
            matches!(err, PipelineError::UnknownBenchmark(ref c) if c == "NOPE"),
            "{err}"
        );
    }

    #[test]
    fn duplicate_tasks_simulate_once() {
        let cfg = SystemConfig::paper_default();
        let mut runner = Runner::new().jobs(2).progress(false);
        let task = Task::new(&cfg, "VA", InputSize::Small, Mode::Ccsm);
        let reports = runner
            .run_tasks(&[task.clone(), task.clone(), task])
            .unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(runner.simulations_run(), 1);
        assert_eq!(
            format!("{:?}", reports[0]),
            format!("{:?}", reports[2]),
            "duplicates share the memoized report"
        );
    }

    #[test]
    fn memo_spans_calls() {
        let cfg = SystemConfig::paper_default();
        let mut runner = Runner::new().jobs(1).progress(false);
        let task = Task::new(&cfg, "VA", InputSize::Small, Mode::Ccsm);
        runner.run_tasks(std::slice::from_ref(&task)).unwrap();
        let after_first = runner.simulations_run();
        runner.run_tasks(&[task]).unwrap();
        assert_eq!(runner.simulations_run(), after_first);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn pulsed_tasks_carry_a_series_and_do_not_alias_plain_ones() {
        let cfg = SystemConfig::paper_default();
        let mut runner = Runner::new().jobs(2).progress(false);
        let plain = Task::new(&cfg, "VA", InputSize::Small, Mode::DirectStore);
        let pulsed = plain.clone().with_pulse(1000);
        let reports = runner.run_tasks(&[plain, pulsed]).unwrap();
        assert!(reports[0].pulse.is_none(), "plain task stays pulse-free");
        let series = reports[1].pulse.as_ref().expect("pulsed task has a series");
        assert!(!series.is_empty());
        assert_eq!(
            runner.simulations_run(),
            2,
            "a pulsed task must not be served from the plain memo slot"
        );
        assert_eq!(
            reports[0].total_cycles, reports[1].total_cycles,
            "pulse sampling never perturbs simulated timing"
        );
    }

    #[test]
    fn outcomes_keep_going_past_failures() {
        let cfg = SystemConfig::paper_default();
        let mut runner = Runner::new().jobs(2).progress(false);
        let outcomes = runner.run_tasks_outcomes(&[
            Task::new(&cfg, "NOPE", InputSize::Small, Mode::Ccsm),
            Task::new(&cfg, "VA", InputSize::Small, Mode::Ccsm),
        ]);
        assert_eq!(outcomes.len(), 2);
        assert!(
            matches!(
                &outcomes[0],
                TaskOutcome::Failed(PipelineError::UnknownBenchmark(code)) if code == "NOPE"
            ),
            "{:?}",
            outcomes[0].tag()
        );
        assert!(matches!(outcomes[1], TaskOutcome::Ok(_)));
        assert_eq!(outcomes[1].report().unwrap().mode, Mode::Ccsm);
    }
}
