//! The parallel executor.
//!
//! [`Runner`] drains a deduplicated task list over `std::thread::scope`
//! workers pulling indices from a shared atomic counter. This is sound
//! because each `System::run` is a self-contained seeded simulation —
//! no shared mutable state — so a parallel sweep is *bit-identical* to
//! the serial one (asserted by the `determinism` integration test).
//! Results land in per-task slots, making output order independent of
//! scheduling.
//!
//! Worker count comes from, in priority order: an explicit
//! [`Runner::jobs`] call, the `DS_RUNNER_JOBS` environment variable,
//! and the machine's available parallelism.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};
use std::time::{Duration, Instant};

use ds_core::{Comparison, InputSize, Mode, Pipeline, PipelineError, RunReport, SystemConfig};
use ds_probe::scope::{self, FlightLog, FlightRecorder, SpanKind, SpanRecord, SpanTree};
use ds_probe::PulseConfig;
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
    /// Any other failure (translation error, unknown benchmark,
    /// watchdog abort), rendered as text.
    Failed(String),
}

impl TaskOutcome {
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

/// Runs one task's simulation with panics converted to
/// [`PipelineError::Panicked`] so a crashing run cannot take the
/// worker pool down with it. When a flight `recorder` is armed, trace
/// events stream into its ring; the shared handle survives the
/// `catch_unwind` even when the run itself does not.
fn simulate_isolated(
    task: &Task,
    bench: &Benchmark,
    recorder: Option<&FlightRecorder>,
) -> Result<RunReport, PipelineError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let pipeline = Pipeline::with_config(task.cfg.clone());
        let pulse = (task.pulse > 0).then(|| PulseConfig::with_window(task.pulse));
        pipeline
            .run(
                bench,
                task.input,
                task.mode,
                recorder.cloned(),
                &task.faults,
                pulse,
            )
            .0
    }));
    outcome.unwrap_or_else(|payload| Err(PipelineError::Panicked(panic_message(&*payload))))
}

/// [`simulate_isolated`] under an optional wall-clock budget. The
/// timed variant runs the simulation on a detached thread and abandons
/// it on timeout — the thread is leaked (a simulator offers no
/// preemption point), which is acceptable for a CLI-lifetime harness
/// and is why timeouts are opt-in.
fn simulate_task(
    task: &Task,
    bench: &Benchmark,
    timeout: Option<Duration>,
    recorder: Option<&FlightRecorder>,
) -> Result<RunReport, PipelineError> {
    let Some(limit) = timeout else {
        return simulate_isolated(task, bench, recorder);
    };
    let (tx, rx) = mpsc::channel();
    let task = task.clone();
    let bench = bench.clone();
    let recorder = recorder.cloned();
    std::thread::spawn(move || {
        let _ = tx.send(simulate_isolated(&task, &bench, recorder.as_ref()));
    });
    match rx.recv_timeout(limit) {
        Ok(result) => result,
        Err(_) => Err(PipelineError::TimedOut),
    }
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

/// Builds the ds-scope span tree for one executed task: the task span
/// covers enqueue (the batch's epoch) to completion, telescoping into
/// queue-wait and sim-run children. The sim-run span's label carries
/// the simulated cycle count, linking down to the report's
/// `StageBreakdown` transaction records riding the same report.
fn task_span_tree(task: &Task, report: &RunReport, picked_us: u64, done_us: u64) -> SpanTree {
    let task_id = scope::next_span_id();
    let picked_us = picked_us.min(done_us);
    SpanTree {
        spans: vec![
            SpanRecord {
                id: task_id,
                parent: 0,
                kind: SpanKind::Task,
                label: format!("{} {} {}", task.code, task.input, task.mode),
                start_us: 0,
                end_us: done_us,
            },
            SpanRecord {
                id: scope::next_span_id(),
                parent: task_id,
                kind: SpanKind::QueueWait,
                label: String::new(),
                start_us: 0,
                end_us: picked_us,
            },
            SpanRecord {
                id: scope::next_span_id(),
                parent: task_id,
                kind: SpanKind::SimRun,
                label: format!(
                    "{} cycles, {} staged txns",
                    report.total_cycles.as_u64(),
                    report.stages.loads + report.stages.pushes
                ),
                start_us: picked_us,
                end_us: done_us,
            },
        ],
    }
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
    /// `simulate_task` for the trade-off).
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

    /// Simulations actually executed by this runner (memo and disk
    /// hits excluded) — the metric the warm-cache tests assert on.
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
    /// not know, or a translation failure. Results of tasks that
    /// succeeded before the failure stay memoized.
    pub fn run_tasks(&mut self, tasks: &[Task]) -> Result<Vec<RunReport>, PipelineError> {
        let keys: Vec<TaskKey> = tasks.iter().map(Task::key).collect();

        // Plan: unique tasks not already served by the store.
        let mut missing: Vec<(usize, Benchmark)> = Vec::new();
        let mut planned = std::collections::HashSet::new();
        for (i, (task, key)) in tasks.iter().zip(&keys).enumerate() {
            if self.store.get(key).is_some() || !planned.insert(key.clone()) {
                continue;
            }
            let bench = catalog::by_code(&task.code)
                .ok_or_else(|| PipelineError::UnknownBenchmark(task.code.clone()))?;
            missing.push((i, bench));
        }

        if !missing.is_empty() {
            let failures = self.execute(tasks, &keys, &missing);
            if let Some(e) = failures.into_iter().flatten().next() {
                return Err(e);
            }
        }

        Ok(keys
            .iter()
            .map(|key| {
                self.store
                    .get(key)
                    .expect("every task is memoized after execution")
                    .clone()
            })
            .collect())
    }

    /// Runs every task like [`Runner::run_tasks`], but never gives up
    /// on the batch: each task gets a [`TaskOutcome`] — completed
    /// (clean or with degraded pushes), panicked, timed out, or failed
    /// — and one bad run does not hide the others' results. Fault
    /// plans attached via [`Task::with_faults`] are honored here.
    pub fn run_tasks_outcomes(&mut self, tasks: &[Task]) -> Vec<TaskOutcome> {
        let keys: Vec<TaskKey> = tasks.iter().map(Task::key).collect();

        let mut missing: Vec<(usize, Benchmark)> = Vec::new();
        let mut planned = std::collections::HashSet::new();
        let mut failed: std::collections::HashMap<TaskKey, TaskOutcome> =
            std::collections::HashMap::new();
        for (i, (task, key)) in tasks.iter().zip(&keys).enumerate() {
            if self.store.get(key).is_some() || !planned.insert(key.clone()) {
                continue;
            }
            match catalog::by_code(&task.code) {
                Some(bench) => missing.push((i, bench)),
                None => {
                    let e = PipelineError::UnknownBenchmark(task.code.clone());
                    failed.insert(key.clone(), TaskOutcome::Failed(e.to_string()));
                }
            }
        }

        if !missing.is_empty() {
            let failures = self.execute(tasks, &keys, &missing);
            for ((task_idx, _), failure) in missing.iter().zip(failures) {
                if let Some(e) = failure {
                    let outcome = match e {
                        PipelineError::Panicked(msg) => TaskOutcome::Panicked(msg),
                        PipelineError::TimedOut => TaskOutcome::TimedOut,
                        other => TaskOutcome::Failed(other.to_string()),
                    };
                    failed.insert(keys[*task_idx].clone(), outcome);
                }
            }
        }

        keys.iter()
            .map(|key| match self.store.get(key) {
                Some(report) if report.pushes_degraded > 0 => {
                    TaskOutcome::Degraded(Box::new(report.clone()))
                }
                Some(report) => TaskOutcome::Ok(Box::new(report.clone())),
                None => failed
                    .get(key)
                    .cloned()
                    .expect("every task either completed or recorded a failure"),
            })
            .collect()
    }

    /// Runs the uncached subset in parallel and folds successes into
    /// the store. Returns one entry per `missing` item: `None` for a
    /// memoized success, `Some(error)` otherwise.
    fn execute(
        &mut self,
        tasks: &[Task],
        keys: &[TaskKey],
        missing: &[(usize, Benchmark)],
    ) -> Vec<Option<PipelineError>> {
        let total = missing.len();
        let workers = self.jobs.min(total).max(1);
        let progress = self.progress;
        if progress {
            eprintln!("ds-runner: {total} job(s) to simulate on {workers} worker(s)");
        }

        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let simulated = AtomicU64::new(0);
        let timeout = self.task_timeout;
        let postmortems = self.postmortem_dir.is_some();
        // Scope spans are host-time observations; like host profiles
        // they attach only when explicitly enabled at full probe
        // level, so default runs stay bit-identical.
        let scoped = scope::enabled() && ds_probe::prof::level() == ds_probe::ProbeLevel::Full;
        let epoch = Instant::now();
        type SlotValue = (Result<RunReport, PipelineError>, Option<FlightLog>);
        let slots: Vec<OnceLock<SlotValue>> = (0..total).map(|_| OnceLock::new()).collect();

        std::thread::scope(|scope_| {
            for _ in 0..workers {
                scope_.spawn(|| loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= total {
                        break;
                    }
                    let (task_idx, bench) = &missing[slot];
                    let task = &tasks[*task_idx];
                    let started = Instant::now();
                    let picked_us = epoch.elapsed().as_micros() as u64;
                    // The flight recorder arms on fault-injected tasks
                    // only: that is where watchdog aborts live, and it
                    // keeps the plain sweep path tracer-free.
                    let recorder =
                        (postmortems && task.faults.is_active()).then(FlightRecorder::new);
                    let mut result = simulate_task(task, bench, timeout, recorder.as_ref());
                    if scoped {
                        if let Ok(report) = &mut result {
                            let done_us = epoch.elapsed().as_micros() as u64;
                            report.scope = Some(task_span_tree(task, report, picked_us, done_us));
                        }
                    }
                    // A timed-out run's ring is abandoned mid-flight
                    // with its leaked thread; snapshotting it would be
                    // wall-clock-dependent, so only decided outcomes
                    // capture one.
                    let flight = match (&result, &recorder) {
                        (Err(PipelineError::TimedOut), _) => None,
                        (_, Some(rec)) => Some(rec.snapshot()),
                        _ => None,
                    };
                    simulated.fetch_add(1, Ordering::Relaxed);
                    if progress {
                        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                        match &result {
                            Ok(r) => eprintln!(
                                "ds-runner: [{n}/{total}] {} {} {}: {} cycles ({} ms)",
                                task.code,
                                task.input,
                                task.mode,
                                r.total_cycles.as_u64(),
                                started.elapsed().as_millis()
                            ),
                            Err(e) => eprintln!(
                                "ds-runner: [{n}/{total}] {} {} {}: FAILED: {e}",
                                task.code, task.input, task.mode
                            ),
                        }
                    }
                    slots[slot]
                        .set((result, flight))
                        .unwrap_or_else(|_| panic!("slot {slot} written twice"));
                });
            }
        });
        self.simulations += simulated.into_inner();

        // Fold results in task order so failure reporting — and
        // postmortem dumping — is deterministic regardless of worker
        // scheduling.
        let mut failures = Vec::with_capacity(missing.len());
        let mut touched_fingerprints = Vec::new();
        for ((task_idx, _), slot) in missing.iter().zip(slots) {
            let key = &keys[*task_idx];
            let (result, flight) = slot.into_inner().expect("worker filled every slot");
            self.dump_postmortem(&tasks[*task_idx], &result, flight.as_ref());
            match result {
                Ok(report) => {
                    if !touched_fingerprints.contains(&key.fingerprint) {
                        touched_fingerprints.push(key.fingerprint);
                    }
                    self.store.insert(key.clone(), report);
                    failures.push(None);
                }
                Err(e) => failures.push(Some(e)),
            }
        }
        if self.store.disk_enabled() {
            for fp in touched_fingerprints {
                let (idx, _) = missing
                    .iter()
                    .find(|(i, _)| keys[*i].fingerprint == fp)
                    .expect("fingerprint came from this missing set");
                self.store.persist(fp, &tasks[*idx].cfg);
            }
        }
        failures
    }

    /// Writes `task`'s postmortem file when postmortems are enabled
    /// and the result is anything but a clean Ok. Best-effort like the
    /// cache: IO failures are reported on stderr, never fatal.
    fn dump_postmortem(
        &self,
        task: &Task,
        result: &Result<RunReport, PipelineError>,
        flight: Option<&FlightLog>,
    ) {
        let Some(dir) = &self.postmortem_dir else {
            return;
        };
        let (tag, detail, report) = match result {
            Ok(r) if r.pushes_degraded > 0 => ("degraded", None, Some(r)),
            Ok(_) => return,
            Err(PipelineError::Panicked(msg)) => ("panicked", Some(msg.clone()), None),
            Err(PipelineError::TimedOut) => (
                "timed-out",
                Some("wall-clock budget exceeded; simulation thread abandoned".to_string()),
                None,
            ),
            Err(e) => ("failed", Some(e.to_string()), None),
        };
        let doc = postmortem_doc(task, tag, detail.as_deref(), report, flight);
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
            matches!(&outcomes[0], TaskOutcome::Failed(msg) if msg.contains("NOPE")),
            "{:?}",
            outcomes[0].tag()
        );
        assert!(matches!(outcomes[1], TaskOutcome::Ok(_)));
        assert_eq!(outcomes[1].report().unwrap().mode, Mode::Ccsm);
    }
}
