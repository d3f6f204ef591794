//! The long-running service: shared state, the worker pool, and the
//! connection loop.
//!
//! Three thread families cooperate around [`ServeState`]:
//!
//! * the **accept loop** hands TCP connections to a small pool of
//!   **HTTP handlers** over a channel;
//! * handlers parse requests, run [`crate::api::handle`], and write
//!   responses — submissions only *enqueue* (admission control keeps
//!   that O(1)), so handler latency stays flat under simulation load;
//! * **workers** (sized like `ds-runner`: `--workers` /
//!   `DS_RUNNER_JOBS` / available parallelism) drain the job queue
//!   through the [`SharedStore`], so identical tasks across jobs and
//!   users are computed once, and every computation runs through
//!   [`ds_runner::run_task`], the per-task function batch runs use
//!   too (panic isolation, wall-clock timeouts, outcome
//!   classification).
//!
//! Shutdown (`POST /shutdown` or [`Server::begin_shutdown`]) stops
//! admission, abandons queued-but-unstarted work, lets in-flight
//! simulations finish, and joins every thread — a saturated or
//! half-drained service exits cleanly instead of hanging.

use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use ds_probe::pulse::{ctr, gauge};
use ds_probe::scope::{self, SpanKind, SpanRecord};
use ds_probe::{NullTracer, PulseSeries, ServiceMetrics};
use ds_runner::json::Json;
use ds_runner::shared::SharedStore;
use ds_runner::{default_jobs, panic_message, run_task, Task, TaskOutcome};

use crate::http::{read_request, write_response, Request, Response};
use crate::jobs::{JobQueue, JobRecord, TaskResult, WorkItem};
use crate::journal::Journal;
use ds_runner::shared::Provenance;

/// Shape of the per-request log line `--log-format` selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// Human-oriented single line.
    Text,
    /// One compact JSON object per line.
    Json,
}

impl LogFormat {
    /// Parses the CLI spelling.
    pub fn parse(name: &str) -> Option<LogFormat> {
        match name {
            "text" => Some(LogFormat::Text),
            "json" => Some(LogFormat::Json),
            _ => None,
        }
    }
}

/// Tunables for one service instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Simulation worker threads (default: `DS_RUNNER_JOBS` or the
    /// machine's available parallelism, like `ds-runner`).
    pub workers: usize,
    /// HTTP handler threads.
    pub handlers: usize,
    /// Admission bound: maximum open (accepted, unfinished) jobs.
    pub queue_limit: usize,
    /// Per-task wall-clock budget, forwarded to [`run_task`].
    pub task_timeout: Option<Duration>,
    /// On-disk result-cache directory (`results/` by convention);
    /// `None` keeps the store memory-only.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Log one line per handled request to stderr.
    pub verbose: bool,
    /// Shape of that request log line.
    pub log_format: LogFormat,
    /// Heartbeat cadence on a quiet `/jobs/<id>/events` stream — how
    /// long a connection stays silent before a `heartbeat` line keeps
    /// it visibly alive (and flushes out a gone client). Tests
    /// compress this to exercise the heartbeat path quickly.
    pub heartbeat: Duration,
    /// ds-anvil: write the job journal under the cache directory and
    /// replay it on startup. On by default; no effect without a cache
    /// directory (a memory-only store has nowhere durable to recover
    /// results from anyway).
    pub journal: bool,
    /// Crash drill: `abort()` the process (the in-process stand-in
    /// for `kill -9`) right after this many task completions have
    /// been journaled. `ds drill` uses it to die at a seeded
    /// point mid-sweep.
    pub crash_after_tasks: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: default_jobs(),
            handlers: 4,
            queue_limit: 64,
            task_timeout: None,
            cache_dir: None,
            verbose: false,
            log_format: LogFormat::Text,
            heartbeat: Duration::from_secs(10),
            journal: true,
            crash_after_tasks: None,
        }
    }
}

/// What startup journal replay found — frozen at boot for `/metrics`
/// and `/health` (the live countdown is [`ServeState::recovering`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Unfinished jobs re-enqueued from the journal.
    pub jobs: usize,
    /// Tasks across those jobs.
    pub tasks: usize,
    /// Of those, tasks that had already completed before the crash
    /// (expected to rehydrate as disk-cache hits, not recompute).
    pub tasks_done: usize,
    /// A torn final record was truncated away.
    pub torn_tail: bool,
    /// The journal was corrupt and quarantined.
    pub quarantined: bool,
}

/// Last-window ds-pulse gauges from the most recently completed pulsed
/// task — what `/metrics` exposes so a scraper sees live simulation
/// telemetry, not just service load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PulseGauges {
    /// Final window length in cycles (after any coalescing).
    pub window: u64,
    /// Windows in the series.
    pub windows: u64,
    /// Event-queue depth gauge in the last window.
    pub queue_depth: u64,
    /// NoC messages (coherence + direct + GPU) delivered in the last
    /// window.
    pub noc_msgs: u64,
    /// Push retries in the last window.
    pub retries: u64,
    /// Anomalies the run's detectors flagged, in total.
    pub anomalies: u64,
}

impl PulseGauges {
    /// Summarizes a finished series (`None` when it has no windows).
    pub fn from_series(series: &PulseSeries) -> Option<PulseGauges> {
        let last = series.len().checked_sub(1)?;
        let (start, end) = series.window_bounds(last);
        let noc = series.counter(ctr::COH_MSGS)[last]
            + series.counter(ctr::DIRECT_MSGS)[last]
            + series.counter(ctr::GPU_MSGS)[last];
        Some(PulseGauges {
            window: end - start,
            windows: series.len() as u64,
            queue_depth: series.gauge(gauge::QUEUE_DEPTH)[last],
            noc_msgs: noc,
            retries: series.counter(ctr::PUSHES_RETRIED)[last],
            anomalies: series.anomalies.len() as u64,
        })
    }
}

/// Everything handlers and workers share.
pub struct ServeState {
    /// The concurrency-safe content-addressed result store.
    pub store: SharedStore,
    /// The bounded job queue and registry.
    pub queue: JobQueue,
    /// Service load metrics behind one lock.
    pub metrics: Mutex<ServiceMetrics>,
    /// Last-window pulse gauges (see [`PulseGauges`]); `None` until a
    /// pulsed task completes.
    pulse: Mutex<Option<PulseGauges>>,
    /// The options the service was started with.
    pub options: ServeOptions,
    /// Server start time, for uptime reporting.
    pub started: Instant,
    /// The ds-anvil job journal; `Some` when journaling is enabled
    /// and the store has a cache directory.
    pub journal: Option<Journal>,
    /// What startup replay recovered (frozen at boot).
    pub recovery: RecoveryReport,
    /// Recovered jobs not yet finished — `/health` readiness drops
    /// out of `recovering` once this reaches zero.
    recovering: AtomicUsize,
    /// Task completions in this process, for `--crash-after-tasks`.
    tasks_done: AtomicU64,
    shutdown: AtomicBool,
    /// Bound address, set by [`Server::start`]; the `/shutdown`
    /// handler needs it to poke the accept loop awake.
    addr: std::sync::OnceLock<std::net::SocketAddr>,
}

impl ServeState {
    /// Builds the shared state for `options`.
    pub fn new(options: ServeOptions) -> Arc<Self> {
        let store = match &options.cache_dir {
            Some(dir) => SharedStore::with_disk(dir.clone()),
            None => SharedStore::new(),
        };
        let queue = JobQueue::new(options.queue_limit);
        // ds-anvil: open the journal and re-enqueue every job a
        // previous process accepted but never finished. Completed
        // tasks rehydrate as disk-cache hits, so replay recomputes
        // only what never finished.
        let mut journal = None;
        let mut recovery = RecoveryReport::default();
        if options.journal {
            if let Some(dir) = &options.cache_dir {
                match Journal::open(dir) {
                    Ok((j, found)) => {
                        recovery = RecoveryReport {
                            jobs: found.jobs.len(),
                            tasks: found.tasks(),
                            tasks_done: found.tasks_done(),
                            torn_tail: found.torn_tail,
                            quarantined: found.quarantined.is_some(),
                        };
                        for job in found.jobs {
                            queue.restore(job.id, &job.key, job.tasks, 0);
                        }
                        journal = Some(j);
                    }
                    Err(e) => {
                        eprintln!("ds serve: journal disabled ({e}); jobs are not durable")
                    }
                }
            }
        }
        Arc::new(ServeState {
            store,
            queue,
            metrics: Mutex::new(ServiceMetrics::new()),
            pulse: Mutex::new(None),
            options,
            started: Instant::now(),
            journal,
            recovering: AtomicUsize::new(recovery.jobs),
            recovery,
            tasks_done: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            addr: std::sync::OnceLock::new(),
        })
    }

    /// Recovered jobs still in flight; `0` once replayed work has
    /// drained (readiness).
    pub fn recovering(&self) -> usize {
        self.recovering.load(Ordering::SeqCst)
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Runs `f` on the metrics under the lock.
    pub fn with_metrics<T>(&self, f: impl FnOnce(&mut ServiceMetrics) -> T) -> T {
        let mut metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut metrics)
    }

    /// Microseconds since the service started — the clock every
    /// service span and telemetry event is stamped with.
    pub fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Records a completed pulsed run's last-window gauges for
    /// `/metrics`.
    pub fn record_pulse(&self, series: &PulseSeries) {
        if let Some(gauges) = PulseGauges::from_series(series) {
            *self.pulse.lock().unwrap_or_else(|e| e.into_inner()) = Some(gauges);
        }
    }

    /// The most recent pulsed task's last-window gauges, if any task
    /// has run with pulse telemetry yet.
    pub fn pulse_gauges(&self) -> Option<PulseGauges> {
        *self.pulse.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Computes (or serves from the shared store) one task through
    /// [`run_task`]: panic isolation, the optional wall-clock budget,
    /// outcome classification. The returned result carries
    /// `store-lookup` / `sim-run` spans parented on `task_span` (the
    /// worker adds the `task` and `queue-wait` spans, which only it
    /// can time).
    pub fn run_task(&self, task: &Task, task_span: u64) -> TaskResult {
        let lookup_start = self.now_us();
        // Filled inside the compute closure; stays `None` on a store
        // hit or when this lookup coalesced onto another computation.
        let sim_interval: Mutex<Option<(u64, u64)>> = Mutex::new(None);
        let (outcome, provenance) = self.store.get_or_compute(task, || {
            let sim_start = self.now_us();
            let (outcome, _) = run_task(task, NullTracer, self.options.task_timeout);
            *sim_interval.lock().unwrap_or_else(|e| e.into_inner()) =
                Some((sim_start, self.now_us()));
            outcome
        });
        let done = self.now_us();
        let sim = *sim_interval.lock().unwrap_or_else(|e| e.into_inner());
        let mut spans = Vec::new();
        // The lookup span ends where the simulation began (a miss) or
        // where the store answered (a hit / coalesced wait).
        spans.push(SpanRecord {
            id: scope::next_span_id(),
            parent: task_span,
            kind: SpanKind::StoreLookup,
            label: crate::api::provenance_name(provenance).to_string(),
            start_us: lookup_start,
            end_us: sim.map_or(done, |(start, _)| start),
        });
        if let Some((start, end)) = sim {
            spans.push(SpanRecord {
                id: scope::next_span_id(),
                parent: task_span,
                kind: SpanKind::SimRun,
                label: format!("{} {} {}", task.code, task.input, task.mode),
                start_us: start,
                end_us: end,
            });
        }
        TaskResult {
            outcome,
            provenance,
            spans,
        }
    }
}

/// Renders one telemetry event line (compact JSON).
fn event_line(fields: Vec<(String, Json)>) -> String {
    Json::Obj(fields).compact()
}

/// The span-open event for `span`, shared by workers and the submit
/// handler.
pub(crate) fn span_open_event(span: &SpanRecord, job: u64, extra: Vec<(String, Json)>) -> String {
    let mut fields = vec![
        ("event".into(), Json::Str("span-open".into())),
        ("span".into(), Json::Int(span.id)),
        ("parent".into(), Json::Int(span.parent)),
        ("kind".into(), Json::Str(span.kind.name().into())),
        ("label".into(), Json::Str(span.label.clone())),
        ("t_us".into(), Json::Int(span.start_us)),
        ("job".into(), Json::Int(job)),
    ];
    fields.extend(extra);
    event_line(fields)
}

/// The matching span-close event.
pub(crate) fn span_close_event(span: &SpanRecord, job: u64) -> String {
    event_line(vec![
        ("event".into(), Json::Str("span-close".into())),
        ("span".into(), Json::Int(span.id)),
        ("kind".into(), Json::Str(span.kind.name().into())),
        ("t_us".into(), Json::Int(span.end_us)),
        ("job".into(), Json::Int(job)),
    ])
}

/// The number of `pulse-window` lines one task contributes to the
/// event stream at most: a long run's series is downsampled (adjacent
/// windows merged) so live telemetry stays bounded no matter how many
/// cycles the simulation ran.
pub const PULSE_STREAM_WINDOWS: usize = 64;

/// Emits one completed pulsed task's telemetry onto the job's event
/// log: up to [`PULSE_STREAM_WINDOWS`] `pulse-window` lines (window
/// bounds plus the counters `ds watch` sparklines want) followed
/// by one `pulse-anomaly` line per detector hit.
fn publish_pulse_events(job: &JobRecord, idx: usize, series: &PulseSeries, done_us: u64) {
    let view = series.downsampled(PULSE_STREAM_WINDOWS);
    for w in 0..view.len() {
        let (start, end) = view.window_bounds(w);
        let noc = view.counter(ctr::COH_MSGS)[w]
            + view.counter(ctr::DIRECT_MSGS)[w]
            + view.counter(ctr::GPU_MSGS)[w];
        job.push_event(event_line(vec![
            ("event".into(), Json::Str("pulse-window".into())),
            ("job".into(), Json::Int(job.id)),
            ("task".into(), Json::Int(idx as u64)),
            ("start".into(), Json::Int(start)),
            ("end".into(), Json::Int(end)),
            ("sm_ops".into(), Json::Int(view.counter(ctr::SM_OPS)[w])),
            ("noc_msgs".into(), Json::Int(noc)),
            (
                "direct_pushes".into(),
                Json::Int(view.counter(ctr::DIRECT_PUSHES)[w]),
            ),
            (
                "pushes_retried".into(),
                Json::Int(view.counter(ctr::PUSHES_RETRIED)[w]),
            ),
            (
                "sb_stalls".into(),
                Json::Int(view.counter(ctr::SB_STALLS)[w]),
            ),
            (
                "queue_depth".into(),
                Json::Int(view.gauge(gauge::QUEUE_DEPTH)[w]),
            ),
            ("t_us".into(), Json::Int(done_us)),
        ]));
    }
    for a in &series.anomalies {
        job.push_event(event_line(vec![
            ("event".into(), Json::Str("pulse-anomaly".into())),
            ("job".into(), Json::Int(job.id)),
            ("task".into(), Json::Int(idx as u64)),
            ("kind".into(), Json::Str(a.kind.name().into())),
            ("start".into(), Json::Int(a.start)),
            ("end".into(), Json::Int(a.end)),
            ("value".into(), Json::Int(a.value)),
            ("threshold".into(), Json::Int(a.threshold)),
            ("t_us".into(), Json::Int(done_us)),
        ]));
    }
}

/// Emits the open+close pair for every span of one completed task,
/// plus its pulse telemetry (when the task ran with a pulse window)
/// and its progress / outcome summary, onto the job's event log.
fn publish_task_events(job: &JobRecord, idx: usize, result: &TaskResult, done_us: u64) {
    for span in &result.spans {
        job.push_event(span_open_event(
            span,
            job.id,
            vec![("task".into(), Json::Int(idx as u64))],
        ));
        job.push_event(span_close_event(span, job.id));
    }
    if let Some(series) = result.outcome.report().and_then(|r| r.pulse.as_ref()) {
        publish_pulse_events(job, idx, series, done_us);
    }
    let mut fields = vec![
        ("event".into(), Json::Str("task-done".into())),
        ("job".into(), Json::Int(job.id)),
        ("task".into(), Json::Int(idx as u64)),
        ("outcome".into(), Json::Str(result.outcome.tag().into())),
        (
            "provenance".into(),
            Json::Str(crate::api::provenance_name(result.provenance).into()),
        ),
        ("t_us".into(), Json::Int(done_us)),
    ];
    if let Some(report) = result.outcome.report() {
        fields.push(("cycles".into(), Json::Int(report.total_cycles.as_u64())));
        // The epoch sampler's progress trail: how many windows the
        // simulation closed, so `watch` can show per-task pacing.
        fields.push(("epochs".into(), Json::Int(report.epochs.len() as u64)));
        fields.push(("epoch_window".into(), Json::Int(report.epoch_window)));
        if let Some(series) = &report.pulse {
            fields.push(("pulse_windows".into(), Json::Int(series.len() as u64)));
            fields.push((
                "pulse_anomalies".into(),
                Json::Int(series.anomalies.len() as u64),
            ));
        }
    }
    job.push_event(event_line(fields));
    let (_, completed, total) = job.snapshot();
    job.push_event(event_line(vec![
        ("event".into(), Json::Str("progress".into())),
        ("job".into(), Json::Int(job.id)),
        ("completed".into(), Json::Int(completed as u64 + 1)),
        ("total".into(), Json::Int(total as u64)),
        ("t_us".into(), Json::Int(done_us)),
    ]));
}

/// One worker: drain the queue through the shared store until
/// shutdown, publishing span telemetry onto each job's event log.
fn worker_loop(state: &ServeState) {
    while let Some(item) = state.queue.pop() {
        process_item(state, &item);
    }
}

/// Handles one popped work item end to end: journal bracketing,
/// panic-isolated execution, telemetry, completion bookkeeping.
pub(crate) fn process_item(state: &ServeState, item: &WorkItem) {
    process_item_with(state, item, |task, span| state.run_task(task, span));
}

/// [`process_item`] with the execution step injectable, so the
/// panicked-task path is testable without a panicking simulator.
///
/// The `run` closure is wrapped in `catch_unwind`: a panic anywhere
/// in the execution path becomes a [`TaskOutcome::Panicked`] result —
/// the job still completes and the worker keeps draining the queue
/// instead of wedging the whole pool.
pub(crate) fn process_item_with(
    state: &ServeState,
    item: &WorkItem,
    run: impl FnOnce(&Task, u64) -> TaskResult,
) {
    let job = &item.job;
    let task = &job.tasks[item.idx];
    if let Some(journal) = &state.journal {
        journal.task_started(job.id, item.idx);
    }
    let waited = item.enqueued.elapsed();
    let started = Instant::now();
    // The task span opened when the work item was enqueued — the
    // queue wait belongs to the task, not to the service at large.
    let enqueued_us = item.enqueued.duration_since(state.started).as_micros() as u64;
    let picked_us = state.now_us();
    let task_span = scope::next_span_id();
    let queue_span = SpanRecord {
        id: scope::next_span_id(),
        parent: task_span,
        kind: SpanKind::QueueWait,
        label: String::new(),
        start_us: enqueued_us,
        end_us: picked_us,
    };

    let mut result = match catch_unwind(AssertUnwindSafe(|| run(task, task_span))) {
        Ok(result) => result,
        Err(payload) => {
            state.with_metrics(|m| m.worker_panics += 1);
            TaskResult {
                outcome: TaskOutcome::Panicked(panic_message(&*payload)),
                provenance: Provenance::Computed,
                spans: Vec::new(),
            }
        }
    };
    let done_us = state.now_us();
    let service = started.elapsed();
    if let Some(series) = result.outcome.report().and_then(|r| r.pulse.as_ref()) {
        state.record_pulse(series);
    }

    let mut spans = vec![
        SpanRecord {
            id: task_span,
            parent: job.span,
            kind: SpanKind::Task,
            label: format!("{} {} {}", task.code, task.input, task.mode),
            start_us: enqueued_us,
            end_us: done_us,
        },
        queue_span,
    ];
    spans.append(&mut result.spans);
    result.spans = spans;
    publish_task_events(job, item.idx, &result, done_us);

    let outcome_tag = result.outcome.tag();
    let finished = state.queue.complete(item, result);
    if let Some(journal) = &state.journal {
        journal.task_done(job.id, item.idx, outcome_tag);
        if finished {
            journal.job_done(job.id);
        }
    }
    if finished {
        if job.recovered {
            // A replayed job drained: one step closer to `ready`.
            let _ = state
                .recovering
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
        }
        let close_us = state.now_us();
        job.push_event(event_line(vec![
            ("event".into(), Json::Str("span-close".into())),
            ("span".into(), Json::Int(job.span)),
            ("kind".into(), Json::Str("job".into())),
            ("t_us".into(), Json::Int(close_us)),
            ("job".into(), Json::Int(job.id)),
        ]));
    }
    state.with_metrics(|m| {
        m.task_wait.record(waited.as_micros() as u64);
        m.task_service.record(service.as_micros() as u64);
        m.tasks_completed += 1;
        if finished {
            m.jobs_completed += 1;
        }
    });
    // Crash drill: die *after* the Nth completion is journaled — the
    // most adversarial instant, since the in-memory registry is ahead
    // of any client's view and only the journal can reconstruct it.
    if let Some(limit) = state.options.crash_after_tasks {
        if state.tasks_done.fetch_add(1, Ordering::SeqCst) + 1 >= limit {
            eprintln!("ds serve: crash drill abort after {limit} task(s)");
            std::process::abort();
        }
    }
}

/// How many times a panicked worker thread is respawned before its
/// slot is retired (a repeatedly-crashing worker burning CPU forever
/// is worse than a smaller pool).
pub const WORKER_RESPAWN_BUDGET: u32 = 8;

/// Supervises one worker slot: (re)spawns the worker body until it
/// exits cleanly (shutdown) or panics with the respawn budget already
/// spent. Returns `(respawns, retired)` — `retired` means the final
/// spawn also panicked and the slot gave up. `on_panic` observes each
/// actual respawn (metrics + logging) with the count so far.
pub(crate) fn supervise_worker(
    budget: u32,
    spawn_body: impl Fn() -> std::thread::JoinHandle<()>,
    mut on_panic: impl FnMut(u32),
) -> (u32, bool) {
    let mut respawns = 0;
    loop {
        match spawn_body().join() {
            Ok(()) => return (respawns, false),
            Err(_) => {
                if respawns >= budget {
                    return (respawns, true);
                }
                respawns += 1;
                on_panic(respawns);
            }
        }
    }
}

/// The structured request log line (gated on `--verbose`): span id,
/// method, path, status, response bytes, and handling duration, as
/// text or one compact JSON object per `--log-format`.
fn log_request(
    state: &ServeState,
    span: u64,
    request: Option<&Request>,
    status: u16,
    bytes: usize,
    duration: Duration,
) {
    if !state.options.verbose {
        return;
    }
    let (method, path) = match request {
        Some(r) => (r.method.as_str(), r.path.as_str()),
        None => ("-", "-"),
    };
    let duration_us = duration.as_micros() as u64;
    match state.options.log_format {
        LogFormat::Text => {
            eprintln!("ds serve: {method} {path} -> {status} span={span} {bytes}B {duration_us}us")
        }
        LogFormat::Json => eprintln!(
            "{}",
            Json::Obj(vec![
                ("log".into(), Json::Str("request".into())),
                ("span".into(), Json::Int(span)),
                ("method".into(), Json::Str(method.into())),
                ("path".into(), Json::Str(path.into())),
                ("status".into(), Json::Int(status as u64)),
                ("bytes".into(), Json::Int(bytes as u64)),
                ("duration_us".into(), Json::Int(duration_us)),
            ])
            .compact()
        ),
    }
}

/// One HTTP handler: serve connections off the channel until the
/// accept loop closes it. Every request gets a span id, returned to
/// the client in the `X-Dsscope-Span` header.
fn handler_loop(state: &ServeState, connections: &Mutex<mpsc::Receiver<TcpStream>>) {
    loop {
        let conn = {
            let rx = connections.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        let Ok(mut stream) = conn else { break };
        stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
        stream.set_write_timeout(Some(Duration::from_secs(10))).ok();
        let started = Instant::now();
        let span = scope::next_span_id();
        match read_request(&mut stream) {
            Ok(request) => {
                // The live-telemetry endpoint streams its own
                // close-delimited response; everything else goes
                // through the regular router.
                if request.method == "GET" {
                    if let Some(id) = crate::api::events_job_id(&request.path) {
                        let (status, bytes) =
                            crate::api::stream_events(state, &mut stream, id, span);
                        log_request(
                            state,
                            span,
                            Some(&request),
                            status,
                            bytes,
                            started.elapsed(),
                        );
                        continue;
                    }
                }
                let response = crate::api::handle_with_span(state, &request, span)
                    .with_header("X-Dsscope-Span", span.to_string());
                log_request(
                    state,
                    span,
                    Some(&request),
                    response.status,
                    response.body.len(),
                    started.elapsed(),
                );
                let _ = write_response(&mut stream, &response);
            }
            Err(e) => {
                let response =
                    Response::json(400, format!("{{\"error\": \"bad request: {e}\"}}\n"))
                        .with_header("X-Dsscope-Span", span.to_string());
                log_request(
                    state,
                    span,
                    None,
                    response.status,
                    response.body.len(),
                    started.elapsed(),
                );
                let _ = write_response(&mut stream, &response);
            }
        }
    }
}

/// A running service instance.
pub struct Server {
    state: Arc<ServeState>,
    addr: std::net::SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    handlers: Vec<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop, handler pool, and worker pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(options: ServeOptions, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = ServeState::new(options);
        let _ = state.addr.set(addr);

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let connections = Arc::new(Mutex::new(rx));

        let mut handlers = Vec::new();
        for _ in 0..state.options.handlers.max(1) {
            let state = Arc::clone(&state);
            let connections = Arc::clone(&connections);
            handlers.push(std::thread::spawn(move || {
                handler_loop(&state, &connections)
            }));
        }

        let mut workers = Vec::new();
        for slot in 0..state.options.workers.max(1) {
            let state = Arc::clone(&state);
            // Each worker slot gets a supervisor: a panic that escapes
            // the per-item isolation (e.g. in the queue or journal
            // path) respawns the worker within a bounded budget
            // instead of silently shrinking the pool.
            workers.push(std::thread::spawn(move || {
                let (respawns, retired) = supervise_worker(
                    WORKER_RESPAWN_BUDGET,
                    || {
                        let state = Arc::clone(&state);
                        std::thread::spawn(move || worker_loop(&state))
                    },
                    |respawns| {
                        state.with_metrics(|m| m.workers_respawned += 1);
                        eprintln!(
                            "ds serve: worker {slot} panicked; respawn {respawns}/{}",
                            WORKER_RESPAWN_BUDGET
                        );
                    },
                );
                if retired {
                    eprintln!("ds serve: worker {slot} retired after {respawns} respawns");
                }
            }));
        }

        let accept = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                // `tx` lives in this loop: dropping it on exit closes
                // the channel and winds the handler pool down.
                for conn in listener.incoming() {
                    if state.is_shutting_down() {
                        break;
                    }
                    if let Ok(stream) = conn {
                        let _ = tx.send(stream);
                    }
                }
            })
        };

        Ok(Server {
            state,
            addr,
            accept: Some(accept),
            handlers,
            workers,
        })
    }

    /// The bound socket address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The shared state (for in-process harnesses and tests).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Requests shutdown: stops admission, abandons unstarted work,
    /// and unblocks the accept loop. Idempotent.
    pub fn begin_shutdown(&self) {
        request_shutdown(&self.state);
    }

    /// Blocks until every thread has wound down. In-flight
    /// simulations finish; queued-but-unstarted tasks are abandoned.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for handle in self.handlers.drain(..) {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Flags shutdown on `state` and pokes the accept loop awake with a
/// throwaway connection so it observes the flag. Also called by the
/// `/shutdown` handler, which cannot reach the [`Server`] struct.
pub fn request_shutdown(state: &ServeState) {
    state.shutdown.store(true, Ordering::SeqCst);
    state.queue.shutdown();
    if let Some(addr) = state.addr.get() {
        let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
    }
}

#[allow(clippy::unwrap_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobState;
    use ds_core::{InputSize, Mode, SystemConfig};

    fn memory_state() -> Arc<ServeState> {
        ServeState::new(ServeOptions {
            workers: 1,
            handlers: 1,
            queue_limit: 4,
            ..ServeOptions::default()
        })
    }

    fn one_task() -> Vec<Task> {
        let cfg = SystemConfig::paper_default();
        vec![Task::new(&cfg, "VA", InputSize::Small, Mode::Ccsm)]
    }

    #[test]
    fn a_panicking_task_completes_the_job_instead_of_wedging() {
        let state = memory_state();
        let job = state.queue.submit(one_task(), 0).unwrap();
        let item = state.queue.pop().unwrap();
        process_item_with(&state, &item, |_, _| panic!("simulated worker bug"));
        assert_eq!(job.state(), JobState::Done, "job reached a terminal state");
        let results = job.results();
        match &results[0].as_ref().unwrap().outcome {
            TaskOutcome::Panicked(msg) => assert!(msg.contains("simulated worker bug")),
            other => panic!("expected Panicked, got {}", other.tag()),
        }
        assert_eq!(state.with_metrics(|m| m.worker_panics), 1);
        // The pool is not wedged: the admission slot was released and
        // fresh work still flows.
        assert_eq!(state.queue.open_jobs(), 0);
        state.queue.submit(one_task(), 0).unwrap();
        assert!(state.queue.pop().is_some());
    }

    #[test]
    fn supervisor_respawns_within_budget_then_retires() {
        use std::sync::atomic::AtomicU32;
        // A body that panics its first three runs, then exits cleanly.
        let runs = Arc::new(AtomicU32::new(0));
        let mut observed = Vec::new();
        let (respawns, retired) = supervise_worker(
            8,
            || {
                let runs = Arc::clone(&runs);
                std::thread::spawn(move || {
                    if runs.fetch_add(1, Ordering::SeqCst) < 3 {
                        panic!("flaky worker");
                    }
                })
            },
            |n| observed.push(n),
        );
        assert_eq!((respawns, retired), (3, false));
        assert_eq!(observed, vec![1, 2, 3]);
        assert_eq!(
            runs.load(Ordering::SeqCst),
            4,
            "three respawns + clean exit"
        );

        // A body that always panics exhausts the budget and retires.
        let (respawns, retired) =
            supervise_worker(2, || std::thread::spawn(|| panic!("hopeless")), |_| {});
        assert_eq!((respawns, retired), (2, true));
    }

    #[test]
    fn recovered_job_completion_drains_the_recovering_gauge() {
        let state = memory_state();
        // Simulate what journal replay does at boot.
        let job = state.queue.restore(5, "", one_task(), 0);
        state.recovering.store(1, Ordering::SeqCst);
        assert_eq!(state.recovering(), 1);
        let item = state.queue.pop().unwrap();
        process_item_with(&state, &item, |_, _| TaskResult {
            outcome: TaskOutcome::TimedOut,
            provenance: Provenance::Hit,
            spans: Vec::new(),
        });
        assert_eq!(job.state(), JobState::Done);
        assert_eq!(state.recovering(), 0, "readiness gauge drained");
    }
}
