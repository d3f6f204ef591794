//! The job API: request routing, submission parsing, JSON rendering.
//!
//! ```text
//! POST /jobs               submit tasks or a sweep; 200 {"job": id}
//!                          or 429 when admission control refuses
//! GET  /jobs/<id>          job status and per-task outcome tags
//! GET  /jobs/<id>/results  per-task results with full RunReport JSON
//! GET  /metrics            queue depth, store hit rate, histograms
//! GET  /health             liveness summary
//! POST /shutdown           graceful shutdown
//! ```
//!
//! A submission body is either an explicit task list or a
//! CCSM-vs-direct-store sweep (the `ds run` shape), with optional
//! config overrides, an optional fault plan, and an optional ds-pulse
//! window (`"pulse": true` for the default window, or a window length
//! in cycles — pulsed reports carry the time series and the job's
//! `/events` stream carries live `pulse-window` / `pulse-anomaly`
//! lines):
//!
//! ```json
//! {"tasks": [{"bench": "VA", "input": "small", "mode": "ccsm"}]}
//! {"sweep": {"bench": ["VA", "MM"], "input": "small", "mode": "ds"},
//!  "config": {"sms": 8}, "faults": {"net": "direct", "kind": "drop",
//!  "rate": 64, "seed": 1}, "pulse": 1000}
//! ```
//!
//! Reports are serialized with the same lossless encoder as the
//! on-disk cache ([`report_to_json`]), so a served result is
//! byte-identical to the batch CLI's rendering of the same run — the
//! property the CI smoke gate asserts with `cmp`.

use std::fmt;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use ds_core::Scenario as _;
use ds_core::{FaultKind, FaultNet, FaultPlan, InputSize, Mode, SystemConfig};
use ds_probe::scope::{self, SpanKind, SpanRecord};
use ds_runner::json::{self, Json};
use ds_runner::report::{parse_input, report_to_json};
use ds_runner::shared::Provenance;
use ds_runner::{span_to_json, sweep_tasks, Task, TaskOutcome};
use ds_workloads::catalog;

use crate::http::{write_response, write_stream_head, Request, Response};
use crate::jobs::JobRecord;
use crate::server::{request_shutdown, span_open_event, ServeState};

/// Routes one request under a fresh span id (for in-process callers;
/// the service's handler loop allocates the span itself and calls
/// [`handle_with_span`] so the id can also ride the response header).
pub fn handle(state: &ServeState, request: &Request) -> Response {
    handle_with_span(state, request, scope::next_span_id())
}

/// Routes one request. Never panics: malformed input is a 4xx JSON
/// error body. `span` is the request's span id — submissions parent
/// their job span on it.
pub fn handle_with_span(state: &ServeState, request: &Request, span: u64) -> Response {
    let started = std::time::Instant::now();
    state.with_metrics(|m| m.requests += 1);
    let path = request.path.trim_end_matches('/');
    let response = match (request.method.as_str(), path) {
        ("POST", "/jobs") => submit(state, request, span),
        ("GET", "/metrics") => metrics(state, request),
        ("GET", "/health") => health(state),
        ("POST", "/shutdown") => {
            request_shutdown(state);
            ok(Json::Obj(vec![("ok".into(), Json::Bool(true))]))
        }
        ("GET", _) if path.starts_with("/jobs/") => job_route(state, path),
        (_, "/jobs" | "/metrics" | "/health" | "/shutdown") => {
            error(405, "method not allowed for this path")
        }
        _ => error(404, &format!("no such endpoint {path:?}")),
    };
    let elapsed = started.elapsed().as_micros() as u64;
    state.with_metrics(|m| match (request.method.as_str(), path) {
        ("POST", "/jobs") => m.submit.record(elapsed),
        ("GET", p) if p.ends_with("/results") => m.results.record(elapsed),
        ("GET", p) if p.starts_with("/jobs/") => m.status.record(elapsed),
        _ => {}
    });
    response
}

fn ok(doc: Json) -> Response {
    Response::json(200, doc.pretty())
}

fn error(status: u16, message: &str) -> Response {
    let doc = Json::Obj(vec![("error".into(), Json::Str(message.into()))]);
    Response::json(status, doc.pretty())
}

/// `GET /jobs/<id>` and `GET /jobs/<id>/results`.
fn job_route(state: &ServeState, path: &str) -> Response {
    let rest = &path["/jobs/".len()..];
    let (id_text, results) = match rest.strip_suffix("/results") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return error(400, &format!("bad job id {id_text:?}"));
    };
    let Some(job) = state.queue.get(id) else {
        return error(404, &format!("no such job {id}"));
    };
    if results {
        job_results(&job)
    } else {
        job_status(&job)
    }
}

pub(crate) fn provenance_name(p: Provenance) -> &'static str {
    match p {
        Provenance::Hit => "hit",
        Provenance::Coalesced => "coalesced",
        Provenance::Computed => "computed",
    }
}

/// The per-task coordinate fields shared by status and results rows.
fn task_fields(task: &Task) -> Vec<(String, Json)> {
    vec![
        ("bench".into(), Json::Str(task.code.clone())),
        ("input".into(), Json::Str(task.input.to_string())),
        ("mode".into(), Json::Str(task.mode.to_string())),
    ]
}

fn job_status(job: &JobRecord) -> Response {
    let (job_state, completed, total) = job.snapshot();
    let results = job.results();
    let tasks: Vec<Json> = job
        .tasks
        .iter()
        .zip(&results)
        .map(|(task, slot)| {
            let mut fields = task_fields(task);
            match slot {
                Some(r) => {
                    fields.push(("outcome".into(), Json::Str(r.outcome.tag().into())));
                    fields.push((
                        "provenance".into(),
                        Json::Str(provenance_name(r.provenance).into()),
                    ));
                }
                None => fields.push(("outcome".into(), Json::Null)),
            }
            Json::Obj(fields)
        })
        .collect();
    ok(Json::Obj(vec![
        ("job".into(), Json::Int(job.id)),
        ("state".into(), Json::Str(job_state.name().into())),
        ("total".into(), Json::Int(total as u64)),
        ("completed".into(), Json::Int(completed as u64)),
        ("tasks".into(), Json::Arr(tasks)),
    ]))
}

fn job_results(job: &JobRecord) -> Response {
    let (job_state, _, _) = job.snapshot();
    let results = job.results();
    let rows: Vec<Json> = job
        .tasks
        .iter()
        .zip(&results)
        .map(|(task, slot)| {
            let mut fields = task_fields(task);
            fields.push((
                "fingerprint".into(),
                Json::Str(format!("{:016x}", task.key().fingerprint)),
            ));
            match slot {
                Some(r) => {
                    fields.push(("outcome".into(), Json::Str(r.outcome.tag().into())));
                    fields.push((
                        "provenance".into(),
                        Json::Str(provenance_name(r.provenance).into()),
                    ));
                    match &r.outcome {
                        TaskOutcome::Ok(report) | TaskOutcome::Degraded(report) => {
                            fields.push(("report".into(), report_to_json(report)));
                        }
                        TaskOutcome::Panicked(msg) => {
                            fields.push(("detail".into(), Json::Str(msg.clone())));
                        }
                        TaskOutcome::Failed(e) => {
                            fields.push(("detail".into(), Json::Str(e.to_string())));
                        }
                        TaskOutcome::TimedOut => {}
                    }
                    if !r.spans.is_empty() {
                        fields.push((
                            "spans".into(),
                            Json::Arr(r.spans.iter().map(span_to_json).collect()),
                        ));
                    }
                }
                None => fields.push(("outcome".into(), Json::Null)),
            }
            Json::Obj(fields)
        })
        .collect();
    ok(Json::Obj(vec![
        ("job".into(), Json::Int(job.id)),
        ("span".into(), Json::Int(job.span)),
        ("parent_span".into(), Json::Int(job.parent_span)),
        ("state".into(), Json::Str(job_state.name().into())),
        ("results".into(), Json::Arr(rows)),
    ]))
}

fn histogram_json(h: &ds_sim::Histogram) -> Json {
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::Int);
    Json::Obj(vec![
        ("name".into(), Json::Str(h.name().into())),
        ("samples".into(), Json::Int(h.samples())),
        ("mean".into(), Json::Float(h.mean())),
        ("min".into(), opt(h.min())),
        ("p50".into(), opt(h.percentile(50.0))),
        ("p95".into(), opt(h.percentile(95.0))),
        ("p99".into(), opt(h.percentile(99.0))),
        ("max".into(), Json::Int(h.max())),
    ])
}

/// Whether the client asked for Prometheus text exposition instead of
/// the JSON default: `?format=prom` or an `Accept` header naming
/// `text/plain` (what Prometheus scrapers send).
fn wants_prometheus(request: &Request) -> bool {
    request.query.split('&').any(|p| p == "format=prom")
        || request.accept.to_ascii_lowercase().contains("text/plain")
}

/// `GET /metrics` with content negotiation: JSON by default,
/// Prometheus text exposition format 0.0.4 when asked (see
/// [`wants_prometheus`]).
/// The JSON shape of the pulse-derived gauges (`null` until a pulsed
/// task completes): last-window raw values plus per-cycle rates, so a
/// dashboard can plot NoC utilization and retry pressure without
/// knowing the window length.
fn pulse_json(state: &ServeState) -> Json {
    let Some(p) = state.pulse_gauges() else {
        return Json::Null;
    };
    let per_cycle = |v: u64| Json::Float(v as f64 / p.window.max(1) as f64);
    Json::Obj(vec![
        ("window_cycles".into(), Json::Int(p.window)),
        ("windows".into(), Json::Int(p.windows)),
        ("queue_depth".into(), Json::Int(p.queue_depth)),
        ("noc_msgs".into(), Json::Int(p.noc_msgs)),
        ("noc_util".into(), per_cycle(p.noc_msgs)),
        ("retries".into(), Json::Int(p.retries)),
        ("retry_rate".into(), per_cycle(p.retries)),
        ("anomalies".into(), Json::Int(p.anomalies)),
    ])
}

fn metrics(state: &ServeState, request: &Request) -> Response {
    if wants_prometheus(request) {
        return prometheus_metrics(state);
    }
    let stats = state.store.stats();
    let store = Json::Obj(vec![
        ("requests".into(), Json::Int(stats.requests)),
        ("hits".into(), Json::Int(stats.hits)),
        ("coalesced".into(), Json::Int(stats.coalesced)),
        ("misses".into(), Json::Int(stats.misses)),
        ("failed".into(), Json::Int(stats.failed)),
        ("hit_rate".into(), Json::Float(stats.hit_rate())),
        ("entries".into(), Json::Int(state.store.len() as u64)),
    ]);
    let service = state.with_metrics(|m| {
        Json::Obj(vec![
            ("requests".into(), Json::Int(m.requests)),
            ("rejected".into(), Json::Int(m.rejected)),
            ("jobs_accepted".into(), Json::Int(m.jobs_accepted)),
            ("jobs_completed".into(), Json::Int(m.jobs_completed)),
            ("tasks_completed".into(), Json::Int(m.tasks_completed)),
            ("worker_panics".into(), Json::Int(m.worker_panics)),
            ("workers_respawned".into(), Json::Int(m.workers_respawned)),
            (
                "histograms".into(),
                Json::Arr(m.histograms().iter().map(|h| histogram_json(h)).collect()),
            ),
        ])
    });
    ok(Json::Obj(vec![
        (
            "uptime_ms".into(),
            Json::Int(state.started.elapsed().as_millis() as u64),
        ),
        ("queue_depth".into(), Json::Int(state.queue.depth() as u64)),
        (
            "open_jobs".into(),
            Json::Int(state.queue.open_jobs() as u64),
        ),
        ("queue_limit".into(), Json::Int(state.queue.limit() as u64)),
        ("workers".into(), Json::Int(state.options.workers as u64)),
        ("store".into(), store),
        ("service".into(), service),
        ("journal".into(), journal_json(state)),
        ("recovering".into(), Json::Int(state.recovering() as u64)),
        ("pulse".into(), pulse_json(state)),
    ]))
}

/// The ds-anvil journal/recovery block of the JSON `/metrics` shape
/// (`null` when journaling is off — memory-only store or `--no-journal`).
fn journal_json(state: &ServeState) -> Json {
    let Some(journal) = &state.journal else {
        return Json::Null;
    };
    let stats = journal.stats();
    let recovery = &state.recovery;
    Json::Obj(vec![
        ("records_appended".into(), Json::Int(stats.appended)),
        ("bytes_appended".into(), Json::Int(stats.bytes)),
        ("append_errors".into(), Json::Int(stats.errors)),
        ("recovered_jobs".into(), Json::Int(recovery.jobs as u64)),
        ("recovered_tasks".into(), Json::Int(recovery.tasks as u64)),
        (
            "recovered_tasks_done".into(),
            Json::Int(recovery.tasks_done as u64),
        ),
        ("torn_tail".into(), Json::Bool(recovery.torn_tail)),
        ("quarantined".into(), Json::Bool(recovery.quarantined)),
    ])
}

/// Appends one Prometheus metric with `# HELP` / `# TYPE` metadata.
fn prom_scalar(out: &mut String, name: &str, kind: &str, help: &str, value: impl fmt::Display) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
    ));
}

/// Appends one [`ds_sim::Histogram`] in Prometheus histogram form:
/// cumulative `_bucket{le=...}` series over the power-of-two bucket
/// boundaries (bucket 0 holds values 0..=1, so `le="1"`; the bucket
/// with floor `f = 2^i` holds `f..=2f-1`, so `le="2f-1"`), a final
/// `+Inf` bucket, then exact `_sum` and `_count`. Empty interior
/// buckets are skipped — the cumulative counts at the emitted
/// boundaries are unchanged.
fn prom_histogram(out: &mut String, name: &str, help: &str, h: &ds_sim::Histogram) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (floor, count) in h.iter() {
        if count == 0 {
            continue;
        }
        cumulative += count;
        let le = if floor == 0 { 1 } else { 2 * floor as u128 - 1 };
        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
    }
    out.push_str(&format!(
        "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
        h.samples(),
        h.sum(),
        h.samples()
    ));
}

/// The Prometheus rendering of [`metrics`]: the same gauges and
/// counters as the JSON shape, plus full `_bucket`/`_sum`/`_count`
/// series for every service histogram (the JSON shape only carries
/// their percentile summaries).
fn prometheus_metrics(state: &ServeState) -> Response {
    let stats = state.store.stats();
    let mut out = String::new();
    prom_scalar(
        &mut out,
        "dsserve_uptime_seconds",
        "gauge",
        "Seconds since the service started.",
        format!("{:.3}", state.started.elapsed().as_secs_f64()),
    );
    for (name, help, value) in [
        (
            "dsserve_queue_depth",
            "Open (accepted, unfinished) jobs.",
            state.queue.depth() as u64,
        ),
        (
            "dsserve_open_jobs",
            "Jobs not yet in a terminal state.",
            state.queue.open_jobs() as u64,
        ),
        (
            "dsserve_queue_limit",
            "Admission bound on open jobs.",
            state.queue.limit() as u64,
        ),
        (
            "dsserve_workers",
            "Simulation worker threads.",
            state.options.workers as u64,
        ),
        (
            "dsserve_store_entries",
            "Results held by the shared store.",
            state.store.len() as u64,
        ),
    ] {
        prom_scalar(&mut out, name, "gauge", help, value);
    }
    prom_scalar(
        &mut out,
        "dsserve_store_hit_rate",
        "gauge",
        "Fraction of store requests served without simulating.",
        format!("{:.6}", stats.hit_rate()),
    );
    for (name, help, value) in [
        (
            "dsserve_store_requests_total",
            "Result-store lookups.",
            stats.requests,
        ),
        ("dsserve_store_hits_total", "Store cache hits.", stats.hits),
        (
            "dsserve_store_coalesced_total",
            "Lookups coalesced onto an in-flight computation.",
            stats.coalesced,
        ),
        (
            "dsserve_store_misses_total",
            "Lookups that had to simulate.",
            stats.misses,
        ),
        (
            "dsserve_store_failed_total",
            "Lookups whose computation failed.",
            stats.failed,
        ),
    ] {
        prom_scalar(&mut out, name, "counter", help, value);
    }
    state.with_metrics(|m| {
        for (name, help, value) in [
            (
                "dsserve_http_requests_total",
                "HTTP requests handled (any endpoint).",
                m.requests,
            ),
            (
                "dsserve_rejected_total",
                "Submissions refused by admission control.",
                m.rejected,
            ),
            (
                "dsserve_jobs_accepted_total",
                "Jobs accepted by admission control.",
                m.jobs_accepted,
            ),
            (
                "dsserve_jobs_completed_total",
                "Jobs whose every task finished.",
                m.jobs_completed,
            ),
            (
                "dsserve_tasks_completed_total",
                "Tasks that reached a terminal outcome.",
                m.tasks_completed,
            ),
            (
                "dsserve_worker_panics_total",
                "Tasks whose execution path panicked (isolated per item).",
                m.worker_panics,
            ),
            (
                "dsserve_workers_respawned_total",
                "Worker threads respawned by their supervisor.",
                m.workers_respawned,
            ),
        ] {
            prom_scalar(&mut out, name, "counter", help, value);
        }
        for h in m.histograms() {
            prom_histogram(
                &mut out,
                &format!("dsserve_{}", h.name()),
                "Service latency histogram (microseconds).",
                h,
            );
        }
    });
    prom_scalar(
        &mut out,
        "dsserve_recovering",
        "gauge",
        "Journal-recovered jobs still draining (0 = ready).",
        state.recovering() as u64,
    );
    // Journal series surface only when journaling is on, like the
    // pulse gauges below.
    if let Some(journal) = &state.journal {
        let stats = journal.stats();
        for (name, help, value) in [
            (
                "dsserve_journal_records_total",
                "Journal records appended by this process.",
                stats.appended,
            ),
            (
                "dsserve_journal_bytes_total",
                "Journal bytes appended by this process.",
                stats.bytes,
            ),
            (
                "dsserve_journal_append_errors_total",
                "Journal append/fsync failures (durability degraded).",
                stats.errors,
            ),
        ] {
            prom_scalar(&mut out, name, "counter", help, value);
        }
        let recovery = &state.recovery;
        for (name, help, value) in [
            (
                "dsserve_journal_recovered_jobs",
                "Unfinished jobs re-enqueued from the journal at boot.",
                recovery.jobs as u64,
            ),
            (
                "dsserve_journal_recovered_tasks",
                "Tasks across the jobs recovered at boot.",
                recovery.tasks as u64,
            ),
            (
                "dsserve_journal_torn_tail_truncations",
                "Whether boot truncated a torn final journal record.",
                recovery.torn_tail as u64,
            ),
            (
                "dsserve_journal_quarantines",
                "Whether boot quarantined a corrupt journal.",
                recovery.quarantined as u64,
            ),
        ] {
            prom_scalar(&mut out, name, "gauge", help, value);
        }
    }
    // Pulse-derived gauges surface only once a pulsed task has run —
    // absent series are idiomatic Prometheus (rate() just has no data).
    if let Some(p) = state.pulse_gauges() {
        for (name, help, value) in [
            (
                "dsserve_pulse_window_cycles",
                "ds-pulse window length of the most recent pulsed run.",
                p.window,
            ),
            (
                "dsserve_pulse_last_queue_depth",
                "Event-queue depth gauge in the last pulse window.",
                p.queue_depth,
            ),
            (
                "dsserve_pulse_last_noc_msgs",
                "NoC messages delivered in the last pulse window.",
                p.noc_msgs,
            ),
            (
                "dsserve_pulse_last_retries",
                "Push retries in the last pulse window.",
                p.retries,
            ),
            (
                "dsserve_pulse_anomalies",
                "Anomalies flagged by the most recent pulsed run.",
                p.anomalies,
            ),
        ] {
            prom_scalar(&mut out, name, "gauge", help, value);
        }
        let per_cycle = |v: u64| format!("{:.6}", v as f64 / p.window.max(1) as f64);
        prom_scalar(
            &mut out,
            "dsserve_pulse_noc_util",
            "gauge",
            "NoC messages per cycle in the last pulse window.",
            per_cycle(p.noc_msgs),
        );
        prom_scalar(
            &mut out,
            "dsserve_pulse_retry_rate",
            "gauge",
            "Push retries per cycle in the last pulse window.",
            per_cycle(p.retries),
        );
    }
    Response {
        status: 200,
        body: out,
        content_type: "text/plain; version=0.0.4",
        headers: Vec::new(),
    }
}

/// Parses `/jobs/<id>/events` into the job id (`None` for any other
/// path) — the handler loop routes matches to [`stream_events`].
pub fn events_job_id(path: &str) -> Option<u64> {
    path.strip_prefix("/jobs/")?
        .strip_suffix("/events")?
        .parse()
        .ok()
}

/// `GET /jobs/<id>/events`: live telemetry. Streams the job's event
/// log as close-delimited NDJSON — span-open/close lines, per-task
/// outcome summaries (with the epoch sampler's progress counts), and
/// heartbeats while the job simulates — ending with a `done` line
/// when the job completes. Returns `(status, body bytes written)`
/// for the request log.
pub fn stream_events(
    state: &ServeState,
    stream: &mut TcpStream,
    id: u64,
    span: u64,
) -> (u16, usize) {
    let headers = vec![("X-Dsscope-Span".to_string(), span.to_string())];
    let Some(job) = state.queue.get(id) else {
        let response = error(404, &format!("no such job {id}"))
            .with_header("X-Dsscope-Span", span.to_string());
        let bytes = response.body.len();
        let _ = write_response(stream, &response);
        return (404, bytes);
    };
    if write_stream_head(stream, 200, "application/x-ndjson", &headers).is_err() {
        return (200, 0);
    }
    // Long-lived stream: per-write timeouts stay short (a stuck client
    // should not pin a handler), but the stream itself lives until the
    // job completes or the service shuts down.
    let mut sent = 0usize;
    let mut cursor = 0usize;
    let mut quiet_polls = 0u32;
    // Quiet polls (500 ms each) before a heartbeat goes out; the
    // cadence comes from the options so tests can compress it.
    let quiet_limit = (state.options.heartbeat.as_millis() as u64 / 500).max(1) as u32;
    let write_line = |stream: &mut TcpStream, line: &str| -> std::io::Result<usize> {
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        Ok(line.len() + 1)
    };
    loop {
        let (lines, next, done) = job.wait_events(cursor, Duration::from_millis(500));
        cursor = next;
        if lines.is_empty() {
            quiet_polls += 1;
        } else {
            quiet_polls = 0;
        }
        for line in &lines {
            match write_line(stream, line) {
                Ok(n) => sent += n,
                Err(_) => return (200, sent), // client went away
            }
        }
        if done {
            // Completion events race the done flip by a hair; one
            // grace pass picks up stragglers (the job span-close).
            std::thread::sleep(Duration::from_millis(50));
            let (stragglers, _) = job.events_since(cursor);
            for line in &stragglers {
                match write_line(stream, line) {
                    Ok(n) => sent += n,
                    Err(_) => return (200, sent),
                }
            }
            let fin = Json::Obj(vec![
                ("event".into(), Json::Str("done".into())),
                ("job".into(), Json::Int(id)),
                ("t_us".into(), Json::Int(state.now_us())),
            ])
            .compact();
            if let Ok(n) = write_line(stream, &fin) {
                sent += n;
            }
            return (200, sent);
        }
        if state.is_shutting_down() {
            return (200, sent);
        }
        // Keep a quiet connection visibly alive (and detect a gone
        // client) every heartbeat interval (~10s by default).
        if quiet_polls >= quiet_limit {
            quiet_polls = 0;
            let beat = Json::Obj(vec![
                ("event".into(), Json::Str("heartbeat".into())),
                ("job".into(), Json::Int(id)),
                ("t_us".into(), Json::Int(state.now_us())),
            ])
            .compact();
            match write_line(stream, &beat) {
                Ok(n) => sent += n,
                Err(_) => return (200, sent),
            }
        }
    }
}

/// `GET /health`: liveness vs readiness. `ok` is pure liveness (the
/// process answers); `ready` goes `false` while shutting down or
/// while journal-recovered jobs are still draining (`recovering`
/// counts them), so an orchestrator can hold traffic until replayed
/// work has rehydrated.
fn health(state: &ServeState) -> Response {
    let recovering = state.recovering();
    let shutting_down = state.is_shutting_down();
    let state_name = if shutting_down {
        "shutting-down"
    } else if recovering > 0 {
        "recovering"
    } else {
        "serving"
    };
    ok(Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("state".into(), Json::Str(state_name.into())),
        (
            "ready".into(),
            Json::Bool(!shutting_down && recovering == 0),
        ),
        ("recovering".into(), Json::Int(recovering as u64)),
        ("queue_depth".into(), Json::Int(state.queue.depth() as u64)),
        (
            "open_jobs".into(),
            Json::Int(state.queue.open_jobs() as u64),
        ),
    ]))
}

/// Seconds a 429'd client should wait before retrying, surfaced as
/// `Retry-After`. One second: admission slots free up as soon as any
/// open job drains, and the retrying client adds its own backoff.
const RETRY_AFTER_SECS: u64 = 1;

/// `POST /jobs`: parse, admit (honoring `Idempotency-Key`). The queue
/// journals the submission *before* enqueueing it — write-ahead order
/// — so the handler only renders the outcome.
fn submit(state: &ServeState, request: &Request, request_span: u64) -> Response {
    let tasks = match parse_submission(&request.body) {
        Ok(tasks) => tasks,
        Err(message) => return error(400, &message),
    };
    let key = match request.idempotency.as_str() {
        "" => None,
        key => Some(key),
    };
    match state
        .queue
        .submit_keyed(tasks, request_span, key, state.journal.as_ref())
    {
        Ok((job, deduplicated)) => {
            let mut fields = vec![
                ("job".into(), Json::Int(job.id)),
                ("span".into(), Json::Int(job.span)),
                ("tasks".into(), Json::Int(job.tasks.len() as u64)),
                ("state".into(), Json::Str(job.state().name().into())),
            ];
            if deduplicated {
                // A retry attached to the existing job: no admission,
                // no journaling, no duplicate span — just the pointer.
                fields.push(("deduplicated".into(), Json::Bool(true)));
                return ok(Json::Obj(fields));
            }
            state.with_metrics(|m| m.jobs_accepted += 1);
            // The job span opens at admission; workers close it when
            // the last task completes.
            job.push_event(span_open_event(
                &SpanRecord {
                    id: job.span,
                    parent: job.parent_span,
                    kind: SpanKind::Job,
                    label: format!("job {} ({} tasks)", job.id, job.tasks.len()),
                    start_us: state.now_us(),
                    end_us: state.now_us(),
                },
                job.id,
                vec![],
            ));
            ok(Json::Obj(fields))
        }
        Err(rejection) => {
            state.with_metrics(|m| m.rejected += 1);
            let mut fields = vec![("error".into(), Json::Str(rejection.message()))];
            if let crate::jobs::Rejection::QueueFull { open, limit } = &rejection {
                fields.push(("open_jobs".into(), Json::Int(*open as u64)));
                fields.push(("queue_limit".into(), Json::Int(*limit as u64)));
            }
            let status = rejection.status();
            let response = Response::json(status, Json::Obj(fields).pretty());
            if status == 429 {
                response.with_header("Retry-After", RETRY_AFTER_SECS.to_string())
            } else {
                response
            }
        }
    }
}

/// Accepts both the CLI spellings and the `Display` names.
fn parse_mode_any(name: &str) -> Option<Mode> {
    match name {
        "ccsm" | "CCSM" => Some(Mode::Ccsm),
        "ds" | "DS" => Some(Mode::DirectStore),
        "ds-only" | "DS-only" => Some(Mode::DirectStoreOnly),
        _ => None,
    }
}

fn parse_input_any(name: &str) -> Option<InputSize> {
    parse_input(name)
}

/// Parses a submission body into a task list (see the module docs for
/// the accepted shapes).
///
/// # Errors
///
/// A message describing the first problem found; the caller answers
/// 400 with it.
pub fn parse_submission(body: &[u8]) -> Result<Vec<Task>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let cfg = config_from(doc.get("config"))?;
    let faults = faults_from(doc.get("faults"))?;
    let pulse = pulse_from(doc.get("pulse"))?;

    let mut tasks = match (doc.get("tasks"), doc.get("sweep")) {
        (Some(_), Some(_)) => {
            return Err("give either \"tasks\" or \"sweep\", not both".into());
        }
        (Some(list), None) => explicit_tasks(list, &cfg)?,
        (None, Some(sweep)) => sweep_submission(sweep, &cfg)?,
        (None, None) => {
            return Err("submission needs a \"tasks\" array or a \"sweep\" object".into());
        }
    };
    if let Some(plan) = faults {
        for task in &mut tasks {
            task.faults = plan.clone();
        }
    }
    if let Some(window) = pulse {
        for task in &mut tasks {
            task.pulse = window;
        }
    }
    Ok(tasks)
}

/// Parses the optional `"pulse"` key: `true` means the default window,
/// an integer is a window length in cycles, and `false`/`null`/`0`
/// leave pulse off (the default — a pulse-free submission plans the
/// exact batch-CLI task list, preserving served-vs-batch byte
/// identity).
fn pulse_from(pulse: Option<&Json>) -> Result<Option<u64>, String> {
    match pulse {
        None | Some(Json::Null) | Some(Json::Bool(false)) => Ok(None),
        Some(Json::Bool(true)) => Ok(Some(ds_probe::DEFAULT_PULSE_WINDOW)),
        Some(other) => match other.as_u64() {
            Some(0) => Ok(None),
            Some(window) => Ok(Some(window)),
            None => Err("\"pulse\" must be true or a window length in cycles".into()),
        },
    }
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn explicit_tasks(list: &Json, cfg: &SystemConfig) -> Result<Vec<Task>, String> {
    let entries = list.as_arr().ok_or("\"tasks\" must be an array")?;
    entries
        .iter()
        .map(|entry| {
            let code = str_field(entry, "bench")?;
            if catalog::by_code(code).is_none() {
                return Err(format!("unknown benchmark code {code:?} (see Table II)"));
            }
            let input = parse_input_any(str_field(entry, "input")?)
                .ok_or_else(|| "input must be \"small\" or \"big\"".to_string())?;
            let mode = parse_mode_any(str_field(entry, "mode")?)
                .ok_or_else(|| "mode must be \"ccsm\", \"ds\" or \"ds-only\"".to_string())?;
            Ok(Task::new(cfg, code, input, mode))
        })
        .collect()
}

/// The `ds run` sweep shape: CCSM-vs-`mode` pairs over the selected
/// benchmarks, in catalog order — so a served sweep's task list is
/// identical to the batch CLI's.
fn sweep_submission(sweep: &Json, cfg: &SystemConfig) -> Result<Vec<Task>, String> {
    let input = match sweep.get("input") {
        Some(v) => parse_input_any(v.as_str().unwrap_or(""))
            .ok_or_else(|| "sweep input must be \"small\" or \"big\"".to_string())?,
        None => InputSize::Small,
    };
    let ds_mode = match sweep.get("mode") {
        Some(v) => match v.as_str().and_then(parse_mode_any) {
            Some(Mode::Ccsm) | None => {
                return Err("sweep mode must be \"ds\" or \"ds-only\"".into());
            }
            Some(mode) => mode,
        },
        None => Mode::DirectStore,
    };
    let codes: Option<Vec<String>> = match sweep.get("bench") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let list = v.as_arr().ok_or("sweep bench must be an array of codes")?;
            let codes: Vec<String> = list
                .iter()
                .map(|c| {
                    c.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "sweep bench entries must be strings".to_string())
                })
                .collect::<Result<_, _>>()?;
            for code in &codes {
                if catalog::by_code(code).is_none() {
                    return Err(format!("unknown benchmark code {code:?} (see Table II)"));
                }
            }
            Some(codes)
        }
    };
    Ok(sweep_tasks(cfg, input, ds_mode, |b| {
        codes
            .as_ref()
            .is_none_or(|codes| codes.iter().any(|c| c == b.code()))
    }))
}

/// Applies `"config"` overrides onto the paper-default configuration.
/// The accepted keys are the scalar knobs the ablation binaries sweep;
/// anything else is rejected so typos fail loudly instead of silently
/// simulating the default.
fn config_from(overrides: Option<&Json>) -> Result<SystemConfig, String> {
    let mut cfg = SystemConfig::paper_default();
    let Some(overrides) = overrides else {
        return Ok(cfg);
    };
    let Json::Obj(fields) = overrides else {
        return Err("\"config\" must be an object".into());
    };
    for (key, value) in fields {
        let as_usize = || {
            value
                .as_u64()
                .map(|v| v as usize)
                .ok_or_else(|| format!("config {key:?} needs a non-negative integer"))
        };
        let as_u64 = || {
            value
                .as_u64()
                .ok_or_else(|| format!("config {key:?} needs a non-negative integer"))
        };
        let as_bool = || match value {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("config {key:?} needs a boolean")),
        };
        match key.as_str() {
            "sms" => cfg.sms = as_usize()?,
            "warps_per_sm" => cfg.warps_per_sm = as_usize()?,
            "store_buffer_entries" => cfg.store_buffer_entries = as_usize()?,
            "store_drain_parallelism" => cfg.store_drain_parallelism = as_usize()?,
            "tlb_entries" => cfg.tlb_entries = as_usize()?,
            "gpu_tlb_entries" => cfg.gpu_tlb_entries = as_usize()?,
            "direct_hop_latency" => cfg.direct_hop_latency = as_u64()?,
            "coh_hop_latency" => cfg.coh_hop_latency = as_u64()?,
            "gpu_l2_prefetch" => cfg.gpu_l2_prefetch = as_bool()?,
            "directory_filter" => cfg.directory_filter = as_bool()?,
            other => return Err(format!("unknown config override {other:?}")),
        }
    }
    cfg.validate()?;
    Ok(cfg)
}

/// Builds a [`FaultPlan`] from the compact `ds chaos`-style shape:
/// `{"net": "direct|coh|gpu|dram", "kind": "drop|dup|delay",
/// "rate": N, "seed": S}`.
fn faults_from(faults: Option<&Json>) -> Result<Option<FaultPlan>, String> {
    let Some(faults) = faults else {
        return Ok(None);
    };
    if matches!(faults, Json::Null) {
        return Ok(None);
    }
    let rate = faults
        .get("rate")
        .and_then(Json::as_u64)
        .ok_or("faults need a \"rate\" in 0..=65535")?;
    let rate = u16::try_from(rate).map_err(|_| "fault rate must fit 0..=65535".to_string())?;
    let seed = faults.get("seed").and_then(Json::as_u64).unwrap_or(1);
    let net = faults.get("net").and_then(Json::as_str).unwrap_or("direct");
    let kind = faults.get("kind").and_then(Json::as_str).unwrap_or("drop");
    let net = FaultNet::parse(net).ok_or_else(|| format!("unknown fault net {net:?}"))?;
    let kind = FaultKind::parse(kind).ok_or_else(|| format!("unknown fault kind {kind:?}"))?;
    Ok(Some(FaultPlan::single(seed, net, kind, rate)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeOptions;

    fn get_metrics(query: &str, accept: &str) -> Request {
        Request {
            method: "GET".into(),
            path: "/metrics".into(),
            query: query.into(),
            accept: accept.into(),
            idempotency: String::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn metrics_negotiates_json_and_prometheus() {
        let state = crate::server::ServeState::new(ServeOptions::default());
        state.with_metrics(|m| {
            m.submit.record(120);
            m.submit.record(9000);
            m.status.record(3);
        });

        // Default: JSON that parses and carries the gauges.
        let response = handle(&state, &get_metrics("", ""));
        assert_eq!(response.status, 200);
        assert_eq!(response.content_type, "application/json");
        let doc = json::parse(&response.body).expect("JSON shape parses");
        assert!(doc.get("queue_depth").and_then(Json::as_u64).is_some());
        assert!(doc.get("store").and_then(|s| s.get("hit_rate")).is_some());

        // Prometheus via query param and via Accept header.
        for request in [
            get_metrics("format=prom", ""),
            get_metrics("verbose=1&format=prom", ""),
            get_metrics("", "text/plain"),
        ] {
            let response = handle(&state, &request);
            assert_eq!(response.status, 200);
            assert_eq!(response.content_type, "text/plain; version=0.0.4");
            assert_prometheus_parses(&response.body);
        }

        // `Accept: application/json` stays JSON.
        let response = handle(&state, &get_metrics("", "application/json"));
        assert_eq!(response.content_type, "application/json");
        json::parse(&response.body).expect("still JSON");
    }

    /// A line-level parse of the exposition format: every non-comment
    /// line is `name[{labels}] value`, every histogram's buckets are
    /// cumulative and reconcile with `_count`.
    fn assert_prometheus_parses(body: &str) {
        let mut seen = 0;
        for line in body.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment line {line:?}"
                );
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!name.is_empty());
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("unparseable sample value {value:?} on line {line:?}"));
            seen += 1;
        }
        assert!(seen > 10, "exposition suspiciously small: {seen} samples");
        for metric in ["dsserve_queue_depth", "dsserve_store_hit_rate"] {
            assert!(body.contains(&format!("\n{metric} ")), "missing {metric}");
        }
        // The recorded submit latencies surface as a histogram whose
        // +Inf bucket equals its count.
        let needle = "dsserve_http_submit_us_bucket{le=\"+Inf\"} 2";
        assert!(
            body.contains(needle),
            "missing cumulative bucket {needle:?}"
        );
        assert!(body.contains("dsserve_http_submit_us_count 2"));
        assert!(body.contains("dsserve_http_submit_us_sum 9120"));
        let mut last = 0u64;
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("dsserve_http_submit_us_bucket{le=\"") {
                let count: u64 = rest.rsplit_once(' ').unwrap().1.parse().unwrap();
                assert!(count >= last, "buckets must be cumulative: {line:?}");
                last = count;
            }
        }
        assert_eq!(last, 2, "+Inf bucket carries every sample");
    }

    #[test]
    fn sweep_submissions_match_the_batch_planner() {
        let body = br#"{"sweep": {"bench": ["VA", "MM"], "input": "small", "mode": "ds"}}"#;
        let tasks = parse_submission(body).unwrap();
        let batch = sweep_tasks(
            &SystemConfig::paper_default(),
            InputSize::Small,
            Mode::DirectStore,
            |b| ["VA", "MM"].contains(&b.code()),
        );
        assert_eq!(tasks.len(), batch.len());
        for (a, b) in tasks.iter().zip(&batch) {
            assert_eq!(a.key(), b.key(), "served sweep plans the batch task list");
        }
    }

    #[test]
    fn explicit_tasks_and_overrides_parse() {
        let body = br#"{
            "tasks": [{"bench": "VA", "input": "big", "mode": "ds-only"}],
            "config": {"sms": 8, "gpu_l2_prefetch": true},
            "faults": {"net": "direct", "kind": "delay", "rate": 512, "seed": 7}
        }"#;
        let tasks = parse_submission(body).unwrap();
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].cfg.sms, 8);
        assert!(tasks[0].cfg.gpu_l2_prefetch);
        assert_eq!(tasks[0].input, InputSize::Big);
        assert_eq!(tasks[0].mode, Mode::DirectStoreOnly);
        assert_eq!(tasks[0].faults.seed, 7);
        assert_eq!(tasks[0].faults.direct_net.delay, 512);
        assert_ne!(tasks[0].key().fault_fp, 0, "fault plan is part of identity");
    }

    #[test]
    fn bad_submissions_fail_loudly() {
        for (body, needle) in [
            (&br#"{"tasks": []}"#[..], None),
            (br#"{"sweep": {"mode": "ccsm"}}"#, Some("ds")),
            (br#"{"tasks": [{"bench": "NOPE", "input": "small", "mode": "ds"}]}"#, Some("NOPE")),
            (br#"{"config": {"typo_knob": 1}, "tasks": [{"bench": "VA", "input": "small", "mode": "ds"}]}"#, Some("typo_knob")),
            (br#"{"faults": {"net": "marsnet", "rate": 1}, "sweep": {}}"#, Some("marsnet")),
            (br#"{"faults": {"net": "dram", "kind": "bogus", "rate": 1}, "sweep": {}}"#, Some("unknown fault kind")),
            (br#"not json"#, None),
            (br#"{}"#, Some("tasks")),
        ] {
            let result = parse_submission(body);
            match (body.first(), needle) {
                // An empty task list parses here; admission rejects it.
                (Some(b'{'), None) if body.starts_with(br#"{"tasks": []}"#) => {
                    assert_eq!(result.unwrap().len(), 0);
                }
                (_, Some(needle)) => {
                    let err = result.unwrap_err();
                    assert!(err.contains(needle), "{err:?} should mention {needle:?}");
                }
                _ => {
                    result.unwrap_err();
                }
            }
        }
    }
}
