//! End-to-end service tests over real loopback TCP: concurrent
//! submitters sharing one computation, duplicate tasks within a job,
//! timed-out tasks, cross-instance disk-cache reuse, deterministic
//! rejection, and the `ds run`-equivalence fold.

use std::time::Duration;

use ds_core::{InputSize, Mode, SystemConfig};
use ds_runner::json::Json;
use ds_runner::Runner;
use ds_serve::client::{self, SubmitAnswer};
use ds_serve::http::{client_request, Request};
use ds_serve::{api, ServeOptions, ServeState, Server};

fn mem_options() -> ServeOptions {
    ServeOptions {
        workers: 2,
        handlers: 2,
        queue_limit: 8,
        cache_dir: None,
        ..ServeOptions::default()
    }
}

fn start(options: ServeOptions) -> (Server, String) {
    let server = Server::start(options, "127.0.0.1:0").expect("bind loopback");
    let url = format!("http://{}", server.addr());
    (server, url)
}

/// Submits `body` as one job, waits, and returns the results doc.
fn run_job(url: &str, body: &str) -> Json {
    let SubmitAnswer::Accepted { id, .. } = client::submit(url, body).unwrap() else {
        panic!("submission rejected");
    };
    client::wait_done(url, id, Duration::from_secs(300)).unwrap();
    client::fetch_results(url, id).unwrap()
}

/// Submits the VA small sweep, waits, and returns the results doc.
fn run_va_sweep(url: &str) -> Json {
    let body = client::sweep_body(
        Some(&["VA".to_string()]),
        InputSize::Small,
        Mode::DirectStore,
    );
    let SubmitAnswer::Accepted { id, tasks } = client::submit(url, &body).unwrap() else {
        panic!("submission rejected");
    };
    assert_eq!(tasks, 2, "VA sweep is one CCSM+DS pair");
    client::wait_done(url, id, Duration::from_secs(300)).unwrap();
    client::fetch_results(url, id).unwrap()
}

/// One string field of every result row, in task order.
fn column(results: &Json, field: &str) -> Vec<String> {
    results
        .get("results")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|row| row.get(field).and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn provenances(results: &Json) -> Vec<String> {
    column(results, "provenance")
}

fn shutdown(url: &str, server: Server) {
    let (status, _) = client_request(
        url,
        "POST",
        "/shutdown",
        Some("{}"),
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(status, 200);
    server.wait();
}

#[test]
fn concurrent_submitters_share_one_computation_bit_identically() {
    let (server, url) = start(mem_options());

    // Two racing submitters, same two TaskKeys.
    let (doc_a, doc_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run_va_sweep(&url));
        let b = scope.spawn(|| run_va_sweep(&url));
        (a.join().unwrap(), b.join().unwrap())
    });

    // Bit-identical folds: the shared store makes job identity
    // invisible in the payload.
    let cfg = SystemConfig::paper_default();
    let fold = |doc: &Json| {
        client::sweep_doc(&cfg, InputSize::Small, Mode::DirectStore, doc)
            .unwrap()
            .doc
    };
    assert_eq!(fold(&doc_a), fold(&doc_b), "racing submitters diverged");

    // Each unique key computed exactly once across both jobs; the
    // accounting reconciles exactly.
    let stats = server.state().store.stats();
    assert_eq!(stats.requests, 4, "{stats:?}");
    assert_eq!(stats.misses, 2, "two unique tasks => two computations");
    assert_eq!(stats.hits, 2, "the other two requests were served");
    assert!(stats.reconciles(), "{stats:?}");
    let all: Vec<String> = provenances(&doc_a)
        .into_iter()
        .chain(provenances(&doc_b))
        .collect();
    let computed = all.iter().filter(|p| *p == "computed").count();
    assert_eq!(computed, 2, "one computation per unique key: {all:?}");

    shutdown(&url, server);
}

#[test]
fn identical_tasks_in_one_job_compute_once_and_repeat_as_hits() {
    let (server, url) = start(mem_options());
    let body = r#"{"tasks": [
        {"bench": "VA", "input": "small", "mode": "ds"},
        {"bench": "VA", "input": "small", "mode": "ds"}
    ]}"#;
    let first = provenances(&run_job(&url, body));
    assert_eq!(first.len(), 2, "{first:?}");
    let computed = first.iter().filter(|p| *p == "computed").count();
    assert_eq!(computed, 1, "the duplicate coalesces or hits: {first:?}");
    let repeat = provenances(&run_job(&url, body));
    assert_eq!(repeat, ["hit", "hit"], "a repeat job is all store hits");

    let stats = server.state().store.stats();
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!(
        (stats.requests, stats.misses, stats.hits),
        (4, 1, 3),
        "{stats:?}"
    );
    shutdown(&url, server);
}

#[test]
fn timed_out_tasks_report_computed_and_are_never_memoized() {
    let (server, url) = start(ServeOptions {
        task_timeout: Some(Duration::ZERO),
        ..mem_options()
    });
    let body = r#"{"tasks": [{"bench": "VA", "input": "small", "mode": "ds"}]}"#;
    // The resubmission computes again: a failure never enters the
    // store.
    for attempt in 1..=2 {
        let results = run_job(&url, body);
        assert_eq!(column(&results, "outcome"), ["timed-out"]);
        assert_eq!(provenances(&results), ["computed"]);
        let stats = server.state().store.stats();
        assert!(stats.reconciles(), "{stats:?}");
        assert_eq!(
            (stats.requests, stats.misses, stats.failed),
            (attempt, attempt, attempt),
            "{stats:?}"
        );
    }
    assert!(server.state().store.is_empty());
    shutdown(&url, server);
}

#[test]
fn served_results_match_the_batch_runner_byte_for_byte() {
    let (server, url) = start(mem_options());
    let results = run_va_sweep(&url);
    let cfg = SystemConfig::paper_default();
    let served = client::sweep_doc(&cfg, InputSize::Small, Mode::DirectStore, &results)
        .unwrap()
        .doc;

    // The same sweep, straight through the batch runner.
    let comparisons = Runner::new()
        .jobs(1)
        .progress(false)
        .sweep(&cfg, InputSize::Small, Mode::DirectStore, |b| {
            use ds_core::Scenario as _;
            b.code() == "VA"
        })
        .unwrap();
    let batch = Json::Obj(vec![
        (
            "fingerprint".into(),
            Json::Str(format!("{:016x}", Runner::fingerprint(&cfg))),
        ),
        ("mode".into(), Json::Str(Mode::DirectStore.to_string())),
        (
            "comparisons".into(),
            Json::Arr(
                comparisons
                    .iter()
                    .map(ds_runner::report::comparison_to_json)
                    .collect(),
            ),
        ),
    ])
    .pretty();
    assert_eq!(served, batch, "service and batch runner diverged");
    shutdown(&url, server);
}

#[test]
fn disk_cache_is_shared_across_server_instances() {
    let dir = std::env::temp_dir().join(format!("dsserve-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = || ServeOptions {
        cache_dir: Some(dir.clone()),
        ..mem_options()
    };

    // First instance computes and persists.
    let (server_a, url_a) = start(options());
    let doc_a = run_va_sweep(&url_a);
    assert_eq!(server_a.state().store.stats().misses, 2);
    shutdown(&url_a, server_a);

    // A fresh instance (fresh memo) serves the same sweep from disk:
    // zero computations, identical payload.
    let (server_b, url_b) = start(options());
    let doc_b = run_va_sweep(&url_b);
    let stats = server_b.state().store.stats();
    assert_eq!(stats.misses, 0, "disk cache was not reused: {stats:?}");
    assert_eq!(stats.hits, 2, "{stats:?}");
    assert!(
        provenances(&doc_b).iter().all(|p| p == "hit"),
        "{:?}",
        provenances(&doc_b)
    );
    let cfg = SystemConfig::paper_default();
    let fold = |doc: &Json| {
        client::sweep_doc(&cfg, InputSize::Small, Mode::DirectStore, doc)
            .unwrap()
            .doc
    };
    assert_eq!(fold(&doc_a), fold(&doc_b), "cache replay diverged");
    shutdown(&url_b, server_b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saturation_answers_429_and_shutdown_answers_429() {
    // No worker pool: drive the API directly so admission state is
    // fully deterministic (nothing ever completes).
    let state = ServeState::new(ServeOptions {
        queue_limit: 1,
        cache_dir: None,
        ..ServeOptions::default()
    });
    let submit = Request {
        method: "POST".into(),
        path: "/jobs".into(),
        query: String::new(),
        accept: String::new(),
        idempotency: String::new(),
        body: br#"{"tasks": [{"bench": "VA", "input": "small", "mode": "ds"}]}"#.to_vec(),
    };
    assert_eq!(api::handle(&state, &submit).status, 200);
    let rejected = api::handle(&state, &submit);
    assert_eq!(rejected.status, 429, "{}", rejected.body);
    assert!(rejected.body.contains("queue full"), "{}", rejected.body);
    assert!(rejected.body.contains("queue_limit"), "{}", rejected.body);

    state.queue.shutdown();
    let refused = api::handle(&state, &submit);
    assert_eq!(refused.status, 429, "{}", refused.body);
    assert!(refused.body.contains("shutting down"), "{}", refused.body);

    let empty = Request {
        body: br#"{"tasks": []}"#.to_vec(),
        ..submit
    };
    assert_eq!(api::handle(&state, &empty).status, 400);
}

/// The live `/jobs/<id>/events` stream on a pulsed job: pulse-window
/// lines for a task all precede that task's `task-done` (which carries
/// the pulse summary), the stream is bounded by the downsampler, and
/// the close delimiter is the final line. The consumer sleeps between
/// lines so the server keeps streaming into a lagging client.
#[test]
fn events_stream_interleaves_pulse_windows_and_closes_cleanly() {
    let (server, url) = start(mem_options());
    let body = client::sweep_body_pulsed(
        Some(&["VA".to_string()]),
        InputSize::Small,
        Mode::DirectStore,
        Some(1000),
    );
    let SubmitAnswer::Accepted { id, tasks } = client::submit(&url, &body).unwrap() else {
        panic!("submission rejected");
    };
    assert_eq!(tasks, 2, "VA sweep is one CCSM+DS pair");

    let mut lines: Vec<Json> = Vec::new();
    let status = client::watch(&url, id, |line| {
        std::thread::sleep(Duration::from_millis(1)); // slow consumer
        lines.push(ds_runner::json::parse(line).expect("every event line is JSON"));
    })
    .unwrap();
    assert_eq!(status, 200);

    let event = |doc: &Json| {
        doc.get("event")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    let task_of = |doc: &Json| doc.get("task").and_then(Json::as_u64);

    // Clean close delimiter: exactly one `done`, and it is last.
    let dones: Vec<usize> = (0..lines.len())
        .filter(|&i| event(&lines[i]) == "done")
        .collect();
    assert_eq!(dones, vec![lines.len() - 1], "done must be the last line");

    let mut sm_ops_total = 0u64;
    for task in 0..tasks {
        let windows: Vec<usize> = (0..lines.len())
            .filter(|&i| event(&lines[i]) == "pulse-window" && task_of(&lines[i]) == Some(task))
            .collect();
        let done_at = (0..lines.len())
            .find(|&i| event(&lines[i]) == "task-done" && task_of(&lines[i]) == Some(task))
            .unwrap_or_else(|| panic!("task {task} never finished"));
        assert!(!windows.is_empty(), "task {task} streamed no pulse windows");
        assert!(
            windows.len() <= ds_serve::server::PULSE_STREAM_WINDOWS,
            "stream not bounded: {} windows",
            windows.len()
        );
        assert!(
            windows.iter().all(|&i| i < done_at),
            "task {task}: pulse windows must precede its task-done"
        );
        // Windows arrive in cycle order and cover disjoint spans.
        let mut last_end = 0u64;
        for &i in &windows {
            let start = lines[i].get("start").and_then(Json::as_u64).unwrap();
            let end = lines[i].get("end").and_then(Json::as_u64).unwrap();
            assert!(start >= last_end && end > start, "windows out of order");
            last_end = end;
            sm_ops_total += lines[i].get("sm_ops").and_then(Json::as_u64).unwrap();
        }
        // The task summary carries the full (pre-downsampling) count.
        let summary = &lines[done_at];
        let full = summary.get("pulse_windows").and_then(Json::as_u64).unwrap();
        assert!(full >= windows.len() as u64, "{full} < {}", windows.len());
        assert!(summary.get("pulse_anomalies").is_some());
    }
    assert!(sm_ops_total > 0, "a VA run must stream SM work");

    // The worker published last-window gauges for /metrics: JSON...
    let (status, text) =
        client_request(&url, "GET", "/metrics", None, Duration::from_secs(10)).unwrap();
    assert_eq!(status, 200);
    let metrics = ds_runner::json::parse(&text).unwrap();
    let pulse = metrics.get("pulse").expect("metrics carry a pulse key");
    assert!(
        pulse.get("windows").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "pulse gauges absent after a pulsed job: {text}"
    );
    // ...and Prometheus exposition.
    let prom = api::handle(
        server.state(),
        &Request {
            method: "GET".into(),
            path: "/metrics".into(),
            query: String::new(),
            accept: "text/plain".into(),
            idempotency: String::new(),
            body: Vec::new(),
        },
    );
    assert_eq!(prom.status, 200);
    assert!(
        prom.body.contains("dsserve_pulse_window_cycles"),
        "{}",
        prom.body
    );

    shutdown(&url, server);
}

/// A quiet stream emits heartbeats at the configured cadence, and a
/// service shutdown closes the stream without a `done` delimiter (the
/// job never completed). Driven against a worker-less state so the
/// job stays queued forever and the stream stays quiet by
/// construction; the consumer reads slowly to prove buffered
/// heartbeats still arrive in order.
#[test]
fn quiet_event_streams_heartbeat_at_the_configured_cadence() {
    use std::io::{BufRead, BufReader};

    let state = ServeState::new(ServeOptions {
        queue_limit: 4,
        cache_dir: None,
        heartbeat: Duration::from_secs(1),
        ..ServeOptions::default()
    });
    let submit = Request {
        method: "POST".into(),
        path: "/jobs".into(),
        query: String::new(),
        accept: String::new(),
        idempotency: String::new(),
        body: br#"{"tasks": [{"bench": "VA", "input": "small", "mode": "ds"}], "pulse": 1000}"#
            .to_vec(),
    };
    let accepted = api::handle(&state, &submit);
    assert_eq!(accepted.status, 200, "{}", accepted.body);
    let id = ds_runner::json::parse(&accepted.body)
        .unwrap()
        .get("job")
        .and_then(Json::as_u64)
        .unwrap();

    // Serve exactly one raw connection with the real stream handler.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let state = state.clone();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            api::stream_events(&state, &mut stream, id, 0)
        })
    };

    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    // Skip the HTTP response head.
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line == "\r\n" || line == "\n" {
            break;
        }
        assert!(!line.is_empty(), "header section never ended");
    }

    // Three heartbeats, read lazily (slow consumer).
    let mut beats: Vec<u64> = Vec::new();
    while beats.len() < 3 {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "stream ended early"
        );
        std::thread::sleep(Duration::from_millis(100));
        let doc = ds_runner::json::parse(line.trim()).unwrap();
        let event = doc.get("event").and_then(Json::as_str).unwrap();
        assert_ne!(event, "done", "queued job must not complete");
        if event == "heartbeat" {
            assert_eq!(doc.get("job").and_then(Json::as_u64), Some(id));
            beats.push(doc.get("t_us").and_then(Json::as_u64).unwrap());
        }
    }
    // Cadence: ~1s apart (two 500ms quiet polls), with generous slop
    // for a loaded machine but tight enough to catch a 10s default.
    for pair in beats.windows(2) {
        let gap = pair[1].saturating_sub(pair[0]);
        assert!(
            (800_000..5_000_000).contains(&gap),
            "heartbeat gap {gap}us is off-cadence"
        );
    }

    // Shutdown ends the stream with no done line: the job never ran.
    ds_serve::server::request_shutdown(&state);
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            break; // clean EOF, no delimiter
        }
        let doc = ds_runner::json::parse(line.trim()).unwrap();
        assert_ne!(
            doc.get("event").and_then(Json::as_str),
            Some("done"),
            "an aborted stream must not claim completion"
        );
    }
    server.join().unwrap();
}

/// One seeded fault sweep, both telemetry surfaces: a submission that
/// combines a `ds chaos`-style fault plan with a pulse window streams the
/// detected anomalies live on `/jobs/<id>/events`, and the served
/// report carries the same anomaly list (anomaly lines are never
/// downsampled, so the counts must match exactly).
#[test]
fn faulted_pulsed_jobs_stream_the_anomalies_the_report_carries() {
    let (server, url) = start(mem_options());
    // Same plan as the `ds pulse` CLI smoke: delaying the direct net
    // forces push retries without deadlocking the VA readback.
    let body = r#"{"tasks": [{"bench": "VA", "input": "small", "mode": "ds"}],
                   "pulse": 1000,
                   "faults": {"net": "direct", "kind": "delay", "rate": 32000, "seed": 7}}"#;
    let SubmitAnswer::Accepted { id, tasks } = client::submit(&url, body).unwrap() else {
        panic!("submission rejected");
    };
    assert_eq!(tasks, 1);

    let known = [
        "stall-storm",
        "retry-burst",
        "utilization-cliff",
        "livelock-precursor",
    ];
    let mut streamed: Vec<(String, u64, u64)> = Vec::new();
    let mut summary_count = None;
    client::watch(&url, id, |line| {
        let doc = ds_runner::json::parse(line).expect("every event line is JSON");
        match doc.get("event").and_then(Json::as_str) {
            Some("pulse-anomaly") => {
                let kind = doc.get("kind").and_then(Json::as_str).unwrap().to_string();
                assert!(known.contains(&kind.as_str()), "unknown detector {kind:?}");
                streamed.push((
                    kind,
                    doc.get("start").and_then(Json::as_u64).unwrap(),
                    doc.get("end").and_then(Json::as_u64).unwrap(),
                ));
            }
            Some("task-done") => {
                summary_count = doc.get("pulse_anomalies").and_then(Json::as_u64);
            }
            _ => {}
        }
    })
    .unwrap();
    assert!(
        !streamed.is_empty(),
        "a 32000/65535 direct-net delay rate must trip a detector"
    );
    assert_eq!(summary_count, Some(streamed.len() as u64));

    let results = client::fetch_results(&url, id).unwrap();
    let row = &results.get("results").and_then(Json::as_arr).unwrap()[0];
    let reported: Vec<(String, u64, u64)> = row
        .get("report")
        .and_then(|r| r.get("pulse"))
        .and_then(|p| p.get("anomalies"))
        .and_then(Json::as_arr)
        .expect("faulted pulsed report carries an anomaly list")
        .iter()
        .map(|a| {
            (
                a.get("kind").and_then(Json::as_str).unwrap().to_string(),
                a.get("start").and_then(Json::as_u64).unwrap(),
                a.get("end").and_then(Json::as_u64).unwrap(),
            )
        })
        .collect();
    assert_eq!(streamed, reported, "stream and report must agree");

    shutdown(&url, server);
}

#[test]
fn unknown_routes_and_bad_bodies_are_4xx() {
    let state = ServeState::new(ServeOptions {
        cache_dir: None,
        ..ServeOptions::default()
    });
    let get = |path: &str| {
        api::handle(
            &state,
            &Request {
                method: "GET".into(),
                path: path.into(),
                query: String::new(),
                accept: String::new(),
                idempotency: String::new(),
                body: Vec::new(),
            },
        )
    };
    assert_eq!(get("/nope").status, 404);
    assert_eq!(get("/jobs/999").status, 404);
    assert_eq!(get("/jobs/xyz").status, 400);
    assert_eq!(get("/health").status, 200);
    assert_eq!(get("/metrics").status, 200);
    let bad = api::handle(
        &state,
        &Request {
            method: "POST".into(),
            path: "/jobs".into(),
            query: String::new(),
            accept: String::new(),
            idempotency: String::new(),
            body: b"not json".to_vec(),
        },
    );
    assert_eq!(bad.status, 400);
    let wrong_method = api::handle(
        &state,
        &Request {
            method: "DELETE".into(),
            path: "/jobs".into(),
            query: String::new(),
            accept: String::new(),
            idempotency: String::new(),
            body: Vec::new(),
        },
    );
    assert_eq!(wrong_method.status, 405);
}
