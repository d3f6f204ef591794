//! `ds serve` and its client commands — simulation as a service.
//!
//! Runs the deterministic simulator behind an HTTP job API with a
//! shared content-addressed result store, and ships its own client
//! and load harness so the whole loop (submit, poll, fetch, stress,
//! audit) works from one binary with zero dependencies.
//!
//! ```text
//! ds serve    [--port N] [--addr HOST:PORT] [--port-file PATH]
//!             [--workers N] [--handlers N] [--queue-limit N]
//!             [--timeout SECS] [--cache DIR | --no-cache]
//!             [--no-journal] [--verbose]
//! ds serve --check
//! ds submit   [--url U] [--bench A,B,...] [--input small|big]
//!             [--mode ds|ds-only] [--pulse WINDOW] [--no-wait]
//!             [--expect-cached] [--wait-timeout SECS]
//!             [--retries N] [--retry-busy]
//! ds status   [--url U] JOB
//! ds results  [--url U] JOB
//! ds watch    [--url U] JOB
//! ds metrics  [--url U]
//! ds stress   [--url U] [--users N] [--ops N] [--seed S]
//!             [--bench A,B,...] [--require-hits]
//! ds drill    [--bench A,B,...] [--seed S] [--workers N]
//!             [--dir DIR] [--keep]
//! ds shutdown [--url U]
//! ```
//!
//! `submit` prints the *byte-identical* `ds run --format json`
//! document for the same sweep (CI `cmp`s them), and exits 7 — not 1
//! — when admission control answers 429, so scripts can tell an
//! explicit saturation rejection from a real failure.
//!
//! ds-anvil: `serve` keeps an append-only job journal next to the
//! result cache and replays it on startup, so a crash (or `kill -9`)
//! loses no accepted job; `drill` rehearses exactly that — crash a
//! real server mid-sweep at a seeded point, restart it, and prove
//! zero job loss, no double-compute, and byte-identical results.
//! SIGTERM/SIGINT drain through the same path as `POST /shutdown`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ds_core::{InputSize, Mode, SystemConfig};
use ds_runner::json::Json;
use ds_serve::client::{self, RetryPolicy, SubmitAnswer};
use ds_serve::http::client_request;
use ds_serve::jobs::{JobQueue, Rejection};
use ds_serve::journal::Journal;
use ds_serve::stress::{run_stress, StressOptions};
use ds_serve::{ServeOptions, Server};

use crate::cli::{fail, unknown, usage, Args, Cli, Parsed};

pub const SERVE_USAGE: &str = "usage: ds serve [options]
       ds serve --check

Runs the simulation service: an HTTP job API over the deterministic
runner with a shared content-addressed result store, until POST
/shutdown (or SIGTERM/SIGINT, which drain through the same path).
--check instead runs the service self-audit (exit 1 on violation).

options:
  --port N            port on 127.0.0.1 (default: 7878; 0 = ephemeral)
  --addr HOST:PORT    bind address (overrides --port)
  --port-file PATH    write the bound HOST:PORT to PATH once listening
  --workers N         simulation workers (default: DS_RUNNER_JOBS or
                      the machine's available parallelism)
  --handlers N        HTTP handler threads (default: 4)
  --queue-limit N     max open jobs before 429 (default: 64)
  --timeout SECS      per-task wall-clock budget (default: none)
  --cache DIR         on-disk result cache (default: results)
  --no-cache          keep the result store memory-only (also disables
                      the job journal: nothing durable to recover into)
  --no-journal        accept jobs without journaling them (no crash
                      recovery; the cache itself still persists)
  --crash-after-tasks N
                      abort() the process after N completed tasks —
                      the crash-drill hook; never use in production
  --probe-level LEVEL observability probes kept live: full (default),
                      stages, or minimal; shed levels skip
                      StageTracker/LineLens bookkeeping without
                      touching simulated cycles
  --verbose           log one line per request to stderr: span id,
                      method, path, status, bytes, duration
  --log-format F      request-log shape: text (default) or json
  --help              show this help

exit codes: 0 ok; 1 failure or audit violation; 2 usage";

pub const SUBMIT_USAGE: &str = "usage: ds submit [options]

Submits a sweep, waits, and prints the `ds run --format json` document.

options:
  --url U             server base URL (default: http://127.0.0.1:7878)
  --bench A,B,...     only these Table II codes (default: all 22)
  --input small|big   input size (default: small)
  --mode ds|ds-only   direct-store variant (default: ds)
  --pulse WINDOW      enable ds-pulse telemetry at WINDOW cycles per
                      window (the reports carry the time series; watch
                      the job for live sparklines). Pulsed documents
                      are a superset of `ds run`'s, so the byte-identity
                      contract applies to pulse-free submissions only
  --no-wait           print the job id and exit without waiting
  --expect-cached     fail (exit 1) unless every task was served
                      from cache
  --wait-timeout SECS give up waiting after this long (default: 900)
  --retries N         attempts for the submission itself (default: 3);
                      connect errors and 5xx retry with jittered
                      exponential backoff under one Idempotency-Key,
                      so a retry attaches to the job the first attempt
                      created instead of duplicating it
  --retry-busy        also retry 429 (admission refusal), honoring the
                      server's Retry-After; off by default so scripts
                      still see saturation immediately (exit 7)

exit codes: 0 ok; 1 failure; 2 usage;
7 submission explicitly rejected by admission control (429)";

pub const JOB_USAGE: &str = "usage: ds status|results|watch [--url U] JOB

status prints a job's status document, results its results document.
watch tails a job's live telemetry (span-open/close, progress, pulse
windows) until it completes: one NDJSON event per line on stdout, plus
live sparkline dashboards on stderr for tasks submitted with a pulse
window.

options:
  --url U             server base URL (default: http://127.0.0.1:7878)";

pub const URL_USAGE: &str = "usage: ds metrics|shutdown [--url U]

metrics prints the /metrics document; shutdown asks a server to shut
down cleanly.

options:
  --url U             server base URL (default: http://127.0.0.1:7878)";

pub const STRESS_USAGE: &str = "usage: ds stress [options]

Seeded virtual users against a server: ops/sec, p50/p95/p99, hit rate.

options:
  --url U             server base URL (default: http://127.0.0.1:7878)
  --users N           virtual users (default: 4)
  --ops N             HTTP ops per user (default: 32)
  --seed S            master seed (default: 1)
  --bench A,B,...     codes submissions draw from (default: VA,MM,BS)
  --require-hits      fail (exit 1) unless the run's store hit rate
                      is above zero
  --csv               print one CSV row instead of the text summary
                      (header: see scripts/serve_bench.sh)";

pub const DRILL_USAGE: &str = "usage: ds drill [options]

Crash drill: kills a real server mid-sweep at a seeded point, restarts
it, and proves zero job loss, no double-compute, and byte-identical
results.

options:
  --bench A,B,...     sweep to drill (default: VA,MM,BS); each bench
                      contributes a CCSM+DS task pair
  --input small|big   input size (default: small)
  --mode ds|ds-only   direct-store variant (default: ds)
  --seed S            picks the crash point (default: 1)
  --workers N         workers for the recovery server (default: 2;
                      the crashing server runs 1 so the crash point
                      is exact)
  --dir DIR           scratch directory (default: target/ds-drill)
  --keep              keep the scratch directory for inspection";

/// SIGTERM/SIGINT handling without any dependency: a `signal(2)`
/// handler flips an atomic flag; a monitor thread polls it and drains
/// the server through the same path as `POST /shutdown`. Poll-based
/// because a signal handler itself may only do async-signal-safe work
/// (no locks, no allocation — certainly no queue shutdown).
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// `ds serve`.
pub fn serve(mut args: Args) -> Parsed<()> {
    let mut options = ServeOptions {
        cache_dir: Some("results".into()),
        ..ServeOptions::default()
    };
    let mut port = 7878u16;
    let mut addr: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut probe_level = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--port" => port = args.parsed("--port", "a port number")?,
            "--addr" => addr = Some(args.value("--addr")?),
            "--port-file" => port_file = Some(args.value("--port-file")?),
            "--workers" => options.workers = args.parsed("--workers", "a positive integer")?,
            "--handlers" => options.handlers = args.parsed("--handlers", "a positive integer")?,
            "--queue-limit" => {
                options.queue_limit = args.parsed("--queue-limit", "a positive integer")?;
            }
            "--timeout" => {
                let secs: u64 = args.parsed("--timeout", "positive seconds")?;
                options.task_timeout = Some(Duration::from_secs(secs.max(1)));
            }
            "--cache" => options.cache_dir = Some(args.value("--cache")?.into()),
            "--no-cache" => options.cache_dir = None,
            "--no-journal" => options.journal = false,
            "--crash-after-tasks" => {
                options.crash_after_tasks =
                    Some(args.parsed("--crash-after-tasks", "a positive task count")?);
            }
            "--probe-level" => probe_level = Some(args.probe_level()?),
            "--verbose" => options.verbose = true,
            "--log-format" => {
                options.log_format = args.with(
                    "--log-format",
                    "log format",
                    ds_serve::server::LogFormat::parse,
                )?;
            }
            "--help" => return Err(Cli::Help),
            other => return unknown(other),
        }
    }
    if let Some(level) = probe_level {
        // Process-global; set before any worker simulates. The disk
        // store refuses shed-level reports, so the shared cache never
        // sees their empty stage/lens sections.
        ds_probe::prof::set_level(level);
    }
    let bind = addr.unwrap_or_else(|| format!("127.0.0.1:{port}"));
    let server =
        Server::start(options, &bind).unwrap_or_else(|e| fail(&format!("cannot bind {bind}: {e}")));
    let bound = server.addr();
    let recovery = server.state().recovery;
    if recovery.jobs > 0 {
        eprintln!(
            "ds serve: journal replay recovered {} job(s), {} task(s) ({} already done)",
            recovery.jobs, recovery.tasks, recovery.tasks_done
        );
    }
    eprintln!("ds serve: serving on http://{bound} (POST /shutdown to stop)");
    if let Some(path) = port_file {
        std::fs::write(&path, format!("{bound}\n"))
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
    }
    #[cfg(unix)]
    {
        signals::install();
        let state = std::sync::Arc::clone(server.state());
        std::thread::spawn(move || loop {
            if signals::STOP.load(std::sync::atomic::Ordering::SeqCst) {
                eprintln!("ds serve: signal received; draining and shutting down");
                ds_serve::server::request_shutdown(&state);
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        });
    }
    server.wait();
    eprintln!("ds serve: shut down cleanly");
    Ok(())
}

const DEFAULT_URL: &str = "http://127.0.0.1:7878";

/// `ds submit`.
pub fn submit(mut args: Args) -> Parsed<()> {
    let mut url = DEFAULT_URL.to_string();
    let mut codes: Option<Vec<String>> = None;
    let mut input = InputSize::Small;
    let mut mode = Mode::DirectStore;
    let mut no_wait = false;
    let mut expect_cached = false;
    let mut pulse: Option<u64> = None;
    let mut wait_timeout = Duration::from_secs(900);
    let mut policy = RetryPolicy::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--url" => url = args.value("--url")?,
            "--bench" => codes = Some(args.codes()?),
            "--input" => input = args.input()?,
            "--mode" => mode = args.sweep_mode()?,
            "--pulse" => pulse = Some(args.positive("--pulse")?),
            "--no-wait" => no_wait = true,
            "--expect-cached" => expect_cached = true,
            "--wait-timeout" => {
                wait_timeout =
                    Duration::from_secs(args.parsed("--wait-timeout", "positive seconds")?);
            }
            "--retries" => policy.attempts = args.parsed("--retries", "a positive integer")?,
            "--retry-busy" => policy.retry_busy = true,
            other => return unknown(other),
        }
    }
    let body = client::sweep_body_pulsed(codes.as_deref(), input, mode, pulse);
    let (id, tasks) = match client::submit_with_retry(&url, &body, &policy) {
        Ok(SubmitAnswer::Accepted { id, tasks }) => (id, tasks),
        Ok(SubmitAnswer::Rejected { message }) => {
            eprintln!("ds submit: submission rejected: {message}");
            std::process::exit(7);
        }
        Err(e) => fail(&e),
    };
    eprintln!("ds submit: job {id} accepted ({tasks} tasks)");
    if no_wait {
        println!("{id}");
        return Ok(());
    }
    client::wait_done(&url, id, wait_timeout).unwrap_or_else(|e| fail(&e));
    let results = client::fetch_results(&url, id).unwrap_or_else(|e| fail(&e));
    let cfg = SystemConfig::paper_default();
    let out = client::sweep_doc(&cfg, input, mode, &results).unwrap_or_else(|e| fail(&e));
    let cached = out
        .provenances
        .iter()
        .filter(|p| matches!(p.as_str(), "hit" | "coalesced"))
        .count();
    eprintln!(
        "ds submit: job {id} done; {cached}/{} tasks served from cache",
        out.provenances.len()
    );
    if expect_cached && cached != out.provenances.len() {
        fail(&format!(
            "--expect-cached: only {cached}/{} tasks were cache hits",
            out.provenances.len()
        ));
    }
    println!("{}", out.doc);
    Ok(())
}

/// `--url U` and the job id of `ds status|results|watch`.
fn url_and_job(mut args: Args) -> Parsed<(String, u64)> {
    let mut url = DEFAULT_URL.to_string();
    let mut job: Option<u64> = None;
    while let Some(arg) = args.next() {
        if arg == "--url" {
            url = args.value("--url")?;
            continue;
        }
        match arg.parse::<u64>() {
            Ok(id) => job = Some(id),
            Err(_) => return usage(format!("unknown argument {arg:?} (expected a job id)")),
        }
    }
    match job {
        Some(id) => Ok((url, id)),
        None => usage("missing job id"),
    }
}

/// `--url U`, the one flag of `ds metrics|shutdown`.
fn url_only(mut args: Args) -> Parsed<String> {
    let mut url = DEFAULT_URL.to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--url" => url = args.value("--url")?,
            other => return unknown(other),
        }
    }
    Ok(url)
}

/// `ds status`.
pub fn status(args: Args) -> Parsed<()> {
    job_doc(args, false)
}

/// `ds results`.
pub fn results(args: Args) -> Parsed<()> {
    job_doc(args, true)
}

fn job_doc(args: Args, results: bool) -> Parsed<()> {
    let (url, id) = url_and_job(args)?;
    let path = if results {
        format!("/jobs/{id}/results")
    } else {
        format!("/jobs/{id}")
    };
    let (status, text) = client_request(&url, "GET", &path, None, client::CLIENT_TIMEOUT)
        .unwrap_or_else(|e| fail(&e));
    print!("{text}");
    if status != 200 {
        std::process::exit(1);
    }
    Ok(())
}

/// `ds watch`.
pub fn watch(args: Args) -> Parsed<()> {
    let (url, id) = url_and_job(args)?;
    // Live sparkline state: `pulse-window` events accumulate per task
    // and the task's `task-done` line flushes them as a dashboard
    // block on stderr — stdout stays pure NDJSON for pipelines.
    let mut pulse: std::collections::HashMap<u64, Vec<[u64; 3]>> = std::collections::HashMap::new();
    let mut anomalies: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let status = client::watch(&url, id, |line| {
        println!("{line}");
        let Ok(doc) = ds_runner::json::parse(line) else {
            return;
        };
        let Some(task) = doc.get("task").and_then(Json::as_u64) else {
            return;
        };
        let num = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
        match doc.get("event").and_then(Json::as_str).unwrap_or("") {
            "pulse-window" => pulse.entry(task).or_default().push([
                num("sm_ops"),
                num("pushes_retried"),
                num("queue_depth"),
            ]),
            "pulse-anomaly" => *anomalies.entry(task).or_default() += 1,
            "task-done" => {
                if let Some(rows) = pulse.remove(&task) {
                    render_watch_sparklines(task, &rows, anomalies.remove(&task).unwrap_or(0));
                }
            }
            _ => {}
        }
    })
    .unwrap_or_else(|e| fail(&e));
    if status != 200 {
        std::process::exit(1);
    }
    Ok(())
}

/// One completed pulsed task's live dashboard: a sparkline per
/// streamed series, on stderr so stdout stays machine-readable.
fn render_watch_sparklines(task: u64, rows: &[[u64; 3]], anomalies: u64) {
    const SERIES: [&str; 3] = ["sm_ops", "pushes_retried", "queue_depth"];
    eprintln!(
        "ds watch: task {task} pulse ({} streamed window(s), {anomalies} anomaly(ies)):",
        rows.len()
    );
    for (i, name) in SERIES.iter().enumerate() {
        let values: Vec<u64> = rows.iter().map(|r| r[i]).collect();
        eprintln!("  {name:<15} {}", ds_probe::sparkline(&values, 60));
    }
}

/// `ds metrics`.
pub fn metrics(args: Args) -> Parsed<()> {
    let url = url_only(args)?;
    let (status, text) = client_request(&url, "GET", "/metrics", None, client::CLIENT_TIMEOUT)
        .unwrap_or_else(|e| fail(&e));
    print!("{text}");
    if status != 200 {
        std::process::exit(1);
    }
    Ok(())
}

/// `ds stress`.
pub fn stress(mut args: Args) -> Parsed<()> {
    let mut url = DEFAULT_URL.to_string();
    let mut options = StressOptions::default();
    let mut require_hits = false;
    let mut csv = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--url" => url = args.value("--url")?,
            "--users" => options.users = args.parsed("--users", "a positive integer")?,
            "--ops" => options.ops = args.parsed("--ops", "a positive integer")?,
            "--seed" => options.seed = args.parsed("--seed", "an integer")?,
            "--bench" => options.codes = args.codes()?,
            "--require-hits" => require_hits = true,
            "--csv" => csv = true,
            other => return unknown(other),
        }
    }
    let summary = run_stress(&url, &options).unwrap_or_else(|e| fail(&e));
    if csv {
        println!("{}", summary.csv_row());
    } else {
        println!("{summary}");
    }
    if summary.errors > 0 {
        fail(&format!(
            "{} transport errors during stress",
            summary.errors
        ));
    }
    if require_hits && !(summary.store_requests > 0 && summary.store_hits > 0) {
        fail("--require-hits: the run produced no store cache hits");
    }
    Ok(())
}

/// Spawns a real `ds serve` child (this same binary) on an
/// ephemeral port, optionally armed to crash after `crash_after`
/// completed tasks. Stderr is inherited so the child's lifecycle
/// lines narrate the drill.
fn spawn_server(
    cache: &Path,
    port_file: &Path,
    workers: usize,
    crash_after: Option<u64>,
) -> std::process::Child {
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| fail(&format!("cannot locate the ds binary: {e}")));
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("serve")
        .arg("--port")
        .arg("0")
        .arg("--port-file")
        .arg(port_file)
        .arg("--cache")
        .arg(cache)
        .arg("--workers")
        .arg(workers.to_string())
        .arg("--handlers")
        .arg("2")
        .stdout(std::process::Stdio::null());
    if let Some(k) = crash_after {
        cmd.arg("--crash-after-tasks").arg(k.to_string());
    }
    cmd.spawn()
        .unwrap_or_else(|e| fail(&format!("cannot spawn drill server: {e}")))
}

/// Polls for the child's port file; fails fast if the child dies
/// before it ever listens.
fn wait_port(port_file: &Path, child: &mut std::process::Child) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            let addr = text.trim();
            if !addr.is_empty() {
                return format!("http://{addr}");
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            fail(&format!("drill server exited before listening: {status}"));
        }
        if Instant::now() >= deadline {
            fail("drill server did not write its port file within 30s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The seeded crash drill: crash a real server mid-sweep, restart it
/// on the same cache directory, and prove the ds-anvil guarantees —
/// zero job loss (original id still polls), no double-compute (tasks
/// done before the crash rehydrate as store hits), and byte-identical
/// folded results.
/// `ds drill`.
pub fn drill(mut args: Args) -> Parsed<()> {
    let mut codes: Vec<String> = ["VA", "MM", "BS"].map(str::to_string).to_vec();
    let mut input = InputSize::Small;
    let mut mode = Mode::DirectStore;
    let mut seed = 1u64;
    let mut workers = 2usize;
    let mut dir = PathBuf::from("target/ds-drill");
    let mut keep = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => codes = args.codes()?,
            "--input" => input = args.input()?,
            "--mode" => mode = args.sweep_mode()?,
            "--seed" => seed = args.parsed("--seed", "an integer")?,
            "--workers" => workers = args.parsed("--workers", "a positive integer")?,
            "--dir" => dir = args.value("--dir")?.into(),
            "--keep" => keep = true,
            other => return unknown(other),
        }
    }
    // Each bench submits a CCSM+DS task pair, so even one bench gives
    // the drill a mid-sweep crash point.
    let total = 2 * codes.len() as u64;
    let mut ok = true;
    let mut check = |name: &str, pass: bool, detail: &str| {
        if pass {
            eprintln!("ds drill: ok   {name}");
        } else {
            eprintln!("ds drill: FAIL {name}: {detail}");
        }
        ok &= pass;
    };

    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", cache.display())));
    let port_file = dir.join("port");
    // Seeded crash point: after k of the sweep's tasks, 1 <= k < total,
    // so the job is always mid-flight when the process dies.
    let k = 1 + ds_runner::fnv1a(format!("ds-drill-{seed}").as_bytes()) % (total - 1);
    let body = client::sweep_body(Some(&codes), input, mode);

    // Phase 1: a 1-worker server (so the crash point is exact) armed
    // to abort() — no destructors, no flushes; the worst honest crash.
    eprintln!("ds drill: phase 1 — crash after {k}/{total} task(s)");
    let mut child = spawn_server(&cache, &port_file, 1, Some(k));
    let url = wait_port(&port_file, &mut child);
    let id = match client::submit(&url, &body) {
        Ok(SubmitAnswer::Accepted { id, .. }) => id,
        other => fail(&format!("drill submit: unexpected answer {other:?}")),
    };
    let status = child
        .wait()
        .unwrap_or_else(|e| fail(&format!("waiting for the crashing server: {e}")));
    check(
        "server crashed as planned",
        !status.success(),
        &format!("exited cleanly ({status}) despite --crash-after-tasks"),
    );

    // The journal on disk must already tell the whole story.
    let peeked = Journal::peek(&cache);
    let done = peeked.tasks_done();
    check(
        "journal holds the unfinished job",
        peeked.jobs.len() == 1
            && peeked.jobs[0].id == id
            && peeked.jobs[0].tasks.len() == total as usize,
        &format!(
            "jobs={} (expected job {id} with {total} tasks)",
            peeked.jobs.len()
        ),
    );
    check(
        "journal saw exactly the pre-crash completions",
        done == k as usize,
        &format!("{done} task-done record(s), expected {k}"),
    );

    // Phase 2: restart on the same cache directory; the journal
    // replays, the job keeps its id, and pre-crash tasks rehydrate
    // from the disk cache instead of recomputing.
    eprintln!("ds drill: phase 2 — restart and recover");
    let _ = std::fs::remove_file(&port_file);
    let mut child = spawn_server(&cache, &port_file, workers, None);
    let url = wait_port(&port_file, &mut child);
    client::wait_done(&url, id, Duration::from_secs(300))
        .unwrap_or_else(|e| fail(&format!("recovered job {id} never finished: {e}")));
    let results = client::fetch_results(&url, id).unwrap_or_else(|e| fail(&e));
    let cfg = SystemConfig::paper_default();
    let recovered = client::sweep_doc(&cfg, input, mode, &results)
        .unwrap_or_else(|e| fail(&format!("folding recovered results: {e}")));
    let hits = recovered
        .provenances
        .iter()
        .filter(|p| p.as_str() == "hit")
        .count();
    check(
        "pre-crash tasks rehydrated from cache (no double-compute)",
        hits == done,
        &format!("{hits} hit(s), expected {done}"),
    );

    let metrics_doc = match client_request(&url, "GET", "/metrics", None, client::CLIENT_TIMEOUT) {
        Ok((200, text)) => ds_runner::json::parse(&text)
            .unwrap_or_else(|e| fail(&format!("bad /metrics JSON: {e}"))),
        other => fail(&format!("GET /metrics: {other:?}")),
    };
    let num = |path: &[&str]| {
        let mut node = Some(&metrics_doc);
        for key in path {
            node = node.and_then(|n| n.get(key));
        }
        node.and_then(Json::as_u64).unwrap_or(u64::MAX)
    };
    check(
        "store accounting reconciles the recovery",
        num(&["store", "requests"]) == total
            && num(&["store", "hits"]) == done as u64
            && num(&["store", "misses"]) == total - done as u64,
        &format!(
            "requests={} hits={} misses={} (expected {total}/{done}/{})",
            num(&["store", "requests"]),
            num(&["store", "hits"]),
            num(&["store", "misses"]),
            total - done as u64
        ),
    );
    check(
        "/metrics reports the recovery",
        num(&["journal", "recovered_jobs"]) == 1
            && num(&["journal", "recovered_tasks"]) == total
            && num(&["journal", "recovered_tasks_done"]) == done as u64
            && num(&["recovering"]) == 0,
        &format!(
            "journal={:?} recovering={}",
            metrics_doc.get("journal"),
            num(&["recovering"])
        ),
    );

    // Phase 3: the same sweep again is pure cache and folds to the
    // exact same bytes — a crash plus recovery is invisible in the
    // results.
    eprintln!("ds drill: phase 3 — resubmission is pure cache, byte-identical");
    let id2 = match client::submit(&url, &body) {
        Ok(SubmitAnswer::Accepted { id, .. }) => id,
        other => fail(&format!("drill resubmit: unexpected answer {other:?}")),
    };
    check("resubmission gets a fresh job id", id2 != id, "id reused");
    client::wait_done(&url, id2, Duration::from_secs(300)).unwrap_or_else(|e| fail(&e));
    let results = client::fetch_results(&url, id2).unwrap_or_else(|e| fail(&e));
    let repeat = client::sweep_doc(&cfg, input, mode, &results).unwrap_or_else(|e| fail(&e));
    check(
        "repeat sweep is pure cache",
        repeat.provenances.iter().all(|p| p == "hit"),
        &format!("provenances {:?}", repeat.provenances),
    );
    check(
        "recovered results byte-identical to the repeat sweep",
        recovered.doc == repeat.doc,
        "folded documents differ",
    );

    match client_request(
        &url,
        "POST",
        "/shutdown",
        Some("{}"),
        Duration::from_secs(10),
    ) {
        Ok((200, _)) => {}
        other => fail(&format!("POST /shutdown: {other:?}")),
    }
    let _ = child.wait();
    if keep {
        eprintln!("ds drill: scratch kept at {}", dir.display());
    } else {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if !ok {
        fail("crash drill failed");
    }
    eprintln!(
        "ds drill: passed — job {id} survived the crash; \
         {done}/{total} task(s) rehydrated; results byte-identical"
    );
    Ok(())
}

/// `ds shutdown`.
pub fn shutdown(args: Args) -> Parsed<()> {
    let url = url_only(args)?;
    match client_request(
        &url,
        "POST",
        "/shutdown",
        Some("{}"),
        client::CLIENT_TIMEOUT,
    ) {
        Ok((200, _)) => eprintln!("ds shutdown: shutdown requested"),
        Ok((status, text)) => fail(&format!("POST /shutdown answered {status}: {text}")),
        Err(e) => fail(&e),
    }
    Ok(())
}

/// `ds serve --check`, the self-audit: admission control, store
/// reconciliation, cache determinism, and clean shutdown — all against
/// a real loopback server, no external state touched.
pub fn check(mut args: Args) -> Parsed<()> {
    if let Some(arg) = args.next() {
        return unknown(&arg);
    }
    let mut failures = 0usize;
    let mut check = |name: &str, ok: bool, detail: &str| {
        if ok {
            eprintln!("ds serve --check: ok   {name}");
        } else {
            eprintln!("ds serve --check: FAIL {name}: {detail}");
            failures += 1;
        }
    };

    // 1. Admission control is an explicit bound, not a hang: a full
    //    queue answers QueueFull immediately.
    let queue = JobQueue::new(1);
    let cfg = SystemConfig::paper_default();
    let task = ds_runner::Task::new(&cfg, "VA", InputSize::Small, Mode::DirectStore);
    let first = queue.submit(vec![task.clone()], 0);
    let second = queue.submit(vec![task.clone()], 0);
    check(
        "admission bound rejects explicitly",
        first.is_ok() && matches!(second, Err(Rejection::QueueFull { .. })),
        &format!("first={first:?} second={second:?}"),
    );
    check(
        "empty submissions are rejected",
        matches!(queue.submit(Vec::new(), 0), Err(Rejection::Empty)),
        "empty task list was admitted",
    );

    // 2. A real loopback server: duplicate tasks inside a job are
    //    coalesced to one computation, a repeat job is pure cache,
    //    and the store accounting reconciles over HTTP.
    let options = ServeOptions {
        workers: 2,
        handlers: 2,
        queue_limit: 4,
        cache_dir: None,
        ..ServeOptions::default()
    };
    let server = Server::start(options, "127.0.0.1:0")
        .unwrap_or_else(|e| fail(&format!("cannot bind loopback: {e}")));
    let url = format!("http://{}", server.addr());
    let body = r#"{"tasks": [
        {"bench": "VA", "input": "small", "mode": "ds"},
        {"bench": "VA", "input": "small", "mode": "ds"}
    ]}"#;
    let run_job = |label: &str| -> Vec<String> {
        match client::submit(&url, body) {
            Ok(SubmitAnswer::Accepted { id, .. }) => {
                if let Err(e) = client::wait_done(&url, id, Duration::from_secs(300)) {
                    fail(&format!("{label}: {e}"));
                }
                let results = client::fetch_results(&url, id)
                    .unwrap_or_else(|e| fail(&format!("{label}: {e}")));
                results
                    .get("results")
                    .and_then(Json::as_arr)
                    .map(|rows| {
                        rows.iter()
                            .map(|r| {
                                r.get("provenance")
                                    .and_then(Json::as_str)
                                    .unwrap_or("missing")
                                    .to_string()
                            })
                            .collect()
                    })
                    .unwrap_or_default()
            }
            other => fail(&format!("{label}: unexpected submit answer {other:?}")),
        }
    };
    let first = run_job("duplicate-task job");
    let computed = first.iter().filter(|p| *p == "computed").count();
    check(
        "duplicate tasks coalesce to one computation",
        first.len() == 2 && computed == 1,
        &format!("provenances {first:?}"),
    );
    let repeat = run_job("repeat job");
    check(
        "repeat submission is pure cache",
        repeat.len() == 2 && repeat.iter().all(|p| p == "hit"),
        &format!("provenances {repeat:?}"),
    );

    let stats = server.state().store.stats();
    check(
        "store accounting reconciles (hits + misses == requests)",
        stats.reconciles(),
        &format!("{stats:?}"),
    );
    check(
        "store counted exactly one computation",
        stats.requests == 4 && stats.misses == 1 && stats.hits == 3,
        &format!("{stats:?}"),
    );

    // 3. The ds-anvil journal: append/replay round-trip, torn-tail
    //    tolerance, and interior-corruption quarantine, against a
    //    real scratch directory.
    let scratch =
        std::env::temp_dir().join(format!("dsserve-check-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    {
        use std::io::Write as _;
        let (journal, fresh) = Journal::open(&scratch)
            .unwrap_or_else(|e| fail(&format!("cannot open scratch journal: {e}")));
        check(
            "journal starts empty",
            fresh.jobs.is_empty() && !fresh.torn_tail && fresh.quarantined.is_none(),
            &format!("{fresh:?}"),
        );
        let path = journal.path().to_path_buf();
        journal.job_submitted(3, "idem-3", &[task.clone(), task.clone()]);
        journal.task_started(3, 0);
        journal.task_done(3, 0, "ok");
        drop(journal);
        let replay = Journal::peek(&scratch);
        check(
            "journal replays the unfinished job",
            replay.jobs.len() == 1 && replay.jobs[0].id == 3 && replay.jobs[0].completed == 1,
            &format!("{replay:?}"),
        );
        // A mid-append crash leaves a partial final line: truncated,
        // never fatal, and the job is still recovered.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| fail(&format!("cannot reopen scratch journal: {e}")));
        let _ = file.write_all(b"{\"rec\":\"task-do");
        drop(file);
        let torn = Journal::peek(&scratch);
        check(
            "a torn tail is truncated, not fatal",
            torn.torn_tail && torn.jobs.len() == 1,
            &format!("{torn:?}"),
        );
        // Corruption *before* the tail is a different disease: the
        // whole file is quarantined and the server boots empty
        // rather than trusting a damaged history.
        let mut text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read scratch journal: {e}")));
        let first_newline = text.find('\n').unwrap_or(text.len());
        text.replace_range(..first_newline, "{\"rec\":\"garbage\"}");
        std::fs::write(&path, text)
            .unwrap_or_else(|e| fail(&format!("cannot corrupt scratch journal: {e}")));
        let (_journal, after) = Journal::open(&scratch)
            .unwrap_or_else(|e| fail(&format!("cannot reopen scratch journal: {e}")));
        check(
            "interior corruption quarantines the journal",
            after.quarantined.is_some() && after.jobs.is_empty(),
            &format!("{after:?}"),
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // 4. Clean shutdown over HTTP: the whole thread family joins.
    match client_request(
        &url,
        "POST",
        "/shutdown",
        Some("{}"),
        Duration::from_secs(10),
    ) {
        Ok((200, _)) => {}
        other => fail(&format!("POST /shutdown: {other:?}")),
    }
    server.wait();
    check("clean shutdown over HTTP", true, "");

    if failures > 0 {
        fail(&format!("{failures} audit check(s) failed"));
    }
    eprintln!("ds serve --check: all checks passed");
    Ok(())
}
