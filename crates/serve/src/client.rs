//! Client-side helpers for the job API: submit, poll, fetch, and
//! reconstruct the batch CLI's JSON document from served results.
//!
//! The reconstruction is the determinism contract made executable:
//! `ds submit` prints the *same bytes* `ds run --format json`
//! prints for the same sweep, because served reports round-trip
//! through the lossless report codec and the sweep planner orders
//! tasks identically on both paths. The CI smoke gate `cmp`s the two.

use std::time::{Duration, Instant};

use ds_core::{Comparison, InputSize, Mode, SystemConfig};
use ds_runner::json::{self, Json};
use ds_runner::report::{comparison_to_json, report_from_json};
use ds_runner::{fnv1a, Runner};

use crate::http::{client_request, client_request_ext};

/// Default per-request client timeout.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// What `POST /jobs` answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitAnswer {
    /// The job was admitted.
    Accepted {
        /// Assigned job id.
        id: u64,
        /// Number of tasks the job expanded to.
        tasks: u64,
    },
    /// Admission control refused (429) — an explicit, expected
    /// saturation outcome, distinguished from transport errors.
    Rejected {
        /// The error message from the response body.
        message: String,
    },
}

/// How [`submit_with_retry`] behaves across attempts.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (clamped to ≥ 1). Connect errors and 5xx
    /// responses are retried with jittered exponential backoff; other
    /// 4xx responses never are (the submission itself is wrong).
    pub attempts: u32,
    /// Backoff base: attempt `n` sleeps `base * 2^n` plus a seeded
    /// jitter of up to one base, so a fleet of retrying clients
    /// spreads out instead of stampeding.
    pub base: Duration,
    /// Also retry 429 (admission refusal), honoring `Retry-After`.
    /// Off by default: saturation is an *expected* answer — the CI
    /// saturation gate relies on seeing it immediately — so waiting
    /// out a busy server is opt-in (`ds submit --retry-busy`).
    pub retry_busy: bool,
    /// Jitter seed, for deterministic tests.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(200),
            retry_busy: false,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A single attempt: plain [`submit`] semantics.
    pub fn single() -> Self {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// SplitMix64 — the jitter mixer (same generator family the fault
/// injector uses; no external randomness, so tests are deterministic).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The backoff before retry attempt `n` (0-based): `base * 2^n` plus
/// up to one extra base of seeded jitter.
fn backoff(policy: &RetryPolicy, attempt: u32) -> Duration {
    let base_ms = policy.base.as_millis().max(1) as u64;
    let exp = base_ms.saturating_mul(1u64 << attempt.min(16));
    let jitter = splitmix64(policy.seed ^ u64::from(attempt) ^ base_ms) % base_ms;
    Duration::from_millis(exp.saturating_add(jitter))
}

/// Builds the `Idempotency-Key` for one logical submission: the body
/// fingerprint plus a per-invocation nonce. Every *retry inside one
/// [`submit_with_retry`] call* reuses the key (so an ambiguous
/// failure cannot double-submit), while every *fresh invocation* gets
/// a new nonce (so deliberately resubmitting the same sweep — as the
/// CI cache gate does — still creates a new job).
fn idempotency_key(body: &str) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos() as u64 ^ d.as_secs());
    let nonce = splitmix64(
        nanos ^ (u64::from(std::process::id()) << 32) ^ COUNTER.fetch_add(1, Ordering::Relaxed),
    );
    format!("{:016x}-{nonce:016x}", fnv1a(body.as_bytes()))
}

/// Submits `body` to `url`.
///
/// # Errors
///
/// Transport failures and non-200/429 statuses (a 400 means the
/// submission itself is malformed).
pub fn submit(url: &str, body: &str) -> Result<SubmitAnswer, String> {
    submit_with_retry(url, body, &RetryPolicy::single())
}

/// [`submit`] with client-side resilience: one `Idempotency-Key` for
/// the whole logical submission (a retried request after an ambiguous
/// failure attaches to the job the first attempt created instead of
/// duplicating it), jittered exponential backoff on connect errors
/// and 5xx, and — when `policy.retry_busy` — on 429 too, honoring the
/// server's `Retry-After`.
///
/// # Errors
///
/// The last transport/5xx failure once attempts are exhausted, or any
/// non-retryable status (e.g. 400).
pub fn submit_with_retry(
    url: &str,
    body: &str,
    policy: &RetryPolicy,
) -> Result<SubmitAnswer, String> {
    let key = idempotency_key(body);
    let headers = [("Idempotency-Key".to_string(), key)];
    let attempts = policy.attempts.max(1);
    let mut last_err = String::new();
    for attempt in 0..attempts {
        let last = attempt + 1 == attempts;
        match client_request_ext(url, "POST", "/jobs", Some(body), &headers, CLIENT_TIMEOUT) {
            Ok((200, text, _)) => {
                let doc = json::parse(&text).map_err(|e| format!("bad submit response: {e}"))?;
                let id = doc
                    .get("job")
                    .and_then(Json::as_u64)
                    .ok_or("submit response missing \"job\"")?;
                let tasks = doc.get("tasks").and_then(Json::as_u64).unwrap_or(0);
                return Ok(SubmitAnswer::Accepted { id, tasks });
            }
            Ok((429, text, response_headers)) => {
                let message = json::parse(&text)
                    .ok()
                    .as_ref()
                    .and_then(|d| d.get("error").and_then(Json::as_str).map(str::to_string))
                    .unwrap_or_else(|| "queue full".to_string());
                if !policy.retry_busy || last {
                    return Ok(SubmitAnswer::Rejected { message });
                }
                // Honor Retry-After when it outlasts our own backoff.
                let retry_after = response_headers
                    .iter()
                    .find(|(name, _)| name == "retry-after")
                    .and_then(|(_, value)| value.parse::<u64>().ok())
                    .map_or(Duration::ZERO, Duration::from_secs);
                last_err = format!("busy: {message}");
                std::thread::sleep(backoff(policy, attempt).max(retry_after));
            }
            Ok((status, text, _)) if status >= 500 => {
                last_err = format!("POST /jobs answered {status}: {text}");
                if last {
                    break;
                }
                std::thread::sleep(backoff(policy, attempt));
            }
            Ok((status, text, _)) => {
                let doc = json::parse(&text).ok();
                return Err(format!(
                    "POST /jobs answered {status}: {}",
                    doc.as_ref()
                        .and_then(|d| d.get("error").and_then(Json::as_str))
                        .unwrap_or(&text)
                ));
            }
            Err(e) => {
                last_err = e;
                if last {
                    break;
                }
                std::thread::sleep(backoff(policy, attempt));
            }
        }
    }
    Err(format!(
        "submit failed after {attempts} attempt(s): {last_err}"
    ))
}

/// Builds the sweep submission body `ds submit` sends.
pub fn sweep_body(codes: Option<&[String]>, input: InputSize, ds_mode: Mode) -> String {
    sweep_body_pulsed(codes, input, ds_mode, None)
}

/// Like [`sweep_body`], optionally asking for ds-pulse telemetry at
/// `pulse` cycles per window — the served reports then carry the time
/// series and the job's `/events` stream carries live `pulse-window`
/// lines (a pulsed document is a superset of the batch one, so the
/// byte-identity contract applies to pulse-free submissions only).
pub fn sweep_body_pulsed(
    codes: Option<&[String]>,
    input: InputSize,
    ds_mode: Mode,
    pulse: Option<u64>,
) -> String {
    let mut sweep = vec![
        ("input".to_string(), Json::Str(input.to_string())),
        ("mode".to_string(), Json::Str(ds_mode.to_string())),
    ];
    if let Some(codes) = codes {
        sweep.push((
            "bench".to_string(),
            Json::Arr(codes.iter().map(|c| Json::Str(c.clone())).collect()),
        ));
    }
    let mut body = vec![("sweep".to_string(), Json::Obj(sweep))];
    if let Some(window) = pulse {
        body.push(("pulse".to_string(), Json::Int(window)));
    }
    Json::Obj(body).pretty()
}

/// Polls `GET /jobs/<id>` until the job is done; returns the final
/// status document.
///
/// # Errors
///
/// Transport failures, non-200 answers, or `timeout` elapsing first.
pub fn wait_done(url: &str, id: u64, timeout: Duration) -> Result<Json, String> {
    let deadline = Instant::now() + timeout;
    let mut poll = Duration::from_millis(20);
    loop {
        let (status, text) =
            client_request(url, "GET", &format!("/jobs/{id}"), None, CLIENT_TIMEOUT)?;
        if status != 200 {
            return Err(format!("GET /jobs/{id} answered {status}: {text}"));
        }
        let doc = json::parse(&text).map_err(|e| format!("bad status response: {e}"))?;
        if doc.get("state").and_then(Json::as_str) == Some("done") {
            return Ok(doc);
        }
        if Instant::now() >= deadline {
            return Err(format!("job {id} not done within {timeout:?}"));
        }
        std::thread::sleep(poll);
        // Back off to spare a busy server; cap well under human patience.
        poll = (poll * 2).min(Duration::from_millis(500));
    }
}

/// Tails `GET /jobs/<id>/events`: connects, then calls `on_line` for
/// every NDJSON event line as it arrives, until the server closes the
/// stream (job done or service shutdown). Returns the HTTP status.
///
/// # Errors
///
/// Transport failures, a bad status line, or a quiet stream
/// outliving the read timeout (the server heartbeats ~10s, so the
/// 60-second timeout only fires on a dead server).
pub fn watch(url: &str, id: u64, mut on_line: impl FnMut(&str)) -> Result<u16, String> {
    use std::io::{BufRead, BufReader, Write};

    let host = crate::http::host_of(url)?;
    let mut stream =
        std::net::TcpStream::connect(&host).map_err(|e| format!("connect {host}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
    stream.set_write_timeout(Some(Duration::from_secs(10))).ok();
    let path = format!("/jobs/{id}/events");
    let request = format!("GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send {path}: {e}"))?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read {path}: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    loop {
        let mut header = String::new();
        let n = reader
            .read_line(&mut header)
            .map_err(|e| format!("read {path}: {e}"))?;
        if n == 0 || header.trim_end().is_empty() {
            break;
        }
    }
    if status != 200 {
        // The body is a one-shot JSON error; surface it as a line.
        let mut body = String::new();
        use std::io::Read as _;
        let _ = reader.read_to_string(&mut body);
        if !body.trim().is_empty() {
            on_line(body.trim());
        }
        return Ok(status);
    }
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break, // server closed: stream over
            Ok(_) => {
                let line = line.trim_end();
                if !line.is_empty() {
                    on_line(line);
                }
            }
            Err(e) => return Err(format!("read {path}: {e}")),
        }
    }
    Ok(status)
}

/// Fetches `GET /jobs/<id>/results` as parsed JSON.
///
/// # Errors
///
/// Transport failures and non-200 answers.
pub fn fetch_results(url: &str, id: u64) -> Result<Json, String> {
    let (status, text) = client_request(
        url,
        "GET",
        &format!("/jobs/{id}/results"),
        None,
        CLIENT_TIMEOUT,
    )?;
    if status != 200 {
        return Err(format!("GET /jobs/{id}/results answered {status}: {text}"));
    }
    json::parse(&text).map_err(|e| format!("bad results response: {e}"))
}

/// A served sweep folded back into the batch CLI's shape.
#[derive(Debug)]
pub struct SweepOutput {
    /// The `ds run --format json` document (without the trailing
    /// newline `println!` adds).
    pub doc: String,
    /// Per-task provenance tags, in task order.
    pub provenances: Vec<String>,
}

/// Folds a `/results` document for a sweep submission back into the
/// exact `ds run --format json` output for the same sweep.
///
/// # Errors
///
/// Any non-ok/degraded task, malformed row, or odd row count — a
/// sweep is CCSM/direct-store *pairs* by construction.
pub fn sweep_doc(
    cfg: &SystemConfig,
    input: InputSize,
    ds_mode: Mode,
    results: &Json,
) -> Result<SweepOutput, String> {
    let rows = results
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("results response missing \"results\"")?;
    if rows.len() % 2 != 0 {
        return Err(format!("sweep produced an odd row count ({})", rows.len()));
    }
    let mut provenances = Vec::with_capacity(rows.len());
    let mut comparisons = Vec::with_capacity(rows.len() / 2);
    for pair in rows.chunks(2) {
        let mut reports = Vec::with_capacity(2);
        let mut code = String::new();
        for row in pair {
            code = row
                .get("bench")
                .and_then(Json::as_str)
                .ok_or("result row missing \"bench\"")?
                .to_string();
            let outcome = row
                .get("outcome")
                .and_then(Json::as_str)
                .unwrap_or("pending");
            if !matches!(outcome, "ok" | "degraded") {
                return Err(format!("task {code} ended {outcome}, not ok"));
            }
            provenances.push(
                row.get("provenance")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
            );
            let report = row.get("report").ok_or("result row missing \"report\"")?;
            reports.push(report_from_json(report)?);
        }
        let direct_store = reports.pop().expect("pair has two reports");
        let ccsm = reports.pop().expect("pair has two reports");
        comparisons.push(Comparison {
            code,
            input,
            ccsm,
            direct_store,
        });
    }
    let doc = Json::Obj(vec![
        (
            "fingerprint".into(),
            Json::Str(format!("{:016x}", Runner::fingerprint(cfg))),
        ),
        ("mode".into(), Json::Str(ds_mode.to_string())),
        (
            "comparisons".into(),
            Json::Arr(comparisons.iter().map(comparison_to_json).collect()),
        ),
    ]);
    Ok(SweepOutput {
        doc: doc.pretty(),
        provenances,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::io::{Read as _, Write as _};
    use std::net::TcpListener;

    /// A scripted one-shot responder: answers each accepted
    /// connection with the next canned (status, headers, body) and
    /// returns the raw requests it saw.
    fn scripted_server(
        responses: Vec<(u16, &'static str, &'static str)>,
    ) -> (String, std::thread::JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let url = format!("http://{}", listener.local_addr().unwrap());
        let handle = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for (status, extra, body) in responses {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = [0u8; 4096];
                let mut request = String::new();
                loop {
                    let n = stream.read(&mut buf).unwrap();
                    request.push_str(&String::from_utf8_lossy(&buf[..n]));
                    // Our client sends Content-Length'd bodies with no
                    // trailing newline; header end is close enough for
                    // these tiny scripted exchanges.
                    if n == 0 || request.contains("\r\n\r\n") {
                        break;
                    }
                }
                seen.push(request);
                let reason = if status == 200 { "OK" } else { "Error" };
                let _ = write!(
                    stream,
                    "HTTP/1.1 {status} {reason}\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n{body}",
                    body.len()
                );
            }
            seen
        });
        (url, handle)
    }

    fn fast_policy(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts,
            base: Duration::from_millis(1),
            retry_busy: false,
            seed: 7,
        }
    }

    #[test]
    fn retry_reuses_one_idempotency_key_across_a_500() {
        let (url, server) = scripted_server(vec![
            (500, "", "boom"),
            (200, "", "{\"job\":11,\"tasks\":2}"),
        ]);
        let answer = submit_with_retry(&url, "{}", &fast_policy(3)).unwrap();
        assert_eq!(answer, SubmitAnswer::Accepted { id: 11, tasks: 2 });
        let seen = server.join().unwrap();
        assert_eq!(seen.len(), 2);
        let key = |request: &str| {
            request
                .lines()
                .find_map(|l| l.strip_prefix("Idempotency-Key: "))
                .map(str::to_string)
                .expect("idempotency key header")
        };
        assert_eq!(key(&seen[0]), key(&seen[1]));
    }

    #[test]
    fn busy_is_not_retried_by_default() {
        let (url, server) =
            scripted_server(vec![(429, "Retry-After: 1\r\n", "{\"error\":\"full\"}")]);
        let answer = submit_with_retry(&url, "{}", &fast_policy(5)).unwrap();
        assert_eq!(
            answer,
            SubmitAnswer::Rejected {
                message: "full".to_string()
            }
        );
        assert_eq!(server.join().unwrap().len(), 1);
    }

    #[test]
    fn retry_busy_honors_retry_after_then_succeeds() {
        let (url, server) = scripted_server(vec![
            (429, "Retry-After: 0\r\n", "{\"error\":\"full\"}"),
            (200, "", "{\"job\":3,\"tasks\":1}"),
        ]);
        let mut policy = fast_policy(3);
        policy.retry_busy = true;
        let answer = submit_with_retry(&url, "{}", &policy).unwrap();
        assert_eq!(answer, SubmitAnswer::Accepted { id: 3, tasks: 1 });
        assert_eq!(server.join().unwrap().len(), 2);
    }

    #[test]
    fn exhausted_retries_report_the_last_error() {
        // Bind, note the port, drop: connecting now fails fast.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let err = submit_with_retry(&format!("http://{addr}"), "{}", &fast_policy(2)).unwrap_err();
        assert!(err.contains("after 2 attempt(s)"), "{err}");
    }

    #[test]
    fn malformed_submissions_fail_without_retry() {
        let (url, server) = scripted_server(vec![(400, "", "{\"error\":\"bad body\"}")]);
        let err = submit_with_retry(&url, "{}", &fast_policy(4)).unwrap_err();
        assert!(err.contains("400") && err.contains("bad body"), "{err}");
        assert_eq!(server.join().unwrap().len(), 1);
    }

    #[test]
    fn idempotency_keys_share_the_body_hash_but_differ_per_call() {
        let a = idempotency_key("{\"bench\":\"VA\"}");
        let b = idempotency_key("{\"bench\":\"VA\"}");
        assert_ne!(a, b);
        let prefix = |s: &str| s.split('-').next().unwrap().to_string();
        assert_eq!(prefix(&a), prefix(&b));
    }

    #[test]
    fn backoff_grows_and_stays_deterministic() {
        let policy = fast_policy(5);
        assert_eq!(backoff(&policy, 0), backoff(&policy, 0));
        assert!(backoff(&policy, 4) > backoff(&policy, 0));
    }

    #[test]
    fn sweep_body_has_the_documented_shape() {
        let body = sweep_body(
            Some(&["VA".to_string(), "MM".to_string()]),
            InputSize::Small,
            Mode::DirectStore,
        );
        let doc = json::parse(&body).unwrap();
        let sweep = doc.get("sweep").unwrap();
        assert_eq!(sweep.get("input").and_then(Json::as_str), Some("small"));
        assert_eq!(sweep.get("mode").and_then(Json::as_str), Some("DS"));
        assert_eq!(
            sweep.get("bench").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        // The API parser accepts its own client's body.
        let tasks = crate::api::parse_submission(body.as_bytes()).unwrap();
        assert_eq!(tasks.len(), 4, "two benchmarks, CCSM+DS each");
        assert!(tasks.iter().all(|t| t.pulse == 0), "pulse stays opt-in");
    }

    #[test]
    fn pulsed_sweep_body_round_trips_the_window() {
        let body = sweep_body_pulsed(
            Some(&["VA".to_string()]),
            InputSize::Small,
            Mode::DirectStore,
            Some(500),
        );
        let tasks = crate::api::parse_submission(body.as_bytes()).unwrap();
        assert_eq!(tasks.len(), 2);
        assert!(tasks.iter().all(|t| t.pulse == 500));
        assert_ne!(
            tasks[0].key(),
            crate::api::parse_submission(
                sweep_body(
                    Some(&["VA".to_string()]),
                    InputSize::Small,
                    Mode::DirectStore
                )
                .as_bytes()
            )
            .unwrap()[0]
                .key(),
            "pulsed tasks must not alias pulse-free cache entries"
        );
    }

    #[test]
    fn sweep_doc_rejects_failed_tasks() {
        let results = json::parse(
            r#"{"results": [
                {"bench": "VA", "outcome": "timed-out", "provenance": "computed"},
                {"bench": "VA", "outcome": "ok", "provenance": "computed"}
            ]}"#,
        )
        .unwrap();
        let err = sweep_doc(
            &SystemConfig::paper_default(),
            InputSize::Small,
            Mode::DirectStore,
            &results,
        )
        .unwrap_err();
        assert!(err.contains("timed-out"), "{err}");
    }
}
