//! The `serve-warm` workload: an in-process `ds_serve::Server` whose
//! store is filled during set-up, then driven over HTTP by closed-loop
//! clients whose every lookup hits.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ds_core::{RunReport, Scenario};
use ds_probe::prof::{self, HostProfile};
use ds_runner::json::{self, Json};
use ds_runner::report_from_json;
use ds_serve::http::client_request;
use ds_serve::{ServeOptions, Server};

use crate::gate::{Pinned, Task};
use crate::layers;
use crate::spans::Recorder;
use crate::stats::{median, percentile, Percentile};
use crate::{peak_rss_mb, rss_kb, Outcome};

/// The benchmarks whose small-input results the set-up stores, each
/// under both modes: the measured jobs draw from these 20 tasks.
pub const CODES: [&str; 10] = ["VA", "BL", "NN", "MT", "HT", "BP", "PT", "CH", "NW", "MM"];

/// Set-ups per run; the median is `setup_s`. Each starts a server on a
/// fresh cache directory and fills it.
const SETUPS: usize = 5;

/// Rounds of the measured phase. Each end-to-end metric is the median
/// over rounds, so a burst of slow disk or CPU on a shared host spoils
/// one round rather than the run.
pub const ROUNDS: usize = 10;

/// Client-side timeout for any one request.
const TIMEOUT: Duration = Duration::from_secs(60);

fn task_json(task: &Task) -> String {
    format!(
        r#"{{"bench":"{}","input":"{}","mode":"{}"}}"#,
        task.bench.code(),
        task.input,
        task.mode
    )
}

/// A started server over its own cache directory.
struct Live {
    server: Server,
    url: String,
    dir: PathBuf,
}

impl Live {
    fn stop(self) {
        self.server.begin_shutdown();
        self.server.wait();
        // Best effort: a leftover directory only costs disk space.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// GETs or POSTs `path`, failing on transport errors and non-200s. The
/// benchmark speaks plain requests rather than `ds_serve::client`'s
/// retrying ones, so a span covers one round trip and nothing else.
fn request(url: &str, method: &str, path: &str, body: Option<&str>) -> Result<String, String> {
    let (status, text) = client_request(url, method, path, body, TIMEOUT)?;
    if status == 200 {
        Ok(text)
    } else {
        Err(format!(
            "{method} {path} answered {status}: {}",
            text.trim()
        ))
    }
}

fn parse(text: &str) -> Result<Json, String> {
    json::parse(text).map_err(|e| format!("bad response body: {e}"))
}

/// Submits `tasks` as one job; returns its id.
fn submit(url: &str, tasks: &[&Task]) -> Result<u64, String> {
    let list: Vec<String> = tasks.iter().map(|t| task_json(t)).collect();
    let body = format!(r#"{{"tasks":[{}]}}"#, list.join(","));
    parse(&request(url, "POST", "/jobs", Some(&body))?)?
        .get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| "submission answer has no job id".to_string())
}

/// One status poll: whether the job is done.
fn is_done(url: &str, id: u64) -> Result<bool, String> {
    let doc = parse(&request(url, "GET", &format!("/jobs/{id}"), None)?)?;
    Ok(doc.get("state").and_then(Json::as_str) == Some("done"))
}

/// The served result rows: `(report, provenance)` per task.
fn results(text: &str) -> Result<Vec<(RunReport, String)>, String> {
    let doc = parse(text)?;
    let rows = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("results answer has no results array")?;
    rows.iter()
        .map(|row| {
            let report = row.get("report").ok_or("a task has no report")?;
            let provenance = row.get("provenance").and_then(Json::as_str).unwrap_or("");
            Ok((report_from_json(report)?, provenance.to_string()))
        })
        .collect()
}

/// What one set-up produced.
struct Setup {
    live: Live,
    seconds: f64,
    /// The fill's reports, in `tasks` order.
    reports: Vec<RunReport>,
    failed: u64,
}

/// Starts a server on a fresh cache directory under `work_dir` and
/// fills its store with `tasks` through the job API.
fn set_up(
    tasks: &[Task],
    work_dir: &Path,
    k: usize,
    pinned: &Pinned,
    rec: &mut Recorder,
) -> Result<Setup, String> {
    let dir = work_dir.join(format!("serve-{}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let id = rec.reserve();
    let start = Instant::now();
    // The job journal stays off: each job costs it four fsyncs, and on a
    // shared virtual disk their latency swung the phase's throughput by
    // a factor of two between runs, far past the benchmark's bounds.
    let options = ServeOptions {
        workers: 1,
        cache_dir: Some(dir.clone()),
        journal: false,
        ..ServeOptions::default()
    };
    let server = rec
        .time("serve.start", id, 0, || {
            Server::start(options, "127.0.0.1:0")
        })
        .map_err(|e| format!("cannot start the server: {e}"))?;
    let url = format!("http://{}", server.addr());
    let live = Live { server, url, dir };
    let fill = (|| {
        let all: Vec<&Task> = tasks.iter().collect();
        let job = rec.time("serve.submit", id, 0, || submit(&live.url, &all))?;
        // Set-up simulates for a second or more; polling every
        // millisecond keeps the server's CPU for the worker.
        while !rec.time("serve.status", id, job, || is_done(&live.url, job))? {
            std::thread::sleep(Duration::from_millis(1));
        }
        let text = rec.time("serve.results", id, job, || {
            request(&live.url, "GET", &format!("/jobs/{job}/results"), None)
        })?;
        results(&text)
    })();
    let end = Instant::now();
    rec.record(id, "gauge.setup", 0, 0, start, end);
    let served = match fill {
        Ok(served) if served.len() == tasks.len() => served,
        Ok(served) => {
            live.stop();
            return Err(format!(
                "the fill served {} of {} tasks",
                served.len(),
                tasks.len()
            ));
        }
        Err(e) => {
            live.stop();
            return Err(format!("the store fill failed: {e}"));
        }
    };
    let mut failed = 0;
    let mut reports = Vec::with_capacity(tasks.len());
    for (task, (report, _)) in tasks.iter().zip(served) {
        if let Err(e) = pinned.check(task, &report) {
            eprintln!("ds-gauge: {e}");
            failed += 1;
        }
        reports.push(report);
    }
    Ok(Setup {
        live,
        seconds: (end - start).as_secs_f64(),
        reports,
        failed,
    })
}

/// splitmix64: the clients' seeded job sequence.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The measured load: who submits what.
pub struct Load<'a> {
    /// The tasks jobs draw from.
    pub tasks: &'a [Task],
    /// Closed-loop clients.
    pub clients: usize,
    /// Jobs per client per round.
    pub jobs: usize,
    /// Seeds every client's job sequence.
    pub seed: u64,
    /// The rows every served report is checked against.
    pub pinned: &'a Pinned,
}

/// One client's share of the measured phase.
struct Client {
    /// Latency of each job that passed, per round.
    latency_ms: Vec<Vec<f64>>,
    jobs: u64,
    polls: u64,
    result_bytes: u64,
    misses: u64,
    failed: u64,
    rec: Recorder,
}

/// One job: submit a one-task job, poll back to back until it is done,
/// fetch its result and check it against the pinned row. Returns the
/// latency from submission to the result's arrival, ms.
fn one_job(
    url: &str,
    task: &Task,
    item: u64,
    pinned: &Pinned,
    client: &mut Client,
) -> Result<f64, String> {
    let rec = &mut client.rec;
    let span = rec.reserve();
    let start = Instant::now();
    let job = rec.time("serve.submit", span, item, || submit(url, &[task]))?;
    loop {
        client.polls += 1;
        if rec.time("serve.status", span, item, || is_done(url, job))? {
            break;
        }
    }
    let text = rec.time("serve.results", span, item, || {
        request(url, "GET", &format!("/jobs/{job}/results"), None)
    })?;
    let end = Instant::now();
    client.result_bytes += text.len() as u64;
    let checked = rec.time("gauge.check", span, item, || {
        let served = results(&text)?;
        let [(report, provenance)] = served.as_slice() else {
            return Err(format!(
                "job {job} served {} results for one task",
                served.len()
            ));
        };
        if provenance != "hit" {
            client.misses += 1;
        }
        pinned.check(task, report)
    });
    rec.record(span, "gauge.job", 0, item, start, Instant::now());
    checked.map(|()| (end - start).as_secs_f64() * 1e3)
}

/// The measured phase: `ROUNDS` rounds of `load`. Returns the clients
/// and each round's wall time.
fn drive(url: &str, load: &Load, traced: bool, epoch: Instant) -> (Vec<Client>, Vec<f64>) {
    let (tasks, clients, jobs) = (load.tasks, load.clients, load.jobs);
    // Every round starts and ends with all clients and this thread at
    // the barrier, so rounds do not overlap and their walls are exact.
    let barrier = Barrier::new(clients + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut client = Client {
                        latency_ms: (0..ROUNDS).map(|_| Vec::with_capacity(jobs)).collect(),
                        jobs: 0,
                        polls: 0,
                        result_bytes: 0,
                        misses: 0,
                        failed: 0,
                        rec: Recorder::new(traced, epoch, 1 + c as u64),
                    };
                    let mut rng = load.seed ^ (c as u64).wrapping_mul(0xa076_1d64_78bd_642f);
                    for round in 0..ROUNDS {
                        barrier.wait();
                        for k in 0..jobs {
                            let task = &tasks[(splitmix(&mut rng) % tasks.len() as u64) as usize];
                            let item = ((round * clients + c) * jobs + k) as u64;
                            client.jobs += 1;
                            match one_job(url, task, item, load.pinned, &mut client) {
                                Ok(ms) => client.latency_ms[round].push(ms),
                                Err(e) => {
                                    eprintln!("ds-gauge: job {item} ({}): {e}", task.label());
                                    client.failed += 1;
                                }
                            }
                        }
                    }
                    barrier.wait();
                    client
                })
            })
            .collect();
        let mut walls = Vec::with_capacity(ROUNDS);
        barrier.wait();
        let mut round_start = Instant::now();
        for _ in 0..ROUNDS {
            barrier.wait();
            let now = Instant::now();
            walls.push((now - round_start).as_secs_f64());
            round_start = now;
        }
        let done: Vec<Client> = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect();
        (done, walls)
    })
}

/// The service counters the phase is judged by, read from `/metrics`.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    store_requests: u64,
    store_hits: u64,
    store_entries: u64,
    /// `(samples, mean µs)` of http_submit, http_status, http_results,
    /// task_wait and task_service, in that order.
    hist: [(u64, f64); 5],
}

const HISTOGRAMS: [&str; 5] = [
    "http_submit_us",
    "http_status_us",
    "http_results_us",
    "task_wait_us",
    "task_service_us",
];

fn counters(url: &str) -> Result<Counters, String> {
    let doc = parse(&request(url, "GET", "/metrics", None)?)?;
    let int = |path: &[&str]| {
        let mut v = &doc;
        for key in path {
            v = v.get(key)?;
        }
        v.as_u64()
    };
    let need =
        |path: &[&str]| int(path).ok_or_else(|| format!("/metrics lacks {}", path.join(".")));
    let mut out = Counters {
        store_requests: need(&["store", "requests"])?,
        store_hits: need(&["store", "hits"])?,
        store_entries: need(&["store", "entries"])?,
        hist: [(0, 0.0); 5],
    };
    let hists = doc
        .get("service")
        .and_then(|s| s.get("histograms"))
        .and_then(Json::as_arr)
        .ok_or("/metrics lacks service.histograms")?;
    for h in hists {
        let name = h.get("name").and_then(Json::as_str).unwrap_or("");
        if let Some(i) = HISTOGRAMS.iter().position(|n| *n == name) {
            let samples = h.get("samples").and_then(Json::as_u64).unwrap_or(0);
            let mean = h.get("mean").and_then(Json::as_f64).unwrap_or(0.0);
            out.hist[i] = (samples, mean);
        }
    }
    Ok(out)
}

/// The mean, in ms, of the samples a histogram gained between `a` and
/// `b` (its means are exact, so the difference of sums is too).
fn mean_between(a: (u64, f64), b: (u64, f64)) -> f64 {
    let n = b.0.saturating_sub(a.0);
    if n == 0 {
        return 0.0;
    }
    (b.0 as f64 * b.1 - a.0 as f64 * a.1) / n as f64 / 1e3
}

/// What one measured phase yielded.
struct Phase {
    clients: Vec<Client>,
    /// Wall time of each round, s.
    walls: Vec<f64>,
    before: Counters,
    after: Counters,
    rss_kb: (u64, u64),
}

impl Phase {
    fn jobs(&self) -> u64 {
        self.clients.iter().map(|c| c.jobs).sum()
    }

    /// The median round's wall time, s.
    fn wall_s(&self) -> f64 {
        median(&self.walls)
    }

    /// Latencies of round `r` from every client, ms.
    fn round_ms(&self, r: usize) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| c.latency_ms[r].iter().copied())
            .collect()
    }
}

fn phase(live: &Live, load: &Load, traced: bool, epoch: Instant) -> Result<Phase, String> {
    let before = counters(&live.url)?;
    let rss_before = rss_kb();
    let (clients, walls) = drive(&live.url, load, traced, epoch);
    let rss_after = rss_kb();
    let after = counters(&live.url)?;
    Ok(Phase {
        clients,
        walls,
        before,
        after,
        rss_kb: (rss_before, rss_after),
    })
}

/// The median of per-round percentiles, carrying the smallest round's
/// sample accounting.
fn median_round(per_round: &[Percentile]) -> Percentile {
    let values: Vec<f64> = per_round.iter().map(|p| p.value).collect();
    Percentile {
        value: median(&values),
        samples: per_round.iter().map(|p| p.samples).min().unwrap_or(0),
        beyond: per_round.iter().map(|p| p.beyond).min().unwrap_or(0),
    }
}

/// Runs `serve-warm`: `SETUPS` set-ups, then `ROUNDS` rounds of `load`
/// on the last one's server; with `trace`, one more set-up and the same
/// rounds with spans and the host profiler on. Cache directories go
/// under `work_dir`.
pub fn run(
    load: &Load,
    trace: bool,
    work_dir: &Path,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    let (tasks, pinned) = (load.tasks, load.pinned);
    let mut out = Outcome::default();
    let mut off = Recorder::new(false, rec.epoch(), 0);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut fill_cycles = Vec::with_capacity(SETUPS);
    let mut last: Option<Live> = None;
    for k in 0..SETUPS {
        if let Some(prev) = last.take() {
            prev.stop();
        }
        let setup = set_up(tasks, work_dir, k, pinned, &mut off)?;
        out.attempted += tasks.len() as u64;
        out.failed += setup.failed;
        setups.push(setup.seconds);
        let cycles: u64 = setup.reports.iter().map(|r| r.total_cycles.as_u64()).sum();
        fill_cycles.push(cycles as f64 / setup.seconds / 1e6);
        last = Some(setup.live);
    }
    let live = last.expect("SETUPS is at least one");
    let measured = phase(&live, load, false, rec.epoch());
    live.stop();
    let measured = measured?;
    tally(&mut out, &measured);

    let per_round = (load.clients * load.jobs) as f64;
    let mut rates = Vec::with_capacity(ROUNDS);
    let mut p50s = Vec::with_capacity(ROUNDS);
    let mut p90s = Vec::with_capacity(ROUNDS);
    for (r, wall) in measured.walls.iter().enumerate() {
        let latency = measured.round_ms(r);
        if latency.is_empty() {
            return Err(format!("every job of round {r} failed"));
        }
        let (p50, p90) = (percentile(&latency, 50.0), percentile(&latency, 90.0));
        println!(
            "round {r}: {wall:.4} s, {:.2} jobs/s, p50 {:.4} ms, p90 {:.4} ms ({} samples, {} beyond p90)",
            per_round / wall,
            p50.value,
            p90.value,
            p90.samples,
            p90.beyond
        );
        rates.push(per_round / wall);
        p50s.push(p50);
        p90s.push(p90);
    }
    out.e2e("setup_s", median(&setups));
    out.e2e("wall_s", measured.wall_s());
    out.e2e("sim_mcyc_per_s", median(&fill_cycles));
    out.e2e("jobs_per_s", median(&rates));
    out.e2e_pct("job_p50_ms", median_round(&p50s));
    out.e2e_pct("job_p90_ms", median_round(&p90s));
    out.e2e("peak_rss_mb", peak_rss_mb());
    if !trace {
        return Ok(out);
    }

    let cost = layers::span_cost();
    prof::set_enabled(true);
    let traced = set_up(tasks, work_dir, SETUPS, pinned, rec).and_then(|setup| {
        let phase = phase(&setup.live, load, true, rec.epoch());
        setup.live.stop();
        phase.map(|p| (setup.reports, setup.failed, p))
    });
    prof::set_enabled(false);
    let (reports, fill_failed, mut traced) = traced?;
    out.attempted += tasks.len() as u64;
    out.failed += fill_failed;
    tally(&mut out, &traced);
    for client in traced.clients.iter_mut() {
        rec.absorb(&mut client.rec);
    }

    let mut profile = HostProfile::default();
    for r in &reports {
        if let Some(host) = &r.host {
            profile.merge(host);
        }
    }
    // The fill is the only place serve-warm simulates: its host time per
    // event is the untraced set-up's, HTTP and cache writes included.
    let fill_s = median(&setups);
    layers::report_layers(&mut out, &reports, fill_s);
    layers::profile_layers(&mut out, &profile, 1.0, cost);
    out.layer(
        "probe.trace_overhead_s",
        traced.wall_s() - measured.wall_s(),
    );

    let (a, b) = (traced.before, traced.after);
    let jobs_done = traced.jobs().max(1) as f64;
    let requests = b.store_requests.saturating_sub(a.store_requests);
    let hits = b.store_hits.saturating_sub(a.store_hits);
    out.layer(
        "runner.store_hit_ratio",
        if requests == 0 {
            0.0
        } else {
            hits as f64 / requests as f64
        },
    );
    out.layer("runner.store_entries", b.store_entries as f64);
    out.layer("runner.fill_ms_per_task", fill_s * 1e3 / tasks.len() as f64);

    let names = rec.by_name();
    let mean_ms = |name: &str| names.get(name).map_or(0.0, |t| t.mean_ms());
    out.layer("serve.submit_ms", mean_ms("serve.submit"));
    out.layer("serve.status_ms", mean_ms("serve.status"));
    out.layer("serve.results_ms", mean_ms("serve.results"));
    for (i, name) in [
        "serve.handler_submit_ms",
        "serve.handler_status_ms",
        "serve.handler_results_ms",
        "serve.task_wait_ms",
        "serve.task_service_ms",
    ]
    .into_iter()
    .enumerate()
    {
        out.layer(name, mean_between(a.hist[i], b.hist[i]));
    }
    let sum = |f: fn(&Client) -> u64| traced.clients.iter().map(f).sum::<u64>() as f64;
    out.layer("serve.polls_per_job", sum(|c| c.polls) / jobs_done);
    out.layer(
        "serve.results_kb_per_job",
        sum(|c| c.result_bytes) / 1024.0 / jobs_done,
    );
    let (rss_a, rss_b) = traced.rss_kb;
    out.layer(
        "serve.rss_kb_per_job",
        (rss_b as f64 - rss_a as f64) / jobs_done,
    );
    Ok(out)
}

/// Folds a phase's job counts into `out`: every job is attempted, and
/// a job that failed or missed the store counts as failed.
fn tally(out: &mut Outcome, phase: &Phase) {
    for c in &phase.clients {
        out.attempted += c.jobs;
        out.failed += c.failed + c.misses;
    }
}
