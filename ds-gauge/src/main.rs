//! ds-gauge: the host-time benchmark of the direct-store simulator and
//! its job service.
//!
//! ```text
//! cargo run --release --offline --manifest-path ds-gauge/Cargo.toml -- \
//!     --workload sweep-events --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --manifest-path ds-gauge/Cargo.toml -- --pin > ds-gauge/pinned.csv
//! ```
//!
//! Three workloads, each loading a different set of layers. Each runs in
//! one process with one simulation thread, and drives the library's
//! public API, not its binaries.
//!
//! * `sweep-events`: GA, LV and LU at small input under CCSM and direct
//!   store. About 43 events per simulated cycle, so the event queue does
//!   most of the work and the memory hierarchy almost none.
//! * `sweep-memory`: MT, BS, NN and VA at big input under both modes.
//!   About one event per cycle; GPU L2, hub protocol, NoC, DRAM, the
//!   push path and the lens carry the load.
//! * `serve-warm`: an in-process server with one simulation worker. Its
//!   set-up fills the store with 20 small tasks through the job API;
//!   then two closed-loop clients submit seeded one-task jobs, poll back
//!   to back until each is done and fetch its result. Every lookup hits,
//!   so HTTP, the handlers, the job queue, the store's hit path and the
//!   report JSON do all the work. `--seed` drives the job sequence; the
//!   sweeps' inputs are the catalog's fixed generators.
//!
//! The work of a run is fixed by `--seconds`, not by a timer: the sweeps
//! make one pass over their tasks per [`SECONDS_PER_PASS`], and
//! serve-warm runs [`JOBS_PER_SECOND`] jobs per second asked for. A
//! faster program finishes the same work sooner, and the server's
//! retained job records do not grow with its speed.
//!
//! Every workload reports every end-to-end metric, with tracing off:
//!
//! * `setup_s`: the median set-up. Sweeps translate and build every
//!   task; serve-warm starts a server on a fresh cache directory and
//!   fills its store, simulating each task and rewriting the cache file.
//! * `wall_s`: one unit of measured work. A sweep pass is the sum of
//!   per-task median run times; a serve-warm round is the median round.
//! * `sim_mcyc_per_s`: simulated Mcycles per host second; for serve-warm
//!   over the set-up's store fill, the service's cold path.
//! * `jobs_per_s`: tasks simulated (sweeps) or jobs served per second.
//! * `job_p50_ms`, `job_p90_ms`: nearest-rank over raw samples, printed
//!   with their counts. A sweep's job is one task run, so these follow
//!   its task mix; serve-warm's are per round, submission to result
//!   received, and the median over rounds.
//! * `peak_rss_mb`: the process's resident-set high-water mark.
//!
//! Failed or mismatching tasks and jobs are the JSON's `failed` out of
//! `attempted`; `fail_frac` is printed beside them.
//!
//! With `--trace 1` the run measures the same work untraced, then
//! repeats it (the sweeps only one pass of it) with the benchmark's
//! spans and the `ds_probe::prof` host profiler on, and the JSON carries
//! the per-layer metrics. Every
//! report, traced or not, is checked against `pinned.csv` (see [`gate`]).
//! Spans of a traced run are written to
//! `ds-gauge/out/<workload>-seed<n>.spans.jsonl`.

mod gate;
mod layers;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ds_core::InputSize;
use ds_runner::json::Json;

use gate::{Pinned, Task};
use layers::LAYERS;
use spans::Recorder;
use stats::Percentile;

/// Seconds of `--seconds` per sweep pass. A pass took 5 to 10 s on a
/// shared 2-vCPU x86-64 host, depending on the host's other load.
const SECONDS_PER_PASS: u64 = 6;

/// serve-warm jobs per second of `--seconds`, shared by the clients.
const JOBS_PER_SECOND: u64 = 500;

/// Most closed-loop clients serve-warm runs (fewer on a smaller host).
const CLIENTS: usize = 2;

/// The end-to-end metrics every workload reports, with units.
const E2E: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mcyc_per_s", "Mcyc/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Tasks and jobs whose output was checked.
    pub attempted: u64,
    /// Those that errored or differed from their pinned row.
    pub failed: u64,
    e2e: BTreeMap<&'static str, f64>,
    /// Sample accounting of the percentile metrics.
    pct: BTreeMap<&'static str, Percentile>,
    layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }

    /// Sets a percentile end-to-end metric, keeping its sample counts.
    pub fn e2e_pct(&mut self, name: &'static str, p: Percentile) {
        self.e2e.insert(name, p.value);
        self.pct.insert(name, p);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// The resident-set high-water mark of this process, MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

/// The current resident set of this process, KiB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// A fixed loop of random read-modify-writes over 1 MiB that calls
/// nothing in the program, ms, as the median of three: its drift between
/// runs is the host's. The table fits in cache, so the loop times the
/// core rather than the luck of huge-page backing.
fn calibration_ms() -> f64 {
    const WORDS: usize = 1 << 17;
    let mut buf: Vec<u64> = (0..WORDS as u64).collect();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..(1 << 24) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let i = (x as usize) & (WORDS - 1);
                buf[i] = buf[i].wrapping_add(x);
            }
            black_box(&buf);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut argv = std::env::args().skip(1);
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--pin" {
            return Ok(None);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Some(args))
}

fn sweep_events() -> Vec<Task> {
    Task::both_modes(&["GA", "LV", "LU"], InputSize::Small)
}

fn sweep_memory() -> Vec<Task> {
    Task::both_modes(&["MT", "BS", "NN", "VA"], InputSize::Big)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &Args) -> Result<Outcome, String> {
    let pinned = Pinned::load()?;
    let mut rec = Recorder::new(args.trace, Instant::now(), 0);
    let calib_start = calibration_ms();
    let passes = (args.seconds / SECONDS_PER_PASS).max(1) as usize;
    let mut out = match args.workload.as_str() {
        "sweep-events" => sweep::run(&sweep_events(), passes, args.trace, &pinned, &mut rec)?,
        "sweep-memory" => sweep::run(&sweep_memory(), passes, args.trace, &pinned, &mut rec)?,
        "serve-warm" => {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            let clients = CLIENTS.min(cpus);
            let load = serve::Load {
                tasks: &Task::both_modes(&serve::CODES, InputSize::Small),
                clients,
                jobs: (args.seconds * JOBS_PER_SECOND) as usize / (clients * serve::ROUNDS),
                seed: args.seed,
                pinned: &pinned,
            };
            let work_dir = out_dir();
            std::fs::create_dir_all(&work_dir)
                .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
            serve::run(&load, args.trace, &work_dir, &mut rec)?
        }
        other => {
            return Err(format!(
                "unknown workload {other:?} (sweep-events, sweep-memory, serve-warm)"
            ))
        }
    };
    let calib_end = calibration_ms();
    out.layer("host.calib_start_ms", calib_start);
    out.layer("host.calib_end_ms", calib_end);
    println!("host calibration loop: {calib_start:.2} ms at start, {calib_end:.2} ms at end");
    if args.trace {
        let path = out_dir().join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        std::fs::create_dir_all(out_dir())
            .and_then(|_| std::fs::write(&path, rec.jsonl()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans: {} written to {}", rec.spans().len(), path.display());
        println!(
            "{:<20} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, t) in rec.by_name() {
            println!(
                "{name:<20} {:>8} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            let mut tasks = sweep_events();
            tasks.extend(sweep_memory());
            tasks.extend(Task::both_modes(&serve::CODES, InputSize::Small));
            return match gate::pin(&tasks) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("ds-gauge: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("ds-gauge: {e}");
            eprintln!(
                "usage: ds-gauge --workload <name> --seed <n> --seconds <s> --trace <0|1> | --pin"
            );
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("ds-gauge: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "ds-gauge {} seed {} seconds {} trace {}: {} checked, {} failed (fail_frac {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for (name, unit) in E2E {
        let value = out.e2e[name];
        match out.pct.get(name) {
            Some(p) => println!(
                "  {name:<16} {value:>14.4} {unit:<8} ({} samples, {} beyond)",
                p.samples, p.beyond
            ),
            None => println!("  {name:<16} {value:>14.4} {unit}"),
        }
    }
    let metrics: Vec<(String, Json)> = if args.trace {
        for (name, unit) in LAYERS {
            let value = out.layers.get(name).copied().unwrap_or(0.0);
            println!("  {name:<30} {value:>16.4} {unit}");
        }
        LAYERS
            .iter()
            .map(|&(name, unit)| (name, out.layers.get(name).copied().unwrap_or(0.0), unit))
            .map(metric)
            .collect()
    } else {
        E2E.iter()
            .map(|&(name, unit)| (name, out.e2e[name], unit))
            .map(metric)
            .collect()
    };
    let doc = Json::Obj(vec![
        ("correct".into(), Json::Bool(out.failed == 0)),
        ("attempted".into(), Json::Int(out.attempted)),
        ("failed".into(), Json::Int(out.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", doc.compact());
    ExitCode::SUCCESS
}

fn metric((name, value, unit): (&str, f64, &str)) -> (String, Json) {
    (
        name.to_string(),
        Json::Obj(vec![
            ("value".into(), Json::Float(value)),
            ("unit".into(), Json::Str(unit.into())),
        ]),
    )
}
