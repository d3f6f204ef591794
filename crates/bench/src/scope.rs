//! `ds scope` — correlated span tracing: stitch, summarize, audit.
//!
//! The consumer side of ds-scope. Three commands:
//!
//! ```text
//! ds scope --check [--bench A,B,...] [--jobs N]
//! ds scope summary (--job FILE | --url U JOB)
//! ds scope merge   (--job FILE | --url U JOB) [--trace FILE]...
//!                  [--out FILE]
//! ```
//!
//! * `--check` runs the span audit over the small catalog: every
//!   report carries a span tree, every tree telescopes (children
//!   nest inside parents, sibling durations never exceed the
//!   parent's), every task span reconciles queue + store + sim +
//!   overhead against its wall clock exactly — and turning scope off
//!   reproduces the scope-on reports bit-identically minus the tree
//!   (the fig4 zero-overhead contract).
//! * `summary` prints a per-job span-tree summary with the same
//!   telescoping and reconciliation checks, from a served
//!   `/jobs/<id>/results` document (fetched live or read from a
//!   file).
//! * `merge` additionally stitches the service-level spans and any
//!   `ds trace` Chrome tracks into one Perfetto-loadable trace, so a
//!   single artifact spans HTTP request → job → task →
//!   queue-wait/store-lookup/sim-run → simulator stage events. A
//!   trace rendered with `ds trace --format chrome --window N` also
//!   carries ds-pulse counter tracks and anomaly instants; those
//!   pass through untouched, so the merged artifact shows live
//!   counter ramps under the span tree.
//!
//! Service spans land on pid 5 (the ds-probe Chrome renderer uses
//! pids 0–4 for kernels, DRAM, and the three NoCs, and pid 6 for
//! ds-pulse counter tracks), one thread track per task, so the causal
//! tree reads top-down in the Perfetto UI.

use ds_core::Scenario as _;
use ds_core::{InputSize, Mode, SystemConfig};
use ds_probe::scope::{self, SpanKind, SpanRecord, SpanTree};
use ds_runner::json::{self, Json};
use ds_runner::{span_from_json, sweep_tasks, Runner, TaskOutcome};
use ds_serve::client;

use crate::cli::{fail, unknown, usage, Args, Parsed};

pub const USAGE: &str = "usage: ds scope --check [--bench A,B,...] [--jobs N]
       ds scope summary (--job FILE | --url U JOB)
       ds scope merge   (--job FILE | --url U JOB) [--trace FILE]... [--out FILE]

Correlated span tracing over ds-serve jobs and ds-runner reports.

commands:
  --check    audit span trees over the small catalog (exit 1 on any
             telescoping/reconciliation violation or scope overhead)
  summary    print a job's span-tree summary with telescoping checks
  merge      stitch job spans + `ds trace` Chrome tracks (including
             ds-pulse counter tracks from --window renders) into one
             Perfetto trace

check options:
  --bench A,B,...   only these Table II codes (default: all 22)
  --jobs N          worker threads for the audit sweep

summary/merge options:
  --job FILE        read the /jobs/<id>/results document from FILE
  --url U JOB       fetch it live from server U, job id JOB
  --trace FILE      (merge) a `ds trace` Chrome JSON to fold in; repeat
                    for more files
  --out FILE        (merge) output path
                    (default: results/dsscope-trace.json)

exit codes: 0 ok; 1 violation or failure; 2 usage";

// ---------------------------------------------------------------- check

/// `ds scope --check`.
pub fn check(mut args: Args) -> Parsed<()> {
    let mut codes: Option<Vec<String>> = None;
    let mut jobs: Option<usize> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => codes = Some(args.codes()?),
            "--jobs" => jobs = Some(args.positive("--jobs")?),
            other => return unknown(other),
        }
    }

    let cfg = SystemConfig::paper_default();
    let filter = |b: &ds_workloads::Benchmark| {
        codes
            .as_ref()
            .is_none_or(|codes| codes.iter().any(|c| c == b.code()))
    };
    let tasks = sweep_tasks(&cfg, InputSize::Small, Mode::DirectStore, filter);
    if tasks.is_empty() {
        fail("no benchmarks selected (check --bench spelling against Table II)");
    }

    // Pass 1: scope on at full probe level — every report must carry
    // a tree that telescopes and reconciles.
    ds_probe::prof::set_level(ds_probe::ProbeLevel::Full);
    scope::set_enabled(true);
    let mut runner = Runner::new().progress(false);
    if let Some(n) = jobs {
        runner = runner.jobs(n);
    }
    let outcomes = runner.run_tasks_outcomes(&tasks);
    let mut failures = 0usize;
    let mut scoped_va: Option<ds_core::RunReport> = None;
    for (task, outcome) in tasks.iter().zip(&outcomes) {
        let label = format!("{} {} {}", task.code, task.input, task.mode);
        let Some(report) = outcome.report() else {
            eprintln!("ds scope: FAIL {label}: task ended {}", outcome.tag());
            failures += 1;
            continue;
        };
        let Some(tree) = &report.scope else {
            eprintln!("ds scope: FAIL {label}: report carries no span tree with scope on");
            failures += 1;
            continue;
        };
        if let Err(e) = tree.check() {
            eprintln!("ds scope: FAIL {label}: telescoping violation: {e}");
            failures += 1;
            continue;
        }
        let Some(task_span) = tree.find(SpanKind::Task) else {
            eprintln!("ds scope: FAIL {label}: tree has no task span");
            failures += 1;
            continue;
        };
        let Some(rec) = tree.reconcile(task_span.id) else {
            eprintln!("ds scope: FAIL {label}: task span does not reconcile");
            failures += 1;
            continue;
        };
        let sum = rec.queue_us + rec.store_us + rec.sim_us + rec.overhead_us;
        if sum != rec.total_us {
            eprintln!(
                "ds scope: FAIL {label}: queue {} + store {} + sim {} + overhead {} \
                 != total {}",
                rec.queue_us, rec.store_us, rec.sim_us, rec.overhead_us, rec.total_us
            );
            failures += 1;
        }
        if task.code == "VA" && task.mode == Mode::Ccsm {
            scoped_va = Some(report.clone());
        }
    }

    // Pass 2: the zero-overhead contract. With scope off, a fresh
    // runner's report must be bit-identical to the scope-on one minus
    // the tree (Debug formatting is the repo's exhaustive-equality
    // idiom; it covers every field).
    scope::set_enabled(false);
    if let Some(mut scoped) = scoped_va {
        let task = tasks
            .iter()
            .find(|t| t.code == "VA" && t.mode == Mode::Ccsm)
            .expect("VA CCSM was in the sweep");
        let outcome = Runner::new()
            .progress(false)
            .run_tasks_outcomes(std::slice::from_ref(task));
        match outcome.first().and_then(TaskOutcome::report) {
            Some(plain) => {
                if plain.scope.is_some() {
                    eprintln!("ds scope: FAIL VA: report carries a span tree with scope off");
                    failures += 1;
                }
                scoped.scope = None;
                if format!("{plain:?}") != format!("{scoped:?}") {
                    eprintln!(
                        "ds scope: FAIL VA: scope-off report differs from scope-on minus \
                         the tree (scope is not zero-overhead)"
                    );
                    failures += 1;
                }
            }
            None => {
                eprintln!("ds scope: FAIL VA: scope-off rerun produced no report");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        fail(&format!("check FAILED ({failures} violation(s))"));
    }
    println!(
        "dsscope: check passed for {} task(s): span trees telescope, task spans \
         reconcile exactly, and scope-off reports are bit-identical",
        tasks.len()
    );
    Ok(())
}

// ------------------------------------------------------- summary/merge

struct TaskSpans {
    label: String,
    outcome: String,
    spans: Vec<SpanRecord>,
}

struct JobSpans {
    job: u64,
    span: u64,
    parent_span: u64,
    tasks: Vec<TaskSpans>,
}

fn load_results_doc(job_file: Option<&str>, url_job: Option<(&str, u64)>) -> Parsed<Json> {
    Ok(match (job_file, url_job) {
        (Some(path), None) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
            json::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
        }
        (None, Some((url, id))) => client::fetch_results(url, id).unwrap_or_else(|e| fail(&e)),
        _ => return usage("give exactly one of --job FILE or --url U JOB"),
    })
}

fn parse_job_spans(doc: &Json) -> JobSpans {
    let job = doc.get("job").and_then(Json::as_u64).unwrap_or(0);
    let span = doc.get("span").and_then(Json::as_u64).unwrap_or(0);
    let parent_span = doc.get("parent_span").and_then(Json::as_u64).unwrap_or(0);
    let rows = doc
        .get("results")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail("document has no \"results\" array (is this /jobs/<id>/results?)"));
    let tasks = rows
        .iter()
        .map(|row| {
            let label = format!(
                "{} {} {}",
                row.get("bench").and_then(Json::as_str).unwrap_or("?"),
                row.get("input").and_then(Json::as_str).unwrap_or("?"),
                row.get("mode").and_then(Json::as_str).unwrap_or("?"),
            );
            let outcome = row
                .get("outcome")
                .and_then(Json::as_str)
                .unwrap_or("pending")
                .to_string();
            let spans = row
                .get("spans")
                .and_then(Json::as_arr)
                .map(|arr| {
                    arr.iter()
                        .map(|s| span_from_json(s).unwrap_or_else(|e| fail(&e)))
                        .collect()
                })
                .unwrap_or_default();
            TaskSpans {
                label,
                outcome,
                spans,
            }
        })
        .collect();
    JobSpans {
        job,
        span,
        parent_span,
        tasks,
    }
}

/// Builds the full causal tree for one job: a synthetic request span
/// and job span (the results document carries their ids but not their
/// intervals, so they envelope their children) over every task's
/// recorded spans.
fn job_tree(job: &JobSpans) -> SpanTree {
    let mut spans: Vec<SpanRecord> = Vec::new();
    let all: Vec<&SpanRecord> = job.tasks.iter().flat_map(|t| &t.spans).collect();
    let start = all.iter().map(|s| s.start_us).min().unwrap_or(0);
    let end = all.iter().map(|s| s.end_us).max().unwrap_or(0);
    if job.parent_span != 0 {
        spans.push(SpanRecord {
            id: job.parent_span,
            parent: 0,
            kind: SpanKind::Request,
            label: "POST /jobs".into(),
            start_us: start,
            end_us: end,
        });
    }
    if job.span != 0 {
        spans.push(SpanRecord {
            id: job.span,
            parent: job.parent_span,
            kind: SpanKind::Job,
            label: format!("job {}", job.job),
            start_us: start,
            end_us: end,
        });
    }
    for task in &job.tasks {
        spans.extend(task.spans.iter().cloned());
    }
    SpanTree { spans }
}

fn print_summary(job: &JobSpans) -> usize {
    let mut failures = 0usize;
    println!(
        "job {} (span {}, request span {}): {} task(s)",
        job.job,
        job.span,
        job.parent_span,
        job.tasks.len()
    );
    for task in &job.tasks {
        println!("  task {} [{}]", task.label, task.outcome);
        if task.spans.is_empty() {
            println!("    (no spans recorded)");
            continue;
        }
        // Tasks of one job run concurrently, so their spans overlap
        // each other freely — the strict telescoping invariant holds
        // *within* each task's subtree. Root it by detaching the task
        // span from the (absent) job span.
        let mut spans = task.spans.clone();
        if let Some(root) = spans.iter_mut().find(|s| s.kind == SpanKind::Task) {
            root.parent = 0;
        }
        let task_tree = SpanTree { spans };
        match task_tree.check() {
            Ok(()) => println!("    telescoping: ok ({} spans)", task_tree.spans.len()),
            Err(e) => {
                println!("    telescoping: FAIL: {e}");
                failures += 1;
            }
        }
        for line in task_tree.render().lines() {
            println!("    {line}");
        }
        if let Some(root) = task_tree.find(SpanKind::Task) {
            match task_tree.reconcile(root.id) {
                Some(rec)
                    if rec.queue_us + rec.store_us + rec.sim_us + rec.overhead_us
                        == rec.total_us =>
                {
                    println!(
                        "    reconciles: queue {}us + store {}us + sim {}us + \
                         overhead {}us = {}us",
                        rec.queue_us, rec.store_us, rec.sim_us, rec.overhead_us, rec.total_us
                    );
                }
                _ => {
                    println!("    reconciles: FAIL");
                    failures += 1;
                }
            }
        }
    }
    failures
}

/// One Chrome `X` (complete) event.
fn complete_event(name: &str, ts: u64, dur: u64, pid: u64, tid: u64) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(name.into())),
        ("cat".into(), Json::Str("dsscope".into())),
        ("ph".into(), Json::Str("X".into())),
        ("ts".into(), Json::Int(ts)),
        ("dur".into(), Json::Int(dur.max(1))),
        ("pid".into(), Json::Int(pid)),
        ("tid".into(), Json::Int(tid)),
    ])
}

fn meta_event(pid: u64, tid: Option<u64>, what: &str, name: &str) -> Json {
    let mut fields = vec![
        ("name".into(), Json::Str(what.into())),
        ("ph".into(), Json::Str("M".into())),
        ("pid".into(), Json::Int(pid)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid".into(), Json::Int(tid)));
    }
    fields.push((
        "args".into(),
        Json::Obj(vec![("name".into(), Json::Str(name.into()))]),
    ));
    Json::Obj(fields)
}

/// Service spans sit above the simulator pids (0 = kernels, 1 = DRAM,
/// 2–4 = NoCs in the ds-probe Chrome renderer).
const PID_SCOPE: u64 = 5;

fn merged_trace(job: &JobSpans, trace_files: &[String]) -> Json {
    let mut events = vec![meta_event(PID_SCOPE, None, "process_name", "dsserve spans")];
    events.push(meta_event(PID_SCOPE, Some(0), "thread_name", "request/job"));
    let tree = job_tree(job);
    for span in &tree.spans {
        if matches!(span.kind, SpanKind::Request | SpanKind::Job) {
            events.push(complete_event(
                &format!("{}: {}", span.kind.name(), span.label),
                span.start_us,
                span.duration_us(),
                PID_SCOPE,
                0,
            ));
        }
    }
    for (idx, task) in job.tasks.iter().enumerate() {
        let tid = idx as u64 + 1;
        events.push(meta_event(
            PID_SCOPE,
            Some(tid),
            "thread_name",
            &format!("task {} {}", idx, task.label),
        ));
        for span in &task.spans {
            let name = if span.label.is_empty() {
                span.kind.name().to_string()
            } else {
                format!("{}: {}", span.kind.name(), span.label)
            };
            events.push(complete_event(
                &name,
                span.start_us,
                span.duration_us(),
                PID_SCOPE,
                tid,
            ));
        }
    }
    for path in trace_files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let doc = json::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        let Some(track) = doc.get("traceEvents").and_then(Json::as_arr) else {
            fail(&format!(
                "{path} has no \"traceEvents\" (not a Chrome trace?)"
            ));
        };
        events.extend(track.iter().cloned());
    }
    Json::Obj(vec![
        ("displayTimeUnit".into(), Json::Str("ms".into())),
        (
            "otherData".into(),
            Json::Obj(vec![
                ("generator".into(), Json::Str("dsscope".into())),
                (
                    "note".into(),
                    Json::Str(
                        "service spans (pid 5) tick in host microseconds; simulator \
                         tracks keep their cycle timestamps"
                            .into(),
                    ),
                ),
            ]),
        ),
        ("traceEvents".into(), Json::Arr(events)),
    ])
}

/// `ds scope summary`.
pub fn summary(args: Args) -> Parsed<()> {
    summarize(args, false)
}

/// `ds scope merge`.
pub fn merge(args: Args) -> Parsed<()> {
    summarize(args, true)
}

fn summarize(mut args: Args, merge: bool) -> Parsed<()> {
    let mut job_file: Option<String> = None;
    let mut url_job: Option<(String, u64)> = None;
    let mut trace_files: Vec<String> = Vec::new();
    let mut out = "results/dsscope-trace.json".to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--job" => job_file = Some(args.value("--job")?),
            "--url" => {
                let u = args.value("--url")?;
                let id = args.parsed("--url", "a URL and a job id")?;
                url_job = Some((u, id));
            }
            "--trace" if merge => trace_files.push(args.value("--trace")?),
            "--out" if merge => out = args.value("--out")?,
            other => return unknown(other),
        }
    }
    let doc = load_results_doc(
        job_file.as_deref(),
        url_job.as_ref().map(|(u, id)| (u.as_str(), *id)),
    )?;
    let job = parse_job_spans(&doc);
    let failures = print_summary(&job);
    if merge {
        let trace = merged_trace(&job, &trace_files);
        if let Some(dir) = std::path::Path::new(&out).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", dir.display())));
            }
        }
        std::fs::write(&out, trace.pretty())
            .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
        println!(
            "merged trace: {out} ({} trace file(s) folded in)",
            trace_files.len()
        );
    }
    if failures > 0 {
        fail(&format!("{failures} span check(s) failed"));
    }
    Ok(())
}
