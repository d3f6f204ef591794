//! ds-anvil: the append-only job journal and crash recovery.
//!
//! The service keeps every job in memory (`crates/serve/src/jobs.rs`),
//! so before this module a crash or `kill -9` lost all in-flight and
//! queued jobs; only content-addressed results survived. The journal
//! closes that gap with the standard write-ahead discipline:
//!
//! * every accepted job appends a `job-submitted` record (the full
//!   task list plus the submission's idempotency key) before the
//!   submit response goes out, and workers append `task-started` /
//!   `task-done` / `job-done` records as work proceeds;
//! * on startup, [`Journal::open`] replays the journal and hands back
//!   every job without a `job-done` record so the server re-enqueues
//!   it under its original id — completed tasks rehydrate cheaply as
//!   [`ds_runner::SharedStore`] disk-cache hits, so recovery
//!   recomputes only what never finished;
//! * a torn final record (the signature of dying mid-append) is
//!   truncated away; a journal corrupt anywhere else is moved into
//!   the store's `quarantine/` directory for post-mortem inspection —
//!   either way the server still boots.
//!
//! The file is newline-delimited JSON (`journal.ndjson` under the
//! result-cache directory), one record per line, fsynced per append.
//! On open the survivors are compacted back down to just the
//! unfinished jobs' `job-submitted` records via the cache's
//! [`write_atomic`] machinery, so the journal never grows without
//! bound across restarts. Each journaled task carries its
//! [`TaskKey`] fingerprints; replay rebuilds the task and refuses the
//! journal (quarantine) if the rebuilt identity does not match — a
//! schema drift can never silently replay the wrong simulation.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ds_core::{FaultPlan, InputSize, Mode, SystemConfig};
use ds_runner::json::{self, Json};
use ds_runner::report::parse_input;
use ds_runner::store::write_atomic;
use ds_runner::{Task, TaskKey};

/// Journal file name under the result-cache directory.
pub const JOURNAL_FILE: &str = "journal.ndjson";

/// One job reconstructed from the journal that never reached
/// `job-done` — the unit of recovery.
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    /// The job's original registry id (preserved across the restart
    /// so a client polling it keeps working).
    pub id: u64,
    /// The submission's idempotency key (empty when the client sent
    /// none) — restored so a retried submission still attaches.
    pub key: String,
    /// The full task list, rebuilt and identity-checked.
    pub tasks: Vec<Task>,
    /// Tasks with a `task-done` record before the crash. Informational:
    /// the whole job is re-enqueued and these rehydrate as store hits.
    pub completed: usize,
}

/// What [`Journal::open`] / [`Journal::peek`] found on disk.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Unfinished jobs in id order, ready to re-enqueue.
    pub jobs: Vec<RecoveredJob>,
    /// Records successfully replayed (any kind).
    pub records: u64,
    /// A partial final record was truncated away (the torn tail a
    /// mid-append crash leaves behind).
    pub torn_tail: bool,
    /// The journal was corrupt beyond its tail and was moved here
    /// (under the cache's `quarantine/` directory); recovery is empty.
    pub quarantined: Option<PathBuf>,
}

impl Recovery {
    /// Total tasks across recovered jobs.
    pub fn tasks(&self) -> usize {
        self.jobs.iter().map(|j| j.tasks.len()).sum()
    }

    /// Tasks that already had a `task-done` record (expected to
    /// rehydrate from the disk cache instead of recomputing).
    pub fn tasks_done(&self) -> usize {
        self.jobs.iter().map(|j| j.completed).sum()
    }
}

/// Counters for `/metrics` (`dsserve_journal_*`).
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalStats {
    /// Records appended by this process.
    pub appended: u64,
    /// Bytes appended by this process.
    pub bytes: u64,
    /// Append or fsync failures (the journal keeps going; durability
    /// degrades loudly, never silently wedges the service).
    pub errors: u64,
}

/// The append side of the journal: one fsynced NDJSON line per
/// record, serialized behind a mutex so concurrent appenders never
/// interleave bytes.
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
    appended: AtomicU64,
    bytes: AtomicU64,
    errors: AtomicU64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("appended", &self.appended.load(Ordering::Relaxed))
            .finish()
    }
}

impl Journal {
    /// Opens (creating if needed) the journal under the result-cache
    /// directory `dir`, replaying whatever a previous process left
    /// behind: torn tails are truncated, a corrupt journal is
    /// quarantined, and the survivors are compacted down to the
    /// unfinished jobs' `job-submitted` records.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-open failures; a corrupt
    /// or torn journal is *not* an error (the server must still boot).
    pub fn open(dir: &Path) -> std::io::Result<(Journal, Recovery)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let recovery = load(dir, &path, true);
        // Compact: rewrite only the unfinished jobs' submitted records
        // (atomically — a crash mid-compaction leaves the old journal).
        let mut compacted = String::new();
        for job in &recovery.jobs {
            compacted.push_str(&submitted_line(job.id, &job.key, &job.tasks));
            compacted.push('\n');
        }
        write_atomic(dir, &path, compacted.as_bytes())?;
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok((
            Journal {
                path,
                file: Mutex::new(file),
                appended: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
                errors: AtomicU64::new(0),
            },
            recovery,
        ))
    }

    /// Read-only replay of the journal under `dir`: what [`open`]
    /// would recover, without truncating, quarantining, or compacting
    /// anything. Used by the crash drill and the self-audit to inspect
    /// a dead server's journal.
    ///
    /// [`open`]: Journal::open
    pub fn peek(dir: &Path) -> Recovery {
        load(dir, &dir.join(JOURNAL_FILE), false)
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append counters for `/metrics`.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            appended: self.appended.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    /// Appends one line + fsync, under the lock. Best-effort: a full
    /// disk degrades durability, it must not wedge the worker pool —
    /// failures are counted and reported on stderr once.
    fn append(&self, line: String) {
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let write = file
            .write_all(line.as_bytes())
            .and_then(|()| file.write_all(b"\n"))
            .and_then(|()| file.sync_data());
        drop(file);
        match write {
            Ok(()) => {
                self.appended.fetch_add(1, Ordering::Relaxed);
                self.bytes
                    .fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
            }
            Err(e) => {
                if self.errors.fetch_add(1, Ordering::Relaxed) == 0 {
                    eprintln!(
                        "ds serve: journal append failed ({e}); durability degraded for {}",
                        self.path.display()
                    );
                }
            }
        }
    }

    /// Records an accepted job (before the submit response is sent).
    pub fn job_submitted(&self, id: u64, key: &str, tasks: &[Task]) {
        self.append(submitted_line(id, key, tasks));
    }

    /// Records a worker picking up task `idx` of job `id`.
    pub fn task_started(&self, id: u64, idx: usize) {
        self.append(record_line("task-started", id, Some(idx), None));
    }

    /// Records task `idx` of job `id` reaching a terminal outcome.
    pub fn task_done(&self, id: u64, idx: usize, outcome: &str) {
        self.append(record_line("task-done", id, Some(idx), Some(outcome)));
    }

    /// Records every task of job `id` having completed.
    pub fn job_done(&self, id: u64) {
        self.append(record_line("job-done", id, None, None));
    }
}

/// Moves a corrupt journal into `<dir>/quarantine/` (the same
/// convention the result store uses for corrupt cache files) so it
/// stops shadowing recovery while staying available for post-mortem
/// inspection.
fn quarantine(dir: &Path, path: &Path) -> Option<PathBuf> {
    let qdir = dir.join("quarantine");
    std::fs::create_dir_all(&qdir).ok()?;
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dest = qdir.join(format!(
        "journal-{}-{}.ndjson",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::rename(path, &dest).ok()?;
    Some(dest)
}

#[derive(Debug)]
struct PendingJob {
    key: String,
    tasks: Vec<Task>,
    done: Vec<bool>,
    finished: bool,
}

/// Replays the journal at `path`. `mutate` enables the on-disk
/// repairs ([`Journal::open`]): truncating a torn tail and
/// quarantining a corrupt file. [`Journal::peek`] replays read-only.
fn load(dir: &Path, path: &Path, mutate: bool) -> Recovery {
    let mut recovery = Recovery::default();
    let Ok(mut file) = File::open(path) else {
        return recovery; // no journal yet: nothing to recover
    };
    let mut text = String::new();
    if file.read_to_string(&mut text).is_err() {
        // Unreadable (e.g. not UTF-8 after a hard crash): quarantine.
        drop(file);
        if mutate {
            recovery.quarantined = quarantine(dir, path);
        }
        return recovery;
    }
    drop(file);

    let mut jobs: std::collections::BTreeMap<u64, PendingJob> = std::collections::BTreeMap::new();
    let mut good_bytes = 0usize;
    let mut corrupt: Option<String> = None;
    let mut offsets = Vec::new(); // byte offset after each parsed line
    {
        let mut at = 0usize;
        for line in text.split_inclusive('\n') {
            at += line.len();
            if line.ends_with('\n') {
                offsets.push(at);
            }
        }
    }
    let complete_lines = offsets.len();
    for (n, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            if n < complete_lines {
                good_bytes = offsets[n];
            }
            continue;
        }
        let parsed = json::parse(trimmed)
            .map_err(|e| e.to_string())
            .and_then(|doc| apply_record(&doc, &mut jobs));
        match parsed {
            Ok(()) => {
                recovery.records += 1;
                if n < complete_lines {
                    good_bytes = offsets[n];
                } else {
                    // A parseable final fragment without its newline
                    // still counts as torn: the fsync that would have
                    // sealed it never happened... but its content is
                    // intact, so keep it and reseal on compaction.
                    good_bytes = text.len();
                }
            }
            Err(why) => {
                if n >= complete_lines {
                    // Torn tail: the final line never got its newline
                    // — the signature of a crash interrupting the
                    // append mid-record. Truncate it away and keep
                    // the prefix.
                    recovery.torn_tail = true;
                } else {
                    // A newline-sealed record that fails to parse or
                    // apply is corruption wherever it sits — a fully
                    // written final line included. Classifying it as
                    // torn would silently truncate real damage.
                    corrupt = Some(format!("record {}: {why}", n + 1));
                }
                break;
            }
        }
    }

    if let Some(why) = corrupt {
        if mutate {
            recovery.quarantined = quarantine(dir, path);
            eprintln!(
                "ds serve: journal corrupt ({why}); quarantined to {:?}, starting fresh",
                recovery.quarantined
            );
        } else {
            recovery.quarantined = Some(path.to_path_buf());
        }
        recovery.records = 0;
        return recovery;
    }
    if recovery.torn_tail && mutate {
        let file = OpenOptions::new().write(true).open(path);
        if let Ok(file) = file {
            let _ = file.set_len(good_bytes as u64);
            let _ = file.sync_data();
        }
    }

    recovery.jobs = jobs
        .into_iter()
        .filter(|(_, job)| !job.finished)
        .map(|(id, job)| RecoveredJob {
            id,
            key: job.key,
            completed: job.done.iter().filter(|d| **d).count(),
            tasks: job.tasks,
        })
        .collect();
    recovery
}

/// Applies one parsed record to the replay state.
///
/// # Errors
///
/// A message describing the structural problem — the caller treats a
/// failing interior record as corruption.
fn apply_record(
    doc: &Json,
    jobs: &mut std::collections::BTreeMap<u64, PendingJob>,
) -> Result<(), String> {
    let rec = doc
        .get("rec")
        .and_then(Json::as_str)
        .ok_or("missing \"rec\"")?;
    let id = doc
        .get("job")
        .and_then(Json::as_u64)
        .ok_or("missing \"job\"")?;
    match rec {
        "job-submitted" => {
            let key = doc
                .get("key")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            let rows = doc
                .get("tasks")
                .and_then(Json::as_arr)
                .ok_or("job-submitted without \"tasks\"")?;
            let tasks: Vec<Task> = rows
                .iter()
                .map(task_from_json)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("job {id}: {e}"))?;
            if tasks.is_empty() {
                return Err(format!("job {id} submitted with no tasks"));
            }
            let done = vec![false; tasks.len()];
            if jobs
                .insert(
                    id,
                    PendingJob {
                        key,
                        tasks,
                        done,
                        finished: false,
                    },
                )
                .is_some()
            {
                return Err(format!("job {id} submitted twice"));
            }
        }
        "task-started" => {
            let job = jobs.get(&id).ok_or(format!("job {id} never submitted"))?;
            let idx = doc
                .get("task")
                .and_then(Json::as_u64)
                .ok_or("task-started without \"task\"")? as usize;
            if idx >= job.tasks.len() {
                return Err(format!("job {id} task {idx} out of range"));
            }
        }
        "task-done" => {
            let job = jobs
                .get_mut(&id)
                .ok_or(format!("job {id} never submitted"))?;
            let idx = doc
                .get("task")
                .and_then(Json::as_u64)
                .ok_or("task-done without \"task\"")? as usize;
            if idx >= job.done.len() {
                return Err(format!("job {id} task {idx} out of range"));
            }
            job.done[idx] = true;
        }
        "job-done" => {
            jobs.get_mut(&id)
                .ok_or(format!("job {id} never submitted"))?
                .finished = true;
        }
        other => return Err(format!("unknown record kind {other:?}")),
    }
    Ok(())
}

fn record_line(rec: &str, id: u64, idx: Option<usize>, outcome: Option<&str>) -> String {
    let mut fields = vec![
        ("rec".to_string(), Json::Str(rec.into())),
        ("job".to_string(), Json::Int(id)),
    ];
    if let Some(idx) = idx {
        fields.push(("task".into(), Json::Int(idx as u64)));
    }
    if let Some(outcome) = outcome {
        fields.push(("outcome".into(), Json::Str(outcome.into())));
    }
    Json::Obj(fields).compact()
}

fn submitted_line(id: u64, key: &str, tasks: &[Task]) -> String {
    Json::Obj(vec![
        ("rec".into(), Json::Str("job-submitted".into())),
        ("job".into(), Json::Int(id)),
        ("key".into(), Json::Str(key.into())),
        (
            "tasks".into(),
            Json::Arr(tasks.iter().map(task_to_json).collect()),
        ),
    ])
    .compact()
}

/// The scalar configuration knobs the submission API can override
/// (`crates/serve/src/api.rs`), journaled by value so replay rebuilds
/// the exact configuration. The [`TaskKey`] fingerprint check below
/// guarantees this list can never silently fall out of date: a config
/// that does not round-trip fails recovery loudly instead.
fn config_to_json(cfg: &SystemConfig) -> Json {
    Json::Obj(vec![
        ("sms".into(), Json::Int(cfg.sms as u64)),
        ("warps_per_sm".into(), Json::Int(cfg.warps_per_sm as u64)),
        (
            "store_buffer_entries".into(),
            Json::Int(cfg.store_buffer_entries as u64),
        ),
        (
            "store_drain_parallelism".into(),
            Json::Int(cfg.store_drain_parallelism as u64),
        ),
        ("tlb_entries".into(), Json::Int(cfg.tlb_entries as u64)),
        (
            "gpu_tlb_entries".into(),
            Json::Int(cfg.gpu_tlb_entries as u64),
        ),
        (
            "direct_hop_latency".into(),
            Json::Int(cfg.direct_hop_latency),
        ),
        ("coh_hop_latency".into(), Json::Int(cfg.coh_hop_latency)),
        ("gpu_l2_prefetch".into(), Json::Bool(cfg.gpu_l2_prefetch)),
        ("directory_filter".into(), Json::Bool(cfg.directory_filter)),
    ])
}

fn config_from_json(doc: Option<&Json>) -> Result<SystemConfig, String> {
    let mut cfg = SystemConfig::paper_default();
    let Some(doc) = doc else { return Ok(cfg) };
    let int = |key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("config missing {key:?}"))
    };
    let flag = |key: &str| match doc.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("config missing boolean {key:?}")),
    };
    cfg.sms = int("sms")? as usize;
    cfg.warps_per_sm = int("warps_per_sm")? as usize;
    cfg.store_buffer_entries = int("store_buffer_entries")? as usize;
    cfg.store_drain_parallelism = int("store_drain_parallelism")? as usize;
    cfg.tlb_entries = int("tlb_entries")? as usize;
    cfg.gpu_tlb_entries = int("gpu_tlb_entries")? as usize;
    cfg.direct_hop_latency = int("direct_hop_latency")?;
    cfg.coh_hop_latency = int("coh_hop_latency")?;
    cfg.gpu_l2_prefetch = flag("gpu_l2_prefetch")?;
    cfg.directory_filter = flag("directory_filter")?;
    cfg.validate()?;
    Ok(cfg)
}

fn net_rates_to_json(rates: &ds_core::NetFaultRates) -> Json {
    Json::Arr(vec![
        Json::Int(rates.drop as u64),
        Json::Int(rates.dup as u64),
        Json::Int(rates.delay as u64),
        Json::Int(rates.delay_cycles),
    ])
}

fn net_rates_from_json(doc: Option<&Json>) -> Result<ds_core::NetFaultRates, String> {
    let arr = doc
        .and_then(Json::as_arr)
        .filter(|a| a.len() == 4)
        .ok_or("net fault rates must be a 4-element array")?;
    let val = |i: usize| arr[i].as_u64().ok_or("net fault rate must be an integer");
    Ok(ds_core::NetFaultRates {
        drop: val(0)? as u16,
        dup: val(1)? as u16,
        delay: val(2)? as u16,
        delay_cycles: val(3)?,
    })
}

fn faults_to_json(plan: &FaultPlan) -> Json {
    if !plan.is_active() {
        return Json::Null;
    }
    Json::Obj(vec![
        ("seed".into(), Json::Int(plan.seed)),
        ("coh_net".into(), net_rates_to_json(&plan.coh_net)),
        ("direct_net".into(), net_rates_to_json(&plan.direct_net)),
        ("gpu_net".into(), net_rates_to_json(&plan.gpu_net)),
        (
            "dram_stall_rate".into(),
            Json::Int(plan.dram_stall_rate as u64),
        ),
        (
            "dram_stall_cycles".into(),
            Json::Int(plan.dram_stall_cycles),
        ),
        (
            "stuck_banks".into(),
            Json::Arr(
                plan.stuck_banks
                    .iter()
                    .map(|b| Json::Int(*b as u64))
                    .collect(),
            ),
        ),
        ("ack_timeout".into(), Json::Int(plan.ack_timeout)),
        ("max_retries".into(), Json::Int(plan.max_retries as u64)),
        ("watchdog_gap".into(), Json::Int(plan.watchdog_gap)),
        (
            "livelock_retries".into(),
            Json::Int(plan.livelock_retries as u64),
        ),
    ])
}

fn faults_from_json(doc: Option<&Json>) -> Result<FaultPlan, String> {
    let Some(doc) = doc else {
        return Ok(FaultPlan::default());
    };
    if matches!(doc, Json::Null) {
        return Ok(FaultPlan::default());
    }
    let int = |key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("faults missing {key:?}"))
    };
    let stuck = doc
        .get("stuck_banks")
        .and_then(Json::as_arr)
        .ok_or("faults missing \"stuck_banks\"")?
        .iter()
        .map(|b| b.as_u64().map(|v| v as u16).ok_or("bad stuck bank"))
        .collect::<Result<Vec<u16>, _>>()?;
    Ok(FaultPlan {
        seed: int("seed")?,
        coh_net: net_rates_from_json(doc.get("coh_net"))?,
        direct_net: net_rates_from_json(doc.get("direct_net"))?,
        gpu_net: net_rates_from_json(doc.get("gpu_net"))?,
        dram_stall_rate: int("dram_stall_rate")? as u16,
        dram_stall_cycles: int("dram_stall_cycles")?,
        stuck_banks: stuck,
        ack_timeout: int("ack_timeout")?,
        max_retries: int("max_retries")? as u32,
        watchdog_gap: int("watchdog_gap")?,
        livelock_retries: int("livelock_retries")? as u32,
    })
}

/// Serializes one task for the `job-submitted` record, embedding its
/// [`TaskKey`] fingerprints so replay can prove the round-trip exact.
pub fn task_to_json(task: &Task) -> Json {
    let key = task.key();
    Json::Obj(vec![
        ("bench".into(), Json::Str(task.code.clone())),
        ("input".into(), Json::Str(task.input.to_string())),
        ("mode".into(), Json::Str(task.mode.to_string())),
        ("pulse".into(), Json::Int(task.pulse)),
        ("config".into(), config_to_json(&task.cfg)),
        ("faults".into(), faults_to_json(&task.faults)),
        ("fp".into(), Json::Str(format!("{:016x}", key.fingerprint))),
        (
            "fault_fp".into(),
            Json::Str(format!("{:016x}", key.fault_fp)),
        ),
    ])
}

fn parse_mode_name(name: &str) -> Option<Mode> {
    match name {
        "ccsm" | "CCSM" => Some(Mode::Ccsm),
        "ds" | "DS" => Some(Mode::DirectStore),
        "ds-only" | "DS-only" => Some(Mode::DirectStoreOnly),
        _ => None,
    }
}

/// Rebuilds a task from its journaled form and verifies its identity:
/// the rebuilt [`TaskKey`] fingerprints must match the journaled
/// ones, or the record is corrupt.
///
/// # Errors
///
/// A message naming the field that failed; the journal loader treats
/// it as corruption.
pub fn task_from_json(doc: &Json) -> Result<Task, String> {
    let text = |key: &str| {
        doc.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("task missing {key:?}"))
    };
    let code = text("bench")?.to_string();
    let input: InputSize =
        parse_input(text("input")?).ok_or_else(|| format!("bad input {:?}", text("input")))?;
    let mode =
        parse_mode_name(text("mode")?).ok_or_else(|| format!("bad mode {:?}", text("mode")))?;
    let pulse = doc
        .get("pulse")
        .and_then(Json::as_u64)
        .ok_or("task missing \"pulse\"")?;
    let cfg = config_from_json(doc.get("config"))?;
    let faults = faults_from_json(doc.get("faults"))?;
    let task = Task {
        cfg,
        code,
        input,
        mode,
        faults,
        pulse,
    };
    let key: TaskKey = task.key();
    let want_fp = u64::from_str_radix(text("fp")?, 16).map_err(|_| "bad fp".to_string())?;
    let want_fault =
        u64::from_str_radix(text("fault_fp")?, 16).map_err(|_| "bad fault_fp".to_string())?;
    if key.fingerprint != want_fp {
        return Err(format!(
            "config fingerprint mismatch: rebuilt {:016x}, journaled {want_fp:016x}",
            key.fingerprint
        ));
    }
    if key.fault_fp != want_fault {
        return Err(format!(
            "fault fingerprint mismatch: rebuilt {:016x}, journaled {want_fault:016x}",
            key.fault_fp
        ));
    }
    Ok(task)
}

/// Compares a rebuilt task list against the original by [`TaskKey`].
pub fn keys_match(a: &[Task], b: &[Task]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.key() == y.key())
}

#[allow(clippy::unwrap_used)]
#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ds-anvil-{}-{name}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_tasks() -> Vec<Task> {
        let mut cfg = SystemConfig::paper_default();
        cfg.sms = 8;
        cfg.gpu_l2_prefetch = true;
        let plain = Task::new(&cfg, "VA", InputSize::Small, Mode::Ccsm);
        let faulted = Task::new(&cfg, "MM", InputSize::Big, Mode::DirectStore)
            .with_faults(FaultPlan {
                seed: 9,
                dram_stall_rate: 64,
                dram_stall_cycles: 500,
                stuck_banks: vec![3],
                ..FaultPlan::default()
            })
            .with_pulse(1000);
        vec![plain, faulted]
    }

    #[test]
    fn tasks_round_trip_with_identity_check() {
        for task in sample_tasks() {
            let back = task_from_json(&task_to_json(&task)).unwrap();
            assert_eq!(back.key(), task.key());
        }
    }

    #[test]
    fn tampered_config_fails_the_fingerprint_check() {
        let doc = task_to_json(&sample_tasks()[0]).compact();
        let tampered = doc.replace("\"sms\":8", "\"sms\":4");
        assert_ne!(doc, tampered, "tamper target present");
        let err = task_from_json(&json::parse(&tampered).unwrap()).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn open_replays_unfinished_jobs_and_compacts() {
        let dir = tmp("replay");
        let tasks = sample_tasks();
        {
            let (journal, recovery) = Journal::open(&dir).unwrap();
            assert!(recovery.jobs.is_empty(), "a fresh journal starts empty");
            assert!(!recovery.torn_tail && recovery.quarantined.is_none());
            journal.job_submitted(3, "key-a", &tasks);
            journal.task_started(3, 0);
            journal.task_done(3, 0, "ok");
            journal.job_submitted(4, "", &tasks[..1]);
            journal.task_started(4, 0);
            journal.task_done(4, 0, "ok");
            journal.job_done(4);
            assert_eq!(journal.stats().appended, 7);
        }
        let (_journal, recovery) = Journal::open(&dir).unwrap();
        assert_eq!(recovery.jobs.len(), 1, "job 4 finished, job 3 did not");
        let job = &recovery.jobs[0];
        assert_eq!((job.id, job.key.as_str(), job.completed), (3, "key-a", 1));
        assert!(keys_match(&job.tasks, &tasks));
        // Compaction rewrote just the unfinished submission.
        let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"job-submitted\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp("torn");
        {
            let (journal, _) = Journal::open(&dir).unwrap();
            journal.job_submitted(1, "", &sample_tasks()[..1]);
        }
        // A crash mid-append leaves a partial final record.
        let path = dir.join(JOURNAL_FILE);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"rec\":\"task-do").unwrap();
        drop(file);
        let (_journal, recovery) = Journal::open(&dir).unwrap();
        assert!(recovery.torn_tail, "partial tail detected");
        assert!(recovery.quarantined.is_none());
        assert_eq!(recovery.jobs.len(), 1);
        // The compacted journal parses cleanly end to end.
        let again = Journal::peek(&dir);
        assert!(!again.torn_tail);
        assert_eq!(again.jobs.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interior_corruption_quarantines_and_boots_fresh() {
        let dir = tmp("corrupt");
        std::fs::write(
            dir.join(JOURNAL_FILE),
            "not json at all\n{\"rec\":\"job-done\",\"job\":9}\n",
        )
        .unwrap();
        let (_journal, recovery) = Journal::open(&dir).unwrap();
        let quarantined = recovery.quarantined.expect("journal quarantined");
        assert!(quarantined.exists());
        assert!(quarantined.starts_with(dir.join("quarantine")));
        assert!(recovery.jobs.is_empty());
        // The replacement journal is usable.
        let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert!(text.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_for_unknown_jobs_are_corruption() {
        let dir = tmp("unknown");
        std::fs::write(
            dir.join(JOURNAL_FILE),
            "{\"rec\":\"task-done\",\"job\":5,\"task\":0,\"outcome\":\"ok\"}\n",
        )
        .unwrap();
        // The record is fully written and newline-sealed, so its
        // invalidity is corruption even on the final line — torn-tail
        // handling is reserved for records the crash left unsealed.
        let recovery = Journal::peek(&dir);
        assert!(!recovery.torn_tail);
        assert!(recovery.quarantined.is_some());
        assert!(recovery.jobs.is_empty());
        // `open` moves it into quarantine and boots fresh.
        let (_journal, recovery) = Journal::open(&dir).unwrap();
        let quarantined = recovery.quarantined.expect("quarantined");
        assert!(quarantined.starts_with(dir.join("quarantine")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsealed_invalid_final_record_is_a_torn_tail() {
        let dir = tmp("unsealed");
        {
            let (journal, _) = Journal::open(&dir).unwrap();
            journal.job_submitted(1, "", &sample_tasks()[..1]);
        }
        // The same semantically-invalid record, but missing its
        // newline: the append never finished, so this *is* a torn
        // tail — truncated, not quarantined.
        let mut file = OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_FILE))
            .unwrap();
        file.write_all(b"{\"rec\":\"task-done\",\"job\":5,\"task\":0,\"outcome\":\"ok\"}")
            .unwrap();
        drop(file);
        let (_journal, recovery) = Journal::open(&dir).unwrap();
        assert!(recovery.torn_tail);
        assert!(recovery.quarantined.is_none());
        assert_eq!(recovery.jobs.len(), 1, "the sealed prefix survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appenders_never_interleave() {
        let dir = tmp("concurrent");
        let (journal, _) = Journal::open(&dir).unwrap();
        let tasks = sample_tasks();
        journal.job_submitted(1, "", &tasks[..1]);
        let journal = std::sync::Arc::new(journal);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let journal = std::sync::Arc::clone(&journal);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        journal.task_started(1, 0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(journal.stats().appended, 401);
        assert_eq!(journal.stats().errors, 0);
        let recovery = Journal::peek(&dir);
        assert!(!recovery.torn_tail);
        assert!(recovery.quarantined.is_none());
        assert_eq!(recovery.records, 401, "every line parses back");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
