//! The result store: an in-process memo plus an opt-in on-disk JSON
//! cache.
//!
//! The memo shares results between figures inside one process (e.g.
//! `ds run --format csv` after a sweep re-simulates nothing). The disk
//! cache extends that across processes: one file per configuration
//! fingerprint under the cache directory (`results/` by convention),
//! named `ds-runner-cache-<fingerprint>.json`. Invalidation is by
//! fingerprint: any config edit changes the fingerprint, pointing at a
//! different (initially absent) file; stale files are simply never
//! read again. A file whose recorded fingerprint disagrees with its
//! name — hand-edited or corrupt — is ignored and later overwritten.
//! Writes are atomic (temp file + rename), so concurrent readers —
//! other worker threads or whole other processes sharing `results/` —
//! never observe a torn file.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

use ds_core::{InputSize, Mode, RunReport, SystemConfig};

use crate::job::TaskKey;
use crate::json::{self, Json};
use crate::report::{mode_name, parse_input, parse_mode, report_from_json, report_to_json};

/// On-disk cache format version; bump on schema changes to orphan old
/// files. Version 2 added latency histograms and epoch series to the
/// per-run report; version 3 added the per-stage cycle breakdown;
/// version 4 added the per-cacheline lens (push efficacy, sharing
/// forensics, spatial heatmaps); version 5 added the ds-chaos fault
/// and degradation counters (`pushes_attempted`, `pushes_retried`,
/// `pushes_degraded`, `faults_injected`, lens `push_degraded`);
/// version 6 added the optional `host` profile (ds-prof host-time
/// self-accounting); version 7 added the optional `scope` span tree
/// (ds-scope correlated span tracing; no report carries it any more,
/// and none was ever persisted); version 8 added the optional
/// `pulse` time-series telemetry (ds-pulse windowed counters, gauges
/// and anomaly annotations).
const FORMAT_VERSION: u64 = 8;

/// Memo + optional disk cache, keyed by [`TaskKey`].
#[derive(Debug, Default)]
pub struct ResultStore {
    memo: HashMap<TaskKey, RunReport>,
    disk_dir: Option<PathBuf>,
    /// Fingerprints whose cache file has already been read this
    /// process (whether or not it existed).
    loaded: HashSet<u64>,
}

impl ResultStore {
    /// An empty, memory-only store.
    pub fn new() -> Self {
        ResultStore::default()
    }

    /// Enables the on-disk cache under `dir` (created on first write).
    pub fn enable_disk(&mut self, dir: impl Into<PathBuf>) {
        self.disk_dir = Some(dir.into());
        self.loaded.clear();
    }

    /// Whether the disk cache is enabled.
    pub fn disk_enabled(&self) -> bool {
        self.disk_dir.is_some()
    }

    /// Looks up a result, consulting (and lazily loading) the disk
    /// cache for the key's fingerprint.
    pub fn get(&mut self, key: &TaskKey) -> Option<&RunReport> {
        self.ensure_loaded(key.fingerprint);
        self.memo.get(key)
    }

    /// Records a freshly computed result.
    pub fn insert(&mut self, key: TaskKey, report: RunReport) {
        self.memo.insert(key, report);
    }

    /// Number of memoized results.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    fn cache_path(dir: &Path, fingerprint: u64) -> PathBuf {
        dir.join(format!("ds-runner-cache-{fingerprint:016x}.json"))
    }

    fn ensure_loaded(&mut self, fingerprint: u64) {
        let Some(dir) = &self.disk_dir else { return };
        if !self.loaded.insert(fingerprint) {
            return;
        }
        let path = Self::cache_path(dir, fingerprint);
        let Ok(bytes) = std::fs::read(&path) else {
            return; // no cache file yet
        };
        let parsed = String::from_utf8(bytes)
            .map_err(|_| "not UTF-8".to_string())
            .and_then(|text| parse_cache_file(&text, fingerprint));
        match parsed {
            Ok(entries) => {
                for (key, report) in entries {
                    self.memo.entry(key).or_insert(report);
                }
            }
            Err(reason) => {
                let quarantined = Self::quarantine(dir, &path);
                match quarantined {
                    Some(dest) => eprintln!(
                        "ds-runner: quarantined corrupt cache file {} -> {} ({reason})",
                        path.display(),
                        dest.display()
                    ),
                    None => eprintln!(
                        "ds-runner: ignoring corrupt cache file {} ({reason}; \
                         quarantine failed, file left in place)",
                        path.display()
                    ),
                }
            }
        }
    }

    /// Moves a corrupt cache file into `<dir>/quarantine/` so it stops
    /// shadowing the slot (the task re-runs and re-persists cleanly)
    /// while staying available for post-mortem inspection. Returns the
    /// destination path, or `None` if the move failed.
    fn quarantine(dir: &Path, path: &Path) -> Option<PathBuf> {
        let qdir = dir.join("quarantine");
        std::fs::create_dir_all(&qdir).ok()?;
        let name = path.file_name()?;
        let dest = qdir.join(name);
        std::fs::rename(path, &dest).ok()?;
        Some(dest)
    }

    /// Writes every memoized result for `fingerprint` to its cache
    /// file. `config` is the configuration the fingerprint names,
    /// recorded for human inspection.
    ///
    /// Best-effort: IO failures are reported on stderr, not fatal — a
    /// missing cache only costs re-simulation.
    pub fn persist(&self, fingerprint: u64, config: &SystemConfig) {
        let Some(dir) = &self.disk_dir else { return };
        // Reports produced at a shed probe level (`--probe-level
        // stages|minimal`) carry empty stage/lens sections; persisting
        // them would poison the shared cache for full-probe consumers.
        // The simulated metrics are identical across levels, so the
        // skipped write costs only a re-simulation at full level.
        if ds_probe::prof::level() != ds_probe::ProbeLevel::Full {
            return;
        }
        // Faulted (`fault_fp != 0`) and pulsed (`pulse != 0`) results
        // are deliberately never persisted: the cache file schema
        // identifies entries by (code, input, mode) only, and both are
        // cheap, exploratory runs whose extra payloads would bloat the
        // cache.
        let mut entries: Vec<(&TaskKey, &RunReport)> = self
            .memo
            .iter()
            .filter(|(k, _)| k.fingerprint == fingerprint && k.fault_fp == 0 && k.pulse == 0)
            .collect();
        entries.sort_by_key(|(k, _)| (k.code.clone(), rank_input(k.input), rank_mode(k.mode)));
        let doc = Json::Obj(vec![
            ("format".into(), Json::Int(FORMAT_VERSION)),
            (
                "fingerprint".into(),
                Json::Str(format!("{fingerprint:016x}")),
            ),
            ("config".into(), Json::Str(format!("{config:?}"))),
            (
                "entries".into(),
                Json::Arr(
                    entries
                        .iter()
                        .map(|(k, r)| {
                            Json::Obj(vec![
                                ("code".into(), Json::Str(k.code.clone())),
                                ("input".into(), Json::Str(k.input.to_string())),
                                ("mode".into(), Json::Str(mode_name(k.mode))),
                                ("report".into(), report_to_json(r)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("ds-runner: cannot create cache dir {}: {e}", dir.display());
            return;
        }
        let path = Self::cache_path(dir, fingerprint);
        if let Err(e) = write_atomic(dir, &path, doc.pretty().as_bytes()) {
            eprintln!("ds-runner: cannot write cache {}: {e}", path.display());
        }
    }
}

/// Writes `bytes` to `path` atomically: the content lands in a
/// uniquely named temp file in the same directory and is `rename`d
/// into place, so a concurrent reader sees either the old file or the
/// new one — never a torn prefix for the quarantine path to eat. The
/// temp name carries the pid and a process-wide counter so concurrent
/// writers (threads or processes) never share one. Public so the
/// postmortem dumper shares the same torn-write guarantee.
///
/// # Errors
///
/// Propagates the underlying write or rename failure.
pub fn write_atomic(dir: &Path, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("cache");
    let tmp = dir.join(format!(
        ".{name}.tmp-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let write = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write
}

fn rank_input(input: InputSize) -> u8 {
    match input {
        InputSize::Small => 0,
        InputSize::Big => 1,
    }
}

fn rank_mode(mode: Mode) -> u8 {
    match mode {
        Mode::Ccsm => 0,
        Mode::DirectStore => 1,
        Mode::DirectStoreOnly => 2,
    }
}

fn parse_cache_file(
    text: &str,
    expected_fingerprint: u64,
) -> Result<Vec<(TaskKey, RunReport)>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    if doc.get("format").and_then(Json::as_u64) != Some(FORMAT_VERSION) {
        return Err("unsupported format version".into());
    }
    let recorded = doc
        .get("fingerprint")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("missing fingerprint")?;
    if recorded != expected_fingerprint {
        return Err(format!(
            "fingerprint mismatch: file says {recorded:016x}, name says {expected_fingerprint:016x}"
        ));
    }
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("missing entries")?;
    entries
        .iter()
        .map(|entry| {
            let code = entry
                .get("code")
                .and_then(Json::as_str)
                .ok_or("entry missing code")?
                .to_string();
            let input = entry
                .get("input")
                .and_then(Json::as_str)
                .and_then(parse_input)
                .ok_or("entry missing input")?;
            let mode = entry
                .get("mode")
                .and_then(Json::as_str)
                .and_then(parse_mode)
                .ok_or("entry missing mode")?;
            let report = report_from_json(entry.get("report").ok_or("entry missing report")?)?;
            Ok((
                TaskKey {
                    fingerprint: expected_fingerprint,
                    code,
                    input,
                    mode,
                    fault_fp: 0,
                    pulse: 0,
                },
                report,
            ))
        })
        .collect()
}

/// A minimal all-zero report for store/shared-store unit tests.
#[cfg(test)]
pub(crate) fn test_report(cycles: u64) -> RunReport {
    use ds_cache::CacheStats;
    use ds_noc::XbarStats;
    use ds_sim::Cycle;
    RunReport {
        mode: Mode::Ccsm,
        total_cycles: Cycle::new(cycles),
        gpu_l2: CacheStats::new(),
        cpu_l2: CacheStats::new(),
        gpu_l1: CacheStats::new(),
        cpu_l1: CacheStats::new(),
        coh_net: XbarStats::default(),
        direct_net: XbarStats::default(),
        gpu_net: XbarStats::default(),
        dram_reads: 0,
        dram_writes: 0,
        direct_pushes: 0,
        store_buffer_stalls: 0,
        kernels_run: 0,
        warps_completed: 0,
        first_kernel_start: Cycle::ZERO,
        last_kernel_end: Cycle::ZERO,
        kernel_spans: vec![],
        push_bypasses: 0,
        hub_transactions: 0,
        hub_conflicts: 0,
        hub_probes: 0,
        dram_row_hits: 0,
        pushes_attempted: 0,
        pushes_retried: 0,
        pushes_degraded: 0,
        faults_injected: 0,
        latency: ds_probe::LatencyReport::new(),
        stages: ds_probe::StageBreakdown::new(),
        lens: ds_probe::LensReport::empty(),
        epochs: vec![],
        epoch_window: 0,
        events: 0,
        host: None,
        pulse: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::config_fingerprint;
    use crate::job::Task;

    fn tiny_report(cycles: u64) -> RunReport {
        test_report(cycles)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ds-runner-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memo_round_trip() {
        let cfg = SystemConfig::paper_default();
        let key = Task::new(&cfg, "VA", InputSize::Small, Mode::Ccsm).key();
        let mut store = ResultStore::new();
        assert!(store.get(&key).is_none());
        store.insert(key.clone(), tiny_report(777));
        assert_eq!(store.get(&key).unwrap().total_cycles.as_u64(), 777);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn disk_round_trip_and_reload() {
        let dir = tmp_dir("roundtrip");
        let cfg = SystemConfig::paper_default();
        let fp = config_fingerprint(&cfg);
        let key = Task::new(&cfg, "VA", InputSize::Small, Mode::Ccsm).key();

        let mut writer = ResultStore::new();
        writer.enable_disk(&dir);
        writer.insert(key.clone(), tiny_report(4242));
        writer.persist(fp, &cfg);

        let mut reader = ResultStore::new();
        reader.enable_disk(&dir);
        let loaded = reader.get(&key).expect("cache file supplies the result");
        assert_eq!(loaded.total_cycles.as_u64(), 4242);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_and_mismatched_files_are_quarantined() {
        let dir = tmp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = SystemConfig::paper_default();
        let fp = config_fingerprint(&cfg);
        let path = ResultStore::cache_path(&dir, fp);
        let quarantined = dir.join("quarantine").join(path.file_name().unwrap());
        std::fs::write(&path, "{ not json").unwrap();

        let key = Task::new(&cfg, "VA", InputSize::Small, Mode::Ccsm).key();
        let mut store = ResultStore::new();
        store.enable_disk(&dir);
        assert!(store.get(&key).is_none(), "corrupt file must not poison");
        assert!(!path.exists(), "corrupt file moved out of the cache slot");
        assert!(quarantined.exists(), "corrupt file kept for inspection");

        // A syntactically fine file whose fingerprint disagrees with
        // its name is also quarantined.
        let doc = Json::Obj(vec![
            ("format".into(), Json::Int(FORMAT_VERSION)),
            ("fingerprint".into(), Json::Str("00000000deadbeef".into())),
            ("config".into(), Json::Str("x".into())),
            ("entries".into(), Json::Arr(vec![])),
        ]);
        std::fs::write(&path, doc.pretty()).unwrap();
        let mut store2 = ResultStore::new();
        store2.enable_disk(&dir);
        assert!(store2.get(&key).is_none());
        assert!(!path.exists());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_and_old_version_files_are_quarantined_then_rewritable() {
        let dir = tmp_dir("quarantine");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = SystemConfig::paper_default();
        let fp = config_fingerprint(&cfg);
        let key = Task::new(&cfg, "VA", InputSize::Small, Mode::Ccsm).key();
        let path = ResultStore::cache_path(&dir, fp);

        // A valid file truncated mid-write (crash, full disk).
        let mut writer = ResultStore::new();
        writer.enable_disk(&dir);
        writer.insert(key.clone(), tiny_report(4242));
        writer.persist(fp, &cfg);
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let mut store = ResultStore::new();
        store.enable_disk(&dir);
        assert!(store.get(&key).is_none(), "truncated file must not load");
        assert!(!path.exists(), "truncated file quarantined");

        // A file from an older format version.
        let doc = Json::Obj(vec![
            ("format".into(), Json::Int(FORMAT_VERSION - 1)),
            ("fingerprint".into(), Json::Str(format!("{fp:016x}"))),
            ("config".into(), Json::Str("x".into())),
            ("entries".into(), Json::Arr(vec![])),
        ]);
        std::fs::write(&path, doc.pretty()).unwrap();
        let mut store2 = ResultStore::new();
        store2.enable_disk(&dir);
        assert!(store2.get(&key).is_none(), "old version must not load");
        assert!(!path.exists(), "old-version file quarantined");

        // Garbage bytes (not even UTF-8 JSON structure).
        std::fs::write(&path, [0u8, 159, 146, 150, 7, 255]).unwrap();
        let mut store3 = ResultStore::new();
        store3.enable_disk(&dir);
        assert!(store3.get(&key).is_none());
        assert!(!path.exists(), "garbage file quarantined");

        // The slot is clean again: a fresh persist round-trips.
        let mut rewriter = ResultStore::new();
        rewriter.enable_disk(&dir);
        rewriter.insert(key.clone(), tiny_report(7));
        rewriter.persist(fp, &cfg);
        let mut reader = ResultStore::new();
        reader.enable_disk(&dir);
        assert_eq!(reader.get(&key).unwrap().total_cycles.as_u64(), 7);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulted_results_stay_out_of_the_disk_cache() {
        let dir = tmp_dir("faulted");
        let cfg = SystemConfig::paper_default();
        let fp = config_fingerprint(&cfg);
        let mut plan = ds_core::FaultPlan::default();
        plan.direct_net.drop = 50;
        let faulted_key = Task::new(&cfg, "VA", InputSize::Small, Mode::DirectStore)
            .with_faults(plan)
            .key();
        let plain_key = Task::new(&cfg, "VA", InputSize::Small, Mode::Ccsm).key();

        let mut writer = ResultStore::new();
        writer.enable_disk(&dir);
        writer.insert(faulted_key.clone(), tiny_report(1));
        writer.insert(plain_key.clone(), tiny_report(2));
        writer.persist(fp, &cfg);

        let mut reader = ResultStore::new();
        reader.enable_disk(&dir);
        assert!(
            reader.get(&faulted_key).is_none(),
            "faulted entries are process-local"
        );
        assert_eq!(reader.get(&plain_key).unwrap().total_cycles.as_u64(), 2);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pulsed_results_stay_out_of_the_disk_cache() {
        let dir = tmp_dir("pulsed");
        let cfg = SystemConfig::paper_default();
        let fp = config_fingerprint(&cfg);
        let pulsed_key = Task::new(&cfg, "VA", InputSize::Small, Mode::DirectStore)
            .with_pulse(1000)
            .key();
        let plain_key = Task::new(&cfg, "VA", InputSize::Small, Mode::Ccsm).key();

        let mut writer = ResultStore::new();
        writer.enable_disk(&dir);
        writer.insert(pulsed_key.clone(), tiny_report(1));
        writer.insert(plain_key.clone(), tiny_report(2));
        writer.persist(fp, &cfg);

        let mut reader = ResultStore::new();
        reader.enable_disk(&dir);
        assert!(
            reader.get(&pulsed_key).is_none(),
            "pulsed entries are process-local"
        );
        assert_eq!(reader.get(&plain_key).unwrap().total_cycles.as_u64(), 2);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_persists_and_reads_never_tear() {
        // Satellite of the ds-serve PR: writers rewrite the same
        // fingerprint slot while readers load it. With atomic
        // temp-file + rename writes a reader sees a complete document
        // or none — never a torn prefix that would be quarantined.
        let dir = tmp_dir("race");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = SystemConfig::paper_default();
        let fp = config_fingerprint(&cfg);
        let key = Task::new(&cfg, "VA", InputSize::Small, Mode::Ccsm).key();

        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let (dir, cfg, key) = (dir.clone(), cfg.clone(), key.clone());
                scope.spawn(move || {
                    for i in 0..25 {
                        let mut store = ResultStore::new();
                        store.enable_disk(&dir);
                        store.insert(key.clone(), tiny_report(w * 1000 + i));
                        store.persist(fp, &cfg);
                    }
                });
            }
            for _ in 0..4 {
                let (dir, key) = (dir.clone(), key.clone());
                scope.spawn(move || {
                    for _ in 0..50 {
                        let mut store = ResultStore::new();
                        store.enable_disk(&dir);
                        // Either absent (not yet written) or a valid
                        // complete document; a torn read would
                        // quarantine, which the final assert catches.
                        let _ = store.get(&key);
                    }
                });
            }
        });

        assert!(
            !dir.join("quarantine").exists(),
            "a reader saw a torn cache file"
        );
        let mut reader = ResultStore::new();
        reader.enable_disk(&dir);
        assert!(reader.get(&key).is_some(), "final state is a valid file");
        assert!(
            !std::fs::read_dir(&dir).unwrap().any(|e| {
                let name = e.unwrap().file_name();
                name.to_string_lossy().contains(".tmp-")
            }),
            "temp files are renamed or cleaned up"
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_edits_point_at_different_files() {
        let cfg = SystemConfig::paper_default();
        let mut edited = SystemConfig::paper_default();
        edited.gpu_l2_prefetch = true;
        let dir = Path::new("results");
        assert_ne!(
            ResultStore::cache_path(dir, config_fingerprint(&cfg)),
            ResultStore::cache_path(dir, config_fingerprint(&edited))
        );
    }
}
