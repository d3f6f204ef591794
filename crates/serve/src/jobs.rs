//! The job registry, the bounded work queue, and admission control.
//!
//! A *job* is one submission: an ordered list of [`Task`]s. Jobs are
//! decomposed into per-task work items on a single bounded queue that
//! the worker pool drains; per-task results land back in the job's
//! slot vector, so result order is submission order regardless of
//! worker scheduling (the same slot discipline as `ds-runner`'s
//! executor).
//!
//! Admission control is a hard bound on *open* jobs (accepted but not
//! yet fully completed): a submission that would exceed the bound is
//! rejected immediately with an explicit error — the HTTP layer turns
//! that into a 429 — so a saturated service degrades by refusing work
//! it cannot queue instead of growing an unbounded backlog.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ds_probe::SpanRecord;
use ds_runner::shared::Provenance;
use ds_runner::{Task, TaskOutcome};

use crate::journal::{keys_match, Journal};

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted; no task picked up yet.
    Queued,
    /// At least one task picked up, not all completed.
    Running,
    /// Every task has a terminal outcome.
    Done,
}

impl JobState {
    /// Lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
        }
    }
}

/// One task's terminal result inside a job.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// How the task ended (report included when it completed).
    pub outcome: TaskOutcome,
    /// Whether the shared store served it without computing.
    pub provenance: Provenance,
    /// Service-level spans for this task (`task` plus its `queue-wait`
    /// / `store-lookup` / `sim-run` children), timestamps in
    /// microseconds since the service started. Empty when the worker
    /// recorded none.
    pub spans: Vec<SpanRecord>,
}

#[derive(Debug)]
struct Progress {
    results: Vec<Option<TaskResult>>,
    completed: usize,
    started: usize,
}

/// One accepted submission.
#[derive(Debug)]
pub struct JobRecord {
    /// Registry id, monotonically increasing from 1.
    pub id: u64,
    /// The submitted tasks, in submission order.
    pub tasks: Vec<Task>,
    /// The job's span id (child of the submitting request's span).
    pub span: u64,
    /// The submitting HTTP request's span id (0 when untraced).
    pub parent_span: u64,
    /// Whether this job was rebuilt from the ds-anvil journal after a
    /// restart (its tasks re-enqueued, completed ones expected to
    /// rehydrate as cache hits) rather than submitted over HTTP.
    pub recovered: bool,
    progress: Mutex<Progress>,
    /// Append-only live telemetry: one JSON line per span/progress
    /// event, streamed by `GET /jobs/<id>/events`.
    events: Mutex<Vec<String>>,
    events_wake: Condvar,
}

impl JobRecord {
    /// Appends one event line and wakes any streaming reader.
    pub fn push_event(&self, line: String) {
        lock(&self.events).push(line);
        self.events_wake.notify_all();
    }

    /// Clones the event lines from index `from` on, returning them
    /// with the next cursor position.
    pub fn events_since(&self, from: usize) -> (Vec<String>, usize) {
        let events = lock(&self.events);
        let lines: Vec<String> = events.get(from..).unwrap_or(&[]).to_vec();
        let next = events.len();
        (lines, next)
    }

    /// Blocks up to `timeout` for event lines past `from`. Returns
    /// `(lines, next_cursor, done)` where `done` reports whether the
    /// job had reached its terminal state at snapshot time — a reader
    /// drains the remaining lines and stops once both hold.
    pub fn wait_events(&self, from: usize, timeout: Duration) -> (Vec<String>, usize, bool) {
        let deadline = Instant::now() + timeout;
        let mut events = lock(&self.events);
        while events.len() <= from && self.state() != JobState::Done {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = self
                .events_wake
                .wait_timeout(events, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            events = guard;
        }
        let lines: Vec<String> = events.get(from..).unwrap_or(&[]).to_vec();
        let next = events.len();
        drop(events);
        (lines, next, self.state() == JobState::Done)
    }
    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        let p = lock(&self.progress);
        if p.completed == self.tasks.len() {
            JobState::Done
        } else if p.started > 0 {
            JobState::Running
        } else {
            JobState::Queued
        }
    }

    /// `(state, completed, total)` in one consistent snapshot.
    pub fn snapshot(&self) -> (JobState, usize, usize) {
        let p = lock(&self.progress);
        let total = self.tasks.len();
        let state = if p.completed == total {
            JobState::Done
        } else if p.started > 0 {
            JobState::Running
        } else {
            JobState::Queued
        };
        (state, p.completed, total)
    }

    /// Clones the per-task results recorded so far (slot is `None`
    /// until that task completes).
    pub fn results(&self) -> Vec<Option<TaskResult>> {
        lock(&self.progress).results.clone()
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The open-job bound is reached; retry after jobs complete.
    QueueFull {
        /// Jobs currently open (accepted, not fully completed).
        open: usize,
        /// The admission bound.
        limit: usize,
    },
    /// The service is shutting down.
    ShuttingDown,
    /// The submission itself is unusable (e.g. zero tasks).
    Empty,
    /// The submission reused an `Idempotency-Key` with a task list
    /// that differs from the job the key originally created — serving
    /// the stored job would hand the client unrelated results.
    KeyMismatch,
}

impl Rejection {
    /// The HTTP status the API answers with.
    pub fn status(&self) -> u16 {
        match self {
            Rejection::QueueFull { .. } | Rejection::ShuttingDown => 429,
            Rejection::Empty => 400,
            Rejection::KeyMismatch => 409,
        }
    }

    /// Human-readable reason.
    pub fn message(&self) -> String {
        match self {
            Rejection::QueueFull { open, limit } => {
                format!("queue full: {open} open job(s) at limit {limit}; retry later")
            }
            Rejection::ShuttingDown => "service is shutting down".into(),
            Rejection::Empty => "submission contains no tasks".into(),
            Rejection::KeyMismatch => {
                "idempotency key reuse: tasks differ from the key's original submission".into()
            }
        }
    }
}

/// A queued unit of work: one task of one job.
pub struct WorkItem {
    /// The owning job.
    pub job: Arc<JobRecord>,
    /// Index into [`JobRecord::tasks`].
    pub idx: usize,
    /// Enqueue time, for the queue-wait histogram.
    pub enqueued: Instant,
}

struct QueueInner {
    items: VecDeque<WorkItem>,
    /// Accepted jobs not yet fully completed — the admission gauge.
    open_jobs: usize,
    shutdown: bool,
}

/// Bound on remembered `Idempotency-Key` mappings: every keyed
/// submission adds one, and a long-running server must not grow an
/// entry per retry-wrapped request forever.
const IDEMPOTENCY_CAP: usize = 4096;

/// `Idempotency-Key` → job id with LRU eviction at
/// [`IDEMPOTENCY_CAP`]: a key older than the cap's worth of newer
/// submissions stops deduplicating, which is safe (the retry is
/// admitted as a fresh job) where unbounded growth is not.
#[derive(Default)]
struct IdemMap {
    map: HashMap<String, u64>,
    /// Keys in least→most recently used order.
    order: VecDeque<String>,
}

impl IdemMap {
    /// Looks up `key`, refreshing its recency on a hit.
    fn get(&mut self, key: &str) -> Option<u64> {
        let id = self.map.get(key).copied()?;
        if let Some(at) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(at).expect("position just found");
            self.order.push_back(k);
        }
        Some(id)
    }

    /// Inserts (or refreshes) `key → id`, evicting the least recently
    /// used mapping once the cap is exceeded.
    fn insert(&mut self, key: &str, id: u64) {
        if self.map.insert(key.to_string(), id).is_some() {
            if let Some(at) = self.order.iter().position(|k| k == key) {
                self.order.remove(at);
            }
        }
        self.order.push_back(key.to_string());
        while self.map.len() > IDEMPOTENCY_CAP {
            let Some(evicted) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&evicted);
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }
}

/// The bounded job queue and registry shared by handlers and workers.
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    wake: Condvar,
    jobs: Mutex<HashMap<u64, Arc<JobRecord>>>,
    /// `Idempotency-Key` → job id, so a client retrying a submission
    /// after an ambiguous failure attaches to the job the first
    /// attempt created instead of duplicating it (bounded; see
    /// [`IdemMap`]). Lock order: this lock may be held while taking
    /// `inner`, never the other way around.
    idempotency: Mutex<IdemMap>,
    next_id: AtomicU64,
    limit: usize,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl JobQueue {
    /// A queue admitting at most `limit` open jobs (clamped to ≥ 1).
    pub fn new(limit: usize) -> Self {
        JobQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                open_jobs: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            idempotency: Mutex::new(IdemMap::default()),
            next_id: AtomicU64::new(1),
            limit: limit.max(1),
        }
    }

    /// The admission bound.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Work items currently queued (not yet picked up).
    pub fn depth(&self) -> usize {
        lock(&self.inner).items.len()
    }

    /// Jobs accepted but not yet fully completed.
    pub fn open_jobs(&self) -> usize {
        lock(&self.inner).open_jobs
    }

    /// Admits a job or rejects it, atomically against concurrent
    /// submissions. On success the job's tasks are queued in order
    /// and workers are woken.
    ///
    /// # Errors
    ///
    /// [`Rejection::Empty`] for a task-less submission,
    /// [`Rejection::ShuttingDown`] after [`JobQueue::shutdown`], and
    /// [`Rejection::QueueFull`] at the open-job bound.
    pub fn submit(&self, tasks: Vec<Task>, parent_span: u64) -> Result<Arc<JobRecord>, Rejection> {
        self.submit_keyed(tasks, parent_span, None, None)
            .map(|(job, _)| job)
    }

    /// [`JobQueue::submit`] with an optional `Idempotency-Key`: when
    /// `key` already maps to a job with the same task list, that job
    /// is returned with `deduplicated = true` and nothing is enqueued
    /// — a client retry after an ambiguous failure attaches instead
    /// of duplicating. The dedup check runs *before* admission
    /// control, so a retry of an already-accepted submission succeeds
    /// even at the open-job bound or during shutdown. The idempotency
    /// lock is held from the lookup through the insert, so two
    /// concurrent submissions with the same key admit exactly one job.
    ///
    /// When `journal` is given, the job-submitted record is appended
    /// *before* the work becomes visible to workers — the write-ahead
    /// ordering recovery depends on: a worker's task-started record
    /// landing ahead of the submission would replay as corruption.
    ///
    /// # Errors
    ///
    /// As [`JobQueue::submit`], plus [`Rejection::KeyMismatch`] when
    /// the key's stored job was created from a different task list.
    pub fn submit_keyed(
        &self,
        tasks: Vec<Task>,
        parent_span: u64,
        key: Option<&str>,
        journal: Option<&Journal>,
    ) -> Result<(Arc<JobRecord>, bool), Rejection> {
        let key = key.filter(|k| !k.is_empty());
        let mut idem = key.map(|_| lock(&self.idempotency));
        if let (Some(key), Some(idem)) = (key, idem.as_deref_mut()) {
            if let Some(id) = idem.get(key) {
                if let Some(job) = self.get(id) {
                    if !keys_match(&job.tasks, &tasks) {
                        return Err(Rejection::KeyMismatch);
                    }
                    return Ok((job, true));
                }
            }
        }
        if tasks.is_empty() {
            return Err(Rejection::Empty);
        }
        {
            let mut inner = lock(&self.inner);
            if inner.shutdown {
                return Err(Rejection::ShuttingDown);
            }
            if inner.open_jobs >= self.limit {
                return Err(Rejection::QueueFull {
                    open: inner.open_jobs,
                    limit: self.limit,
                });
            }
            inner.open_jobs += 1;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = self.register(id, tasks, parent_span, false);
        if let (Some(key), Some(idem)) = (key, idem.as_deref_mut()) {
            idem.insert(key, id);
        }
        if let Some(journal) = journal {
            journal.job_submitted(id, key.unwrap_or(""), &job.tasks);
        }
        // Only now — with the admission slot taken, the registry and
        // idempotency map updated, and the submission durable — does
        // the work become visible to workers. The idempotency guard
        // drops here, so a dedup hit always implies a journaled job.
        drop(idem);
        self.enqueue(&job);
        Ok((job, false))
    }

    /// Re-admits a job recovered from the ds-anvil journal under its
    /// original `id`, bypassing admission control (the work was
    /// already accepted — refusing it now would be the data loss the
    /// journal exists to prevent) and re-registering its idempotency
    /// `key` so client retries still attach across the restart. The
    /// journal already holds the job's submitted record (compaction
    /// rewrote it), so nothing is re-journaled here.
    pub fn restore(
        &self,
        id: u64,
        key: &str,
        tasks: Vec<Task>,
        parent_span: u64,
    ) -> Arc<JobRecord> {
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
        lock(&self.inner).open_jobs += 1;
        let job = self.register(id, tasks, parent_span, true);
        if !key.is_empty() {
            lock(&self.idempotency).insert(key, id);
        }
        self.enqueue(&job);
        job
    }

    /// Creates the job record and registers it in the jobs map —
    /// visible to `GET /jobs/<id>` but not yet to workers; the caller
    /// journals the submission (when journaling is on) and then
    /// publishes the work via [`JobQueue::enqueue`].
    fn register(
        &self,
        id: u64,
        tasks: Vec<Task>,
        parent_span: u64,
        recovered: bool,
    ) -> Arc<JobRecord> {
        let total = tasks.len();
        let job = Arc::new(JobRecord {
            id,
            tasks,
            span: ds_probe::scope::next_span_id(),
            parent_span,
            recovered,
            progress: Mutex::new(Progress {
                results: vec![None; total],
                completed: 0,
                started: 0,
            }),
            events: Mutex::new(Vec::new()),
            events_wake: Condvar::new(),
        });
        lock(&self.jobs).insert(id, Arc::clone(&job));
        job
    }

    /// Pushes one work item per task and wakes the workers. The
    /// caller has already taken the admission slot.
    fn enqueue(&self, job: &Arc<JobRecord>) {
        let mut inner = lock(&self.inner);
        let now = Instant::now();
        for idx in 0..job.tasks.len() {
            inner.items.push_back(WorkItem {
                job: Arc::clone(job),
                idx,
                enqueued: now,
            });
        }
        drop(inner);
        self.wake.notify_all();
    }

    /// Looks up a job by id.
    pub fn get(&self, id: u64) -> Option<Arc<JobRecord>> {
        lock(&self.jobs).get(&id).cloned()
    }

    /// Blocks for the next work item; `None` once the queue is shut
    /// down. Queued-but-unstarted items are abandoned at shutdown —
    /// in-flight simulations cannot be preempted, so draining a deep
    /// backlog would turn "stop" into "finish everything"; their jobs
    /// simply never reach `done`.
    pub fn pop(&self) -> Option<WorkItem> {
        let mut inner = lock(&self.inner);
        loop {
            if inner.shutdown {
                return None;
            }
            if let Some(item) = inner.items.pop_front() {
                let mut p = lock(&item.job.progress);
                p.started += 1;
                drop(p);
                return Some(item);
            }
            inner = self.wake.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Records `result` for one work item. Returns `true` when this
    /// completion finished the whole job (the caller bumps the
    /// jobs-completed metric exactly once).
    pub fn complete(&self, item: &WorkItem, result: TaskResult) -> bool {
        let mut p = lock(&item.job.progress);
        debug_assert!(p.results[item.idx].is_none(), "slot completed twice");
        p.results[item.idx] = Some(result);
        p.completed += 1;
        let finished = p.completed == item.job.tasks.len();
        drop(p);
        if finished {
            lock(&self.inner).open_jobs -= 1;
        }
        finished
    }

    /// Stops admission and wakes every worker; [`JobQueue::pop`]
    /// returns `None` from here on (see its abandonment note).
    pub fn shutdown(&self) {
        lock(&self.inner).shutdown = true;
        self.wake.notify_all();
    }

    /// Whether [`JobQueue::shutdown`] has been called.
    pub fn is_shut_down(&self) -> bool {
        lock(&self.inner).shutdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_core::{InputSize, Mode, SystemConfig};

    fn tasks(n: usize) -> Vec<Task> {
        let cfg = SystemConfig::paper_default();
        (0..n)
            .map(|_| Task::new(&cfg, "VA", InputSize::Small, Mode::Ccsm))
            .collect()
    }

    #[test]
    fn admission_bound_rejects_explicitly() {
        let queue = JobQueue::new(2);
        queue.submit(tasks(1), 0).unwrap();
        queue.submit(tasks(1), 0).unwrap();
        let rejection = queue.submit(tasks(1), 0).unwrap_err();
        assert_eq!(rejection, Rejection::QueueFull { open: 2, limit: 2 });
        assert_eq!(rejection.status(), 429);
        assert_eq!(queue.depth(), 2);
    }

    #[test]
    fn empty_submissions_are_bad_requests() {
        let queue = JobQueue::new(1);
        assert_eq!(queue.submit(vec![], 0).unwrap_err().status(), 400);
    }

    #[test]
    fn completion_frees_an_admission_slot_in_order() {
        let queue = JobQueue::new(1);
        let job = queue.submit(tasks(2), 0).unwrap();
        assert_eq!(job.state(), JobState::Queued);
        assert!(queue.submit(tasks(1), 0).is_err(), "slot is taken");

        let first = queue.pop().unwrap();
        assert_eq!(job.state(), JobState::Running);
        let result = TaskResult {
            outcome: TaskOutcome::TimedOut,
            provenance: Provenance::Computed,
            spans: vec![],
        };
        assert!(!queue.complete(&first, result.clone()), "job not done yet");
        let second = queue.pop().unwrap();
        assert!(queue.complete(&second, result), "job done");
        assert_eq!(job.state(), JobState::Done);
        assert_eq!(queue.open_jobs(), 0);
        queue.submit(tasks(1), 0).unwrap();
    }

    #[test]
    fn shutdown_stops_admission_and_abandons_queued_work() {
        let queue = JobQueue::new(4);
        queue.submit(tasks(1), 0).unwrap();
        queue.shutdown();
        assert!(matches!(
            queue.submit(tasks(1), 0).unwrap_err(),
            Rejection::ShuttingDown
        ));
        assert!(
            queue.pop().is_none(),
            "unstarted work is abandoned so the pool never hangs"
        );
    }

    #[test]
    fn idempotency_key_attaches_retries_to_the_original_job() {
        let queue = JobQueue::new(1);
        let (job, deduplicated) = queue
            .submit_keyed(tasks(1), 0, Some("key-1"), None)
            .unwrap();
        assert!(!deduplicated);
        // The retry attaches even though the admission slot is taken.
        let (again, deduplicated) = queue
            .submit_keyed(tasks(1), 0, Some("key-1"), None)
            .unwrap();
        assert!(deduplicated);
        assert_eq!(again.id, job.id);
        assert_eq!(queue.open_jobs(), 1, "no duplicate admission");
        assert_eq!(queue.depth(), 1, "no duplicate work items");
        // A different key is a genuinely new submission (rejected here:
        // the single slot is taken).
        assert!(queue
            .submit_keyed(tasks(1), 0, Some("key-2"), None)
            .is_err());
        // Keyless submissions never deduplicate.
        assert!(queue.submit_keyed(tasks(1), 0, None, None).is_err());
    }

    #[test]
    fn idempotent_retry_attaches_even_during_shutdown() {
        let queue = JobQueue::new(4);
        let (job, _) = queue
            .submit_keyed(tasks(1), 0, Some("key-1"), None)
            .unwrap();
        queue.shutdown();
        let (again, deduplicated) = queue
            .submit_keyed(tasks(1), 0, Some("key-1"), None)
            .unwrap();
        assert!(deduplicated);
        assert_eq!(again.id, job.id);
        assert!(queue
            .submit_keyed(tasks(1), 0, Some("key-2"), None)
            .is_err());
    }

    #[test]
    fn restore_preserves_ids_and_bypasses_admission() {
        let queue = JobQueue::new(1);
        // Recovery re-admits under the original id even beyond the
        // admission bound...
        let a = queue.restore(7, "idem-7", tasks(1), 0);
        let b = queue.restore(9, "", tasks(2), 0);
        assert_eq!((a.id, b.id), (7, 9));
        assert!(a.recovered && b.recovered);
        assert_eq!(queue.open_jobs(), 2);
        assert_eq!(queue.depth(), 3);
        // ...fresh submissions continue past the highest restored id...
        queue.complete(
            &queue.pop().unwrap(),
            TaskResult {
                outcome: TaskOutcome::TimedOut,
                provenance: Provenance::Hit,
                spans: vec![],
            },
        );
        queue.complete(
            &queue.pop().unwrap(),
            TaskResult {
                outcome: TaskOutcome::TimedOut,
                provenance: Provenance::Hit,
                spans: vec![],
            },
        );
        queue.complete(
            &queue.pop().unwrap(),
            TaskResult {
                outcome: TaskOutcome::TimedOut,
                provenance: Provenance::Hit,
                spans: vec![],
            },
        );
        let fresh = queue.submit(tasks(1), 0).unwrap();
        assert_eq!(fresh.id, 10);
        assert!(!fresh.recovered);
        // ...and restored idempotency keys still deduplicate retries.
        let (again, deduplicated) = queue
            .submit_keyed(tasks(1), 0, Some("idem-7"), None)
            .unwrap();
        assert!(deduplicated);
        assert_eq!(again.id, 7);
    }

    #[test]
    fn reused_key_with_different_tasks_conflicts() {
        let queue = JobQueue::new(4);
        let (job, _) = queue
            .submit_keyed(tasks(1), 0, Some("key-1"), None)
            .unwrap();
        // Same key, different sweep: refusing is the only answer that
        // neither duplicates work nor serves unrelated results.
        let rejection = queue
            .submit_keyed(tasks(2), 0, Some("key-1"), None)
            .unwrap_err();
        assert_eq!(rejection, Rejection::KeyMismatch);
        assert_eq!(rejection.status(), 409);
        assert_eq!(queue.open_jobs(), 1, "no second admission");
        // The original mapping is intact.
        let (again, deduplicated) = queue
            .submit_keyed(tasks(1), 0, Some("key-1"), None)
            .unwrap();
        assert!(deduplicated);
        assert_eq!(again.id, job.id);
    }

    #[test]
    fn concurrent_same_key_submissions_admit_exactly_one_job() {
        let queue = Arc::new(JobQueue::new(64));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let ids: Vec<u64> = (0..8)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let (job, _) = queue.submit_keyed(tasks(1), 0, Some("race"), None).unwrap();
                    job.id
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();
        assert!(
            ids.iter().all(|id| *id == ids[0]),
            "one job for one key: {ids:?}"
        );
        assert_eq!(queue.open_jobs(), 1);
        assert_eq!(queue.depth(), 1);
    }

    #[test]
    fn idempotency_map_is_bounded_with_lru_eviction() {
        let mut map = IdemMap::default();
        for i in 0..IDEMPOTENCY_CAP + 10 {
            map.insert(&format!("key-{i}"), i as u64);
        }
        assert_eq!(map.len(), IDEMPOTENCY_CAP, "cap holds");
        assert_eq!(map.get("key-0"), None, "oldest keys evicted");
        assert_eq!(
            map.get(&format!("key-{}", IDEMPOTENCY_CAP + 9)),
            Some((IDEMPOTENCY_CAP + 9) as u64)
        );
        // A hit refreshes recency: key-10 survives the next eviction,
        // key-11 (now the least recently used) does not.
        assert!(map.get("key-10").is_some());
        map.insert("fresh", 1);
        assert!(map.get("key-10").is_some(), "refreshed key survives");
        assert_eq!(map.get("key-11"), None, "stale key evicted instead");
        // Re-inserting an existing key must not grow the map.
        map.insert("fresh", 2);
        assert_eq!(map.len(), IDEMPOTENCY_CAP);
        assert_eq!(map.get("fresh"), Some(2));
    }

    #[test]
    fn journaled_submission_precedes_worker_visibility() {
        let dir = std::env::temp_dir().join(format!(
            "ds-anvil-wal-order-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, _) = Journal::open(&dir).unwrap();
        let queue = JobQueue::new(4);
        // A worker journaling task-started the instant it can pop must
        // always land after the job-submitted record: replay treats
        // records for an unknown job as corruption.
        let (job, _) = queue
            .submit_keyed(tasks(1), 0, Some("wal"), Some(&journal))
            .unwrap();
        let item = queue.pop().unwrap();
        journal.task_started(job.id, item.idx);
        let recovery = Journal::peek(&dir);
        assert!(recovery.quarantined.is_none(), "records replay in order");
        assert!(!recovery.torn_tail);
        assert_eq!(recovery.records, 2);
        assert_eq!(recovery.jobs.len(), 1);
        assert_eq!(recovery.jobs[0].id, job.id);
        assert_eq!(recovery.jobs[0].key, "wal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_keep_submission_order() {
        let queue = JobQueue::new(1);
        let job = queue.submit(tasks(2), 0).unwrap();
        let a = queue.pop().unwrap();
        let b = queue.pop().unwrap();
        // Complete out of order; slots still line up with submission.
        queue.complete(
            &b,
            TaskResult {
                outcome: TaskOutcome::Panicked("b".into()),
                provenance: Provenance::Computed,
                spans: vec![],
            },
        );
        queue.complete(
            &a,
            TaskResult {
                outcome: TaskOutcome::Panicked("a".into()),
                provenance: Provenance::Hit,
                spans: vec![],
            },
        );
        let results = job.results();
        assert!(
            matches!(&results[0].as_ref().unwrap().outcome, TaskOutcome::Panicked(m) if m == "a")
        );
        assert!(
            matches!(&results[1].as_ref().unwrap().outcome, TaskOutcome::Panicked(m) if m == "b")
        );
    }
}
