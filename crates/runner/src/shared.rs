//! The concurrency-safe, content-addressed result store.
//!
//! [`SharedStore`] wraps [`ResultStore`] for services whose workers
//! race on overlapping [`TaskKey`]s — the access pattern the `ds-serve`
//! job API produces when many users submit overlapping sweeps. Three
//! guarantees:
//!
//! 1. **Single flight** — for any key, at most one worker computes; a
//!    concurrent request for the same key blocks until the result is
//!    memoized and then shares it (a *coalesced hit*). Identical tasks
//!    across jobs and users are computed exactly once per process, and
//!    at most once per fleet when the disk cache is shared.
//! 2. **Content addressing** — identity is the [`TaskKey`]
//!    (config fingerprint + benchmark coordinates + fault
//!    fingerprint), so a hit is bit-identical to the computation it
//!    replaces: the simulator is deterministic and the JSON cache
//!    round-trips reports losslessly.
//! 3. **Exact accounting** — every request is classified as a hit
//!    (memo/disk), a coalesced hit, or a miss (this caller computed),
//!    and `hits + misses == requests` always holds ([`StoreStats`];
//!    the `ds-serve` service tests assert it over HTTP).
//!
//! Failed computations (panic, timeout, watchdog abort) are *not*
//! memoized: the outcome is returned to the requester, waiters retry,
//! and the poisoned key never enters the cache.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};

use ds_core::RunReport;

use crate::exec::TaskOutcome;
use crate::job::{Task, TaskKey};
use crate::store::ResultStore;

/// Where a [`SharedStore::get_or_compute`] result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Served from the memo or the on-disk cache.
    Hit,
    /// Served by waiting on another worker's in-flight computation.
    Coalesced,
    /// Computed by this caller.
    Computed,
}

/// Request accounting for the shared store. The invariant every
/// consumer may rely on:
/// `hits + misses == requests`, with `coalesced <= hits` and
/// `failed <= misses`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Calls to [`SharedStore::get_or_compute`].
    pub requests: u64,
    /// Requests served without computing: memo/disk hits plus
    /// coalesced waits on another worker's computation.
    pub hits: u64,
    /// The subset of `hits` that waited on an in-flight computation.
    pub coalesced: u64,
    /// Requests that computed (successfully or not).
    pub misses: u64,
    /// The subset of `misses` whose computation produced no report.
    pub failed: u64,
}

impl StoreStats {
    /// Whether the accounting identity holds.
    pub fn reconciles(&self) -> bool {
        self.hits + self.misses == self.requests
            && self.coalesced <= self.hits
            && self.failed <= self.misses
    }

    /// Fraction of requests served without computing; 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

struct Inner {
    store: ResultStore,
    in_flight: HashSet<TaskKey>,
    stats: StoreStats,
}

/// A [`ResultStore`] safe to share across worker threads, with
/// single-flight computation and hit/miss accounting. See the module
/// docs for the guarantees.
pub struct SharedStore {
    inner: Mutex<Inner>,
    /// Signalled whenever a key leaves the in-flight set.
    done: Condvar,
}

impl SharedStore {
    /// A memory-only shared store.
    pub fn new() -> Self {
        SharedStore {
            inner: Mutex::new(Inner {
                store: ResultStore::new(),
                in_flight: HashSet::new(),
                stats: StoreStats::default(),
            }),
            done: Condvar::new(),
        }
    }

    /// A shared store layered on the on-disk JSON cache under `dir`
    /// (conventionally `results/`). Disk entries count as hits.
    pub fn with_disk(dir: impl Into<PathBuf>) -> Self {
        let store = SharedStore::new();
        store.lock().store.enable_disk(dir);
        store
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A snapshot of the request accounting.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    /// Number of memoized results.
    pub fn len(&self) -> usize {
        self.lock().store.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().store.is_empty()
    }

    /// Looks up `key` without computing (or accounting a request).
    pub fn peek(&self, key: &TaskKey) -> Option<RunReport> {
        self.lock().store.get(key).cloned()
    }

    /// Returns the memoized outcome for `task`, or runs `compute`
    /// exactly once per key across all concurrent callers.
    ///
    /// `compute` runs *outside* the store lock, so long simulations
    /// don't serialize unrelated requests. Successful outcomes (clean
    /// or degraded) are memoized and, when the disk cache is enabled
    /// and the task is fault-free, persisted; failures are returned
    /// but never cached. If the computing caller fails, each waiter
    /// retries in turn rather than inheriting the failure blindly.
    pub fn get_or_compute(
        &self,
        task: &Task,
        compute: impl FnOnce() -> TaskOutcome,
    ) -> (TaskOutcome, Provenance) {
        let key = task.key();
        let mut inner = self.lock();
        inner.stats.requests += 1;
        let mut waited = false;
        loop {
            if let Some(report) = inner.store.get(&key) {
                let outcome = TaskOutcome::of(Ok(report.clone()));
                inner.stats.hits += 1;
                if waited {
                    inner.stats.coalesced += 1;
                }
                return (
                    outcome,
                    if waited {
                        Provenance::Coalesced
                    } else {
                        Provenance::Hit
                    },
                );
            }
            if !inner.in_flight.contains(&key) {
                break;
            }
            waited = true;
            inner = self.done.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
        inner.in_flight.insert(key.clone());
        drop(inner);

        let outcome = compute();

        let mut inner = self.lock();
        inner.stats.misses += 1;
        if let Some(report) = outcome.report() {
            inner.store.insert(key.clone(), report.clone());
            if inner.store.disk_enabled() {
                inner.store.persist(key.fingerprint, &task.cfg);
            }
        } else {
            inner.stats.failed += 1;
        }
        inner.in_flight.remove(&key);
        drop(inner);
        self.done.notify_all();
        (outcome, Provenance::Computed)
    }
}

impl Default for SharedStore {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SharedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("SharedStore")
            .field("len", &inner.store.len())
            .field("in_flight", &inner.in_flight.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_core::{InputSize, Mode, SystemConfig};

    fn task() -> Task {
        Task::new(
            &SystemConfig::paper_default(),
            "VA",
            InputSize::Small,
            Mode::Ccsm,
        )
    }

    fn fake_outcome(cycles: u64) -> TaskOutcome {
        let mut report = crate::store::test_report(cycles);
        report.mode = Mode::Ccsm;
        TaskOutcome::Ok(Box::new(report))
    }

    #[test]
    fn repeat_requests_hit() {
        let store = SharedStore::new();
        let t = task();
        let (first, p1) = store.get_or_compute(&t, || fake_outcome(11));
        let (second, p2) = store.get_or_compute(&t, || panic!("must not recompute"));
        assert_eq!(p1, Provenance::Computed);
        assert_eq!(p2, Provenance::Hit);
        assert_eq!(
            format!("{:?}", first.report().unwrap()),
            format!("{:?}", second.report().unwrap())
        );
        let stats = store.stats();
        assert!(stats.reconciles(), "{stats:?}");
        assert_eq!((stats.requests, stats.hits, stats.misses), (2, 1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn failures_are_not_memoized() {
        let store = SharedStore::new();
        let t = task();
        let (out, _) = store.get_or_compute(&t, || TaskOutcome::TimedOut);
        assert!(out.report().is_none());
        // The key is free again: the next request recomputes.
        let (out, p) = store.get_or_compute(&t, || fake_outcome(5));
        assert_eq!(p, Provenance::Computed);
        assert!(out.report().is_some());
        let stats = store.stats();
        assert!(stats.reconciles(), "{stats:?}");
        assert_eq!((stats.misses, stats.failed), (2, 1));
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        let store = SharedStore::new();
        let computed = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    let (out, _) = store.get_or_compute(&task(), || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        // Hold the key in flight long enough for the
                        // other threads to pile up behind it.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        fake_outcome(7)
                    });
                    assert_eq!(out.report().unwrap().total_cycles.as_u64(), 7);
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1, "single flight");
        let stats = store.stats();
        assert!(stats.reconciles(), "{stats:?}");
        assert_eq!(stats.requests, 8);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }
}
