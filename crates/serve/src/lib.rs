//! `ds-serve`: simulation as a service.
//!
//! A long-running HTTP job API over the deterministic runner, so a
//! lab (or a CI fleet) can share one simulation service instead of
//! each user re-running identical configurations:
//!
//! * [`server`] — the service: accept loop, HTTP handler pool, and a
//!   simulation worker pool draining a bounded job queue;
//! * [`api`] — the endpoints: submit a task list or sweep, poll job
//!   status, fetch per-task results (full lossless `RunReport`
//!   JSON), scrape health/metrics;
//! * [`jobs`] — job records and admission control: a bounded open-job
//!   count with explicit 429 rejection, never a hang;
//! * [`http`] — a minimal HTTP/1.1 layer over `std::net` (the
//!   workspace builds offline; no dependencies);
//! * [`client`] — the CLI/CI client, including the fold that turns
//!   served results back into byte-identical `ds run --format json`
//!   output, with jittered-backoff retries and idempotent
//!   resubmission;
//! * [`journal`] — ds-anvil: the append-only job journal `ds serve`
//!   replays on startup, so a crash or `kill -9` loses no accepted
//!   job (torn tails truncated, corrupt journals quarantined);
//! * [`stress`] — the built-in load harness: seeded virtual users,
//!   ops/sec, p50/p95/p99 op latency, store hit rate.
//!
//! Identical tasks — across jobs, users, and server restarts — are
//! computed once: workers fetch through
//! [`ds_runner::SharedStore`], the concurrency-safe
//! content-addressed store keyed by `TaskKey` and layered on the
//! `results/` disk cache. The simulator is deterministic, so a cache
//! hit is indistinguishable from a fresh run, and the service's
//! results are bit-identical to batch `ds run` — a property the CI
//! smoke gate checks with `cmp` on every run.

pub mod api;
pub mod client;
pub mod http;
pub mod jobs;
pub mod journal;
pub mod server;
pub mod stress;

pub use client::{
    fetch_results, submit, submit_with_retry, sweep_body, sweep_doc, wait_done, RetryPolicy,
    SubmitAnswer,
};
pub use jobs::{JobQueue, JobRecord, JobState, Rejection, TaskResult};
pub use journal::{Journal, JournalStats, RecoveredJob, Recovery};
pub use server::{RecoveryReport, ServeOptions, ServeState, Server};
pub use stress::{run_stress, StressOptions, StressSummary, STRESS_CSV_HEADER};
