//! # ds-runner — experiment orchestration
//!
//! The subsystem that owns *running experiments*: every figure,
//! ablation and export binary plans its simulations as [`Task`]s and
//! hands them to a [`Runner`], which executes them on a worker pool,
//! memoizes results, and (opt-in) caches them on disk so repeated
//! invocations re-simulate nothing.
//!
//! * [`Task`] / [`TaskKey`] — the job model: one simulation =
//!   benchmark code + input size + mode + full [`SystemConfig`];
//!   identity is the config's stable [`config_fingerprint`] plus the
//!   three coordinates ([`job`]).
//! * [`run_task`] / [`Runner`] — the executor: one function runs a
//!   task to its outcome, for batch and served runs alike, and the
//!   runner drains task lists over `std::thread::scope` workers with a
//!   tracer per task, `--jobs N` / `DS_RUNNER_JOBS` control, results
//!   bit-identical to a serial run ([`exec`]).
//! * [`store::ResultStore`] — in-process memo plus the on-disk JSON
//!   cache under `results/`, invalidated by fingerprint ([`store`]).
//! * [`shared::SharedStore`] — the concurrency-safe, single-flight,
//!   hit/miss-accounted view of the store that `ds-serve` workers
//!   race on ([`shared`]).
//! * [`report`] — the machine-readable serializers: JSON and CSV for
//!   [`RunReport`]s and [`Comparison`]s, shared by every binary.
//! * `ds run` — the CLI over all of the above (`crates/bench/src/run.rs`).
//!
//! [`SystemConfig`]: ds_core::SystemConfig
//! [`RunReport`]: ds_core::RunReport
//! [`Comparison`]: ds_core::Comparison
//!
//! # Examples
//!
//! ```no_run
//! use ds_core::{InputSize, Mode, SystemConfig};
//! use ds_runner::Runner;
//!
//! let mut runner = Runner::new().jobs(4).with_disk_cache("results");
//! let comparisons = runner
//!     .sweep(
//!         &SystemConfig::paper_default(),
//!         InputSize::Small,
//!         Mode::DirectStore,
//!         |_| true,
//!     )
//!     .expect("catalog benchmarks translate");
//! for c in &comparisons {
//!     println!("{c}");
//! }
//! ```

pub mod exec;
pub mod fingerprint;
pub mod job;
pub mod json;
pub mod report;
pub mod shared;
pub mod store;

pub use exec::{default_jobs, panic_message, postmortem_path, run_task, Runner, TaskOutcome};
pub use fingerprint::{config_fingerprint, fnv1a};
pub use job::{dedup_tasks, fault_fingerprint, sweep_tasks, Task, TaskKey};
pub use report::{
    comparison_csv_row, comparison_to_json, report_csv_row, report_from_json, report_to_json,
    span_from_json, span_to_json, COMPARISON_CSV_HEADER, REPORT_CSV_HEADER,
};
pub use shared::{Provenance, SharedStore, StoreStats};
pub use store::ResultStore;
