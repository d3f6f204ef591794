//! `ds-probe`: sim-wide instrumentation for the direct-store
//! simulator.
//!
//! Every claim the paper makes is an aggregate (total ticks, miss
//! rate), but the mechanism behind each one is temporal: direct store
//! wins because pushed lines arrive *before* the kernel's first
//! access. This crate supplies the layer that makes the when/where
//! observable.
//!
//! # One observation stream, many folds
//!
//! The runtime reports each hand-off exactly once, as a typed
//! [`TraceEvent`] (cycle, [`Component`], optional line, [`TraceKind`]),
//! into a [`Probes`] fan-out. The fan-out feeds the report's folds —
//! each of them a [`Tracer`] — and then the caller's tracer:
//!
//! * **latency histograms** — [`LatencyReport`] folds the four sim-wide
//!   latency distributions (GPU load-to-use from `LoadDone`, direct-push
//!   end-to-end from `PushDone`, hub transaction from each
//!   `HubStart`/`HubDone` pair, DRAM queue from `DramAccess`) as
//!   [`ds_sim::Histogram`]s with p50/p95/p99 summaries;
//! * **per-transaction cycle accounting** — [`StageTracker`] folds
//!   `TxnBegin`/`StageMark`/`TxnDone` plus the hub's `HubRequest`,
//!   `HubStart`, `HubDramRead`, `HubGrant` and `HubDone` into lifecycle
//!   [`Stage`]s (telescoping intervals: stage sums equal end-to-end
//!   latency exactly), aggregated as a [`StageBreakdown`]; the [`xray`]
//!   module reads the same marks back into per-transaction records and
//!   critical paths for `ds xray`;
//! * **per-cacheline forensics** — [`LineLens`] folds CPU stores,
//!   pushes (fill, overwrite, bypass, degradation), demand fills, GPU L2
//!   hits and misses, probe invalidations, evictions, DRAM accesses and
//!   NoC messages into every touched line's history, and derives push
//!   efficacy (useful / dead / clobbered, reconciling exactly against
//!   `pushed_fills`), sharing forensics (ping-pong, write-after-push,
//!   reuse distances, first-touch latency) and per-slice / per-bank /
//!   per-link traffic heatmaps, aggregated as a [`LensReport`] for
//!   `ds lens`.
//!
//! The [`ProbeLevel`] chooses which folds the fan-out holds (the
//! latency fold at every level, the stage fold from `stages`, the lens
//! at `full`). The caller's tracer is a type parameter: the zero-cost
//! [`NullTracer`] default compiles away, the in-memory
//! [`BufferTracer`] feeds two sinks — a JSONL dump ([`jsonl`]) and a
//! Chrome-trace-format file ([`chrome`]) loadable in Perfetto /
//! `chrome://tracing` with kernel spans, DRAM bank busy intervals and
//! per-link NoC occupancy — and the [`FlightRecorder`] keeps a crashing
//! run's last events. Because every fold reads only the stream, the
//! recorded events of a run are a complete record of the report's
//! latency, stage and lens numbers: folding them again through fresh
//! folds reproduces those numbers exactly.
//!
//! # Other layers
//!
//! * **cycle-domain time-series telemetry** — the [`pulse`] module's
//!   [`PulseSampler`] captures ~25 counters plus sampled gauges per
//!   cycle window into a memory-bounded struct-of-arrays ring with
//!   power-of-two window coalescing, runs online anomaly detectors
//!   (stall storms, retry bursts, utilization cliffs, livelock
//!   precursors) over each closed window, and proves per-window
//!   conservation against the run's final totals; the epoch series
//!   ([`EpochSample`]) is a derived view over pulse windows;
//! * **service metrics** — [`ServiceMetrics`] bundles the `ds-serve`
//!   job API's request-latency histograms and load counters so the
//!   server's `/metrics` endpoint shares the histogram machinery with
//!   the simulator's latency reports;
//! * **host-time self-profiling** — the [`prof`] module's scoped span
//!   profiler attributes wall-clock to [`HostPhase`] buckets
//!   (including the cost of each fold, the "observability tax") as a
//!   [`HostProfile`] riding on run reports, and owns the runtime
//!   [`ProbeLevel`] switch;
//! * **correlated span tracing** — the [`scope`] module's
//!   [`SpanRecord`]/[`SpanTree`] model links `request → job → task →
//!   (queue-wait | store-lookup | sim-run)` with explicit parent ids
//!   and telescoping checks, and its [`FlightRecorder`] ring keeps a
//!   crashing simulation's last trace events for postmortem dumps.
//!
//! The crate deliberately depends only on `ds-sim`: events carry raw
//! line indices (`u64`), not typed addresses, so every other model
//! crate can sit above it.

pub mod chrome;
mod epoch;
mod event;
pub mod jsonl;
mod latency;
mod lens;
mod probes;
pub mod prof;
pub mod pulse;
pub mod scope;
mod service;
mod stage;
mod tracer;
pub mod xray;

pub use epoch::{
    render_csv as render_epoch_csv, EpochSample, EpochTotals, CSV_HEADER as EPOCH_CSV_HEADER,
};
pub use event::{Component, NetId, TraceEvent, TraceKind};
pub use latency::LatencyReport;
pub use lens::{
    BankTraffic, LensReport, LineEvent, LineEventKind, LineHistory, LineLens, LinkTraffic,
    SliceTraffic,
};
pub use probes::Probes;
pub use prof::{HostPhase, HostProfile, ProbeLevel};
pub use pulse::{
    sparkline, PulseAnomaly, PulseAnomalyKind, PulseConfig, PulseSampler, PulseSeries, PulseTotals,
    DEFAULT_PULSE_WINDOW,
};
pub use scope::{FlightLog, FlightRecorder, Reconciliation, SpanKind, SpanRecord, SpanTree};
pub use service::ServiceMetrics;
pub use stage::{Stage, StageBreakdown, StageTracker, TxnPath};
pub use tracer::{BufferTracer, NullTracer, Tracer};
