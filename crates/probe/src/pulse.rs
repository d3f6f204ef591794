//! ds-pulse: cycle-domain time-series telemetry.
//!
//! A [`PulseSampler`] turns the simulator's cumulative counters into a
//! dense per-window time series — the generalisation of the old epoch
//! sampler to ~25 counters plus sampled gauges — stored
//! struct-of-arrays in a memory-bounded ring. When the ring fills, the
//! sampler *coalesces*: adjacent windows merge pairwise (counter
//! deltas add, gauges keep their max) and the window length doubles,
//! so a 10⁹-cycle run costs the same fixed memory as a 10⁶-cycle one
//! and resolution degrades gracefully instead of the ring overflowing.
//!
//! Each closed window also feeds four online anomaly detectors (stall
//! storms, retry bursts, utilization cliffs, livelock precursors)
//! whose findings annotate the run and — via the runtime's trace hook
//! — pre-arm the ds-chaos flight recorder before a watchdog abort.
//!
//! Conservation is by construction: every counter series is the
//! first-difference of a monotone cumulative counter starting at
//! zero, so the per-window deltas sum *exactly* to the final totals
//! ([`PulseSeries::check_conservation`] re-proves it from serialized
//! data, and `ds check` cross-checks the totals against the
//! final `RunReport`). Sampling never feeds back into simulated
//! timing: a run with pulse on is bit-identical to one with it off.

/// Number of cumulative counter series a sampler tracks.
pub const PULSE_COUNTERS: usize = 28;

/// Number of sampled (non-conserved) gauge series.
pub const PULSE_GAUGES: usize = 3;

/// Counter indices into [`PulseTotals::counters`]. Order is the
/// serialization order; append-only.
pub mod ctr {
    /// GPU L2 demand accesses (all slices).
    pub const GPU_L2_ACCESSES: usize = 0;
    /// GPU L2 demand misses (all slices).
    pub const GPU_L2_MISSES: usize = 1;
    /// CPU L2 demand accesses.
    pub const CPU_L2_ACCESSES: usize = 2;
    /// CPU L2 demand misses.
    pub const CPU_L2_MISSES: usize = 3;
    /// Messages on the coherence network.
    pub const COH_MSGS: usize = 4;
    /// Messages on the direct-store network.
    pub const DIRECT_MSGS: usize = 5;
    /// Messages on the GPU-internal network.
    pub const GPU_MSGS: usize = 6;
    /// Bytes moved on the coherence network.
    pub const COH_BYTES: usize = 7;
    /// Bytes moved on the direct-store network.
    pub const DIRECT_BYTES: usize = 8;
    /// Bytes moved on the GPU-internal network.
    pub const GPU_BYTES: usize = 9;
    /// DRAM read accesses.
    pub const DRAM_READS: usize = 10;
    /// DRAM write accesses.
    pub const DRAM_WRITES: usize = 11;
    /// DRAM row-buffer hits.
    pub const DRAM_ROW_HITS: usize = 12;
    /// Cycles DRAM banks spent busy (summed over banks).
    pub const DRAM_BUSY_CYCLES: usize = 13;
    /// Direct-store pushes acknowledged.
    pub const DIRECT_PUSHES: usize = 14;
    /// Pushes drained from the store buffer.
    pub const PUSHES_ATTEMPTED: usize = 15;
    /// Push retries sent by the ack-timeout protocol.
    pub const PUSHES_RETRIED: usize = 16;
    /// Pushes degraded to the CCSM demand path.
    pub const PUSHES_DEGRADED: usize = 17;
    /// Pushes that bypassed a full L2 set to DRAM.
    pub const PUSH_BYPASSES: usize = 18;
    /// Faults injected by the active fault plan.
    pub const FAULTS_INJECTED: usize = 19;
    /// CPU store-buffer full stalls.
    pub const SB_STALLS: usize = 20;
    /// Operations issued across all SMs.
    pub const SM_OPS: usize = 21;
    /// Warps completed.
    pub const WARPS_COMPLETED: usize = 22;
    /// Kernels retired.
    pub const KERNELS_RUN: usize = 23;
    /// Coherence transactions served by the hub.
    pub const HUB_TRANSACTIONS: usize = 24;
    /// Requests queued behind a same-line hub transaction.
    pub const HUB_CONFLICTS: usize = 25;
    /// Probes broadcast by the hub.
    pub const HUB_PROBES: usize = 26;
    /// Simulation events scheduled.
    pub const EVENTS: usize = 27;
}

/// Gauge indices into [`PulseTotals::gauges`].
pub mod gauge {
    /// Event-queue depth at window close.
    pub const QUEUE_DEPTH: usize = 0;
    /// Store-buffer occupancy at window close.
    pub const SB_OCCUPANCY: usize = 1;
    /// Unacked in-flight pushes at window close.
    pub const INFLIGHT_PUSHES: usize = 2;
}

/// Stable serialization names of the counter series, in [`ctr`] order.
pub const PULSE_COUNTER_NAMES: [&str; PULSE_COUNTERS] = [
    "gpu_l2_accesses",
    "gpu_l2_misses",
    "cpu_l2_accesses",
    "cpu_l2_misses",
    "coh_msgs",
    "direct_msgs",
    "gpu_msgs",
    "coh_bytes",
    "direct_bytes",
    "gpu_bytes",
    "dram_reads",
    "dram_writes",
    "dram_row_hits",
    "dram_busy_cycles",
    "direct_pushes",
    "pushes_attempted",
    "pushes_retried",
    "pushes_degraded",
    "push_bypasses",
    "faults_injected",
    "sb_stalls",
    "sm_ops",
    "warps_completed",
    "kernels_run",
    "hub_transactions",
    "hub_conflicts",
    "hub_probes",
    "events",
];

/// Stable serialization names of the gauge series, in [`gauge`] order.
pub const PULSE_GAUGE_NAMES: [&str; PULSE_GAUGES] =
    ["queue_depth", "sb_occupancy", "inflight_pushes"];

/// One snapshot of everything the sampler watches: cumulative counters
/// (monotone; windows hold their first differences) plus instantaneous
/// gauges (sampled at window close, never summed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PulseTotals {
    /// Cumulative counter values, indexed by [`ctr`].
    pub counters: [u64; PULSE_COUNTERS],
    /// Instantaneous gauge values, indexed by [`gauge`].
    pub gauges: [u64; PULSE_GAUGES],
}

impl Default for PulseTotals {
    fn default() -> Self {
        PulseTotals {
            counters: [0; PULSE_COUNTERS],
            gauges: [0; PULSE_GAUGES],
        }
    }
}

/// What a detector saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PulseAnomalyKind {
    /// Store-buffer full stalls spiked within one window.
    StallStorm,
    /// Push retries spiked within one window.
    RetryBurst,
    /// Network traffic collapsed to a fraction of the previous window.
    UtilizationCliff,
    /// Consecutive windows retried pushes without a single ack — the
    /// shape of the livelock the ds-chaos watchdog aborts on.
    LivelockPrecursor,
}

impl PulseAnomalyKind {
    /// Stable kebab-case name used by sinks and event streams.
    pub fn name(self) -> &'static str {
        match self {
            PulseAnomalyKind::StallStorm => "stall-storm",
            PulseAnomalyKind::RetryBurst => "retry-burst",
            PulseAnomalyKind::UtilizationCliff => "utilization-cliff",
            PulseAnomalyKind::LivelockPrecursor => "livelock-precursor",
        }
    }

    /// Parses a [`PulseAnomalyKind::name`] back.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "stall-storm" => Some(PulseAnomalyKind::StallStorm),
            "retry-burst" => Some(PulseAnomalyKind::RetryBurst),
            "utilization-cliff" => Some(PulseAnomalyKind::UtilizationCliff),
            "livelock-precursor" => Some(PulseAnomalyKind::LivelockPrecursor),
            _ => None,
        }
    }
}

/// One detected anomaly, annotated with the window that tripped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PulseAnomaly {
    /// Which detector fired.
    pub kind: PulseAnomalyKind,
    /// First cycle of the offending window.
    pub start: u64,
    /// One past the last cycle of the offending window.
    pub end: u64,
    /// The observed value that crossed the threshold.
    pub value: u64,
    /// The threshold it crossed.
    pub threshold: u64,
}

impl std::fmt::Display for PulseAnomaly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} in [{}, {}): {} (threshold {})",
            self.kind.name(),
            self.start,
            self.end,
            self.value,
            self.threshold
        )
    }
}

/// Detector thresholds and ring sizing. The defaults are tuned so a
/// fault-free small-catalog run stays quiet while the seeded `ds chaos`
/// drop plans the CI smoke uses reliably trip the retry detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PulseConfig {
    /// Initial window length in cycles.
    pub window: u64,
    /// Ring capacity in windows; when full, windows coalesce pairwise
    /// and the window length doubles. Must be an even number ≥ 2.
    pub capacity: usize,
    /// Store-buffer stalls in one window that count as a stall storm.
    pub stall_storm_min: u64,
    /// Push retries in one window that count as a retry burst.
    pub retry_burst_min: u64,
    /// Minimum previous-window message count for a cliff comparison.
    pub cliff_floor: u64,
    /// Consecutive ack-free retrying windows before the livelock
    /// precursor fires.
    pub livelock_windows: u32,
}

/// The default sampling window in cycles (`ds pulse`, `ds serve`, `ds trace`).
pub const DEFAULT_PULSE_WINDOW: u64 = 1000;

impl Default for PulseConfig {
    fn default() -> Self {
        PulseConfig {
            window: DEFAULT_PULSE_WINDOW,
            capacity: 1024,
            stall_storm_min: 64,
            retry_burst_min: 16,
            cliff_floor: 200,
            livelock_windows: 2,
        }
    }
}

impl PulseConfig {
    /// A default config at `window` cycles per window.
    pub fn with_window(window: u64) -> Self {
        PulseConfig {
            window,
            ..PulseConfig::default()
        }
    }
}

/// The finished time series a run reports: per-window counter deltas
/// and gauge samples (struct-of-arrays), the final cumulative totals,
/// and every anomaly the online detectors flagged.
#[derive(Debug, Clone, PartialEq)]
pub struct PulseSeries {
    /// The window length sampling started at.
    pub base_window: u64,
    /// The final window length (`base_window << coalescings`).
    pub window: u64,
    /// How many times the ring coalesced.
    pub coalescings: u32,
    /// `counters[c][w]`: delta of counter `c` over window `w`. Outer
    /// length is [`PULSE_COUNTERS`]; windows are contiguous from
    /// cycle 0.
    pub counters: Vec<Vec<u64>>,
    /// `gauges[g][w]`: gauge `g` sampled at the close of window `w`
    /// (max over merged windows after coalescing). Outer length is
    /// [`PULSE_GAUGES`].
    pub gauges: Vec<Vec<u64>>,
    /// Final cumulative counter totals (what the deltas sum to).
    pub totals: PulseTotals,
    /// Anomalies in detection order.
    pub anomalies: Vec<PulseAnomaly>,
}

impl PulseSeries {
    /// Number of closed windows.
    pub fn len(&self) -> usize {
        self.counters.first().map_or(0, Vec::len)
    }

    /// Whether the series holds no windows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cycle bounds `[start, end)` of window `w`.
    pub fn window_bounds(&self, w: usize) -> (u64, u64) {
        (w as u64 * self.window, (w as u64 + 1) * self.window)
    }

    /// One counter series by [`ctr`] index.
    pub fn counter(&self, c: usize) -> &[u64] {
        &self.counters[c]
    }

    /// One gauge series by [`gauge`] index.
    pub fn gauge(&self, g: usize) -> &[u64] {
        &self.gauges[g]
    }

    /// Proves the conservation invariant from the stored data alone:
    /// every counter's per-window deltas sum exactly to its final
    /// total, the shapes are consistent, and the window geometry is
    /// coherent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated identity.
    pub fn check_conservation(&self) -> Result<(), String> {
        if self.counters.len() != PULSE_COUNTERS {
            return Err(format!(
                "expected {PULSE_COUNTERS} counter series, found {}",
                self.counters.len()
            ));
        }
        if self.gauges.len() != PULSE_GAUGES {
            return Err(format!(
                "expected {PULSE_GAUGES} gauge series, found {}",
                self.gauges.len()
            ));
        }
        if self.window != self.base_window << self.coalescings {
            return Err(format!(
                "window {} is not base_window {} << {} coalescings",
                self.window, self.base_window, self.coalescings
            ));
        }
        let len = self.len();
        for (c, series) in self.counters.iter().enumerate() {
            if series.len() != len {
                return Err(format!(
                    "counter {} has {} windows, expected {len}",
                    PULSE_COUNTER_NAMES[c],
                    series.len()
                ));
            }
            let sum: u64 = series.iter().sum();
            if sum != self.totals.counters[c] {
                return Err(format!(
                    "counter {} windows sum to {sum}, final total is {}",
                    PULSE_COUNTER_NAMES[c], self.totals.counters[c]
                ));
            }
        }
        for (g, series) in self.gauges.iter().enumerate() {
            if series.len() != len {
                return Err(format!(
                    "gauge {} has {} windows, expected {len}",
                    PULSE_GAUGE_NAMES[g],
                    series.len()
                ));
            }
        }
        Ok(())
    }

    /// Downsamples to at most `max` windows by pairwise merging
    /// (counters add, gauges max), exactly like ring coalescing —
    /// conservation survives. Used to bound streamed telemetry.
    pub fn downsampled(&self, max: usize) -> PulseSeries {
        let max = max.max(1);
        let mut out = self.clone();
        while out.len() > max {
            for series in &mut out.counters {
                *series = merge_pairs(series, u64::saturating_add);
            }
            for series in &mut out.gauges {
                *series = merge_pairs(series, u64::max);
            }
            out.window *= 2;
            out.coalescings += 1;
        }
        out
    }
}

/// Merges adjacent pairs with `f`; a trailing odd element survives
/// as its own (shorter) window.
fn merge_pairs(series: &[u64], f: impl Fn(u64, u64) -> u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(series.len().div_ceil(2));
    let mut it = series.chunks(2);
    for pair in &mut it {
        out.push(match pair {
            [a, b] => f(*a, *b),
            [a] => *a,
            _ => unreachable!(),
        });
    }
    out
}

/// The online sampler the runtime drives: call
/// [`PulseSampler::needs_sample`] per event (one compare) and
/// [`PulseSampler::observe`] with a fresh snapshot only when it says
/// so; [`PulseSampler::finish`] closes the final partial window.
#[derive(Debug, Clone)]
pub struct PulseSampler {
    cfg: PulseConfig,
    window: u64,
    coalescings: u32,
    counters: Vec<Vec<u64>>,
    gauges: Vec<Vec<u64>>,
    /// Totals at the open window's start.
    base: PulseTotals,
    /// Closed windows so far (`counters[*].len()`).
    closed: usize,
    anomalies: Vec<PulseAnomaly>,
    /// Anomalies not yet drained by [`PulseSampler::take_fresh_anomalies`].
    fresh: usize,
    /// Previous window's total message count (cliff detector).
    prev_msgs: Option<u64>,
    /// Consecutive windows with retries but no acks (livelock
    /// precursor).
    livelock_run: u32,
}

impl PulseSampler {
    /// A sampler with `cfg`'s window, ring bound and thresholds.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero or the capacity is odd or < 2.
    pub fn new(cfg: PulseConfig) -> Self {
        assert!(cfg.window > 0, "pulse window must be positive");
        assert!(
            cfg.capacity >= 2 && cfg.capacity.is_multiple_of(2),
            "pulse ring capacity must be an even number >= 2"
        );
        PulseSampler {
            window: cfg.window,
            cfg,
            coalescings: 0,
            counters: vec![Vec::new(); PULSE_COUNTERS],
            gauges: vec![Vec::new(); PULSE_GAUGES],
            base: PulseTotals::default(),
            closed: 0,
            anomalies: Vec::new(),
            fresh: 0,
            prev_msgs: None,
            livelock_run: 0,
        }
    }

    /// The current (possibly coalesced) window length in cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The window length sampling started at.
    pub fn base_window(&self) -> u64 {
        self.cfg.window
    }

    /// Whether `cycle` lies beyond the open window, i.e. whether the
    /// caller must snapshot totals and call [`PulseSampler::observe`].
    /// One compare — the per-event cost of an armed sampler.
    #[inline]
    pub fn needs_sample(&self, cycle: u64) -> bool {
        cycle >= (self.closed as u64 + 1) * self.window
    }

    /// Notes that the simulation reached `cycle` (pre-event) with
    /// cumulative snapshot `totals`, closing every window that ended.
    /// Quiet windows close with all-zero deltas, keeping the series
    /// dense.
    pub fn observe(&mut self, cycle: u64, totals: PulseTotals) {
        while self.needs_sample(cycle) {
            self.close(totals);
        }
    }

    /// Closes the final (partial) window at end of run.
    pub fn finish(&mut self, cycle: u64, totals: PulseTotals) {
        self.observe(cycle, totals);
        self.close(totals);
    }

    fn close(&mut self, totals: PulseTotals) {
        let mut delta = [0u64; PULSE_COUNTERS];
        for (c, d) in delta.iter_mut().enumerate() {
            *d = totals.counters[c] - self.base.counters[c];
            self.counters[c].push(*d);
        }
        for g in 0..PULSE_GAUGES {
            self.gauges[g].push(totals.gauges[g]);
        }
        let start = self.closed as u64 * self.window;
        let end = start + self.window;
        self.base = totals;
        self.closed += 1;
        self.detect(&delta, start, end);
        if self.closed == self.cfg.capacity {
            self.coalesce();
        }
    }

    /// Pairwise-merges the ring: counters add, gauges max, the window
    /// doubles. O(ring) work amortised over capacity/2 closes.
    fn coalesce(&mut self) {
        for series in &mut self.counters {
            *series = merge_pairs(series, u64::saturating_add);
        }
        for series in &mut self.gauges {
            *series = merge_pairs(series, u64::max);
        }
        self.window *= 2;
        self.coalescings += 1;
        self.closed /= 2;
    }

    /// Runs the four detectors on a just-closed window.
    fn detect(&mut self, delta: &[u64; PULSE_COUNTERS], start: u64, end: u64) {
        if delta[ctr::SB_STALLS] >= self.cfg.stall_storm_min {
            self.push_anomaly(PulseAnomaly {
                kind: PulseAnomalyKind::StallStorm,
                start,
                end,
                value: delta[ctr::SB_STALLS],
                threshold: self.cfg.stall_storm_min,
            });
        }
        if delta[ctr::PUSHES_RETRIED] >= self.cfg.retry_burst_min {
            self.push_anomaly(PulseAnomaly {
                kind: PulseAnomalyKind::RetryBurst,
                start,
                end,
                value: delta[ctr::PUSHES_RETRIED],
                threshold: self.cfg.retry_burst_min,
            });
        }
        let msgs = delta[ctr::COH_MSGS] + delta[ctr::DIRECT_MSGS] + delta[ctr::GPU_MSGS];
        if let Some(prev) = self.prev_msgs {
            if prev >= self.cfg.cliff_floor && msgs * 10 <= prev {
                self.push_anomaly(PulseAnomaly {
                    kind: PulseAnomalyKind::UtilizationCliff,
                    start,
                    end,
                    value: msgs,
                    threshold: prev / 10,
                });
            }
        }
        self.prev_msgs = Some(msgs);
        if delta[ctr::PUSHES_RETRIED] > 0 && delta[ctr::DIRECT_PUSHES] == 0 {
            self.livelock_run += 1;
            if self.livelock_run == self.cfg.livelock_windows {
                self.push_anomaly(PulseAnomaly {
                    kind: PulseAnomalyKind::LivelockPrecursor,
                    start,
                    end,
                    value: delta[ctr::PUSHES_RETRIED],
                    threshold: u64::from(self.cfg.livelock_windows),
                });
            }
        } else {
            self.livelock_run = 0;
        }
    }

    fn push_anomaly(&mut self, a: PulseAnomaly) {
        self.anomalies.push(a);
    }

    /// Anomalies detected since the last drain — the runtime forwards
    /// these to the tracer (and so to any attached flight recorder)
    /// the moment they fire, before any later watchdog abort.
    pub fn take_fresh_anomalies(&mut self) -> Vec<PulseAnomaly> {
        let fresh = self.anomalies[self.fresh..].to_vec();
        self.fresh = self.anomalies.len();
        fresh
    }

    /// All anomalies so far.
    pub fn anomalies(&self) -> &[PulseAnomaly] {
        &self.anomalies
    }

    /// Consumes the sampler into its finished [`PulseSeries`]. Call
    /// after [`PulseSampler::finish`]; the base snapshot is then the
    /// final cumulative totals.
    pub fn into_series(self) -> PulseSeries {
        PulseSeries {
            base_window: self.cfg.window,
            window: self.window,
            coalescings: self.coalescings,
            counters: self.counters,
            gauges: self.gauges,
            totals: self.base,
            anomalies: self.anomalies,
        }
    }
}

/// The legacy epoch view of a pulse series: one [`EpochSample`] per
/// pulse window, carrying the nine counters the old opt-in epoch
/// sampler tracked (a strict subset of the pulse counters). This is
/// what `RunReport::epochs` and `ds trace --format epochs` are now —
/// a derived view, not a second sampling path.
pub fn epoch_view(series: &PulseSeries) -> Vec<crate::EpochSample> {
    (0..series.len())
        .map(|w| crate::EpochSample {
            index: w as u64,
            delta: crate::EpochTotals {
                gpu_l2_accesses: series.counters[ctr::GPU_L2_ACCESSES][w],
                gpu_l2_misses: series.counters[ctr::GPU_L2_MISSES][w],
                cpu_l2_accesses: series.counters[ctr::CPU_L2_ACCESSES][w],
                cpu_l2_misses: series.counters[ctr::CPU_L2_MISSES][w],
                coh_msgs: series.counters[ctr::COH_MSGS][w],
                direct_msgs: series.counters[ctr::DIRECT_MSGS][w],
                gpu_msgs: series.counters[ctr::GPU_MSGS][w],
                dram_accesses: series.counters[ctr::DRAM_READS][w]
                    + series.counters[ctr::DRAM_WRITES][w],
                direct_pushes: series.counters[ctr::DIRECT_PUSHES][w],
            },
        })
        .collect()
}

/// Sparkline glyph ramp, lowest to highest.
const SPARK_RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `values` as a unicode sparkline at most `width` glyphs wide
/// (downsampling by max over even chunks), scaled to the series max.
/// An all-zero series renders as a flat baseline.
pub fn sparkline(values: &[u64], width: usize) -> String {
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let width = width.min(values.len());
    let chunk = values.len().div_ceil(width);
    let buckets: Vec<u64> = values
        .chunks(chunk)
        .map(|c| c.iter().copied().max().unwrap_or(0))
        .collect();
    let max = buckets.iter().copied().max().unwrap_or(0);
    buckets
        .iter()
        .map(|&v| {
            // Scale so only a true max hits the top glyph.
            match (v * (SPARK_RAMP.len() as u64 - 1) + max / 2).checked_div(max) {
                Some(level) => SPARK_RAMP[level as usize],
                None => SPARK_RAMP[0],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals_with(c: usize, v: u64) -> PulseTotals {
        let mut t = PulseTotals::default();
        t.counters[c] = v;
        t
    }

    #[test]
    fn deltas_attribute_to_the_window_they_happened_in() {
        let mut s = PulseSampler::new(PulseConfig::with_window(10));
        s.observe(3, totals_with(ctr::COH_MSGS, 4));
        assert_eq!(s.closed, 0, "open window, nothing closed");
        s.observe(10, totals_with(ctr::COH_MSGS, 6));
        assert_eq!(s.closed, 1);
        s.finish(12, totals_with(ctr::COH_MSGS, 7));
        let series = s.into_series();
        assert_eq!(series.len(), 2);
        assert_eq!(series.counter(ctr::COH_MSGS), &[6, 1]);
        assert_eq!(series.totals.counters[ctr::COH_MSGS], 7);
        series.check_conservation().unwrap();
    }

    #[test]
    fn quiet_windows_stay_dense_with_zero_deltas() {
        let mut s = PulseSampler::new(PulseConfig::with_window(10));
        s.observe(35, PulseTotals::default());
        assert_eq!(s.closed, 3);
        s.finish(35, PulseTotals::default());
        let series = s.into_series();
        assert_eq!(series.len(), 4);
        assert!(series.counter(ctr::EVENTS).iter().all(|&d| d == 0));
    }

    #[test]
    fn ring_coalesces_to_bounded_memory() {
        let cfg = PulseConfig {
            window: 10,
            capacity: 8,
            ..PulseConfig::default()
        };
        let mut s = PulseSampler::new(cfg);
        // 100 windows' worth of activity: one event per window.
        let mut t = PulseTotals::default();
        for w in 0..100u64 {
            t.counters[ctr::EVENTS] = w + 1;
            s.observe(w * 10 + 5, t);
        }
        t.counters[ctr::EVENTS] = 100;
        s.finish(999, t);
        let series = s.into_series();
        assert!(series.len() <= 8, "ring stays bounded: {}", series.len());
        assert!(series.coalescings >= 4);
        assert_eq!(series.window, 10 << series.coalescings);
        series.check_conservation().unwrap();
        let sum: u64 = series.counter(ctr::EVENTS).iter().sum();
        assert_eq!(sum, 100, "coalescing conserves counters");
    }

    #[test]
    fn gauges_keep_max_across_coalescing() {
        let cfg = PulseConfig {
            window: 10,
            capacity: 4,
            ..PulseConfig::default()
        };
        let mut s = PulseSampler::new(cfg);
        let mut t = PulseTotals::default();
        for w in 0..8u64 {
            t.gauges[gauge::QUEUE_DEPTH] = w;
            s.observe((w + 1) * 10, t);
        }
        s.finish(80, t);
        let series = s.into_series();
        assert!(series.len() <= 4);
        let max = series.gauge(gauge::QUEUE_DEPTH).iter().copied().max();
        assert_eq!(max, Some(7), "max survives merging");
    }

    #[test]
    fn retry_burst_and_livelock_precursor_fire() {
        let mut s = PulseSampler::new(PulseConfig::with_window(10));
        let mut t = PulseTotals::default();
        // Window 0: a burst of 20 retries, no acks.
        t.counters[ctr::PUSHES_RETRIED] = 20;
        s.observe(10, t);
        // Window 1: 5 more retries, still no acks.
        t.counters[ctr::PUSHES_RETRIED] = 25;
        s.observe(20, t);
        s.finish(20, t);
        let kinds: Vec<_> = s.anomalies().iter().map(|a| a.kind).collect();
        assert!(kinds.contains(&PulseAnomalyKind::RetryBurst));
        assert!(kinds.contains(&PulseAnomalyKind::LivelockPrecursor));
        let burst = s
            .anomalies()
            .iter()
            .find(|a| a.kind == PulseAnomalyKind::RetryBurst)
            .unwrap();
        assert_eq!((burst.start, burst.end, burst.value), (0, 10, 20));
    }

    #[test]
    fn acks_reset_the_livelock_run() {
        let mut s = PulseSampler::new(PulseConfig::with_window(10));
        let mut t = PulseTotals::default();
        t.counters[ctr::PUSHES_RETRIED] = 1;
        s.observe(10, t); // retrying, no ack: run = 1
        t.counters[ctr::PUSHES_RETRIED] = 2;
        t.counters[ctr::DIRECT_PUSHES] = 1;
        s.observe(20, t); // an ack landed: run resets
        t.counters[ctr::PUSHES_RETRIED] = 3;
        s.observe(30, t); // run = 1 again
        s.finish(30, t);
        assert!(s
            .anomalies()
            .iter()
            .all(|a| a.kind != PulseAnomalyKind::LivelockPrecursor));
    }

    #[test]
    fn stall_storm_and_cliff_fire() {
        let mut s = PulseSampler::new(PulseConfig::with_window(10));
        let mut t = PulseTotals::default();
        t.counters[ctr::SB_STALLS] = 64;
        t.counters[ctr::GPU_MSGS] = 500;
        s.observe(10, t); // stall storm; msgs baseline 500
        t.counters[ctr::GPU_MSGS] = 510;
        s.observe(20, t); // 10 msgs after 500: cliff
        s.finish(20, t);
        let kinds: Vec<_> = s.anomalies().iter().map(|a| a.kind).collect();
        assert!(kinds.contains(&PulseAnomalyKind::StallStorm));
        assert!(kinds.contains(&PulseAnomalyKind::UtilizationCliff));
    }

    #[test]
    fn fresh_anomalies_drain_once() {
        let mut s = PulseSampler::new(PulseConfig::with_window(10));
        let mut t = PulseTotals::default();
        t.counters[ctr::PUSHES_RETRIED] = 20;
        t.counters[ctr::DIRECT_PUSHES] = 1;
        s.observe(10, t);
        assert_eq!(s.take_fresh_anomalies().len(), 1);
        assert!(s.take_fresh_anomalies().is_empty());
        assert_eq!(s.anomalies().len(), 1);
    }

    #[test]
    fn downsampled_conserves_counters() {
        let mut s = PulseSampler::new(PulseConfig::with_window(10));
        let mut t = PulseTotals::default();
        for w in 0..37u64 {
            t.counters[ctr::EVENTS] += w;
            s.observe((w + 1) * 10, t);
        }
        s.finish(370, t);
        let series = s.into_series();
        let small = series.downsampled(8);
        assert!(small.len() <= 8);
        small.check_conservation().unwrap();
        assert_eq!(
            small.counter(ctr::EVENTS).iter().sum::<u64>(),
            series.counter(ctr::EVENTS).iter().sum::<u64>()
        );
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[0, 0, 0], 3), "▁▁▁");
        let line = sparkline(&[0, 1, 2, 4, 8], 5);
        assert_eq!(line.chars().count(), 5);
        assert!(line.ends_with('█'));
        // Downsampling keeps the peak visible.
        let wide = sparkline(&(0..100u64).collect::<Vec<_>>(), 10);
        assert_eq!(wide.chars().count(), 10);
        assert!(wide.ends_with('█'));
    }

    #[test]
    #[should_panic(expected = "pulse window must be positive")]
    fn zero_window_panics() {
        let _ = PulseSampler::new(PulseConfig::with_window(0));
    }
}
