//! Per-run statistics reports.

use std::fmt;

use ds_cache::CacheStats;
use ds_noc::XbarStats;
use ds_probe::{EpochSample, HostProfile, LatencyReport, LensReport, PulseSeries, StageBreakdown};
use ds_sim::Cycle;

use crate::Mode;

/// Everything a single simulation run reports.
///
/// The paper's figures derive from pairs of these: Fig. 4 compares
/// [`RunReport::total_cycles`] across modes, Fig. 5 compares
/// [`RunReport::gpu_l2`] miss rates.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The mode the run executed under.
    pub mode: Mode,
    /// End-to-end execution time ("total ticks" in the paper).
    pub total_cycles: Cycle,
    /// Aggregated GPU L2 statistics (all four slices).
    pub gpu_l2: CacheStats,
    /// CPU L2 statistics.
    pub cpu_l2: CacheStats,
    /// Aggregated per-SM GPU L1 statistics.
    pub gpu_l1: CacheStats,
    /// CPU L1D statistics.
    pub cpu_l1: CacheStats,
    /// Coherence-network traffic.
    pub coh_net: XbarStats,
    /// Direct-network traffic (zero under CCSM).
    pub direct_net: XbarStats,
    /// GPU-internal network traffic.
    pub gpu_net: XbarStats,
    /// DRAM reads.
    pub dram_reads: u64,
    /// DRAM writes.
    pub dram_writes: u64,
    /// Stores pushed to the GPU L2 over the direct network.
    pub direct_pushes: u64,
    /// CPU store-buffer stalls (buffer full).
    pub store_buffer_stalls: u64,
    /// Kernels executed.
    pub kernels_run: u64,
    /// Warps completed.
    pub warps_completed: u64,
    /// When the first kernel began (the CPU produce phase ends around
    /// here).
    pub first_kernel_start: Cycle,
    /// When the last kernel finished (the readback phase follows).
    pub last_kernel_end: Cycle,
    /// Per-kernel-launch `(start, end)` spans, in launch order.
    pub kernel_spans: Vec<(Cycle, Cycle)>,
    /// Pushes that found their L2 set full and wrote to DRAM instead
    /// (§III.A's overflow policy).
    pub push_bypasses: u64,
    /// Coherence transactions served by the hub.
    pub hub_transactions: u64,
    /// Requests that queued behind a same-line transaction.
    pub hub_conflicts: u64,
    /// Probes broadcast by the hub.
    pub hub_probes: u64,
    /// DRAM row-buffer hits.
    pub dram_row_hits: u64,
    /// Direct-store pushes drained from the store buffer (equals
    /// `direct_pushes + pushes_degraded`: every attempt is either
    /// acknowledged or degraded — the ds-chaos no-silent-loss
    /// invariant).
    pub pushes_attempted: u64,
    /// Push retries sent by the ack-timeout protocol (only nonzero
    /// under an active fault plan with retries enabled).
    pub pushes_retried: u64,
    /// Pushes that exhausted their retries and degraded to the CCSM
    /// demand path (written to the DRAM home instead).
    pub pushes_degraded: u64,
    /// Faults injected by the run's fault plan (zero without one).
    pub faults_injected: u64,
    /// Total simulation events processed (simulator-effort metric).
    pub events: u64,
    /// Sim-wide latency distributions (GPU load-to-use, direct-push
    /// end-to-end, hub transaction, DRAM queue) with p50/p95/p99
    /// summaries, folded from the trace stream at every probe level.
    pub latency: LatencyReport,
    /// Per-transaction cycle accounting aggregated over all completed
    /// GPU loads and direct-store pushes: total cycles per lifecycle
    /// stage plus per-path counts and end-to-end sums, folded from the
    /// trace stream at probe level `stages` and above (all zero below);
    /// for every completed transaction the stage cycles sum exactly to
    /// its end-to-end latency.
    pub stages: StageBreakdown,
    /// Per-cacheline forensics aggregated over the run: push efficacy
    /// (useful / dead / clobbered, reconciling exactly against
    /// `gpu_l2.pushed_fills`), sharing pathologies (ping-pong,
    /// write-after-push), first-touch / reuse histograms, and
    /// per-slice / per-bank / per-link traffic heatmaps, folded from
    /// the trace stream at probe level `full` (all zero below).
    pub lens: LensReport,
    /// Cycle-domain time-series telemetry: per-window counter deltas,
    /// sampled gauges and anomaly annotations from the pulse sampler.
    /// `None` unless pulse sampling was enabled
    /// (`System::enable_pulse`). Per-window deltas sum exactly to the
    /// run's final totals ([`ds_probe::PulseSeries::check_conservation`]),
    /// and sampling never feeds back into simulated timing.
    pub pulse: Option<PulseSeries>,
    /// Windowed activity series, derived from [`RunReport::pulse`]
    /// via [`ds_probe::pulse::epoch_view`]; empty unless pulse
    /// sampling was enabled.
    pub epochs: Vec<EpochSample>,
    /// The (post-coalescing) pulse window length in cycles (zero when
    /// sampling was off).
    pub epoch_window: u64,
    /// Host-time profile of the run (`ds_probe::prof`): wall-clock
    /// plus per-[`ds_probe::HostPhase`] self time and span counts,
    /// including the observability-tax buckets. `None` unless host
    /// profiling was enabled (`ds prof`, `ds check`, `ds-gauge --trace 1`). Host time
    /// never feeds back into simulated timing — two runs differing
    /// only in this field are the same simulation.
    pub host: Option<HostProfile>,
}

impl RunReport {
    /// The GPU L2 demand miss rate (the Fig. 5 metric).
    pub fn gpu_l2_miss_rate(&self) -> f64 {
        self.gpu_l2.miss_rate().as_f64()
    }

    /// GPU L2 compulsory misses (§IV's compulsory-miss discussion).
    pub fn gpu_l2_compulsory_misses(&self) -> u64 {
        self.gpu_l2.compulsory_misses.value()
    }

    /// Total cycles spent inside kernels (summed launch spans).
    pub fn kernel_cycles(&self) -> u64 {
        self.kernel_spans
            .iter()
            .map(|&(s, e)| e.saturating_since(s))
            .sum()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}] {} cycles", self.mode, self.total_cycles.as_u64())?;
        writeln!(f, "  gpu-l2: {}", self.gpu_l2)?;
        writeln!(f, "  cpu-l2: {}", self.cpu_l2)?;
        writeln!(
            f,
            "  nets: coh={} msgs, direct={} msgs, gpu={} msgs",
            self.coh_net.total_msgs(),
            self.direct_net.total_msgs(),
            self.gpu_net.total_msgs()
        )?;
        write!(
            f,
            "  dram: {} reads, {} writes; pushes={}; kernels={}",
            self.dram_reads, self.dram_writes, self.direct_pushes, self.kernels_run
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_cache::MissKind;

    fn dummy() -> RunReport {
        let mut gpu_l2 = CacheStats::new();
        gpu_l2.record_hit();
        gpu_l2.record_hit();
        gpu_l2.record_hit();
        gpu_l2.record_miss(MissKind::Compulsory);
        RunReport {
            mode: Mode::Ccsm,
            total_cycles: Cycle::new(1000),
            gpu_l2,
            cpu_l2: CacheStats::new(),
            gpu_l1: CacheStats::new(),
            cpu_l1: CacheStats::new(),
            coh_net: XbarStats::default(),
            direct_net: XbarStats::default(),
            gpu_net: XbarStats::default(),
            dram_reads: 5,
            dram_writes: 2,
            direct_pushes: 0,
            store_buffer_stalls: 0,
            kernels_run: 1,
            warps_completed: 32,
            first_kernel_start: Cycle::new(100),
            last_kernel_end: Cycle::new(900),
            kernel_spans: vec![(Cycle::new(100), Cycle::new(900))],
            push_bypasses: 0,
            hub_transactions: 0,
            hub_conflicts: 0,
            hub_probes: 0,
            dram_row_hits: 0,
            pushes_attempted: 0,
            pushes_retried: 0,
            pushes_degraded: 0,
            faults_injected: 0,
            events: 0,
            latency: LatencyReport::new(),
            stages: StageBreakdown::new(),
            lens: LensReport::empty(),
            pulse: None,
            epochs: Vec::new(),
            epoch_window: 0,
            host: None,
        }
    }

    #[test]
    fn miss_rate_helper() {
        let r = dummy();
        assert_eq!(r.gpu_l2_miss_rate(), 0.25);
        assert_eq!(r.gpu_l2_compulsory_misses(), 1);
        assert_eq!(r.kernel_cycles(), 800);
    }

    #[test]
    fn display_mentions_mode_and_cycles() {
        let text = dummy().to_string();
        assert!(text.contains("CCSM"));
        assert!(text.contains("1000 cycles"));
    }
}
