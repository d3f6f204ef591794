//! The epoch view of a run: one [`EpochSample`] per fixed cycle
//! window, each holding the *delta* of a handful of counters over that
//! window. Plotted over time this makes the produce → kernel →
//! readback phase structure of a run directly visible — CPU L2 stores
//! during produce, a burst of direct-network messages while pushes
//! drain, GPU misses (or their absence, under direct store) once the
//! kernel starts. The series is derived from the pulse sampler's
//! windows ([`crate::pulse::epoch_view`]); [`render_csv`] prints it.

/// The counters an epoch reports, as per-window deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochTotals {
    /// GPU L2 demand accesses (all slices).
    pub gpu_l2_accesses: u64,
    /// GPU L2 demand misses (all slices).
    pub gpu_l2_misses: u64,
    /// CPU L2 demand accesses.
    pub cpu_l2_accesses: u64,
    /// CPU L2 demand misses.
    pub cpu_l2_misses: u64,
    /// Messages sent on the coherence network.
    pub coh_msgs: u64,
    /// Messages sent on the direct-store network.
    pub direct_msgs: u64,
    /// Messages sent on the GPU-internal network.
    pub gpu_msgs: u64,
    /// DRAM accesses (reads + writes).
    pub dram_accesses: u64,
    /// Direct-store pushes completed.
    pub direct_pushes: u64,
}

/// One closed epoch: window `index` covers cycles
/// `[index * window, (index + 1) * window)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSample {
    /// Window number.
    pub index: u64,
    /// Counter deltas over this window.
    pub delta: EpochTotals,
}

/// Header line for [`render_csv`].
pub const CSV_HEADER: &str = "window_start,window_end,gpu_l2_accesses,gpu_l2_misses,\
gpu_l2_miss_rate,cpu_l2_accesses,cpu_l2_misses,coh_msgs,direct_msgs,gpu_msgs,\
dram_accesses,direct_pushes";

/// Renders an epoch series as CSV (header + one row per window).
pub fn render_csv(window: u64, samples: &[EpochSample]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for s in samples {
        let d = s.delta;
        let miss_rate = if d.gpu_l2_accesses == 0 {
            0.0
        } else {
            d.gpu_l2_misses as f64 / d.gpu_l2_accesses as f64
        };
        out.push_str(&format!(
            "{},{},{},{},{:.4},{},{},{},{},{},{},{}\n",
            s.index * window,
            (s.index + 1) * window,
            d.gpu_l2_accesses,
            d.gpu_l2_misses,
            miss_rate,
            d.cpu_l2_accesses,
            d.cpu_l2_misses,
            d.coh_msgs,
            d.direct_msgs,
            d.gpu_msgs,
            d.dram_accesses,
            d.direct_pushes,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_has_one_row_per_window_plus_header() {
        let samples = [
            EpochSample {
                index: 0,
                delta: EpochTotals {
                    gpu_l2_accesses: 8,
                    gpu_l2_misses: 2,
                    ..EpochTotals::default()
                },
            },
            EpochSample {
                index: 1,
                delta: EpochTotals {
                    coh_msgs: 3,
                    ..EpochTotals::default()
                },
            },
        ];
        let csv = render_csv(100, &samples);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("window_start,window_end,"));
        assert_eq!(lines[1], "0,100,8,2,0.2500,0,0,0,0,0,0,0");
        assert_eq!(lines[2], "100,200,0,0,0.0000,0,0,3,0,0,0,0");
    }
}
