//! The fan-out: one observation stream, many folds.

use crate::{LatencyReport, LineLens, ProbeLevel, StageTracker, TraceEvent, Tracer};

/// The runtime's single observation sink. Every hand-off the simulator
/// reports reaches, in order, the report's folds — the latency
/// histograms (every probe level), the stage tracker (`stages` and
/// above) and the per-line lens (`full`) — and then the caller's
/// tracer. The [`ProbeLevel`] chooses which folds the fan-out holds,
/// so a shed fold costs one `None` check per event and records no tax
/// spans.
///
/// Dispatch is static: the folds are concrete types and the caller's
/// tracer is a type parameter, so forwarding to a [`crate::NullTracer`]
/// compiles away, and recording allocates nothing beyond what a fold
/// keeps.
///
/// ```
/// use ds_probe::{BufferTracer, Component, ProbeLevel, Probes, TraceEvent, TraceKind, Tracer};
///
/// let mut probes = Probes::new(BufferTracer::new(), ProbeLevel::Stages, 4, 8);
/// probes.record(TraceEvent {
///     cycle: 9,
///     component: Component::Sm { sm: 0 },
///     line: None,
///     kind: TraceKind::LoadDone { warp: 0, latency: 40 },
/// });
/// assert_eq!(probes.latency.load_to_use.samples(), 1);
/// assert!(probes.stages.is_some() && probes.lens.is_none());
/// assert_eq!(probes.tracer.events().len(), 1);
/// ```
#[derive(Debug)]
pub struct Probes<T: Tracer> {
    /// The latency histograms (always held).
    pub latency: LatencyReport,
    /// Per-transaction stage accounting (`stages` level and above).
    pub stages: Option<StageTracker>,
    /// Per-cacheline forensics (`full` level).
    pub lens: Option<LineLens>,
    /// The caller's tracer.
    pub tracer: T,
}

impl<T: Tracer> Probes<T> {
    /// A fan-out holding the folds `level` keeps, for a system with
    /// `slices` GPU L2 slices and `banks` DRAM banks, feeding `tracer`
    /// last.
    pub fn new(tracer: T, level: ProbeLevel, slices: usize, banks: usize) -> Self {
        Probes {
            latency: LatencyReport::new(),
            stages: (level >= ProbeLevel::Stages).then(StageTracker::new),
            lens: (level >= ProbeLevel::Full).then(|| LineLens::new(slices, banks)),
            tracer,
        }
    }
}

impl<T: Tracer> Tracer for Probes<T> {
    #[inline(always)]
    fn record(&mut self, event: TraceEvent) {
        self.latency.record(event);
        if let Some(stages) = &mut self.stages {
            stages.record(event);
        }
        if let Some(lens) = &mut self.lens {
            lens.record(event);
        }
        if T::ENABLED {
            self.tracer.record(event);
        }
    }

    fn finish(&mut self) {
        self.latency.finish();
        if let Some(stages) = &mut self.stages {
            stages.finish();
        }
        if let Some(lens) = &mut self.lens {
            lens.finish();
        }
        self.tracer.finish();
    }
}
