//! The four sim-wide latency distributions.

use std::collections::HashMap;
use std::fmt;

use ds_sim::Histogram;

use crate::prof::{self, HostPhase};
use crate::{TraceEvent, TraceKind, Tracer};

/// The latency histograms every run collects, as a fold over the
/// trace stream: each sample is read off one event (`LoadDone`,
/// `PushDone`, `DramAccess`) or one `HubStart`/`HubDone` pair. The
/// fold runs at every probe level (a histogram update is a few
/// integer ops — far cheaper than the event-queue work around it) and
/// never feeds back into timing, so it cannot change a simulation
/// result.
#[derive(Debug, Clone)]
pub struct LatencyReport {
    /// GPU load-to-use: SM issue to data arriving back at the SM.
    pub load_to_use: Histogram,
    /// Direct-store push end-to-end: store-buffer drain to PutX-Ack.
    pub push_e2e: Histogram,
    /// Coherence-hub transaction: request arrival to unblock.
    pub hub_txn: Histogram,
    /// DRAM queue + service: request arrival to burst completion.
    pub dram_queue: Histogram,
    /// Start cycle of each open hub transaction, by line. Freed by
    /// [`Tracer::finish`]: a transaction still open when the run
    /// drains never completes, and a finished report, cloned into
    /// every job that serves it, must not carry the table.
    hub_open: HashMap<u64, u64>,
}

impl LatencyReport {
    /// Canonical histogram names, also used by serialized forms.
    pub const LOAD_TO_USE: &'static str = "load_to_use";
    /// Name of [`LatencyReport::push_e2e`].
    pub const PUSH_E2E: &'static str = "push_e2e";
    /// Name of [`LatencyReport::hub_txn`].
    pub const HUB_TXN: &'static str = "hub_txn";
    /// Name of [`LatencyReport::dram_queue`].
    pub const DRAM_QUEUE: &'static str = "dram_queue";

    /// Four empty histograms.
    pub fn new() -> Self {
        LatencyReport {
            load_to_use: Histogram::new(Self::LOAD_TO_USE),
            push_e2e: Histogram::new(Self::PUSH_E2E),
            hub_txn: Histogram::new(Self::HUB_TXN),
            dram_queue: Histogram::new(Self::DRAM_QUEUE),
            hub_open: HashMap::new(),
        }
    }

    /// The histograms in declaration order, for uniform reporting.
    pub fn all(&self) -> [&Histogram; 4] {
        [
            &self.load_to_use,
            &self.push_e2e,
            &self.hub_txn,
            &self.dram_queue,
        ]
    }
}

impl Tracer for LatencyReport {
    #[inline]
    fn record(&mut self, e: TraceEvent) {
        match e.kind {
            TraceKind::LoadDone { latency, .. } => {
                let _tax = prof::span(HostPhase::TaxHistograms);
                self.load_to_use.record(latency);
            }
            TraceKind::PushDone { latency } => {
                let _tax = prof::span(HostPhase::TaxHistograms);
                self.push_e2e.record(latency);
            }
            TraceKind::DramAccess { done, .. } => {
                let _tax = prof::span(HostPhase::TaxHistograms);
                self.dram_queue.record(done.saturating_sub(e.cycle));
            }
            TraceKind::HubStart { .. } => {
                if let Some(line) = e.line {
                    self.hub_open.insert(line, e.cycle);
                }
            }
            TraceKind::HubDone => {
                let start = e.line.and_then(|line| self.hub_open.remove(&line));
                if let Some(start) = start {
                    let _tax = prof::span(HostPhase::TaxHistograms);
                    self.hub_txn.record(e.cycle.saturating_sub(start));
                }
            }
            _ => {}
        }
    }

    fn finish(&mut self) {
        self.hub_open = HashMap::new();
    }
}

impl Default for LatencyReport {
    fn default() -> Self {
        Self::new()
    }
}

/// Formats an optional statistic: the value, or `-` when the
/// histogram was empty and the statistic does not exist.
fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |n| n.to_string())
}

impl fmt::Display for LatencyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, h) in self.all().iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(
                f,
                "{}: n={} mean={:.1} min={} p50={} p95={} p99={} max={}",
                h.name(),
                h.samples(),
                h.mean(),
                opt(h.min()),
                opt(h.percentile(50.0)),
                opt(h.percentile(95.0)),
                opt(h.percentile(99.0)),
                h.max()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Component;

    #[test]
    fn hub_latency_pairs_start_and_done_and_finish_frees_the_table() {
        let hub = |cycle, line, kind| TraceEvent {
            cycle,
            component: Component::Hub,
            line: Some(line),
            kind,
        };
        let start = TraceKind::HubStart {
            requester: Component::CpuL2,
            write: false,
        };
        let mut r = LatencyReport::new();
        r.record(hub(10, 1, start));
        r.record(hub(12, 2, start));
        r.record(hub(40, 1, TraceKind::HubDone));
        assert_eq!((r.hub_txn.samples(), r.hub_txn.sum()), (1, 30));
        // Line 2 never retires; the report must not keep its table.
        r.finish();
        assert_eq!(r.hub_open.capacity(), 0);
    }

    #[test]
    fn display_lists_all_four_with_percentiles() {
        let mut r = LatencyReport::new();
        r.load_to_use.record(100);
        let text = r.to_string();
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with("load_to_use: n=1"));
        assert!(text.contains("p95=64"), "{text}");
        assert!(text.contains("push_e2e: n=0"), "{text}");
        // Empty histograms have no min/percentiles; shown as dashes.
        assert!(text.contains("min=- p50=- p95=- p99=-"), "{text}");
    }
}
