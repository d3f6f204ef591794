//! `ds-lens`: per-cacheline lifetime forensics.
//!
//! The aggregate counters say *how many* pushes happened; this module
//! says what became of each one. A [`LineLens`] is a fold over the
//! runtime's trace stream (held at probe level `full`; it never feeds
//! back into timing, so an untraced run stays bit-identical) and
//! records, for every 128 B line touched, its event history with cycle
//! stamps. From the histories it derives three views:
//!
//! * **push efficacy** — every direct-store push is classified as
//!   *useful* (the GPU touched the pushed copy before it was lost),
//!   *dead* (evicted, probed out or replaced untouched) or *clobbered*
//!   (re-pushed by the CPU before the GPU ever read it). The three
//!   classes partition the pushes exactly: `useful + dead + clobbered`
//!   reconciles against the caches' `pushed_fills` counter.
//! * **sharing forensics** — write-after-push (the GPU's first touch of
//!   a pushed line is a store), ping-pong (the CPU re-claims a pushed
//!   line the GPU already used), per-line reuse distances and the
//!   push-to-first-touch latency distribution.
//! * **spatial heatmaps** — per-L2-slice, per-DRAM-bank and
//!   per-NoC-link traffic matrices whose row sums reconcile against
//!   the corresponding `CacheStats`/DRAM/`XbarStats` counters.
//!
//! Like the rest of this crate, the lens speaks raw `u64` line indices
//! so it can sit below every model crate.

use std::collections::HashMap;

use ds_sim::Histogram;

use crate::{Component, NetId, TraceEvent, TraceKind, Tracer};

/// One step in a line's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineEventKind {
    /// The CPU architecturally executed a store to the line; `push`
    /// marks stores destined for the direct network.
    CpuStore {
        /// The store will drain as a direct push (vs. through the
        /// coherent CPU L2).
        push: bool,
    },
    /// A direct-store push installed the line in its home slice.
    PushFill,
    /// A push found its set full of resident lines and bypassed to
    /// DRAM (the line was not installed).
    PushBypass,
    /// A demand (or prefetch) fill installed the line in a slice.
    DemandFill,
    /// A demand access hit in the slice.
    Hit {
        /// The access was a store.
        write: bool,
        /// The line was still push-provenanced.
        push_hit: bool,
        /// The requester was the GPU (vs. an uncached CPU read).
        gpu: bool,
    },
    /// A demand access missed in the slice.
    Miss {
        /// The access was a store.
        write: bool,
        /// The requester was the GPU (vs. an uncached CPU read).
        gpu: bool,
    },
    /// The slice's copy was invalidated; `direct` distinguishes the
    /// CPU's push-preceding GETX from a coherence probe.
    Invalidate {
        /// Invalidation arrived over the direct network.
        direct: bool,
    },
    /// The slice evicted the line to make room.
    Evict {
        /// The victim was dirty and required a writeback.
        writeback: bool,
    },
}

impl LineEventKind {
    /// Stable lower-case name used by the `ds lens` renderers.
    pub fn name(self) -> &'static str {
        match self {
            LineEventKind::CpuStore { .. } => "cpu_store",
            LineEventKind::PushFill => "push_fill",
            LineEventKind::PushBypass => "push_bypass",
            LineEventKind::DemandFill => "demand_fill",
            LineEventKind::Hit { .. } => "hit",
            LineEventKind::Miss { .. } => "miss",
            LineEventKind::Invalidate { .. } => "invalidate",
            LineEventKind::Evict { .. } => "evict",
        }
    }
}

/// One cycle-stamped entry in a line's history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineEvent {
    /// Simulation cycle the event occurred at.
    pub cycle: u64,
    /// What happened.
    pub kind: LineEventKind,
}

/// An installed push the GPU has not necessarily consumed yet.
#[derive(Debug, Clone, Copy)]
struct OpenPush {
    /// Cycle the push filled the slice.
    at: u64,
    /// The GPU has touched the pushed copy.
    touched: bool,
}

/// Everything the lens knows about one cache line.
#[derive(Debug, Clone, Default)]
pub struct LineHistory {
    /// The cycle-stamped event sequence, in occurrence order.
    pub events: Vec<LineEvent>,
    /// Pushes installed for this line (`PushFill` events).
    pub pushes: u64,
    /// GPU demand accesses that reached the L2 slice.
    pub gpu_accesses: u64,
    /// Pushes the GPU touched before the copy was lost.
    pub useful: u64,
    /// Pushes lost (evicted, probed, replaced or still unread at the
    /// end of the run) before any GPU touch.
    pub dead: u64,
    /// Pushes overwritten by a newer push before any GPU touch.
    pub clobbered: u64,
    /// Direct invalidations that re-claimed a pushed copy the GPU had
    /// already used (CPU → GPU → CPU bouncing).
    pub ping_pongs: u64,
    /// Useful pushes whose first GPU touch was a store.
    pub write_after_push: u64,
    /// The open (installed, unresolved) push, if any.
    open: Option<OpenPush>,
    /// Cycle of the most recent GPU demand access (for reuse
    /// distances).
    last_gpu_access: Option<u64>,
}

/// Per-GPU-L2-slice traffic row of the spatial heatmap. Each counter
/// mirrors an existing `CacheStats` (or push) counter at slice
/// granularity, so row sums reconcile exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceTraffic {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Demand/prefetch fills.
    pub demand_fills: u64,
    /// Push installs.
    pub push_fills: u64,
    /// Demand hits on push-provenanced lines.
    pub push_hits: u64,
    /// Pushes that bypassed to DRAM (set full).
    pub push_bypasses: u64,
    /// Evictions.
    pub evictions: u64,
    /// Dirty evictions written back.
    pub writebacks: u64,
    /// Copies invalidated (probes and direct GETX).
    pub invalidations: u64,
}

impl SliceTraffic {
    /// Column headers, matching [`SliceTraffic::row`] order.
    pub const COLUMNS: [&'static str; 9] = [
        "hits",
        "misses",
        "demand_fills",
        "push_fills",
        "push_hits",
        "push_bypasses",
        "evictions",
        "writebacks",
        "invalidations",
    ];

    /// The counters in [`SliceTraffic::COLUMNS`] order.
    pub fn row(&self) -> [u64; 9] {
        [
            self.hits,
            self.misses,
            self.demand_fills,
            self.push_fills,
            self.push_hits,
            self.push_bypasses,
            self.evictions,
            self.writebacks,
            self.invalidations,
        ]
    }
}

/// Per-DRAM-bank traffic row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankTraffic {
    /// Read accesses serviced.
    pub reads: u64,
    /// Write accesses serviced.
    pub writes: u64,
    /// Accesses that hit the open row buffer.
    pub row_hits: u64,
}

impl BankTraffic {
    /// Column headers, matching [`BankTraffic::row`] order.
    pub const COLUMNS: [&'static str; 3] = ["reads", "writes", "row_hits"];

    /// The counters in [`BankTraffic::COLUMNS`] order.
    pub fn row(&self) -> [u64; 3] {
        [self.reads, self.writes, self.row_hits]
    }

    /// Total accesses (the heatmap intensity).
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

/// One (network, source port, destination port) cell of the NoC
/// traffic matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTraffic {
    /// Which crossbar the link belongs to.
    pub net: NetId,
    /// Source port index.
    pub src: u8,
    /// Destination port index.
    pub dst: u8,
    /// Control-sized messages routed.
    pub control: u64,
    /// Line-sized data messages routed.
    pub data: u64,
}

impl LinkTraffic {
    /// Total messages over the link.
    pub fn total(&self) -> u64 {
        self.control + self.data
    }
}

/// Stable ordering index for serialized link matrices.
fn net_order(net: NetId) -> u8 {
    match net {
        NetId::Coherence => 0,
        NetId::Direct => 1,
        NetId::GpuInternal => 2,
    }
}

/// The aggregate view of a run's line forensics, carried on
/// `RunReport`. Per-line histories stay inside the [`LineLens`] (they
/// are unbounded); this is the bounded summary every run serializes.
#[derive(Debug, Clone)]
pub struct LensReport {
    /// Pushes the GPU consumed before the copy was lost.
    pub push_useful: u64,
    /// Pushes lost untouched (evicted / probed / replaced / unread at
    /// end of run).
    pub push_dead: u64,
    /// Pushes overwritten by a newer push before any GPU touch.
    pub push_clobbered: u64,
    /// Pushes that bypassed to DRAM on a full set (never installed,
    /// so outside the useful/dead/clobbered partition).
    pub push_bypasses: u64,
    /// Pushes that exhausted the fault-recovery retries and degraded
    /// to the CCSM demand path (written to DRAM, never installed —
    /// outside the partition, like bypasses). Zero without a fault
    /// plan.
    pub push_degraded: u64,
    /// Useful pushes whose first GPU touch was a store.
    pub write_after_push: u64,
    /// Pushed-and-used copies re-claimed by the CPU (sharing bounce).
    pub ping_pongs: u64,
    /// Distinct lines with any recorded event.
    pub lines_touched: u64,
    /// Distinct lines that received at least one push install.
    pub lines_pushed: u64,
    /// Push-install to first GPU touch, one sample per useful push.
    pub first_touch: Histogram,
    /// Cycles between consecutive GPU L2 accesses to the same line.
    pub reuse: Histogram,
    /// Per-GPU-L2-slice traffic matrix.
    pub slices: Vec<SliceTraffic>,
    /// Per-DRAM-bank traffic matrix.
    pub banks: Vec<BankTraffic>,
    /// Per-link NoC traffic, sorted by (net, src, dst); links that
    /// never carried a message are omitted.
    pub links: Vec<LinkTraffic>,
}

impl LensReport {
    /// Name of the [`LensReport::first_touch`] histogram.
    pub const FIRST_TOUCH: &'static str = "push_first_touch";
    /// Name of the [`LensReport::reuse`] histogram.
    pub const REUSE: &'static str = "line_reuse";

    /// An all-zero report (no slices, no banks, no links).
    pub fn empty() -> Self {
        LensReport {
            push_useful: 0,
            push_dead: 0,
            push_clobbered: 0,
            push_bypasses: 0,
            push_degraded: 0,
            write_after_push: 0,
            ping_pongs: 0,
            lines_touched: 0,
            lines_pushed: 0,
            first_touch: Histogram::new(Self::FIRST_TOUCH),
            reuse: Histogram::new(Self::REUSE),
            slices: Vec::new(),
            banks: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Total classified pushes: must equal the caches' `pushed_fills`.
    pub fn push_total(&self) -> u64 {
        self.push_useful + self.push_dead + self.push_clobbered
    }

    /// Per-network `(control, data)` message sums over the link
    /// matrix, for reconciliation against `XbarStats`.
    pub fn net_sums(&self, net: NetId) -> (u64, u64) {
        self.links
            .iter()
            .filter(|l| l.net == net)
            .fold((0, 0), |(c, d), l| (c + l.control, d + l.data))
    }
}

impl Default for LensReport {
    fn default() -> Self {
        Self::empty()
    }
}

/// The live per-line tracker: a [`Tracer`] fold over the runtime's
/// cache, push, DRAM and NoC events; [`LineLens::report`] derives the
/// bounded [`LensReport`].
///
/// Determinism: per-line state lives in a `HashMap`, but nothing
/// order-dependent is ever derived from iterating it — aggregates are
/// commutative counters and histograms, and serialized outputs are
/// sorted.
#[derive(Debug)]
pub struct LineLens {
    lines: HashMap<u64, LineHistory>,
    push_useful: u64,
    push_dead: u64,
    push_clobbered: u64,
    push_bypasses: u64,
    push_degraded: u64,
    write_after_push: u64,
    ping_pongs: u64,
    first_touch: Histogram,
    reuse: Histogram,
    slices: Vec<SliceTraffic>,
    banks: Vec<BankTraffic>,
    links: HashMap<(NetId, u8, u8), (u64, u64)>,
}

/// Appends one event to `line`'s history, creating it on first touch.
/// Free-standing (over the map, not the lens) so callers can keep
/// mutating the lens's other fields while holding the history.
fn record_line(
    lines: &mut HashMap<u64, LineHistory>,
    line: u64,
    at: u64,
    kind: LineEventKind,
) -> &mut LineHistory {
    let h = lines.entry(line).or_default();
    h.events.push(LineEvent { cycle: at, kind });
    h
}

impl LineLens {
    /// A lens over `slices` GPU L2 slices and `banks` DRAM banks.
    pub fn new(slices: usize, banks: usize) -> Self {
        LineLens {
            lines: HashMap::new(),
            push_useful: 0,
            push_dead: 0,
            push_clobbered: 0,
            push_bypasses: 0,
            push_degraded: 0,
            write_after_push: 0,
            ping_pongs: 0,
            first_touch: Histogram::new(LensReport::FIRST_TOUCH),
            reuse: Histogram::new(LensReport::REUSE),
            slices: vec![SliceTraffic::default(); slices],
            banks: vec![BankTraffic::default(); banks],
            links: HashMap::new(),
        }
    }

    /// The CPU architecturally executed a store to `line`.
    fn cpu_store(&mut self, line: u64, push: bool, at: u64) {
        let _tax = crate::prof::span(crate::prof::HostPhase::TaxLens);
        record_line(&mut self.lines, line, at, LineEventKind::CpuStore { push });
    }

    /// A push installed `line` into `slice`, opening a new efficacy
    /// interval. A still-open prior push normally cannot exist (the
    /// push's own GETX invalidates the old copy first), but fault
    /// injection can duplicate or reorder PUTX/GETX so one may; it is
    /// closed as clobbered rather than lost.
    fn push_fill(&mut self, slice: usize, line: u64, at: u64) {
        let _tax = crate::prof::span(crate::prof::HostPhase::TaxLens);
        self.slices[slice].push_fills += 1;
        let h = record_line(&mut self.lines, line, at, LineEventKind::PushFill);
        h.pushes += 1;
        if let Some(open) = h.open.take() {
            if !open.touched {
                h.clobbered += 1;
                self.push_clobbered += 1;
            }
        }
        h.open = Some(OpenPush { at, touched: false });
    }

    /// A push for `line` bypassed `slice` to DRAM (set full). The line
    /// is not installed, so no efficacy interval opens.
    fn push_bypass(&mut self, slice: usize, line: u64, at: u64) {
        let _tax = crate::prof::span(crate::prof::HostPhase::TaxLens);
        self.slices[slice].push_bypasses += 1;
        self.push_bypasses += 1;
        record_line(&mut self.lines, line, at, LineEventKind::PushBypass);
    }

    /// A push exhausted its fault-recovery retries and degraded to the
    /// CCSM demand path. Like a bypass, nothing was installed, so no
    /// efficacy interval opens.
    fn push_degraded(&mut self) {
        let _tax = crate::prof::span(crate::prof::HostPhase::TaxLens);
        self.push_degraded += 1;
    }

    /// A demand (or prefetch) fill installed `line` into `slice`. A
    /// demand fill landing on an open push replaces the pushed copy —
    /// the push dies untouched if the GPU never read it.
    fn demand_fill(&mut self, slice: usize, line: u64, at: u64) {
        let _tax = crate::prof::span(crate::prof::HostPhase::TaxLens);
        self.slices[slice].demand_fills += 1;
        let h = record_line(&mut self.lines, line, at, LineEventKind::DemandFill);
        if let Some(open) = h.open.take() {
            if !open.touched {
                h.dead += 1;
                self.push_dead += 1;
            }
        }
    }

    /// A demand access hit `line` in `slice`. The first GPU touch of
    /// an open push marks it useful and samples the first-touch
    /// latency; uncached CPU read-backs (`gpu == false`) count as
    /// traffic but not as consumption.
    fn slice_hit(
        &mut self,
        slice: usize,
        line: u64,
        write: bool,
        push_hit: bool,
        gpu: bool,
        at: u64,
    ) {
        let _tax = crate::prof::span(crate::prof::HostPhase::TaxLens);
        self.slices[slice].hits += 1;
        if push_hit {
            self.slices[slice].push_hits += 1;
        }
        let h = record_line(
            &mut self.lines,
            line,
            at,
            LineEventKind::Hit {
                write,
                push_hit,
                gpu,
            },
        );
        if !gpu {
            return;
        }
        h.gpu_accesses += 1;
        if let Some(last) = h.last_gpu_access {
            self.reuse.record(at.saturating_sub(last));
        }
        h.last_gpu_access = Some(at);
        if let Some(open) = h.open.as_mut() {
            if !open.touched {
                open.touched = true;
                h.useful += 1;
                self.push_useful += 1;
                self.first_touch.record(at.saturating_sub(open.at));
                if write {
                    h.write_after_push += 1;
                    self.write_after_push += 1;
                }
            }
        }
    }

    /// A demand access missed `line` in `slice`.
    fn slice_miss(&mut self, slice: usize, line: u64, write: bool, gpu: bool, at: u64) {
        let _tax = crate::prof::span(crate::prof::HostPhase::TaxLens);
        self.slices[slice].misses += 1;
        let h = record_line(
            &mut self.lines,
            line,
            at,
            LineEventKind::Miss { write, gpu },
        );
        if gpu {
            h.gpu_accesses += 1;
            if let Some(last) = h.last_gpu_access {
                self.reuse.record(at.saturating_sub(last));
            }
            h.last_gpu_access = Some(at);
        }
    }

    /// `slice`'s copy of `line` was invalidated. A direct GETX killing
    /// an untouched push clobbers it (the CPU overwrote its own push
    /// before the GPU read it); one killing a consumed push is a
    /// ping-pong. Coherence probes kill untouched pushes dead.
    fn invalidate(&mut self, slice: usize, line: u64, direct: bool, at: u64) {
        let _tax = crate::prof::span(crate::prof::HostPhase::TaxLens);
        self.slices[slice].invalidations += 1;
        let h = record_line(
            &mut self.lines,
            line,
            at,
            LineEventKind::Invalidate { direct },
        );
        if let Some(open) = h.open.take() {
            if !open.touched {
                if direct {
                    h.clobbered += 1;
                    self.push_clobbered += 1;
                } else {
                    h.dead += 1;
                    self.push_dead += 1;
                }
            } else if direct {
                h.ping_pongs += 1;
                self.ping_pongs += 1;
            }
        }
    }

    /// `slice` evicted `line` to make room for another fill.
    fn evict(&mut self, slice: usize, line: u64, writeback: bool, at: u64) {
        let _tax = crate::prof::span(crate::prof::HostPhase::TaxLens);
        self.slices[slice].evictions += 1;
        if writeback {
            self.slices[slice].writebacks += 1;
        }
        let h = record_line(
            &mut self.lines,
            line,
            at,
            LineEventKind::Evict { writeback },
        );
        if let Some(open) = h.open.take() {
            if !open.touched {
                h.dead += 1;
                self.push_dead += 1;
            }
        }
    }

    /// One DRAM access was serviced by `bank`.
    fn dram_access(&mut self, bank: usize, write: bool, row_hit: bool) {
        let _tax = crate::prof::span(crate::prof::HostPhase::TaxLens);
        let b = &mut self.banks[bank];
        if write {
            b.writes += 1;
        } else {
            b.reads += 1;
        }
        if row_hit {
            b.row_hits += 1;
        }
    }

    /// One message traversed `net`'s `src → dst` link.
    fn net_msg(&mut self, net: NetId, src: u8, dst: u8, data: bool) {
        let _tax = crate::prof::span(crate::prof::HostPhase::TaxLens);
        let cell = self.links.entry((net, src, dst)).or_insert((0, 0));
        if data {
            cell.1 += 1;
        } else {
            cell.0 += 1;
        }
    }

    /// Closes every still-open push as dead: the run ended before the
    /// GPU touched it.
    fn close_open_pushes(&mut self) {
        let _tax = crate::prof::span(crate::prof::HostPhase::TaxLens);
        let mut dead = 0;
        for h in self.lines.values_mut() {
            if let Some(open) = h.open.take() {
                if !open.touched {
                    h.dead += 1;
                    dead += 1;
                }
            }
        }
        self.push_dead += dead;
    }

    /// The history of `line`, if the lens ever saw it.
    pub fn line_history(&self, line: u64) -> Option<&LineHistory> {
        self.lines.get(&line)
    }

    /// Iterates every tracked line (arbitrary order — sort before
    /// emitting anything user-visible).
    pub fn lines(&self) -> impl Iterator<Item = (u64, &LineHistory)> {
        self.lines.iter().map(|(&l, h)| (l, h))
    }

    /// Derives the bounded aggregate view.
    pub fn report(&self) -> LensReport {
        let mut links: Vec<LinkTraffic> = self
            .links
            .iter()
            .map(|(&(net, src, dst), &(control, data))| LinkTraffic {
                net,
                src,
                dst,
                control,
                data,
            })
            .collect();
        links.sort_by_key(|l| (net_order(l.net), l.src, l.dst));
        LensReport {
            push_useful: self.push_useful,
            push_dead: self.push_dead,
            push_clobbered: self.push_clobbered,
            push_bypasses: self.push_bypasses,
            push_degraded: self.push_degraded,
            write_after_push: self.write_after_push,
            ping_pongs: self.ping_pongs,
            lines_touched: self.lines.len() as u64,
            lines_pushed: self.lines.values().filter(|h| h.pushes > 0).count() as u64,
            first_touch: self.first_touch.clone(),
            reuse: self.reuse.clone(),
            slices: self.slices.clone(),
            banks: self.banks.clone(),
            links,
        }
    }
}

impl Tracer for LineLens {
    #[inline]
    fn record(&mut self, e: TraceEvent) {
        match (e.component, e.kind, e.line) {
            (Component::Cpu, TraceKind::CpuStore { push }, Some(line)) => {
                self.cpu_store(line, push, e.cycle)
            }
            (Component::GpuL2 { slice }, kind, Some(line)) => {
                let (slice, at) = (usize::from(slice), e.cycle);
                match kind {
                    TraceKind::Hit {
                        write,
                        push_hit,
                        gpu,
                    } => self.slice_hit(slice, line, write, push_hit, gpu, at),
                    TraceKind::Miss { write, gpu, .. } => {
                        self.slice_miss(slice, line, write, gpu, at)
                    }
                    TraceKind::DemandFill => self.demand_fill(slice, line, at),
                    TraceKind::PushFill => self.push_fill(slice, line, at),
                    TraceKind::PushBypass => self.push_bypass(slice, line, at),
                    TraceKind::PushOverwrite => self.invalidate(slice, line, true, at),
                    TraceKind::ProbeInvalidate => self.invalidate(slice, line, false, at),
                    TraceKind::Evict { writeback } => self.evict(slice, line, writeback, at),
                    _ => {}
                }
            }
            (Component::DramBank { bank }, TraceKind::DramAccess { write, row_hit, .. }, _) => {
                self.dram_access(usize::from(bank), write, row_hit)
            }
            (Component::Net { net }, TraceKind::NetMsg { src, dst, data, .. }, _) => {
                self.net_msg(net, src, dst, data)
            }
            (_, TraceKind::PushDegraded, _) => self.push_degraded(),
            _ => {}
        }
    }

    fn finish(&mut self) {
        self.close_open_pushes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lens() -> LineLens {
        LineLens::new(4, 8)
    }

    #[test]
    fn useful_push_samples_first_touch() {
        let mut l = lens();
        l.push_fill(0, 8, 100);
        l.slice_hit(0, 8, false, true, true, 140);
        l.finish();
        let r = l.report();
        assert_eq!(
            (r.push_useful, r.push_dead, r.push_clobbered),
            (1, 0, 0),
            "touched before loss"
        );
        assert_eq!(r.first_touch.samples(), 1);
        assert_eq!(r.first_touch.sum(), 40);
        assert_eq!(r.write_after_push, 0);
        assert_eq!((r.lines_touched, r.lines_pushed), (1, 1));
    }

    #[test]
    fn evicted_untouched_push_is_dead() {
        let mut l = lens();
        l.push_fill(1, 5, 10);
        l.evict(1, 5, true, 50);
        let r = l.report();
        assert_eq!((r.push_useful, r.push_dead, r.push_clobbered), (0, 1, 0));
        assert_eq!(r.slices[1].evictions, 1);
        assert_eq!(r.slices[1].writebacks, 1);
        assert_eq!(r.first_touch.samples(), 0);
    }

    #[test]
    fn direct_invalidate_before_use_is_clobbered_after_use_is_ping_pong() {
        let mut l = lens();
        // Push, re-pushed before the GPU read it: clobbered.
        l.push_fill(0, 4, 10);
        l.invalidate(0, 4, true, 20); // the new push's GETX
        l.push_fill(0, 4, 25);
        // GPU consumes the second push, CPU claims it back: ping-pong.
        l.slice_hit(0, 4, false, true, true, 40);
        l.invalidate(0, 4, true, 60);
        let r = l.report();
        assert_eq!((r.push_useful, r.push_dead, r.push_clobbered), (1, 0, 1));
        assert_eq!(r.ping_pongs, 1);
        assert_eq!(r.push_total(), 2);
        assert_eq!(r.slices[0].push_fills, 2);
        assert_eq!(r.slices[0].invalidations, 2);
    }

    #[test]
    fn probe_invalidate_untouched_is_dead_not_clobbered() {
        let mut l = lens();
        l.push_fill(0, 4, 10);
        l.invalidate(0, 4, false, 20);
        let r = l.report();
        assert_eq!((r.push_useful, r.push_dead, r.push_clobbered), (0, 1, 0));
    }

    #[test]
    fn demand_fill_over_open_push_kills_it() {
        let mut l = lens();
        l.push_fill(2, 6, 10);
        l.demand_fill(2, 6, 30); // stale demand miss outran the push
        let r = l.report();
        assert_eq!((r.push_useful, r.push_dead, r.push_clobbered), (0, 1, 0));
        assert_eq!(r.slices[2].demand_fills, 1);
    }

    #[test]
    fn unread_push_dies_at_finalize_and_partition_reconciles() {
        let mut l = lens();
        l.push_fill(0, 1, 10);
        l.push_fill(0, 9, 12); // different line, never touched
        l.slice_hit(0, 1, true, true, true, 30); // store first touch
        l.finish();
        let r = l.report();
        assert_eq!((r.push_useful, r.push_dead, r.push_clobbered), (1, 1, 0));
        assert_eq!(r.write_after_push, 1, "first touch was a store");
        let pushes: u64 = r.slices.iter().map(|s| s.push_fills).sum();
        assert_eq!(r.push_total(), pushes);
    }

    #[test]
    fn reuse_distance_spans_consecutive_gpu_accesses_only() {
        let mut l = lens();
        l.demand_fill(0, 8, 5);
        l.slice_hit(0, 8, false, false, true, 10);
        l.slice_hit(0, 8, false, false, false, 50); // CPU read-back: not reuse
        l.slice_hit(0, 8, false, false, true, 110);
        l.slice_miss(0, 8, false, true, 200);
        let r = l.report();
        assert_eq!(r.reuse.samples(), 2);
        assert_eq!(r.reuse.sum(), 100 + 90);
        let h = l.line_history(8).unwrap();
        assert_eq!(h.gpu_accesses, 3);
        assert_eq!(h.events.len(), 5);
    }

    #[test]
    fn bypass_counts_outside_the_partition() {
        let mut l = lens();
        l.push_bypass(3, 7, 10);
        l.push_fill(3, 7, 20);
        l.finish();
        let r = l.report();
        assert_eq!(r.push_bypasses, 1);
        assert_eq!(r.push_total(), 1, "bypass never opened an interval");
        assert_eq!(r.slices[3].push_bypasses, 1);
    }

    #[test]
    fn heatmaps_accumulate_and_links_sort() {
        let mut l = lens();
        l.dram_access(2, false, true);
        l.dram_access(2, true, false);
        l.dram_access(5, false, false);
        l.net_msg(NetId::GpuInternal, 1, 0, true);
        l.net_msg(NetId::Coherence, 0, 5, false);
        l.net_msg(NetId::Coherence, 0, 5, true);
        l.net_msg(NetId::Direct, 0, 2, false);
        let r = l.report();
        assert_eq!(
            r.banks[2],
            BankTraffic {
                reads: 1,
                writes: 1,
                row_hits: 1
            }
        );
        assert_eq!(r.banks[5].reads, 1);
        let order: Vec<NetId> = r.links.iter().map(|l| l.net).collect();
        assert_eq!(
            order,
            vec![NetId::Coherence, NetId::Direct, NetId::GpuInternal]
        );
        assert_eq!(r.net_sums(NetId::Coherence), (1, 1));
        assert_eq!(r.net_sums(NetId::Direct), (1, 0));
        assert_eq!(r.net_sums(NetId::GpuInternal), (0, 1));
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = LensReport::empty();
        assert_eq!(r.push_total(), 0);
        assert!(r.slices.is_empty() && r.banks.is_empty() && r.links.is_empty());
        assert_eq!(r.first_touch.name(), LensReport::FIRST_TOUCH);
        assert_eq!(r.reuse.name(), LensReport::REUSE);
    }
}
