//! Per-transaction stage accounting: where each request's cycles go.
//!
//! A *transaction* is one tracked request — a GPU load (SM issue to
//! data back at the SM) or a CPU direct-store push (store-buffer
//! enqueue to PutX-Ack). The runtime reports each transaction's
//! hand-offs on the trace stream (`TxnBegin`, `StageMark`, `TxnDone`,
//! plus the hub events a coherence request passes through), and a
//! [`StageTracker`] folds them: it accrues the elapsed cycles into the
//! stage the transaction was *leaving*. Because each stage's interval
//! ends exactly where the next begins, the per-stage sums telescope:
//! for every completed transaction, the sum over stages equals the
//! end-to-end latency — cycle accounting with no residue.
//!
//! Like every fold, the tracker never feeds back into timing, so it
//! cannot perturb a simulation result.

use std::collections::HashMap;

use crate::prof::{self, HostPhase};
use crate::{Component, TraceEvent, TraceKind, Tracer};

/// Which request lifecycle a transaction (or stage) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnPath {
    /// A GPU load: SM issue to data arriving back at the SM.
    GpuLoad,
    /// A CPU direct-store push: enqueue to PutX acknowledgement.
    Push,
}

impl TxnPath {
    /// Stable lower-case name used by the sinks and reports.
    pub fn name(self) -> &'static str {
        match self {
            TxnPath::GpuLoad => "gpu_load",
            TxnPath::Push => "push",
        }
    }
}

/// One stage of a transaction's lifecycle. The first eleven belong to
/// the GPU load path, the last three to the direct-store push path;
/// a transaction only ever visits stages of its own path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// SM issue, TLB walk and L1 lookup (the whole latency for an L1
    /// hit).
    SmL1,
    /// Request crossing the GPU-internal NoC toward an L2 slice.
    GpuNocReq,
    /// Waiting in the slice's slot queue plus the tag lookup.
    SliceQueue,
    /// Stalled because the slice's MSHR file was full.
    MshrStall,
    /// Waiting on an MSHR as a secondary (merged) miss.
    MshrWait,
    /// Coherence request crossing the CPU-GPU crossbar to the hub.
    CohReq,
    /// At the hub/directory: conflict queueing, lookup and probes.
    HubDir,
    /// Queued at a DRAM bank behind earlier accesses.
    DramQueue,
    /// DRAM bank actively servicing (row activate + burst).
    DramService,
    /// Data response crossing back to the GPU L2 slice.
    RespNoc,
    /// Fill at the slice and data return to the issuing SM.
    SliceToSm,
    /// Sitting in the CPU store buffer awaiting drain.
    SbWait,
    /// GetX + PutX crossing the direct network, including slot-retry
    /// queueing at the target slice.
    DirectNoc,
    /// Slice processing the PutX and the acknowledgement hop back.
    DirectAck,
}

impl Stage {
    /// Every stage, load path first, in pipeline order. Array order is
    /// the canonical serialization order for breakdowns.
    pub const ALL: [Stage; 14] = [
        Stage::SmL1,
        Stage::GpuNocReq,
        Stage::SliceQueue,
        Stage::MshrStall,
        Stage::MshrWait,
        Stage::CohReq,
        Stage::HubDir,
        Stage::DramQueue,
        Stage::DramService,
        Stage::RespNoc,
        Stage::SliceToSm,
        Stage::SbWait,
        Stage::DirectNoc,
        Stage::DirectAck,
    ];

    /// Number of stages ([`Stage::ALL`] length).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable lower-case name used by the sinks and serialized forms.
    pub fn name(self) -> &'static str {
        match self {
            Stage::SmL1 => "sm_l1",
            Stage::GpuNocReq => "gpu_noc_req",
            Stage::SliceQueue => "slice_queue",
            Stage::MshrStall => "mshr_stall",
            Stage::MshrWait => "mshr_wait",
            Stage::CohReq => "coh_req",
            Stage::HubDir => "hub_dir",
            Stage::DramQueue => "dram_queue",
            Stage::DramService => "dram_service",
            Stage::RespNoc => "resp_noc",
            Stage::SliceToSm => "slice_to_sm",
            Stage::SbWait => "sb_wait",
            Stage::DirectNoc => "direct_noc",
            Stage::DirectAck => "direct_ack",
        }
    }

    /// Which lifecycle the stage belongs to.
    pub fn path(self) -> TxnPath {
        match self {
            Stage::SbWait | Stage::DirectNoc | Stage::DirectAck => TxnPath::Push,
            _ => TxnPath::GpuLoad,
        }
    }

    /// Position in [`Stage::ALL`], the canonical index for fixed-size
    /// per-stage arrays. `ALL` lists the variants in declaration
    /// order, so the discriminant is the index.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Aggregated cycle accounting over all completed transactions of a
/// run: per-stage cycle totals plus per-path counts and end-to-end
/// cycle sums. The per-path sums equal the sums of that path's stages
/// exactly (telescoping intervals, see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Total cycles accrued per stage, indexed by [`Stage::index`].
    pub cycles: [u64; Stage::COUNT],
    /// Completed GPU-load transactions.
    pub loads: u64,
    /// Summed end-to-end cycles of completed loads.
    pub load_cycles: u64,
    /// Completed direct-store push transactions.
    pub pushes: u64,
    /// Summed end-to-end cycles of completed pushes, counted from
    /// store-buffer *enqueue* (unlike `push_e2e`, which starts at
    /// drain).
    pub push_cycles: u64,
}

impl StageBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        StageBreakdown {
            cycles: [0; Stage::COUNT],
            loads: 0,
            load_cycles: 0,
            pushes: 0,
            push_cycles: 0,
        }
    }

    /// Cycles accrued in `stage`.
    pub fn stage_cycles(&self, stage: Stage) -> u64 {
        self.cycles[stage.index()]
    }

    /// Sum of stage cycles over one path. Equals `load_cycles` /
    /// `push_cycles` for any breakdown built from completed
    /// transactions only.
    pub fn path_stage_sum(&self, path: TxnPath) -> u64 {
        Stage::ALL
            .iter()
            .filter(|s| s.path() == path)
            .map(|&s| self.stage_cycles(s))
            .sum()
    }
}

impl Default for StageBreakdown {
    fn default() -> Self {
        Self::new()
    }
}

/// One stage-accounting step, read off the trace stream by
/// [`StageRouter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mark {
    /// `txn` began in `stage` at cycle `at`.
    Begin { txn: u64, stage: Stage, at: u64 },
    /// `txn` entered `stage` at cycle `at`.
    Advance { txn: u64, stage: Stage, at: u64 },
    /// `txn` completed at cycle `at`.
    Finish { txn: u64, at: u64 },
}

/// Reads stage [`Mark`]s off the trace stream, for the live
/// [`StageTracker`] and for [`crate::xray::Stitch`] alike.
///
/// `TxnBegin`, `StageMark` and `TxnDone` map one to one. The hub never
/// sees transaction ids, so a GPU load's time at the hub is derived
/// from the hub's own events, keyed by line:
///
/// * a [`Stage::CohReq`] mark names the requesting slice and line; the
///   `HubRequest` from that slice for that line claims the
///   transaction and moves it into [`Stage::HubDir`] (conflict
///   queueing counts as hub time);
/// * the request's `HubStart` makes it the line's open transaction;
/// * `HubDramRead` remembers the speculative read's timing, which is
///   attributed ([`Stage::DramQueue`], [`Stage::DramService`], back to
///   [`Stage::HubDir`]) only if the `HubGrant` says the data came from
///   memory — a probe reply can outrun the read;
/// * the `HubGrant` moves the transaction into [`Stage::RespNoc`], and
///   `HubDone` closes the line.
///
/// Determinism: the maps are only ever probed by key, never iterated.
#[derive(Debug, Clone, Default)]
pub(crate) struct StageRouter {
    /// Coherence requests in flight toward the hub: (requesting
    /// slice, line) → transaction. Keyed per requester so a CPU request
    /// for the same line never claims a GPU load.
    coh_req: HashMap<(Component, u64), u64>,
    /// Requests at the hub whose transaction has not opened yet
    /// (queued behind the line's open one), same key.
    at_hub: HashMap<(Component, u64), u64>,
    /// The stage transaction riding each line's open hub transaction.
    open: HashMap<u64, u64>,
    /// The open transaction's speculative DRAM read: line →
    /// (enqueue, service start, done).
    dram: HashMap<u64, (u64, u64, u64)>,
}

impl StageRouter {
    /// Whether `kind` can yield a mark or change routing state, so the
    /// tracker books its tax span only for events it routes.
    #[inline]
    pub(crate) fn routes(kind: &TraceKind) -> bool {
        matches!(
            kind,
            TraceKind::TxnBegin { .. }
                | TraceKind::StageMark { .. }
                | TraceKind::TxnDone { .. }
                | TraceKind::HubRequest { .. }
                | TraceKind::HubStart { .. }
                | TraceKind::HubDramRead { .. }
                | TraceKind::HubGrant { .. }
                | TraceKind::HubDone
        )
    }

    /// Passes every mark `e` implies to `mark`, in order.
    pub(crate) fn route(&mut self, e: &TraceEvent, mut mark: impl FnMut(Mark)) {
        let at = e.cycle;
        match (e.kind, e.line) {
            (TraceKind::TxnBegin { txn, stage }, _) => mark(Mark::Begin { txn, stage, at }),
            (TraceKind::StageMark { txn, stage }, line) => {
                if let (Stage::CohReq, Some(line)) = (stage, line) {
                    self.coh_req.insert((e.component, line), txn);
                }
                mark(Mark::Advance { txn, stage, at });
            }
            (TraceKind::TxnDone { txn }, _) => mark(Mark::Finish { txn, at }),
            (TraceKind::HubRequest { requester, .. }, Some(line)) => {
                if let Some(txn) = self.coh_req.remove(&(requester, line)) {
                    mark(Mark::Advance {
                        txn,
                        stage: Stage::HubDir,
                        at,
                    });
                    self.at_hub.insert((requester, line), txn);
                }
            }
            (TraceKind::HubStart { requester, .. }, Some(line)) => {
                match self.at_hub.remove(&(requester, line)) {
                    Some(txn) => self.open.insert(line, txn),
                    None => self.open.remove(&line),
                };
            }
            (TraceKind::HubDramRead { start, done }, Some(line)) => {
                self.dram.insert(line, (at, start, done));
            }
            (TraceKind::HubGrant { from_mem }, Some(line)) => {
                let Some(&txn) = self.open.get(&line) else {
                    return;
                };
                if from_mem {
                    if let Some((enqueued, start, done)) = self.dram.remove(&line) {
                        for (stage, at) in [
                            (Stage::DramQueue, enqueued),
                            (Stage::DramService, start),
                            (Stage::HubDir, done),
                        ] {
                            mark(Mark::Advance { txn, stage, at });
                        }
                    }
                }
                mark(Mark::Advance {
                    txn,
                    stage: Stage::RespNoc,
                    at,
                });
            }
            (TraceKind::HubDone, Some(line)) => {
                // A speculative read the transaction never consumed
                // stays unattributed.
                self.open.remove(&line);
                self.dram.remove(&line);
            }
            _ => {}
        }
    }
}

/// A transaction currently between its begin and finish.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    /// Stage the transaction is currently in.
    stage: Stage,
    /// Cycle it entered the current stage.
    entered: u64,
    /// Cycle the transaction began (entered its first stage).
    begun: u64,
}

/// The live side of stage accounting: a fold that tracks in-flight
/// transactions and folds each completed one into a
/// [`StageBreakdown`]. Marks for unknown transaction ids (never begun,
/// or already finished — a duplicated message under fault injection)
/// are ignored.
///
/// Determinism: the maps are only ever probed by key and aggregated
/// into fixed arrays — iteration order is never observed except in the
/// sorted [`StageTracker::inflight_census`] — so results are identical
/// regardless of hasher or insertion history.
#[derive(Debug, Clone, Default)]
pub struct StageTracker {
    router: StageRouter,
    inflight: HashMap<u64, Inflight>,
    breakdown: StageBreakdown,
}

impl StageTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// The aggregate so far (completed transactions only).
    pub fn breakdown(&self) -> &StageBreakdown {
        &self.breakdown
    }

    /// Number of transactions begun but not finished.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Snapshot of every in-flight transaction as `(txn, stage name,
    /// cycle it entered that stage)`, sorted by transaction id — the
    /// deterministic dump the protocol watchdog prints on abort.
    pub fn inflight_census(&self) -> Vec<(u64, &'static str, u64)> {
        let mut out: Vec<_> = self
            .inflight
            .iter()
            .map(|(&txn, f)| (txn, f.stage.name(), f.entered))
            .collect();
        out.sort_unstable_by_key(|&(txn, _, _)| txn);
        out
    }
}

impl Tracer for StageTracker {
    #[inline]
    fn record(&mut self, e: TraceEvent) {
        if !StageRouter::routes(&e.kind) {
            return;
        }
        let _tax = prof::span(HostPhase::TaxStages);
        self.router
            .route(&e, |m| accrue(&mut self.inflight, &mut self.breakdown, m));
    }
}

/// Applies one mark. `at` may lie in the future of the event that
/// carried it (hand-offs are often scheduled ahead); only a
/// transaction's own marks are ever compared, and those are
/// nondecreasing.
fn accrue(inflight: &mut HashMap<u64, Inflight>, breakdown: &mut StageBreakdown, m: Mark) {
    match m {
        Mark::Begin { txn, stage, at } => {
            inflight.insert(
                txn,
                Inflight {
                    stage,
                    entered: at,
                    begun: at,
                },
            );
        }
        Mark::Advance { txn, stage, at } => {
            if let Some(f) = inflight.get_mut(&txn) {
                breakdown.cycles[f.stage.index()] += at.saturating_sub(f.entered);
                f.stage = stage;
                f.entered = at;
            }
        }
        Mark::Finish { txn, at } => {
            if let Some(f) = inflight.remove(&txn) {
                breakdown.cycles[f.stage.index()] += at.saturating_sub(f.entered);
                let total = at.saturating_sub(f.begun);
                match f.stage.path() {
                    TxnPath::GpuLoad => {
                        breakdown.loads += 1;
                        breakdown.load_cycles += total;
                    }
                    TxnPath::Push => {
                        breakdown.pushes += 1;
                        breakdown.push_cycles += total;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn_event(cycle: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            cycle,
            component: Component::Txn,
            line: None,
            kind,
        }
    }

    fn begin(t: &mut StageTracker, txn: u64, stage: Stage, at: u64) {
        t.record(txn_event(at, TraceKind::TxnBegin { txn, stage }));
    }

    fn advance(t: &mut StageTracker, txn: u64, stage: Stage, at: u64) {
        t.record(txn_event(at, TraceKind::StageMark { txn, stage }));
    }

    fn finish(t: &mut StageTracker, txn: u64, at: u64) {
        t.record(txn_event(at, TraceKind::TxnDone { txn }));
    }

    fn hub(t: &mut StageTracker, at: u64, line: u64, kind: TraceKind) {
        t.record(TraceEvent {
            cycle: at,
            component: Component::Hub,
            line: Some(line),
            kind,
        });
    }

    #[test]
    fn stage_names_paths_and_indices_are_consistent() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert_eq!(Stage::SmL1.name(), "sm_l1");
        assert_eq!(Stage::SmL1.path(), TxnPath::GpuLoad);
        assert_eq!(Stage::SbWait.path(), TxnPath::Push);
        assert_eq!(Stage::COUNT, 14);
    }

    #[test]
    fn telescoping_sum_equals_end_to_end() {
        let mut t = StageTracker::new();
        begin(&mut t, 7, Stage::SmL1, 100);
        advance(&mut t, 7, Stage::GpuNocReq, 104);
        advance(&mut t, 7, Stage::SliceQueue, 110);
        advance(&mut t, 7, Stage::SliceToSm, 150);
        finish(&mut t, 7, 163);
        let b = t.breakdown();
        assert_eq!(b.stage_cycles(Stage::SmL1), 4);
        assert_eq!(b.stage_cycles(Stage::GpuNocReq), 6);
        assert_eq!(b.stage_cycles(Stage::SliceQueue), 40);
        assert_eq!(b.stage_cycles(Stage::SliceToSm), 13);
        assert_eq!(b.loads, 1);
        assert_eq!(b.load_cycles, 63);
        assert_eq!(b.path_stage_sum(TxnPath::GpuLoad), 63);
        assert_eq!(t.inflight(), 0);
    }

    #[test]
    fn unknown_and_revisited_transactions_are_safe() {
        let mut t = StageTracker::new();
        advance(&mut t, 99, Stage::HubDir, 10); // never begun: no-op
        finish(&mut t, 99, 20);
        assert_eq!(t.breakdown().loads, 0);

        // Re-entering a stage already visited accrues again.
        begin(&mut t, 1, Stage::SliceQueue, 0);
        advance(&mut t, 1, Stage::MshrStall, 5);
        advance(&mut t, 1, Stage::SliceQueue, 9);
        finish(&mut t, 1, 12);
        let b = t.breakdown().clone();
        assert_eq!(b.stage_cycles(Stage::SliceQueue), 5 + 3);
        assert_eq!(b.stage_cycles(Stage::MshrStall), 4);
        assert_eq!(b.load_cycles, 12);

        // A duplicated hand-off after completion changes nothing.
        advance(&mut t, 1, Stage::SliceToSm, 20);
        finish(&mut t, 1, 30);
        assert_eq!(t.breakdown(), &b);
    }

    #[test]
    fn push_path_counts_separately() {
        let mut t = StageTracker::new();
        begin(&mut t, 2, Stage::SbWait, 1000);
        advance(&mut t, 2, Stage::DirectNoc, 1020);
        advance(&mut t, 2, Stage::DirectAck, 1030);
        finish(&mut t, 2, 1036);
        let b = t.breakdown();
        assert_eq!(b.pushes, 1);
        assert_eq!(b.push_cycles, 36);
        assert_eq!(b.loads, 0);
        assert_eq!(b.path_stage_sum(TxnPath::Push), 36);
    }

    #[test]
    fn hub_events_route_a_coherence_request_through_its_stages() {
        let slice = Component::GpuL2 { slice: 1 };
        let (line, txn) = (40, 3);
        let mut t = StageTracker::new();
        begin(&mut t, txn, Stage::SmL1, 0);
        t.record(TraceEvent {
            cycle: 10,
            component: slice,
            line: Some(line),
            kind: TraceKind::StageMark {
                txn,
                stage: Stage::CohReq,
            },
        });
        // The CPU's request for the same line claims nothing.
        let cpu = Component::CpuL2;
        hub(
            &mut t,
            12,
            line,
            TraceKind::HubRequest {
                requester: cpu,
                write: true,
            },
        );
        hub(
            &mut t,
            12,
            line,
            TraceKind::HubStart {
                requester: cpu,
                write: true,
            },
        );
        hub(&mut t, 12, line, TraceKind::HubGrant { from_mem: false });
        // The slice's request queues behind the CPU's transaction.
        hub(
            &mut t,
            15,
            line,
            TraceKind::HubRequest {
                requester: slice,
                write: false,
            },
        );
        hub(&mut t, 30, line, TraceKind::HubDone);
        hub(
            &mut t,
            30,
            line,
            TraceKind::HubStart {
                requester: slice,
                write: false,
            },
        );
        hub(
            &mut t,
            30,
            line,
            TraceKind::HubDramRead {
                start: 34,
                done: 70,
            },
        );
        hub(&mut t, 72, line, TraceKind::HubGrant { from_mem: true });
        advance(&mut t, txn, Stage::SliceToSm, 90);
        finish(&mut t, txn, 100);
        let b = t.breakdown();
        assert_eq!(b.stage_cycles(Stage::CohReq), 5);
        assert_eq!(b.stage_cycles(Stage::HubDir), (30 - 15) + (72 - 70));
        assert_eq!(b.stage_cycles(Stage::DramQueue), 4);
        assert_eq!(b.stage_cycles(Stage::DramService), 36);
        assert_eq!(b.stage_cycles(Stage::RespNoc), 18);
        assert_eq!(b.load_cycles, 100);
        assert_eq!(b.path_stage_sum(TxnPath::GpuLoad), 100);
    }
}
