//! `ds-xray`: stitching trace events back into per-transaction
//! records.
//!
//! The runtime reports every lifecycle hand-off on the trace stream. This
//! module reads the same stage marks the live [`crate::StageTracker`]
//! folds — explicit `TxnBegin`/`StageMark`/`TxnDone` events plus the
//! hub events a coherence request passes through — and reassembles them
//! into [`TxnRecord`]s, one per completed transaction, with the ordered
//! `(stage, cycle)` marks. [`Stitch`] does so live, as a fold, so the
//! stream is never recorded. From the records come the
//! slowest-transaction critical paths `ds xray` prints and, through
//! [`TxnRecord::add_to`], an aggregate [`StageBreakdown`] that must
//! agree exactly with the one the live tracker accumulated (`ds check`
//! audits that on every run).

use std::collections::HashMap;

use crate::stage::{Mark, Stage, StageBreakdown, StageRouter, TxnPath};
use crate::{TraceEvent, Tracer};

/// One completed transaction reassembled from the trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRecord {
    /// Transaction id (allocation order within the run).
    pub txn: u64,
    /// Which lifecycle the transaction followed.
    pub path: TxnPath,
    /// `(stage, cycle entered)` marks in emission order. The first
    /// mark is the transaction's start.
    pub marks: Vec<(Stage, u64)>,
    /// Cycle the transaction completed.
    pub end: u64,
}

impl TxnRecord {
    /// End-to-end latency: completion minus the first mark.
    pub fn total(&self) -> u64 {
        self.marks
            .first()
            .map_or(0, |&(_, start)| self.end.saturating_sub(start))
    }

    /// Per-segment `(stage, cycles)` pairs: each mark's stage paired
    /// with the distance to the next mark (or to `end` for the last).
    pub fn segments(&self) -> Vec<(Stage, u64)> {
        let mut out = Vec::with_capacity(self.marks.len());
        for (i, &(stage, at)) in self.marks.iter().enumerate() {
            let next = self.marks.get(i + 1).map_or(self.end, |&(_, cycle)| cycle);
            out.push((stage, next.saturating_sub(at)));
        }
        out
    }

    /// Adds this transaction to `b`: each segment's cycles to its
    /// stage, and the end-to-end total to its path.
    pub fn add_to(&self, b: &mut StageBreakdown) {
        for (stage, cycles) in self.segments() {
            b.cycles[stage.index()] += cycles;
        }
        match self.path {
            TxnPath::GpuLoad => {
                b.loads += 1;
                b.load_cycles += self.total();
            }
            TxnPath::Push => {
                b.pushes += 1;
                b.push_cycles += self.total();
            }
        }
    }
}

/// The live stitcher: a fold that reassembles each transaction as its
/// marks stream past and hands it to `done` when its `TxnDone`
/// arrives, holding only the transactions still in flight. A run's
/// stream can be far too long to record (ST small emits 25.7 M
/// events); this fold stitches it in the memory of its open
/// transactions. As in the live tracker, marks for transactions that
/// never began or already completed are ignored, and transactions
/// still in flight when the stream ends are dropped.
pub struct Stitch<S> {
    router: StageRouter,
    open: HashMap<u64, Vec<(Stage, u64)>>,
    done: S,
}

/// Where a [`Stitch`] hands each completed transaction: a closure, or
/// a collector that owns what it gathers, so that a fold run on
/// another thread can be handed back and read ([`Stitch::into_sink`]).
pub trait TxnSink {
    /// Takes one completed transaction.
    fn take(&mut self, t: TxnRecord);
}

impl<F: FnMut(TxnRecord)> TxnSink for F {
    fn take(&mut self, t: TxnRecord) {
        self(t)
    }
}

impl<S: TxnSink> Stitch<S> {
    /// A fold that passes every completed transaction to `done`, in
    /// completion order.
    pub fn new(done: S) -> Self {
        Stitch {
            router: StageRouter::default(),
            open: HashMap::new(),
            done,
        }
    }

    /// The sink, with every transaction stitched so far.
    pub fn into_sink(self) -> S {
        self.done
    }
}

impl<S: TxnSink> Tracer for Stitch<S> {
    fn record(&mut self, e: TraceEvent) {
        if !StageRouter::routes(&e.kind) {
            return;
        }
        let (open, done) = (&mut self.open, &mut self.done);
        self.router.route(&e, |m| match m {
            Mark::Begin { txn, stage, at } => {
                open.insert(txn, vec![(stage, at)]);
            }
            Mark::Advance { txn, stage, at } => {
                if let Some(marks) = open.get_mut(&txn) {
                    marks.push((stage, at));
                }
            }
            Mark::Finish { txn, at } => {
                if let Some(marks) = open.remove(&txn) {
                    done.take(TxnRecord {
                        txn,
                        path: marks[0].0.path(),
                        marks,
                        end: at,
                    });
                }
            }
        });
    }
}

/// The `k` slowest records (by end-to-end latency, ties broken by
/// transaction id for determinism), slowest first.
pub fn slowest(records: &[TxnRecord], k: usize) -> Vec<&TxnRecord> {
    let mut refs: Vec<&TxnRecord> = records.iter().collect();
    refs.sort_by(|a, b| b.total().cmp(&a.total()).then(a.txn.cmp(&b.txn)));
    refs.truncate(k);
    refs
}

/// Latency at or above which a record is in the slowest 1% of `path`
/// transactions (the p99 tail), or `None` if the path has no records.
pub fn p99_threshold(records: &[TxnRecord], path: TxnPath) -> Option<u64> {
    let mut totals: Vec<u64> = records
        .iter()
        .filter(|r| r.path == path)
        .map(TxnRecord::total)
        .collect();
    if totals.is_empty() {
        return None;
    }
    totals.sort_unstable();
    let rank = ((totals.len() as f64) * 0.99).ceil() as usize;
    Some(totals[rank.clamp(1, totals.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Component, TraceKind};

    fn begin(cycle: u64, txn: u64, stage: Stage) -> TraceEvent {
        TraceEvent {
            cycle,
            component: Component::Txn,
            line: None,
            kind: TraceKind::TxnBegin { txn, stage },
        }
    }

    fn mark(cycle: u64, txn: u64, stage: Stage) -> TraceEvent {
        TraceEvent {
            cycle,
            component: Component::Txn,
            line: None,
            kind: TraceKind::StageMark { txn, stage },
        }
    }

    fn finish(cycle: u64, txn: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            component: Component::Txn,
            line: None,
            kind: TraceKind::TxnDone { txn },
        }
    }

    /// The records a [`Stitch`] hands over for `events`, in completion
    /// order.
    fn stitch(events: &[TraceEvent]) -> Vec<TxnRecord> {
        let mut records = Vec::new();
        let mut fold = Stitch::new(|r| records.push(r));
        events.iter().for_each(|&e| fold.record(e));
        drop(fold);
        records
    }

    #[test]
    fn stitch_reassembles_interleaved_transactions() {
        let events = vec![
            begin(10, 0, Stage::SmL1),
            begin(12, 1, Stage::SbWait),
            mark(14, 0, Stage::GpuNocReq),
            mark(20, 1, Stage::DirectNoc),
            finish(30, 0),
            mark(33, 1, Stage::DirectAck),
            finish(40, 1),
            begin(50, 2, Stage::SmL1),  // never completes: dropped
            mark(55, 9, Stage::HubDir), // never began: ignored
            finish(56, 9),
        ];
        let records = stitch(&events);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].txn, 0);
        assert_eq!(records[0].path, TxnPath::GpuLoad);
        assert_eq!(records[0].total(), 20);
        assert_eq!(
            records[0].segments(),
            vec![(Stage::SmL1, 4), (Stage::GpuNocReq, 16)]
        );
        assert_eq!(records[1].path, TxnPath::Push);
        assert_eq!(records[1].total(), 28);
    }

    #[test]
    fn records_add_up_by_hand_and_telescope() {
        let events = vec![
            begin(0, 0, Stage::SmL1),
            mark(7, 0, Stage::SliceToSm),
            finish(9, 0),
            begin(5, 1, Stage::SbWait),
            finish(11, 1),
        ];
        let mut b = StageBreakdown::new();
        for r in stitch(&events) {
            r.add_to(&mut b);
        }
        assert_eq!(b.stage_cycles(Stage::SmL1), 7);
        assert_eq!(b.stage_cycles(Stage::SliceToSm), 2);
        assert_eq!(b.stage_cycles(Stage::SbWait), 6);
        assert_eq!((b.loads, b.load_cycles), (1, 9));
        assert_eq!((b.pushes, b.push_cycles), (1, 6));
        assert_eq!(b.path_stage_sum(TxnPath::GpuLoad), b.load_cycles);
        assert_eq!(b.path_stage_sum(TxnPath::Push), b.push_cycles);
    }

    #[test]
    fn slowest_orders_by_latency_then_txn() {
        let events = vec![
            begin(0, 0, Stage::SmL1),
            finish(10, 0),
            begin(0, 1, Stage::SmL1),
            finish(30, 1),
            begin(5, 2, Stage::SmL1),
            finish(15, 2), // same latency as txn 0: id breaks the tie
        ];
        let records = stitch(&events);
        let top = slowest(&records, 2);
        assert_eq!(top[0].txn, 1);
        assert_eq!(top[1].txn, 0);
        assert_eq!(slowest(&records, 10).len(), 3);
    }

    #[test]
    fn p99_threshold_picks_the_tail() {
        let mut events = Vec::new();
        for i in 0..100u64 {
            events.push(begin(0, i, Stage::SmL1));
            events.push(finish(i + 1, i)); // latencies 1..=100
        }
        let records = stitch(&events);
        assert_eq!(p99_threshold(&records, TxnPath::GpuLoad), Some(99));
        assert_eq!(p99_threshold(&records, TxnPath::Push), None);
    }
}
