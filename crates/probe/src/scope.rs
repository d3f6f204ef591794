//! ds-scope: correlated span tracing and the crash flight recorder.
//!
//! Every layer of the stack is observable on its own — trace events,
//! stage accounting, host profiling, service metrics — but nothing
//! connects an HTTP request to the served task it spawned or the
//! simulated transactions that task produced. This module supplies the
//! connective tissue:
//!
//! * **spans** — [`SpanRecord`]s with explicit parent/child IDs cover
//!   `request → job → task → (queue-wait | store-lookup | sim-run)`;
//!   `ds-serve` streams each served task's closed spans and returns
//!   them with its result, and `ds scope` reads them back as a
//!   [`SpanTree`] down to the `StageBreakdown` the sim-run span links
//!   to;
//! * **telescoping checks** — [`SpanTree::check`] proves a child span
//!   never leaves its parent's interval and sibling durations sum to
//!   at most the parent's, and [`SpanTree::reconcile`] splits a task
//!   span into queue + store + sim + overhead that reconciles exactly
//!   against its wall-clock;
//! * **a flight recorder** — [`FlightRecorder`] is a [`Tracer`] that
//!   keeps only the most recent trace events in a fixed ring, cheap
//!   enough to leave armed on fault-injected runs so a watchdog abort
//!   or panic can ship a postmortem of the simulation's last moments.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::{TraceEvent, Tracer};

/// Process-global span-id allocator. IDs are unique within a process;
/// 0 is reserved to mean "no parent".
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique span id (never 0).
pub fn next_span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// What a span covers in the request → simulation causal chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One HTTP request, from parse to response.
    Request,
    /// One submitted job (a batch of tasks).
    Job,
    /// One served task (a single simulation's lifecycle).
    Task,
    /// Time a task sat queued before a worker picked it up.
    QueueWait,
    /// Time spent in the shared result store (lookup, coalesced wait,
    /// memoization) around the simulation itself.
    StoreLookup,
    /// The simulation run proper. Links down to the report's
    /// [`StageBreakdown`](crate::StageBreakdown) transaction records.
    SimRun,
}

impl SpanKind {
    /// Every kind, in causal order.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Request,
        SpanKind::Job,
        SpanKind::Task,
        SpanKind::QueueWait,
        SpanKind::StoreLookup,
        SpanKind::SimRun,
    ];

    /// Stable lower-case name used by the JSON codecs and event
    /// streams.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Job => "job",
            SpanKind::Task => "task",
            SpanKind::QueueWait => "queue-wait",
            SpanKind::StoreLookup => "store-lookup",
            SpanKind::SimRun => "sim-run",
        }
    }

    /// Parses a [`SpanKind::name`] back.
    pub fn parse(name: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One closed span: an interval in a shared microsecond timeline with
/// an explicit parent link (`parent == 0` marks a root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique id (never 0).
    pub id: u64,
    /// Parent span id, or 0 for a root span.
    pub parent: u64,
    /// What the span covers.
    pub kind: SpanKind,
    /// Human-readable label ("VA small DS", "POST /jobs", ...).
    pub label: String,
    /// Interval start, microseconds in the owning timeline.
    pub start_us: u64,
    /// Interval end, microseconds; always `>= start_us`.
    pub end_us: u64,
}

impl SpanRecord {
    /// The span's duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// The queue + store + sim + overhead split of one task span. By
/// construction the four buckets sum exactly to the task's wall-clock
/// (`total_us`), which is what [`SpanTree::reconcile`] asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Reconciliation {
    /// Queue-wait child time.
    pub queue_us: u64,
    /// Store-lookup child time.
    pub store_us: u64,
    /// Sim-run child time.
    pub sim_us: u64,
    /// Task time not covered by any child span.
    pub overhead_us: u64,
    /// The task span's wall-clock duration.
    pub total_us: u64,
}

/// A set of closed spans forming one causal tree (or forest).
///
/// Parents must appear before their children, which both rules out
/// cycles and keeps rendering a single forward pass.
///
/// ```
/// use ds_probe::scope::{SpanKind, SpanRecord, SpanTree};
///
/// let tree = SpanTree {
///     spans: vec![
///         SpanRecord {
///             id: 1,
///             parent: 0,
///             kind: SpanKind::Task,
///             label: "VA small DS".into(),
///             start_us: 0,
///             end_us: 100,
///         },
///         SpanRecord {
///             id: 2,
///             parent: 1,
///             kind: SpanKind::QueueWait,
///             label: String::new(),
///             start_us: 0,
///             end_us: 10,
///         },
///         SpanRecord {
///             id: 3,
///             parent: 1,
///             kind: SpanKind::SimRun,
///             label: String::new(),
///             start_us: 10,
///             end_us: 100,
///         },
///     ],
/// };
/// tree.check().unwrap();
/// let r = tree.reconcile(1).unwrap();
/// assert_eq!((r.queue_us, r.sim_us, r.overhead_us, r.total_us), (10, 90, 0, 100));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanTree {
    /// The spans, parents before children.
    pub spans: Vec<SpanRecord>,
}

impl SpanTree {
    /// An empty tree.
    pub fn new() -> Self {
        SpanTree::default()
    }

    /// The first span with `kind`, if any.
    pub fn find(&self, kind: SpanKind) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.kind == kind)
    }

    /// The direct children of `parent`, in recorded order.
    pub fn children_of(&self, parent: u64) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.parent == parent)
    }

    /// Validates the telescoping invariants:
    ///
    /// * ids are nonzero and unique; parents are 0 or recorded
    ///   *before* the child (no cycles, no dangling links);
    /// * every interval is well-formed (`end >= start`);
    /// * a child's interval lies within its parent's;
    /// * per parent, sibling durations sum to at most the parent's
    ///   duration (child span time never exceeds its parent).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check(&self) -> Result<(), String> {
        let mut seen: Vec<u64> = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            if s.id == 0 {
                return Err(format!("span {:?} has reserved id 0", s.label));
            }
            if seen.contains(&s.id) {
                return Err(format!("duplicate span id {}", s.id));
            }
            if s.end_us < s.start_us {
                return Err(format!(
                    "span {} ({}) ends at {}us before it starts at {}us",
                    s.id,
                    s.kind.name(),
                    s.end_us,
                    s.start_us
                ));
            }
            if s.parent != 0 {
                let parent = match seen.contains(&s.parent) {
                    true => self.spans.iter().find(|p| p.id == s.parent).unwrap(),
                    false => {
                        return Err(format!(
                            "span {} ({}) links to parent {} not recorded before it",
                            s.id,
                            s.kind.name(),
                            s.parent
                        ))
                    }
                };
                if s.start_us < parent.start_us || s.end_us > parent.end_us {
                    return Err(format!(
                        "child span {} ({}) [{}..{}]us leaves parent {} ({}) [{}..{}]us",
                        s.id,
                        s.kind.name(),
                        s.start_us,
                        s.end_us,
                        parent.id,
                        parent.kind.name(),
                        parent.start_us,
                        parent.end_us
                    ));
                }
            }
            seen.push(s.id);
        }
        for parent in &self.spans {
            let child_sum: u64 = self
                .children_of(parent.id)
                .map(SpanRecord::duration_us)
                .sum();
            if child_sum > parent.duration_us() {
                return Err(format!(
                    "children of span {} ({}) sum to {}us, more than the parent's {}us",
                    parent.id,
                    parent.kind.name(),
                    child_sum,
                    parent.duration_us()
                ));
            }
        }
        Ok(())
    }

    /// Splits the task span `task_id` into queue + store + sim +
    /// overhead, reconciled exactly against its wall-clock. Returns
    /// `None` when `task_id` is not a task span of this tree.
    pub fn reconcile(&self, task_id: u64) -> Option<Reconciliation> {
        let task = self
            .spans
            .iter()
            .find(|s| s.id == task_id && s.kind == SpanKind::Task)?;
        let mut r = Reconciliation {
            total_us: task.duration_us(),
            ..Reconciliation::default()
        };
        for child in self.children_of(task_id) {
            match child.kind {
                SpanKind::QueueWait => r.queue_us += child.duration_us(),
                SpanKind::StoreLookup => r.store_us += child.duration_us(),
                SpanKind::SimRun => r.sim_us += child.duration_us(),
                _ => {}
            }
        }
        r.overhead_us = r
            .total_us
            .saturating_sub(r.queue_us + r.store_us + r.sim_us);
        Some(r)
    }

    /// Renders the tree as indented text, one span per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for root in self.spans.iter().filter(|s| s.parent == 0) {
            self.render_span(&mut out, root, 0);
        }
        out
    }

    fn render_span(&self, out: &mut String, span: &SpanRecord, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let label = if span.label.is_empty() {
            String::new()
        } else {
            format!(" {}", span.label)
        };
        out.push_str(&format!(
            "{}{} [{}..{}]us ({}us)\n",
            span.kind.name(),
            label,
            span.start_us,
            span.end_us,
            span.duration_us()
        ));
        for child in self.children_of(span.id) {
            self.render_span(out, child, depth + 1);
        }
    }
}

/// How many trace events the flight recorder retains.
pub const FLIGHT_CAPACITY: usize = 256;

/// A snapshot of the flight recorder: the retained tail of the event
/// stream plus how much history the ring dropped before it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightLog {
    /// Events that fell out of the ring.
    pub dropped: u64,
    /// The retained events, oldest first, cycle-stamped by the sim.
    pub entries: Vec<TraceEvent>,
}

#[derive(Debug, Default)]
struct FlightInner {
    entries: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A [`Tracer`] that keeps only the last [`FLIGHT_CAPACITY`] trace
/// events. The ring is shared (`Arc`), so a handle cloned *before* a
/// simulation is driven can be harvested even when the run itself
/// panics or is abandoned on timeout. Contents are sim-cycle-stamped
/// and therefore deterministic for a deterministic run — postmortem
/// dumps replay byte-identically across worker counts.
///
/// ```
/// use ds_probe::scope::{FlightRecorder, FLIGHT_CAPACITY};
/// use ds_probe::{Component, TraceEvent, TraceKind, Tracer};
///
/// let mut rec = FlightRecorder::new();
/// let keeper = rec.clone();
/// for cycle in 0..(FLIGHT_CAPACITY as u64 + 5) {
///     rec.record(TraceEvent {
///         cycle,
///         component: Component::Hub,
///         line: None,
///         kind: TraceKind::TlbMiss,
///     });
/// }
/// let log = keeper.snapshot();
/// assert_eq!(log.dropped, 5);
/// assert_eq!(log.entries.len(), FLIGHT_CAPACITY);
/// assert_eq!(log.entries.first().unwrap().cycle, 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Arc<Mutex<FlightInner>>,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    fn lock(&self) -> MutexGuard<'_, FlightInner> {
        // A panic mid-record cannot corrupt a ring of Copy events;
        // poisoning is exactly the case the recorder exists for.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Snapshots the ring: retained events oldest-first plus the count
    /// of older events the ring dropped.
    pub fn snapshot(&self) -> FlightLog {
        let inner = self.lock();
        FlightLog {
            dropped: inner.dropped,
            entries: inner.entries.iter().copied().collect(),
        }
    }
}

impl Tracer for FlightRecorder {
    fn record(&mut self, event: TraceEvent) {
        let mut inner = self.lock();
        if inner.entries.len() == FLIGHT_CAPACITY {
            inner.entries.pop_front();
            inner.dropped += 1;
        }
        inner.entries.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Component, TraceKind};

    fn span(id: u64, parent: u64, kind: SpanKind, start_us: u64, end_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            kind,
            label: String::new(),
            start_us,
            end_us,
        }
    }

    #[test]
    fn kinds_round_trip_their_names() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(SpanKind::parse("nope"), None);
    }

    #[test]
    fn check_accepts_a_telescoping_tree() {
        let tree = SpanTree {
            spans: vec![
                span(1, 0, SpanKind::Request, 0, 1000),
                span(2, 1, SpanKind::Job, 10, 990),
                span(3, 2, SpanKind::Task, 10, 980),
                span(4, 3, SpanKind::QueueWait, 10, 20),
                span(5, 3, SpanKind::StoreLookup, 20, 30),
                span(6, 3, SpanKind::SimRun, 30, 970),
            ],
        };
        tree.check().unwrap();
        let r = tree.reconcile(3).unwrap();
        assert_eq!(
            r.queue_us + r.store_us + r.sim_us + r.overhead_us,
            r.total_us
        );
        assert_eq!(r.overhead_us, 10);
    }

    #[test]
    fn check_rejects_escaping_children_and_oversums() {
        let escapes = SpanTree {
            spans: vec![
                span(1, 0, SpanKind::Task, 10, 100),
                span(2, 1, SpanKind::SimRun, 5, 90),
            ],
        };
        assert!(escapes.check().unwrap_err().contains("leaves parent"));

        let oversum = SpanTree {
            spans: vec![
                span(1, 0, SpanKind::Task, 0, 100),
                span(2, 1, SpanKind::QueueWait, 0, 60),
                span(3, 1, SpanKind::SimRun, 40, 100),
            ],
        };
        assert!(oversum.check().unwrap_err().contains("sum to"));
    }

    #[test]
    fn check_rejects_cycles_duplicates_and_bad_intervals() {
        let forward = SpanTree {
            spans: vec![span(1, 2, SpanKind::Task, 0, 10)],
        };
        assert!(forward.check().unwrap_err().contains("not recorded before"));

        let dup = SpanTree {
            spans: vec![
                span(1, 0, SpanKind::Task, 0, 10),
                span(1, 0, SpanKind::Task, 0, 10),
            ],
        };
        assert!(dup.check().unwrap_err().contains("duplicate"));

        let backwards = SpanTree {
            spans: vec![span(1, 0, SpanKind::Task, 10, 5)],
        };
        assert!(backwards.check().unwrap_err().contains("before it starts"));
    }

    #[test]
    fn recorder_survives_the_recording_thread_panicking() {
        let keeper = FlightRecorder::new();
        let mut handle = keeper.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            handle.record(TraceEvent {
                cycle: 42,
                component: Component::Hub,
                line: Some(7),
                kind: TraceKind::HubStart {
                    requester: Component::CpuL2,
                    write: true,
                },
            });
            panic!("sim blew up");
        }));
        assert!(result.is_err());
        let log = keeper.snapshot();
        assert_eq!(log.entries.len(), 1);
        assert_eq!(log.entries[0].cycle, 42);
    }

    #[test]
    fn span_ids_are_nonzero_and_unique() {
        let a = next_span_id();
        let b = next_span_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn render_indents_by_depth() {
        let tree = SpanTree {
            spans: vec![
                span(1, 0, SpanKind::Task, 0, 100),
                span(2, 1, SpanKind::SimRun, 0, 100),
            ],
        };
        let text = tree.render();
        assert!(text.contains("task [0..100]us"));
        assert!(text.contains("\n  sim-run"));
    }
}
