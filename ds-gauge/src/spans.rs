//! The benchmark's own span recorder.
//!
//! Every call the benchmark makes into a layer of the program can be
//! wrapped in a span: name, start, end, parent span and the task or
//! job it served. Spans are kept in memory and written out when the
//! run ends. A recorder that is off records nothing and reads no
//! clock, so the untraced run pays only for the timings its metrics
//! need.

use std::collections::BTreeMap;
use std::time::Instant;

use ds_runner::json::Json;

/// One finished span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run (recorders draw from disjoint ranges).
    pub id: u64,
    /// The enclosing span, or 0 at the root.
    pub parent: u64,
    /// `layer.call`, e.g. `core.run` or `serve.status`.
    pub name: &'static str,
    /// The task index or job id the span served.
    pub item: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; `stream` separates the id ranges of recorders that
    /// run on different threads and are merged later.
    pub fn new(on: bool, epoch: Instant, stream: u64) -> Recorder {
        Recorder {
            on,
            epoch,
            next_id: (stream << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// Reserves an id for a span whose children are recorded before it
    /// closes; 0 when the recorder is off.
    pub fn reserve(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span the caller timed itself under a reserved `id`.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        item: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            item,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        item: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let id = self.reserve();
        let start = Instant::now();
        let out = f();
        self.record(id, name, parent, item, start, Instant::now());
        out
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Moves `other`'s spans into this recorder.
    pub fn absorb(&mut self, other: &mut Recorder) {
        self.spans.append(&mut other.spans);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let doc = Json::Obj(vec![
                ("id".into(), Json::Int(s.id)),
                ("parent".into(), Json::Int(s.parent)),
                ("name".into(), Json::Str(s.name.into())),
                ("item".into(), Json::Int(s.item)),
                ("start_ns".into(), Json::Int(s.start_ns)),
                ("end_ns".into(), Json::Int(s.end_ns)),
            ]);
            out.push_str(&doc.compact());
            out.push('\n');
        }
        out
    }

    /// Per span name: count, total and self nanoseconds. A span's self
    /// time is its duration minus the time its children cover; the
    /// children of one span ran on its thread, one after another.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_nanos: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_nanos.entry(s.parent).or_default() += s.nanos();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            let covered = child_nanos.get(&s.id).copied().unwrap_or(0);
            t.count += 1;
            t.total_ns += s.nanos();
            t.self_ns += s.nanos().saturating_sub(covered);
        }
        out
    }
}

/// What [`Recorder::by_name`] sums per span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Their summed durations, ns.
    pub total_ns: u64,
    /// Their summed self times, ns.
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean duration in milliseconds (0 without spans).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut rec = Recorder::new(true, epoch, 0);
        let parent = rec.reserve();
        let child = rec.reserve();
        rec.record(child, "core.run", parent, 0, at(2), at(7));
        rec.record(parent, "task", 0, 0, at(0), at(10));
        let totals = rec.by_name();
        assert_eq!(totals["task"].self_ns, 5_000_000);
        assert_eq!(totals["core.run"].self_ns, 5_000_000);
        assert_eq!(totals["task"].total_ns, 10_000_000);
    }

    #[test]
    fn an_off_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false, Instant::now(), 0);
        assert_eq!(rec.reserve(), 0);
        assert_eq!(rec.time("x.y", 0, 0, || 7), 7);
        assert!(rec.spans().is_empty());
    }
}
