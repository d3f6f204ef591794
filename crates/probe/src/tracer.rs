//! The tracer trait and its two stock implementations.

use crate::TraceEvent;

/// A consumer of [`TraceEvent`]s.
///
/// The runtime reports every hand-off once, to a [`crate::Probes`]
/// fan-out that feeds the report's folds ([`crate::LatencyReport`],
/// [`crate::StageTracker`], [`crate::LineLens`], each itself a
/// `Tracer`) and the caller's tracer. The fan-out is generic over the
/// caller's tracer, so the choice is made at compile time: with
/// [`NullTracer`] (the default) the associated `ENABLED` constant is
/// `false` and forwarding to it is dead code the optimizer removes.
pub trait Tracer {
    /// Whether this tracer wants events at all. The fan-out checks
    /// this constant before forwarding, so a disabled tracer has no
    /// hot-path cost.
    const ENABLED: bool = true;

    /// Consumes one event.
    fn record(&mut self, event: TraceEvent);

    /// The run drained: no further events follow. Folds close the
    /// state still open (the lens, for instance, classifies pushes the
    /// GPU never read as dead). The default does nothing.
    fn finish(&mut self) {}
}

/// The zero-overhead default: discards everything at compile time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NullTracer;

impl Tracer for NullTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}
}

/// Collects every event in memory, in emission order, for the sinks.
///
/// ```
/// use ds_probe::{BufferTracer, Component, TraceEvent, TraceKind, Tracer};
///
/// let mut t = BufferTracer::new();
/// t.record(TraceEvent {
///     cycle: 7,
///     component: Component::Hub,
///     line: Some(3),
///     kind: TraceKind::HubStart { requester: Component::CpuL2, write: true },
/// });
/// assert_eq!(t.events().len(), 1);
/// assert_eq!(t.events()[0].cycle, 7);
/// ```
#[derive(Debug, Default, Clone)]
pub struct BufferTracer {
    events: Vec<TraceEvent>,
}

impl BufferTracer {
    /// An empty buffer.
    pub fn new() -> Self {
        BufferTracer::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the buffer, yielding the events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl Tracer for BufferTracer {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// A tracer that may be absent: `None` discards, like [`NullTracer`],
/// with one check per event.
impl<T: Tracer> Tracer for Option<T> {
    const ENABLED: bool = T::ENABLED;

    fn record(&mut self, event: TraceEvent) {
        if let Some(tracer) = self {
            tracer.record(event);
        }
    }

    fn finish(&mut self) {
        if let Some(tracer) = self {
            tracer.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Component, TraceKind};

    #[test]
    fn null_tracer_is_disabled_and_buffer_enabled() {
        fn enabled<T: Tracer>() -> bool {
            T::ENABLED
        }
        assert!(!enabled::<NullTracer>());
        assert!(enabled::<BufferTracer>());
        assert!(!enabled::<Option<NullTracer>>());
    }

    #[test]
    fn buffer_preserves_order_and_an_absent_tracer_discards() {
        let (mut t, mut absent) = (Some(BufferTracer::new()), None::<BufferTracer>);
        for cycle in [5, 1, 9] {
            let event = TraceEvent {
                cycle,
                component: Component::Cpu,
                line: None,
                kind: TraceKind::TlbMiss,
            };
            t.record(event);
            absent.record(event);
        }
        let events = t.expect("present").into_events();
        let cycles: Vec<u64> = events.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![5, 1, 9], "emission order, not sorted");
    }
}
