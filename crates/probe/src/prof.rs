//! Host-time self-profiling: where does the wall-clock go?
//!
//! Every other layer in this crate observes *simulated* time; this
//! module observes *host* time, so the event loop can be optimized
//! from measurement rather than guesswork (ROADMAP item 1) and the
//! cost of the always-on instrumentation — the "observability tax" —
//! is itself a first-class, reported number.
//!
//! The design is a scoped span profiler with thread-local
//! accumulators:
//!
//! - [`span`] returns a guard; the interval between construction and
//!   drop is attributed to one [`HostPhase`]. Spans nest: a child's
//!   total time is subtracted from its parent, so per-phase numbers
//!   are *self* (exclusive) time and their sum can never exceed the
//!   run's wall-clock.
//! - When profiling is disabled (the default), [`span`] is one
//!   relaxed atomic load and a branch — no clock read, no
//!   thread-local touch — so the simulator's default speed is
//!   unaffected.
//! - All state is thread-local. A simulation runs to completion on
//!   one thread (the runner's parallelism is across tasks, not within
//!   one), so [`run_start`]/[`take_profile`] bracket one run with no
//!   cross-thread synchronization at all.
//!
//! Host profiling never feeds back into simulated timing: enabling it
//! cannot change a single simulated cycle, only measure where the
//! host spends its own.
//!
//! The module also owns the runtime [`ProbeLevel`] switch that lets
//! `ds run`/`ds serve` shed the optional observability layers
//! (`LineLens`, `StageTracker`) without recompiling.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::time::Instant;

/// One host-time bucket. The first seven are the simulator's hot
/// phases; the `Tax*` buckets isolate the cost of each observability
/// hook so the tax is measured, not estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostPhase {
    /// Popping the next event off the event queue.
    EventPop,
    /// Scheduling an event into the queue.
    EventPush,
    /// Cache tag/array lookups (CPU L2 access, GPU L2 slice demand).
    CacheLookup,
    /// Hammer protocol message handling at hub, CPU L2 and slices.
    Protocol,
    /// The direct-store push path (store-buffer drain, PutX at the
    /// slice, ack at the CPU, retry timeouts).
    PushPath,
    /// NoC send paths across all three networks.
    NocTick,
    /// DRAM bank timing (queue + service computation).
    DramTick,
    /// Observability tax: the `StageTracker` fold.
    TaxStages,
    /// Observability tax: the `LineLens` fold's per-line recording.
    TaxLens,
    /// Observability tax: the latency fold's histogram updates.
    TaxHistograms,
    /// Observability tax: pulse window sampling (snapshot + close +
    /// anomaly detection; the epoch series is a derived view over the
    /// same windows). The serialized name stays `tax_epochs` so stored
    /// host profiles keep parsing.
    TaxEpochs,
}

impl HostPhase {
    /// Every phase, hot path first, in canonical serialization order.
    pub const ALL: [HostPhase; 11] = [
        HostPhase::EventPop,
        HostPhase::EventPush,
        HostPhase::CacheLookup,
        HostPhase::Protocol,
        HostPhase::PushPath,
        HostPhase::NocTick,
        HostPhase::DramTick,
        HostPhase::TaxStages,
        HostPhase::TaxLens,
        HostPhase::TaxHistograms,
        HostPhase::TaxEpochs,
    ];

    /// Number of phases ([`HostPhase::ALL`] length).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable lower-case name used in serialized forms.
    pub fn name(self) -> &'static str {
        match self {
            HostPhase::EventPop => "event_pop",
            HostPhase::EventPush => "event_push",
            HostPhase::CacheLookup => "cache_lookup",
            HostPhase::Protocol => "protocol",
            HostPhase::PushPath => "push_path",
            HostPhase::NocTick => "noc_tick",
            HostPhase::DramTick => "dram_tick",
            HostPhase::TaxStages => "tax_stages",
            HostPhase::TaxLens => "tax_lens",
            HostPhase::TaxHistograms => "tax_histograms",
            HostPhase::TaxEpochs => "tax_epochs",
        }
    }

    /// Position in [`HostPhase::ALL`] (declaration order, so the
    /// discriminant is the index).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether this bucket measures observability overhead rather
    /// than simulator work.
    pub fn is_tax(self) -> bool {
        matches!(
            self,
            HostPhase::TaxStages
                | HostPhase::TaxLens
                | HostPhase::TaxHistograms
                | HostPhase::TaxEpochs
        )
    }

    /// Looks a phase up by its serialized [`HostPhase::name`].
    pub fn from_name(name: &str) -> Option<HostPhase> {
        Self::ALL.iter().copied().find(|p| p.name() == name)
    }
}

/// Runtime switch for the optional observability layers: the level
/// chooses which folds a system's [`crate::Probes`] fan-out holds.
/// Ordered: each level collects strictly more than the one below it.
/// The latency histograms are part of the reported results and stay on
/// at every level; only *simulated-cycle* outputs are level-invariant
/// (bit-identical), observability aggregates (stages, lens) are empty
/// at levels that shed them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProbeLevel {
    /// Sheds both `StageTracker` and `LineLens` collection.
    Minimal = 0,
    /// Sheds `LineLens`; keeps per-transaction stage accounting.
    Stages = 1,
    /// Everything on (the default).
    Full = 2,
}

impl ProbeLevel {
    /// All levels, cheapest first.
    pub const ALL: [ProbeLevel; 3] = [ProbeLevel::Minimal, ProbeLevel::Stages, ProbeLevel::Full];

    /// Stable lower-case name (the `--probe-level` operand).
    pub fn name(self) -> &'static str {
        match self {
            ProbeLevel::Minimal => "minimal",
            ProbeLevel::Stages => "stages",
            ProbeLevel::Full => "full",
        }
    }

    /// Parses a `--probe-level` operand.
    pub fn parse(s: &str) -> Option<ProbeLevel> {
        Self::ALL.iter().copied().find(|l| l.name() == s)
    }

    fn from_u8(v: u8) -> ProbeLevel {
        match v {
            0 => ProbeLevel::Minimal,
            1 => ProbeLevel::Stages,
            _ => ProbeLevel::Full,
        }
    }
}

impl fmt::Display for ProbeLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Master switch for host profiling (process-global; off by default).
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Process-global probe level (default [`ProbeLevel::Full`]).
static LEVEL: AtomicU8 = AtomicU8::new(ProbeLevel::Full as u8);

/// Turns host profiling on or off process-wide. Flip only between
/// runs: a span opened while enabled must drop while still enabled
/// to be counted (toggling mid-run loses, never corrupts, samples).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether host profiling is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the process-global probe level. Systems read it once at
/// construction; changing it never affects a run already built.
pub fn set_level(level: ProbeLevel) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The process-global probe level.
pub fn level() -> ProbeLevel {
    ProbeLevel::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Per-thread accumulator state.
struct ProfState {
    /// Exclusive (self) nanoseconds per phase.
    self_nanos: [u64; HostPhase::COUNT],
    /// Span count per phase.
    counts: [u64; HostPhase::COUNT],
    /// Open spans: `(phase index, child nanos so far)`.
    stack: Vec<(usize, u64)>,
    /// Wall-clock anchor stamped by [`run_start`].
    run_started: Option<Instant>,
}

impl ProfState {
    const fn new() -> Self {
        ProfState {
            self_nanos: [0; HostPhase::COUNT],
            counts: [0; HostPhase::COUNT],
            stack: Vec::new(),
            run_started: None,
        }
    }
}

thread_local! {
    static STATE: RefCell<ProfState> = const { RefCell::new(ProfState::new()) };
}

/// An open span; dropping it attributes the elapsed interval to the
/// phase given to [`span`]. Nested spans subtract their total from
/// the parent's self time.
#[must_use = "a span measures the interval until it is dropped"]
pub struct Span {
    /// `None` when profiling is disabled — the guard is then inert
    /// and construction never read the clock.
    start: Option<Instant>,
}

/// Opens a span over `phase`. When profiling is disabled this is one
/// relaxed load and a branch.
#[inline]
pub fn span(phase: HostPhase) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span { start: None };
    }
    STATE.with(|s| s.borrow_mut().stack.push((phase.index(), 0)));
    Span {
        start: Some(Instant::now()),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let total = start.elapsed().as_nanos() as u64;
        STATE.with(|s| {
            let mut st = s.borrow_mut();
            // The stack can only be empty if `run_start` reset state
            // while this span was open (a misuse); drop the sample.
            let Some((idx, child)) = st.stack.pop() else {
                return;
            };
            st.self_nanos[idx] += total.saturating_sub(child);
            st.counts[idx] += 1;
            if let Some(parent) = st.stack.last_mut() {
                parent.1 += total;
            }
        });
    }
}

/// Resets this thread's accumulators and stamps the wall-clock
/// anchor. Call at the top of each simulation run.
pub fn run_start() {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        *st = ProfState::new();
        st.run_started = Some(Instant::now());
    });
}

/// Harvests this thread's profile since [`run_start`], resetting the
/// accumulators. Wall-clock is measured here, so call it as the last
/// step of the run being measured.
pub fn take_profile() -> HostProfile {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let wall_nanos = st
            .run_started
            .map(|t| t.elapsed().as_nanos() as u64)
            .unwrap_or(0);
        let profile = HostProfile {
            wall_nanos,
            self_nanos: st.self_nanos,
            counts: st.counts,
        };
        *st = ProfState::new();
        profile
    })
}

/// One run's host-time profile: wall-clock plus per-phase exclusive
/// time and span counts, indexed by [`HostPhase::index`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostProfile {
    /// Wall-clock nanoseconds between [`run_start`] and
    /// [`take_profile`].
    pub wall_nanos: u64,
    /// Exclusive (self) nanoseconds per phase.
    pub self_nanos: [u64; HostPhase::COUNT],
    /// Number of spans per phase.
    pub counts: [u64; HostPhase::COUNT],
}

impl HostProfile {
    /// Self nanoseconds attributed to `phase`.
    pub fn phase_nanos(&self, phase: HostPhase) -> u64 {
        self.self_nanos[phase.index()]
    }

    /// Span count for `phase`.
    pub fn phase_count(&self, phase: HostPhase) -> u64 {
        self.counts[phase.index()]
    }

    /// Sum of self time over every phase. By construction (nesting
    /// subtracts child time) this can never exceed the wall-clock on
    /// a correctly bracketed run.
    pub fn total_self_nanos(&self) -> u64 {
        self.self_nanos.iter().sum()
    }

    /// Sum of self time over the `Tax*` buckets — the observability
    /// tax.
    pub fn tax_nanos(&self) -> u64 {
        HostPhase::ALL
            .iter()
            .filter(|p| p.is_tax())
            .map(|&p| self.phase_nanos(p))
            .sum()
    }

    /// Wall-clock not attributed to any span (dispatch plumbing,
    /// allocation, everything unmeasured).
    pub fn untracked_nanos(&self) -> u64 {
        self.wall_nanos.saturating_sub(self.total_self_nanos())
    }

    /// Folded-stack lines (`inferno` / speedscope collapsed format):
    /// one line per non-zero phase, tax buckets nested under a `tax`
    /// frame, plus an `untracked` frame so the stack sums to
    /// wall-clock.
    pub fn folded(&self) -> Vec<String> {
        let mut out = Vec::new();
        for p in HostPhase::ALL {
            let nanos = self.phase_nanos(p);
            if nanos == 0 {
                continue;
            }
            if p.is_tax() {
                out.push(format!("sim;tax;{} {}", p.name(), nanos));
            } else {
                out.push(format!("sim;{} {}", p.name(), nanos));
            }
        }
        let untracked = self.untracked_nanos();
        if untracked > 0 {
            out.push(format!("sim;untracked {untracked}"));
        }
        out
    }

    /// Validates the profile's internal invariants: per-phase sums
    /// must not exceed wall-clock, and no phase may have time without
    /// spans.
    ///
    /// # Errors
    ///
    /// A message naming the violated invariant.
    pub fn check(&self) -> Result<(), String> {
        let total = self.total_self_nanos();
        if total > self.wall_nanos {
            return Err(format!(
                "phase self-time sum {total} ns exceeds wall-clock {} ns",
                self.wall_nanos
            ));
        }
        for p in HostPhase::ALL {
            if self.phase_nanos(p) > 0 && self.phase_count(p) == 0 {
                return Err(format!("phase {} has time but zero spans", p.name()));
            }
        }
        Ok(())
    }

    /// Merges another profile into this one (summing wall-clock and
    /// every bucket) — aggregation across the runs of a catalog.
    pub fn merge(&mut self, other: &HostProfile) {
        self.wall_nanos += other.wall_nanos;
        for i in 0..HostPhase::COUNT {
            self.self_nanos[i] += other.self_nanos[i];
            self.counts[i] += other.counts[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_and_indices_are_consistent() {
        for (i, p) in HostPhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(HostPhase::from_name(p.name()), Some(*p));
        }
        assert_eq!(HostPhase::COUNT, 11);
        assert!(HostPhase::TaxLens.is_tax());
        assert!(!HostPhase::EventPop.is_tax());
    }

    #[test]
    fn probe_level_parses_and_orders() {
        assert_eq!(ProbeLevel::parse("full"), Some(ProbeLevel::Full));
        assert_eq!(ProbeLevel::parse("stages"), Some(ProbeLevel::Stages));
        assert_eq!(ProbeLevel::parse("minimal"), Some(ProbeLevel::Minimal));
        assert_eq!(ProbeLevel::parse("FULL"), None);
        assert!(ProbeLevel::Minimal < ProbeLevel::Stages);
        assert!(ProbeLevel::Stages < ProbeLevel::Full);
        assert_eq!(ProbeLevel::Full.to_string(), "full");
    }

    #[test]
    fn disabled_spans_record_nothing() {
        // Profiling is off by default; state must stay untouched so
        // the default-path cost is just the branch.
        run_start();
        {
            let _s = span(HostPhase::EventPop);
        }
        let p = take_profile();
        assert_eq!(p.total_self_nanos(), 0);
        assert_eq!(p.phase_count(HostPhase::EventPop), 0);
    }

    #[test]
    fn nested_spans_attribute_self_time() {
        set_enabled(true);
        run_start();
        {
            let _outer = span(HostPhase::Protocol);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span(HostPhase::TaxLens);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let p = take_profile();
        set_enabled(false);
        assert_eq!(p.phase_count(HostPhase::Protocol), 1);
        assert_eq!(p.phase_count(HostPhase::TaxLens), 1);
        assert!(p.phase_nanos(HostPhase::Protocol) > 0);
        assert!(p.phase_nanos(HostPhase::TaxLens) > 0);
        // Self-time: the parent must not also carry the child's time.
        // Sleeps are 2ms each; parent self must be well under the
        // combined 4ms.
        assert!(p.phase_nanos(HostPhase::Protocol) < 3_500_000);
        p.check().expect("invariants hold");
        assert!(p.total_self_nanos() <= p.wall_nanos);
    }

    #[test]
    fn folded_output_sums_to_wall() {
        let mut p = HostProfile {
            wall_nanos: 100,
            ..HostProfile::default()
        };
        p.self_nanos[HostPhase::EventPop.index()] = 40;
        p.counts[HostPhase::EventPop.index()] = 4;
        p.self_nanos[HostPhase::TaxStages.index()] = 10;
        p.counts[HostPhase::TaxStages.index()] = 1;
        let folded = p.folded();
        assert_eq!(
            folded,
            vec![
                "sim;event_pop 40".to_string(),
                "sim;tax;tax_stages 10".to_string(),
                "sim;untracked 50".to_string(),
            ]
        );
        let sum: u64 = folded
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(sum, p.wall_nanos);
    }

    #[test]
    fn check_flags_violations() {
        let mut p = HostProfile {
            wall_nanos: 10,
            ..HostProfile::default()
        };
        p.self_nanos[0] = 20;
        p.counts[0] = 1;
        assert!(p.check().is_err());
        p.wall_nanos = 30;
        p.counts[0] = 0;
        assert!(p.check().is_err());
        p.counts[0] = 1;
        assert!(p.check().is_ok());
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = HostProfile {
            wall_nanos: 5,
            ..HostProfile::default()
        };
        a.self_nanos[1] = 3;
        a.counts[1] = 2;
        let mut b = HostProfile {
            wall_nanos: 7,
            ..HostProfile::default()
        };
        b.self_nanos[1] = 4;
        b.counts[1] = 1;
        a.merge(&b);
        assert_eq!(a.wall_nanos, 12);
        assert_eq!(a.self_nanos[1], 7);
        assert_eq!(a.counts[1], 3);
    }
}
