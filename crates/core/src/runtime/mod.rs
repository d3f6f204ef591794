//! The timed full-system model.
//!
//! [`System`] owns every component of the simulated chip and drives
//! them with a single deterministic event queue. The protocol logic is
//! delegated to `ds-coherence` (the transition table and the broadcast
//! [`Hub`]); this module is the *timed embedding*: it turns protocol
//! actions into network messages and DRAM accesses with latencies from
//! [`SystemConfig`].
//!
//! [`SystemConfig`]: crate::SystemConfig
//!
//! Submodules split the implementation by side: `cpu_side` (core,
//! TLB, store buffer, L1D/L2), `gpu_side` (SM dispatch, L1s, L2
//! slices) and `protocol` (coherence and direct-network message
//! handlers).

mod coh_cache;
mod cpu_side;
mod gpu_side;
mod protocol;

use std::collections::{HashMap, VecDeque};

use ds_cache::{CacheArray, CacheStats, ReplacementPolicy};
use ds_coherence::{Agent, CohMsg, DirectMsg, Hub, ProtocolChecker};
use ds_cpu::{AddressSpace, DirectWindow, Program, StoreBuffer, StoreEntry, Tlb};
use ds_gpu::{GpuL1, KernelTrace, L1Valid, Sm};
use ds_mem::{Dram, DramAccessInfo, LineAddr};
use ds_noc::Xbar;
use ds_probe::prof::{self, HostPhase};
use ds_probe::pulse::{ctr, gauge};
use ds_probe::{
    Component, LineLens, NullTracer, Probes, PulseConfig, PulseSampler, PulseTotals, Stage,
    TraceEvent, TraceKind, Tracer,
};
use ds_sim::{Cycle, EventQueue};

pub(crate) use coh_cache::CohCache;

use crate::fault::{FaultDomain, FaultPlan, FaultRoll, SimAbort, FAULT_DOMAINS};
use crate::{Mode, RunReport, SystemConfig};

/// Safety valve: a run issuing more events than this is assumed to be
/// livelocked (a protocol bug), far above any legitimate workload.
const EVENT_LIMIT: u64 = 2_000_000_000;

/// Who is waiting on an in-flight cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Waiter {
    /// The CPU core's blocking load.
    CpuLoad,
    /// The CPU store-buffer drain.
    CpuStoreDrain,
    /// A GPU warp's load.
    Gpu {
        /// SM index.
        sm: u32,
        /// Kernel-wide warp index.
        warp: u32,
        /// Cycle the SM issued the load (for load-to-use latency).
        issued: Cycle,
        /// Stage-accounting transaction id.
        txn: u64,
    },
    /// A GPU store (nothing to notify; permission upgrade may
    /// re-dispatch).
    GpuStore,
    /// A hardware prefetch (nothing to notify, no upgrade).
    Prefetch,
}

/// The system event vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Execute the CPU's next program operation.
    CpuAdvance,
    /// Attempt to drain the store-buffer head.
    SbDrain,
    /// A demand access (or MSHR-full retry) arrives at the CPU L2 with
    /// tag latency already elapsed.
    CpuL2Access { line: LineAddr, write: bool },
    /// A DS-only (non-coherent) DRAM fill for the CPU L2 completed.
    CpuL2MemDone { line: LineAddr },
    /// A coherence-network message arrives at `dst`.
    Coh { dst: Agent, msg: CohMsg },
    /// A direct-network message arrives at GPU L2 slice `slice`.
    /// `slotted` marks a retry holding a reserved service slot; `txn`
    /// is the stage-accounting transaction the message belongs to,
    /// when it carries a tracked push.
    DirectAtSlice {
        slice: u8,
        msg: DirectMsg,
        slotted: bool,
        txn: Option<u64>,
    },
    /// A direct-network message arrives back at the CPU.
    DirectAtCpu { msg: DirectMsg, txn: Option<u64> },
    /// The hub's speculative DRAM read completed for transaction `txn`.
    HubMemDone { line: LineAddr, txn: u64 },
    /// Give SM `sm` an issue opportunity.
    SmTick { sm: u32 },
    /// One memory response reached warp `warp` on SM `sm`. `issued`
    /// is the load's original issue cycle, `txn` its stage-accounting
    /// transaction.
    MemArrive {
        sm: u32,
        warp: u32,
        issued: Cycle,
        txn: u64,
    },
    /// A demand access arrives at GPU L2 slice `slice`. `slotted`
    /// marks a retry that already reserved the slice's service port.
    SliceDemand {
        slice: u8,
        line: LineAddr,
        write: bool,
        waiter: Waiter,
        slotted: bool,
    },
    /// A DS-only (non-coherent) DRAM fill for a slice completed.
    SliceMemDone { slice: u8, line: LineAddr },
    /// An uncached CPU read at a slice missed and its DRAM fill
    /// completed.
    DirectReadMemDone { slice: u8, line: LineAddr },
    /// Start the next queued kernel.
    KernelStart,
    /// The ack timeout for a tracked direct-store push fired
    /// (`attempt` is the attempt it guards; stale timeouts after an
    /// ack or a newer attempt are ignored). Only scheduled when the
    /// fault plan enables the retry protocol.
    PushTimeout { txn: u64, attempt: u32 },
}

/// What the CPU core is blocked on, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CpuBlock {
    None,
    /// Waiting for a load to return.
    Load,
    /// Waiting for the store buffer to drain one entry.
    SbFull,
    /// Waiting for all kernels to finish (`WaitGpu`).
    Gpu,
    /// Program finished; CPU idle.
    Finished,
}

#[derive(Debug)]
struct CpuExec {
    program: Program,
    pc: usize,
    block: CpuBlock,
}

/// Retry-protocol state for one in-flight (unacked) direct-store push.
#[derive(Debug, Clone, Copy)]
struct PushTrack {
    /// Line being pushed (needed to degrade or re-send).
    line: LineAddr,
    /// Current attempt, 0-based (attempt 0 is the original send).
    attempt: u32,
}

/// What the fault layer decided for one scheduled message delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// Deliver at the given cycle (the unfaulted arrival by default).
    Deliver(Cycle),
    /// Silently drop the message.
    Drop,
    /// Deliver twice: once on time, once late.
    Duplicate(Cycle, Cycle),
}

/// The full-system model. Construct with [`System::new`] (or
/// [`System::with_tracer`] for instrumented runs), execute with
/// [`System::run`]. See the crate-level example.
///
/// Every hand-off is reported once, as a [`TraceEvent`], to a
/// [`Probes`] fan-out: the report's latency, stage and lens folds (as
/// many as the process-wide [`ds_probe::ProbeLevel`] keeps) and then
/// the caller's [`Tracer`]. The default [`NullTracer`] has
/// `Tracer::ENABLED == false`, so forwarding to it compiles away. The
/// folds never feed back into timing, so they cannot change a
/// simulated result.
#[derive(Debug)]
pub struct System<T: Tracer = NullTracer> {
    cfg: SystemConfig,
    mode: Mode,
    queue: EventQueue<Ev>,
    now: Cycle,

    space: AddressSpace,

    // Instrumentation.
    /// The one observation sink: the report's folds and the caller's
    /// tracer.
    probes: Probes<T>,
    /// Cycle-domain time-series sampler (`None` = pulse off). The run
    /// loop checks `needs_sample` — one compare — per event and only
    /// snapshots counters when a window boundary was crossed.
    pulse: Option<PulseSampler>,
    /// Next stage-accounting transaction id.
    txn_seq: u64,
    /// Stage transactions of store-buffer entries, mirroring the
    /// buffer's FIFO order (`None` for untracked, non-push entries).
    sb_txns: VecDeque<Option<u64>>,

    // CPU side.
    cpu: CpuExec,
    tlb: Tlb,
    cpu_l1d: CacheArray<L1Valid>,
    cpu_l1_stats: CacheStats,
    sb: StoreBuffer,
    /// Draining stores, each with the cycle its drain began.
    inflight_stores: Vec<(StoreEntry, Cycle)>,
    cpu_l2: CohCache,
    cpu_l2_stalled: VecDeque<(LineAddr, bool)>,

    // GPU side.
    sms: Vec<Sm>,
    gpu_l1s: Vec<GpuL1>,
    gpu_tlbs: Vec<Tlb>,
    gpu_l2: Vec<CohCache>,
    gpu_l2_stalled: Vec<VecDeque<(LineAddr, bool, Waiter)>>,
    slice_port_free: Vec<Cycle>,
    kernels: Vec<KernelTrace>,
    kernel_queue: VecDeque<usize>,
    running_kernel: Option<usize>,
    warps_remaining: usize,
    last_issue: Vec<Cycle>,
    kernels_run: u64,
    warps_completed: u64,

    // Memory side.
    hub: Hub,
    dram: Dram,
    coh_net: Xbar,
    direct_net: Xbar,
    gpu_net: Xbar,
    direct_pushes: u64,
    push_overwrites: u64,
    push_bypasses: u64,
    first_kernel_start: Option<Cycle>,
    last_kernel_end: Cycle,
    kernel_spans: Vec<(Cycle, Cycle)>,

    // Fault injection and recovery (ds-chaos). All of this is inert —
    // zero extra events, zero counter changes — unless the plan is
    // active.
    faults: FaultPlan,
    /// Per-domain fault-decision sequence numbers.
    fault_seq: [u64; FAULT_DOMAINS],
    faults_injected: u64,
    pushes_attempted: u64,
    pushes_retried: u64,
    pushes_degraded: u64,
    /// Unacked pushes under the retry protocol: txn → track state.
    inflight_pushes: HashMap<u64, PushTrack>,
    /// Cumulative retries per line index (livelock detection).
    push_line_retries: HashMap<u64, u32>,
    /// Set by handlers (livelock trip) for the run loop to surface.
    abort: Option<SimAbort>,
}

impl System {
    /// Builds an idle, uninstrumented system (the [`NullTracer`]
    /// compiles all trace emission away).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SystemConfig::validate`].
    pub fn new(cfg: SystemConfig, mode: Mode) -> Self {
        Self::with_tracer(cfg, mode, NullTracer)
    }
}

impl<T: Tracer> System<T> {
    /// Builds an idle system that reports trace events to `tracer`.
    /// The fan-out holds the folds the process-global
    /// [`prof::level`] keeps, read once here; shedding a fold never
    /// changes simulated timing, so `total_cycles` (and every other
    /// simulated-cycle output) is identical at every level.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SystemConfig::validate`].
    pub fn with_tracer(cfg: SystemConfig, mode: Mode, tracer: T) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SystemConfig: {e}");
        }
        let window = DirectWindow::paper_default();
        let slices = cfg.gpu_l2_slices();
        System {
            space: AddressSpace::new(window),
            cpu: CpuExec {
                program: Program::new(),
                pc: 0,
                block: CpuBlock::Finished,
            },
            tlb: Tlb::new(cfg.tlb_entries, window),
            cpu_l1d: CacheArray::new(cfg.cpu_l1d, ReplacementPolicy::Lru),
            cpu_l1_stats: CacheStats::new(),
            sb: StoreBuffer::new(cfg.store_buffer_entries),
            inflight_stores: Vec::new(),
            cpu_l2: CohCache::new_with_policy(cfg.cpu_l2, cfg.cpu_l2_mshrs, cfg.replacement),
            cpu_l2_stalled: VecDeque::new(),
            sms: (0..cfg.sms).map(|i| Sm::new(i, cfg.warps_per_sm)).collect(),
            gpu_l1s: (0..cfg.sms).map(|_| GpuL1::new(cfg.gpu_l1)).collect(),
            gpu_tlbs: (0..cfg.sms)
                .map(|_| Tlb::new(cfg.gpu_tlb_entries, window))
                .collect(),
            gpu_l2: (0..slices)
                .map(|s| {
                    // Slices index sets by the slice-local line number
                    // (the address interleave drops the low bits).
                    let stripe_bits = (slices as u64).trailing_zeros();
                    let geom = cfg.gpu_l2_slice.with_stripe(stripe_bits, s as u64);
                    CohCache::new_with_policy(geom, cfg.gpu_l2_mshrs, cfg.replacement)
                })
                .collect(),
            gpu_l2_stalled: (0..slices).map(|_| VecDeque::new()).collect(),
            slice_port_free: vec![Cycle::ZERO; slices],
            kernels: Vec::new(),
            kernel_queue: VecDeque::new(),
            running_kernel: None,
            warps_remaining: 0,
            last_issue: vec![Cycle::MAX; cfg.sms],
            kernels_run: 0,
            warps_completed: 0,
            hub: if cfg.directory_filter {
                Hub::new_with_directory()
            } else {
                Hub::new()
            },
            dram: Dram::new(cfg.dram.clone()),
            coh_net: Xbar::new(Agent::PORTS, cfg.coh_hop_latency, cfg.coh_bytes_per_cycle),
            direct_net: Xbar::new(
                1 + slices,
                cfg.direct_hop_latency,
                cfg.direct_bytes_per_cycle,
            ),
            gpu_net: Xbar::new(
                cfg.sms + slices,
                cfg.gpu_net_latency,
                cfg.gpu_net_bytes_per_cycle,
            ),
            queue: EventQueue::new(),
            now: Cycle::ZERO,
            probes: Probes::new(
                tracer,
                prof::level(),
                slices,
                cfg.dram.total_banks() as usize,
            ),
            pulse: None,
            txn_seq: 0,
            sb_txns: VecDeque::new(),
            direct_pushes: 0,
            push_overwrites: 0,
            push_bypasses: 0,
            first_kernel_start: None,
            last_kernel_end: Cycle::ZERO,
            kernel_spans: Vec::new(),
            faults: FaultPlan::default(),
            fault_seq: [0; FAULT_DOMAINS],
            faults_injected: 0,
            pushes_attempted: 0,
            pushes_retried: 0,
            pushes_degraded: 0,
            inflight_pushes: HashMap::new(),
            push_line_retries: HashMap::new(),
            abort: None,
            cfg,
            mode,
        }
    }

    /// Installs a fault plan for the next run. An inactive plan (the
    /// default) leaves the system bit-identical to one without the
    /// fault layer.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The installed fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The coherence mode this system runs in.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Enables pulse sampling: per-window counter deltas, sampled
    /// gauges and online anomaly detection
    /// ([`ds_probe::PulseSampler`]), surfaced on the run's report as
    /// [`RunReport::pulse`] (with the legacy epoch series derived from
    /// it). Sampling is observation-only: simulated timing is
    /// bit-identical with pulse on or off.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.window` is zero or `cfg.capacity` is odd or
    /// less than two.
    pub fn enable_pulse(&mut self, cfg: PulseConfig) {
        self.pulse = Some(PulseSampler::new(cfg));
    }

    /// Consumes the system, yielding the fan-out — the caller's tracer
    /// with the events it collected, and the folds (the lens with
    /// every line's full event history).
    pub fn into_probes(self) -> Probes<T> {
        self.probes
    }

    /// Reports one hand-off at the current cycle.
    #[inline(always)]
    pub(super) fn emit(&mut self, component: Component, line: Option<u64>, kind: TraceKind) {
        self.emit_at(self.now, component, line, kind);
    }

    /// Reports one hand-off stamped `at`, which may lie in the future
    /// of `self.now` (hand-offs are often scheduled ahead).
    #[inline(always)]
    pub(super) fn emit_at(
        &mut self,
        at: Cycle,
        component: Component,
        line: Option<u64>,
        kind: TraceKind,
    ) {
        self.probes.record(TraceEvent {
            cycle: at.as_u64(),
            component,
            line,
            kind,
        });
    }

    /// Reports a tracked transaction's hand-off into `stage` at `at`;
    /// `None` marks an untracked request, which reports nothing.
    #[inline(always)]
    pub(super) fn emit_stage(&mut self, txn: Option<u64>, stage: Stage, at: Cycle) {
        if let Some(txn) = txn {
            self.emit_at(
                at,
                Component::Txn,
                None,
                TraceKind::StageMark { txn, stage },
            );
        }
    }

    /// One fault decision for a message scheduled to arrive at
    /// `arrival` on `domain`'s network. With an inactive plan this is
    /// `Deliver(arrival)` with zero side effects; under faults it may
    /// drop, duplicate or delay, counting each injection.
    pub(super) fn fault_delivery(&mut self, domain: FaultDomain, arrival: Cycle) -> Delivery {
        if !self.faults.is_active() {
            return Delivery::Deliver(arrival);
        }
        let seq = self.fault_seq[domain as usize];
        self.fault_seq[domain as usize] += 1;
        let late = arrival + self.faults.net_rates(domain).delay_cycles.max(1);
        match self.faults.roll_net(domain, seq) {
            FaultRoll::Deliver => Delivery::Deliver(arrival),
            FaultRoll::Drop => {
                self.faults_injected += 1;
                Delivery::Drop
            }
            FaultRoll::Duplicate => {
                self.faults_injected += 1;
                Delivery::Duplicate(arrival, late)
            }
            FaultRoll::Delay => {
                self.faults_injected += 1;
                Delivery::Deliver(late)
            }
        }
    }

    /// Routes every DRAM access so it is reported exactly once, stamped
    /// with its arrival at the controller (queue latency is `done`
    /// minus that cycle). Returns the full access timing for callers
    /// that attribute queueing vs. service time.
    ///
    /// Fault injection happens here, at the system boundary: a stalled
    /// (or stuck) bank pushes the *observed* completion cycle out
    /// while the DRAM model's internal bank bookkeeping keeps its
    /// unfaulted timing.
    pub(super) fn dram_access_info(
        &mut self,
        at: Cycle,
        line: LineAddr,
        write: bool,
    ) -> DramAccessInfo {
        let _prof = prof::span(HostPhase::DramTick);
        let mut info = self.dram.access_info(at, line, write);
        if self.faults.is_active() {
            let seq = self.fault_seq[FaultDomain::Dram as usize];
            self.fault_seq[FaultDomain::Dram as usize] += 1;
            if let Some(extra) = self.faults.roll_dram(info.bank, seq) {
                self.faults_injected += 1;
                info.done += extra;
            }
        }
        self.emit_at(
            at,
            Component::DramBank { bank: info.bank },
            Some(line.index()),
            TraceKind::DramAccess {
                write,
                row_hit: info.row_hit,
                start: info.start.as_u64(),
                done: info.done.as_u64(),
            },
        );
        info
    }

    /// [`System::dram_access_info`] for callers that only need the
    /// completion cycle.
    pub(super) fn dram_access(&mut self, at: Cycle, line: LineAddr, write: bool) -> Cycle {
        self.dram_access_info(at, line, write).done
    }

    /// Schedules `ev` at `at`. The runtime's single event-queue
    /// insertion point, so host profiling attributes every push to
    /// [`HostPhase::EventPush`].
    fn sched(&mut self, at: Cycle, ev: Ev) {
        let _prof = prof::span(HostPhase::EventPush);
        self.queue.push(at, ev);
    }

    /// Allocates the next stage-accounting transaction id.
    pub(super) fn next_txn(&mut self) -> u64 {
        let txn = self.txn_seq;
        self.txn_seq += 1;
        txn
    }

    /// Snapshot of the cumulative counters and instantaneous gauges
    /// the pulse sampler watches. Pure reads of state the components
    /// already keep — the snapshot itself mutates nothing.
    fn pulse_totals(&self) -> PulseTotals {
        let mut gpu_hits = 0;
        let mut gpu_misses = 0;
        for s in &self.gpu_l2 {
            gpu_hits += s.stats.hits.value();
            gpu_misses += s.stats.misses.value();
        }
        let mut t = PulseTotals::default();
        let c = &mut t.counters;
        c[ctr::GPU_L2_ACCESSES] = gpu_hits + gpu_misses;
        c[ctr::GPU_L2_MISSES] = gpu_misses;
        c[ctr::CPU_L2_ACCESSES] = self.cpu_l2.stats.hits.value() + self.cpu_l2.stats.misses.value();
        c[ctr::CPU_L2_MISSES] = self.cpu_l2.stats.misses.value();
        c[ctr::COH_MSGS] = self.coh_net.stats().total_msgs();
        c[ctr::DIRECT_MSGS] = self.direct_net.stats().total_msgs();
        c[ctr::GPU_MSGS] = self.gpu_net.stats().total_msgs();
        c[ctr::COH_BYTES] = self.coh_net.stats().bytes;
        c[ctr::DIRECT_BYTES] = self.direct_net.stats().bytes;
        c[ctr::GPU_BYTES] = self.gpu_net.stats().bytes;
        c[ctr::DRAM_READS] = self.dram.stats().reads.value();
        c[ctr::DRAM_WRITES] = self.dram.stats().writes.value();
        c[ctr::DRAM_ROW_HITS] = self.dram.stats().row_hits.value();
        c[ctr::DRAM_BUSY_CYCLES] = self.dram.stats().busy_cycles.value();
        c[ctr::DIRECT_PUSHES] = self.direct_pushes;
        c[ctr::PUSHES_ATTEMPTED] = self.pushes_attempted;
        c[ctr::PUSHES_RETRIED] = self.pushes_retried;
        c[ctr::PUSHES_DEGRADED] = self.pushes_degraded;
        c[ctr::PUSH_BYPASSES] = self.push_bypasses;
        c[ctr::FAULTS_INJECTED] = self.faults_injected;
        c[ctr::SB_STALLS] = self.sb.full_stalls();
        c[ctr::SM_OPS] = self.sms.iter().map(|s| s.stats().ops_issued.value()).sum();
        c[ctr::WARPS_COMPLETED] = self.warps_completed;
        c[ctr::KERNELS_RUN] = self.kernels_run;
        c[ctr::HUB_TRANSACTIONS] = self.hub.stats().transactions.value();
        c[ctr::HUB_CONFLICTS] = self.hub.stats().conflicts.value();
        c[ctr::HUB_PROBES] = self.hub.stats().probes_sent.value();
        c[ctr::EVENTS] = self.queue.total_pushed();
        t.gauges[gauge::QUEUE_DEPTH] = self.queue.len() as u64;
        t.gauges[gauge::SB_OCCUPANCY] = self.sb.len() as u64;
        t.gauges[gauge::INFLIGHT_PUSHES] = self.inflight_pushes.len() as u64;
        t
    }

    /// Drains anomalies the sampler detected on just-closed windows
    /// into the trace stream. Emitting at detection time (not at end
    /// of run) is what pre-arms an attached flight recorder: the
    /// precursor events are already in its ring if the run aborts.
    fn emit_pulse_anomalies(&mut self) {
        if !T::ENABLED {
            return;
        }
        let fresh = match self.pulse.as_mut() {
            Some(p) => p.take_fresh_anomalies(),
            None => return,
        };
        for a in fresh {
            self.emit(
                Component::Pulse,
                None,
                TraceKind::PulseAnomaly {
                    anomaly: a.kind,
                    start: a.start,
                    end: a.end,
                    value: a.value,
                    threshold: a.threshold,
                },
            );
        }
    }

    /// Executes `program` against `kernels` to completion and reports.
    ///
    /// A run finishes when the CPU program has retired, the store
    /// buffer has drained and every launched kernel has completed.
    ///
    /// # Panics
    ///
    /// Panics on deadlock (the event queue empties before the run
    /// finishes) or livelock (more than two billion events) — both
    /// indicate model bugs, not workload conditions — and on a
    /// watchdog abort under an active fault plan (use
    /// [`System::try_run`] to handle those as values).
    pub fn run(&mut self, program: Program, kernels: Vec<KernelTrace>) -> RunReport {
        match self.try_run(program, kernels) {
            Ok(report) => report,
            Err(abort) => panic!("{abort}"),
        }
    }

    /// [`System::run`], but watchdog aborts under an active fault plan
    /// (deadlock / livelock, each with a diagnostic dump of
    /// outstanding MSHRs and transaction stages) come back as
    /// `Err(SimAbort)` instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SimAbort::Deadlock`] when no event fires for more
    /// than `watchdog_gap` cycles (or the queue empties) with work
    /// still outstanding, and [`SimAbort::Livelock`] when one line
    /// exceeds the cumulative push-retry bound. Both only trigger
    /// while the fault plan is active; fault-free model bugs keep
    /// their original panics.
    ///
    /// # Panics
    ///
    /// Panics on deadlock/livelock with an *inactive* plan, and on
    /// exceeding the global event limit.
    pub fn try_run(
        &mut self,
        program: Program,
        kernels: Vec<KernelTrace>,
    ) -> Result<RunReport, SimAbort> {
        prof::run_start();
        self.cpu = CpuExec {
            program,
            pc: 0,
            block: CpuBlock::None,
        };
        self.kernels = kernels;
        self.sched(Cycle::ZERO, Ev::CpuAdvance);
        let watchdog = self.faults.is_active();

        loop {
            let popped = {
                let _prof = prof::span(HostPhase::EventPop);
                self.queue.pop()
            };
            let Some((t, ev)) = popped else { break };
            debug_assert!(t >= self.now, "time went backwards");
            if watchdog
                && t.saturating_since(self.now) > self.faults.watchdog_gap
                && !self.finished()
            {
                return Err(SimAbort::Deadlock(self.chaos_diagnostic(&format!(
                    "no event for {} cycles (next at {t})",
                    t.saturating_since(self.now)
                ))));
            }
            self.now = t;
            // Cheap fast path: one compare per event; the counter
            // snapshot only happens when a window boundary is crossed.
            if matches!(&self.pulse, Some(p) if p.needs_sample(t.as_u64())) {
                let _tax = prof::span(HostPhase::TaxEpochs);
                let totals = self.pulse_totals();
                if let Some(p) = self.pulse.as_mut() {
                    p.observe(t.as_u64(), totals);
                }
                self.emit_pulse_anomalies();
            }
            self.dispatch(ev);
            if let Some(abort) = self.abort.take() {
                return Err(abort);
            }
            if self.queue.total_pushed() > EVENT_LIMIT {
                panic!("event limit exceeded: livelocked at {t}");
            }
        }
        if self.pulse.is_some() {
            let _tax = prof::span(HostPhase::TaxEpochs);
            let totals = self.pulse_totals();
            if let Some(p) = self.pulse.as_mut() {
                p.finish(self.now.as_u64(), totals);
            }
            self.emit_pulse_anomalies();
        }

        if watchdog && !self.finished() {
            return Err(SimAbort::Deadlock(
                self.chaos_diagnostic("event queue empty with work outstanding"),
            ));
        }
        assert!(
            self.finished(),
            "deadlock: queue empty but cpu block = {:?}, sb len = {}, inflight stores = {}, kernel = {:?}",
            self.cpu.block,
            self.sb.len(),
            self.inflight_stores.len(),
            self.running_kernel
        );
        // The folds close what is still open (the lens classifies
        // pushes the GPU never read as dead, so its useful/dead/
        // clobbered partition is total).
        self.probes.finish();
        if cfg!(debug_assertions) {
            self.check_invariants();
            self.check_fold_reconciliation();
        }
        Ok(self.report())
    }

    /// The watchdog's diagnostic dump: the stuck frontier (CPU block,
    /// store buffer, in-flight stores and pushes), every MSHR's
    /// outstanding lines and the stage census of live transactions —
    /// the ds-xray view of where forward progress died.
    fn chaos_diagnostic(&self, reason: &str) -> String {
        use std::fmt::Write as _;
        let mut d = String::new();
        let _ = writeln!(d, "reason: {reason}");
        let _ = writeln!(
            d,
            "at cycle {}: cpu block = {:?}, sb len = {}, inflight stores = {}, kernel = {:?}",
            self.now,
            self.cpu.block,
            self.sb.len(),
            self.inflight_stores.len(),
            self.running_kernel
        );
        let _ = writeln!(
            d,
            "pushes: attempted = {}, acked = {}, retried = {}, degraded = {}, unacked = {}",
            self.pushes_attempted,
            self.direct_pushes,
            self.pushes_retried,
            self.pushes_degraded,
            self.inflight_pushes.len()
        );
        let mut pushes: Vec<_> = self.inflight_pushes.iter().collect();
        pushes.sort_unstable_by_key(|&(&txn, _)| txn);
        for (txn, track) in pushes {
            let _ = writeln!(
                d,
                "  unacked push txn {txn}: {} attempt {}",
                track.line, track.attempt
            );
        }
        let _ = writeln!(d, "cpu_l2 mshrs ({}):", self.cpu_l2.mshr.len());
        for (line, waiters) in self.cpu_l2.mshr.lines() {
            let _ = writeln!(d, "  {line}: {waiters} waiter(s)");
        }
        for (s, slice) in self.gpu_l2.iter().enumerate() {
            if slice.mshr.is_empty() {
                continue;
            }
            let _ = writeln!(d, "gpu_l2 slice {s} mshrs ({}):", slice.mshr.len());
            for (line, waiters) in slice.mshr.lines() {
                let _ = writeln!(d, "  {line}: {waiters} waiter(s)");
            }
        }
        let census = self
            .probes
            .stages
            .as_ref()
            .map(|s| s.inflight_census())
            .unwrap_or_default();
        let _ = writeln!(d, "stage transactions in flight ({}):", census.len());
        for (txn, stage, entered) in census {
            let _ = writeln!(d, "  txn {txn}: in {stage} since cycle {entered}");
        }
        if let Some(p) = &self.pulse {
            let anomalies = p.anomalies();
            if !anomalies.is_empty() {
                let _ = writeln!(d, "pulse anomalies before abort ({}):", anomalies.len());
                for a in anomalies {
                    let _ = writeln!(d, "  {a}");
                }
            }
        }
        let _ = write!(d, "faults injected so far: {}", self.faults_injected);
        d
    }

    /// Asserts the folds agree exactly with the counters the caches,
    /// DRAM, crossbars and CPU keep on their own: every tracked
    /// transaction completed, stage sums telescope to the load-to-use
    /// histogram, every push completed or degraded, and the lens's
    /// derived aggregates match the component counters. Debug-only
    /// (called from [`System::run`]); `ds check` re-proves the same
    /// identities from a release build's reports.
    fn check_fold_reconciliation(&self) {
        if let Some(stages) = &self.probes.stages {
            let load_to_use = &self.probes.latency.load_to_use;
            assert_eq!(stages.inflight(), 0, "unfinished stage transactions");
            assert_eq!(stages.breakdown().loads, load_to_use.samples());
            assert_eq!(
                u128::from(stages.breakdown().load_cycles),
                load_to_use.sum(),
                "stage sums must telescope to end-to-end load latency"
            );
            assert_eq!(
                stages.breakdown().pushes,
                self.direct_pushes + self.pushes_degraded,
                "every tracked push either completed or degraded"
            );
        }
        let Some(lens) = &self.probes.lens else {
            return;
        };
        let lr = lens.report();
        let mut pushed_fills = 0;
        for (s, slice) in self.gpu_l2.iter().enumerate() {
            let row = &lr.slices[s];
            assert_eq!(row.hits, slice.stats.hits.value(), "slice {s} hits");
            assert_eq!(row.misses, slice.stats.misses.value(), "slice {s} misses");
            assert_eq!(
                row.push_fills,
                slice.stats.pushed_fills.value(),
                "slice {s} push fills"
            );
            assert_eq!(
                row.push_hits,
                slice.stats.push_hits.value(),
                "slice {s} push hits"
            );
            assert_eq!(
                row.evictions,
                slice.stats.evictions.value(),
                "slice {s} evictions"
            );
            assert_eq!(
                row.writebacks,
                slice.stats.writebacks.value(),
                "slice {s} writebacks"
            );
            pushed_fills += slice.stats.pushed_fills.value();
        }
        assert_eq!(
            lr.push_total(),
            pushed_fills,
            "useful+dead+clobbered must partition the installed pushes"
        );
        assert_eq!(lr.push_bypasses, self.push_bypasses);
        assert_eq!(lr.push_degraded, self.pushes_degraded, "degraded pushes");
        assert_eq!(lr.first_touch.samples(), lr.push_useful);
        let (reads, writes, row_hits) = lr.banks.iter().fold((0, 0, 0), |(r, w, h), b| {
            (r + b.reads, w + b.writes, h + b.row_hits)
        });
        assert_eq!(reads, self.dram.stats().reads.value(), "bank read sums");
        assert_eq!(writes, self.dram.stats().writes.value(), "bank write sums");
        assert_eq!(
            row_hits,
            self.dram.stats().row_hits.value(),
            "bank row-hit sums"
        );
        for (net, xbar) in [
            (ds_probe::NetId::Coherence, &self.coh_net),
            (ds_probe::NetId::Direct, &self.direct_net),
            (ds_probe::NetId::GpuInternal, &self.gpu_net),
        ] {
            let (control, data) = lr.net_sums(net);
            assert_eq!(control, xbar.stats().control_msgs, "{} control", net.name());
            assert_eq!(data, xbar.stats().data_msgs, "{} data", net.name());
        }
    }

    fn finished(&self) -> bool {
        self.cpu.block == CpuBlock::Finished
            && self.sb.is_empty()
            && self.inflight_stores.is_empty()
            && self.running_kernel.is_none()
            && self.kernel_queue.is_empty()
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::CpuAdvance => self.cpu_advance(),
            Ev::SbDrain => self.sb_drain(),
            Ev::CpuL2Access { line, write } => self.cpu_l2_access(line, write),
            Ev::CpuL2MemDone { line } => self.cpu_l2_mem_done(line),
            Ev::Coh { dst, msg } => self.on_coh(dst, msg),
            Ev::DirectAtSlice {
                slice,
                msg,
                slotted,
                txn,
            } => self.on_direct_at_slice(slice, msg, slotted, txn),
            Ev::DirectAtCpu { msg, txn } => self.on_direct_at_cpu(msg, txn),
            Ev::HubMemDone { line, txn } => self.on_hub_mem_done(line, txn),
            Ev::SmTick { sm } => self.sm_tick(sm as usize),
            Ev::MemArrive {
                sm,
                warp,
                issued,
                txn,
            } => self.on_mem_arrive(sm as usize, warp as usize, issued, txn),
            Ev::SliceDemand {
                slice,
                line,
                write,
                waiter,
                slotted,
            } => self.slice_demand(slice, line, write, waiter, slotted),
            Ev::SliceMemDone { slice, line } => self.slice_mem_done(slice, line),
            Ev::DirectReadMemDone { slice, line } => self.direct_read_mem_done(slice, line),
            Ev::KernelStart => self.kernel_start(),
            Ev::PushTimeout { txn, attempt } => self.on_push_timeout(txn, attempt),
        }
    }

    /// Runs the cross-cache coherence invariants; panics on violation.
    pub(crate) fn check_invariants(&self) {
        let mut checker = ProtocolChecker::new();
        if self.mode.pushes() {
            // The CPU-may-not-cache-the-window rule only exists once
            // direct store is active; under CCSM the window is
            // ordinary memory.
            checker = checker.with_direct_range(ds_cpu::vm::pa_is_direct_line);
        }
        for (line, &state) in self.cpu_l2.array.iter() {
            checker.observe(Agent::CpuL2, line, state);
        }
        for (s, slice) in self.gpu_l2.iter().enumerate() {
            for (line, &state) in slice.array.iter() {
                checker.observe(Agent::GpuL2(s as u8), line, state);
            }
        }
        let errors = checker.check();
        assert!(
            errors.is_empty(),
            "coherence invariants violated: {}",
            errors
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
    }

    fn report(&self) -> RunReport {
        let pulse = self.pulse.as_ref().map(|p| p.clone().into_series());
        let (epochs, epoch_window) = match &pulse {
            Some(series) => (ds_probe::pulse::epoch_view(series), series.window),
            None => (Vec::new(), 0),
        };
        let mut gpu_l2 = CacheStats::new();
        for slice in &self.gpu_l2 {
            gpu_l2.hits.add(slice.stats.hits.value());
            gpu_l2.misses.add(slice.stats.misses.value());
            gpu_l2
                .compulsory_misses
                .add(slice.stats.compulsory_misses.value());
            gpu_l2.evictions.add(slice.stats.evictions.value());
            gpu_l2.writebacks.add(slice.stats.writebacks.value());
            gpu_l2.pushed_fills.add(slice.stats.pushed_fills.value());
            gpu_l2.push_hits.add(slice.stats.push_hits.value());
        }
        let mut gpu_l1 = CacheStats::new();
        for l1 in &self.gpu_l1s {
            gpu_l1.hits.add(l1.stats().hits.value());
            gpu_l1.misses.add(l1.stats().misses.value());
            gpu_l1.evictions.add(l1.stats().evictions.value());
        }
        RunReport {
            mode: self.mode,
            total_cycles: self.now,
            gpu_l2,
            cpu_l2: self.cpu_l2.stats.clone(),
            gpu_l1,
            cpu_l1: self.cpu_l1_stats.clone(),
            coh_net: self.coh_net.stats(),
            direct_net: self.direct_net.stats(),
            gpu_net: self.gpu_net.stats(),
            dram_reads: self.dram.stats().reads.value(),
            dram_writes: self.dram.stats().writes.value(),
            direct_pushes: self.direct_pushes,
            store_buffer_stalls: self.sb.full_stalls(),
            kernels_run: self.kernels_run,
            warps_completed: self.warps_completed,
            first_kernel_start: self.first_kernel_start.unwrap_or(Cycle::ZERO),
            last_kernel_end: self.last_kernel_end,
            kernel_spans: self.kernel_spans.clone(),
            push_bypasses: self.push_bypasses,
            hub_transactions: self.hub.stats().transactions.value(),
            hub_conflicts: self.hub.stats().conflicts.value(),
            hub_probes: self.hub.stats().probes_sent.value(),
            dram_row_hits: self.dram.stats().row_hits.value(),
            pushes_attempted: self.pushes_attempted,
            pushes_retried: self.pushes_retried,
            pushes_degraded: self.pushes_degraded,
            faults_injected: self.faults_injected,
            events: self.queue.total_pushed(),
            latency: self.probes.latency.clone(),
            stages: self
                .probes
                .stages
                .as_ref()
                .map(|s| s.breakdown().clone())
                .unwrap_or_default(),
            // A shed lens reports its all-zero rows.
            lens: match &self.probes.lens {
                Some(lens) => lens.report(),
                None => {
                    LineLens::new(self.gpu_l2.len(), self.cfg.dram.total_banks() as usize).report()
                }
            },
            pulse,
            epochs,
            epoch_window,
            host: if prof::enabled() {
                Some(prof::take_profile())
            } else {
                None
            },
        }
    }
}
