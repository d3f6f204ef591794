//! The typed trace record: what happened, where, and when.

use crate::pulse::PulseAnomalyKind;
use crate::stage::Stage;

/// Which network a [`Component::Net`] event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetId {
    /// The MESI/Hammer coherence crossbar (CPU L2 ↔ hub ↔ GPU L2).
    Coherence,
    /// The dedicated direct-store push network.
    Direct,
    /// The GPU-internal SM ↔ L2-slice crossbar.
    GpuInternal,
}

impl NetId {
    /// Stable lower-case name used by the sinks.
    pub fn name(self) -> &'static str {
        match self {
            NetId::Coherence => "coh",
            NetId::Direct => "direct",
            NetId::GpuInternal => "gpu",
        }
    }
}

/// The modelled component an event originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// The in-order CPU core.
    Cpu,
    /// The CPU store buffer.
    StoreBuffer,
    /// The CPU-side TLB.
    CpuTlb,
    /// A per-SM GPU TLB.
    GpuTlb {
        /// SM index.
        sm: u16,
    },
    /// The CPU L1 data cache.
    CpuL1,
    /// The CPU L2 (coherent).
    CpuL2,
    /// A per-SM GPU L1.
    GpuL1 {
        /// SM index.
        sm: u16,
    },
    /// A GPU L2 slice (coherent).
    GpuL2 {
        /// Slice index.
        slice: u8,
    },
    /// A streaming multiprocessor.
    Sm {
        /// SM index.
        sm: u16,
    },
    /// The coherence hub / directory at the memory controller.
    Hub,
    /// A DRAM bank.
    DramBank {
        /// Bank index.
        bank: u16,
    },
    /// A network crossbar (see [`NetId`]).
    Net {
        /// Which crossbar.
        net: NetId,
    },
    /// Kernel lifecycle events (launch/retire).
    Kernel,
    /// Transaction-lifecycle events (stage marks), not tied to one
    /// physical component.
    Txn,
    /// The pulse sampler (window-close anomaly annotations), not tied
    /// to one physical component.
    Pulse,
}

impl Component {
    /// Stable lower-case component name used by the sinks.
    pub fn name(self) -> &'static str {
        match self {
            Component::Cpu => "cpu",
            Component::StoreBuffer => "store_buffer",
            Component::CpuTlb => "cpu_tlb",
            Component::GpuTlb { .. } => "gpu_tlb",
            Component::CpuL1 => "cpu_l1",
            Component::CpuL2 => "cpu_l2",
            Component::GpuL1 { .. } => "gpu_l1",
            Component::GpuL2 { .. } => "gpu_l2",
            Component::Sm { .. } => "sm",
            Component::Hub => "hub",
            Component::DramBank { .. } => "dram",
            Component::Net { net } => match net {
                NetId::Coherence => "net_coh",
                NetId::Direct => "net_direct",
                NetId::GpuInternal => "net_gpu",
            },
            Component::Kernel => "kernel",
            Component::Txn => "txn",
            Component::Pulse => "pulse",
        }
    }

    /// The sub-unit index (SM, slice, bank) when the component is
    /// replicated.
    pub fn unit(self) -> Option<u64> {
        match self {
            Component::GpuTlb { sm } | Component::GpuL1 { sm } | Component::Sm { sm } => {
                Some(u64::from(sm))
            }
            Component::GpuL2 { slice } => Some(u64::from(slice)),
            Component::DramBank { bank } => Some(u64::from(bank)),
            _ => None,
        }
    }
}

/// What happened. Interval-shaped kinds (network serialization, DRAM
/// bank busy) carry their endpoints so the Chrome sink can render
/// occupancy tracks without re-deriving timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Demand hit; `push_hit` marks a hit on a line installed by a
    /// direct-store push and not yet re-fetched.
    Hit {
        /// The access was a store.
        write: bool,
        /// Hit on a pushed line.
        push_hit: bool,
        /// The requester was the GPU (vs. the CPU, whose accesses
        /// reach a GPU L2 slice only as uncached direct-network reads).
        gpu: bool,
    },
    /// Demand miss.
    Miss {
        /// The access was a store.
        write: bool,
        /// First-ever access to the line (cold miss).
        compulsory: bool,
        /// The requester was the GPU (see [`TraceKind::Hit`]).
        gpu: bool,
    },
    /// The CPU architecturally executed a store to this line.
    CpuStore {
        /// The store will drain as a direct-store push (vs. through
        /// the coherent CPU L2).
        push: bool,
    },
    /// A demand (or prefetch) fill installed this line in a GPU L2
    /// slice.
    DemandFill,
    /// A GPU L2 slice evicted this line to make room for a fill.
    Evict {
        /// The victim was dirty and required a writeback.
        writeback: bool,
    },
    /// A coherence probe invalidated a GPU L2 slice's copy.
    ProbeInvalidate,
    /// A direct-store push installed this line in a GPU L2 slice.
    PushFill,
    /// A push invalidated an older pushed copy of the same line.
    PushOverwrite,
    /// A push found its set full of pushed lines and bypassed to DRAM.
    PushBypass,
    /// The store buffer released one entry toward memory.
    SbDrain {
        /// Entry drains over the direct network (vs. coherent L2).
        direct: bool,
    },
    /// A direct-store push exhausted its fault-recovery retries and
    /// degraded to the CCSM demand path (written to DRAM, never
    /// installed).
    PushDegraded,
    /// A direct-store push fully completed (PutX acknowledged).
    PushDone {
        /// Cycles from store-buffer drain to acknowledgement.
        latency: u64,
    },
    /// Address translation missed the TLB (page-walk penalty charged).
    TlbMiss,
    /// One message traversed a crossbar link. `start..depart` is the
    /// serialization interval on the link; `arrive` adds propagation.
    NetMsg {
        /// Source port index.
        src: u8,
        /// Destination port index.
        dst: u8,
        /// Carries a full cache line (vs. control-sized).
        data: bool,
        /// Cycle serialization began.
        start: u64,
        /// Cycle the tail flit left the link.
        depart: u64,
        /// Cycle the message reaches the destination.
        arrive: u64,
    },
    /// One DRAM access occupied its bank for `start..done`.
    DramAccess {
        /// The access was a write.
        write: bool,
        /// The row buffer already held the row.
        row_hit: bool,
        /// Cycle the bank started servicing.
        start: u64,
        /// Cycle the data burst completed.
        done: u64,
    },
    /// A GETS/GETX reached the hub. It opens a transaction at once
    /// (a [`TraceKind::HubStart`] follows) or queues behind an open
    /// transaction on the same line.
    HubRequest {
        /// The requesting cache ([`Component::CpuL2`] or
        /// [`Component::GpuL2`]).
        requester: Component,
        /// The request was a GetX (vs. GetS).
        write: bool,
    },
    /// The hub began a coherence transaction.
    HubStart {
        /// The requesting cache.
        requester: Component,
        /// The request was a GetX (vs. GetS).
        write: bool,
    },
    /// The hub issued the speculative DRAM read of its open
    /// transaction (the event's cycle is the request's arrival at the
    /// memory controller).
    HubDramRead {
        /// Cycle the bank started servicing.
        start: u64,
        /// Cycle the data burst completed.
        done: u64,
    },
    /// The hub granted the open transaction's data to its requester.
    HubGrant {
        /// The data came from the speculative DRAM read (vs. a cache
        /// owner's probe reply).
        from_mem: bool,
    },
    /// The hub retired its open transaction on the line (unblock
    /// received).
    HubDone,
    /// A kernel began executing on the SMs.
    KernelBegin {
        /// Kernel sequence number.
        kernel: u32,
    },
    /// A kernel retired (all warps done).
    KernelEnd {
        /// Kernel sequence number.
        kernel: u32,
    },
    /// A GPU load's data arrived back at its SM.
    LoadDone {
        /// Warp index within the kernel.
        warp: u32,
        /// Load-to-use latency in cycles.
        latency: u64,
    },
    /// A tracked transaction began in `stage`.
    TxnBegin {
        /// Transaction id.
        txn: u64,
        /// First stage.
        stage: Stage,
    },
    /// A tracked transaction entered `stage` (leaving its previous
    /// stage at this cycle). A mark for a transaction that never
    /// began, or already completed, is ignored. Marks carry
    /// [`Component::Txn`], except a [`Stage::CohReq`] mark: it names
    /// the requesting GPU L2 slice and the line, so the
    /// [`TraceKind::HubRequest`] that reaches the hub can claim the
    /// transaction.
    StageMark {
        /// Transaction id.
        txn: u64,
        /// Stage entered.
        stage: Stage,
    },
    /// A tracked transaction completed.
    TxnDone {
        /// Transaction id.
        txn: u64,
    },
    /// A pulse anomaly detector fired on a closed sampling window.
    /// Emitted the moment the window closes, so an attached flight
    /// recorder retains the precursor even if the run later aborts.
    PulseAnomaly {
        /// Which detector fired.
        anomaly: PulseAnomalyKind,
        /// First cycle of the offending window.
        start: u64,
        /// One past the last cycle of the offending window.
        end: u64,
        /// The observed value that crossed the threshold.
        value: u64,
        /// The threshold it crossed.
        threshold: u64,
    },
}

impl TraceKind {
    /// Stable lower-case kind name used by the sinks.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Hit { .. } => "hit",
            TraceKind::Miss { .. } => "miss",
            TraceKind::CpuStore { .. } => "cpu_store",
            TraceKind::DemandFill => "demand_fill",
            TraceKind::Evict { .. } => "evict",
            TraceKind::ProbeInvalidate => "probe_invalidate",
            TraceKind::PushFill => "push_fill",
            TraceKind::PushOverwrite => "push_overwrite",
            TraceKind::PushBypass => "push_bypass",
            TraceKind::SbDrain { .. } => "sb_drain",
            TraceKind::PushDegraded => "push_degraded",
            TraceKind::PushDone { .. } => "push_done",
            TraceKind::TlbMiss => "tlb_miss",
            TraceKind::NetMsg { .. } => "net_msg",
            TraceKind::DramAccess { .. } => "dram_access",
            TraceKind::HubRequest { .. } => "hub_request",
            TraceKind::HubStart { .. } => "hub_start",
            TraceKind::HubDramRead { .. } => "hub_dram_read",
            TraceKind::HubGrant { .. } => "hub_grant",
            TraceKind::HubDone => "hub_done",
            TraceKind::KernelBegin { .. } => "kernel_begin",
            TraceKind::KernelEnd { .. } => "kernel_end",
            TraceKind::LoadDone { .. } => "load_done",
            TraceKind::TxnBegin { .. } => "txn_begin",
            TraceKind::StageMark { .. } => "stage_mark",
            TraceKind::TxnDone { .. } => "txn_done",
            TraceKind::PulseAnomaly { .. } => "pulse_anomaly",
        }
    }
}

/// One structured trace record. `Copy` and allocation-free by design:
/// recording an event is a handful of word moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation cycle the event was recorded at.
    pub cycle: u64,
    /// Originating component.
    pub component: Component,
    /// Cache-line index the event concerns, when there is one.
    pub line: Option<u64>,
    /// What happened.
    pub kind: TraceKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_units_extracted() {
        assert_eq!(Component::GpuL2 { slice: 2 }.name(), "gpu_l2");
        assert_eq!(Component::GpuL2 { slice: 2 }.unit(), Some(2));
        assert_eq!(Component::Hub.unit(), None);
        assert_eq!(Component::Net { net: NetId::Direct }.name(), "net_direct");
        assert_eq!(TraceKind::PushFill.name(), "push_fill");
        assert_eq!(NetId::GpuInternal.name(), "gpu");
    }
}
