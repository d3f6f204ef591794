//! GPU-side event handlers: kernel dispatch, SM issue, L1s and the L2
//! slice controllers.

use ds_cache::{LineState, MissKind, MshrOutcome};
use ds_coherence::{msg::slice_index, Agent, CohMsg, HammerState, ReqKind};
use ds_gpu::WarpOp;
use ds_mem::LineAddr;
use ds_noc::{MsgClass, PortId};
use ds_probe::prof::{self, HostPhase};
use ds_probe::{Component, NetId, Stage, TraceKind, Tracer};
use ds_sim::Cycle;

use super::{CpuBlock, Delivery, Ev, System, Waiter};
use crate::fault::FaultDomain;

/// The stage-accounting transaction of a waiter, when it carries one
/// (only GPU loads are tracked).
fn waiter_txn(w: Waiter) -> Option<u64> {
    match w {
        Waiter::Gpu { txn, .. } => Some(txn),
        _ => None,
    }
}

impl<T: Tracer> System<T> {
    fn gpu_port_sm(&self, sm: usize) -> PortId {
        PortId(sm)
    }

    fn gpu_port_slice(&self, slice: u8) -> PortId {
        PortId(self.cfg.sms + slice as usize)
    }

    /// Sends one message over the GPU-internal crossbar, reporting the
    /// link occupancy, and returns the arrival time.
    fn gpu_net_send(
        &mut self,
        at: Cycle,
        src: PortId,
        dst: PortId,
        class: MsgClass,
        line: LineAddr,
    ) -> Cycle {
        let _prof = prof::span(HostPhase::NocTick);
        let info = self.gpu_net.send_info(at, src, dst, class);
        self.emit(
            Component::Net {
                net: NetId::GpuInternal,
            },
            Some(line.index()),
            TraceKind::NetMsg {
                src: src.0 as u8,
                dst: dst.0 as u8,
                data: class == MsgClass::Data,
                start: info.start.as_u64(),
                depart: info.depart.as_u64(),
                arrive: info.arrival.as_u64(),
            },
        );
        info.arrival
    }

    /// Starts the next queued kernel (`Ev::KernelStart`).
    pub(super) fn kernel_start(&mut self) {
        debug_assert!(self.running_kernel.is_none());
        let Some(k) = self.kernel_queue.pop_front() else {
            return;
        };
        self.running_kernel = Some(k);
        if self.first_kernel_start.is_none() {
            self.first_kernel_start = Some(self.now);
        }
        self.emit(
            Component::Kernel,
            None,
            TraceKind::KernelBegin { kernel: k as u32 },
        );
        self.kernel_spans.push((self.now, Cycle::MAX));
        let trace = self.kernels[k].clone();
        // Software coherence at kernel launch: flash-invalidate every
        // GPU L1 (paper §III.A).
        for l1 in &mut self.gpu_l1s {
            l1.flash_invalidate();
        }
        for sm in &mut self.sms {
            sm.reset();
        }
        let warps = trace.warp_count();
        self.warps_remaining = warps;
        if warps == 0 {
            self.finish_kernel();
            return;
        }
        // Interleaved assignment balances load across SMs.
        for w in 0..warps {
            let sm = w % self.cfg.sms;
            self.sms[sm].assign(&trace, w..w + 1);
        }
        for sm in 0..self.cfg.sms {
            if self.sms[sm].assigned_warps() > 0 {
                self.sched(self.now + 1, Ev::SmTick { sm: sm as u32 });
            }
        }
    }

    fn finish_kernel(&mut self) {
        let k = self.running_kernel.take().expect("kernel running");
        self.emit(
            Component::Kernel,
            None,
            TraceKind::KernelEnd { kernel: k as u32 },
        );
        self.last_kernel_end = self.now;
        if let Some(span) = self.kernel_spans.last_mut() {
            span.1 = self.now;
        }
        self.kernels_run += 1;
        self.warps_completed += self.kernels[k].warp_count() as u64;
        if !self.kernel_queue.is_empty() {
            self.sched(
                self.now + super::cpu_side::KERNEL_LAUNCH_OVERHEAD,
                Ev::KernelStart,
            );
        } else if self.cpu.block == CpuBlock::Gpu {
            self.cpu.block = CpuBlock::None;
            self.sched(self.now + 1, Ev::CpuAdvance);
        }
    }

    fn harvest_finished(&mut self, sm: usize) {
        let newly = self.sms[sm].take_finished();
        if newly > 0 {
            debug_assert!(self.warps_remaining >= newly);
            self.warps_remaining -= newly;
            if self.warps_remaining == 0 && self.running_kernel.is_some() {
                self.finish_kernel();
            }
        }
    }

    /// Gives SM `sm` an issue opportunity (`Ev::SmTick`).
    pub(super) fn sm_tick(&mut self, sm: usize) {
        if self.running_kernel.is_none() {
            return;
        }
        // One issue per SM per cycle.
        if self.last_issue[sm] == self.now {
            self.sched(self.now + 1, Ev::SmTick { sm: sm as u32 });
            return;
        }
        match self.sms[sm].issue(self.now) {
            Some(issue) => {
                self.last_issue[sm] = self.now;
                match issue.op {
                    WarpOp::GlobalLoad { .. } => {
                        for va in issue.op.touched_lines() {
                            let (line, walk) = self.translate_gpu(sm, va);
                            self.gpu_load(sm, issue.warp, line, walk);
                        }
                    }
                    WarpOp::GlobalStore { .. } => {
                        for va in issue.op.touched_lines() {
                            let (line, walk) = self.translate_gpu(sm, va);
                            self.gpu_store(sm, line, walk);
                        }
                    }
                    // Compute and shared-memory ops were handled inside
                    // the SM.
                    WarpOp::Compute(_) | WarpOp::Shared { .. } => {}
                }
                self.harvest_finished(sm);
                if self.running_kernel.is_some() {
                    self.sched(self.now + 1, Ev::SmTick { sm: sm as u32 });
                }
            }
            None => {
                self.harvest_finished(sm);
                if self.running_kernel.is_some() {
                    if let Some(wake) = self.sms[sm].earliest_wake() {
                        let at = wake.max(self.now + 1);
                        self.sched(at, Ev::SmTick { sm: sm as u32 });
                    }
                    // Otherwise the SM is blocked on memory; responses
                    // will re-tick it.
                }
            }
        }
    }

    /// Translates a GPU virtual address through the SM's TLB,
    /// returning the line and the page-walk penalty (zero on a hit).
    fn translate_gpu(&mut self, sm: usize, va: ds_mem::VirtAddr) -> (LineAddr, u64) {
        let look = self.gpu_tlbs[sm].lookup(va);
        let mut walk = 0;
        let missed = !look.is_hit();
        if missed {
            walk = self.cfg.gpu_tlb_miss_penalty;
            let ppn = self
                .space
                .page_table_mut()
                .translate_or_alloc(look.vpn, look.is_direct);
            self.gpu_tlbs[sm].fill(look.vpn, ppn);
        }
        let pa = self.space.translate(va);
        let line = LineAddr::containing(pa);
        if missed {
            self.emit(
                Component::GpuTlb { sm: sm as u16 },
                Some(line.index()),
                TraceKind::TlbMiss,
            );
        }
        (line, walk)
    }

    fn gpu_load(&mut self, sm: usize, warp: usize, line: LineAddr, walk: u64) {
        let issued = self.now;
        let txn = self.next_txn();
        self.emit(
            Component::Txn,
            None,
            TraceKind::TxnBegin {
                txn,
                stage: Stage::SmL1,
            },
        );
        if self.gpu_l1s[sm].load(line) {
            self.emit(
                Component::GpuL1 { sm: sm as u16 },
                Some(line.index()),
                TraceKind::Hit {
                    write: false,
                    push_hit: false,
                    gpu: true,
                },
            );
            self.sched(
                self.now + walk + self.cfg.gpu_l1_latency,
                Ev::MemArrive {
                    sm: sm as u32,
                    warp: warp as u32,
                    issued,
                    txn,
                },
            );
            return;
        }
        self.emit(
            Component::GpuL1 { sm: sm as u16 },
            Some(line.index()),
            TraceKind::Miss {
                write: false,
                compulsory: false,
                gpu: true,
            },
        );
        let slice = slice_index(line);
        let depart = self.now + walk + self.cfg.gpu_l1_latency;
        let arrival = self.gpu_net_send(
            depart,
            self.gpu_port_sm(sm),
            self.gpu_port_slice(slice),
            MsgClass::Control,
            line,
        );
        self.emit_stage(Some(txn), Stage::GpuNocReq, depart);
        self.emit_stage(Some(txn), Stage::SliceQueue, arrival);
        let ev = Ev::SliceDemand {
            slice,
            line,
            write: false,
            waiter: Waiter::Gpu {
                sm: sm as u32,
                warp: warp as u32,
                issued,
                txn,
            },
            slotted: false,
        };
        match self.fault_delivery(FaultDomain::GpuNet, arrival + self.cfg.gpu_l2_latency) {
            Delivery::Deliver(at) => self.sched(at, ev),
            Delivery::Drop => {}
            Delivery::Duplicate(a, b) => {
                self.sched(a, ev);
                self.sched(b, ev);
            }
        }
    }

    fn gpu_store(&mut self, sm: usize, line: LineAddr, walk: u64) {
        // Write-through, write-no-allocate L1.
        self.gpu_l1s[sm].store(line);
        let slice = slice_index(line);
        let arrival = self.gpu_net_send(
            self.now + walk + self.cfg.gpu_l1_latency,
            self.gpu_port_sm(sm),
            self.gpu_port_slice(slice),
            MsgClass::Data,
            line,
        );
        let ev = Ev::SliceDemand {
            slice,
            line,
            write: true,
            waiter: Waiter::GpuStore,
            slotted: false,
        };
        match self.fault_delivery(FaultDomain::GpuNet, arrival + self.cfg.gpu_l2_latency) {
            Delivery::Deliver(at) => self.sched(at, ev),
            Delivery::Drop => {}
            Delivery::Duplicate(a, b) => {
                self.sched(a, ev);
                self.sched(b, ev);
            }
        }
    }

    /// A memory response reaches a warp (`Ev::MemArrive`).
    pub(super) fn on_mem_arrive(&mut self, sm: usize, warp: usize, issued: Cycle, txn: u64) {
        let latency = self.now.saturating_since(issued);
        self.emit(Component::Txn, None, TraceKind::TxnDone { txn });
        self.emit(
            Component::Sm { sm: sm as u16 },
            None,
            TraceKind::LoadDone {
                warp: warp as u32,
                latency,
            },
        );
        self.sms[sm].mem_arrived(warp);
        self.harvest_finished(sm);
        if self.running_kernel.is_some() {
            self.sched(self.now, Ev::SmTick { sm: sm as u32 });
        }
    }

    /// Reserves the slice's service port: `Ok` means proceed now,
    /// `Err(t)` means the caller must requeue its event at `t` with the
    /// slot already held.
    pub(super) fn slice_slot(&mut self, s: usize) -> Result<(), Cycle> {
        let service = self.cfg.gpu_l2_service;
        if service == 0 {
            return Ok(());
        }
        let free = self.slice_port_free[s];
        if free <= self.now {
            self.slice_port_free[s] = self.now + service;
            Ok(())
        } else {
            self.slice_port_free[s] = free + service;
            Err(free)
        }
    }

    /// A demand access at a GPU L2 slice (`Ev::SliceDemand`; tag
    /// latency already elapsed).
    pub(super) fn slice_demand(
        &mut self,
        slice: u8,
        line: LineAddr,
        write: bool,
        waiter: Waiter,
        slotted: bool,
    ) {
        let _prof = prof::span(HostPhase::CacheLookup);
        debug_assert_eq!(slice_index(line), slice, "line routed to wrong slice");
        let s = slice as usize;
        if !slotted {
            if let Err(at) = self.slice_slot(s) {
                self.sched(
                    at,
                    Ev::SliceDemand {
                        slice,
                        line,
                        write,
                        waiter,
                        slotted: true,
                    },
                );
                return;
            }
        }
        if !write {
            if self.gpu_l2[s]
                .array
                .access(line)
                .is_some_and(|st| st.can_read())
            {
                self.gpu_l2[s].record_hit(line);
                self.note_slice_hit(slice, line, false, true);
                self.respond_gpu_load(slice, waiter, line);
                return;
            }
            self.slice_miss(slice, line, ReqKind::GetS, waiter);
            self.maybe_prefetch(slice, line);
        } else {
            match self.gpu_l2[s].array.access(line).copied() {
                Some(HammerState::MM) => {
                    self.gpu_l2[s].record_hit(line);
                    self.note_slice_hit(slice, line, true, true);
                }
                Some(HammerState::M) => {
                    *self.gpu_l2[s]
                        .array
                        .state_mut(line)
                        .expect("state checked above") = HammerState::MM;
                    self.gpu_l2[s].record_hit(line);
                    self.note_slice_hit(slice, line, true, true);
                }
                Some(HammerState::S) | Some(HammerState::O) | Some(HammerState::I) | None => {
                    self.slice_miss(slice, line, ReqKind::GetX, waiter);
                }
            }
        }
    }

    /// Reports a demand hit at a slice, resolving push provenance here
    /// so every call site stays one line. `gpu` distinguishes GPU
    /// demand accesses from uncached CPU read-backs — only the former
    /// count as consumption of a pushed line.
    pub(super) fn note_slice_hit(&mut self, slice: u8, line: LineAddr, write: bool, gpu: bool) {
        let push_hit = self.gpu_l2[slice as usize].pushed.contains(&line);
        self.emit(
            Component::GpuL2 { slice },
            Some(line.index()),
            TraceKind::Hit {
                write,
                push_hit,
                gpu,
            },
        );
    }

    /// Reports a demand miss at a slice (see
    /// [`System::note_slice_hit`] for `gpu`).
    pub(super) fn note_slice_miss(
        &mut self,
        slice: u8,
        line: LineAddr,
        write: bool,
        miss_kind: MissKind,
        gpu: bool,
    ) {
        self.emit(
            Component::GpuL2 { slice },
            Some(line.index()),
            TraceKind::Miss {
                write,
                compulsory: miss_kind == MissKind::Compulsory,
                gpu,
            },
        );
    }

    fn slice_miss(&mut self, slice: u8, line: LineAddr, kind: ReqKind, waiter: Waiter) {
        let s = slice as usize;
        // A GETX from a valid (S/O) copy is a data-less upgrade.
        let upgrade = kind == ReqKind::GetX
            && self.gpu_l2[s]
                .array
                .probe(line)
                .is_some_and(|st| st.is_valid());
        match self.gpu_l2[s].alloc_miss(line, kind, waiter) {
            MshrOutcome::Primary => {
                if waiter != Waiter::Prefetch {
                    let miss_kind = self.gpu_l2[s].record_miss(line);
                    self.note_slice_miss(slice, line, kind == ReqKind::GetX, miss_kind, true);
                }
                if self.mode.coherent() {
                    let requester = Agent::GpuL2(slice);
                    if let Some(txn) = waiter_txn(waiter) {
                        // Names the requester and line: the hub's
                        // request event claims the transaction by them.
                        self.emit(
                            Component::GpuL2 { slice },
                            Some(line.index()),
                            TraceKind::StageMark {
                                txn,
                                stage: Stage::CohReq,
                            },
                        );
                    }
                    let msg = match kind {
                        ReqKind::GetS => CohMsg::GetS { line, requester },
                        ReqKind::GetX => CohMsg::GetX {
                            line,
                            requester,
                            upgrade,
                        },
                    };
                    self.coh_send(requester, Agent::MemCtrl, msg);
                } else {
                    let info = self.dram_access_info(self.now, line, false);
                    let txn = waiter_txn(waiter);
                    self.emit_stage(txn, Stage::DramQueue, self.now);
                    self.emit_stage(txn, Stage::DramService, info.start);
                    self.sched(info.done, Ev::SliceMemDone { slice, line });
                }
            }
            MshrOutcome::Secondary => {
                if waiter != Waiter::Prefetch {
                    let miss_kind = self.gpu_l2[s].record_miss(line);
                    self.note_slice_miss(slice, line, kind == ReqKind::GetX, miss_kind, true);
                }
                self.emit_stage(waiter_txn(waiter), Stage::MshrWait, self.now);
            }
            MshrOutcome::Full => {
                // Stall until an MSHR frees (drained on completions).
                self.emit_stage(waiter_txn(waiter), Stage::MshrStall, self.now);
                self.gpu_l2_stalled[s].push_back((line, kind == ReqKind::GetX, waiter));
            }
        }
    }

    /// Re-dispatches slice accesses stalled on a full MSHR file.
    pub(super) fn drain_slice_stalled(&mut self, slice: u8) {
        let s = slice as usize;
        while !self.gpu_l2[s].mshr.is_full() {
            let Some((line, write, waiter)) = self.gpu_l2_stalled[s].pop_front() else {
                break;
            };
            self.sched(
                self.now,
                Ev::SliceDemand {
                    slice,
                    line,
                    write,
                    waiter,
                    slotted: false,
                },
            );
        }
    }

    /// Optional next-line prefetcher (the prefetch-comparison
    /// ablation): on a read miss, fetch the next line homed at the same
    /// slice if it is neither resident nor in flight.
    fn maybe_prefetch(&mut self, slice: u8, line: LineAddr) {
        if !self.cfg.gpu_l2_prefetch {
            return;
        }
        let next = LineAddr::from_index(line.index() + ds_coherence::GPU_L2_SLICES as u64);
        let s = slice as usize;
        if self.gpu_l2[s].array.probe(next).is_none()
            && !self.gpu_l2[s].mshr.contains(next)
            && !self.gpu_l2[s].mshr.is_full()
        {
            self.slice_miss(slice, next, ReqKind::GetS, Waiter::Prefetch);
        }
    }

    /// Sends a load response from a slice back to its requesting warp.
    fn respond_gpu_load(&mut self, slice: u8, waiter: Waiter, line: LineAddr) {
        match waiter {
            Waiter::Gpu {
                sm,
                warp,
                issued,
                txn,
            } => {
                // The single hand-off into the final stage: every load
                // path (slice hit, primary fill, merged secondary)
                // funnels through here, accruing whatever stage the
                // transaction was in until now.
                self.emit_stage(Some(txn), Stage::SliceToSm, self.now);
                let arrival = self.gpu_net_send(
                    self.now,
                    self.gpu_port_slice(slice),
                    self.gpu_port_sm(sm as usize),
                    MsgClass::Data,
                    line,
                );
                self.gpu_l1s[sm as usize].fill(line);
                let ev = Ev::MemArrive {
                    sm,
                    warp,
                    issued,
                    txn,
                };
                match self.fault_delivery(FaultDomain::GpuNet, arrival) {
                    Delivery::Deliver(at) => self.sched(at, ev),
                    Delivery::Drop => {}
                    Delivery::Duplicate(a, b) => {
                        self.sched(a, ev);
                        self.sched(b, ev);
                    }
                }
            }
            Waiter::GpuStore | Waiter::Prefetch => {}
            Waiter::CpuLoad | Waiter::CpuStoreDrain => {
                unreachable!("CPU waiter at a GPU L2 slice")
            }
        }
    }

    /// Installs a line into a slice, handling the victim writeback.
    /// `push` distinguishes direct-store pushes (reported at the PutX
    /// site, where the push is classified) from demand fills.
    pub(super) fn fill_slice(&mut self, slice: u8, line: LineAddr, state: HammerState, push: bool) {
        let s = slice as usize;
        if !push {
            self.emit(
                Component::GpuL2 { slice },
                Some(line.index()),
                TraceKind::DemandFill,
            );
        }
        if let Some((victim, dirty)) = self.gpu_l2[s].fill(line, state) {
            self.emit(
                Component::GpuL2 { slice },
                Some(victim.index()),
                TraceKind::Evict { writeback: dirty },
            );
            if dirty {
                if self.mode.coherent() {
                    self.coh_send(
                        Agent::GpuL2(slice),
                        Agent::MemCtrl,
                        CohMsg::Put {
                            line: victim,
                            dirty,
                            requester: Agent::GpuL2(slice),
                        },
                    );
                } else {
                    self.dram_access(self.now, victim, true);
                }
            }
        }
    }

    /// Routes completed-miss waiters at a GPU L2 slice.
    pub(super) fn dispatch_slice_waiters(
        &mut self,
        slice: u8,
        line: LineAddr,
        granted: HammerState,
        waiters: Vec<Waiter>,
    ) {
        for w in waiters {
            match w {
                Waiter::Gpu { .. } => self.respond_gpu_load(slice, w, line),
                Waiter::Prefetch => {}
                Waiter::GpuStore => {
                    if granted != HammerState::MM {
                        // A store merged into a read's MSHR: upgrade.
                        self.sched(
                            self.now,
                            Ev::SliceDemand {
                                slice,
                                line,
                                write: true,
                                waiter: Waiter::GpuStore,
                                slotted: false,
                            },
                        );
                    }
                }
                Waiter::CpuLoad | Waiter::CpuStoreDrain => {
                    unreachable!("CPU waiter at a GPU L2 slice")
                }
            }
        }
    }

    /// Completion of a DS-only DRAM fill at a slice
    /// (`Ev::SliceMemDone`).
    pub(super) fn slice_mem_done(&mut self, slice: u8, line: LineAddr) {
        let s = slice as usize;
        let (kind, waiters) = self.gpu_l2[s].complete_miss(line);
        let state = match kind {
            ReqKind::GetX => HammerState::MM,
            ReqKind::GetS => HammerState::M,
        };
        self.fill_slice(slice, line, state, false);
        self.dispatch_slice_waiters(slice, line, state, waiters);
        self.drain_slice_stalled(slice);
    }

    /// Completion of the DRAM fill behind an uncached CPU read that
    /// missed at a slice (`Ev::DirectReadMemDone`).
    pub(super) fn direct_read_mem_done(&mut self, slice: u8, line: LineAddr) {
        // Install clean-exclusive: the GPU is the line's home.
        self.fill_slice(slice, line, HammerState::M, false);
        self.direct_send_to_cpu(slice, ds_coherence::DirectMsg::ReadResp { line }, None);
    }
}
