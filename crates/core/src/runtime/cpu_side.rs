//! CPU-side event handlers: the in-order core, TLB, store buffer and
//! the two CPU cache levels.
//!
//! Timing convention: `Ev::CpuL2Access` events are scheduled with the
//! L1 + L2 access latencies already elapsed, so handlers act at their
//! event time. Coherence-network latencies are applied by the `Xbar`
//! when messages are sent.

use ds_cache::{LineState, MissKind, MshrOutcome};
use ds_coherence::{Agent, CohMsg, DirectMsg, HammerState, ReqKind};
use ds_cpu::CpuOp;
use ds_gpu::L1Valid;
use ds_mem::{LineAddr, VirtAddr};
use ds_noc::{MsgClass, PortId};
use ds_probe::prof::{self, HostPhase};
use ds_probe::{Component, NetId, Stage, TraceKind, Tracer};

use super::{CpuBlock, Delivery, Ev, System, Waiter};
use crate::fault::{FaultDomain, SimAbort};

/// Fixed cost of dispatching a kernel launch from the CPU to the GPU
/// front-end (driver + command processor), in cycles.
pub(super) const KERNEL_LAUNCH_OVERHEAD: u64 = 500;

impl<T: Tracer> System<T> {
    /// Sends a coherence-network message and schedules its arrival.
    pub(super) fn coh_send(&mut self, src: Agent, dst: Agent, msg: CohMsg) {
        let _prof = prof::span(HostPhase::NocTick);
        let class = if msg.carries_data() {
            MsgClass::Data
        } else {
            MsgClass::Control
        };
        let (sp, dp) = (src.port_index(), dst.port_index());
        let info = self
            .coh_net
            .send_info(self.now, PortId(sp), PortId(dp), class);
        self.emit(
            Component::Net {
                net: NetId::Coherence,
            },
            Some(msg.line().index()),
            TraceKind::NetMsg {
                src: sp as u8,
                dst: dp as u8,
                data: class == MsgClass::Data,
                start: info.start.as_u64(),
                depart: info.depart.as_u64(),
                arrive: info.arrival.as_u64(),
            },
        );
        match self.fault_delivery(FaultDomain::CohNet, info.arrival) {
            Delivery::Deliver(at) => self.sched(at, Ev::Coh { dst, msg }),
            Delivery::Drop => {}
            Delivery::Duplicate(a, b) => {
                self.sched(a, Ev::Coh { dst, msg });
                self.sched(b, Ev::Coh { dst, msg });
            }
        }
    }

    /// Sends a direct-network message over ports `src → dst`, reporting
    /// the link occupancy, and returns the arrival time.
    fn direct_send(&mut self, src: usize, dst: usize, msg: &DirectMsg) -> ds_sim::Cycle {
        let _prof = prof::span(HostPhase::NocTick);
        let class = if msg.carries_data() {
            MsgClass::Data
        } else {
            MsgClass::Control
        };
        let info = self
            .direct_net
            .send_info(self.now, PortId(src), PortId(dst), class);
        self.emit(
            Component::Net { net: NetId::Direct },
            Some(msg.line().index()),
            TraceKind::NetMsg {
                src: src as u8,
                dst: dst as u8,
                data: class == MsgClass::Data,
                start: info.start.as_u64(),
                depart: info.depart.as_u64(),
                arrive: info.arrival.as_u64(),
            },
        );
        info.arrival
    }

    /// Sends a direct-network message from the CPU to a slice. `txn`
    /// is the stage-accounting transaction riding the message, if any.
    pub(super) fn direct_send_to_slice(&mut self, slice: u8, msg: DirectMsg, txn: Option<u64>) {
        let arrival = self.direct_send(0, 1 + slice as usize, &msg);
        let ev = Ev::DirectAtSlice {
            slice,
            msg,
            slotted: false,
            txn,
        };
        match self.fault_delivery(FaultDomain::DirectNet, arrival) {
            Delivery::Deliver(at) => self.sched(at, ev),
            Delivery::Drop => {}
            Delivery::Duplicate(a, b) => {
                self.sched(a, ev);
                self.sched(b, ev);
            }
        }
    }

    /// Sends a direct-network message from a slice back to the CPU.
    pub(super) fn direct_send_to_cpu(&mut self, slice: u8, msg: DirectMsg, txn: Option<u64>) {
        let arrival = self.direct_send(1 + slice as usize, 0, &msg);
        match self.fault_delivery(FaultDomain::DirectNet, arrival) {
            Delivery::Deliver(at) => self.sched(at, Ev::DirectAtCpu { msg, txn }),
            Delivery::Drop => {}
            Delivery::Duplicate(a, b) => {
                self.sched(a, Ev::DirectAtCpu { msg, txn });
                self.sched(b, Ev::DirectAtCpu { msg, txn });
            }
        }
    }

    fn translate_cpu(&mut self, va: VirtAddr) -> (LineAddr, bool, u64) {
        let look = self.tlb.lookup(va);
        let mut cost = 1;
        let missed = !look.is_hit();
        if missed {
            cost += self.cfg.tlb_miss_penalty;
            let is_direct = look.is_direct;
            let ppn = self
                .space
                .page_table_mut()
                .translate_or_alloc(look.vpn, is_direct);
            self.tlb.fill(look.vpn, ppn);
        }
        let pa = self.space.translate(va);
        let line = LineAddr::containing(pa);
        if missed {
            self.emit(Component::CpuTlb, Some(line.index()), TraceKind::TlbMiss);
        }
        (line, look.is_direct, cost)
    }

    /// Executes the CPU's next program operation (`Ev::CpuAdvance`).
    pub(super) fn cpu_advance(&mut self) {
        if self.cpu.block != CpuBlock::None {
            // Stale wake-up; the real resume event will follow.
            return;
        }
        let Some(&op) = self.cpu.program.ops().get(self.cpu.pc) else {
            self.cpu.block = CpuBlock::Finished;
            return;
        };
        match op {
            CpuOp::Compute(n) => {
                self.cpu.pc += 1;
                self.queue
                    .push(self.now + u64::from(n.max(1)), Ev::CpuAdvance);
            }
            CpuOp::Launch(k) => {
                self.cpu.pc += 1;
                assert!(k < self.kernels.len(), "launch of unknown kernel {k}");
                self.kernel_queue.push_back(k);
                if self.running_kernel.is_none() && self.kernel_queue.len() == 1 {
                    self.queue
                        .push(self.now + KERNEL_LAUNCH_OVERHEAD, Ev::KernelStart);
                }
                self.sched(self.now + 1, Ev::CpuAdvance);
            }
            CpuOp::WaitGpu => {
                self.cpu.pc += 1;
                if self.running_kernel.is_some() || !self.kernel_queue.is_empty() {
                    self.cpu.block = CpuBlock::Gpu;
                } else {
                    self.sched(self.now + 1, Ev::CpuAdvance);
                }
            }
            CpuOp::Store(va) => self.cpu_store(va),
            CpuOp::Load(va) => self.cpu_load(va),
        }
    }

    fn cpu_store(&mut self, va: VirtAddr) {
        let (line, is_direct, cost) = self.translate_cpu(va);
        let push = is_direct && self.mode.pushes();
        let before = self.sb.len();
        if self.sb.push(line, push) {
            self.emit(
                Component::Cpu,
                Some(line.index()),
                TraceKind::CpuStore { push },
            );
            if self.sb.len() > before {
                // A genuinely new entry (not a same-line coalesce):
                // mirror it in the txn FIFO. Only direct pushes are
                // tracked; coalesced stores join the first store's
                // transaction (one drain serves them all).
                let txn = if push {
                    let txn = self.next_txn();
                    self.emit(
                        Component::Txn,
                        None,
                        TraceKind::TxnBegin {
                            txn,
                            stage: Stage::SbWait,
                        },
                    );
                    Some(txn)
                } else {
                    None
                };
                self.sb_txns.push_back(txn);
            }
            self.cpu.pc += 1;
            self.sched(self.now + cost, Ev::CpuAdvance);
            self.kick_drain();
        } else {
            // Buffer full: retry this op when a drain completes.
            self.cpu.block = CpuBlock::SbFull;
            self.kick_drain();
        }
    }

    fn cpu_load(&mut self, va: VirtAddr) {
        let (line, is_direct, cost) = self.translate_cpu(va);
        self.cpu.pc += 1;
        if is_direct && self.mode.pushes() {
            // Uncacheable on the CPU side: read through the direct
            // network from the home slice (§III.E).
            self.cpu.block = CpuBlock::Load;
            self.direct_send_to_slice(
                ds_coherence::msg::slice_index(line),
                DirectMsg::ReadReq { line },
                None,
            );
            return;
        }
        if self.sb.contains(line) || self.inflight_stores.iter().any(|(e, _)| e.line == line) {
            // Store-to-load forwarding (buffered or draining stores).
            self.sched(self.now + cost, Ev::CpuAdvance);
            return;
        }
        if self.cpu_l1d.access(line).is_some() {
            self.cpu_l1_stats.record_hit();
            self.emit(
                Component::CpuL1,
                Some(line.index()),
                TraceKind::Hit {
                    write: false,
                    push_hit: false,
                    gpu: false,
                },
            );
            self.queue
                .push(self.now + cost + self.cfg.cpu_l1_latency, Ev::CpuAdvance);
            return;
        }
        self.cpu_l1_stats.record_miss(MissKind::NonCompulsory);
        self.emit(
            Component::CpuL1,
            Some(line.index()),
            TraceKind::Miss {
                write: false,
                compulsory: false,
                gpu: false,
            },
        );
        self.cpu.block = CpuBlock::Load;
        self.sched(
            self.now + cost + self.cfg.cpu_l1_latency + self.cfg.cpu_l2_latency,
            Ev::CpuL2Access { line, write: false },
        );
    }

    /// Resumes the CPU after a blocking load completes.
    pub(super) fn resume_cpu_load(&mut self) {
        debug_assert_eq!(self.cpu.block, CpuBlock::Load);
        self.cpu.block = CpuBlock::None;
        self.sched(self.now + 1, Ev::CpuAdvance);
    }

    /// Schedules a store-buffer drain attempt if capacity allows.
    pub(super) fn kick_drain(&mut self) {
        if self.inflight_stores.len() < self.cfg.store_drain_parallelism && !self.sb.is_empty() {
            self.sched(self.now, Ev::SbDrain);
        }
    }

    /// Starts draining store-buffer entries up to the drain
    /// parallelism limit (`Ev::SbDrain`).
    pub(super) fn sb_drain(&mut self) {
        let _prof = prof::span(HostPhase::PushPath);
        while self.inflight_stores.len() < self.cfg.store_drain_parallelism {
            let Some(entry) = self.sb.pop() else {
                break;
            };
            let txn = self.sb_txns.pop_front().flatten();
            self.inflight_stores.push((entry, self.now));
            self.emit(
                Component::StoreBuffer,
                Some(entry.line.index()),
                TraceKind::SbDrain {
                    direct: entry.is_direct,
                },
            );
            // Popping freed buffer space: a stalled store can retry.
            if self.cpu.block == CpuBlock::SbFull {
                self.cpu.block = CpuBlock::None;
                self.sched(self.now + 1, Ev::CpuAdvance);
            }
            if entry.is_direct {
                // §III.F: the CPU issues a GETX on the direct network,
                // then the store travels as a PUTX. The GETX is an
                // invalidate-only control message to the home slice.
                // The stage transaction rides the PUTX (the message
                // whose acknowledgement completes the push).
                self.emit_stage(txn, Stage::DirectNoc, self.now);
                self.pushes_attempted += 1;
                if self.faults.retries_enabled() {
                    let txn = txn.expect("direct entries are always tracked");
                    self.inflight_pushes.insert(
                        txn,
                        super::PushTrack {
                            line: entry.line,
                            attempt: 0,
                        },
                    );
                    self.sched(
                        self.now + self.faults.backoff(0),
                        Ev::PushTimeout { txn, attempt: 0 },
                    );
                }
                let slice = ds_coherence::msg::slice_index(entry.line);
                self.direct_send_to_slice(slice, DirectMsg::GetX { line: entry.line }, None);
                self.direct_send_to_slice(slice, DirectMsg::PutX { line: entry.line }, txn);
            } else {
                // Write-through the L1D (update-in-place, no allocate).
                if self.cpu_l1d.access(entry.line).is_some() {
                    self.cpu_l1_stats.record_hit();
                }
                self.sched(
                    self.now + self.cfg.cpu_l1_latency + self.cfg.cpu_l2_latency,
                    Ev::CpuL2Access {
                        line: entry.line,
                        write: true,
                    },
                );
            }
        }
    }

    /// Finishes an in-flight drain of `line` and kicks the next one.
    /// Returns the cycle the drain began (for end-to-end latency).
    pub(super) fn complete_drain(&mut self, line: LineAddr) -> ds_sim::Cycle {
        let pos = self
            .inflight_stores
            .iter()
            .position(|(e, _)| e.line == line)
            .unwrap_or_else(|| panic!("drain completion for idle {line}"));
        let (_, started) = self.inflight_stores.swap_remove(pos);
        self.kick_drain();
        started
    }

    /// A demand access arrives at the CPU L2 (`Ev::CpuL2Access`; tag
    /// latency already elapsed).
    pub(super) fn cpu_l2_access(&mut self, line: LineAddr, write: bool) {
        let _prof = prof::span(HostPhase::CacheLookup);
        if !write {
            if self.cpu_l2.array.access(line).is_some_and(|s| s.can_read()) {
                self.cpu_l2.record_hit(line);
                self.emit(
                    Component::CpuL2,
                    Some(line.index()),
                    TraceKind::Hit {
                        write: false,
                        push_hit: false,
                        gpu: false,
                    },
                );
                self.fill_cpu_l1(line);
                self.resume_cpu_load();
                return;
            }
            self.cpu_l2_miss(line, ReqKind::GetS, Waiter::CpuLoad);
        } else {
            match self.cpu_l2.array.access(line).copied() {
                Some(HammerState::MM) => {
                    self.cpu_l2.record_hit(line);
                    self.emit(
                        Component::CpuL2,
                        Some(line.index()),
                        TraceKind::Hit {
                            write: true,
                            push_hit: false,
                            gpu: false,
                        },
                    );
                    self.complete_drain(line);
                }
                Some(HammerState::M) => {
                    // Silent E-like upgrade (Fig. 3: M + Store -> MM).
                    *self
                        .cpu_l2
                        .array
                        .state_mut(line)
                        .expect("state checked above") = HammerState::MM;
                    self.cpu_l2.record_hit(line);
                    self.emit(
                        Component::CpuL2,
                        Some(line.index()),
                        TraceKind::Hit {
                            write: true,
                            push_hit: false,
                            gpu: false,
                        },
                    );
                    self.complete_drain(line);
                }
                Some(HammerState::S) | Some(HammerState::O) | Some(HammerState::I) | None => {
                    // Write miss or upgrade: needs a GETX.
                    self.cpu_l2_miss(line, ReqKind::GetX, Waiter::CpuStoreDrain);
                }
            }
        }
    }

    fn cpu_l2_miss(&mut self, line: LineAddr, kind: ReqKind, waiter: Waiter) {
        // A GETX from a valid (S/O) copy is a data-less upgrade.
        let upgrade =
            kind == ReqKind::GetX && self.cpu_l2.array.probe(line).is_some_and(|s| s.is_valid());
        match self.cpu_l2.alloc_miss(line, kind, waiter) {
            MshrOutcome::Primary => {
                let miss_kind = self.cpu_l2.record_miss(line);
                self.emit(
                    Component::CpuL2,
                    Some(line.index()),
                    TraceKind::Miss {
                        write: kind == ReqKind::GetX,
                        compulsory: miss_kind == MissKind::Compulsory,
                        gpu: false,
                    },
                );
                if self.mode.coherent() {
                    let msg = match kind {
                        ReqKind::GetS => CohMsg::GetS {
                            line,
                            requester: Agent::CpuL2,
                        },
                        ReqKind::GetX => CohMsg::GetX {
                            line,
                            requester: Agent::CpuL2,
                            upgrade,
                        },
                    };
                    self.coh_send(Agent::CpuL2, Agent::MemCtrl, msg);
                } else {
                    // DS-only mode: no coherence; fetch straight from
                    // DRAM. (For a full-line write the fetch is still
                    // modelled — conservative.)
                    let done = self.dram_access(self.now, line, false);
                    self.sched(done, Ev::CpuL2MemDone { line });
                }
            }
            MshrOutcome::Secondary => {
                let miss_kind = self.cpu_l2.record_miss(line);
                self.emit(
                    Component::CpuL2,
                    Some(line.index()),
                    TraceKind::Miss {
                        write: kind == ReqKind::GetX,
                        compulsory: miss_kind == MissKind::Compulsory,
                        gpu: false,
                    },
                );
            }
            MshrOutcome::Full => {
                // Stall until an MSHR frees (drained by completions).
                let write = kind == ReqKind::GetX;
                self.cpu_l2_stalled.push_back((line, write));
            }
        }
    }

    /// Re-dispatches CPU L2 accesses stalled on a full MSHR file.
    pub(super) fn drain_cpu_l2_stalled(&mut self) {
        while !self.cpu_l2.mshr.is_full() {
            let Some((line, write)) = self.cpu_l2_stalled.pop_front() else {
                break;
            };
            self.sched(self.now, Ev::CpuL2Access { line, write });
        }
    }

    /// Installs a granted line into the CPU L2, handling the victim.
    pub(super) fn fill_cpu_l2(&mut self, line: LineAddr, state: HammerState) {
        if let Some((victim, dirty)) = self.cpu_l2.fill(line, state) {
            // Maintain L1D inclusion; clean victims drop silently
            // (Fig. 3: S/M + Replacement).
            self.cpu_l1d.invalidate(victim);
            if dirty {
                if self.mode.coherent() {
                    self.coh_send(
                        Agent::CpuL2,
                        Agent::MemCtrl,
                        CohMsg::Put {
                            line: victim,
                            dirty,
                            requester: Agent::CpuL2,
                        },
                    );
                } else {
                    self.dram_access(self.now, victim, true);
                }
            }
        }
    }

    pub(super) fn fill_cpu_l1(&mut self, line: LineAddr) {
        if self.cpu_l1d.fill(line, L1Valid).is_some() {
            self.cpu_l1_stats.evictions.incr();
        }
    }

    /// Completion of a DS-only (non-coherent) DRAM fill for the CPU L2.
    pub(super) fn cpu_l2_mem_done(&mut self, line: LineAddr) {
        let (kind, waiters) = self.cpu_l2.complete_miss(line);
        let state = match kind {
            ReqKind::GetX => HammerState::MM,
            ReqKind::GetS => HammerState::M,
        };
        self.fill_cpu_l2(line, state);
        self.dispatch_cpu_waiters(line, state, waiters);
        self.drain_cpu_l2_stalled();
    }

    /// Routes completed-miss waiters at the CPU L2.
    pub(super) fn dispatch_cpu_waiters(
        &mut self,
        line: LineAddr,
        granted: HammerState,
        waiters: Vec<Waiter>,
    ) {
        for w in waiters {
            match w {
                Waiter::CpuLoad => {
                    self.fill_cpu_l1(line);
                    self.resume_cpu_load();
                }
                Waiter::CpuStoreDrain => {
                    if granted == HammerState::MM {
                        self.complete_drain(line);
                    } else {
                        // Granted shared (a load's GETS won the MSHR):
                        // the store retries and upgrades.
                        self.queue
                            .push(self.now, Ev::CpuL2Access { line, write: true });
                    }
                }
                Waiter::Gpu { .. } | Waiter::GpuStore | Waiter::Prefetch => {
                    unreachable!("GPU waiter registered at the CPU L2")
                }
            }
        }
    }

    /// Handles direct-network messages arriving back at the CPU.
    pub(super) fn on_direct_at_cpu(&mut self, msg: DirectMsg, txn: Option<u64>) {
        let _prof = prof::span(HostPhase::PushPath);
        match msg {
            DirectMsg::PutXAck { line } => {
                if self.faults.retries_enabled() {
                    // Under the retry protocol an ack only counts if
                    // the push is still tracked: duplicated acks,
                    // acks from superseded attempts, and acks landing
                    // after degradation are all stale.
                    let tracked = txn.is_some_and(|t| self.inflight_pushes.remove(&t).is_some());
                    if !tracked {
                        return;
                    }
                } else if self.faults.is_active()
                    && !self.inflight_stores.iter().any(|(e, _)| e.line == line)
                {
                    // Faults without retries: a duplicated ack can
                    // arrive for a drain that already completed.
                    return;
                }
                self.direct_pushes += 1;
                if let Some(txn) = txn {
                    self.emit(Component::Txn, None, TraceKind::TxnDone { txn });
                }
                let started = self.complete_drain(line);
                let latency = self.now.saturating_since(started);
                self.emit(
                    Component::StoreBuffer,
                    Some(line.index()),
                    TraceKind::PushDone { latency },
                );
            }
            DirectMsg::ReadResp { .. } => {
                // A duplicated response can land after the original
                // already resumed the CPU; only the first one counts.
                if self.faults.is_active() && self.cpu.block != CpuBlock::Load {
                    return;
                }
                self.resume_cpu_load();
            }
            other => unreachable!("unexpected direct message at CPU: {other:?}"),
        }
    }

    /// The ack timeout for a tracked push fired (`Ev::PushTimeout`).
    /// Re-sends the push with exponential backoff up to `max_retries`,
    /// then degrades it to the CCSM demand path: write the line to its
    /// DRAM home and let the GPU miss on it.
    pub(super) fn on_push_timeout(&mut self, txn: u64, attempt: u32) {
        let _prof = prof::span(HostPhase::PushPath);
        let Some(track) = self.inflight_pushes.get(&txn).copied() else {
            return; // Acked (or degraded) before the timeout fired.
        };
        if track.attempt != attempt {
            return; // Stale timeout from a superseded attempt.
        }
        let line = track.line;
        if attempt >= self.faults.max_retries {
            self.inflight_pushes.remove(&txn);
            self.pushes_degraded += 1;
            self.emit(
                Component::StoreBuffer,
                Some(line.index()),
                TraceKind::PushDegraded,
            );
            self.dram_access(self.now, line, true);
            self.emit(Component::Txn, None, TraceKind::TxnDone { txn });
            self.complete_drain(line);
            return;
        }
        let count = {
            let r = self.push_line_retries.entry(line.index()).or_insert(0);
            *r += 1;
            *r
        };
        if count > self.faults.livelock_retries {
            let diag = self.chaos_diagnostic(&format!("line {line} retried {count} times"));
            self.abort = Some(SimAbort::Livelock(diag));
            return;
        }
        let next = attempt + 1;
        if let Some(t) = self.inflight_pushes.get_mut(&txn) {
            t.attempt = next;
        }
        self.pushes_retried += 1;
        self.emit_stage(Some(txn), Stage::DirectNoc, self.now);
        let slice = ds_coherence::msg::slice_index(line);
        self.direct_send_to_slice(slice, DirectMsg::GetX { line }, None);
        self.direct_send_to_slice(slice, DirectMsg::PutX { line }, Some(txn));
        self.sched(
            self.now + self.faults.backoff(next),
            Ev::PushTimeout { txn, attempt: next },
        );
    }
}
