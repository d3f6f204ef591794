//! Coherence-network and direct-network message handlers: the timed
//! embedding of the Hammer hub and the direct-store path.

use ds_coherence::{
    transition, Action, Agent, CohMsg, DirectMsg, HammerState, HubAction, ProbeKind, ProtocolEvent,
    ReqKind,
};
use ds_mem::LineAddr;
use ds_probe::prof::{self, HostPhase};
use ds_probe::{Component, Stage, TraceKind, Tracer};

use super::{Ev, System};

impl<T: Tracer> System<T> {
    /// Dispatches a coherence message arriving at `dst` (`Ev::Coh`).
    pub(super) fn on_coh(&mut self, dst: Agent, msg: CohMsg) {
        let _prof = prof::span(HostPhase::Protocol);
        match dst {
            Agent::MemCtrl => self.at_hub(msg),
            Agent::CpuL2 => self.at_cpu_l2(msg),
            Agent::GpuL2(s) => self.at_slice(s, msg),
        }
    }

    /// Reports a GETS/GETX reaching the hub, and the transaction it
    /// opens unless one is already open on the line (then it queues).
    fn note_hub_request(&mut self, requester: Agent, line: LineAddr, write: bool) {
        let requester = cache_component(requester);
        self.emit(
            Component::Hub,
            Some(line.index()),
            TraceKind::HubRequest { requester, write },
        );
        if !self.hub.busy(line) {
            self.emit(
                Component::Hub,
                Some(line.index()),
                TraceKind::HubStart { requester, write },
            );
        }
    }

    fn at_hub(&mut self, msg: CohMsg) {
        let actions = match msg {
            CohMsg::GetS { line, requester } => {
                self.note_hub_request(requester, line, false);
                self.hub.on_request(ReqKind::GetS, line, requester)
            }
            CohMsg::GetX {
                line,
                requester,
                upgrade,
            } => {
                self.note_hub_request(requester, line, true);
                self.hub
                    .on_request_upgrade(ReqKind::GetX, line, requester, upgrade)
            }
            CohMsg::Put {
                line,
                dirty,
                requester,
            } => self.hub.on_put(line, dirty, requester),
            CohMsg::ProbeReply {
                line,
                from,
                with_data,
                retains_copy,
            } => self.hub.on_probe_reply(line, from, with_data, retains_copy),
            CohMsg::Unblock { line } => {
                self.emit(Component::Hub, Some(line.index()), TraceKind::HubDone);
                let actions = self.hub.on_unblock(line);
                // The hub may have promoted a queued same-line request
                // into a fresh transaction.
                if let Some((kind, requester)) = self.hub.open_request(line) {
                    self.emit(
                        Component::Hub,
                        Some(line.index()),
                        TraceKind::HubStart {
                            requester: cache_component(requester),
                            write: kind == ReqKind::GetX,
                        },
                    );
                }
                actions
            }
            other => unreachable!("unexpected message at hub: {other:?}"),
        };
        self.exec_hub_actions(actions);
    }

    fn exec_hub_actions(&mut self, actions: Vec<HubAction>) {
        for a in actions {
            match a {
                HubAction::SendProbe { to, line, kind } => {
                    self.coh_send(Agent::MemCtrl, to, CohMsg::Probe { line, kind });
                }
                HubAction::StartMemRead { line, txn } => {
                    let info = self.dram_access_info(self.now, line, false);
                    self.emit(
                        Component::Hub,
                        Some(line.index()),
                        TraceKind::HubDramRead {
                            start: info.start.as_u64(),
                            done: info.done.as_u64(),
                        },
                    );
                    self.sched(info.done, Ev::HubMemDone { line, txn });
                }
                HubAction::MemWrite { line } => {
                    self.dram_access(self.now, line, true);
                }
                HubAction::SendData {
                    to,
                    line,
                    exclusive,
                    from_mem,
                } => {
                    self.emit(
                        Component::Hub,
                        Some(line.index()),
                        TraceKind::HubGrant { from_mem },
                    );
                    self.coh_send(
                        Agent::MemCtrl,
                        to,
                        CohMsg::Data {
                            line,
                            exclusive,
                            from_mem,
                        },
                    );
                }
            }
        }
    }

    /// The hub's speculative DRAM read completed (`Ev::HubMemDone`).
    pub(super) fn on_hub_mem_done(&mut self, line: LineAddr, txn: u64) {
        let actions = self.hub.on_mem_done(line, txn);
        self.exec_hub_actions(actions);
    }

    fn at_cpu_l2(&mut self, msg: CohMsg) {
        match msg {
            CohMsg::Probe { line, kind } => {
                let (with_data, retains) = self.apply_probe_cpu(line, kind);
                self.coh_send(
                    Agent::CpuL2,
                    Agent::MemCtrl,
                    CohMsg::ProbeReply {
                        line,
                        from: Agent::CpuL2,
                        with_data,
                        retains_copy: retains,
                    },
                );
            }
            CohMsg::Data {
                line,
                exclusive,
                from_mem: _,
            } => {
                let (kind, waiters) = self.cpu_l2.complete_miss(line);
                let state = grant_state(kind, exclusive);
                self.fill_cpu_l2(line, state);
                self.coh_send(Agent::CpuL2, Agent::MemCtrl, CohMsg::Unblock { line });
                self.dispatch_cpu_waiters(line, state, waiters);
                self.drain_cpu_l2_stalled();
            }
            other => unreachable!("unexpected message at CPU L2: {other:?}"),
        }
    }

    fn at_slice(&mut self, slice: u8, msg: CohMsg) {
        match msg {
            CohMsg::Probe { line, kind } => {
                let (with_data, retains) = self.apply_probe_slice(slice, line, kind);
                self.coh_send(
                    Agent::GpuL2(slice),
                    Agent::MemCtrl,
                    CohMsg::ProbeReply {
                        line,
                        from: Agent::GpuL2(slice),
                        with_data,
                        retains_copy: retains,
                    },
                );
            }
            CohMsg::Data {
                line,
                exclusive,
                from_mem: _,
            } => {
                let s = slice as usize;
                // A demand fill replaces any push provenance.
                self.gpu_l2[s].pushed.remove(&line);
                let (kind, waiters) = self.gpu_l2[s].complete_miss(line);
                let state = grant_state(kind, exclusive);
                self.fill_slice(slice, line, state, false);
                self.coh_send(
                    Agent::GpuL2(slice),
                    Agent::MemCtrl,
                    CohMsg::Unblock { line },
                );
                self.dispatch_slice_waiters(slice, line, state, waiters);
                self.drain_slice_stalled(slice);
            }
            other => unreachable!("unexpected message at slice: {other:?}"),
        }
    }

    /// Applies a probe to the CPU L2 via the protocol table, returning
    /// `(with_data, retains_copy)` for the reply.
    fn apply_probe_cpu(&mut self, line: LineAddr, kind: ProbeKind) -> (bool, bool) {
        let Some(&state) = self.cpu_l2.array.probe(line) else {
            return (false, false);
        };
        let event = probe_event(kind);
        let t = transition(state, event).expect("probes are total over valid states");
        let next = t.stable_next().expect("probe transitions are immediate");
        if next == HammerState::I {
            self.cpu_l2.array.invalidate(line);
            // Inclusion: the L1D copy goes too.
            self.cpu_l1d.invalidate(line);
        } else if next != state {
            *self
                .cpu_l2
                .array
                .state_mut(line)
                .expect("probed line is resident") = next;
        }
        (
            t.actions.contains(&Action::SupplyData),
            next != HammerState::I,
        )
    }

    /// Applies a probe to a GPU L2 slice.
    fn apply_probe_slice(&mut self, slice: u8, line: LineAddr, kind: ProbeKind) -> (bool, bool) {
        // Hammer broadcasts to every cache, but a slice can only ever
        // hold lines it homes; probes for foreign lines miss by
        // construction.
        if ds_coherence::msg::slice_index(line) != slice {
            return (false, false);
        }
        let s = slice as usize;
        let Some(&state) = self.gpu_l2[s].array.probe(line) else {
            return (false, false);
        };
        let event = probe_event(kind);
        let t = transition(state, event).expect("probes are total over valid states");
        let next = t.stable_next().expect("probe transitions are immediate");
        if next == HammerState::I {
            self.gpu_l2[s].array.invalidate(line);
            self.gpu_l2[s].pushed.remove(&line);
            self.emit(
                Component::GpuL2 { slice },
                Some(line.index()),
                TraceKind::ProbeInvalidate,
            );
        } else if next != state {
            *self.gpu_l2[s]
                .array
                .state_mut(line)
                .expect("probed line is resident") = next;
        }
        (
            t.actions.contains(&Action::SupplyData),
            next != HammerState::I,
        )
    }

    /// Dispatches a direct-network message arriving at a slice
    /// (`Ev::DirectAtSlice`).
    pub(super) fn on_direct_at_slice(
        &mut self,
        slice: u8,
        msg: DirectMsg,
        slotted: bool,
        txn: Option<u64>,
    ) {
        let _prof = prof::span(HostPhase::PushPath);
        let s = slice as usize;
        // Pushes and uncached reads occupy the slice's service port
        // like any other access (control-only GETX rides along free).
        if !slotted && !matches!(msg, DirectMsg::GetX { .. }) {
            if let Err(at) = self.slice_slot(s) {
                self.sched(
                    at,
                    Ev::DirectAtSlice {
                        slice,
                        msg,
                        slotted: true,
                        txn,
                    },
                );
                return;
            }
        }
        match msg {
            DirectMsg::GetX { line } => {
                // Invalidate-only: the subsequent PUTX supersedes the
                // line's data, so no writeback is needed (§III.F: the
                // transition at the GPU L2 "always starts from state I
                // since before forwarding the data, the CPU will issue
                // GETX").
                if self.gpu_l2[s].array.invalidate(line).is_some() {
                    self.push_overwrites += 1;
                    self.gpu_l2[s].pushed.remove(&line);
                    self.emit(
                        Component::GpuL2 { slice },
                        Some(line.index()),
                        TraceKind::PushOverwrite,
                    );
                }
            }
            DirectMsg::PutX { line } => {
                // The push is at the slice: everything from here to
                // the acknowledgement is the ack leg.
                self.emit_stage(txn, Stage::DirectAck, self.now);
                // §III.A: "If the GPU L2 cache is full, the system then
                // writes data to DRAM" — a push finding its set full
                // bypasses to memory rather than evicting resident
                // (potentially useful) lines.
                if self.gpu_l2[s].array.probe(line).is_none()
                    && self.gpu_l2[s].array.set_is_full(line)
                {
                    self.push_bypasses += 1;
                    self.emit(
                        Component::GpuL2 { slice },
                        Some(line.index()),
                        TraceKind::PushBypass,
                    );
                    self.dram_access(self.now, line, true);
                    self.direct_send_to_cpu(slice, DirectMsg::PutXAck { line }, txn);
                    return;
                }
                // The blue dashed Fig. 3 edge: I -> MM on the pushed
                // store.
                let t = transition(HammerState::I, ProtocolEvent::PutXArrive)
                    .expect("PutX from I is defined");
                debug_assert_eq!(t.stable_next(), Some(HammerState::MM));
                self.gpu_l2[s].stats.pushed_fills.incr();
                self.gpu_l2[s].classifier.mark_seen(line);
                self.emit(
                    Component::GpuL2 { slice },
                    Some(line.index()),
                    TraceKind::PushFill,
                );
                self.fill_slice(slice, line, HammerState::MM, true);
                self.gpu_l2[s].pushed.insert(line);
                self.direct_send_to_cpu(slice, DirectMsg::PutXAck { line }, txn);
            }
            DirectMsg::ReadReq { line } => {
                // Uncached CPU read of GPU-homed data.
                if self.gpu_l2[s]
                    .array
                    .access(line)
                    .is_some_and(|st| st.can_read())
                {
                    self.gpu_l2[s].record_hit(line);
                    self.note_slice_hit(slice, line, false, false);
                    self.direct_send_to_cpu(slice, DirectMsg::ReadResp { line }, None);
                } else {
                    let miss_kind = self.gpu_l2[s].record_miss(line);
                    self.note_slice_miss(slice, line, false, miss_kind, false);
                    let done = self.dram_access(self.now + self.cfg.gpu_l2_latency, line, false);
                    self.sched(done, Ev::DirectReadMemDone { slice, line });
                }
            }
            other => unreachable!("unexpected direct message at slice: {other:?}"),
        }
    }
}

/// The trace component of a requesting cache.
fn cache_component(agent: Agent) -> Component {
    match agent {
        Agent::CpuL2 => Component::CpuL2,
        Agent::GpuL2(slice) => Component::GpuL2 { slice },
        Agent::MemCtrl => unreachable!("the memory controller never requests a line"),
    }
}

fn probe_event(kind: ProbeKind) -> ProtocolEvent {
    match kind {
        ProbeKind::Shared => ProtocolEvent::ProbeShared,
        ProbeKind::Invalidate => ProtocolEvent::ProbeInv,
    }
}

fn grant_state(kind: ReqKind, exclusive: bool) -> HammerState {
    match kind {
        ReqKind::GetX => HammerState::MM,
        ReqKind::GetS => {
            if exclusive {
                HammerState::M
            } else {
                HammerState::S
            }
        }
    }
}
