//! The memory-side broadcast hub.
//!
//! Hammer keeps no directory: a request reaching the memory controller
//! broadcasts probes to every other cache and speculatively fetches
//! from DRAM; the hub aggregates probe replies and grants the data to
//! the requester with shared or exclusive permission. One transaction
//! per line is in flight at a time — conflicting requests queue in
//! arrival order, which is how the protocol serializes racing writers.
//!
//! The hub is an *untimed* state machine: each `on_*` method returns
//! the [`HubAction`]s the surrounding timed model must perform
//! (sending probes over the network, starting DRAM accesses, granting
//! data). This keeps the protocol logic deterministic and directly
//! unit-testable.

use std::collections::{HashMap, HashSet, VecDeque};

use ds_mem::LineAddr;
use ds_sim::Counter;

use crate::{Agent, ProbeKind};

/// The two demand request kinds the hub serves. Writebacks
/// ([`Hub::on_put`]) are not transactions — they complete immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// Read request; may be granted exclusive if no cache holds a copy.
    GetS,
    /// Exclusive (write) request; every other copy is invalidated.
    GetX,
}

impl std::fmt::Display for ReqKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReqKind::GetS => write!(f, "GETS"),
            ReqKind::GetX => write!(f, "GETX"),
        }
    }
}

/// An action the timed model must perform on the hub's behalf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HubAction {
    /// Send a probe to a cache over the coherence network.
    SendProbe {
        /// Destination cache.
        to: Agent,
        /// Probed line.
        line: LineAddr,
        /// Shared or invalidate.
        kind: ProbeKind,
    },
    /// Begin a speculative DRAM read for the line on behalf of
    /// transaction `txn` (echoed back via [`Hub::on_mem_done`] so
    /// stale completions for finished transactions are discarded).
    StartMemRead {
        /// Fetched line.
        line: LineAddr,
        /// Transaction identifier.
        txn: u64,
    },
    /// Write the line back to DRAM (writeback or dirty probe data).
    MemWrite {
        /// Written line.
        line: LineAddr,
    },
    /// Grant the line to the requester.
    SendData {
        /// Destination (the transaction's requester).
        to: Agent,
        /// Granted line.
        line: LineAddr,
        /// Whether exclusive permission is granted.
        exclusive: bool,
        /// Whether DRAM supplied the data (false: a cache owner did).
        from_mem: bool,
    },
}

/// Aggregate hub statistics.
#[derive(Debug, Clone)]
pub struct HubStats {
    /// Transactions started (GETS + GETX).
    pub transactions: Counter,
    /// Probes broadcast.
    pub probes_sent: Counter,
    /// Speculative DRAM reads issued.
    pub mem_reads: Counter,
    /// DRAM writes issued (writebacks + dirty probe data).
    pub mem_writes: Counter,
    /// Requests that queued behind an in-flight same-line transaction.
    pub conflicts: Counter,
    /// Speculative DRAM reads whose result was discarded because a
    /// cache owner supplied the data first.
    pub mem_discards: Counter,
    /// Writebacks arriving while a transaction on the line was in
    /// flight.
    pub racy_writebacks: Counter,
    /// Probes the directory filter suppressed (always zero in
    /// broadcast mode).
    pub probes_filtered: Counter,
}

impl HubStats {
    fn new() -> Self {
        HubStats {
            transactions: Counter::new("hub_transactions"),
            probes_sent: Counter::new("hub_probes_sent"),
            mem_reads: Counter::new("hub_mem_reads"),
            mem_writes: Counter::new("hub_mem_writes"),
            conflicts: Counter::new("hub_conflicts"),
            mem_discards: Counter::new("hub_mem_discards"),
            racy_writebacks: Counter::new("hub_racy_writebacks"),
            probes_filtered: Counter::new("hub_probes_filtered"),
        }
    }
}

#[derive(Debug)]
struct Txn {
    id: u64,
    kind: ReqKind,
    upgrade: bool,
    requester: Agent,
    pending_probes: usize,
    owner_data: bool,
    any_copy_retained: bool,
    mem_done: bool,
    data_sent: bool,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    kind: ReqKind,
    upgrade: bool,
    requester: Agent,
}

/// The broadcast hub. See the [module documentation](self) for the
/// protocol it implements and `ds-core` for the timed embedding.
///
/// # Examples
///
/// A GETS finding no cached copy is granted exclusive from memory:
///
/// ```
/// use ds_coherence::{Agent, Hub, HubAction, ReqKind};
/// use ds_mem::LineAddr;
///
/// let mut hub = Hub::new();
/// let line = LineAddr::from_index(7);
/// let actions = hub.on_request(ReqKind::GetS, line, Agent::CpuL2);
/// // Four probes (one per GPU L2 slice) plus the speculative memory read.
/// assert_eq!(actions.len(), 5);
/// for a in &actions[..4] {
///     assert!(matches!(a, HubAction::SendProbe { .. }));
/// }
/// // All probes miss...
/// for slice in 0..4 {
///     let done = hub.on_probe_reply(line, Agent::GpuL2(slice), false, false);
///     assert!(done.is_empty());
/// }
/// // ...so the memory data completes the transaction, exclusively.
/// let grant = hub.on_mem_done(line, 0);
/// assert_eq!(
///     grant,
///     vec![HubAction::SendData {
///         to: Agent::CpuL2,
///         line,
///         exclusive: true,
///         from_mem: true
///     }]
/// );
/// ```
#[derive(Debug)]
pub struct Hub {
    inflight: HashMap<LineAddr, Txn>,
    queued: HashMap<LineAddr, VecDeque<Pending>>,
    next_txn: u64,
    /// When `Some`, the hub runs in *directory-filtered* mode: it
    /// tracks a conservative superset of each line's holders and
    /// probes only those, instead of broadcasting — the
    /// directory-style optimization of heterogeneous system coherence
    /// (Power et al., MICRO'13), which the paper discusses as related
    /// work. `None` is faithful Hammer broadcast.
    directory: Option<HashMap<LineAddr, HashSet<Agent>>>,
    stats: HubStats,
}

impl Hub {
    /// Creates an idle hub.
    pub fn new() -> Self {
        Hub {
            inflight: HashMap::new(),
            queued: HashMap::new(),
            next_txn: 0,
            directory: None,
            stats: HubStats::new(),
        }
    }

    /// Creates a hub with the directory filter enabled: probes go only
    /// to caches the directory believes may hold the line, eliminating
    /// most broadcast traffic (see the `ablate_directory` study).
    pub fn new_with_directory() -> Self {
        let mut hub = Self::new();
        hub.directory = Some(HashMap::new());
        hub
    }

    /// Whether the directory filter is active.
    pub fn has_directory(&self) -> bool {
        self.directory.is_some()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &HubStats {
        &self.stats
    }

    /// Whether a transaction on `line` is in flight.
    pub fn busy(&self, line: LineAddr) -> bool {
        self.inflight.contains_key(&line)
    }

    /// The request kind and requester of the transaction in flight on
    /// `line`, if any.
    pub fn open_request(&self, line: LineAddr) -> Option<(ReqKind, Agent)> {
        self.inflight.get(&line).map(|t| (t.kind, t.requester))
    }

    /// Number of transactions currently in flight.
    pub fn inflight_count(&self) -> usize {
        self.inflight.len()
    }

    /// Handles a GETS/GETX arriving from `requester`.
    ///
    /// Returns the probe broadcast plus speculative memory read, or
    /// nothing if the request queued behind an in-flight transaction.
    pub fn on_request(
        &mut self,
        kind: ReqKind,
        line: LineAddr,
        requester: Agent,
    ) -> Vec<HubAction> {
        self.on_request_upgrade(kind, line, requester, false)
    }

    /// Like [`Hub::on_request`], with the GETX upgrade flag: an
    /// upgrading requester already holds the data, so the hub skips the
    /// speculative memory fetch and grants as soon as every probe has
    /// been acknowledged.
    pub fn on_request_upgrade(
        &mut self,
        kind: ReqKind,
        line: LineAddr,
        requester: Agent,
        upgrade: bool,
    ) -> Vec<HubAction> {
        debug_assert!(!upgrade || kind == ReqKind::GetX, "only GETX can upgrade");
        if self.busy(line) {
            self.stats.conflicts.incr();
            self.queued.entry(line).or_default().push_back(Pending {
                kind,
                upgrade,
                requester,
            });
            return Vec::new();
        }
        self.start(kind, line, requester, upgrade)
    }

    fn start(
        &mut self,
        kind: ReqKind,
        line: LineAddr,
        requester: Agent,
        upgrade: bool,
    ) -> Vec<HubAction> {
        self.stats.transactions.incr();
        let probe_kind = match kind {
            ReqKind::GetS => ProbeKind::Shared,
            ReqKind::GetX => ProbeKind::Invalidate,
        };
        let mut actions = Vec::new();
        let mut pending = 0;
        for cache in Agent::caches() {
            if cache == requester {
                continue;
            }
            if let Some(dir) = &self.directory {
                let may_hold = dir.get(&line).is_some_and(|h| h.contains(&cache));
                if !may_hold {
                    self.stats.probes_filtered.incr();
                    continue;
                }
            }
            actions.push(HubAction::SendProbe {
                to: cache,
                line,
                kind: probe_kind,
            });
            pending += 1;
        }
        self.stats.probes_sent.add(pending as u64);
        let id = self.next_txn;
        self.next_txn += 1;
        if !upgrade {
            actions.push(HubAction::StartMemRead { line, txn: id });
            self.stats.mem_reads.incr();
        }
        self.inflight.insert(
            line,
            Txn {
                id,
                kind,
                upgrade,
                requester,
                pending_probes: pending,
                owner_data: false,
                any_copy_retained: false,
                mem_done: false,
                data_sent: false,
            },
        );
        actions
    }

    /// Handles a probe reply.
    ///
    /// `with_data` marks an owner response; `retains_copy` marks a
    /// sharer that keeps its copy (relevant to GETS exclusivity).
    ///
    /// # Panics
    ///
    /// Panics if no transaction is in flight for `line` — probe replies
    /// can only exist for lines the hub probed.
    pub fn on_probe_reply(
        &mut self,
        line: LineAddr,
        _from: Agent,
        with_data: bool,
        retains_copy: bool,
    ) -> Vec<HubAction> {
        let txn = self
            .inflight
            .get_mut(&line)
            .unwrap_or_else(|| panic!("probe reply for idle {line}"));
        assert!(txn.pending_probes > 0, "excess probe reply for {line}");
        txn.pending_probes -= 1;
        txn.owner_data |= with_data;
        txn.any_copy_retained |= retains_copy;
        let invalidating = txn.kind == ReqKind::GetX;
        let mut actions = Vec::new();
        if with_data && invalidating {
            // The owner invalidated: its dirty data must reach memory
            // (on a GETS the owner retains the line in O and memory
            // may stay stale).
            actions.push(HubAction::MemWrite { line });
            self.stats.mem_writes.incr();
        }
        actions.extend(self.try_grant(line));
        actions
    }

    /// Handles the completion of the speculative DRAM read issued by
    /// transaction `txn`. Completions for transactions that already
    /// finished (a cache owner supplied the data and the requester
    /// unblocked first) are counted and discarded.
    pub fn on_mem_done(&mut self, line: LineAddr, txn: u64) -> Vec<HubAction> {
        match self.inflight.get_mut(&line) {
            Some(t) if t.id == txn => {
                t.mem_done = true;
                if t.owner_data {
                    self.stats.mem_discards.incr();
                }
                self.try_grant(line)
            }
            _ => {
                self.stats.mem_discards.incr();
                Vec::new()
            }
        }
    }

    fn try_grant(&mut self, line: LineAddr) -> Vec<HubAction> {
        let Some(txn) = self.inflight.get_mut(&line) else {
            return Vec::new();
        };
        if txn.data_sent || txn.pending_probes > 0 {
            return Vec::new();
        }
        let ready = txn.owner_data || txn.mem_done || txn.upgrade;
        if !ready {
            return Vec::new();
        }
        txn.data_sent = true;
        let exclusive = match txn.kind {
            ReqKind::GetX => true,
            ReqKind::GetS => !txn.any_copy_retained && !txn.owner_data,
        };
        let (requester, kind) = (txn.requester, txn.kind);
        if let Some(dir) = &mut self.directory {
            let holders = dir.entry(line).or_default();
            if kind == ReqKind::GetX {
                holders.clear();
            }
            holders.insert(requester);
        }
        vec![HubAction::SendData {
            to: requester,
            line,
            exclusive,
            from_mem: !txn.owner_data,
        }]
    }

    /// Handles a writeback (PUT). Completes immediately; if a
    /// transaction on the line is in flight the write still lands (the
    /// reproduction tracks states, not data values — see `DESIGN.md`).
    pub fn on_put(&mut self, line: LineAddr, dirty: bool, requester: Agent) -> Vec<HubAction> {
        if self.busy(line) {
            self.stats.racy_writebacks.incr();
        }
        if let Some(dir) = &mut self.directory {
            if let Some(holders) = dir.get_mut(&line) {
                holders.remove(&requester);
                if holders.is_empty() {
                    dir.remove(&line);
                }
            }
        }
        if dirty {
            self.stats.mem_writes.incr();
            vec![HubAction::MemWrite { line }]
        } else {
            Vec::new()
        }
    }

    /// Handles the requester's unblock, freeing the line and starting
    /// the next queued request, if any.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is in flight for `line` or its data
    /// grant has not been sent yet.
    pub fn on_unblock(&mut self, line: LineAddr) -> Vec<HubAction> {
        let txn = self
            .inflight
            .remove(&line)
            .unwrap_or_else(|| panic!("unblock for idle {line}"));
        assert!(txn.data_sent, "unblock before data grant for {line}");
        let next = self.queued.get_mut(&line).and_then(VecDeque::pop_front);
        if self.queued.get(&line).is_some_and(VecDeque::is_empty) {
            self.queued.remove(&line);
        }
        match next {
            Some(p) => self.start(p.kind, line, p.requester, p.upgrade),
            None => Vec::new(),
        }
    }
}

impl Default for Hub {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: u64) -> LineAddr {
        LineAddr::from_index(i)
    }

    fn reply_all_misses(hub: &mut Hub, l: LineAddr, except: Agent) -> Vec<HubAction> {
        let mut acts = Vec::new();
        for cache in Agent::caches() {
            if cache != except {
                acts.extend(hub.on_probe_reply(l, cache, false, false));
            }
        }
        acts
    }

    #[test]
    fn gets_with_no_copies_grants_exclusive_from_memory() {
        let mut hub = Hub::new();
        let l = line(1);
        let acts = hub.on_request(ReqKind::GetS, l, Agent::CpuL2);
        let probes = acts
            .iter()
            .filter(|a| matches!(a, HubAction::SendProbe { .. }))
            .count();
        assert_eq!(probes, 4, "broadcast to all four GPU slices");
        assert!(acts.contains(&HubAction::StartMemRead { line: l, txn: 0 }));
        assert!(reply_all_misses(&mut hub, l, Agent::CpuL2).is_empty());
        let grant = hub.on_mem_done(l, 0);
        assert_eq!(
            grant,
            vec![HubAction::SendData {
                to: Agent::CpuL2,
                line: l,
                exclusive: true,
                from_mem: true
            }]
        );
    }

    #[test]
    fn gets_with_owner_grants_shared_and_writes_back() {
        let mut hub = Hub::new();
        let l = line(2);
        hub.on_request(ReqKind::GetS, l, Agent::GpuL2(2));
        // CPU L2 is the owner and keeps an O copy: no memory write is
        // needed, the dirty data stays with the owner.
        let acts = hub.on_probe_reply(l, Agent::CpuL2, true, true);
        assert!(!acts.contains(&HubAction::MemWrite { line: l }));
        // Remaining slices miss.
        let mut grant = Vec::new();
        for s in [0u8, 1, 3] {
            grant.extend(hub.on_probe_reply(l, Agent::GpuL2(s), false, false));
        }
        assert_eq!(
            grant,
            vec![HubAction::SendData {
                to: Agent::GpuL2(2),
                line: l,
                exclusive: false,
                from_mem: false
            }]
        );
        // The late memory completion is discarded.
        assert!(hub.on_mem_done(l, 0).is_empty());
        assert_eq!(hub.stats().mem_discards.value(), 1);
    }

    #[test]
    fn getx_is_always_exclusive() {
        let mut hub = Hub::new();
        let l = line(3);
        hub.on_request(ReqKind::GetX, l, Agent::CpuL2);
        // A slice had the line shared; it invalidates (retains nothing).
        hub.on_probe_reply(l, Agent::GpuL2(3), false, false);
        for s in [0u8, 1, 2] {
            hub.on_probe_reply(l, Agent::GpuL2(s), false, false);
        }
        let grant = hub.on_mem_done(l, 0);
        assert!(matches!(
            grant[..],
            [HubAction::SendData {
                exclusive: true,
                ..
            }]
        ));
    }

    #[test]
    fn mem_before_probes_waits_for_probes() {
        let mut hub = Hub::new();
        let l = line(4);
        hub.on_request(ReqKind::GetS, l, Agent::CpuL2);
        assert!(
            hub.on_mem_done(l, 0).is_empty(),
            "must wait for all probe replies"
        );
        let grant = reply_all_misses(&mut hub, l, Agent::CpuL2);
        assert_eq!(grant.len(), 1);
    }

    #[test]
    fn conflicting_request_queues_until_unblock() {
        let mut hub = Hub::new();
        let l = line(5);
        hub.on_request(ReqKind::GetS, l, Agent::CpuL2);
        let second = hub.on_request(ReqKind::GetX, l, Agent::GpuL2(1));
        assert!(second.is_empty());
        assert_eq!(hub.stats().conflicts.value(), 1);
        assert_eq!(hub.open_request(l), Some((ReqKind::GetS, Agent::CpuL2)));

        reply_all_misses(&mut hub, l, Agent::CpuL2);
        hub.on_mem_done(l, 0);
        let restarted = hub.on_unblock(l);
        // The queued GETX starts: probes to CpuL2 and the other slices.
        let probes: Vec<&HubAction> = restarted
            .iter()
            .filter(|a| matches!(a, HubAction::SendProbe { .. }))
            .collect();
        assert_eq!(probes.len(), 4);
        assert!(hub.busy(l));
        assert_eq!(hub.open_request(l), Some((ReqKind::GetX, Agent::GpuL2(1))));
        assert_eq!(hub.open_request(line(6)), None);
    }

    #[test]
    fn clean_writeback_produces_no_mem_traffic() {
        let mut hub = Hub::new();
        assert!(hub.on_put(line(6), false, Agent::CpuL2).is_empty());
        assert_eq!(
            hub.on_put(line(6), true, Agent::CpuL2),
            vec![HubAction::MemWrite { line: line(6) }]
        );
    }

    #[test]
    fn racy_writeback_is_counted() {
        let mut hub = Hub::new();
        let l = line(7);
        hub.on_request(ReqKind::GetS, l, Agent::CpuL2);
        hub.on_put(l, true, Agent::GpuL2(0));
        assert_eq!(hub.stats().racy_writebacks.value(), 1);
    }

    #[test]
    fn stale_mem_completion_is_discarded() {
        let mut hub = Hub::new();
        let l = line(10);
        hub.on_request(ReqKind::GetS, l, Agent::CpuL2);
        // Owner supplies data; probes complete; requester unblocks.
        hub.on_probe_reply(l, Agent::CpuL2, true, true);
        for s in [0u8, 1, 2] {
            hub.on_probe_reply(l, Agent::GpuL2(s), false, false);
        }
        hub.on_unblock(l);
        // The speculative DRAM read for txn 0 lands late: ignored.
        assert!(hub.on_mem_done(l, 0).is_empty());
        assert!(hub.stats().mem_discards.value() >= 1);
        // A new transaction on the same line is unaffected.
        hub.on_request(ReqKind::GetX, l, Agent::GpuL2(0));
        assert!(hub.busy(l));
        assert!(hub.on_mem_done(l, 0).is_empty(), "wrong txn id ignored");
    }

    #[test]
    fn directory_filters_probes_after_learning() {
        let mut hub = Hub::new_with_directory();
        let l = line(20);
        // First GETS: directory knows nothing -> probes everyone...
        // no: it probes NOBODY (empty directory means no holder can
        // exist, memory is authoritative on first touch).
        let acts = hub.on_request(ReqKind::GetS, l, Agent::CpuL2);
        let probes = acts
            .iter()
            .filter(|a| matches!(a, HubAction::SendProbe { .. }))
            .count();
        assert_eq!(probes, 0, "cold line needs no probes under a directory");
        let grant = hub.on_mem_done(l, 0);
        assert!(matches!(grant[..], [HubAction::SendData { .. }]));
        hub.on_unblock(l);

        // Now the GPU requests exclusive: only the known holder (CPU)
        // is probed.
        let acts = hub.on_request(ReqKind::GetX, l, Agent::GpuL2(0));
        let probed: Vec<Agent> = acts
            .iter()
            .filter_map(|a| match a {
                HubAction::SendProbe { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(probed, vec![Agent::CpuL2]);
        assert!(hub.stats().probes_filtered.value() >= 7);
        hub.on_probe_reply(l, Agent::CpuL2, true, false);
        let grant = hub.on_mem_done(l, 1);
        // Owner data arrived; memory completion may or may not carry
        // the grant depending on ordering — drive to completion.
        let _ = grant;
        hub.on_unblock(l);

        // After the GETX the CPU is no longer a holder.
        let acts = hub.on_request(ReqKind::GetS, l, Agent::CpuL2);
        let probed: Vec<Agent> = acts
            .iter()
            .filter_map(|a| match a {
                HubAction::SendProbe { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(
            probed,
            vec![Agent::GpuL2(0)],
            "only the new owner is probed"
        );
    }

    #[test]
    fn directory_forgets_evicted_holders() {
        let mut hub = Hub::new_with_directory();
        let l = line(21);
        hub.on_request(ReqKind::GetS, l, Agent::GpuL2(2));
        hub.on_mem_done(l, 0);
        hub.on_unblock(l);
        // The slice writes the line back: holder forgotten.
        hub.on_put(l, true, Agent::GpuL2(2));
        let acts = hub.on_request(ReqKind::GetS, l, Agent::CpuL2);
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, HubAction::SendProbe { .. })),
            "evicted holder must not be probed"
        );
    }

    #[test]
    fn broadcast_mode_reports_no_filtering() {
        let mut hub = Hub::new();
        assert!(!hub.has_directory());
        hub.on_request(ReqKind::GetS, line(22), Agent::CpuL2);
        assert_eq!(hub.stats().probes_filtered.value(), 0);
    }

    #[test]
    #[should_panic(expected = "unblock for idle")]
    fn unblock_of_idle_line_panics() {
        let mut hub = Hub::new();
        hub.on_unblock(line(8));
    }

    #[test]
    #[should_panic(expected = "probe reply for idle")]
    fn stray_probe_reply_panics() {
        let mut hub = Hub::new();
        hub.on_probe_reply(line(9), Agent::CpuL2, false, false);
    }
}
