//! Deterministic fault injection: the ds-chaos fault model.
//!
//! A [`FaultPlan`] describes which faults a run should experience —
//! message drops / duplicates / delays on each of the three networks,
//! DRAM bank stalls (transient or permanent) — plus the knobs for the
//! direct-store recovery protocol (ack timeout, bounded retries) and
//! the protocol watchdog (quiescence gap, livelock retry bound).
//!
//! Every fault decision is a pure function of `(plan.seed, fault
//! domain, per-domain sequence number)` hashed through a splitmix64
//! finalizer, so the same plan against the same workload replays
//! bit-identically regardless of wall-clock, thread count, or host.
//! An inactive plan (all rates zero, no stuck banks) injects nothing
//! and the runtime guarantees it adds **zero** events and perturbs no
//! counters, keeping fault-free runs byte-identical to builds without
//! the fault layer.
//!
//! Rates are expressed in parts-per-65536 (`u16`), so `655` ≈ 1% and
//! `65535` ≈ always. Per injection point one roll decides among
//! drop / duplicate / delay with cumulative thresholds, in that
//! priority order.

use std::fmt;

/// Per-network fault rates. Each rate is parts-per-65536 of messages
/// affected; `delay_cycles` is the extra latency applied to delayed
/// messages and to the second copy of duplicated ones.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetFaultRates {
    /// Probability (per 65536) that a message is silently dropped.
    pub drop: u16,
    /// Probability (per 65536) that a message is delivered twice.
    pub dup: u16,
    /// Probability (per 65536) that a message is delayed.
    pub delay: u16,
    /// Extra cycles added to delayed (and duplicated-second) copies.
    pub delay_cycles: u64,
}

impl NetFaultRates {
    fn any(&self) -> bool {
        self.drop > 0 || self.dup > 0 || self.delay > 0
    }
}

/// A complete, seeded fault-injection plan for one simulation run.
///
/// The default plan is *inactive*: no faults, no retry protocol, and
/// the watchdog only arms itself when faults are in play.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Root seed; every injection decision hashes this in.
    pub seed: u64,
    /// Faults on the CPU-side coherence network (MESI traffic).
    pub coh_net: NetFaultRates,
    /// Faults on the dedicated direct-store push network.
    pub direct_net: NetFaultRates,
    /// Faults on the GPU-internal SM↔slice network.
    pub gpu_net: NetFaultRates,
    /// Probability (per 65536) that a DRAM access stalls.
    pub dram_stall_rate: u16,
    /// Extra cycles a stalled DRAM access takes.
    pub dram_stall_cycles: u64,
    /// Banks that never complete any access (permanent faults; used to
    /// exercise the deadlock watchdog).
    pub stuck_banks: Vec<u16>,
    /// Cycles the store buffer waits for a push ack before retrying.
    /// Zero disables the ack/retry protocol even under faults.
    pub ack_timeout: u64,
    /// Retries before a push degrades to the CCSM demand path.
    pub max_retries: u32,
    /// Watchdog: abort as deadlocked if the next event is more than
    /// this many cycles in the future while transactions are
    /// outstanding. Only armed while the plan is active.
    pub watchdog_gap: u64,
    /// Watchdog: abort as livelocked once any single line has been
    /// retried more than this many times in total.
    pub livelock_retries: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            coh_net: NetFaultRates::default(),
            direct_net: NetFaultRates::default(),
            gpu_net: NetFaultRates::default(),
            dram_stall_rate: 0,
            dram_stall_cycles: 0,
            stuck_banks: Vec::new(),
            ack_timeout: 200,
            max_retries: 3,
            watchdog_gap: 1_000_000,
            livelock_retries: 64,
        }
    }
}

/// Extra cycles of a `delay` fault: past the default 200-cycle ack
/// timeout, so a delayed ack forces a retry without losing a message.
pub const DELAY_FAULT_CYCLES: u64 = 400;

/// Extra cycles of a DRAM stall fault.
pub const DRAM_STALL_FAULT_CYCLES: u64 = 500;

/// Where a one-kind fault plan injects: one of the three networks, or
/// the DRAM banks (whose faults are always stalls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultNet {
    /// The dedicated direct-store push network.
    Direct,
    /// The CPU-side coherence network.
    Coh,
    /// The GPU-internal SM↔slice network.
    Gpu,
    /// DRAM bank stalls.
    Dram,
}

impl FaultNet {
    /// Every target, in the order the CLI and the job API list them.
    pub const ALL: [FaultNet; 4] = [
        FaultNet::Direct,
        FaultNet::Coh,
        FaultNet::Gpu,
        FaultNet::Dram,
    ];

    /// The name the CLI and the job API use.
    pub fn name(self) -> &'static str {
        match self {
            FaultNet::Direct => "direct",
            FaultNet::Coh => "coh",
            FaultNet::Gpu => "gpu",
            FaultNet::Dram => "dram",
        }
    }

    /// Reads a [`FaultNet::name`].
    pub fn parse(name: &str) -> Option<FaultNet> {
        Self::ALL.into_iter().find(|n| n.name() == name)
    }
}

/// What a network fault does to a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The message is silently lost.
    Drop,
    /// The message arrives twice.
    Dup,
    /// The message arrives [`DELAY_FAULT_CYCLES`] late.
    Delay,
}

impl FaultKind {
    /// Every kind, in the order the CLI and the job API list them.
    pub const ALL: [FaultKind; 3] = [FaultKind::Drop, FaultKind::Dup, FaultKind::Delay];

    /// The name the CLI and the job API use.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Dup => "dup",
            FaultKind::Delay => "delay",
        }
    }

    /// Reads a [`FaultKind::name`].
    pub fn parse(name: &str) -> Option<FaultKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Independent fault domains; each keeps its own sequence counter so
/// decisions in one domain never shift the stream of another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDomain {
    /// Coherence-network deliveries.
    CohNet = 0,
    /// Direct-store-network deliveries.
    DirectNet = 1,
    /// GPU-internal-network deliveries.
    GpuNet = 2,
    /// DRAM accesses.
    Dram = 3,
}

/// Number of fault domains (size for per-domain sequence counters).
pub const FAULT_DOMAINS: usize = 4;

/// What the fault layer decided for one message delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultRoll {
    /// Deliver normally.
    Deliver,
    /// Silently drop the message.
    Drop,
    /// Deliver twice (second copy late).
    Duplicate,
    /// Deliver once, late.
    Delay,
}

impl FaultPlan {
    /// The plan that injects one kind of fault at `rate` (per 65536)
    /// on `net`, with the default recovery protocol. `kind` is not
    /// read for [`FaultNet::Dram`], whose faults are stalls.
    pub fn single(seed: u64, net: FaultNet, kind: FaultKind, rate: u16) -> FaultPlan {
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        let rates = match net {
            FaultNet::Direct => &mut plan.direct_net,
            FaultNet::Coh => &mut plan.coh_net,
            FaultNet::Gpu => &mut plan.gpu_net,
            FaultNet::Dram => {
                plan.dram_stall_rate = rate;
                plan.dram_stall_cycles = DRAM_STALL_FAULT_CYCLES;
                return plan;
            }
        };
        match kind {
            FaultKind::Drop => rates.drop = rate,
            FaultKind::Dup => rates.dup = rate,
            FaultKind::Delay => {
                rates.delay = rate;
                rates.delay_cycles = DELAY_FAULT_CYCLES;
            }
        }
        plan
    }

    /// True when the plan can inject at least one fault. Inactive
    /// plans must leave a run bit-identical to one with no fault layer
    /// at all.
    pub fn is_active(&self) -> bool {
        self.coh_net.any()
            || self.direct_net.any()
            || self.gpu_net.any()
            || self.dram_stall_rate > 0
            || !self.stuck_banks.is_empty()
    }

    /// True when direct-store pushes should be tracked with the ack /
    /// timeout / retry protocol.
    pub fn retries_enabled(&self) -> bool {
        self.is_active() && self.ack_timeout > 0
    }

    /// Rates for one network domain (`Dram` has no message rates).
    pub fn net_rates(&self, domain: FaultDomain) -> &NetFaultRates {
        match domain {
            FaultDomain::CohNet => &self.coh_net,
            FaultDomain::DirectNet => &self.direct_net,
            FaultDomain::GpuNet => &self.gpu_net,
            FaultDomain::Dram => {
                unreachable!("DRAM domain has no network rates")
            }
        }
    }

    /// One deterministic roll for a message on `domain`; `seq` is the
    /// caller-maintained per-domain sequence number.
    pub fn roll_net(&self, domain: FaultDomain, seq: u64) -> FaultRoll {
        let rates = self.net_rates(domain);
        if !rates.any() {
            return FaultRoll::Deliver;
        }
        let r = u64::from(fault_hash(self.seed, domain as u64, seq) as u16);
        let (drop, dup, delay) = (
            u64::from(rates.drop),
            u64::from(rates.dup),
            u64::from(rates.delay),
        );
        if r < drop {
            FaultRoll::Drop
        } else if r < drop + dup {
            FaultRoll::Duplicate
        } else if r < drop + dup + delay {
            FaultRoll::Delay
        } else {
            FaultRoll::Deliver
        }
    }

    /// Deterministic roll for one DRAM access: `Some(extra_cycles)` if
    /// this access stalls (a stuck bank stalls effectively forever).
    pub fn roll_dram(&self, bank: u16, seq: u64) -> Option<u64> {
        if self.stuck_banks.contains(&bank) {
            // Far enough out that the watchdog trips long before the
            // access would complete, without overflowing cycle math.
            return Some(1 << 40);
        }
        if self.dram_stall_rate == 0 {
            return None;
        }
        let r = fault_hash(self.seed, FaultDomain::Dram as u64, seq) as u16;
        (r < self.dram_stall_rate).then_some(self.dram_stall_cycles)
    }

    /// Retry backoff: the wait before the ack timeout for `attempt`
    /// (0-based) fires, doubling each attempt.
    pub fn backoff(&self, attempt: u32) -> u64 {
        self.ack_timeout.saturating_mul(1u64 << attempt.min(16))
    }
}

/// splitmix64-style finalizer over (seed, domain, sequence). The
/// low 16 bits feed the per-65536 threshold comparisons.
fn fault_hash(seed: u64, domain: u64, seq: u64) -> u64 {
    let mut z = seed
        .wrapping_add(domain.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(seq.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Why the protocol watchdog aborted a run instead of letting it hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimAbort {
    /// No forward progress: the event queue went quiet (or empty) for
    /// longer than `watchdog_gap` with transactions still outstanding.
    /// Carries the diagnostic dump of outstanding state.
    Deadlock(String),
    /// A line exceeded the cumulative retry bound. Carries the
    /// diagnostic dump.
    Livelock(String),
}

impl fmt::Display for SimAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimAbort::Deadlock(diag) => write!(f, "watchdog: deadlock detected\n{diag}"),
            SimAbort::Livelock(diag) => write!(f, "watchdog: livelock detected\n{diag}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inactive() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        assert!(!plan.retries_enabled());
        assert_eq!(plan.roll_net(FaultDomain::DirectNet, 7), FaultRoll::Deliver);
        assert_eq!(plan.roll_dram(0, 7), None);
    }

    #[test]
    fn rates_make_the_plan_active() {
        let mut plan = FaultPlan::default();
        plan.direct_net.drop = 1;
        assert!(plan.is_active());
        assert!(plan.retries_enabled());
        plan.ack_timeout = 0;
        assert!(!plan.retries_enabled());

        let stuck = FaultPlan {
            stuck_banks: vec![3],
            ..FaultPlan::default()
        };
        assert!(stuck.is_active());
    }

    #[test]
    fn rolls_are_deterministic_per_seed_and_seq() {
        let mut plan = FaultPlan {
            seed: 42,
            ..FaultPlan::default()
        };
        plan.direct_net = NetFaultRates {
            drop: 20_000,
            dup: 20_000,
            delay: 20_000,
            delay_cycles: 50,
        };
        let a: Vec<_> = (0..64)
            .map(|seq| plan.roll_net(FaultDomain::DirectNet, seq))
            .collect();
        let b: Vec<_> = (0..64)
            .map(|seq| plan.roll_net(FaultDomain::DirectNet, seq))
            .collect();
        assert_eq!(a, b);
        // A ~92% combined fault rate over 64 rolls hits every arm.
        assert!(a.contains(&FaultRoll::Drop));
        assert!(a.contains(&FaultRoll::Duplicate));
        assert!(a.contains(&FaultRoll::Delay));

        let other = FaultPlan { seed: 43, ..plan };
        let c: Vec<_> = (0..64)
            .map(|seq| other.roll_net(FaultDomain::DirectNet, seq))
            .collect();
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn domains_have_independent_streams() {
        let mut plan = FaultPlan {
            seed: 7,
            ..FaultPlan::default()
        };
        plan.coh_net.drop = 32_768;
        plan.direct_net.drop = 32_768;
        let coh: Vec<_> = (0..128)
            .map(|s| plan.roll_net(FaultDomain::CohNet, s))
            .collect();
        let direct: Vec<_> = (0..128)
            .map(|s| plan.roll_net(FaultDomain::DirectNet, s))
            .collect();
        assert_ne!(coh, direct);
    }

    #[test]
    fn fault_hash_matches_hard_coded_vectors() {
        // Pin the splitmix64 finalizer to known outputs so an
        // accidental constant or shift edit can never silently change
        // every seeded fault schedule (and with it every chaos
        // regression baseline). (0, 0, 0) is the canonical first
        // splitmix64 output for seed 0.
        let vectors: &[(u64, u64, u64, u64)] = &[
            (0, 0, 0, 0xe220_a839_7b1d_cdaf),
            (0, 0, 1, 0xe4ba_cea5_c4b9_b499),
            (0, 1, 0, 0x6e78_9e6a_a1b9_65f4),
            (1, 0, 0, 0x910a_2dec_8902_5cc1),
            (42, FaultDomain::DirectNet as u64, 0, 0x28ef_e333_b266_f103),
            (42, FaultDomain::DirectNet as u64, 1, 0xba88_115a_2dbe_7279),
            (42, FaultDomain::GpuNet as u64, 7, 0x7100_0856_7d9e_213e),
            (
                0xdead_beef,
                FaultDomain::Dram as u64,
                123_456,
                0x50a5_78fa_77b3_902a,
            ),
            (u64::MAX, u64::MAX, u64::MAX, 0xa389_31fa_eeb2_2117),
        ];
        for &(seed, domain, seq, expect) in vectors {
            assert_eq!(
                fault_hash(seed, domain, seq),
                expect,
                "fault_hash({seed}, {domain}, {seq}) drifted"
            );
        }
    }

    #[test]
    fn stuck_banks_always_stall() {
        let plan = FaultPlan {
            stuck_banks: vec![2],
            ..FaultPlan::default()
        };
        for seq in 0..32 {
            assert_eq!(plan.roll_dram(2, seq), Some(1 << 40));
            assert_eq!(plan.roll_dram(1, seq), None);
        }
    }

    #[test]
    fn dram_stalls_follow_the_rate() {
        let plan = FaultPlan {
            seed: 9,
            dram_stall_rate: 32_768,
            dram_stall_cycles: 77,
            ..FaultPlan::default()
        };
        let stalled = (0..256).filter(|&s| plan.roll_dram(0, s).is_some()).count();
        assert!(
            stalled > 64 && stalled < 192,
            "~half should stall: {stalled}"
        );
        assert!((0..256).all(|s| plan.roll_dram(0, s).is_none_or(|extra| extra == 77)));
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let plan = FaultPlan {
            ack_timeout: 100,
            ..FaultPlan::default()
        };
        assert_eq!(plan.backoff(0), 100);
        assert_eq!(plan.backoff(1), 200);
        assert_eq!(plan.backoff(3), 800);
        // Shift is capped; no overflow even for huge attempts.
        assert_eq!(plan.backoff(64), 100 << 16);
    }

    #[test]
    fn abort_display_names_the_failure() {
        let d = SimAbort::Deadlock("queue empty".into());
        let l = SimAbort::Livelock("line 5 retried 65x".into());
        assert!(d.to_string().contains("deadlock"));
        assert!(l.to_string().contains("livelock"));
    }
}
