//! The audits `ds check` runs: each invariant the simulator's reports
//! must satisfy, written once.
//!
//! An audit returns its violations, one message each, naming the
//! counter or field at fault; an empty list means it holds. Most read
//! one finished [`RunReport`]. [`identity`] compares a run some layer
//! observed with the plain run of the same task, the paper-shape
//! audits read one [`Comparison`], and [`stitched`] reads what a
//! [`Stitched`] collector gathered from a live
//! [`ds_probe::xray::Stitch`] fold, since a run's stream is far too
//! long to record.

use ds_core::{Comparison, InputSize, RunReport};
use ds_probe::pulse::{ctr, PULSE_COUNTER_NAMES};
use ds_probe::xray::{TxnRecord, TxnSink};
use ds_probe::{
    BankTraffic, HostPhase, LensReport, NetId, ProbeLevel, SliceTraffic, Stage, StageBreakdown,
    TxnPath,
};
use ds_runner::json::Json;
use ds_runner::report_to_json;

/// At most this many violations per transaction stream or report
/// diff: one broken identity tends to break thousands of transactions
/// or fields at once, and the first few name it.
const SHOWN: usize = 5;

/// Each `(what, got, want)` row whose sides differ, as a violation
/// naming `what`.
fn differ<S: AsRef<str>>(rows: impl IntoIterator<Item = (S, u64, u64)>) -> Vec<String> {
    rows.into_iter()
        .filter(|(_, got, want)| got != want)
        .map(|(what, got, want)| format!("{}: {got} != {want}", what.as_ref()))
        .collect()
}

/// A plain run carries no observation payload: no host profile or
/// pulse series (the profiler and pulse are off).
pub fn unobserved(r: &RunReport) -> Vec<String> {
    [("host", r.host.is_some()), ("pulse", r.pulse.is_some())]
        .into_iter()
        .filter(|&(_, set)| set)
        .map(|(field, _)| format!("{field} is set on a plain run"))
        .collect()
}

/// The lens reconciles with the counters the caches, DRAM and
/// crossbars keep on their own: the push-efficacy classes partition
/// `gpu_l2.pushed_fills`, installed plus bypassed pushes equal
/// `direct_pushes`, and the slice, bank and link heatmaps sum to the
/// aggregate counters.
pub fn lens(r: &RunReport) -> Vec<String> {
    let (l, c) = (&r.lens, &r.gpu_l2);
    let fills = c.pushed_fills.value();
    let slices = |f: fn(&SliceTraffic) -> u64| l.slices.iter().map(f).sum();
    let banks = |f: fn(&BankTraffic) -> u64| l.banks.iter().map(f).sum();
    let (coh, direct, gpu) = (
        l.net_sums(NetId::Coherence),
        l.net_sums(NetId::Direct),
        l.net_sums(NetId::GpuInternal),
    );
    #[rustfmt::skip]
    let rows = [
        ("lens push partition vs gpu_l2.pushed_fills", l.push_total(), fills),
        ("lens.push_bypasses vs push_bypasses", l.push_bypasses, r.push_bypasses),
        ("lens.push_degraded vs pushes_degraded", l.push_degraded, r.pushes_degraded),
        ("installed + bypassed vs direct_pushes", fills + l.push_bypasses, r.direct_pushes),
        ("lens.first_touch samples vs push_useful", l.first_touch.samples(), l.push_useful),
        ("lens slice sum vs gpu_l2.hits", slices(|s| s.hits), c.hits.value()),
        ("lens slice sum vs gpu_l2.misses", slices(|s| s.misses), c.misses.value()),
        ("lens slice sum vs gpu_l2.pushed_fills", slices(|s| s.push_fills), fills),
        ("lens slice sum vs gpu_l2.push_hits", slices(|s| s.push_hits), c.push_hits.value()),
        ("lens slice sum vs gpu_l2.evictions", slices(|s| s.evictions), c.evictions.value()),
        ("lens slice sum vs gpu_l2.writebacks", slices(|s| s.writebacks), c.writebacks.value()),
        ("lens bank sum vs dram_reads", banks(|b| b.reads), r.dram_reads),
        ("lens bank sum vs dram_writes", banks(|b| b.writes), r.dram_writes),
        ("lens bank sum vs dram_row_hits", banks(|b| b.row_hits), r.dram_row_hits),
        ("lens link sum vs coh_net.control_msgs", coh.0, r.coh_net.control_msgs),
        ("lens link sum vs coh_net.data_msgs", coh.1, r.coh_net.data_msgs),
        ("lens link sum vs direct_net.control_msgs", direct.0, r.direct_net.control_msgs),
        ("lens link sum vs direct_net.data_msgs", direct.1, r.direct_net.data_msgs),
        ("lens link sum vs gpu_net.control_msgs", gpu.0, r.gpu_net.control_msgs),
        ("lens link sum vs gpu_net.data_msgs", gpu.1, r.gpu_net.data_msgs),
    ];
    let mut errs = differ(rows);
    #[rustfmt::skip]
    let bounds = [
        ("lens.push_useful vs gpu_l2.push_hits", l.push_useful, c.push_hits.value()),
        ("lens.lines_pushed vs lens.lines_touched", l.lines_pushed, l.lines_touched),
    ];
    for (what, part, whole) in bounds {
        if part > whole {
            errs.push(format!("{what}: {part} > {whole}"));
        }
    }
    if l.lines_touched == 0 {
        errs.push("lens.lines_touched is 0: the run touched no line".into());
    }
    errs
}

/// CCSM has no direct-store path: a CCSM run pushes nothing, routes
/// nothing over the direct network, and attributes no cycles to the
/// push stages, by its counters, its lens and its stage breakdown.
pub fn ccsm_quiescence(r: &RunReport) -> Vec<String> {
    let (l, b) = (&r.lens, &r.stages);
    let (control, data) = l.net_sums(NetId::Direct);
    let push_stages = Stage::ALL.into_iter().filter(|s| s.path() == TxnPath::Push);
    [
        ("direct_pushes", r.direct_pushes),
        ("gpu_l2.pushed_fills", r.gpu_l2.pushed_fills.value()),
        ("direct_net messages", r.direct_net.total_msgs()),
        ("lens push partition", l.push_total()),
        ("lens.push_bypasses", l.push_bypasses),
        ("lens.push_degraded", l.push_degraded),
        ("lens.lines_pushed", l.lines_pushed),
        ("lens.first_touch samples", l.first_touch.samples()),
        ("lens direct-network link messages", control + data),
        ("stages.pushes", b.pushes),
        ("stages.push_cycles", b.push_cycles),
    ]
    .into_iter()
    .chain(push_stages.map(|s| (s.name(), b.stage_cycles(s))))
    .filter(|&(_, n)| n != 0)
    .map(|(what, n)| format!("{what} is {n} under CCSM"))
    .collect()
}

/// Cycle accounting telescopes: each path's stage cycles sum to its
/// end-to-end total, and the stage tracker, the latency histograms and
/// the push counter see the same loads and pushes.
pub fn stages(r: &RunReport) -> Vec<String> {
    let (b, h) = (&r.stages, &r.latency.load_to_use);
    let (loads, pushes) = (
        b.path_stage_sum(TxnPath::GpuLoad),
        b.path_stage_sum(TxnPath::Push),
    );
    #[rustfmt::skip]
    let rows = [
        ("load stage sum vs stages.load_cycles", loads, b.load_cycles),
        ("push stage sum vs stages.push_cycles", pushes, b.push_cycles),
        ("stages.loads vs load_to_use samples", b.loads, h.samples()),
        ("stages.pushes vs direct_pushes", b.pushes, r.direct_pushes),
    ];
    let mut errs = differ(rows);
    if u128::from(b.load_cycles) != h.sum() {
        let sum = h.sum();
        errs.push(format!(
            "stages.load_cycles vs load_to_use sum: {} != {sum}",
            b.load_cycles
        ));
    }
    if b.loads == 0 {
        errs.push("stages.loads is 0: the run tracked no load".into());
    }
    errs
}

/// What the stitch audit keeps of a live-stitched run: the aggregate
/// of the completed transactions and the first violations of
/// [`transaction`]. It is the sink of a fold,
/// `Stitch::new(Stitched::default())`, read back with
/// `Stitch::into_sink`.
#[derive(Debug, Default)]
pub struct Stitched {
    /// The aggregate of the transactions stitched so far.
    pub breakdown: StageBreakdown,
    /// Transactions stitched.
    pub records: u64,
    /// The first violations of [`transaction`].
    pub errors: Vec<String>,
}

impl TxnSink for Stitched {
    /// Checks one completed transaction and adds it to the aggregate.
    fn take(&mut self, t: TxnRecord) {
        if self.errors.len() < SHOWN {
            self.errors.extend(transaction(&t));
        }
        t.add_to(&mut self.breakdown);
        self.records += 1;
    }
}

/// One stitched transaction: its marks are monotone in cycle, it
/// completes no earlier than its last mark, and its segments telescope
/// to its end-to-end latency.
pub fn transaction(t: &TxnRecord) -> Vec<String> {
    let mut errs = Vec::new();
    if t.marks.windows(2).any(|w| w[1].1 < w[0].1) {
        errs.push(format!("txn {} has non-monotone stage marks", t.txn));
    }
    if let Some(&(_, last)) = t.marks.last().filter(|&&(_, last)| t.end < last) {
        let end = t.end;
        errs.push(format!(
            "txn {} completes at {end} before its last mark at {last}",
            t.txn
        ));
    }
    let segments = t.segments().iter().map(|&(_, c)| c).sum();
    let what = format!("txn {} segment sum vs end-to-end", t.txn);
    errs.extend(differ([(what, segments, t.total())]));
    errs
}

/// The breakdown stitched from the stream equals the one the live
/// stage tracker accumulated, stage by stage, and every tracked
/// transaction completed and stitched.
pub fn stitched(s: &Stitched, r: &RunReport) -> Vec<String> {
    let (got, live) = (&s.breakdown, &r.stages);
    let mut errs = s.errors.clone();
    #[rustfmt::skip]
    let rows = [
        ("stitched records vs stages.loads + pushes", s.records, live.loads + live.pushes),
        ("stitched vs live stages.loads", got.loads, live.loads),
        ("stitched vs live stages.load_cycles", got.load_cycles, live.load_cycles),
        ("stitched vs live stages.pushes", got.pushes, live.pushes),
        ("stitched vs live stages.push_cycles", got.push_cycles, live.push_cycles),
    ];
    errs.extend(differ(rows));
    errs.extend(differ(Stage::ALL.map(|stage| {
        let what = format!("stitched vs live stages.{}", stage.name());
        (what, got.stage_cycles(stage), live.stage_cycles(stage))
    })));
    errs
}

/// Pulse conserves: every window series sums to its total, and the
/// totals equal the 26 run-report counters the series mirror
/// (`dram_busy_cycles` and `sm_ops` have no report counterpart).
pub fn pulse(r: &RunReport) -> Vec<String> {
    let Some(series) = &r.pulse else {
        return vec!["pulse is unset on a pulsed run".into()];
    };
    let mut errs: Vec<String> = series.check_conservation().err().into_iter().collect();
    let counterparts = [
        (ctr::GPU_L2_ACCESSES, r.gpu_l2.accesses()),
        (ctr::GPU_L2_MISSES, r.gpu_l2.misses.value()),
        (ctr::CPU_L2_ACCESSES, r.cpu_l2.accesses()),
        (ctr::CPU_L2_MISSES, r.cpu_l2.misses.value()),
        (ctr::COH_MSGS, r.coh_net.total_msgs()),
        (ctr::DIRECT_MSGS, r.direct_net.total_msgs()),
        (ctr::GPU_MSGS, r.gpu_net.total_msgs()),
        (ctr::COH_BYTES, r.coh_net.bytes),
        (ctr::DIRECT_BYTES, r.direct_net.bytes),
        (ctr::GPU_BYTES, r.gpu_net.bytes),
        (ctr::DRAM_READS, r.dram_reads),
        (ctr::DRAM_WRITES, r.dram_writes),
        (ctr::DRAM_ROW_HITS, r.dram_row_hits),
        (ctr::DIRECT_PUSHES, r.direct_pushes),
        (ctr::PUSHES_ATTEMPTED, r.pushes_attempted),
        (ctr::PUSHES_RETRIED, r.pushes_retried),
        (ctr::PUSHES_DEGRADED, r.pushes_degraded),
        (ctr::PUSH_BYPASSES, r.push_bypasses),
        (ctr::FAULTS_INJECTED, r.faults_injected),
        (ctr::SB_STALLS, r.store_buffer_stalls),
        (ctr::WARPS_COMPLETED, r.warps_completed),
        (ctr::KERNELS_RUN, r.kernels_run),
        (ctr::HUB_TRANSACTIONS, r.hub_transactions),
        (ctr::HUB_CONFLICTS, r.hub_conflicts),
        (ctr::HUB_PROBES, r.hub_probes),
        (ctr::EVENTS, r.events),
    ];
    errs.extend(differ(counterparts.map(|(c, want)| {
        let what = format!("pulse {} total vs the report", PULSE_COUNTER_NAMES[c]);
        (what, series.totals.counters[c], want)
    })));
    errs
}

/// The pulse detectors notice a seeded fault run: its series carries
/// at least one anomaly.
pub fn anomalies(r: &RunReport) -> Vec<String> {
    match &r.pulse {
        Some(series) if !series.anomalies.is_empty() => Vec::new(),
        Some(_) => vec![format!(
            "pulse anomalies is 0 despite pushes_retried {} and pushes_degraded {}",
            r.pushes_retried, r.pushes_degraded
        )],
        None => vec!["pulse is unset on a pulsed run".into()],
    }
}

/// The host profile of a run at probe level `level`: present, its
/// phase self-times within wall-clock (`HostProfile::check`), and no
/// span in the tax bucket of a fold `level` sheds.
pub fn host(r: &RunReport, level: ProbeLevel) -> Vec<String> {
    let Some(host) = &r.host else {
        return vec!["host is unset with the profiler on".into()];
    };
    let mut errs: Vec<String> = host.check().err().into_iter().collect();
    for (phase, kept_from) in [
        (HostPhase::TaxLens, ProbeLevel::Full),
        (HostPhase::TaxStages, ProbeLevel::Stages),
    ] {
        let spans = host.phase_count(phase);
        if level < kept_from && spans != 0 {
            errs.push(format!(
                "host {} has {spans} spans at {level}",
                phase.name()
            ));
        }
    }
    errs
}

/// `r` without what observing it added: the pulse series and its
/// epoch view, the host profile, and, below probe level `full`, the
/// folds `level` sheds.
fn unobserved_view(r: &RunReport, level: ProbeLevel) -> RunReport {
    let mut r = r.clone();
    r.pulse = None;
    r.epochs = Vec::new();
    r.epoch_window = 0;
    r.host = None;
    if level < ProbeLevel::Full {
        r.lens = LensReport::default();
    }
    if level < ProbeLevel::Stages {
        r.stages = StageBreakdown::new();
    }
    r
}

/// Observing never moves a cycle: a run observed at probe level
/// `level`, with the observation-only fields stripped, equals the
/// plain run of the same task field for field, as the lossless JSON
/// form the result cache stores serializes them.
pub fn identity(plain: &RunReport, observed: &RunReport, level: ProbeLevel) -> Vec<String> {
    let json = |r| report_to_json(&unobserved_view(r, level));
    let mut errs = Vec::new();
    diff("", &json(observed), &json(plain), &mut errs);
    errs
}

/// Appends the first differing leaves of `got` and `want`, by dotted
/// path from `at`.
fn diff(at: &str, got: &Json, want: &Json, errs: &mut Vec<String>) {
    if errs.len() >= SHOWN || got == want {
        return;
    }
    match (got, want) {
        (Json::Obj(g), Json::Obj(w)) if g.iter().map(|f| &f.0).eq(w.iter().map(|f| &f.0)) => {
            for ((key, g), (_, w)) in g.iter().zip(w) {
                let field = if at.is_empty() {
                    key.clone()
                } else {
                    format!("{at}.{key}")
                };
                diff(&field, g, w, errs);
            }
        }
        (Json::Arr(g), Json::Arr(w)) if g.len() == w.len() => {
            for (i, (g, w)) in g.iter().zip(w).enumerate() {
                diff(&format!("{at}[{i}]"), g, w, errs);
            }
        }
        _ => {
            let short = |j: &Json| j.compact().chars().take(48).collect::<String>();
            errs.push(format!(
                "{at}: {} observed != {} plain",
                short(got),
                short(want)
            ));
        }
    }
}

/// No silent push loss under faults: every drained push is either
/// acknowledged or degraded.
pub fn push_ledger(r: &RunReport) -> Vec<String> {
    let what = "pushes_attempted vs direct_pushes + pushes_degraded";
    differ([(
        what,
        r.pushes_attempted,
        r.direct_pushes + r.pushes_degraded,
    )])
}

/// The violation of a speedup bound by `c`.
fn speedup(c: &Comparison, bound: &str) -> Vec<String> {
    let (ds, ccsm) = (
        c.direct_store.total_cycles.as_u64(),
        c.ccsm.total_cycles.as_u64(),
    );
    let pct = c.speedup_percent();
    vec![format!(
        "total_cycles: ds {ds} vs ccsm {ccsm} is {pct:+.2}%, {bound}"
    )]
}

/// Direct store never runs more than 1.5% slower than CCSM. MM and MT
/// at big inputs are exempt: there CCSM's CPU L2 acts as a victim
/// cache the uncacheable direct window forfeits (EXPERIMENTS.md,
/// Fig. 4 deviation 3).
pub fn never_hurts(c: &Comparison) -> Vec<String> {
    let exempt = c.input == InputSize::Big && matches!(c.code.as_str(), "MM" | "MT");
    if exempt || c.speedup_percent() > -1.5 {
        return Vec::new();
    }
    speedup(c, "below -1.5%")
}

/// The headline winners, NN, VA and MM at small inputs, gain more
/// than 10%.
pub fn headline(c: &Comparison) -> Vec<String> {
    let winner = c.input == InputSize::Small && matches!(c.code.as_str(), "NN" | "VA" | "MM");
    if !winner || c.speedup_percent() > 10.0 {
        return Vec::new();
    }
    speedup(c, "not above 10%")
}

/// PT, the null case, stays within ±3%.
pub fn pt_flat(c: &Comparison) -> Vec<String> {
    if c.code != "PT" || c.speedup_percent().abs() < 3.0 {
        return Vec::new();
    }
    speedup(c, "outside ±3%")
}

/// Direct store raises the GPU L2 miss rate by at most one percentage
/// point (Fig. 5).
pub fn miss_rate(c: &Comparison) -> Vec<String> {
    let (ccsm, ds) = c.miss_rates();
    if ds <= ccsm + 0.01 {
        return Vec::new();
    }
    let (ccsm, ds) = (ccsm * 100.0, ds * 100.0);
    vec![format!("gpu_l2 miss rate rose from {ccsm:.2}% to {ds:.2}%")]
}

/// Direct store never adds a compulsory GPU L2 miss.
pub fn compulsory(c: &Comparison) -> Vec<String> {
    let (ccsm, ds) = c.compulsory_misses();
    if ds <= ccsm {
        return Vec::new();
    }
    vec![format!("gpu_l2.compulsory_misses rose from {ccsm} to {ds}")]
}
