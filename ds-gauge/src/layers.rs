//! The per-layer metrics of a traced run: the counts a `RunReport`
//! carries and the host profiler's phase times.

use std::hint::black_box;
use std::time::Instant;

use ds_core::RunReport;
use ds_probe::prof::{self, HostPhase, HostProfile};

use crate::Outcome;

/// The per-layer metrics of a traced run, with units. A layer a
/// workload does not reach reads 0.
pub const LAYERS: [(&str, &str); 55] = [
    ("host.calib_start_ms", "ms"),
    ("host.calib_end_ms", "ms"),
    ("xlat.translate_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("core.run_s.ccsm", "s"),
    ("core.run_s.ds", "s"),
    ("sim.events", "count"),
    ("sim.events_per_kcyc", "1/kcyc"),
    ("sim.ns_per_event", "ns"),
    ("sim.event_pop_ms", "ms"),
    ("sim.event_push_ms", "ms"),
    ("gpu.warps", "count"),
    ("gpu.l1_accesses", "count"),
    ("gpu.l1_hit_ratio", "ratio"),
    ("cache.lookup_ms", "ms"),
    ("cache.gpu_l2_accesses", "count"),
    ("cache.gpu_l2_hit_ratio", "ratio"),
    ("cache.cpu_l2_accesses", "count"),
    ("coh.protocol_ms", "ms"),
    ("coh.hub_txns", "count"),
    ("coh.hub_conflicts", "count"),
    ("coh.hub_probes", "count"),
    ("noc.send_ms", "ms"),
    ("noc.coh_msgs", "count"),
    ("noc.direct_msgs", "count"),
    ("noc.gpu_msgs", "count"),
    ("mem.dram_ms", "ms"),
    ("mem.dram_reads", "count"),
    ("mem.dram_writes", "count"),
    ("mem.row_hit_ratio", "ratio"),
    ("cpu.push_path_ms", "ms"),
    ("cpu.pushes_attempted", "count"),
    ("cpu.direct_pushes", "count"),
    ("cpu.sb_stalls", "count"),
    ("cpu.push_useful_ratio", "ratio"),
    ("probe.tax_stages_ms", "ms"),
    ("probe.tax_lens_ms", "ms"),
    ("probe.tax_hist_ms", "ms"),
    ("probe.span_ns", "ns"),
    ("probe.untracked_ms", "ms"),
    ("probe.trace_overhead_s", "s"),
    ("runner.store_hit_ratio", "ratio"),
    ("runner.store_entries", "count"),
    ("runner.fill_ms_per_task", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.status_ms", "ms"),
    ("serve.results_ms", "ms"),
    ("serve.handler_submit_ms", "ms"),
    ("serve.handler_status_ms", "ms"),
    ("serve.handler_results_ms", "ms"),
    ("serve.task_wait_ms", "ms"),
    ("serve.task_service_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.results_kb_per_job", "KiB"),
    ("serve.rss_kb_per_job", "KiB"),
];

/// What one empty `ds_probe::prof` span costs with profiling on.
#[derive(Debug, Clone, Copy)]
pub struct SpanCost {
    /// Its whole cost, ns: open, two clock reads, close.
    pub total_ns: f64,
    /// The part the profiler books as the span's own self time, ns.
    pub inner_ns: f64,
}

/// Times a loop of empty spans from the benchmark's own code.
pub fn span_cost() -> SpanCost {
    const SPANS: u32 = 1 << 20;
    let was = prof::enabled();
    prof::set_enabled(true);
    prof::run_start();
    let start = Instant::now();
    for _ in 0..SPANS {
        let _span = black_box(prof::span(HostPhase::EventPop));
    }
    let total_ns = start.elapsed().as_nanos() as f64 / f64::from(SPANS);
    let booked = prof::take_profile().phase_nanos(HostPhase::EventPop);
    prof::set_enabled(was);
    SpanCost {
        total_ns,
        inner_ns: booked as f64 / f64::from(SPANS),
    }
}

/// The per-layer counts `reports` carry (summed over one pass or one
/// fill); `host_s` is the untraced host time they took.
pub fn report_layers(out: &mut Outcome, reports: &[RunReport], host_s: f64) {
    let sum = |f: fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let events = sum(|r| r.events);
    let cycles = sum(|r| r.total_cycles.as_u64());
    out.layer("sim.events", events);
    out.layer("sim.events_per_kcyc", ratio(events * 1e3, cycles));
    out.layer("sim.ns_per_event", ratio(host_s * 1e9, events));
    out.layer("gpu.warps", sum(|r| r.warps_completed));
    let l1 = sum(|r| r.gpu_l1.accesses());
    out.layer("gpu.l1_accesses", l1);
    out.layer(
        "gpu.l1_hit_ratio",
        ratio(sum(|r| r.gpu_l1.hits.value()), l1),
    );
    let l2 = sum(|r| r.gpu_l2.accesses());
    out.layer("cache.gpu_l2_accesses", l2);
    out.layer(
        "cache.gpu_l2_hit_ratio",
        ratio(sum(|r| r.gpu_l2.hits.value()), l2),
    );
    out.layer("cache.cpu_l2_accesses", sum(|r| r.cpu_l2.accesses()));
    out.layer("coh.hub_txns", sum(|r| r.hub_transactions));
    out.layer("coh.hub_conflicts", sum(|r| r.hub_conflicts));
    out.layer("coh.hub_probes", sum(|r| r.hub_probes));
    out.layer("noc.coh_msgs", sum(|r| r.coh_net.total_msgs()));
    out.layer("noc.direct_msgs", sum(|r| r.direct_net.total_msgs()));
    out.layer("noc.gpu_msgs", sum(|r| r.gpu_net.total_msgs()));
    let (reads, writes) = (sum(|r| r.dram_reads), sum(|r| r.dram_writes));
    out.layer("mem.dram_reads", reads);
    out.layer("mem.dram_writes", writes);
    out.layer(
        "mem.row_hit_ratio",
        ratio(sum(|r| r.dram_row_hits), reads + writes),
    );
    out.layer("cpu.pushes_attempted", sum(|r| r.pushes_attempted));
    out.layer("cpu.direct_pushes", sum(|r| r.direct_pushes));
    out.layer("cpu.sb_stalls", sum(|r| r.store_buffer_stalls));
    let judged = sum(|r| r.lens.push_useful + r.lens.push_dead + r.lens.push_clobbered);
    out.layer(
        "cpu.push_useful_ratio",
        ratio(sum(|r| r.lens.push_useful), judged),
    );
}

/// The profiler's phase times per unit of work (`units` passes or
/// fills). Each phase is net of the part of every span's cost that the
/// profiler books inside the span itself. The rest of that cost falls
/// outside the phases, into the untracked remainder, which is whatever
/// the net phases leave of the profiled wall time: phases plus
/// remainder add up to that wall time.
pub fn profile_layers(out: &mut Outcome, profile: &HostProfile, units: f64, cost: SpanCost) {
    let net_ms = |phase: HostPhase| {
        let booked = profile.phase_count(phase) as f64 * cost.inner_ns;
        (profile.phase_nanos(phase) as f64 - booked).max(0.0) / units / 1e6
    };
    let phases = [
        ("sim.event_pop_ms", HostPhase::EventPop),
        ("sim.event_push_ms", HostPhase::EventPush),
        ("cache.lookup_ms", HostPhase::CacheLookup),
        ("coh.protocol_ms", HostPhase::Protocol),
        ("cpu.push_path_ms", HostPhase::PushPath),
        ("noc.send_ms", HostPhase::NocTick),
        ("mem.dram_ms", HostPhase::DramTick),
        ("probe.tax_stages_ms", HostPhase::TaxStages),
        ("probe.tax_lens_ms", HostPhase::TaxLens),
        ("probe.tax_hist_ms", HostPhase::TaxHistograms),
        // Pulse sampling is off in every workload; no metric of its own.
        ("", HostPhase::TaxEpochs),
    ];
    let mut tracked = 0.0;
    for (name, phase) in phases {
        tracked += net_ms(phase);
        if !name.is_empty() {
            out.layer(name, net_ms(phase));
        }
    }
    let wall_ms = profile.wall_nanos as f64 / units / 1e6;
    let spans: u64 = HostPhase::ALL.iter().map(|&p| profile.phase_count(p)).sum();
    out.layer("probe.untracked_ms", wall_ms - tracked);
    out.layer("probe.span_ns", cost.total_ns);
    println!(
        "profile per unit: wall {wall_ms:.3} ms = net phases {tracked:.3} ms + untracked {:.3} ms; \
         {:.0} spans at {:.1} ns each ({:.1} ns booked inside) cost ~{:.3} ms",
        wall_ms - tracked,
        spans as f64 / units,
        cost.total_ns,
        cost.inner_ns,
        spans as f64 * cost.total_ns / units / 1e6,
    );
}
