//! The Chrome-trace-format sink (Perfetto / `chrome://tracing`).
//!
//! Renders three kinds of tracks from a recorded event stream:
//!
//! * **kernel spans** (process "kernels") — one complete event per
//!   kernel from `KernelBegin` to `KernelEnd`;
//! * **DRAM bank busy intervals** (process "dram") — one thread per
//!   bank, one complete event per access covering the bank's busy
//!   window;
//! * **per-link NoC occupancy** (one process per network) — one
//!   thread per (src, dst) link, one complete event per message
//!   covering its serialization interval.
//!
//! Timestamps are simulation *cycles* written into the `ts`/`dur`
//! microsecond fields — the viewer's time unit reads as µs but means
//! cycles. Output is a single well-formed JSON object in the
//! trace-event format, stable across runs of the same simulation.
//!
//! When a pulse series is supplied ([`render_with_pulse`]), a fourth
//! process carries **counter tracks** (`"ph":"C"`): one value per
//! pulse window for the headline series (SM throughput, L2 miss rate,
//! per-network bytes, DRAM bank busy, retries, queue depth), plus one
//! instant event per detected anomaly — Perfetto draws these as
//! area charts aligned with the span tracks.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::pulse::{ctr, gauge, PulseSeries};
use crate::{Component, NetId, TraceEvent, TraceKind};

const PID_KERNELS: u64 = 0;
const PID_DRAM: u64 = 1;
/// Pulse counter tracks get their own process id, above the simulator
/// pids (0-4) and `ds scope`'s service-span pid (5), so a `ds scope
/// merge` of a pulse-bearing trace keeps the two track families
/// separate in the Perfetto UI.
const PID_PULSE: u64 = 6;

fn net_pid(net: NetId) -> u64 {
    match net {
        NetId::Coherence => 2,
        NetId::Direct => 3,
        NetId::GpuInternal => 4,
    }
}

fn link_tid(src: u8, dst: u8) -> u64 {
    u64::from(src) * 64 + u64::from(dst)
}

fn meta(out: &mut String, pid: u64, tid: Option<u64>, what: &str, name: &str) {
    out.push_str("{\"ph\":\"M\",\"pid\":");
    write!(out, "{pid}").unwrap();
    if let Some(tid) = tid {
        write!(out, ",\"tid\":{tid}").unwrap();
    }
    write!(
        out,
        ",\"name\":\"{what}\",\"args\":{{\"name\":\"{name}\"}}}}"
    )
    .unwrap();
}

fn complete(out: &mut String, name: &str, cat: &str, ts: u64, dur: u64, pid: u64, tid: u64) {
    write!(
        out,
        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts},\
\"dur\":{dur},\"pid\":{pid},\"tid\":{tid}}}"
    )
    .unwrap();
}

/// Emits one Perfetto counter sample: a `"ph":"C"` event whose single
/// `args` entry names the counter track.
fn counter(out: &mut String, name: &str, ts: u64, value: u64) {
    write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{PID_PULSE},\
\"args\":{{\"{name}\":{value}}}}}"
    )
    .unwrap();
}

/// The pulse counter tracks the Chrome sink renders, as
/// `(track name, value for window w)` extractors.
fn pulse_tracks(series: &PulseSeries, w: usize) -> [(&'static str, u64); 9] {
    let acc = series.counters[ctr::GPU_L2_ACCESSES][w];
    let miss = series.counters[ctr::GPU_L2_MISSES][w];
    [
        ("sm_ops", series.counters[ctr::SM_OPS][w]),
        (
            "gpu_l2_miss_rate_milli",
            (miss * 1000).checked_div(acc).unwrap_or(0),
        ),
        ("coh_bytes", series.counters[ctr::COH_BYTES][w]),
        ("direct_bytes", series.counters[ctr::DIRECT_BYTES][w]),
        ("gpu_bytes", series.counters[ctr::GPU_BYTES][w]),
        (
            "dram_busy_cycles",
            series.counters[ctr::DRAM_BUSY_CYCLES][w],
        ),
        ("pushes_retried", series.counters[ctr::PUSHES_RETRIED][w]),
        ("queue_depth", series.gauges[gauge::QUEUE_DEPTH][w]),
        ("sb_occupancy", series.gauges[gauge::SB_OCCUPANCY][w]),
    ]
}

/// Renders a recorded trace as a Chrome trace-event JSON document.
pub fn render(events: &[TraceEvent]) -> String {
    render_with_pulse(events, None)
}

/// [`render`], plus pulse counter tracks and anomaly instants when a
/// series is supplied.
pub fn render_with_pulse(events: &[TraceEvent], pulse: Option<&PulseSeries>) -> String {
    // First pass: discover the tracks so their naming metadata can
    // lead the file deterministically (BTreeMap ⇒ sorted).
    let mut dram_banks: BTreeMap<u64, ()> = BTreeMap::new();
    let mut links: BTreeMap<(u64, u64), (u8, u8)> = BTreeMap::new();
    for e in events {
        match (e.component, e.kind) {
            (Component::DramBank { bank }, TraceKind::DramAccess { .. }) => {
                dram_banks.insert(u64::from(bank), ());
            }
            (Component::Net { net }, TraceKind::NetMsg { src, dst, .. }) => {
                links.insert((net_pid(net), link_tid(src, dst)), (src, dst));
            }
            _ => {}
        }
    }

    let mut body: Vec<String> = Vec::new();
    let mut s = String::new();
    meta(&mut s, PID_KERNELS, None, "process_name", "kernels");
    body.push(std::mem::take(&mut s));
    meta(&mut s, PID_DRAM, None, "process_name", "dram");
    body.push(std::mem::take(&mut s));
    for net in [NetId::Coherence, NetId::Direct, NetId::GpuInternal] {
        meta(
            &mut s,
            net_pid(net),
            None,
            "process_name",
            &format!("noc-{}", net.name()),
        );
        body.push(std::mem::take(&mut s));
    }
    if pulse.is_some() {
        meta(&mut s, PID_PULSE, None, "process_name", "pulse");
        body.push(std::mem::take(&mut s));
    }
    for bank in dram_banks.keys() {
        meta(
            &mut s,
            PID_DRAM,
            Some(*bank),
            "thread_name",
            &format!("bank {bank}"),
        );
        body.push(std::mem::take(&mut s));
    }
    for ((pid, tid), (src, dst)) in &links {
        meta(
            &mut s,
            *pid,
            Some(*tid),
            "thread_name",
            &format!("link {src}->{dst}"),
        );
        body.push(std::mem::take(&mut s));
    }

    // Second pass: the spans themselves, in emission order.
    let mut kernel_begin: BTreeMap<u32, u64> = BTreeMap::new();
    for e in events {
        match (e.component, e.kind) {
            (Component::Kernel, TraceKind::KernelBegin { kernel }) => {
                kernel_begin.insert(kernel, e.cycle);
            }
            (Component::Kernel, TraceKind::KernelEnd { kernel }) => {
                if let Some(begin) = kernel_begin.remove(&kernel) {
                    complete(
                        &mut s,
                        &format!("kernel {kernel}"),
                        "kernel",
                        begin,
                        e.cycle.saturating_sub(begin),
                        PID_KERNELS,
                        0,
                    );
                    body.push(std::mem::take(&mut s));
                }
            }
            (
                Component::DramBank { bank },
                TraceKind::DramAccess {
                    write,
                    row_hit,
                    start,
                    done,
                },
            ) => {
                let name = match (write, row_hit) {
                    (false, false) => "rd",
                    (false, true) => "rd hit",
                    (true, false) => "wr",
                    (true, true) => "wr hit",
                };
                complete(
                    &mut s,
                    name,
                    "dram",
                    start,
                    done.saturating_sub(start),
                    PID_DRAM,
                    u64::from(bank),
                );
                body.push(std::mem::take(&mut s));
            }
            (
                Component::Net { net },
                TraceKind::NetMsg {
                    src,
                    dst,
                    data,
                    start,
                    depart,
                    ..
                },
            ) => {
                complete(
                    &mut s,
                    if data { "data" } else { "ctrl" },
                    "noc",
                    start,
                    depart.saturating_sub(start),
                    net_pid(net),
                    link_tid(src, dst),
                );
                body.push(std::mem::take(&mut s));
            }
            _ => {}
        }
    }

    // Third pass: the pulse counter tracks, one sample per window at
    // the window's start cycle, then the anomaly instants.
    if let Some(series) = pulse {
        for w in 0..series.len() {
            let (start, _) = series.window_bounds(w);
            for (name, value) in pulse_tracks(series, w) {
                counter(&mut s, name, start, value);
                body.push(std::mem::take(&mut s));
            }
        }
        for a in &series.anomalies {
            write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"pulse\",\"ph\":\"i\",\"ts\":{},\
\"pid\":{PID_PULSE},\"s\":\"p\",\"args\":{{\"value\":{},\"threshold\":{},\"end\":{}}}}}",
                a.kind.name(),
                a.start,
                a.value,
                a.threshold,
                a.end
            )
            .unwrap();
            body.push(std::mem::take(&mut s));
        }
    }

    let mut out = String::with_capacity(body.iter().map(|b| b.len() + 2).sum::<usize>() + 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"ds-probe\",\"time_unit\":\"cycles\"},\"traceEvents\":[\n");
    for (i, item) in body.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(item);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, component: Component, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            cycle,
            component,
            line: None,
            kind,
        }
    }

    #[test]
    fn renders_kernel_dram_and_link_tracks() {
        let events = [
            ev(100, Component::Kernel, TraceKind::KernelBegin { kernel: 0 }),
            ev(
                120,
                Component::DramBank { bank: 3 },
                TraceKind::DramAccess {
                    write: false,
                    row_hit: true,
                    start: 118,
                    done: 126,
                },
            ),
            ev(
                130,
                Component::Net { net: NetId::Direct },
                TraceKind::NetMsg {
                    src: 4,
                    dst: 0,
                    data: true,
                    start: 130,
                    depart: 147,
                    arrive: 150,
                },
            ),
            ev(400, Component::Kernel, TraceKind::KernelEnd { kernel: 0 }),
        ];
        let doc = render(&events);
        assert!(doc.contains(r#""name":"kernel 0","cat":"kernel","ph":"X","ts":100,"dur":300"#));
        assert!(doc
            .contains(r#""name":"rd hit","cat":"dram","ph":"X","ts":118,"dur":8,"pid":1,"tid":3"#));
        assert!(doc
            .contains(r#""name":"data","cat":"noc","ph":"X","ts":130,"dur":17,"pid":3,"tid":256"#));
        assert!(doc.contains(r#""args":{"name":"bank 3"}"#));
        assert!(doc.contains(r#""args":{"name":"link 4->0"}"#));
        // Structurally sound: balanced braces/brackets, no trailing comma.
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "balanced braces"
        );
        assert!(!doc.contains(",\n]"));
    }

    #[test]
    fn pulse_series_renders_counter_tracks_and_anomaly_instants() {
        use crate::pulse::{ctr, PulseConfig, PulseSampler, PulseTotals};
        let mut sampler = PulseSampler::new(PulseConfig::with_window(100));
        let mut t = PulseTotals::default();
        t.counters[ctr::SM_OPS] = 7;
        t.counters[ctr::PUSHES_RETRIED] = 20;
        sampler.observe(100, t);
        t.counters[ctr::SM_OPS] = 9;
        t.counters[ctr::PUSHES_RETRIED] = 21;
        sampler.finish(150, t);
        let series = sampler.into_series();
        let doc = render_with_pulse(&[], Some(&series));
        assert!(doc.contains(r#""args":{"name":"pulse"}"#));
        assert!(doc.contains(r#""name":"sm_ops","ph":"C","ts":0,"pid":6,"args":{"sm_ops":7}"#));
        assert!(doc.contains(r#""name":"sm_ops","ph":"C","ts":100,"pid":6,"args":{"sm_ops":2}"#));
        assert!(doc.contains(r#""name":"retry-burst","cat":"pulse","ph":"i""#));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        // Without a series the document is unchanged from render().
        assert_eq!(render(&[]), render_with_pulse(&[], None));
        assert!(!render(&[]).contains("pulse"));
    }

    #[test]
    fn unmatched_kernel_begin_is_dropped_not_misrendered() {
        let events = [ev(
            10,
            Component::Kernel,
            TraceKind::KernelBegin { kernel: 7 },
        )];
        let doc = render(&events);
        assert!(!doc.contains("kernel 7"));
    }
}
