//! Machine-readable report serialization: JSON and CSV for
//! [`RunReport`] and [`Comparison`], in one place.
//!
//! The JSON encoding is lossless over `RunReport` — every field is an
//! integer or a list of integer pairs — so the on-disk result cache
//! round-trips reports bit-identically ([`report_to_json`] /
//! [`report_from_json`] are exact inverses, asserted by test).

use ds_cache::CacheStats;
use ds_core::{Comparison, InputSize, Mode, RunReport};
use ds_noc::XbarStats;
use ds_probe::pulse::{PULSE_COUNTER_NAMES, PULSE_GAUGE_NAMES};
use ds_probe::{
    BankTraffic, EpochSample, EpochTotals, HostPhase, HostProfile, LatencyReport, LensReport,
    LinkTraffic, NetId, PulseAnomaly, PulseAnomalyKind, PulseSeries, PulseTotals, SliceTraffic,
    SpanKind, SpanRecord, Stage, StageBreakdown,
};
use ds_sim::{Cycle, Histogram};

use crate::json::Json;

/// Renders a mode the way [`parse_mode`] reads it back (`Display`).
pub fn mode_name(mode: Mode) -> String {
    mode.to_string()
}

/// Parses a mode name produced by its `Display` impl.
pub fn parse_mode(name: &str) -> Option<Mode> {
    match name {
        "CCSM" => Some(Mode::Ccsm),
        "DS" => Some(Mode::DirectStore),
        "DS-only" => Some(Mode::DirectStoreOnly),
        _ => None,
    }
}

/// Parses an input-size name produced by its `Display` impl.
pub fn parse_input(name: &str) -> Option<InputSize> {
    match name {
        "small" => Some(InputSize::Small),
        "big" => Some(InputSize::Big),
        _ => None,
    }
}

fn cache_stats_to_json(s: &CacheStats) -> Json {
    Json::Obj(vec![
        ("hits".into(), Json::Int(s.hits.value())),
        ("misses".into(), Json::Int(s.misses.value())),
        (
            "compulsory_misses".into(),
            Json::Int(s.compulsory_misses.value()),
        ),
        ("evictions".into(), Json::Int(s.evictions.value())),
        ("writebacks".into(), Json::Int(s.writebacks.value())),
        ("pushed_fills".into(), Json::Int(s.pushed_fills.value())),
        ("push_hits".into(), Json::Int(s.push_hits.value())),
    ])
}

fn xbar_stats_to_json(s: &XbarStats) -> Json {
    Json::Obj(vec![
        ("control_msgs".into(), Json::Int(s.control_msgs)),
        ("data_msgs".into(), Json::Int(s.data_msgs)),
        ("bytes".into(), Json::Int(s.bytes)),
    ])
}

/// Lossless histogram encoding: the non-empty `(floor, count)` bucket
/// pairs plus exact sum/min/max (`sum` as a decimal string — u128
/// exceeds the integer range of the JSON writer). The p50/p95/p99
/// fields are derived conveniences for downstream plotting scripts and
/// are ignored on parse (recomputed from the buckets).
fn histogram_to_json(h: &Histogram) -> Json {
    Json::Obj(vec![
        (
            "buckets".into(),
            Json::Arr(
                h.iter()
                    .map(|(floor, count)| Json::Arr(vec![Json::Int(floor), Json::Int(count)]))
                    .collect(),
            ),
        ),
        ("sum".into(), Json::Str(h.sum().to_string())),
        ("min".into(), Json::Int(h.min().unwrap_or(0))),
        ("max".into(), Json::Int(h.max())),
        ("p50".into(), Json::Int(h.percentile(50.0).unwrap_or(0))),
        ("p95".into(), Json::Int(h.percentile(95.0).unwrap_or(0))),
        ("p99".into(), Json::Int(h.percentile(99.0).unwrap_or(0))),
    ])
}

fn histogram_from_json(json: &Json, name: &'static str) -> Result<Histogram, String> {
    let pairs = json
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing field \"buckets\" in histogram {name:?}"))?
        .iter()
        .map(|pair| {
            let parts = match pair.as_arr() {
                Some([floor, count]) => (floor.as_u64(), count.as_u64()),
                _ => (None, None),
            };
            match parts {
                (Some(floor), Some(count)) => Ok((floor, count)),
                _ => Err(format!("malformed bucket in histogram {name:?}")),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let sum = json
        .get("sum")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing field \"sum\" in histogram {name:?}"))?
        .parse::<u128>()
        .map_err(|e| format!("bad sum in histogram {name:?}: {e}"))?;
    Histogram::restore(
        name,
        pairs,
        sum,
        u64_field(json, "min")?,
        u64_field(json, "max")?,
    )
}

fn latency_to_json(l: &LatencyReport) -> Json {
    Json::Obj(vec![
        (
            LatencyReport::LOAD_TO_USE.into(),
            histogram_to_json(&l.load_to_use),
        ),
        (
            LatencyReport::PUSH_E2E.into(),
            histogram_to_json(&l.push_e2e),
        ),
        (LatencyReport::HUB_TXN.into(), histogram_to_json(&l.hub_txn)),
        (
            LatencyReport::DRAM_QUEUE.into(),
            histogram_to_json(&l.dram_queue),
        ),
    ])
}

fn latency_from_json(json: &Json) -> Result<LatencyReport, String> {
    let field = |name: &'static str| histogram_from_json(&sub(json, name)?, name);
    let mut report = LatencyReport::new();
    report.load_to_use = field(LatencyReport::LOAD_TO_USE)?;
    report.push_e2e = field(LatencyReport::PUSH_E2E)?;
    report.hub_txn = field(LatencyReport::HUB_TXN)?;
    report.dram_queue = field(LatencyReport::DRAM_QUEUE)?;
    Ok(report)
}

/// Serializes a stage breakdown: the per-stage cycle totals keyed by
/// stage name (in [`Stage::ALL`] order) plus the per-path counts and
/// end-to-end cycle sums.
fn stages_to_json(b: &StageBreakdown) -> Json {
    Json::Obj(vec![
        ("loads".into(), Json::Int(b.loads)),
        ("load_cycles".into(), Json::Int(b.load_cycles)),
        ("pushes".into(), Json::Int(b.pushes)),
        ("push_cycles".into(), Json::Int(b.push_cycles)),
        (
            "cycles".into(),
            Json::Obj(
                Stage::ALL
                    .iter()
                    .map(|&s| (s.name().to_string(), Json::Int(b.stage_cycles(s))))
                    .collect(),
            ),
        ),
    ])
}

/// Deserializes a breakdown written by [`stages_to_json`].
///
/// # Errors
///
/// Returns a message naming the first missing or mistyped field.
fn stages_from_json(json: &Json) -> Result<StageBreakdown, String> {
    let cycles_obj = sub(json, "cycles")?;
    let mut cycles = [0u64; Stage::COUNT];
    for s in Stage::ALL {
        cycles[s.index()] = u64_field(&cycles_obj, s.name())
            .map_err(|e| format!("in stage breakdown cycles: {e}"))?;
    }
    Ok(StageBreakdown {
        cycles,
        loads: u64_field(json, "loads")?,
        load_cycles: u64_field(json, "load_cycles")?,
        pushes: u64_field(json, "pushes")?,
        push_cycles: u64_field(json, "push_cycles")?,
    })
}

/// Serializes a host-time profile: wall-clock nanoseconds plus one
/// `{phase, self_nanos, count}` entry per [`HostPhase`] (all of them,
/// in [`HostPhase::ALL`] order, so the encoding is lossless).
fn host_to_json(h: &HostProfile) -> Json {
    Json::Obj(vec![
        ("wall_nanos".into(), Json::Int(h.wall_nanos)),
        (
            "phases".into(),
            Json::Arr(
                HostPhase::ALL
                    .iter()
                    .map(|&p| {
                        Json::Obj(vec![
                            ("phase".into(), Json::Str(p.name().into())),
                            ("self_nanos".into(), Json::Int(h.phase_nanos(p))),
                            ("count".into(), Json::Int(h.phase_count(p))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Deserializes a profile written by [`host_to_json`]. Unknown phase
/// names are rejected; absent phases stay zero (forward-compatible
/// with profiles written before a phase existed).
///
/// # Errors
///
/// Returns a message naming the first missing or mistyped field.
fn host_from_json(json: &Json) -> Result<HostProfile, String> {
    let mut h = HostProfile {
        wall_nanos: u64_field(json, "wall_nanos")?,
        ..HostProfile::default()
    };
    for entry in json
        .get("phases")
        .and_then(Json::as_arr)
        .ok_or("missing field \"phases\" in host profile")?
    {
        let name = entry
            .get("phase")
            .and_then(Json::as_str)
            .ok_or("missing field \"phase\" in host profile entry")?;
        let phase = HostPhase::from_name(name)
            .ok_or_else(|| format!("unknown host phase {name:?} in host profile"))?;
        h.self_nanos[phase.index()] =
            u64_field(entry, "self_nanos").map_err(|e| format!("in host phase {name:?}: {e}"))?;
        h.counts[phase.index()] =
            u64_field(entry, "count").map_err(|e| format!("in host phase {name:?}: {e}"))?;
    }
    Ok(h)
}

/// Serializes one ds-scope span record. Public so `ds-serve` streams
/// the same encoding over `/jobs/<id>/events` and in job results.
pub fn span_to_json(s: &SpanRecord) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::Int(s.id)),
        ("parent".into(), Json::Int(s.parent)),
        ("kind".into(), Json::Str(s.kind.name().into())),
        ("label".into(), Json::Str(s.label.clone())),
        ("start_us".into(), Json::Int(s.start_us)),
        ("end_us".into(), Json::Int(s.end_us)),
    ])
}

/// Deserializes a span written by [`span_to_json`].
///
/// # Errors
///
/// Returns a message naming the first missing or mistyped field.
pub fn span_from_json(json: &Json) -> Result<SpanRecord, String> {
    let kind_name = json
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing field \"kind\" in span")?;
    Ok(SpanRecord {
        id: u64_field(json, "id")?,
        parent: u64_field(json, "parent")?,
        kind: SpanKind::parse(kind_name)
            .ok_or_else(|| format!("unknown span kind {kind_name:?}"))?,
        label: json
            .get("label")
            .and_then(Json::as_str)
            .ok_or("missing field \"label\" in span")?
            .to_string(),
        start_us: u64_field(json, "start_us")?,
        end_us: u64_field(json, "end_us")?,
    })
}

/// Compact epoch encoding: one fixed-order integer array per window.
fn epoch_to_json(s: &EpochSample) -> Json {
    let d = s.delta;
    Json::Arr(
        [
            s.index,
            d.gpu_l2_accesses,
            d.gpu_l2_misses,
            d.cpu_l2_accesses,
            d.cpu_l2_misses,
            d.coh_msgs,
            d.direct_msgs,
            d.gpu_msgs,
            d.dram_accesses,
            d.direct_pushes,
        ]
        .iter()
        .map(|&v| Json::Int(v))
        .collect(),
    )
}

fn epoch_from_json(json: &Json) -> Result<EpochSample, String> {
    let vals = json
        .as_arr()
        .filter(|a| a.len() == 10)
        .ok_or("malformed epoch sample")?
        .iter()
        .map(|v| v.as_u64().ok_or_else(|| "malformed epoch sample".into()))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(EpochSample {
        index: vals[0],
        delta: EpochTotals {
            gpu_l2_accesses: vals[1],
            gpu_l2_misses: vals[2],
            cpu_l2_accesses: vals[3],
            cpu_l2_misses: vals[4],
            coh_msgs: vals[5],
            direct_msgs: vals[6],
            gpu_msgs: vals[7],
            dram_accesses: vals[8],
            direct_pushes: vals[9],
        },
    })
}

fn u64_arr(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Int(v)).collect())
}

fn u64_arr_from_json(json: &Json, what: &str) -> Result<Vec<u64>, String> {
    json.as_arr()
        .ok_or_else(|| format!("{what} is not an array"))?
        .iter()
        .map(|v| v.as_u64().ok_or_else(|| format!("non-integer in {what}")))
        .collect()
}

/// Serializes one pulse anomaly annotation.
pub fn pulse_anomaly_to_json(a: &PulseAnomaly) -> Json {
    Json::Obj(vec![
        ("kind".into(), Json::Str(a.kind.name().into())),
        ("start".into(), Json::Int(a.start)),
        ("end".into(), Json::Int(a.end)),
        ("value".into(), Json::Int(a.value)),
        ("threshold".into(), Json::Int(a.threshold)),
    ])
}

/// Deserializes an anomaly written by [`pulse_anomaly_to_json`].
///
/// # Errors
///
/// Returns a message naming the first missing or mistyped field.
pub fn pulse_anomaly_from_json(json: &Json) -> Result<PulseAnomaly, String> {
    let kind_name = json
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing field \"kind\" in pulse anomaly")?;
    Ok(PulseAnomaly {
        kind: PulseAnomalyKind::parse(kind_name)
            .ok_or_else(|| format!("unknown pulse anomaly kind {kind_name:?}"))?,
        start: u64_field(json, "start")?,
        end: u64_field(json, "end")?,
        value: u64_field(json, "value")?,
        threshold: u64_field(json, "threshold")?,
    })
}

/// Serializes a pulse series: window geometry, the per-window counter
/// and gauge series keyed by their stable names, the final totals and
/// the anomaly annotations. Public so `ds-serve` streams the same
/// encoding in job events.
pub fn pulse_to_json(s: &PulseSeries) -> Json {
    Json::Obj(vec![
        ("base_window".into(), Json::Int(s.base_window)),
        ("window".into(), Json::Int(s.window)),
        ("coalescings".into(), Json::Int(u64::from(s.coalescings))),
        (
            "counters".into(),
            Json::Obj(
                PULSE_COUNTER_NAMES
                    .iter()
                    .zip(&s.counters)
                    .map(|(&name, series)| (name.to_string(), u64_arr(series)))
                    .collect(),
            ),
        ),
        (
            "gauges".into(),
            Json::Obj(
                PULSE_GAUGE_NAMES
                    .iter()
                    .zip(&s.gauges)
                    .map(|(&name, series)| (name.to_string(), u64_arr(series)))
                    .collect(),
            ),
        ),
        (
            "totals".into(),
            Json::Obj(vec![
                ("counters".into(), u64_arr(&s.totals.counters)),
                ("gauges".into(), u64_arr(&s.totals.gauges)),
            ]),
        ),
        (
            "anomalies".into(),
            Json::Arr(s.anomalies.iter().map(pulse_anomaly_to_json).collect()),
        ),
    ])
}

/// Deserializes a series written by [`pulse_to_json`].
///
/// # Errors
///
/// Returns a message naming the first missing or mistyped field.
pub fn pulse_from_json(json: &Json) -> Result<PulseSeries, String> {
    fn named_series<const N: usize>(
        json: &Json,
        key: &str,
        names: &[&str; N],
    ) -> Result<Vec<Vec<u64>>, String> {
        let obj = sub(json, key).map_err(|e| format!("{e} in pulse"))?;
        names
            .iter()
            .map(|&name| {
                let series = obj
                    .get(name)
                    .ok_or_else(|| format!("missing pulse {key} series {name:?}"))?;
                u64_arr_from_json(series, &format!("pulse {key} series {name:?}"))
            })
            .collect()
    }
    let totals_obj = sub(json, "totals").map_err(|e| format!("{e} in pulse"))?;
    let mut totals = PulseTotals::default();
    let counters = u64_arr_from_json(&sub(&totals_obj, "counters")?, "pulse totals counters")?;
    let gauges = u64_arr_from_json(&sub(&totals_obj, "gauges")?, "pulse totals gauges")?;
    if counters.len() != totals.counters.len() || gauges.len() != totals.gauges.len() {
        return Err("pulse totals have the wrong arity".into());
    }
    totals.counters.copy_from_slice(&counters);
    totals.gauges.copy_from_slice(&gauges);
    Ok(PulseSeries {
        base_window: u64_field(json, "base_window")?,
        window: u64_field(json, "window")?,
        coalescings: u32::try_from(u64_field(json, "coalescings")?)
            .map_err(|_| "pulse coalescings out of range".to_string())?,
        counters: named_series(json, "counters", &PULSE_COUNTER_NAMES)?,
        gauges: named_series(json, "gauges", &PULSE_GAUGE_NAMES)?,
        totals,
        anomalies: json
            .get("anomalies")
            .and_then(Json::as_arr)
            .ok_or("missing field \"anomalies\" in pulse")?
            .iter()
            .map(pulse_anomaly_from_json)
            .collect::<Result<_, _>>()?,
    })
}

fn parse_net(name: &str) -> Option<NetId> {
    [NetId::Coherence, NetId::Direct, NetId::GpuInternal]
        .into_iter()
        .find(|n| n.name() == name)
}

/// Serializes the per-cacheline forensics: efficacy/pathology scalars,
/// the two line histograms, and the three spatial matrices (slices and
/// banks as fixed-order integer rows, links as `[net, src, dst,
/// control, data]` tuples in the report's sorted order).
fn lens_to_json(l: &LensReport) -> Json {
    Json::Obj(vec![
        ("push_useful".into(), Json::Int(l.push_useful)),
        ("push_dead".into(), Json::Int(l.push_dead)),
        ("push_clobbered".into(), Json::Int(l.push_clobbered)),
        ("push_bypasses".into(), Json::Int(l.push_bypasses)),
        ("push_degraded".into(), Json::Int(l.push_degraded)),
        ("write_after_push".into(), Json::Int(l.write_after_push)),
        ("ping_pongs".into(), Json::Int(l.ping_pongs)),
        ("lines_touched".into(), Json::Int(l.lines_touched)),
        ("lines_pushed".into(), Json::Int(l.lines_pushed)),
        (
            LensReport::FIRST_TOUCH.into(),
            histogram_to_json(&l.first_touch),
        ),
        (LensReport::REUSE.into(), histogram_to_json(&l.reuse)),
        (
            "slices".into(),
            Json::Arr(
                l.slices
                    .iter()
                    .map(|s| Json::Arr(s.row().iter().map(|&v| Json::Int(v)).collect()))
                    .collect(),
            ),
        ),
        (
            "banks".into(),
            Json::Arr(
                l.banks
                    .iter()
                    .map(|b| Json::Arr(b.row().iter().map(|&v| Json::Int(v)).collect()))
                    .collect(),
            ),
        ),
        (
            "links".into(),
            Json::Arr(
                l.links
                    .iter()
                    .map(|k| {
                        Json::Arr(vec![
                            Json::Str(k.net.name().into()),
                            Json::Int(u64::from(k.src)),
                            Json::Int(u64::from(k.dst)),
                            Json::Int(k.control),
                            Json::Int(k.data),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn lens_from_json(json: &Json) -> Result<LensReport, String> {
    fn rows<const N: usize>(json: &Json, key: &str) -> Result<Vec<[u64; N]>, String> {
        json.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing field {key:?} in lens"))?
            .iter()
            .map(|row| {
                row.as_arr()
                    .filter(|r| r.len() == N)
                    .and_then(|r| {
                        let mut out = [0u64; N];
                        for (slot, v) in out.iter_mut().zip(r) {
                            *slot = v.as_u64()?;
                        }
                        Some(out)
                    })
                    .ok_or_else(|| format!("malformed {key} row in lens"))
            })
            .collect()
    }
    let slices = rows::<9>(json, "slices")?
        .into_iter()
        .map(|[hits, misses, demand_fills, push_fills, push_hits, push_bypasses, evictions, writebacks, invalidations]| {
            SliceTraffic {
                hits,
                misses,
                demand_fills,
                push_fills,
                push_hits,
                push_bypasses,
                evictions,
                writebacks,
                invalidations,
            }
        })
        .collect();
    let banks = rows::<3>(json, "banks")?
        .into_iter()
        .map(|[reads, writes, row_hits]| BankTraffic {
            reads,
            writes,
            row_hits,
        })
        .collect();
    let links = json
        .get("links")
        .and_then(Json::as_arr)
        .ok_or("missing field \"links\" in lens")?
        .iter()
        .map(|row| {
            let parts = row.as_arr().filter(|r| r.len() == 5);
            let link = parts.and_then(|r| {
                Some(LinkTraffic {
                    net: parse_net(r[0].as_str()?)?,
                    src: u8::try_from(r[1].as_u64()?).ok()?,
                    dst: u8::try_from(r[2].as_u64()?).ok()?,
                    control: r[3].as_u64()?,
                    data: r[4].as_u64()?,
                })
            });
            link.ok_or_else(|| "malformed link row in lens".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(LensReport {
        push_useful: u64_field(json, "push_useful")?,
        push_dead: u64_field(json, "push_dead")?,
        push_clobbered: u64_field(json, "push_clobbered")?,
        push_bypasses: u64_field(json, "push_bypasses")?,
        push_degraded: u64_field(json, "push_degraded")?,
        write_after_push: u64_field(json, "write_after_push")?,
        ping_pongs: u64_field(json, "ping_pongs")?,
        lines_touched: u64_field(json, "lines_touched")?,
        lines_pushed: u64_field(json, "lines_pushed")?,
        first_touch: histogram_from_json(
            &sub(json, LensReport::FIRST_TOUCH)?,
            LensReport::FIRST_TOUCH,
        )?,
        reuse: histogram_from_json(&sub(json, LensReport::REUSE)?, LensReport::REUSE)?,
        slices,
        banks,
        links,
    })
}

/// Serializes a full run report. The `host` profile and the `pulse`
/// series are emitted only when present, so reports from unprofiled,
/// unpulsed runs stay byte-identical to the older encodings.
pub fn report_to_json(r: &RunReport) -> Json {
    let mut fields = vec![
        ("mode".into(), Json::Str(mode_name(r.mode))),
        ("total_cycles".into(), Json::Int(r.total_cycles.as_u64())),
        ("gpu_l2".into(), cache_stats_to_json(&r.gpu_l2)),
        ("cpu_l2".into(), cache_stats_to_json(&r.cpu_l2)),
        ("gpu_l1".into(), cache_stats_to_json(&r.gpu_l1)),
        ("cpu_l1".into(), cache_stats_to_json(&r.cpu_l1)),
        ("coh_net".into(), xbar_stats_to_json(&r.coh_net)),
        ("direct_net".into(), xbar_stats_to_json(&r.direct_net)),
        ("gpu_net".into(), xbar_stats_to_json(&r.gpu_net)),
        ("dram_reads".into(), Json::Int(r.dram_reads)),
        ("dram_writes".into(), Json::Int(r.dram_writes)),
        ("direct_pushes".into(), Json::Int(r.direct_pushes)),
        (
            "store_buffer_stalls".into(),
            Json::Int(r.store_buffer_stalls),
        ),
        ("kernels_run".into(), Json::Int(r.kernels_run)),
        ("warps_completed".into(), Json::Int(r.warps_completed)),
        (
            "first_kernel_start".into(),
            Json::Int(r.first_kernel_start.as_u64()),
        ),
        (
            "last_kernel_end".into(),
            Json::Int(r.last_kernel_end.as_u64()),
        ),
        (
            "kernel_spans".into(),
            Json::Arr(
                r.kernel_spans
                    .iter()
                    .map(|&(s, e)| Json::Arr(vec![Json::Int(s.as_u64()), Json::Int(e.as_u64())]))
                    .collect(),
            ),
        ),
        ("push_bypasses".into(), Json::Int(r.push_bypasses)),
        ("hub_transactions".into(), Json::Int(r.hub_transactions)),
        ("hub_conflicts".into(), Json::Int(r.hub_conflicts)),
        ("hub_probes".into(), Json::Int(r.hub_probes)),
        ("dram_row_hits".into(), Json::Int(r.dram_row_hits)),
        ("pushes_attempted".into(), Json::Int(r.pushes_attempted)),
        ("pushes_retried".into(), Json::Int(r.pushes_retried)),
        ("pushes_degraded".into(), Json::Int(r.pushes_degraded)),
        ("faults_injected".into(), Json::Int(r.faults_injected)),
        ("latency".into(), latency_to_json(&r.latency)),
        ("stages".into(), stages_to_json(&r.stages)),
        ("lens".into(), lens_to_json(&r.lens)),
        ("epoch_window".into(), Json::Int(r.epoch_window)),
        (
            "epochs".into(),
            Json::Arr(r.epochs.iter().map(epoch_to_json).collect()),
        ),
        ("events".into(), Json::Int(r.events)),
    ];
    if let Some(host) = &r.host {
        fields.push(("host".into(), host_to_json(host)));
    }
    if let Some(pulse) = &r.pulse {
        fields.push(("pulse".into(), pulse_to_json(pulse)));
    }
    Json::Obj(fields)
}

/// Serializes a comparison: coordinates, both reports, and the derived
/// figure metrics for plotting convenience.
pub fn comparison_to_json(c: &Comparison) -> Json {
    let (miss_ccsm, miss_ds) = c.miss_rates();
    Json::Obj(vec![
        ("code".into(), Json::Str(c.code.clone())),
        ("input".into(), Json::Str(c.input.to_string())),
        ("speedup".into(), Json::Float(c.speedup())),
        ("speedup_percent".into(), Json::Float(c.speedup_percent())),
        ("miss_rate_ccsm".into(), Json::Float(miss_ccsm)),
        ("miss_rate_ds".into(), Json::Float(miss_ds)),
        ("ccsm".into(), report_to_json(&c.ccsm)),
        ("direct_store".into(), report_to_json(&c.direct_store)),
    ])
}

fn u64_field(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn cache_stats_from_json(json: &Json) -> Result<CacheStats, String> {
    let mut s = CacheStats::new();
    s.hits.add(u64_field(json, "hits")?);
    s.misses.add(u64_field(json, "misses")?);
    s.compulsory_misses
        .add(u64_field(json, "compulsory_misses")?);
    s.evictions.add(u64_field(json, "evictions")?);
    s.writebacks.add(u64_field(json, "writebacks")?);
    s.pushed_fills.add(u64_field(json, "pushed_fills")?);
    s.push_hits.add(u64_field(json, "push_hits")?);
    Ok(s)
}

fn xbar_stats_from_json(json: &Json) -> Result<XbarStats, String> {
    Ok(XbarStats {
        control_msgs: u64_field(json, "control_msgs")?,
        data_msgs: u64_field(json, "data_msgs")?,
        bytes: u64_field(json, "bytes")?,
    })
}

fn sub(json: &Json, key: &str) -> Result<Json, String> {
    json.get(key)
        .cloned()
        .ok_or_else(|| format!("missing field {key:?}"))
}

/// Deserializes a report written by [`report_to_json`].
///
/// # Errors
///
/// Returns a message naming the first missing or mistyped field.
pub fn report_from_json(json: &Json) -> Result<RunReport, String> {
    let mode_str = json
        .get("mode")
        .and_then(Json::as_str)
        .ok_or("missing field \"mode\"")?;
    let mode = parse_mode(mode_str).ok_or_else(|| format!("unknown mode {mode_str:?}"))?;
    let kernel_spans = json
        .get("kernel_spans")
        .and_then(Json::as_arr)
        .ok_or("missing field \"kernel_spans\"")?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().filter(|p| p.len() == 2);
            let (s, e) = match pair {
                Some([s, e]) => (s.as_u64(), e.as_u64()),
                _ => (None, None),
            };
            match (s, e) {
                (Some(s), Some(e)) => Ok((Cycle::new(s), Cycle::new(e))),
                _ => Err("malformed kernel span".to_string()),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RunReport {
        mode,
        total_cycles: Cycle::new(u64_field(json, "total_cycles")?),
        gpu_l2: cache_stats_from_json(&sub(json, "gpu_l2")?)?,
        cpu_l2: cache_stats_from_json(&sub(json, "cpu_l2")?)?,
        gpu_l1: cache_stats_from_json(&sub(json, "gpu_l1")?)?,
        cpu_l1: cache_stats_from_json(&sub(json, "cpu_l1")?)?,
        coh_net: xbar_stats_from_json(&sub(json, "coh_net")?)?,
        direct_net: xbar_stats_from_json(&sub(json, "direct_net")?)?,
        gpu_net: xbar_stats_from_json(&sub(json, "gpu_net")?)?,
        dram_reads: u64_field(json, "dram_reads")?,
        dram_writes: u64_field(json, "dram_writes")?,
        direct_pushes: u64_field(json, "direct_pushes")?,
        store_buffer_stalls: u64_field(json, "store_buffer_stalls")?,
        kernels_run: u64_field(json, "kernels_run")?,
        warps_completed: u64_field(json, "warps_completed")?,
        first_kernel_start: Cycle::new(u64_field(json, "first_kernel_start")?),
        last_kernel_end: Cycle::new(u64_field(json, "last_kernel_end")?),
        kernel_spans,
        push_bypasses: u64_field(json, "push_bypasses")?,
        hub_transactions: u64_field(json, "hub_transactions")?,
        hub_conflicts: u64_field(json, "hub_conflicts")?,
        hub_probes: u64_field(json, "hub_probes")?,
        dram_row_hits: u64_field(json, "dram_row_hits")?,
        pushes_attempted: u64_field(json, "pushes_attempted")?,
        pushes_retried: u64_field(json, "pushes_retried")?,
        pushes_degraded: u64_field(json, "pushes_degraded")?,
        faults_injected: u64_field(json, "faults_injected")?,
        latency: latency_from_json(&sub(json, "latency")?)?,
        stages: stages_from_json(&sub(json, "stages")?)?,
        lens: lens_from_json(&sub(json, "lens")?)?,
        epochs: json
            .get("epochs")
            .and_then(Json::as_arr)
            .ok_or("missing field \"epochs\"")?
            .iter()
            .map(epoch_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        epoch_window: u64_field(json, "epoch_window")?,
        events: u64_field(json, "events")?,
        host: match json.get("host") {
            Some(h) => Some(host_from_json(h)?),
            None => None,
        },
        pulse: match json.get("pulse") {
            Some(p) => Some(pulse_from_json(p)?),
            None => None,
        },
    })
}

/// Header row matching [`report_csv_row`] (the `export_csv` schema).
/// The `stage_*` columns follow [`Stage::ALL`] order, then the four
/// per-path aggregates.
pub const REPORT_CSV_HEADER: &str = "benchmark,suite,shared_memory,input,mode,total_cycles,\
     gpu_l2_accesses,gpu_l2_misses,gpu_l2_miss_rate,gpu_l2_compulsory,push_hits,\
     direct_pushes,coh_msgs,direct_msgs,gpu_msgs,dram_reads,dram_writes,\
     load_to_use_p50,load_to_use_p95,load_to_use_p99,\
     stage_sm_l1,stage_gpu_noc_req,stage_slice_queue,stage_mshr_stall,stage_mshr_wait,\
     stage_coh_req,stage_hub_dir,stage_dram_queue,stage_dram_service,stage_resp_noc,\
     stage_slice_to_sm,stage_sb_wait,stage_direct_noc,stage_direct_ack,\
     stage_loads,stage_load_cycles,stage_pushes,stage_push_cycles,\
     push_eff_useful,push_eff_dead,push_eff_clobbered,\
     line_write_after_push,line_ping_pongs,line_lines_touched,line_lines_pushed,\
     line_first_touch_p50,line_first_touch_p99,line_reuse_p50,\
     pushes_retried,pushes_degraded,faults_injected,\
     pulse_windows,pulse_window_cycles,pulse_anomalies";

/// One per-run CSV row; `suite` / `shared_memory` come from the
/// benchmark's Table II metadata.
pub fn report_csv_row(
    code: &str,
    suite: &str,
    shared_memory: bool,
    input: InputSize,
    r: &RunReport,
) -> String {
    let mut row = format!(
        "{},{},{},{},{},{},{},{},{:.6},{},{},{},{},{},{},{},{},{},{},{}",
        code,
        suite,
        shared_memory,
        input,
        r.mode,
        r.total_cycles.as_u64(),
        r.gpu_l2.accesses(),
        r.gpu_l2.misses.value(),
        r.gpu_l2_miss_rate(),
        r.gpu_l2_compulsory_misses(),
        r.gpu_l2.push_hits.value(),
        r.direct_pushes,
        r.coh_net.total_msgs(),
        r.direct_net.total_msgs(),
        r.gpu_net.total_msgs(),
        r.dram_reads,
        r.dram_writes,
        r.latency.load_to_use.percentile(50.0).unwrap_or(0),
        r.latency.load_to_use.percentile(95.0).unwrap_or(0),
        r.latency.load_to_use.percentile(99.0).unwrap_or(0)
    );
    for s in Stage::ALL {
        row.push_str(&format!(",{}", r.stages.stage_cycles(s)));
    }
    row.push_str(&format!(
        ",{},{},{},{}",
        r.stages.loads, r.stages.load_cycles, r.stages.pushes, r.stages.push_cycles
    ));
    let l = &r.lens;
    row.push_str(&format!(
        ",{},{},{},{},{},{},{},{},{},{}",
        l.push_useful,
        l.push_dead,
        l.push_clobbered,
        l.write_after_push,
        l.ping_pongs,
        l.lines_touched,
        l.lines_pushed,
        l.first_touch.percentile(50.0).unwrap_or(0),
        l.first_touch.percentile(99.0).unwrap_or(0),
        l.reuse.percentile(50.0).unwrap_or(0)
    ));
    row.push_str(&format!(
        ",{},{},{}",
        r.pushes_retried, r.pushes_degraded, r.faults_injected
    ));
    // Pulse summary columns (all zero when sampling was off).
    let (windows, window_cycles, anomalies) = r
        .pulse
        .as_ref()
        .map(|p| (p.len() as u64, p.window, p.anomalies.len() as u64))
        .unwrap_or((0, 0, 0));
    row.push_str(&format!(",{windows},{window_cycles},{anomalies}"));
    row
}

/// Header row matching [`comparison_csv_row`].
pub const COMPARISON_CSV_HEADER: &str = "benchmark,input,speedup,speedup_percent,\
     ccsm_cycles,ds_cycles,ccsm_miss_rate,ds_miss_rate,ccsm_compulsory,ds_compulsory";

/// One comparison CSV row (the Fig. 4 / Fig. 5 metrics).
pub fn comparison_csv_row(c: &Comparison) -> String {
    let (miss_ccsm, miss_ds) = c.miss_rates();
    let (comp_ccsm, comp_ds) = c.compulsory_misses();
    format!(
        "{},{},{:.6},{:.4},{},{},{:.6},{:.6},{},{}",
        c.code,
        c.input,
        c.speedup(),
        c.speedup_percent(),
        c.ccsm.total_cycles.as_u64(),
        c.direct_store.total_cycles.as_u64(),
        miss_ccsm,
        miss_ds,
        comp_ccsm,
        comp_ds
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_cache::MissKind;

    fn sample_report(mode: Mode) -> RunReport {
        let mut gpu_l2 = CacheStats::new();
        gpu_l2.record_hit();
        gpu_l2.record_miss(MissKind::Compulsory);
        gpu_l2.pushed_fills.add(9);
        let mut latency = LatencyReport::new();
        latency.load_to_use.record(120);
        latency.load_to_use.record(641);
        latency.hub_txn.record(77);
        latency.dram_queue.record(0);
        let mut stages = StageBreakdown::new();
        stages.cycles[Stage::SmL1.index()] = 100;
        stages.cycles[Stage::HubDir.index()] = 511;
        stages.cycles[Stage::SliceToSm.index()] = 150;
        stages.cycles[Stage::SbWait.index()] = 40;
        stages.loads = 2;
        stages.load_cycles = 761;
        stages.pushes = 1;
        stages.push_cycles = 40;
        let mut lens = LensReport::empty();
        lens.push_useful = 6;
        lens.push_dead = 2;
        lens.push_clobbered = 1;
        lens.push_bypasses = 5;
        lens.push_degraded = 1;
        lens.write_after_push = 1;
        lens.ping_pongs = 1;
        lens.lines_touched = 12;
        lens.lines_pushed = 8;
        lens.first_touch.record(35);
        lens.first_touch.record(90);
        lens.reuse.record(128);
        lens.slices = vec![
            SliceTraffic {
                hits: 3,
                misses: 1,
                demand_fills: 1,
                push_fills: 9,
                push_hits: 2,
                push_bypasses: 5,
                evictions: 1,
                writebacks: 0,
                invalidations: 2,
            },
            SliceTraffic::default(),
        ];
        lens.banks = vec![
            BankTraffic {
                reads: 7,
                writes: 3,
                row_hits: 4,
            },
            BankTraffic::default(),
        ];
        lens.links = vec![
            LinkTraffic {
                net: NetId::Coherence,
                src: 0,
                dst: 5,
                control: 10,
                data: 20,
            },
            LinkTraffic {
                net: NetId::Direct,
                src: 0,
                dst: 1,
                control: 1,
                data: 42,
            },
        ];
        RunReport {
            mode,
            total_cycles: Cycle::new(123_456),
            gpu_l2,
            cpu_l2: CacheStats::new(),
            gpu_l1: CacheStats::new(),
            cpu_l1: CacheStats::new(),
            coh_net: XbarStats {
                control_msgs: 10,
                data_msgs: 20,
                bytes: 30,
            },
            direct_net: XbarStats::default(),
            gpu_net: XbarStats::default(),
            dram_reads: 7,
            dram_writes: 3,
            direct_pushes: 42,
            store_buffer_stalls: 1,
            kernels_run: 2,
            warps_completed: 64,
            first_kernel_start: Cycle::new(100),
            last_kernel_end: Cycle::new(9000),
            kernel_spans: vec![
                (Cycle::new(100), Cycle::new(4000)),
                (Cycle::new(4100), Cycle::new(9000)),
            ],
            push_bypasses: 5,
            hub_transactions: 11,
            hub_conflicts: 2,
            hub_probes: 33,
            dram_row_hits: 4,
            pushes_attempted: 43,
            pushes_retried: 2,
            pushes_degraded: 1,
            faults_injected: 6,
            latency,
            stages,
            lens,
            epochs: vec![
                EpochSample {
                    index: 0,
                    delta: EpochTotals {
                        gpu_l2_accesses: 8,
                        gpu_l2_misses: 2,
                        direct_pushes: 1,
                        ..EpochTotals::default()
                    },
                },
                EpochSample {
                    index: 1,
                    delta: EpochTotals::default(),
                },
            ],
            epoch_window: 1000,
            events: 99_999,
            host: None,
            pulse: None,
        }
    }

    fn sample_pulse() -> PulseSeries {
        use ds_probe::pulse::{ctr, PulseConfig, PulseSampler};
        let mut sampler = PulseSampler::new(PulseConfig::with_window(1000));
        let mut t = PulseTotals::default();
        t.counters[ctr::GPU_L2_ACCESSES] = 8;
        t.counters[ctr::PUSHES_RETRIED] = 20;
        t.gauges[1] = 3;
        sampler.observe(1000, t);
        t.counters[ctr::GPU_L2_ACCESSES] = 11;
        t.counters[ctr::PUSHES_RETRIED] = 21;
        sampler.finish(1500, t);
        sampler.into_series()
    }

    fn sample_host() -> HostProfile {
        let mut host = HostProfile {
            wall_nanos: 5_000_000,
            ..HostProfile::default()
        };
        for (i, phase) in HostPhase::ALL.iter().enumerate() {
            host.self_nanos[phase.index()] = 1_000 * (i as u64 + 1);
            host.counts[phase.index()] = 10 + i as u64;
        }
        host
    }

    #[test]
    fn report_json_round_trip_is_exact() {
        for mode in [Mode::Ccsm, Mode::DirectStore, Mode::DirectStoreOnly] {
            let original = sample_report(mode);
            let text = report_to_json(&original).pretty();
            let parsed = crate::json::parse(&text).unwrap();
            let back = report_from_json(&parsed).unwrap();
            assert_eq!(format!("{original:?}"), format!("{back:?}"), "{mode}");
        }
    }

    #[test]
    fn host_profile_round_trips_exactly_and_is_optional() {
        let mut original = sample_report(Mode::DirectStore);
        original.host = Some(sample_host());
        let text = report_to_json(&original).pretty();
        assert!(text.contains("\"host\""));
        let parsed = crate::json::parse(&text).unwrap();
        let back = report_from_json(&parsed).unwrap();
        assert_eq!(format!("{original:?}"), format!("{back:?}"));

        // Unprofiled reports omit the key entirely and decode to None.
        let bare = report_to_json(&sample_report(Mode::DirectStore)).pretty();
        assert!(!bare.contains("\"host\""));
        let parsed = crate::json::parse(&bare).unwrap();
        assert!(report_from_json(&parsed).unwrap().host.is_none());
    }

    #[test]
    fn pulse_series_round_trips_exactly_and_is_optional() {
        let mut original = sample_report(Mode::DirectStore);
        original.pulse = Some(sample_pulse());
        let text = report_to_json(&original).pretty();
        assert!(text.contains("\"pulse\""));
        assert!(text.contains("\"retry-burst\""), "anomaly rides along");
        let parsed = crate::json::parse(&text).unwrap();
        let back = report_from_json(&parsed).unwrap();
        assert_eq!(format!("{original:?}"), format!("{back:?}"));
        back.pulse.unwrap().check_conservation().unwrap();

        // Unpulsed reports omit the key entirely and decode to None —
        // the cache byte-identity guarantee rests on this.
        let bare = report_to_json(&sample_report(Mode::DirectStore)).pretty();
        assert!(!bare.contains("\"pulse\""));
        let parsed = crate::json::parse(&bare).unwrap();
        assert!(report_from_json(&parsed).unwrap().pulse.is_none());
    }

    #[test]
    fn pulse_anomaly_from_json_rejects_unknown_kind() {
        let series = sample_pulse();
        let mut json = pulse_anomaly_to_json(&series.anomalies[0]);
        if let Json::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "kind" {
                    *v = Json::Str("gremlin".into());
                }
            }
        }
        let err = pulse_anomaly_from_json(&json).unwrap_err();
        assert!(err.contains("gremlin"), "{err}");
    }

    #[test]
    fn csv_pulse_columns_summarize_the_series() {
        let mut r = sample_report(Mode::DirectStore);
        let row = report_csv_row("VA", "Rodinia", false, InputSize::Small, &r);
        assert!(row.ends_with(",0,0,0"), "pulse off: zero columns ({row})");
        r.pulse = Some(sample_pulse());
        let row = report_csv_row("VA", "Rodinia", false, InputSize::Small, &r);
        // Two windows; retry burst (window 0) plus livelock precursor
        // (second ack-free retrying window) = two anomalies.
        assert!(row.ends_with(",2,1000,2"), "{row}");
        assert_eq!(row.split(',').count(), REPORT_CSV_HEADER.split(',').count());
    }

    #[test]
    fn span_from_json_rejects_unknown_kind() {
        let span = SpanRecord {
            id: 41,
            parent: 0,
            kind: SpanKind::Task,
            label: "VA small DS".into(),
            start_us: 0,
            end_us: 5_000,
        };
        let mut json = span_to_json(&span);
        if let Json::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "kind" {
                    *v = Json::Str("warp".into());
                }
            }
        }
        let err = span_from_json(&json).unwrap_err();
        assert!(err.contains("warp"), "{err}");
    }

    #[test]
    fn host_from_json_rejects_unknown_phase() {
        let mut json = host_to_json(&sample_host());
        if let Json::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "phases" {
                    if let Json::Arr(entries) = v {
                        if let Json::Obj(entry) = &mut entries[0] {
                            entry[0].1 = Json::Str("warp_scheduler".into());
                        }
                    }
                }
            }
        }
        let err = host_from_json(&json).unwrap_err();
        assert!(err.contains("warp_scheduler"), "{err}");
    }

    #[test]
    fn report_from_json_names_the_bad_field() {
        let mut json = report_to_json(&sample_report(Mode::Ccsm));
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| k != "dram_reads");
        }
        let err = report_from_json(&json).unwrap_err();
        assert!(err.contains("dram_reads"), "{err}");
    }

    #[test]
    fn mode_and_input_names_round_trip() {
        for mode in [Mode::Ccsm, Mode::DirectStore, Mode::DirectStoreOnly] {
            assert_eq!(parse_mode(&mode_name(mode)), Some(mode));
        }
        for input in [InputSize::Small, InputSize::Big] {
            assert_eq!(parse_input(&input.to_string()), Some(input));
        }
        assert_eq!(parse_mode("bogus"), None);
        assert_eq!(parse_input("bogus"), None);
    }

    #[test]
    fn csv_rows_match_headers() {
        let r = sample_report(Mode::DirectStore);
        let row = report_csv_row("VA", "Rodinia", false, InputSize::Small, &r);
        assert_eq!(row.split(',').count(), REPORT_CSV_HEADER.split(',').count());
        assert!(row.starts_with("VA,Rodinia,false,small,DS,123456,"));

        let c = Comparison {
            code: "VA".into(),
            input: InputSize::Small,
            ccsm: sample_report(Mode::Ccsm),
            direct_store: r,
        };
        let crow = comparison_csv_row(&c);
        assert_eq!(
            crow.split(',').count(),
            COMPARISON_CSV_HEADER.split(',').count()
        );
    }

    #[test]
    fn comparison_json_carries_figure_metrics() {
        let c = Comparison {
            code: "NN".into(),
            input: InputSize::Big,
            ccsm: sample_report(Mode::Ccsm),
            direct_store: sample_report(Mode::DirectStore),
        };
        let json = comparison_to_json(&c);
        assert_eq!(json.get("code").unwrap().as_str(), Some("NN"));
        assert_eq!(json.get("input").unwrap().as_str(), Some("big"));
        assert!(json.get("speedup").is_some());
        assert!(json.get("ccsm").unwrap().get("total_cycles").is_some());
    }
}
