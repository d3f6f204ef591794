//! The JSONL sink: one JSON object per event, one event per line.
//!
//! The format is deliberately flat and stable — fixed key order,
//! integers and booleans only — so traces diff cleanly and the
//! determinism guarantee ("same run, same bytes") is testable at the
//! byte level. Detail fields of the event kind are flattened into the
//! top-level object.

use std::fmt::Write;

use crate::{TraceEvent, TraceKind};

/// Renders one event as a single JSON line (no trailing newline).
pub fn render_event(e: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    write!(
        s,
        "{{\"cycle\":{},\"component\":\"{}\"",
        e.cycle,
        e.component.name()
    )
    .unwrap();
    if let Some(unit) = e.component.unit() {
        write!(s, ",\"unit\":{unit}").unwrap();
    }
    write!(s, ",\"kind\":\"{}\"", e.kind.name()).unwrap();
    if let Some(line) = e.line {
        write!(s, ",\"line\":{line}").unwrap();
    }
    match e.kind {
        TraceKind::Hit {
            write,
            push_hit,
            gpu,
        } => write!(
            s,
            ",\"write\":{write},\"push_hit\":{push_hit},\"gpu\":{gpu}"
        )
        .unwrap(),
        TraceKind::Miss {
            write,
            compulsory,
            gpu,
        } => write!(
            s,
            ",\"write\":{write},\"compulsory\":{compulsory},\"gpu\":{gpu}"
        )
        .unwrap(),
        TraceKind::CpuStore { push } => write!(s, ",\"push\":{push}").unwrap(),
        TraceKind::Evict { writeback } => write!(s, ",\"writeback\":{writeback}").unwrap(),
        TraceKind::DemandFill
        | TraceKind::ProbeInvalidate
        | TraceKind::PushFill
        | TraceKind::PushOverwrite
        | TraceKind::PushBypass
        | TraceKind::PushDegraded
        | TraceKind::HubDone => {}
        TraceKind::SbDrain { direct } => write!(s, ",\"direct\":{direct}").unwrap(),
        TraceKind::PushDone { latency } => write!(s, ",\"latency\":{latency}").unwrap(),
        TraceKind::TlbMiss => {}
        TraceKind::NetMsg {
            src,
            dst,
            data,
            start,
            depart,
            arrive,
        } => write!(
            s,
            ",\"src\":{src},\"dst\":{dst},\"data\":{data},\"start\":{start},\
\"depart\":{depart},\"arrive\":{arrive}"
        )
        .unwrap(),
        TraceKind::DramAccess {
            write,
            row_hit,
            start,
            done,
        } => write!(
            s,
            ",\"write\":{write},\"row_hit\":{row_hit},\"start\":{start},\"done\":{done}"
        )
        .unwrap(),
        TraceKind::HubRequest { requester, write } | TraceKind::HubStart { requester, write } => {
            write!(s, ",\"requester\":\"{}\"", requester.name()).unwrap();
            if let Some(unit) = requester.unit() {
                write!(s, ",\"requester_unit\":{unit}").unwrap();
            }
            write!(s, ",\"write\":{write}").unwrap()
        }
        TraceKind::HubDramRead { start, done } => {
            write!(s, ",\"start\":{start},\"done\":{done}").unwrap()
        }
        TraceKind::HubGrant { from_mem } => write!(s, ",\"from_mem\":{from_mem}").unwrap(),
        TraceKind::KernelBegin { kernel } | TraceKind::KernelEnd { kernel } => {
            write!(s, ",\"kernel\":{kernel}").unwrap()
        }
        TraceKind::LoadDone { warp, latency } => {
            write!(s, ",\"warp\":{warp},\"latency\":{latency}").unwrap()
        }
        TraceKind::TxnBegin { txn, stage } | TraceKind::StageMark { txn, stage } => {
            write!(s, ",\"txn\":{txn},\"stage\":\"{}\"", stage.name()).unwrap()
        }
        TraceKind::TxnDone { txn } => write!(s, ",\"txn\":{txn}").unwrap(),
        TraceKind::PulseAnomaly {
            anomaly,
            start,
            end,
            value,
            threshold,
        } => write!(
            s,
            ",\"anomaly\":\"{}\",\"start\":{start},\"end\":{end},\"value\":{value},\
\"threshold\":{threshold}",
            anomaly.name()
        )
        .unwrap(),
    }
    s.push('}');
    s
}

/// Renders a whole trace as JSONL: one object per line, trailing
/// newline after the last.
pub fn render(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        out.push_str(&render_event(e));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Component, NetId};

    #[test]
    fn lines_are_flat_json_objects_with_stable_keys() {
        let events = [
            TraceEvent {
                cycle: 12,
                component: Component::GpuL2 { slice: 1 },
                line: Some(99),
                kind: TraceKind::Hit {
                    write: false,
                    push_hit: true,
                    gpu: true,
                },
            },
            TraceEvent {
                cycle: 15,
                component: Component::Net { net: NetId::Direct },
                line: Some(99),
                kind: TraceKind::NetMsg {
                    src: 4,
                    dst: 1,
                    data: true,
                    start: 15,
                    depart: 17,
                    arrive: 21,
                },
            },
        ];
        let text = render(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            r#"{"cycle":12,"component":"gpu_l2","unit":1,"kind":"hit","line":99,"write":false,"push_hit":true,"gpu":true}"#
        );
        assert_eq!(
            lines[1],
            r#"{"cycle":15,"component":"net_direct","kind":"net_msg","line":99,"src":4,"dst":1,"data":true,"start":15,"depart":17,"arrive":21}"#
        );
        assert!(text.ends_with('\n'));
    }
}
