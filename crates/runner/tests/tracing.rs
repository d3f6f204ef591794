//! End-to-end guarantees of the tracing layer: the JSONL rendering of
//! a traced run is byte-identical whether the simulation executes
//! alone ("--jobs 1") or concurrently with other runs on the runner's
//! pool ("--jobs N") — tracing inherits the simulator's determinism —
//! and the Chrome sink writes well-formed, ordered tracks. (That a CCSM
//! trace never touches the direct network, and that recording
//! perturbs nothing, is audited in `crates/bench/tests/audit.rs`.)

use ds_core::{FaultPlan, InputSize, Mode, Pipeline, SystemConfig};
use ds_probe::{jsonl, BufferTracer};
use ds_runner::{Runner, Task};
use ds_workloads::catalog;

fn traced_run(code: &str, mode: Mode) -> BufferTracer {
    let cfg = SystemConfig::paper_default();
    let bench = catalog::by_code(code).expect("test codes are in the catalog");
    let (result, probes) = Pipeline::with_config(cfg).run(
        &bench,
        InputSize::Small,
        mode,
        BufferTracer::new(),
        &FaultPlan::default(),
        None,
    );
    result.expect("translates and runs");
    probes.tracer
}

#[test]
fn jsonl_trace_is_byte_identical_between_serial_and_parallel_execution() {
    // "--jobs 1": one traced run on the calling thread.
    let tracer = traced_run("MM", Mode::DirectStore);
    let serial = jsonl::render(tracer.events());

    // "--jobs N": the same task four times on the runner's 4-worker
    // pool, one tracer each, and once untraced.
    let task = Task::new(
        &SystemConfig::paper_default(),
        "MM",
        InputSize::Small,
        Mode::DirectStore,
    );
    let mut runner = Runner::new().jobs(4).progress(false);
    let traced = runner.run_traced(&vec![task.clone(); 4], vec![BufferTracer::new(); 4]);
    let plain = runner.run_tasks(&[task]).expect("MM runs");

    assert_eq!(traced.len(), 4);
    for (outcome, tracer) in traced {
        let tracer = tracer.expect("a completed run hands its tracer back");
        assert_eq!(
            jsonl::render(tracer.events()),
            serial,
            "trace bytes must not depend on worker-thread count"
        );
        let report = outcome.report().expect("MM runs");
        assert_eq!(
            format!("{report:?}"),
            format!("{:?}", plain[0]),
            "a traced run reports what the untraced one does"
        );
    }
}

/// Chrome-trace sink guarantees, on real traced runs: the document is
/// well-formed JSON, every track's spans begin in non-decreasing
/// timestamp order (links and banks serialize FIFO, kernels are
/// sequential), and a CCSM trace renders no direct-network tracks.
mod chrome_sink {
    use super::*;
    use ds_probe::chrome;
    use ds_runner::json::{self, Json};

    fn chrome_doc(code: &str, mode: Mode) -> Json {
        let tracer = traced_run(code, mode);
        let text = chrome::render(tracer.events());
        json::parse(&text).expect("chrome trace must be valid JSON")
    }

    fn trace_events(doc: &Json) -> &[Json] {
        doc.get("traceEvents")
            .and_then(Json::as_arr)
            .expect("document has a traceEvents array")
    }

    #[test]
    fn direct_store_trace_is_valid_json_with_expected_tracks() {
        let doc = chrome_doc("VA", Mode::DirectStore);
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("time_unit"))
                .and_then(Json::as_str),
            Some("cycles"),
        );
        let events = trace_events(&doc);
        assert!(!events.is_empty());
        // Both phases appear: naming metadata and complete spans.
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("M")));
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
        // A direct-store run uses the direct network (pid 3).
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("pid").and_then(Json::as_u64) == Some(3)
        }));
    }

    #[test]
    fn span_timestamps_are_monotonic_per_track() {
        for mode in [Mode::Ccsm, Mode::DirectStore] {
            let doc = chrome_doc("MM", mode);
            let mut last_ts: std::collections::HashMap<(u64, u64), u64> =
                std::collections::HashMap::new();
            let mut spans = 0;
            for e in trace_events(&doc) {
                if e.get("ph").and_then(Json::as_str) != Some("X") {
                    continue;
                }
                let pid = e.get("pid").and_then(Json::as_u64).expect("span has pid");
                let tid = e.get("tid").and_then(Json::as_u64).expect("span has tid");
                let ts = e.get("ts").and_then(Json::as_u64).expect("span has ts");
                if let Some(prev) = last_ts.insert((pid, tid), ts) {
                    assert!(
                        ts >= prev,
                        "track ({pid},{tid}) went backwards: {prev} then {ts}"
                    );
                }
                spans += 1;
            }
            assert!(spans > 0, "mode {mode:?} rendered no spans");
        }
    }

    #[test]
    fn ccsm_trace_has_no_direct_network_tracks() {
        let doc = chrome_doc("VA", Mode::Ccsm);
        let direct_spans = trace_events(&doc)
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("pid").and_then(Json::as_u64) == Some(3)
            })
            .count();
        assert_eq!(direct_spans, 0, "CCSM must not serialize direct-net spans");
        // No direct-net link thread is even named: the only pid-3
        // metadata row is the process name itself.
        for e in trace_events(&doc) {
            if e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("pid").and_then(Json::as_u64) == Some(3)
            {
                assert_eq!(
                    e.get("name").and_then(Json::as_str),
                    Some("process_name"),
                    "CCSM trace must not name direct-net link threads"
                );
            }
        }
    }
}
