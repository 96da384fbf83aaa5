//! End-to-end telemetry: a recorded WavePipe run exported through both
//! consumers, validated against the acceptance criteria — the Chrome trace
//! must make the pipelining overlap visible on multiple lanes, and the JSONL
//! stream must survive a round trip.

use std::sync::Arc;
use wavepipe::circuit::generators;
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::telemetry::{
    analyze, chrome, json, jsonl, Event, EventKind, ProbeHandle, RecordingProbe,
};

fn traced_run(
    scheme: Scheme,
    threads: usize,
) -> (Arc<RecordingProbe>, wavepipe::core::WavePipeReport) {
    let b = generators::rc_ladder(8);
    let probe = RecordingProbe::shared();
    let opts = WavePipeOptions::new(scheme, threads).with_probe(ProbeHandle::new(probe.clone()));
    let rep = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
    (probe, rep)
}

#[test]
fn combined_chrome_trace_shows_overlapping_lanes() {
    let (probe, _rep) = traced_run(Scheme::Combined, 4);
    let events = probe.events();
    let text = chrome::chrome_trace_string(&events);

    // Valid JSON with the trace-event structure.
    let doc = json::parse(&text).expect("chrome trace must be valid JSON");
    let trace_events = doc.get("traceEvents").and_then(json::JsonValue::as_array).unwrap();

    // Solve spans ("X" phase, real lanes — not the synthetic rounds track).
    let spans: Vec<(f64, f64, f64)> = trace_events
        .iter()
        .filter(|e| e.get("ph").and_then(json::JsonValue::as_str) == Some("X"))
        .filter(|e| {
            e.get("tid").and_then(json::JsonValue::as_f64).unwrap() < f64::from(chrome::ROUNDS_TID)
        })
        .map(|e| {
            let tid = e.get("tid").unwrap().as_f64().unwrap();
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            let dur = e.get("dur").unwrap().as_f64().unwrap();
            (tid, ts, ts + dur)
        })
        .collect();

    let mut lanes: Vec<u64> = spans.iter().map(|&(tid, _, _)| tid as u64).collect();
    lanes.sort_unstable();
    lanes.dedup();
    assert!(lanes.len() >= 2, "expected spans on >= 2 lanes, got {lanes:?}");

    // Pipelining visible: at least one pair of spans on distinct lanes with
    // overlapping time ranges (worker spans start at dispatch, so this holds
    // even on a single-core host).
    let overlap = spans.iter().enumerate().any(|(i, &(la, s1, e1))| {
        spans[i + 1..].iter().any(|&(lb, s2, e2)| la != lb && s1 < e2 && s2 < e1)
    });
    assert!(overlap, "no overlapping spans on distinct lanes");
}

#[test]
fn jsonl_stream_round_trips() {
    let (probe, rep) = traced_run(Scheme::Backward, 2);
    let events = probe.events();
    assert!(!events.is_empty());

    let mut buf = Vec::new();
    jsonl::write_jsonl(&events, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let parsed = jsonl::parse_jsonl(&text).expect("exported JSONL must parse back");
    assert_eq!(parsed, events, "JSONL round trip must be lossless");

    // The stream carries the run's accepted points.
    let accepted =
        events.iter().filter(|e| matches!(e.kind, EventKind::PointAccepted { .. })).count();
    assert_eq!(accepted, rep.total.steps_accepted);
}

#[test]
fn serial_engine_emits_balanced_solve_spans() {
    // The probe also works below the pipelining layer: a plain serial run
    // emits paired SolveStart/SolveEnd and per-point accept events.
    let b = generators::rc_ladder(6);
    let probe = RecordingProbe::shared();
    let opts = wavepipe::engine::SimOptions::default().with_probe(ProbeHandle::new(probe.clone()));
    let res = wavepipe::engine::run_transient(&b.circuit, b.tstep, b.tstop, &opts).unwrap();

    let events = probe.events();
    let starts = events.iter().filter(|e| matches!(e.kind, EventKind::SolveStart { .. })).count();
    let ends = events.iter().filter(|e| matches!(e.kind, EventKind::SolveEnd { .. })).count();
    assert_eq!(starts, ends, "every solve span must close");
    assert!(starts > 0);
    let accepted =
        events.iter().filter(|e| matches!(e.kind, EventKind::PointAccepted { .. })).count();
    assert_eq!(accepted, res.stats().steps_accepted);
    // Everything on lane 0, and the fold agrees.
    assert!(events.iter().all(|e| e.lane == 0));
    let analysis = analyze(&events);
    assert_eq!(analysis.counts.points_accepted as usize, accepted);
    assert_eq!(analysis.timing.lanes.len(), 1);
}

/// One JSONL line per event kind, written by the commit before the codec was
/// derived from the event table (`EventKind::SAMPLES[i]` inside the envelope
/// `ts_ns` 1000 + i, `round` 1, `lane` i mod 3, `t_sim` 1 ns). The wire
/// format is a contract with archived traces: these bytes may only be added
/// to.
const GOLDEN_LINES: [&str; 24] = [
    r#"{"ts_ns":1000,"round":1,"lane":0,"t_sim":0.000000001,"kind":"round_start","width":3}"#,
    r#"{"ts_ns":1001,"round":1,"lane":1,"t_sim":0.000000001,"kind":"round_end","committed":3}"#,
    r#"{"ts_ns":1002,"round":1,"lane":2,"t_sim":0.000000001,"kind":"solve_start","h":0.0000000025}"#,
    r#"{"ts_ns":1003,"round":1,"lane":0,"t_sim":0.000000001,"kind":"solve_end","iterations":3,"converged":true}"#,
    r#"{"ts_ns":1004,"round":1,"lane":1,"t_sim":0.000000001,"kind":"newton_iter","iteration":3}"#,
    r#"{"ts_ns":1005,"round":1,"lane":2,"t_sim":0.000000001,"kind":"factorization"}"#,
    r#"{"ts_ns":1006,"round":1,"lane":0,"t_sim":0.000000001,"kind":"refactorization"}"#,
    r#"{"ts_ns":1007,"round":1,"lane":1,"t_sim":0.000000001,"kind":"jacobian_reuse"}"#,
    r#"{"ts_ns":1008,"round":1,"lane":2,"t_sim":0.000000001,"kind":"bypassed_devices","devices":3}"#,
    r#"{"ts_ns":1009,"round":1,"lane":0,"t_sim":0.000000001,"kind":"companion_hit"}"#,
    r#"{"ts_ns":1010,"round":1,"lane":1,"t_sim":0.000000001,"kind":"lte_reject","ratio":0.0000000025,"h_retry":0.0000000025}"#,
    r#"{"ts_ns":1011,"round":1,"lane":2,"t_sim":0.000000001,"kind":"step_size_chosen","h":0.0000000025,"ratio":0.0000000025}"#,
    r#"{"ts_ns":1012,"round":1,"lane":0,"t_sim":0.000000001,"kind":"point_accepted","h":0.0000000025}"#,
    r#"{"ts_ns":1013,"round":1,"lane":1,"t_sim":0.000000001,"kind":"lead_accepted"}"#,
    r#"{"ts_ns":1014,"round":1,"lane":2,"t_sim":0.000000001,"kind":"lead_discarded","reason":"lte_rejected"}"#,
    r#"{"ts_ns":1015,"round":1,"lane":0,"t_sim":0.000000001,"kind":"speculation_accepted"}"#,
    r#"{"ts_ns":1016,"round":1,"lane":1,"t_sim":0.000000001,"kind":"speculation_discarded","reason":"lte_rejected"}"#,
    r#"{"ts_ns":1020,"round":1,"lane":2,"t_sim":0.000000001,"kind":"worker_lost","lost_lane":3}"#,
    r#"{"ts_ns":1021,"round":1,"lane":0,"t_sim":0.000000001,"kind":"fallback_serial"}"#,
    r#"{"ts_ns":1022,"round":1,"lane":1,"t_sim":0.000000001,"kind":"deadline_hit"}"#,
    r#"{"ts_ns":1023,"round":1,"lane":2,"t_sim":0.000000001,"kind":"recovery_attempt","h":0.0000000025}"#,
    r#"{"ts_ns":1024,"round":1,"lane":0,"t_sim":0.000000001,"kind":"recovery_rung","rung":3,"success":true}"#,
    r#"{"ts_ns":1025,"round":1,"lane":1,"t_sim":0.000000001,"kind":"cache_poison_rollback"}"#,
    r#"{"ts_ns":1026,"round":1,"lane":2,"t_sim":0.000000001,"kind":"krylov_solve","iterations":3,"restarts":3,"precond_refreshes":3,"fallback":true}"#,
];

#[test]
fn every_kind_keeps_its_golden_jsonl_bytes() {
    // A new kind without a pinned line fails here.
    assert_eq!(EventKind::SAMPLES.len(), GOLDEN_LINES.len());
    for (i, (kind, line)) in EventKind::SAMPLES.into_iter().zip(GOLDEN_LINES).enumerate() {
        // The lines count up from when there were 27 kinds: the kind at 1017
        // went with the adaptive scheduler, the two after it with the
        // stamp-worker layer, and every other line keeps its bytes.
        let n = if i < 17 { i } else { i + 3 };
        let ev =
            Event { ts_ns: 1000 + n as u64, round: 1, lane: (n % 3) as u32, t_sim: 1e-9, kind };
        assert_eq!(jsonl::event_to_json(&ev), line, "{} encodes differently", kind.name());
        let back = jsonl::event_from_json(line, i + 1).expect("golden line decodes");
        assert_eq!(back, ev, "{} decodes differently", kind.name());
        assert_eq!(jsonl::event_to_json(&back), line, "{} re-encodes differently", kind.name());
    }
}
