//! End-to-end telemetry: a recorded WavePipe run exported through both
//! consumers, validated against the acceptance criteria — the Chrome trace
//! must make the pipelining overlap visible on multiple lanes, and the JSONL
//! stream must survive a round trip.

use std::sync::Arc;
use wavepipe::circuit::generators;
use wavepipe::circuit::{Circuit, Waveform};
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::engine::SimOptions;
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

/// One JSONL line per event kind, in declaration order. Each line is
/// `EventKind::SAMPLES[i]` inside the envelope `ts_ns` 1000 + n, `round` 1,
/// `lane` n mod 3, `t_sim` 1 ns, where n is the line's own number: the lines
/// up to 1026 were written by the commit before the codec was derived from
/// the event table, and later kinds count on from there. The wire format is a
/// contract with archived traces: these bytes may only be added to.
const GOLDEN_LINES: [&str; 27] = [
    r#"{"ts_ns":1000,"round":1,"lane":0,"t_sim":0.000000001,"kind":"round_start","width":3}"#,
    r#"{"ts_ns":1001,"round":1,"lane":1,"t_sim":0.000000001,"kind":"round_end","committed":3}"#,
    r#"{"ts_ns":1002,"round":1,"lane":2,"t_sim":0.000000001,"kind":"solve_start","h":0.0000000025}"#,
    r#"{"ts_ns":1003,"round":1,"lane":0,"t_sim":0.000000001,"kind":"solve_end","iterations":3,"converged":true}"#,
    r#"{"ts_ns":1004,"round":1,"lane":1,"t_sim":0.000000001,"kind":"newton_iter","iteration":3}"#,
    r#"{"ts_ns":1005,"round":1,"lane":2,"t_sim":0.000000001,"kind":"factorization"}"#,
    r#"{"ts_ns":1006,"round":1,"lane":0,"t_sim":0.000000001,"kind":"refactorization"}"#,
    r#"{"ts_ns":1007,"round":1,"lane":1,"t_sim":0.000000001,"kind":"jacobian_reuse"}"#,
    r#"{"ts_ns":1027,"round":1,"lane":0,"t_sim":0.000000001,"kind":"factor_lookup","layer":"plan","hit":true}"#,
    r#"{"ts_ns":1028,"round":1,"lane":1,"t_sim":0.000000001,"kind":"stamp_pass","evals":3,"bypassed":3,"companion_hit":true}"#,
    r#"{"ts_ns":1029,"round":1,"lane":2,"t_sim":0.000000001,"kind":"class_evals","class":"mos","evals":3,"bypassed":3}"#,
    r#"{"ts_ns":1010,"round":1,"lane":1,"t_sim":0.000000001,"kind":"lte_reject","ratio":0.0000000025,"h_retry":0.0000000025}"#,
    r#"{"ts_ns":1011,"round":1,"lane":2,"t_sim":0.000000001,"kind":"step_size_chosen","h":0.0000000025,"ratio":0.0000000025}"#,
    r#"{"ts_ns":1012,"round":1,"lane":0,"t_sim":0.000000001,"kind":"point_accepted","h":0.0000000025}"#,
    r#"{"ts_ns":1030,"round":1,"lane":0,"t_sim":0.000000001,"kind":"step_retry","newton":true}"#,
    r#"{"ts_ns":1013,"round":1,"lane":1,"t_sim":0.000000001,"kind":"lead_accepted"}"#,
    r#"{"ts_ns":1014,"round":1,"lane":2,"t_sim":0.000000001,"kind":"lead_discarded","reason":"lte_rejected"}"#,
    r#"{"ts_ns":1031,"round":1,"lane":1,"t_sim":0.000000001,"kind":"lead_ema","ema":0.0000000025,"deep":true}"#,
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
        let back = jsonl::event_from_json(line, i + 1).expect("golden line decodes");
        let n = back.ts_ns - 1000;
        let ev = Event { ts_ns: 1000 + n, round: 1, lane: (n % 3) as u32, t_sim: 1e-9, kind };
        assert_eq!(jsonl::event_to_json(&ev), line, "{} encodes differently", kind.name());
        assert_eq!(back, ev, "{} decodes differently", kind.name());
        assert_eq!(jsonl::event_to_json(&back), line, "{} re-encodes differently", kind.name());
    }
}

#[test]
fn the_registry_reports_the_fold_s_histograms_on_millisecond_steps() {
    // An RC with a one-second time constant, stepped in milliseconds.
    let mut ckt = Circuit::new("slow rc");
    let (a, b) = (ckt.node("a"), ckt.node("b"));
    ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::pulse(0.0, 1.0, 0.1, 0.01, 0.01, 2.0, 4.0))
        .unwrap();
    ckt.add_resistor("R1", a, b, 1e3).unwrap();
    ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-3).unwrap();
    let probe = RecordingProbe::shared();
    let opts = SimOptions::default().with_probe(ProbeHandle::new(probe.clone()));
    let res = wavepipe::engine::run_transient(&ckt, 1e-3, 3.0, &opts).unwrap();

    let counts = analyze(&probe.events()).counts;
    let steps = &counts.step_sizes;
    assert_eq!(steps.count(), res.stats().steps_accepted as u64);
    assert_eq!(counts.newton_iters.count(), counts.solves);
    assert!(steps.max().unwrap() > 1e-3, "no millisecond steps");
    // Every step lands below the last finite bound: the overflow is empty.
    let buckets = steps.cumulative_buckets();
    assert_eq!(buckets[buckets.len() - 2].1, steps.count());
}
