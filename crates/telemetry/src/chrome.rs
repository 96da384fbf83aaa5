//! Chrome trace-event export (`chrome://tracing` / [Perfetto](https://ui.perfetto.dev)).
//!
//! Point-solves become complete (`"ph":"X"`) duration spans on one timeline
//! track per solver lane, rounds become spans on a dedicated `rounds` track,
//! and commit decisions (LTE rejections, lead/speculation outcomes) become
//! instant events — so the pipelining overlap of a WavePipe run is literally
//! visible as stacked spans on concurrent lanes.
//!
//! Three counter tracks (`"ph":"C"`) plot run health over time next to the
//! spans: the speculation accept-rate EMA, the number of concurrently
//! in-flight point-solves, and the device-bypass hit rate.

use crate::event::{Event, EventKind};
use crate::json;
use std::io::{self, Write};

/// Synthetic track id for round spans (real lanes are small integers).
pub const ROUNDS_TID: u32 = 1000;

fn us(ns: u64) -> String {
    // Trace-event timestamps are microseconds; keep nanosecond resolution
    // with a fractional part.
    json::fmt_f64(ns as f64 / 1000.0)
}

fn meta(out: &mut Vec<String>, tid: u32, name: &str) {
    out.push(format!(
        "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
         \"args\":{{\"name\":\"{}\"}}}}",
        json::escape(name)
    ));
}

fn complete(out: &mut Vec<String>, tid: u32, name: &str, start_ns: u64, end_ns: u64, args: &str) {
    out.push(format!(
        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"name\":\"{}\",\"ts\":{},\"dur\":{},\
         \"args\":{{{args}}}}}",
        json::escape(name),
        us(start_ns),
        us(end_ns.saturating_sub(start_ns))
    ));
}

fn instant(out: &mut Vec<String>, tid: u32, name: &str, ts_ns: u64, args: &str) {
    out.push(format!(
        "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"name\":\"{}\",\"ts\":{},\"s\":\"t\",\
         \"args\":{{{args}}}}}",
        json::escape(name),
        us(ts_ns)
    ));
}

fn counter(out: &mut Vec<String>, name: &str, ts_ns: u64, series: &str, value: f64) {
    out.push(format!(
        "{{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"name\":\"{}\",\"ts\":{},\
         \"args\":{{\"{}\":{}}}}}",
        json::escape(name),
        us(ts_ns),
        json::escape(series),
        json::fmt_f64(value)
    ));
}

/// Smoothing factor of the accept-rate counter track: each lead/speculation
/// outcome moves the EMA 8% of the way toward 1 (accepted) or 0 (discarded).
const ACCEPT_EMA_ALPHA: f64 = 0.08;

/// Renders the event stream as a Chrome trace-event JSON document.
///
/// # Errors
///
/// Propagates I/O failures from `out`.
pub fn write_chrome_trace<W: Write>(events: &[Event], out: &mut W) -> io::Result<()> {
    let mut objs: Vec<String> = Vec::with_capacity(events.len() + 8);
    objs.push(
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"wavepipe\"}}"
            .to_string(),
    );
    let max_lane = events.iter().map(|e| e.lane).max().unwrap_or(0);
    for lane in 0..=max_lane {
        let name =
            if lane == 0 { "lane 0 (lead)".to_string() } else { format!("lane {lane} (worker)") };
        meta(&mut objs, lane, &name);
    }
    meta(&mut objs, ROUNDS_TID, "rounds");

    // Open spans: one solve slot per lane, one round slot.
    let mut open_solve: Vec<Option<(u64, f64, f64)>> = vec![None; max_lane as usize + 1];
    let mut open_round: Option<(u64, u64, u32)> = None;
    // Counter-track state: accept-rate EMA over lead/speculation outcomes,
    // concurrently in-flight solves, and the running bypass hit rate (all
    // bypassed nonlinear devices over all nonlinear devices stamped).
    let mut accept_ema = 1.0f64;
    let mut active_solves = 0u32;
    let (mut bypassed_total, mut nonlinear_total) = (0u64, 0u64);
    for ev in events {
        match ev.kind {
            EventKind::SolveStart { h } => {
                // First start wins: the round executor stamps a worker task's
                // lane at dispatch, the solver stamps it again at execution
                // start. Keeping the earliest renders the task's full
                // in-flight lifetime, so pipelining overlap stays visible
                // even on hosts with fewer cores than lanes.
                let slot = &mut open_solve[ev.lane as usize];
                if slot.is_none() {
                    *slot = Some((ev.ts_ns, ev.t_sim, h));
                    active_solves += 1;
                    counter(
                        &mut objs,
                        "active solves",
                        ev.ts_ns,
                        "solves",
                        f64::from(active_solves),
                    );
                }
            }
            EventKind::SolveEnd { iterations, converged } => {
                if let Some((start, t_sim, h)) = open_solve[ev.lane as usize].take() {
                    let args = format!(
                        "\"t_sim\":{},\"h\":{},\"iterations\":{iterations},\
                         \"converged\":{converged},\"round\":{}",
                        json::fmt_f64(t_sim),
                        json::fmt_f64(h),
                        ev.round
                    );
                    let name = format!("solve t={t_sim:.4e}");
                    complete(&mut objs, ev.lane, &name, start, ev.ts_ns, &args);
                    active_solves = active_solves.saturating_sub(1);
                    counter(
                        &mut objs,
                        "active solves",
                        ev.ts_ns,
                        "solves",
                        f64::from(active_solves),
                    );
                }
            }
            EventKind::RoundStart { width } => {
                open_round = Some((ev.ts_ns, ev.round, width));
            }
            EventKind::RoundEnd { committed } => {
                if let Some((start, round, width)) = open_round.take() {
                    let args = format!("\"width\":{width},\"committed\":{committed}");
                    let name = format!("round {round}");
                    complete(&mut objs, ROUNDS_TID, &name, start, ev.ts_ns, &args);
                }
            }
            EventKind::ClassEvals { evals, bypassed, .. } => {
                // No span — just the hit-rate counter.
                bypassed_total += u64::from(bypassed);
                nonlinear_total += u64::from(evals) + u64::from(bypassed);
                if nonlinear_total > 0 {
                    let rate = bypassed_total as f64 / nonlinear_total as f64;
                    counter(&mut objs, "bypass hit rate", ev.ts_ns, "rate", rate);
                }
            }
            // Per-iteration and per-factorization events are deliberately not
            // rendered: they are analysis/JSONL material and would swamp the
            // timeline.
            EventKind::NewtonIter { .. }
            | EventKind::Factorization
            | EventKind::Refactorization
            | EventKind::JacobianReuse
            | EventKind::FactorLookup { .. }
            | EventKind::StampPass { .. }
            | EventKind::StepSizeChosen { .. }
            | EventKind::PointAccepted { .. }
            | EventKind::LeadEma { .. } => {}
            // Every other kind is an instant carrying `t_sim` and its declared
            // payload: on the emitting lane's track, or on the rounds track
            // for the run-level deadline.
            kind => {
                let tid = match kind {
                    EventKind::DeadlineHit => ROUNDS_TID,
                    _ => ev.lane,
                };
                let mut args = format!("\"t_sim\":{}", json::fmt_f64(ev.t_sim));
                kind.encode_payload(&mut args);
                instant(&mut objs, tid, kind.name(), ev.ts_ns, &args);
                // Lead and speculation outcomes also move the accept-rate EMA
                // toward 1 (accepted) or 0 (discarded).
                let outcome = match kind {
                    EventKind::LeadAccepted | EventKind::SpeculationAccepted => Some(1.0),
                    EventKind::LeadDiscarded { .. } | EventKind::SpeculationDiscarded { .. } => {
                        Some(0.0)
                    }
                    _ => None,
                };
                if let Some(toward) = outcome {
                    accept_ema += ACCEPT_EMA_ALPHA * (toward - accept_ema);
                    counter(&mut objs, "accept rate (ema)", ev.ts_ns, "rate", accept_ema);
                }
            }
        }
    }

    out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
    for (i, o) in objs.iter().enumerate() {
        out.write_all(o.as_bytes())?;
        if i + 1 < objs.len() {
            out.write_all(b",\n")?;
        } else {
            out.write_all(b"\n")?;
        }
    }
    out.write_all(b"]}\n")?;
    Ok(())
}

/// Renders the trace to a string (convenience for tests and small runs).
pub fn chrome_trace_string(events: &[Event]) -> String {
    let mut buf = Vec::new();
    write_chrome_trace(events, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("exporter emits UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DiscardReason;
    use crate::json::JsonValue;

    fn ev(ts_ns: u64, round: u64, lane: u32, kind: EventKind) -> Event {
        Event { ts_ns, round, lane, t_sim: 1e-9, kind }
    }

    fn spans(doc: &JsonValue) -> Vec<&JsonValue> {
        doc.get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect()
    }

    #[test]
    fn output_is_valid_json_with_matched_x_spans() {
        let events = vec![
            ev(0, 1, 0, EventKind::RoundStart { width: 2 }),
            ev(5, 1, 0, EventKind::SolveStart { h: 1e-9 }),
            ev(6, 1, 1, EventKind::SolveStart { h: 2e-9 }),
            ev(50, 1, 1, EventKind::SolveEnd { iterations: 3, converged: true }),
            ev(60, 1, 0, EventKind::SolveEnd { iterations: 2, converged: true }),
            ev(70, 1, 0, EventKind::LteReject { ratio: 2.0, h_retry: 0.5e-9 }),
            ev(80, 1, 0, EventKind::RoundEnd { committed: 1 }),
        ];
        let text = chrome_trace_string(&events);
        let doc = crate::json::parse(&text).expect("valid JSON");
        let xs = spans(&doc);
        // Two solve spans plus one round span, every one with ts and dur.
        assert_eq!(xs.len(), 3);
        for x in &xs {
            assert!(x.get("ts").and_then(JsonValue::as_f64).is_some());
            assert!(x.get("dur").and_then(JsonValue::as_f64).unwrap() >= 0.0);
        }
        // The two solve spans sit on distinct lanes and overlap in time.
        let solve: Vec<_> = xs
            .iter()
            .filter(|x| x.get("tid").and_then(JsonValue::as_f64).unwrap() < ROUNDS_TID as f64)
            .collect();
        assert_eq!(solve.len(), 2);
        let tid0 = solve[0].get("tid").unwrap().as_f64().unwrap();
        let tid1 = solve[1].get("tid").unwrap().as_f64().unwrap();
        assert_ne!(tid0, tid1);
        let range = |x: &JsonValue| {
            let ts = x.get("ts").unwrap().as_f64().unwrap();
            (ts, ts + x.get("dur").unwrap().as_f64().unwrap())
        };
        let (a0, a1) = range(solve[0]);
        let (b0, b1) = range(solve[1]);
        assert!(a0 < b1 && b0 < a1, "solve spans should overlap");
    }

    #[test]
    fn first_solve_start_wins_on_a_lane() {
        // Dispatch stamp at t=10, execution stamp at t=40: the span must run
        // from the dispatch (task lifetime), not the execution start.
        let events = vec![
            ev(10, 1, 1, EventKind::SolveStart { h: 1e-9 }),
            ev(40, 1, 1, EventKind::SolveStart { h: 1e-9 }),
            ev(90, 1, 1, EventKind::SolveEnd { iterations: 2, converged: true }),
        ];
        let text = chrome_trace_string(&events);
        let doc = crate::json::parse(&text).expect("valid JSON");
        let xs = spans(&doc);
        assert_eq!(xs.len(), 1);
        assert_eq!(xs[0].get("ts").unwrap().as_f64().unwrap(), 0.01);
        assert_eq!(xs[0].get("dur").unwrap().as_f64().unwrap(), 0.08);
    }

    #[test]
    fn unbalanced_streams_do_not_panic() {
        // A SolveEnd without a start, a dangling RoundStart.
        let events = vec![
            ev(10, 1, 2, EventKind::SolveEnd { iterations: 1, converged: false }),
            ev(20, 2, 0, EventKind::RoundStart { width: 1 }),
        ];
        let text = chrome_trace_string(&events);
        let doc = crate::json::parse(&text).expect("valid JSON");
        assert!(spans(&doc).is_empty());
    }

    #[test]
    fn fault_events_render_as_instants() {
        let events = vec![
            ev(10, 1, 2, EventKind::WorkerLost { lane: 2 }),
            ev(15, 1, 0, EventKind::FallbackSerial),
            ev(20, 1, 0, EventKind::DeadlineHit),
            ev(25, 1, 0, EventKind::RecoveryAttempt { h: 1e-15 }),
            ev(26, 1, 0, EventKind::CachePoisonRollback),
            ev(30, 1, 0, EventKind::RecoveryRung { rung: 1, success: true }),
        ];
        let text = chrome_trace_string(&events);
        let doc = crate::json::parse(&text).expect("valid JSON");
        let instants: Vec<_> = doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("i"))
            .collect();
        assert_eq!(instants.len(), 6);
        assert!(text.contains("worker_lost"));
        assert!(text.contains("fallback_serial"));
        assert!(text.contains("deadline_hit"));
        assert!(text.contains("recovery_attempt"));
        assert!(text.contains("recovery_rung"));
        assert!(text.contains("cache_poison_rollback"));
    }

    fn counters<'a>(doc: &'a JsonValue, name: &str) -> Vec<&'a JsonValue> {
        doc.get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| {
                e.get("ph").and_then(JsonValue::as_str) == Some("C")
                    && e.get("name").and_then(JsonValue::as_str) == Some(name)
            })
            .collect()
    }

    #[test]
    fn active_solve_counter_tracks_inflight_solves() {
        let events = vec![
            ev(5, 1, 0, EventKind::SolveStart { h: 1e-9 }),
            ev(10, 1, 1, EventKind::SolveStart { h: 1e-9 }),
            ev(12, 1, 1, EventKind::SolveStart { h: 1e-9 }), // execution re-stamp
            ev(50, 1, 1, EventKind::SolveEnd { iterations: 3, converged: true }),
            ev(60, 1, 0, EventKind::SolveEnd { iterations: 2, converged: true }),
        ];
        let doc = crate::json::parse(&chrome_trace_string(&events)).expect("valid JSON");
        let cs = counters(&doc, "active solves");
        // Two starts (the re-stamp does not count) plus two ends.
        let values: Vec<f64> = cs
            .iter()
            .map(|c| c.get("args").unwrap().get("solves").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(values, vec![1.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn accept_rate_counter_moves_with_outcomes() {
        let events = vec![
            ev(10, 1, 0, EventKind::LeadAccepted),
            ev(20, 1, 0, EventKind::LeadDiscarded { reason: DiscardReason::LteRejected }),
            ev(30, 1, 0, EventKind::SpeculationAccepted),
            ev(40, 1, 0, EventKind::SpeculationDiscarded { reason: DiscardReason::ChainBroken }),
        ];
        let doc = crate::json::parse(&chrome_trace_string(&events)).expect("valid JSON");
        let cs = counters(&doc, "accept rate (ema)");
        let values: Vec<f64> = cs
            .iter()
            .map(|c| c.get("args").unwrap().get("rate").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(values.len(), 4);
        // Starts at 1.0, so the first accept keeps it there; every sample
        // stays a valid rate and discards pull it strictly down.
        assert!(values.iter().all(|v| (0.0..=1.0).contains(v)));
        assert!(values[1] < values[0]);
        assert!(values[2] > values[1]);
        assert!(values[3] < values[2]);
    }

    #[test]
    fn bypass_rate_counter_is_the_running_hit_rate() {
        let pass = |bypassed, evals| EventKind::ClassEvals {
            class: crate::event::DeviceClass::Mos,
            evals,
            bypassed,
        };
        let events = vec![
            ev(10, 1, 0, pass(50, 0)),
            ev(20, 1, 0, pass(100, 100)),
            ev(30, 1, 0, pass(30, 20)),
        ];
        let doc = crate::json::parse(&chrome_trace_string(&events)).expect("valid JSON");
        let cs = counters(&doc, "bypass hit rate");
        let values: Vec<f64> = cs
            .iter()
            .map(|c| c.get("args").unwrap().get("rate").unwrap().as_f64().unwrap())
            .collect();
        // 50/50, then 150/250, then 180/300.
        assert_eq!(values, vec![1.0, 0.6, 0.6]);
    }

    #[test]
    fn metadata_names_every_lane() {
        let events = vec![ev(0, 0, 3, EventKind::Factorization)];
        let text = chrome_trace_string(&events);
        for lane in 0..=3 {
            assert!(text.contains(&format!("\"tid\":{lane},")), "lane {lane} unnamed");
        }
        assert!(text.contains("rounds"));
    }
}
