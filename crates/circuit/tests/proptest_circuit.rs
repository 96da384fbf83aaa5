//! Property-based tests of the circuit substrate: unit parsing round trips,
//! waveform invariants, and netlist formatting consistency.

use proptest::prelude::*;
use wavepipe_circuit::{parse_netlist, Element, Waveform};

/// `v` in engineering notation with a SPICE suffix, four decimals of the
/// scaled mantissa.
fn format_eng(v: f64) -> String {
    let suffixes = [(1e12, "t"), (1e9, "g"), (1e6, "meg"), (1e3, "k"), (1.0, "")];
    let small = [(1e-3, "m"), (1e-6, "u"), (1e-9, "n"), (1e-12, "p"), (1e-15, "f")];
    let (scale, suffix) =
        suffixes.into_iter().chain(small).find(|&(s, _)| v.abs() >= s).unwrap_or((1.0, ""));
    format!("{:.4}{suffix}", v / scale)
}

/// The value a deck's numeric literal parses to, read back as the DC level
/// of a voltage source.
fn parse_value(literal: &str) -> f64 {
    let deck = parse_netlist(&format!("* value\nV1 a 0 {literal}\nR1 a 0 1k\n"))
        .unwrap_or_else(|e| panic!("{literal:?} does not parse: {e}"));
    match deck.circuit.element("V1") {
        Some(Element::VoltageSource { waveform, .. }) => waveform.value(0.0),
        other => panic!("V1 is {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn format_parse_round_trip(mantissa in 0.001f64..999.0, exp in -12i32..9) {
        let v = mantissa * 10f64.powi(exp);
        let s = format_eng(v);
        let back = parse_value(&s);
        // format_eng keeps 4 decimals of the scaled mantissa.
        prop_assert!((back - v).abs() <= 2e-4 * v.abs(), "{v:e} -> {s} -> {back:e}");
    }

    #[test]
    fn parse_plain_floats(v in -1e9f64..1e9) {
        let s = format!("{v}");
        let p = parse_value(&s);
        prop_assert!((p - v).abs() <= 1e-12 * v.abs().max(1.0));
    }

    #[test]
    fn pulse_value_stays_within_levels(
        v1 in -5.0f64..5.0,
        v2 in -5.0f64..5.0,
        td in 0.0f64..1e-8,
        tr in 1e-12f64..1e-9,
        tf in 1e-12f64..1e-9,
        pw in 1e-10f64..1e-8,
        per in 0.0f64..3e-8,
        t in 0.0f64..1e-7,
    ) {
        let w = Waveform::pulse(v1, v2, td, tr, tf, pw, per);
        let v = w.value(t);
        let lo = v1.min(v2) - 1e-12;
        let hi = v1.max(v2) + 1e-12;
        prop_assert!(v >= lo && v <= hi, "pulse value {v} outside [{lo}, {hi}]");
    }

    #[test]
    fn pulse_is_continuous_between_breakpoints(
        v2 in 0.1f64..5.0,
        tr in 1e-11f64..1e-9,
        pw in 1e-10f64..1e-8,
    ) {
        let w = Waveform::pulse(0.0, v2, 1e-9, tr, tr, pw, 0.0);
        let tstop = 1e-9 + 2.0 * tr + pw + 1e-9;
        let bps = w.breakpoints(tstop);
        // Sample densely; the max slope is v2/tr, so |dv| <= slope * dt + eps
        // everywhere (continuity; corners only change the slope).
        let n = 2000;
        let dt = tstop / n as f64;
        let slope = v2 / tr;
        for k in 0..n {
            let (t0, t1) = (k as f64 * dt, (k + 1) as f64 * dt);
            let dv = (w.value(t1) - w.value(t0)).abs();
            prop_assert!(dv <= slope * dt * 1.01 + 1e-9, "jump {dv} at {t0:e}");
        }
        // Breakpoints must be sorted and within range.
        for wpair in bps.windows(2) {
            prop_assert!(wpair[0] < wpair[1]);
        }
        for &b in &bps {
            prop_assert!((0.0..=tstop).contains(&b));
        }
    }

    #[test]
    fn sin_amplitude_bounded(vo in -2.0f64..2.0, va in 0.0f64..3.0, f in 1e3f64..1e9, t in 0.0f64..1e-2) {
        let w = Waveform::sin(vo, va, f);
        let v = w.value(t);
        prop_assert!(v >= vo - va - 1e-12 && v <= vo + va + 1e-12);
    }

    #[test]
    fn pwl_passes_through_its_points(
        pts in proptest::collection::vec((0.0f64..1.0, -5.0f64..5.0), 2..8)
    ) {
        let mut sorted = pts;
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        sorted.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-9);
        prop_assume!(sorted.len() >= 2);
        let w = Waveform::pwl(sorted.clone());
        for &(t, v) in &sorted {
            prop_assert!((w.value(t) - v).abs() < 1e-9, "pwl({t}) = {} want {v}", w.value(t));
        }
    }

    #[test]
    fn pwl_interpolation_is_bounded_by_neighbours(
        pts in proptest::collection::vec((0.0f64..1.0, -5.0f64..5.0), 3..6),
        frac in 0.0f64..1.0,
    ) {
        let mut sorted = pts;
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        sorted.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-9);
        prop_assume!(sorted.len() >= 2);
        let w = Waveform::pwl(sorted.clone());
        // Pick a point inside some segment.
        let k = ((sorted.len() - 1) as f64 * frac * 0.999) as usize;
        let (t0, v0) = sorted[k];
        let (t1, v1) = sorted[k + 1];
        let tm = 0.5 * (t0 + t1);
        let vm = w.value(tm);
        let lo = v0.min(v1) - 1e-9;
        let hi = v0.max(v1) + 1e-9;
        prop_assert!(vm >= lo && vm <= hi);
    }
}

/// A hand-written deck with one card of every element family the parser
/// reads, three model cards and a `.tran` directive.
const DECK: &str = "\
representative elements
V1 a 0 PULSE(0 3.3 1n 0.1n 0.1n 4n 10n)
I1 0 b SIN(0 1m 10meg)
R1 a b 1k
C1 b 0 1p
L1 b c 1n
R2 c 0 50
D1 c 0 DD
M1 d a 0 MN
R3 vdd d 10k
V2 vdd 0 3.3
Q1 e a 0 QN
R4 vdd e 5k
E1 f 0 b 0 2.0
R5 f 0 1k
G1 g 0 b 0 1m
R6 g 0 1k
R7 b g 1meg
R8 b f 1meg
.model DD D (IS=1e-14)
.model MN NMOS (VTO=0.7 KP=100u)
.model QN NPN (BF=120)
.tran 0.01n 50n
.end";

#[test]
fn generated_netlists_parse_back() {
    // Every generator family must survive a hand-written representative deck
    // round trip through the parser (pattern equivalence, not text identity).
    let parsed = parse_netlist(DECK).expect("parse");
    parsed.circuit.validate().expect("validate");
    assert_eq!(parsed.circuit.element_count(), 18);
    assert_eq!(parsed.circuit.nonlinear_count(), 3);
}

/// Tokens a mutation writes into the deck: directives, an instance, numbers
/// the value parser must reject or accept, stray punctuation.
const HOSTILE: [&str; 16] = [
    ".subckt", ".ends", ".model", ".tran", ".end", "X1", "0", "-1", "1e999", "nan", "(", ")", "=",
    "+", "1k", "PULSE(",
];

/// One edit of a deck: `(kind, line, token, replacement)`, the last three
/// taken modulo what the deck offers. Kinds: replace, insert, delete or
/// truncate at a token, or duplicate the line.
type Mutation = (usize, usize, usize, usize);

fn mutate(deck: &str, edits: &[Mutation]) -> String {
    let mut lines: Vec<String> = deck.lines().map(String::from).collect();
    let pool: Vec<&str> = HOSTILE.iter().copied().chain(deck.split_whitespace()).collect();
    for &(kind, line, token, with) in edits {
        let l = line % lines.len();
        let mut toks: Vec<&str> = lines[l].split_whitespace().collect();
        let (t, with) = (token % (toks.len() + 1), pool[with % pool.len()]);
        match kind {
            0 if t < toks.len() => toks[t] = with,
            1 => toks.insert(t, with),
            2 if t < toks.len() => {
                toks.remove(t);
            }
            3 => toks.truncate(t),
            4 => {
                let copy = lines[l].clone();
                lines.insert(l, copy);
                continue;
            }
            _ => continue,
        }
        lines[l] = toks.join(" ");
    }
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// A mutated deck parses and validates, or fails with an error at one of
    /// its own lines; nothing panics.
    #[test]
    fn a_mutated_deck_fails_at_one_of_its_lines_or_parses(
        edits in proptest::collection::vec((0usize..5, 0usize..64, 0usize..16, 0usize..256), 1..4)
    ) {
        let deck = mutate(DECK, &edits);
        let lines = deck.lines().count();
        match parse_netlist(&deck) {
            Ok(parsed) => {
                let _ = parsed.circuit.validate();
            }
            Err(e) => prop_assert!(
                (1..=lines).contains(&e.line()),
                "error at line {} of {lines}: {e}\n{deck}",
                e.line()
            ),
        }
    }
}
