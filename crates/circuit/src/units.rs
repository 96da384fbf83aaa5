//! SPICE numeric literals: floating-point values with engineering suffixes.
//!
//! SPICE accepts `1k`, `2.2u`, `3meg`, `0.5m`, `10p`, optionally followed by
//! arbitrary unit letters that are ignored (`10pF`, `1kOhm`). Suffixes are
//! case-insensitive; `meg` must be matched before `m`.

use std::fmt;

/// Error returned when a SPICE numeric literal cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ParseValueError {
    text: String,
}

impl fmt::Display for ParseValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid spice numeric literal `{}`", self.text)
    }
}

impl std::error::Error for ParseValueError {}

/// Parses a SPICE numeric literal such as `1k`, `2.2uF`, `3meg`, `1e-9`.
///
/// Trailing unit letters after the scale suffix are ignored, matching SPICE
/// convention.
///
/// Every value field of a deck goes through it:
///
/// ```
/// use wavepipe_circuit::{parse_netlist, Element};
///
/// # fn main() -> Result<(), wavepipe_circuit::ParseNetlistError> {
/// let deck = "* values\nR1 a 0 1k\nR2 a 0 2.2u\nR3 a 0 3MEG\nR4 a 0 10pF\nR5 a 0 1e-9\n";
/// let ckt = parse_netlist(deck)?.circuit;
/// let r = |name| match ckt.element(name) {
///     Some(Element::Resistor { resistance, .. }) => *resistance,
///     _ => unreachable!(),
/// };
/// assert_eq!([r("R1"), r("R2"), r("R3"), r("R4"), r("R5")], [1e3, 2.2e-6, 3e6, 10e-12, 1e-9]);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`ParseValueError`] if the literal has no leading number, or if
/// its value is not finite (`1e400`, `1e300t` overflow to infinity).
pub(crate) fn parse_value(s: &str) -> Result<f64, ParseValueError> {
    let t = s.trim();
    if t.is_empty() {
        return Err(ParseValueError { text: s.to_string() });
    }
    // Split the leading float: sign, digits, '.', digits, exponent.
    let bytes = t.as_bytes();
    let mut i = 0;
    if bytes[i] == b'+' || bytes[i] == b'-' {
        i += 1;
    }
    let digits_start = i;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'.' {
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i == digits_start || (i == digits_start + 1 && bytes[digits_start] == b'.') {
        return Err(ParseValueError { text: s.to_string() });
    }
    // Optional exponent — only if followed by digits (so `1e` falls through
    // to suffix handling, where `e` is not a scale and is ignored as units).
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        let exp_digits = j;
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            j += 1;
        }
        if j > exp_digits {
            i = j;
        }
    }
    let (num, rest) = t.split_at(i);
    let base: f64 = num.parse().map_err(|_| ParseValueError { text: s.to_string() })?;
    let value = base * suffix_scale(rest);
    if !value.is_finite() {
        return Err(ParseValueError { text: s.to_string() });
    }
    Ok(value)
}

/// Maps a trailing suffix (case-insensitive, extra unit letters ignored) to
/// its scale factor. Unknown text scales by 1.0 per SPICE convention.
fn suffix_scale(rest: &str) -> f64 {
    let lower = rest.to_ascii_lowercase();
    if lower.starts_with("meg") {
        1e6
    } else if lower.starts_with("mil") {
        25.4e-6
    } else if let Some(c) = lower.chars().next() {
        match c {
            't' => 1e12,
            'g' => 1e9,
            'k' => 1e3,
            'm' => 1e-3,
            'u' => 1e-6,
            'n' => 1e-9,
            'p' => 1e-12,
            'f' => 1e-15,
            _ => 1.0,
        }
    } else {
        1.0
    }
}

/// Formats a value in engineering notation with a SPICE suffix: the inverse
/// of [`parse_value`] the unit tests round-trip through.
#[cfg(test)]
fn format_eng(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let suffixes: [(f64, &str); 9] = [
        (1e12, "t"),
        (1e9, "g"),
        (1e6, "meg"),
        (1e3, "k"),
        (1.0, ""),
        (1e-3, "m"),
        (1e-6, "u"),
        (1e-9, "n"),
        (1e-12, "p"),
    ];
    let mag = v.abs();
    for (scale, suf) in suffixes {
        if mag >= scale {
            let scaled = v / scale;
            // Trim trailing zeros from a fixed representation.
            let s = format!("{scaled:.4}");
            let s = s.trim_end_matches('0').trim_end_matches('.');
            return format!("{s}{suf}");
        }
    }
    format!("{v:e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_numbers() {
        assert_eq!(parse_value("42").unwrap(), 42.0);
        assert_eq!(parse_value("-3.5").unwrap(), -3.5);
        assert_eq!(parse_value("1e-9").unwrap(), 1e-9);
        assert_eq!(parse_value("2.5E6").unwrap(), 2.5e6);
    }

    #[test]
    fn standard_suffixes() {
        assert_eq!(parse_value("1t").unwrap(), 1e12);
        assert_eq!(parse_value("1g").unwrap(), 1e9);
        assert_eq!(parse_value("1meg").unwrap(), 1e6);
        assert_eq!(parse_value("1k").unwrap(), 1e3);
        assert_eq!(parse_value("1m").unwrap(), 1e-3);
        assert_eq!(parse_value("1u").unwrap(), 1e-6);
        assert_eq!(parse_value("1n").unwrap(), 1e-9);
        assert_eq!(parse_value("1p").unwrap(), 1e-12);
        assert_eq!(parse_value("1f").unwrap(), 1e-15);
    }

    #[test]
    fn meg_not_milli() {
        assert_eq!(parse_value("2MEG").unwrap(), 2e6);
        assert_eq!(parse_value("2Meg").unwrap(), 2e6);
        assert_eq!(parse_value("2M").unwrap(), 2e-3);
    }

    #[test]
    fn unit_letters_ignored() {
        assert_eq!(parse_value("10pF").unwrap(), 10e-12);
        assert_eq!(parse_value("1kOhm").unwrap(), 1e3);
        assert_eq!(parse_value("5Volts").unwrap(), 5.0);
    }

    #[test]
    fn mil_suffix() {
        assert!((parse_value("2mil").unwrap() - 50.8e-6).abs() < 1e-12);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value("").is_err());
        assert!(parse_value("k1").is_err());
        assert!(parse_value("--3").is_err());
        assert!(parse_value(".").is_err());
    }

    #[test]
    fn rejects_values_that_overflow() {
        for text in ["1e400", "-1e400", "1e300t", "1e308k", "inf", "nan"] {
            assert!(parse_value(text).is_err(), "{text}");
        }
        assert_eq!(parse_value("1e299g").unwrap(), 1e299 * 1e9);
        assert_eq!(parse_value("1.7e308").unwrap(), 1.7e308);
    }

    #[test]
    fn bare_exponent_letter_treated_as_units() {
        // `1e` has no exponent digits: the `e` is unit text, value 1.0.
        assert_eq!(parse_value("1e").unwrap(), 1.0);
    }

    #[test]
    fn format_round_trip() {
        for v in [1.0, 1e3, 2.2e-6, 5e-12, 3.3e6, 1500.0] {
            let s = format_eng(v);
            let back = parse_value(&s).unwrap();
            assert!((back - v).abs() <= 1e-9 * v.abs(), "{v} -> {s} -> {back}");
        }
    }

    #[test]
    fn format_zero() {
        assert_eq!(format_eng(0.0), "0");
    }
}
