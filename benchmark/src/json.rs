//! JSON for result files and traces: the value type and reader are
//! `wavepipe_telemetry::json`'s, which this package depends on anyway; only
//! the one-line writer is the benchmark's own.

use std::fmt::Write as _;
pub use wavepipe_telemetry::json::{parse, JsonValue as Json};

pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn str(s: &str) -> Json {
    Json::Str(s.to_string())
}

pub fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// One line, no spaces after separators. Numbers print with every digit
/// needed to read them back exactly; a non-finite number prints `null`.
pub fn to_line(value: &Json) -> String {
    let mut out = String::new();
    write(value, &mut out);
    out
}

fn write_str(s: &str, out: &mut String) {
    let _ = write!(out, "\"{}\"", wavepipe_telemetry::json::escape(s));
}

fn write(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_str(s, out),
        Json::Arr(a) => {
            out.push('[');
            for (i, v) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(v, out);
            }
            out.push(']');
        }
        Json::Obj(m) => {
            out.push('{');
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write(v, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values_exactly() {
        let v = obj([
            ("a", Json::Num(0.1 + 0.2)),
            ("b", Json::Arr(vec![Json::Bool(true), Json::Null, Json::Num(-1e-300)])),
            ("c \"q\"\n", str("tab\there \\ \u{1}")),
        ]);
        assert_eq!(parse(&to_line(&v)).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_write_null() {
        assert_eq!(to_line(&Json::Num(f64::NAN)), "null");
    }
}
