//! The one reader of the process's `WAVEPIPE_*` environment knobs: every
//! read in this crate and in `wavepipe-batch` goes through a function below,
//! so the accepted spellings are written once per rule.
//!
//! | rule | knobs |
//! |------|-------|
//! | [`flag`], default on | `WAVEPIPE_BYPASS`, `WAVEPIPE_CHORD`, `WAVEPIPE_RECOVERY` |
//! | [`flag`], default off | `WAVEPIPE_FAULT_NC` |
//! | [`value`] | `WAVEPIPE_SOLVER` |
//! | [`number`] | `WAVEPIPE_FAULT_SEED` |

use std::str::FromStr;

/// A non-empty value, trimmed; `None` when unset or blank.
pub fn value(name: &str) -> Option<String> {
    let v = std::env::var(name).ok()?;
    let v = v.trim();
    (!v.is_empty()).then(|| v.to_string())
}

/// An on/off knob: `0`, `false`, `off` and `no` turn it off, any other value
/// on; unset or blank leaves it at `default`.
pub fn flag(name: &str, default: bool) -> bool {
    value(name).map_or(default, |v| !matches!(v.as_str(), "0" | "false" | "off" | "no"))
}

/// The value parsed as written (no trimming); `None` when unset or
/// unparsable.
pub fn number<T: FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    // A name no other test reads, and outside the `WAVEPIPE_` namespace that
    // CI's knob count greps.
    #[test]
    fn each_rule_accepts_its_spellings() {
        let name = "WP_ENV_RULES_TEST";
        assert_eq!((value(name), flag(name, true), flag(name, false)), (None, true, false));
        assert_eq!(number::<usize>(name), None);
        for (raw, trimmed, on, num) in [
            (" gmres ", Some("gmres"), true, None),
            ("  ", None, true, None),
            (" off", Some("off"), false, None),
            ("false", Some("false"), false, None),
            ("0", Some("0"), false, Some(0usize)),
            ("2", Some("2"), true, Some(2)),
            (" 2", Some("2"), true, None),
        ] {
            std::env::set_var(name, raw);
            assert_eq!(value(name).as_deref(), trimmed, "{raw:?}");
            assert_eq!(flag(name, true), on, "{raw:?}");
            assert_eq!(flag(name, false), on && trimmed.is_some(), "{raw:?}");
            assert_eq!(number(name), num, "{raw:?}");
        }
        std::env::remove_var(name);
    }
}
