//! The one reader of the process's `WAVEPIPE_*` environment knobs: every
//! read in the program goes through a function below (all of them in this
//! crate), so the accepted spellings are written once per rule.
//!
//! | rule | knobs |
//! |------|-------|
//! | [`flag`], default on | `WAVEPIPE_BYPASS`, `WAVEPIPE_CHORD`, `WAVEPIPE_RECOVERY` |
//! | [`flag`], default off | `WAVEPIPE_FAULT_NC` |
//! | [`choice`] of `gmres`, `direct` | `WAVEPIPE_SOLVER` |
//! | [`number`] | `WAVEPIPE_FAULT_SEED` |
//!
//! A knob that is set, not blank, and not one of its rule's spellings is a
//! mistake, not a request for the default: [`choice`] and [`number`] panic
//! with the variable and the value. So is a set `WAVEPIPE_*` name that is no
//! knob at all, a misspelt one say: the first read of any knob scans the
//! environment once for the process, and every read panics naming it.

use std::str::FromStr;
use std::sync::OnceLock;

/// Every knob read through this module; CI checks it against the reads.
const KNOBS: [&str; 6] = [
    "WAVEPIPE_BYPASS",
    "WAVEPIPE_CHORD",
    "WAVEPIPE_RECOVERY",
    "WAVEPIPE_FAULT_NC",
    "WAVEPIPE_SOLVER",
    "WAVEPIPE_FAULT_SEED",
];

/// The least of `names` that carries the `WAVEPIPE_` prefix and is not one
/// of the [`KNOBS`].
fn unknown_knob(names: impl IntoIterator<Item = String>) -> Option<String> {
    names.into_iter().filter(|n| n.starts_with("WAVEPIPE_") && !KNOBS.contains(&n.as_str())).min()
}

/// A non-empty value, trimmed; `None` when unset or blank.
///
/// # Panics
///
/// When the environment sets a `WAVEPIPE_*` name that is no knob.
pub(crate) fn value(name: &str) -> Option<String> {
    static UNKNOWN: OnceLock<Option<String>> = OnceLock::new();
    let unknown = UNKNOWN.get_or_init(|| {
        unknown_knob(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()))
    });
    if let Some(n) = unknown {
        panic!("{n} is set but is no WavePipe knob; the knobs are {KNOBS:?}");
    }
    let v = std::env::var(name).ok()?;
    let v = v.trim();
    (!v.is_empty()).then(|| v.to_string())
}

/// An on/off knob: `0`, `false`, `off` and `no` turn it off, any other value
/// on; unset or blank leaves it at `default`.
pub(crate) fn flag(name: &str, default: bool) -> bool {
    value(name).map_or(default, |v| !matches!(v.as_str(), "0" | "false" | "off" | "no"))
}

/// One of `options`, matched without regard to case and returned as
/// written there; `None` when unset or blank.
///
/// # Panics
///
/// When the value is none of `options`.
pub(crate) fn choice(name: &str, options: &[&'static str]) -> Option<&'static str> {
    let v = value(name)?;
    let pick = options.iter().copied().find(|o| o.eq_ignore_ascii_case(&v));
    Some(pick.unwrap_or_else(|| panic!("{name}={v:?} is none of {options:?}")))
}

/// The value parsed, trimmed; `None` when unset or blank.
///
/// # Panics
///
/// When the value does not parse as a `T`; the message names the type.
pub(crate) fn number<T: FromStr>(name: &str) -> Option<T> {
    let v = value(name)?;
    let what = std::any::type_name::<T>();
    Some(v.parse().unwrap_or_else(|_| panic!("{name}={v:?} is not a {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Names no other test reads, and outside the `WAVEPIPE_` namespace that
    // CI's knob count greps.
    #[test]
    fn each_rule_accepts_its_spellings() {
        let name = "WP_ENV_RULES_TEST";
        assert_eq!((value(name), flag(name, true), flag(name, false)), (None, true, false));
        assert_eq!(number::<usize>(name), None);
        assert_eq!(choice(name, &["gmres"]), None);
        for (raw, trimmed, on, num) in [
            (" gmres ", Some("gmres"), true, None),
            ("  ", None, true, None),
            (" off", Some("off"), false, None),
            ("false", Some("false"), false, None),
            ("0", Some("0"), false, Some(0usize)),
            ("2", Some("2"), true, Some(2)),
            (" 2", Some("2"), true, Some(2)),
        ] {
            std::env::set_var(name, raw);
            assert_eq!(value(name).as_deref(), trimmed, "{raw:?}");
            assert_eq!(flag(name, true), on, "{raw:?}");
            assert_eq!(flag(name, false), on && trimmed.is_some(), "{raw:?}");
            // The words are no numbers: `number` panics on them (next test).
            if num.is_some() || trimmed.is_none() {
                assert_eq!(number(name), num, "{raw:?}");
            }
        }
        for raw in ["gmres", " GMRES", "Gmres "] {
            std::env::set_var(name, raw);
            assert_eq!(choice(name, &["direct", "gmres"]), Some("gmres"), "{raw:?}");
        }
        std::env::remove_var(name);
    }

    #[test]
    fn a_set_name_under_the_prefix_that_is_no_knob_is_found() {
        let names = |ns: &[&str]| ns.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        // Assembled, so that CI's count of the names the program reads does
        // not find them here.
        let misspelt = ["WAVEPIPE", "SOVLER"].join("_");
        let retired = ["WAVEPIPE", "STAMP", "WORKERS"].join("_");
        assert_eq!(unknown_knob(names(&KNOBS)), None);
        assert_eq!(unknown_knob(names(&["PATH", "WP_SOLVER", "wavepipe_solver"])), None);
        // Of several, the least: the same name whatever the order.
        let set = names(&["PATH", &retired, KNOBS[4], &misspelt]);
        assert_eq!(unknown_knob(set), Some(misspelt));
        assert_eq!(unknown_knob(names(&[KNOBS[0], &retired])), Some(retired));
    }

    #[test]
    fn a_malformed_number_or_choice_panics_naming_the_variable_and_the_value() {
        let name = "WP_ENV_MALFORMED_TEST";
        let message = |raw: &str, read: fn(&str)| {
            std::env::set_var(name, raw);
            let err = std::panic::catch_unwind(|| read(name)).expect_err(raw);
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        for raw in ["0x10", "-1", "7 seeds", "krylov"] {
            let m = message(raw, |n| {
                let _ = number::<u64>(n);
            });
            assert!(m.contains(name) && m.contains(raw), "{raw:?}: {m}");
        }
        for raw in ["krylov", "lu", "gmres2"] {
            let m = message(raw, |n| {
                let _ = choice(n, &["gmres", "direct"]);
            });
            assert!(m.contains(name) && m.contains(raw), "{raw:?}: {m}");
        }
        std::env::remove_var(name);
    }
}
