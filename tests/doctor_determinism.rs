//! Determinism pins for the `wavepipe doctor` stable report: two identical
//! runs (same circuit, scheme, thread count) must render byte-identical
//! stable sections. The stable section is count-derived only — timestamps
//! never enter it — so any diff here means a scheduling decision leaked
//! into the simulation, which would also break the serial-equivalence
//! accuracy guarantee.

use std::process::{Command, Output};
use wavepipe::core::Scheme;

/// Runs the `wavepipe` binary with `args`.
fn wavepipe(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wavepipe")).args(args).output().expect("wavepipe starts")
}

/// The standard output of a `wavepipe doctor` run that must succeed.
fn doctor(spec: &str, scheme: Scheme, threads: usize, flags: &[&str]) -> String {
    let (scheme, threads) = (scheme.to_string(), threads.to_string());
    let mut args = vec!["doctor", spec, "--scheme", &scheme, "--threads", &threads];
    args.extend(flags);
    let out = wavepipe(&args);
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 report")
}

fn stable_doctor(spec: &str, scheme: Scheme, threads: usize) -> (String, String) {
    (
        doctor(spec, scheme, threads, &["--stable"]),
        doctor(spec, scheme, threads, &["--stable", "--json"]),
    )
}

/// The ISSUE acceptance scenario: `inverter_chain(120)`, combined scheme,
/// byte-stable across two identical seeded runs.
#[test]
fn inverter_chain_combined_doctor_is_byte_stable() {
    let (text_a, json_a) = stable_doctor("inverter_chain:120", Scheme::Combined, 4);
    let (text_b, json_b) = stable_doctor("inverter_chain:120", Scheme::Combined, 4);
    assert!(text_a.contains("points accepted"), "report looks empty:\n{text_a}");
    assert_eq!(text_a, text_b, "stable doctor text diverged between identical runs");
    assert_eq!(json_a, json_b, "stable doctor JSON diverged between identical runs");
}

/// Every scheme stays byte-stable on a smaller circuit (fast guard that
/// runs on each scheme's distinct commit paths).
#[test]
fn every_scheme_doctor_is_byte_stable_on_power_grid() {
    for scheme in [Scheme::Serial, Scheme::Backward, Scheme::Forward, Scheme::Combined] {
        let a = doctor("power_grid:4,4", scheme, 3, &["--stable"]);
        let b = doctor("power_grid:4,4", scheme, 3, &["--stable"]);
        assert_eq!(a, b, "{scheme}: stable doctor text diverged");
    }
}

/// The timing section exists but is excluded from the stable bytes.
#[test]
fn timing_section_is_outside_the_stable_report() {
    let stable = doctor("rc_ladder:8", Scheme::Backward, 2, &["--stable"]);
    let full = doctor("rc_ladder:8", Scheme::Backward, 2, &[]);
    assert!(!stable.contains("== timing"));
    assert!(full.contains("== timing"));
    // Each output ends with the newline the binary prints after the report.
    let stable = stable.strip_suffix('\n').unwrap();
    assert!(full.starts_with(stable), "full report must extend the stable prefix");
}

/// A size below a generator's least is a usage error, with a code no
/// simulation failure uses, not a panic.
#[test]
fn a_too_small_generator_is_a_usage_error() {
    let out = wavepipe(&["doctor", "power_grid:1,1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(64), "{stderr}");
    assert!(stderr.contains("at least a 2x2 mesh"), "{stderr}");
    assert_eq!(wavepipe(&["simulate"]).status.code(), Some(64));
}
