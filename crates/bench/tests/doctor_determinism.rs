//! Determinism pins for the `wavepipe-doctor` stable report: two identical
//! runs (same circuit, scheme, thread count) must render byte-identical
//! stable sections. The stable section is count-derived only — timestamps
//! never enter it — so any diff here means a scheduling decision leaked
//! into the simulation, which would also break the serial-equivalence
//! accuracy guarantee.

use wavepipe_bench::doctor::{circuit_by_spec, doctor_json, doctor_text, run_instrumented};
use wavepipe_core::Scheme;
use wavepipe_telemetry::analyze;

fn stable_doctor(spec: &str, scheme: Scheme, threads: usize) -> (String, String) {
    let b = circuit_by_spec(spec).expect("known spec");
    let run = run_instrumented(&b, scheme, threads);
    let analysis = analyze(&run.events);
    let title = format!("{spec}, {scheme} x{threads}");
    (
        doctor_text(&title, &analysis, &run.snapshot, true),
        doctor_json(&title, &analysis, &run.snapshot, true),
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
        let (a, _) = stable_doctor("power_grid:4,4", scheme, 3);
        let (b, _) = stable_doctor("power_grid:4,4", scheme, 3);
        assert_eq!(a, b, "{scheme}: stable doctor text diverged");
    }
}

/// The timing section exists but is excluded from the stable bytes.
#[test]
fn timing_section_is_outside_the_stable_report() {
    let b = circuit_by_spec("rc_ladder:8").unwrap();
    let run = run_instrumented(&b, Scheme::Backward, 2);
    let analysis = analyze(&run.events);
    let stable = doctor_text("t", &analysis, &run.snapshot, true);
    let full = doctor_text("t", &analysis, &run.snapshot, false);
    assert!(!stable.contains("== timing"));
    assert!(full.contains("== timing"));
    assert!(full.starts_with(&stable), "full report must extend the stable prefix");
}
