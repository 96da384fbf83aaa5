//! Set-up stays (near-)linear in circuit size.
//!
//! No timing asserts: each test does an amount of work that takes
//! milliseconds while element names are indexed and the min-degree ordering
//! pops a heap, and on the order of ten seconds (the first) or half a second
//! (the last) with a scan of all elements per name or of all nodes per
//! elimination — so a re-introduced quadratic shows up as a slow tier-1 test.

use wavepipe::circuit::generators;
use wavepipe::circuit::{Circuit, CircuitError, Element};
use wavepipe::engine::dcop::dc_operating_point;
use wavepipe::engine::newton::LinearCache;
use wavepipe::engine::{MnaSystem, SimOptions, SimStats};

fn resistance(ckt: &Circuit, name: &str) -> Option<f64> {
    match ckt.element(name) {
        Some(Element::Resistor { resistance, .. }) => Some(*resistance),
        _ => None,
    }
}

#[test]
fn fifty_thousand_elements_are_added_and_found_by_name() {
    const N: usize = 50_000;
    let mut ckt = Circuit::new("ladder");
    let mut prev = Circuit::GROUND;
    for i in 0..N {
        let next = ckt.node(&format!("n{i}"));
        ckt.add_resistor(&format!("R{i}"), prev, next, 1.0 + i as f64).expect("fresh name");
        prev = next;
    }
    assert_eq!(ckt.element_count(), N);
    for i in 0..N {
        // Lookups fold case, as netlists do.
        assert_eq!(resistance(&ckt, &format!("r{i}")), Some(1.0 + i as f64));
    }
    assert!(ckt.element("R50000").is_none());
    if let Some(Element::Resistor { resistance, .. }) = ckt.element_mut("r49999") {
        *resistance = 7.0;
    }
    assert_eq!(resistance(&ckt, "R49999"), Some(7.0));
}

#[test]
fn the_name_index_agrees_with_the_element_list() {
    let mut ckt = Circuit::new("t");
    let a = ckt.node("a");
    ckt.add_resistor("Rload", a, Circuit::GROUND, 1e3).unwrap();
    // Taken, in any case; the first element keeps the name and its value.
    for dup in ["Rload", "rload", "RLOAD"] {
        assert_eq!(
            ckt.add_resistor(dup, a, Circuit::GROUND, 2e3),
            Err(CircuitError::DuplicateName { name: dup.to_string() })
        );
    }
    assert_eq!(ckt.element_count(), 1);
    assert_eq!(resistance(&ckt, "rLoAd"), Some(1e3));
    // A rejected value leaves no name behind: the name is still free.
    assert!(matches!(
        ckt.add_resistor("Rbad", a, Circuit::GROUND, -1.0),
        Err(CircuitError::InvalidValue { .. })
    ));
    assert!(ckt.element("Rbad").is_none());
    ckt.add_resistor("Rbad", a, Circuit::GROUND, 5.0).unwrap();
    assert_eq!(resistance(&ckt, "rbad"), Some(5.0));
    // A clone carries its own working index.
    let mut copy = ckt.clone();
    copy.add_resistor("Rmore", a, Circuit::GROUND, 9.0).unwrap();
    assert_eq!(resistance(&copy, "RLOAD"), Some(1e3));
    assert_eq!(resistance(&copy, "rmore"), Some(9.0));
    assert!(ckt.element("Rmore").is_none());
}

#[test]
fn a_64x64_power_grid_compiles_and_finds_its_operating_point() {
    let bench = generators::power_grid(64, 64);
    assert_eq!(bench.circuit.element_count(), 12_292);
    let sys = MnaSystem::compile(&bench.circuit).expect("compile");
    assert_eq!(sys.n_unknowns(), 4104);
    let sim = SimOptions::default();
    let mut ws = sys.new_workspace();
    let mut cache = LinearCache::for_options(&sim);
    let mut stats = SimStats::new();
    let x = dc_operating_point(&sys, &mut ws, &mut cache, None, &sim, &mut stats)
        .expect("the grid has a DC operating point");
    // Every mesh node sits between ground and the 1.8 V supply pads.
    let centre = sys.node_unknown("g32_32").expect("mesh node");
    assert!(x.iter().all(|v| v.is_finite()));
    assert!(x[centre] > 1.0 && x[centre] <= 1.8, "centre of the grid at {} V", x[centre]);
}
