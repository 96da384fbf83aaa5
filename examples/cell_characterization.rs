//! Digital cell characterisation: define an inverter once as a `.subckt`,
//! instantiate a chain, and measure propagation delays and edge rates the way
//! a liberty-style characterisation flow would.
//!
//! Run with: `cargo run --release --example cell_characterization`

use wavepipe::circuit::parse_netlist;
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::engine::measure;

const DECK: &str = "\
inverter cell characterisation
* One cell definition, used five times.
.subckt INV in out vdd
Mp out in vdd PCELL
Mn out in 0 NCELL
.ends
.model PCELL PMOS (VTO=-0.7 KP=60u W=30u L=1u CGS=4f CGD=4f)
.model NCELL NMOS (VTO=0.7 KP=120u W=15u L=1u CGS=4f CGD=4f)

Vdd vdd 0 3.3
Vin n0 0 PULSE(0 3.3 1n 0.15n 0.15n 8n 18n)
X1 n0 n1 vdd INV
C1 n1 0 15f
X2 n1 n2 vdd INV
C2 n2 0 15f
X3 n2 n3 vdd INV
C3 n3 0 15f
X4 n3 n4 vdd INV
C4 n4 0 15f
X5 n4 n5 vdd INV
C5 n5 0 15f
.tran 0.02n 40n
.end
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let parsed = parse_netlist(DECK)?;
    parsed.circuit.validate()?;
    let tran = parsed.tran.expect("deck has .tran");
    println!("circuit: {}", parsed.circuit.summary());

    let opts = WavePipeOptions::new(Scheme::Backward, 2);
    let report = run_wavepipe(&parsed.circuit, tran.tstep, tran.tstop, &opts)?;
    let res = &report.result;
    println!("run    : {}\n", report.summary());

    let vdd = 3.3;
    let vmid = vdd / 2.0;
    let trace =
        |n: &str| res.trace(res.unknown_of(n).unwrap_or_else(|| panic!("node {n} missing")));

    // Per-stage propagation delays (alternating edge polarity through the
    // inverters).
    println!("stage   tpd (ps)   edge");
    let mut total = 0.0;
    for i in 0..5 {
        let from = format!("n{i}");
        let to = format!("n{}", i + 1);
        let (fe, te) = if i % 2 == 0 {
            (measure::Edge::Rising, measure::Edge::Falling)
        } else {
            (measure::Edge::Falling, measure::Edge::Rising)
        };
        let d =
            measure::delay(&trace(&from), vmid, fe, &trace(&to), vmid, te, 0).expect("stage delay");
        total += d;
        println!("{}->{}   {:8.2}   {:?}", from, to, d * 1e12, te);
    }
    println!("chain   {:8.2}   (sum)", total * 1e12);

    // Output edge rates at the last stage.
    let out = trace("n5");
    if let Some(rt) = measure::rise_time(&out, 0.0, vdd, 0) {
        println!("\nn5 rise time (10-90%): {:.2} ps", rt * 1e12);
    }
    if let Some(ft) = measure::fall_time(&out, 0.0, vdd, 0) {
        println!("n5 fall time (90-10%): {:.2} ps", ft * 1e12);
    }

    // Supply current drawn during switching (average over the first cycle).
    if let Some(ivdd) = res.branch_of("Vdd") {
        let idd = res.trace(ivdd);
        let avg = measure::average(&idd, 0.0, 18e-9).expect("window inside run");
        println!("average VDD current over one cycle: {:.2} uA", -avg * 1e6);
    }

    Ok(())
}
