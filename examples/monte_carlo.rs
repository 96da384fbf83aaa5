//! Monte Carlo timing analysis: simulate an inverter chain many times with
//! randomly perturbed device parameters (process spread) and report the
//! propagation-delay distribution — the bread-and-butter statistical flow
//! WavePipe's speedup multiplies across.
//!
//! The default path uses [`BatchSim`]: the chain is compiled **once** and
//! every sample reuses the frozen sparse pattern, slot table and stamp plan,
//! with only the element values swapped per sample.
//! Pass `--independent` to also run the classic loop (rebuild + recompile +
//! solve per sample) and print the measured speedup ratio.
//!
//! Run with: `cargo run --release --example monte_carlo [-- <samples>] [--independent]`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use wavepipe::circuit::{Circuit, MosModel, Waveform};
use wavepipe::engine::{measure, run_transient, SimOptions, TransientResult};
use wavepipe::prelude::{BatchSim, ParamKind};

const VDD: f64 = 3.3;
const STAGES: usize = 8;
const TSTEP: f64 = 0.02e-9;
const TSTOP: f64 = 12e-9;

/// Builds the nominal chain (no spread); samples patch the values.
fn build_nominal() -> Result<Circuit, Box<dyn std::error::Error>> {
    let mut ckt = Circuit::new("mc inverter chain");
    let vdd = ckt.node("vdd");
    ckt.add_vsource("Vdd", vdd, Circuit::GROUND, Waveform::dc(VDD))?;
    let inp = ckt.node("in");
    ckt.add_vsource(
        "Vin",
        inp,
        Circuit::GROUND,
        Waveform::pulse(0.0, VDD, 1e-9, 0.15e-9, 0.15e-9, 10e-9, 0.0),
    )?;
    let mut prev = inp;
    for i in 0..STAGES {
        let out = ckt.node(&format!("s{i}"));
        let nmos = MosModel {
            kp: 1e-4,
            vt0: 0.7,
            w: 20e-6,
            l: 1e-6,
            cgs: 5e-15,
            cgd: 5e-15,
            ..MosModel::nmos()
        };
        let pmos = MosModel {
            kp: 5e-5,
            vt0: -0.7,
            w: 40e-6,
            l: 1e-6,
            cgs: 5e-15,
            cgd: 5e-15,
            ..MosModel::pmos()
        };
        ckt.add_mosfet(&format!("Mp{i}"), out, prev, vdd, pmos)?;
        ckt.add_mosfet(&format!("Mn{i}"), out, prev, Circuit::GROUND, nmos)?;
        ckt.add_capacitor(&format!("Cl{i}"), out, Circuit::GROUND, 20e-15)?;
        prev = out;
    }
    Ok(ckt)
}

/// One sample row: the jittered value for every registered column, in
/// column order. Shared by the batched and the independent path so both
/// simulate exactly the same process corners.
fn sample_rows(samples: usize, sigma: f64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(0xC1AC0);
    (0..samples)
        .map(|_| {
            let mut jitter = |nominal: f64| -> f64 {
                // Uniform +-3 sigma spread, cheap stand-in for a Gaussian.
                nominal * (1.0 + sigma * rng.gen_range(-3.0..3.0))
            };
            let mut row = Vec::with_capacity(STAGES * 5);
            for _ in 0..STAGES {
                row.push(jitter(1e-4)); // Mn kp
                row.push(jitter(0.7)); // Mn vt0
                row.push(jitter(5e-5)); // Mp kp
                row.push(-jitter(0.7)); // Mp vt0
                row.push(jitter(20e-15)); // Cl
            }
            row
        })
        .collect()
}

/// Patch one sample's values into a fresh copy of the nominal chain (the
/// independent path's equivalent of a batch instance).
fn patched(base: &Circuit, row: &[f64]) -> Circuit {
    let mut ckt = base.clone();
    for i in 0..STAGES {
        let v = &row[i * 5..i * 5 + 5];
        if let Some(wavepipe::circuit::Element::Mosfet { model, .. }) =
            ckt.element_mut(&format!("Mn{i}"))
        {
            model.kp = v[0];
            model.vt0 = v[1];
        }
        if let Some(wavepipe::circuit::Element::Mosfet { model, .. }) =
            ckt.element_mut(&format!("Mp{i}"))
        {
            model.kp = v[2];
            model.vt0 = v[3];
        }
        if let Some(wavepipe::circuit::Element::Capacitor { capacitance, .. }) =
            ckt.element_mut(&format!("Cl{i}"))
        {
            *capacitance = v[4];
        }
    }
    ckt
}

fn chain_delay(res: &TransientResult, k: usize) -> Result<f64, Box<dyn std::error::Error>> {
    let last = format!("s{}", STAGES - 1);
    let vmid = VDD / 2.0;
    let inp = res.unknown_of("in").expect("in");
    let out = res.unknown_of(&last).expect("last stage");
    measure::delay(
        &res.trace(inp),
        vmid,
        measure::Edge::Rising,
        &res.trace(out),
        vmid,
        measure::Edge::Rising, // even number of stages
        0,
    )
    .ok_or_else(|| format!("sample {k}: no output edge").into())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut samples: usize = 40;
    let mut independent = false;
    for arg in std::env::args().skip(1) {
        if arg == "--independent" {
            independent = true;
        } else {
            samples = arg.parse()?;
        }
    }

    let base = build_nominal()?;
    let rows = sample_rows(samples, 0.05);

    // Batched path: one compile, striped workers.
    let batch_start = Instant::now();
    let mut batch = BatchSim::compile(&base, TSTEP, TSTOP)?.with_threads(2);
    for i in 0..STAGES {
        batch.param(&format!("Mn{i}"), ParamKind::MosKp)?;
        batch.param(&format!("Mn{i}"), ParamKind::MosVt0)?;
        batch.param(&format!("Mp{i}"), ParamKind::MosKp)?;
        batch.param(&format!("Mp{i}"), ParamKind::MosVt0)?;
        batch.param(&format!("Cl{i}"), ParamKind::Capacitance)?;
    }
    for row in &rows {
        batch.add_instance(row)?;
    }
    let run = batch.run()?;
    let batch_wall = batch_start.elapsed();

    let mut delays = Vec::with_capacity(samples);
    for (k, res) in run.results().iter().enumerate() {
        delays.push(chain_delay(res, k)?);
    }

    delays.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mean = delays.iter().sum::<f64>() / delays.len() as f64;
    let var = delays.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / delays.len() as f64;
    let pct = |p: f64| delays[((delays.len() - 1) as f64 * p) as usize];
    println!("{samples} Monte Carlo samples of a {STAGES}-stage chain (5% parameter spread)");
    println!("chain delay: mean {:.1} ps, sigma {:.1} ps", mean * 1e12, var.sqrt() * 1e12);
    println!(
        "             min {:.1} / p50 {:.1} / p95 {:.1} / max {:.1} ps",
        delays[0] * 1e12,
        pct(0.5) * 1e12,
        pct(0.95) * 1e12,
        delays[delays.len() - 1] * 1e12
    );
    println!(
        "batched: {} workers, {:.1} ms wall ({:.2} ms shared prep)",
        run.workers(),
        batch_wall.as_secs_f64() * 1e3,
        run.prep_ns() as f64 / 1e6,
    );
    assert!(var.sqrt() > 0.0, "spread must show up in the delays");

    if independent {
        // Classic loop: rebuild, recompile, and solve every sample from
        // scratch — what the batch engine amortises away.
        let opts = SimOptions::default();
        let indep_start = Instant::now();
        let mut check = Vec::with_capacity(samples);
        for (k, row) in rows.iter().enumerate() {
            let res = run_transient(&patched(&base, row), TSTEP, TSTOP, &opts)?;
            check.push(chain_delay(&res, k)?);
        }
        let indep_wall = indep_start.elapsed();
        check.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert_eq!(check, delays, "batched and independent runs must agree exactly");
        println!(
            "independent: {:.1} ms wall -> measured speedup {:.2}x",
            indep_wall.as_secs_f64() * 1e3,
            indep_wall.as_secs_f64() / batch_wall.as_secs_f64(),
        );
    }
    Ok(())
}
