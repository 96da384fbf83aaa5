//! DC operating-point analysis with continuation fallbacks.
//!
//! The operating point seeds every transient run. Strategy, in SPICE order:
//!
//! 1. Direct Newton from a zero initial guess.
//! 2. **Gmin stepping**: solve with a large shunt conductance on every node,
//!    then relax it decade by decade, warm-starting each stage.
//! 3. **Source stepping**: ramp all independent sources from 0 to 100%.

use crate::error::{EngineError, Result};
use crate::mna::{MnaSystem, MnaWorkspace, StampInput};
use crate::newton::{newton_solve, LinearCache};
use crate::options::SimOptions;
use crate::stats::SimStats;

/// Newton iteration budget of one operating-point attempt (SPICE's `ITL1`).
pub(crate) const MAX_DC_ITERS: usize = 200;

fn dc_input<'a>(
    zeros: &'a [f64],
    caps: &'a [f64],
    opts: &SimOptions,
    gshunt: f64,
    source_scale: f64,
) -> StampInput<'a> {
    StampInput {
        time: 0.0,
        coeffs: None,
        x_prev: zeros,
        x_prev2: zeros,
        cap_currents: caps,
        gmin: opts.gmin,
        gshunt,
        source_scale,
        ic_mode: false,
    }
}

/// The type of [`dc_operating_point`]'s fourth argument: the stamp-worker
/// set that used to be passed there is deleted, and this stand-in has no
/// value, so the argument is `None` wherever the call compiles. Kept because
/// `benchmark/`, which a code change may not edit, passes that `None`; it
/// goes with ROADMAP's benchmark-only follow-up.
#[doc(hidden)]
pub enum StampExecutor {}

/// Computes the DC operating point of the compiled system. The fourth
/// argument is always `None` (see [`StampExecutor`]).
///
/// # Errors
///
/// Returns [`EngineError::NoConvergence`] if direct Newton, gmin stepping,
/// and source stepping all fail, or [`EngineError::Linear`] on an
/// irrecoverably singular matrix.
pub fn dc_operating_point(
    sys: &MnaSystem,
    ws: &mut MnaWorkspace,
    cache: &mut LinearCache,
    _: Option<&mut StampExecutor>,
    opts: &SimOptions,
    stats: &mut SimStats,
) -> Result<Vec<f64>> {
    let n = sys.n_unknowns();
    let zeros = vec![0.0; n];
    let caps = vec![0.0; sys.cap_state_count()];

    // --- 1. Direct attempt. ---
    let direct = newton_solve(
        sys,
        ws,
        cache,
        &dc_input(&zeros, &caps, opts, opts.gmin, 1.0),
        &zeros,
        MAX_DC_ITERS,
        opts,
        stats,
    );
    match direct {
        Ok(out) if out.converged => return Ok(out.x),
        // Cancellation / deadline: the caller asked us to stop; the
        // continuation ladder must not burn more wall time.
        Err(e) if e.is_budget() => return Err(e),
        _ => {}
    }

    // --- 2. Gmin stepping. ---
    let mut x = zeros.clone();
    let mut ok = true;
    let mut gshunt = 1e-2;
    while gshunt >= opts.gmin * 0.99 {
        let out = newton_solve(
            sys,
            ws,
            cache,
            &dc_input(&zeros, &caps, opts, gshunt, 1.0),
            &x,
            MAX_DC_ITERS,
            opts,
            stats,
        );
        match out {
            Ok(o) if o.converged => x = o.x,
            Err(e) if e.is_budget() => return Err(e),
            _ => {
                ok = false;
                break;
            }
        }
        gshunt /= 10.0;
    }
    if ok {
        // Final polish at the nominal gmin-only stamp.
        let out = newton_solve(
            sys,
            ws,
            cache,
            &dc_input(&zeros, &caps, opts, opts.gmin, 1.0),
            &x,
            MAX_DC_ITERS,
            opts,
            stats,
        )?;
        if out.converged {
            return Ok(out.x);
        }
    }

    // --- 3. Source stepping. ---
    let mut x = zeros.clone();
    let mut scale = 0.0;
    let mut step = 0.1_f64;
    let mut failures = 0;
    while scale < 1.0 {
        let target = (scale + step).min(1.0);
        let out = newton_solve(
            sys,
            ws,
            cache,
            &dc_input(&zeros, &caps, opts, opts.gmin, target),
            &x,
            MAX_DC_ITERS,
            opts,
            stats,
        );
        match out {
            Ok(o) if o.converged => {
                x = o.x;
                scale = target;
                step = (step * 1.5).min(0.25);
            }
            Err(e) if e.is_budget() => return Err(e),
            _ => {
                step /= 4.0;
                failures += 1;
                if failures > 20 || step < 1e-5 {
                    // `x` is the last converged continuation stage; the
                    // residual against the workspace's final stamp names
                    // where the next stage refused to close.
                    return Err(EngineError::NoConvergence {
                        time: 0.0,
                        iterations: stats.newton_iterations,
                        report: Box::new(crate::recovery::residual_report(sys, ws, &x)),
                    });
                }
            }
        }
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavepipe_circuit::generators;
    use wavepipe_circuit::{BjtModel, Circuit, DiodeModel, MosModel, Waveform};

    fn op(ckt: &Circuit) -> (MnaSystem, Vec<f64>) {
        let sys = MnaSystem::compile(ckt).unwrap();
        let mut ws = sys.new_workspace();
        let mut cache = LinearCache::default();
        let mut stats = SimStats::new();
        let x =
            dc_operating_point(&sys, &mut ws, &mut cache, None, &SimOptions::default(), &mut stats)
                .unwrap();
        (sys, x)
    }

    #[test]
    fn divider_op() {
        let mut ckt = Circuit::new("div");
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(9.0)).unwrap();
        ckt.add_resistor("R1", a, b, 2e3).unwrap();
        ckt.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        let (sys, x) = op(&ckt);
        assert!((x[sys.node_unknown("b").unwrap()] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn inverter_dc_points() {
        // CMOS inverter with input low: output at VDD. Input high: output ~0.
        for (vin, expect_high) in [(0.0, true), (3.3, false)] {
            let mut ckt = Circuit::new("inv");
            let vdd = ckt.node("vdd");
            let inp = ckt.node("in");
            let out = ckt.node("out");
            ckt.add_vsource("Vdd", vdd, Circuit::GROUND, Waveform::dc(3.3)).unwrap();
            ckt.add_vsource("Vin", inp, Circuit::GROUND, Waveform::dc(vin)).unwrap();
            ckt.add_mosfet("Mp", out, inp, vdd, MosModel::pmos()).unwrap();
            ckt.add_mosfet("Mn", out, inp, Circuit::GROUND, MosModel::nmos()).unwrap();
            let (sys, x) = op(&ckt);
            let vo = x[sys.node_unknown("out").unwrap()];
            if expect_high {
                assert!(vo > 3.2, "vin={vin}: vout = {vo}");
            } else {
                assert!(vo < 0.1, "vin={vin}: vout = {vo}");
            }
        }
    }

    #[test]
    fn diode_chain_needs_continuation_but_converges() {
        // A long series diode chain from a strong source is a classic
        // hard-start circuit.
        let mut ckt = Circuit::new("chain");
        let top = ckt.node("n0");
        ckt.add_vsource("V1", top, Circuit::GROUND, Waveform::dc(6.0)).unwrap();
        let r = ckt.node("nr");
        ckt.add_resistor("R1", top, r, 100.0).unwrap();
        let mut prev = r;
        for i in 0..8 {
            let nxt = ckt.node(&format!("d{i}"));
            ckt.add_diode(&format!("D{i}"), prev, nxt, DiodeModel::default()).unwrap();
            prev = nxt;
        }
        ckt.add_resistor("R2", prev, Circuit::GROUND, 100.0).unwrap();
        let (sys, x) = op(&ckt);
        // Each diode drops ~0.6-0.8 V.
        let v_first = x[sys.node_unknown("nr").unwrap()];
        let v_last = x[sys.node_unknown("d7").unwrap()];
        let total_drop = v_first - v_last;
        assert!(total_drop > 4.0 && total_drop < 6.5, "chain drop = {total_drop}");
    }

    #[test]
    fn bjt_amplifier_bias_point() {
        // Common-emitter: Vcc 12, Rb to base, Rc 2k.
        let mut ckt = Circuit::new("ce");
        let vcc = ckt.node("vcc");
        let b = ckt.node("b");
        let c = ckt.node("c");
        ckt.add_vsource("Vcc", vcc, Circuit::GROUND, Waveform::dc(12.0)).unwrap();
        ckt.add_resistor("Rb", vcc, b, 1e6).unwrap();
        ckt.add_resistor("Rc", vcc, c, 2e3).unwrap();
        ckt.add_bjt("Q1", c, b, Circuit::GROUND, BjtModel::default()).unwrap();
        let (sys, x) = op(&ckt);
        let vb = x[sys.node_unknown("b").unwrap()];
        let vc = x[sys.node_unknown("c").unwrap()];
        assert!(vb > 0.5 && vb < 0.9, "vb = {vb}");
        // ib ~ (12-0.7)/1M = 11.3uA; ic ~ 1.13mA; vc ~ 12 - 2.26 ~ 9.7.
        assert!(vc > 8.0 && vc < 11.0, "vc = {vc}");
    }

    #[test]
    fn all_small_benchmarks_have_operating_points() {
        for b in generators::small_suite() {
            let sys = MnaSystem::compile(&b.circuit).unwrap();
            let mut ws = sys.new_workspace();
            let mut cache = LinearCache::default();
            let mut stats = SimStats::new();
            let x = dc_operating_point(
                &sys,
                &mut ws,
                &mut cache,
                None,
                &SimOptions::default(),
                &mut stats,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(wavepipe_sparse::vector::all_finite(&x), "{}", b.name);
        }
    }
}
