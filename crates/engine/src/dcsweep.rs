//! DC sweep analysis: solve the operating point while stepping one
//! independent source through a value list, warm-starting Newton from the
//! previous point (the classic `.dc` transfer-curve analysis).

use crate::dcop::dc_operating_point;
use crate::error::{EngineError, Result};
use crate::mna::{MnaSystem, StampInput};
use crate::newton::{newton_solve, LinearCache};
use crate::options::SimOptions;
use crate::stats::SimStats;
use wavepipe_circuit::Circuit;

/// Result of a DC sweep: one full solution per sweep value.
#[derive(Debug, Clone)]
pub struct DcSweepResult {
    values: Vec<f64>,
    data: Vec<f64>,
    n_unknowns: usize,
    node_names: Vec<String>,
    stats: SimStats,
}

impl DcSweepResult {
    /// The sweep values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Unknown index of a node name, if present.
    pub fn unknown_of(&self, node_name: &str) -> Option<usize> {
        self.node_names.iter().position(|n| n == node_name)
    }

    /// Solution vector at sweep point `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn solution(&self, k: usize) -> &[f64] {
        &self.data[k * self.n_unknowns..(k + 1) * self.n_unknowns]
    }

    /// `(sweep value, unknown value)` transfer curve of one unknown.
    ///
    /// # Panics
    ///
    /// Panics if `unknown` is out of range.
    pub fn trace(&self, unknown: usize) -> Vec<(f64, f64)> {
        assert!(unknown < self.n_unknowns);
        self.values
            .iter()
            .enumerate()
            .map(|(k, &v)| (v, self.data[k * self.n_unknowns + unknown]))
            .collect()
    }

    /// Accumulated solver statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }
}

/// Sweeps the named independent source through `values`, solving the DC
/// operating point at each.
///
/// ```
/// use wavepipe_circuit::{Circuit, Waveform};
/// use wavepipe_engine::{run_dc_sweep, SimOptions};
///
/// # fn main() -> Result<(), wavepipe_engine::EngineError> {
/// let mut ckt = Circuit::new("divider");
/// let a = ckt.node("a");
/// let b = ckt.node("b");
/// ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(0.0))?;
/// ckt.add_resistor("R1", a, b, 1e3)?;
/// ckt.add_resistor("R2", b, Circuit::GROUND, 1e3)?;
/// let sweep = run_dc_sweep(&ckt, "V1", &[0.0, 1.0, 2.0], &SimOptions::default())?;
/// let out = sweep.unknown_of("b").expect("node");
/// assert!((sweep.trace(out)[2].1 - 1.0).abs() < 1e-9); // 2 V in -> 1 V out
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`EngineError::UnknownSource`] if no independent source has that name.
/// * [`EngineError::BadParameter`] for an empty value list.
/// * [`EngineError::NoConvergence`] if some point cannot be solved even with
///   continuation.
pub fn run_dc_sweep(
    circuit: &Circuit,
    source: &str,
    values: &[f64],
    opts: &SimOptions,
) -> Result<DcSweepResult> {
    if values.is_empty() {
        return Err(EngineError::BadParameter { name: "values", value: 0.0 });
    }
    let mut sys = MnaSystem::compile(circuit)?;
    sys.set_source(source, values[0])?;
    let n = sys.n_unknowns();
    let mut ws = sys.new_workspace();
    let mut cache = LinearCache::for_options(opts);
    let mut stats = SimStats::new();
    let zeros = vec![0.0; n];
    let caps = vec![0.0; sys.cap_state_count()];

    let mut data = Vec::with_capacity(values.len() * n);
    // First point with full continuation.
    let mut x = dc_operating_point(&sys, &mut ws, &mut cache, None, opts, &mut stats)?;
    data.extend_from_slice(&x);

    for &v in &values[1..] {
        sys.set_source(source, v)?;
        let input = StampInput {
            time: 0.0,
            coeffs: None,
            x_prev: &zeros,
            x_prev2: &zeros,
            cap_currents: &caps,
            gmin: opts.gmin,
            gshunt: 0.0,
            source_scale: 1.0,
            ic_mode: false,
        };
        // Warm start from the previous sweep point; fall back to full
        // continuation if the jump is too large.
        let out = newton_solve(
            &sys,
            &mut ws,
            &mut cache,
            &input,
            &x,
            opts.max_dc_iters,
            opts,
            &mut stats,
        )?;
        x = if out.converged {
            out.x
        } else {
            dc_operating_point(&sys, &mut ws, &mut cache, None, opts, &mut stats)?
        };
        data.extend_from_slice(&x);
    }

    Ok(DcSweepResult {
        values: values.to_vec(),
        data,
        n_unknowns: n,
        node_names: sys.node_names().to_vec(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavepipe_circuit::{Circuit, DiodeModel, MosModel, Waveform};

    fn linspace(a: f64, b: f64, n: usize) -> Vec<f64> {
        (0..n).map(|k| a + (b - a) * k as f64 / (n - 1) as f64).collect()
    }

    #[test]
    fn resistive_divider_sweep_is_linear() {
        let mut ckt = Circuit::new("div");
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(0.0)).unwrap();
        ckt.add_resistor("R1", a, b, 3e3).unwrap();
        ckt.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        let vals = linspace(-5.0, 5.0, 21);
        let res = run_dc_sweep(&ckt, "V1", &vals, &SimOptions::default()).unwrap();
        let bi = res.unknown_of("b").unwrap();
        for (v, vb) in res.trace(bi) {
            assert!((vb - 0.25 * v).abs() < 1e-6, "v={v}: {vb}");
        }
    }

    #[test]
    fn inverter_vtc_is_monotone_rail_to_rail() {
        let mut ckt = Circuit::new("inv");
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("Vdd", vdd, Circuit::GROUND, Waveform::dc(3.3)).unwrap();
        ckt.add_vsource("Vin", inp, Circuit::GROUND, Waveform::dc(0.0)).unwrap();
        ckt.add_mosfet("Mp", out, inp, vdd, MosModel::pmos()).unwrap();
        ckt.add_mosfet("Mn", out, inp, Circuit::GROUND, MosModel::nmos()).unwrap();
        let vals = linspace(0.0, 3.3, 34);
        // Direct LU pinned: the monotonicity window below is 1e-6 wide, and
        // at the flat 3.3 V rail an iterative solve's residual-level wiggle
        // (~1e-6 under `WAVEPIPE_SOLVER=gmres`) is enough to break it.
        let opts = SimOptions::default().with_solver(crate::SolverHandle::direct());
        let res = run_dc_sweep(&ckt, "Vin", &vals, &opts).unwrap();
        let oi = res.unknown_of("out").unwrap();
        let vtc = res.trace(oi);
        assert!(vtc.first().unwrap().1 > 3.2, "output high at vin=0");
        assert!(vtc.last().unwrap().1 < 0.1, "output low at vin=vdd");
        for w in vtc.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-6, "vtc must fall monotonically: {w:?}");
        }
        // The switching threshold sits mid-supply-ish.
        let vm = vtc
            .iter()
            .min_by(|a, b| (a.1 - 1.65).abs().partial_cmp(&(b.1 - 1.65).abs()).expect("finite"))
            .unwrap()
            .0;
        assert!(vm > 1.0 && vm < 2.3, "switching threshold {vm}");
    }

    #[test]
    fn diode_iv_curve_is_exponential() {
        let mut ckt = Circuit::new("iv");
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(0.0)).unwrap();
        ckt.add_diode("D1", a, Circuit::GROUND, DiodeModel::default()).unwrap();
        let vals = linspace(0.3, 0.7, 17);
        let res = run_dc_sweep(&ckt, "V1", &vals, &SimOptions::default()).unwrap();
        // Branch current of V1 (flows out of the + terminal into the diode,
        // so i(V1) = -i_diode).
        let br = res.n_unknowns - 1;
        let iv = res.trace(br);
        // Current grows ~ e^(dv/vt): over 0.1 V it multiplies by ~48.
        let i_at = |v: f64| {
            iv.iter()
                .find(|&&(vv, _)| (vv - v).abs() < 1e-9)
                .map(|&(_, i)| -i)
                .expect("point present")
        };
        let ratio = i_at(0.6) / i_at(0.5);
        let expect = (0.1f64 / crate::devices::VT).exp();
        assert!((ratio - expect).abs() / expect < 0.05, "ratio {ratio} vs {expect}");
    }

    #[test]
    fn current_source_sweeps_too() {
        let mut ckt = Circuit::new("isw");
        let a = ckt.node("a");
        ckt.add_isource("I1", Circuit::GROUND, a, Waveform::dc(0.0)).unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 2e3).unwrap();
        let vals = linspace(0.0, 1e-3, 11);
        let res = run_dc_sweep(&ckt, "I1", &vals, &SimOptions::default()).unwrap();
        let ai = res.unknown_of("a").unwrap();
        for (i, va) in res.trace(ai) {
            assert!((va - 2e3 * i).abs() < 1e-6, "i={i}: {va}");
        }
    }

    #[test]
    fn unknown_source_is_an_error() {
        let mut ckt = Circuit::new("t");
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        assert!(matches!(
            run_dc_sweep(&ckt, "Vnope", &[0.0, 1.0], &SimOptions::default()),
            Err(EngineError::UnknownSource { .. })
        ));
    }

    #[test]
    fn sweep_field_accessors() {
        let mut ckt = Circuit::new("t");
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        let res = run_dc_sweep(&ckt, "v1", &[1.0, 2.0], &SimOptions::default()).unwrap();
        assert_eq!(res.values(), &[1.0, 2.0]);
        assert_eq!(res.solution(1).len(), res.solution(0).len());
        assert!(res.stats().newton_iterations > 0);
    }
}
