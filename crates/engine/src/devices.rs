//! Device-model mathematics: junction diode, level-1 MOSFET, Ebers–Moll BJT,
//! plus the numerical guards every SPICE engine needs (`limexp`, `pnjlim`).
//!
//! All functions here are pure; the MNA assembler in [`crate::mna`] turns
//! their `(current, conductance)` results into matrix stamps.

/// Thermal voltage kT/q at 300.15 K, volts.
pub(crate) const VT: f64 = 0.025852;

/// Exponential with linear continuation beyond `x = 70` so Newton iterates
/// far outside the junction's operating range produce huge-but-finite
/// currents with a consistent derivative instead of overflowing.
///
/// Returns `(value, derivative)`.
pub(crate) fn limexp(x: f64) -> (f64, f64) {
    const LIM: f64 = 70.0;
    if x < LIM {
        let e = x.exp();
        (e, e)
    } else {
        let e = LIM.exp();
        (e * (1.0 + (x - LIM)), e)
    }
}

/// Critical voltage above which junction limiting engages:
/// `vcrit = n*vt * ln(n*vt / (sqrt(2) * is))`.
pub(crate) fn junction_vcrit(is: f64, nvt: f64) -> f64 {
    nvt * (nvt / (std::f64::consts::SQRT_2 * is)).ln()
}

/// Classic SPICE pn-junction voltage limiter.
///
/// Prevents Newton from proposing a junction voltage whose exponential
/// current overshoots so wildly that the next linearisation diverges.
/// `vnew` is the voltage proposed by the linear solve, `vold` the voltage
/// the previous linearisation used.
pub(crate) fn pnjlim(vnew: f64, vold: f64, nvt: f64, vcrit: f64) -> f64 {
    if vnew > vcrit && (vnew - vold).abs() > 2.0 * nvt {
        if vold > 0.0 {
            let arg = 1.0 + (vnew - vold) / nvt;
            if arg > 0.0 {
                vold + nvt * arg.ln()
            } else {
                vcrit
            }
        } else {
            nvt * (vnew / nvt).max(f64::MIN_POSITIVE).ln()
        }
    } else {
        vnew
    }
}

/// Junction diode evaluation at junction voltage `u`.
///
/// Returns `(i, g)`: the diode current and its conductance `di/du`.
pub(crate) fn diode_eval(u: f64, is: f64, nvt: f64) -> (f64, f64) {
    let (e, de) = limexp(u / nvt);
    let i = is * (e - 1.0);
    let g = is * de / nvt;
    (i, g)
}

/// Result of a MOSFET evaluation: drain-terminal current and its partial
/// derivatives with respect to the raw terminal voltages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MosEval {
    /// Current flowing into the drain terminal.
    pub id: f64,
    /// `d id / d vd`.
    pub g_dd: f64,
    /// `d id / d vg`.
    pub g_dg: f64,
    /// `d id / d vs`.
    pub g_ds: f64,
    /// `d id / d vb` (body transconductance; 0 when `gamma = 0`).
    pub g_db: f64,
}

/// Static parameters of a level-1 MOSFET in the NMOS-equivalent frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MosParams {
    /// `+1` for NMOS, `-1` for PMOS.
    pub sign: f64,
    /// `sign * vt0` — positive for enhancement devices of either polarity.
    pub vt0_eq: f64,
    /// `KP * W / L`.
    pub beta: f64,
    /// Channel-length modulation (1/V).
    pub lambda: f64,
    /// Body-effect coefficient (V^0.5); 0 disables.
    pub gamma: f64,
    /// Surface potential (V).
    pub phi: f64,
}

/// Level-1 (Shichman–Hodges) MOSFET evaluation with body effect.
///
/// The drain/source swap for `vds < 0` is handled internally — the device is
/// symmetric — and PMOS devices are evaluated in a mirrored NMOS frame. The
/// threshold is `vth = vt0 + gamma*(sqrt(phi - vbs) - sqrt(phi))` with the
/// standard forward-bias clamp keeping the square root real.
pub(crate) fn mos_eval(vd: f64, vg: f64, vs: f64, vb: f64, p: &MosParams) -> MosEval {
    let sign = p.sign;
    // Map to the NMOS frame.
    let (evd, evg, evs, evb) = (sign * vd, sign * vg, sign * vs, sign * vb);
    // Swap drain/source if the channel is reversed.
    let reversed = evd < evs;
    let (nd, ns) = if reversed { (evs, evd) } else { (evd, evs) };
    let vgs = evg - ns;
    let vds = nd - ns;

    // Body effect on the threshold (referenced to the effective source).
    let (vth, dvth_dvbs) = if p.gamma > 0.0 {
        let vbs = evb - ns;
        // Clamp so (phi - vbs) stays positive: beyond ~phi/2 of forward
        // body bias the sqrt argument is floored (standard practice).
        let arg = (p.phi - vbs).max(0.25 * p.phi);
        let sq = arg.sqrt();
        let vth = p.vt0_eq + p.gamma * (sq - p.phi.sqrt());
        let d = if p.phi - vbs > 0.25 * p.phi { -p.gamma / (2.0 * sq) } else { 0.0 };
        (vth, d)
    } else {
        (p.vt0_eq, 0.0)
    };
    let vov = vgs - vth;

    // Core quadratic model in the (vgs, vds >= 0) frame.
    let (ids, gm, gds) = if vov <= 0.0 {
        (0.0, 0.0, 0.0)
    } else if vds < vov {
        // Triode.
        let base = p.beta * (vov * vds - 0.5 * vds * vds);
        let mult = 1.0 + p.lambda * vds;
        let ids = base * mult;
        let gm = p.beta * vds * mult;
        let gds = p.beta * (vov - vds) * mult + base * p.lambda;
        (ids, gm, gds)
    } else {
        // Saturation.
        let base = 0.5 * p.beta * vov * vov;
        let mult = 1.0 + p.lambda * vds;
        (base * mult, p.beta * vov * mult, base * p.lambda)
    };
    // Body transconductance: d ids/d vbs = -gm * d vth/d vbs.
    let gmbs = -gm * dvth_dvbs;

    // Un-swap: derivatives in the (evd, evg, evs, evb) frame. In the
    // unswapped frame ids flows nd -> ns, with vgs, vds, vbs referenced to
    // the *effective* source.
    let (i_eq, d_evd, d_evg, d_evs, d_evb);
    if !reversed {
        i_eq = ids;
        d_evg = gm;
        d_evb = gmbs;
        d_evd = gds;
        d_evs = -(gm + gds + gmbs);
    } else {
        // Effective drain is evs: current into the ORIGINAL drain terminal
        // is -ids; vgs' = evg - evd, vds' = evs - evd, vbs' = evb - evd.
        i_eq = -ids;
        d_evg = -gm;
        d_evb = -gmbs;
        d_evs = -gds;
        d_evd = gm + gds + gmbs;
    }
    // Undo the polarity mirror: id = sign * i_eq(sign * v);
    // d id / d v = sign * d_ev * sign = d_ev.
    MosEval { id: sign * i_eq, g_dd: d_evd, g_dg: d_evg, g_ds: d_evs, g_db: d_evb }
}

/// Depletion-capacitance charge and capacitance of a pn junction at
/// voltage `v`: `c(v) = cj0 / (1 - v/vj)^m` below `fc*vj`, with the
/// standard linear capacitance extension above (keeps `c` and `q`
/// continuous and differentiable through forward bias).
///
/// Returns `(q, c)`.
pub(crate) fn depletion_charge(v: f64, cj0: f64, vj: f64, m: f64, fc: f64) -> (f64, f64) {
    let vknee = fc * vj;
    if v < vknee {
        let x = 1.0 - v / vj;
        let c = cj0 * x.powf(-m);
        let q = cj0 * vj / (1.0 - m) * (1.0 - x.powf(1.0 - m));
        (q, c)
    } else {
        // Linear extension: c(v) = c_k * (1 + m*(v - vknee)/(vj*(1-fc))).
        let xk = 1.0 - fc;
        let ck = cj0 * xk.powf(-m);
        let qk = cj0 * vj / (1.0 - m) * (1.0 - xk.powf(1.0 - m));
        let dv = v - vknee;
        let slope = ck * m / (vj * xk);
        let c = ck + slope * dv;
        let q = qk + ck * dv + 0.5 * slope * dv * dv;
        (q, c)
    }
}

/// Result of a BJT evaluation: collector and base terminal currents and
/// their partials with respect to raw terminal voltages `(vc, vb, ve)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BjtEval {
    /// Current into the collector.
    pub ic: f64,
    /// Current into the base.
    pub ib: f64,
    /// `d ic / d vc`.
    pub g_cc: f64,
    /// `d ic / d vb`.
    pub g_cb: f64,
    /// `d ic / d ve`.
    pub g_ce: f64,
    /// `d ib / d vc`.
    pub g_bc: f64,
    /// `d ib / d vb`.
    pub g_bb: f64,
    /// `d ib / d ve`.
    pub g_be: f64,
}

/// Ebers–Moll (transport form) BJT evaluation.
///
/// `sign` is `+1` for NPN, `-1` for PNP. The junction voltages `vbe_l` and
/// `vbc_l` must already be limited by the caller (in the NPN-equivalent
/// frame, i.e. multiplied by `sign`).
pub(crate) fn bjt_eval(vbe_l: f64, vbc_l: f64, sign: f64, is: f64, bf: f64, br: f64) -> BjtEval {
    let (ee, dee) = limexp(vbe_l / VT);
    let (ec, dec) = limexp(vbc_l / VT);
    let gee = dee / VT; // d(ee)/d(vbe)
    let gec = dec / VT;

    // NPN-frame currents.
    let icc = is * (ee - ec);
    let ibe = is / bf * (ee - 1.0);
    let ibc = is / br * (ec - 1.0);
    let ic = icc - ibc;
    let ib = ibe + ibc;

    // Partials w.r.t. (vbe, vbc) in the NPN frame.
    let dic_dvbe = is * gee;
    let dic_dvbc = -is * gec - is / br * gec;
    let dib_dvbe = is / bf * gee;
    let dib_dvbc = is / br * gec;

    // Chain rule to raw node voltages: ic_raw = sign * ic(vbe, vbc) with
    // vbe = sign*(vb - ve) and vbc = sign*(vb - vc). The sign factors cancel
    // pairwise, leaving:
    //   d ic_raw/d vb = dic_dvbe + dic_dvbc
    //   d ic_raw/d vc = -dic_dvbc
    //   d ic_raw/d ve = -dic_dvbe
    // (and the analogous rows for ib). Validated against finite differences
    // for both polarities in the unit tests.
    BjtEval {
        ic: sign * ic,
        ib: sign * ib,
        g_cc: -dic_dvbc,
        g_cb: dic_dvbe + dic_dvbc,
        g_ce: -dic_dvbe,
        g_bc: -dib_dvbc,
        g_bb: dib_dvbe + dib_dvbc,
        g_be: -dib_dvbe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limexp_continuous_at_boundary() {
        let below = limexp(69.999999).0;
        let above = limexp(70.000001).0;
        assert!((below - above).abs() / below < 1e-5);
    }

    #[test]
    fn limexp_linear_beyond_limit() {
        let (v1, d1) = limexp(80.0);
        let (v2, d2) = limexp(81.0);
        assert_eq!(d1, d2, "slope constant beyond the limit");
        assert!(((v2 - v1) - d1).abs() / d1 < 1e-12);
        assert!(v2.is_finite());
    }

    #[test]
    fn pnjlim_passes_small_steps() {
        let vcrit = junction_vcrit(1e-14, VT);
        assert_eq!(pnjlim(0.3, 0.29, VT, vcrit), 0.3);
    }

    #[test]
    fn pnjlim_limits_big_jumps() {
        let vcrit = junction_vcrit(1e-14, VT);
        let v = pnjlim(5.0, 0.6, VT, vcrit);
        assert!(v < 1.0, "limited voltage {v}");
        assert!(v > 0.6, "still moves forward");
    }

    #[test]
    fn diode_eval_forward_reverse() {
        let (i_f, g_f) = diode_eval(0.7, 1e-14, VT);
        assert!(i_f > 1e-4, "forward current {i_f}");
        assert!(g_f > 0.0);
        let (i_r, g_r) = diode_eval(-5.0, 1e-14, VT);
        assert!((i_r + 1e-14).abs() < 1e-15, "reverse ~ -is, got {i_r}");
        assert!((0.0..1e-12).contains(&g_r));
    }

    #[test]
    fn diode_conductance_is_derivative() {
        let du = 1e-7;
        for u in [-0.2, 0.3, 0.55, 0.68] {
            let (i0, g) = diode_eval(u, 1e-14, VT);
            let (i1, _) = diode_eval(u + du, 1e-14, VT);
            let fd = (i1 - i0) / du;
            assert!((fd - g).abs() / g.max(1e-20) < 1e-4, "u={u}: fd {fd} vs g {g}");
        }
    }

    fn params(sign: f64, gamma: f64) -> MosParams {
        MosParams { sign, vt0_eq: 0.7, beta: 1e-3, lambda: 0.02, gamma, phi: 0.65 }
    }

    fn mos_fd_check(vd: f64, vg: f64, vs: f64, vb: f64, sign: f64, gamma: f64) {
        let p = params(sign, gamma);
        let e = mos_eval(vd, vg, vs, vb, &p);
        let h = 1e-7;
        let fd_d = (mos_eval(vd + h, vg, vs, vb, &p).id - e.id) / h;
        let fd_g = (mos_eval(vd, vg + h, vs, vb, &p).id - e.id) / h;
        let fd_s = (mos_eval(vd, vg, vs + h, vb, &p).id - e.id) / h;
        let fd_b = (mos_eval(vd, vg, vs, vb + h, &p).id - e.id) / h;
        let tol = 1e-4 * (1.0 + e.id.abs());
        assert!((fd_d - e.g_dd).abs() < tol.max(1e-7), "g_dd {fd_d} vs {}", e.g_dd);
        assert!((fd_g - e.g_dg).abs() < tol.max(1e-7), "g_dg {fd_g} vs {}", e.g_dg);
        assert!((fd_s - e.g_ds).abs() < tol.max(1e-7), "g_ds {fd_s} vs {}", e.g_ds);
        assert!((fd_b - e.g_db).abs() < tol.max(1e-7), "g_db {fd_b} vs {}", e.g_db);
    }

    #[test]
    fn nmos_derivatives_match_finite_difference() {
        // Saturation, triode, cutoff, and reversed.
        mos_fd_check(3.0, 2.0, 0.0, 0.0, 1.0, 0.0);
        mos_fd_check(0.3, 2.0, 0.0, 0.0, 1.0, 0.0);
        mos_fd_check(3.0, 0.2, 0.0, 0.0, 1.0, 0.0);
        mos_fd_check(0.0, 2.0, 3.0, 3.0, 1.0, 0.0);
    }

    #[test]
    fn pmos_derivatives_match_finite_difference() {
        mos_fd_check(0.0, 1.0, 3.0, 3.0, -1.0, 0.0);
        mos_fd_check(2.7, 1.0, 3.0, 3.0, -1.0, 0.0);
        mos_fd_check(3.0, 2.9, 3.0, 3.0, -1.0, 0.0);
        mos_fd_check(3.0, 1.0, 0.0, 0.0, -1.0, 0.0);
    }

    #[test]
    fn body_effect_derivatives_match_finite_difference() {
        // Reverse body bias (vb < vs) raises vth; gmbs nonzero.
        mos_fd_check(3.0, 2.0, 0.5, 0.0, 1.0, 0.45);
        mos_fd_check(0.3, 2.0, 0.5, -1.0, 1.0, 0.45);
        mos_fd_check(3.0, 2.0, 0.5, 0.5, 1.0, 0.45); // vbs = 0
                                                     // PMOS with body at the supply.
        mos_fd_check(0.0, 1.0, 2.8, 3.3, -1.0, 0.45);
    }

    #[test]
    fn reverse_body_bias_reduces_current() {
        let p = params(1.0, 0.45);
        let at_zero = mos_eval(3.0, 2.0, 0.0, 0.0, &p).id;
        let reverse = mos_eval(3.0, 2.0, 0.0, -2.0, &p).id;
        assert!(reverse < at_zero, "rbb must raise vth: {reverse} vs {at_zero}");
        // gamma = 0 makes the body pin inert.
        let p0 = params(1.0, 0.0);
        let a = mos_eval(3.0, 2.0, 0.0, 0.0, &p0).id;
        let b = mos_eval(3.0, 2.0, 0.0, -2.0, &p0).id;
        assert_eq!(a, b);
    }

    #[test]
    fn nmos_regions() {
        let p =
            MosParams { sign: 1.0, vt0_eq: 0.7, beta: 1e-3, lambda: 0.0, gamma: 0.0, phi: 0.65 };
        // Cutoff.
        let e = mos_eval(3.0, 0.0, 0.0, 0.0, &p);
        assert_eq!(e.id, 0.0);
        // Saturation: id = beta/2 * vov^2.
        let e = mos_eval(3.0, 1.7, 0.0, 0.0, &p);
        assert!((e.id - 0.5 * p.beta).abs() < 1e-12, "id = {}", e.id);
        // Triode at small vds: id ~= beta * vov * vds.
        let e = mos_eval(0.01, 1.7, 0.0, 0.0, &p);
        assert!((e.id - p.beta * (1.0 * 0.01 - 0.5 * 1e-4)).abs() < 1e-9);
    }

    #[test]
    fn mos_symmetry_under_swap() {
        let p =
            MosParams { sign: 1.0, vt0_eq: 0.7, beta: 1e-3, lambda: 0.0, gamma: 0.0, phi: 0.65 };
        // Swapping drain and source negates the drain current.
        let a = mos_eval(2.0, 3.0, 0.0, 0.0, &p);
        let b = mos_eval(0.0, 3.0, 2.0, 0.0, &p);
        assert!((a.id + b.id).abs() < 1e-15);
    }

    #[test]
    fn pmos_conducts_with_low_gate() {
        let p =
            MosParams { sign: -1.0, vt0_eq: 0.7, beta: 1e-3, lambda: 0.0, gamma: 0.0, phi: 0.65 };
        // PMOS with source at 3.3 V, gate at 0, drain at 1.0: conducting,
        // current flows source->drain, so current INTO drain is negative.
        let e = mos_eval(1.0, 0.0, 3.3, 3.3, &p);
        assert!(e.id < -1e-4, "id = {}", e.id);
        // PMOS off when gate at the source.
        let e = mos_eval(1.0, 3.3, 3.3, 3.3, &p);
        assert_eq!(e.id, 0.0);
    }

    #[test]
    fn depletion_charge_matches_capacitance_derivative() {
        // c(v) must equal dq/dv across reverse bias, the knee, and forward.
        let (cj0, vj, m, fc) = (1e-12, 0.8, 0.5, 0.5);
        let h = 1e-7;
        for v in [-5.0, -1.0, 0.0, 0.3, 0.39999, 0.4, 0.6, 1.2] {
            let (q0, c0) = depletion_charge(v, cj0, vj, m, fc);
            let (q1, _) = depletion_charge(v + h, cj0, vj, m, fc);
            let fd = (q1 - q0) / h;
            assert!(
                (fd - c0).abs() < 1e-3 * c0.abs().max(1e-15),
                "v={v}: dq/dv {fd:e} vs c {c0:e}"
            );
        }
    }

    #[test]
    fn depletion_capacitance_grows_toward_forward_bias() {
        let (cj0, vj, m, fc) = (1e-12, 0.8, 0.5, 0.5);
        let (_, c_rev) = depletion_charge(-5.0, cj0, vj, m, fc);
        let (_, c_zero) = depletion_charge(0.0, cj0, vj, m, fc);
        let (_, c_fwd) = depletion_charge(0.6, cj0, vj, m, fc);
        assert!(c_rev < c_zero, "{c_rev} < {c_zero}");
        assert!(c_zero < c_fwd, "{c_zero} < {c_fwd}");
        assert!((c_zero - cj0).abs() < 1e-18);
    }

    #[test]
    fn depletion_charge_continuous_at_knee() {
        let (cj0, vj, m, fc) = (2e-12, 1.0, 0.33, 0.5);
        let eps = 1e-9;
        let (qa, ca) = depletion_charge(fc * vj - eps, cj0, vj, m, fc);
        let (qb, cb) = depletion_charge(fc * vj + eps, cj0, vj, m, fc);
        assert!((qa - qb).abs() < 1e-20);
        assert!((ca - cb).abs() < 1e-18);
    }

    fn bjt_raw(vc: f64, vb: f64, ve: f64, sign: f64) -> (f64, f64) {
        let vbe = sign * (vb - ve);
        let vbc = sign * (vb - vc);
        let e = bjt_eval(vbe, vbc, sign, 1e-16, 100.0, 1.0);
        (e.ic, e.ib)
    }

    #[test]
    fn bjt_forward_active_gain() {
        // NPN, vbe = 0.65, vbc very negative => ic/ib ~ bf.
        let (ic, ib) = bjt_raw(3.0, 0.65, 0.0, 1.0);
        assert!(ic > 0.0 && ib > 0.0);
        let gain = ic / ib;
        assert!((gain - 100.0).abs() < 1.0, "gain = {gain}");
    }

    #[test]
    fn bjt_pnp_mirrors_npn() {
        let (ic_n, ib_n) = bjt_raw(3.0, 0.65, 0.0, 1.0);
        let (ic_p, ib_p) = bjt_raw(-3.0, -0.65, 0.0, -1.0);
        assert!((ic_n + ic_p).abs() < 1e-12 * ic_n.abs().max(1e-12));
        assert!((ib_n + ib_p).abs() < 1e-12 * ib_n.abs().max(1e-12));
    }

    #[test]
    fn bjt_derivatives_match_finite_difference() {
        for sign in [1.0_f64, -1.0] {
            let (vc, vb, ve) = (sign * 2.0, sign * 0.62, 0.0);
            let h = 1e-8;
            let eval = |vc: f64, vb: f64, ve: f64| {
                let vbe = sign * (vb - ve);
                let vbc = sign * (vb - vc);
                bjt_eval(vbe, vbc, sign, 1e-16, 100.0, 1.0)
            };
            let e0 = eval(vc, vb, ve);
            let scale = |x: f64| x.abs().max(1e-9);
            // d/dvb.
            let e1 = eval(vc, vb + h, ve);
            assert!(((e1.ic - e0.ic) / h - e0.g_cb).abs() / scale(e0.g_cb) < 1e-3);
            assert!(((e1.ib - e0.ib) / h - e0.g_bb).abs() / scale(e0.g_bb) < 1e-3);
            // d/dve.
            let e2 = eval(vc, vb, ve + h);
            assert!(((e2.ic - e0.ic) / h - e0.g_ce).abs() / scale(e0.g_ce) < 1e-3);
            assert!(((e2.ib - e0.ib) / h - e0.g_be).abs() / scale(e0.g_be) < 1e-3);
            // d/dvc (tiny in forward active; check absolute).
            let e3 = eval(vc + h, vb, ve);
            assert!(((e3.ic - e0.ic) / h - e0.g_cc).abs() < 1e-6 + 1e-3 * scale(e0.g_cc));
            assert!(((e3.ib - e0.ib) / h - e0.g_bc).abs() < 1e-6 + 1e-3 * scale(e0.g_bc));
        }
    }

    #[test]
    fn bjt_kcl_holds() {
        // ic + ib + ie = 0 by construction: check emitter current implied.
        let e = bjt_eval(0.7, -2.0, 1.0, 1e-16, 100.0, 1.0);
        let ie = -(e.ic + e.ib);
        assert!(ie < 0.0, "emitter current flows out in forward active");
    }
}
