//! Independent-source waveforms.
//!
//! Every independent voltage/current source carries a [`Waveform`] describing
//! its value over time. Besides evaluation, waveforms expose their
//! *breakpoints* — instants where the value or its derivative is
//! discontinuous — which the transient engine must land on exactly to keep
//! local-truncation-error estimates meaningful.

/// Time-dependent value of an independent source.
///
/// All time parameters are in seconds, values in volts or amperes according
/// to the owning source.
///
/// ```
/// use wavepipe_circuit::Waveform;
///
/// let pulse = Waveform::pulse(0.0, 5.0, 1e-9, 1e-9, 1e-9, 5e-9, 20e-9);
/// assert_eq!(pulse.value(0.0), 0.0);
/// assert_eq!(pulse.value(3e-9), 5.0);  // after rise, during pulse width
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// SPICE `PULSE(v1 v2 td tr tf pw per)` — periodic trapezoidal pulse.
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first rising edge.
        td: f64,
        /// Rise time (0 is coerced to a 1 ps minimum at evaluation).
        tr: f64,
        /// Fall time (0 is coerced like `tr`).
        tf: f64,
        /// Pulse width at `v2`.
        pw: f64,
        /// Period (0 disables repetition).
        per: f64,
    },
    /// SPICE `SIN(vo va freq td theta)` — damped sine starting at `td`.
    Sin {
        /// Offset.
        vo: f64,
        /// Amplitude.
        va: f64,
        /// Frequency in Hz.
        freq: f64,
        /// Delay.
        td: f64,
        /// Damping factor (1/s).
        theta: f64,
    },
    /// Piecewise-linear `(time, value)` points; constant extrapolation
    /// outside the range. Points must be sorted by time.
    Pwl(Vec<(f64, f64)>),
    /// SPICE `SFFM(vo va fc mdi fs)` — single-frequency FM:
    /// `vo + va * sin(2 pi fc t + mdi * sin(2 pi fs t))`.
    Sffm {
        /// Offset.
        vo: f64,
        /// Amplitude.
        va: f64,
        /// Carrier frequency (Hz).
        fc: f64,
        /// Modulation index.
        mdi: f64,
        /// Signal (modulating) frequency (Hz).
        fs: f64,
    },
    /// SPICE `EXP(v1 v2 td1 tau1 td2 tau2)` — double exponential.
    Exp {
        /// Initial value.
        v1: f64,
        /// Target value of the first exponential.
        v2: f64,
        /// Start of the rising exponential.
        td1: f64,
        /// Rise time constant.
        tau1: f64,
        /// Start of the falling exponential.
        td2: f64,
        /// Fall time constant.
        tau2: f64,
    },
}

/// Smallest edge time substituted for a zero rise/fall in `PULSE`.
const MIN_EDGE: f64 = 1e-12;

impl Waveform {
    /// Convenience constructor for a DC value.
    pub fn dc(v: f64) -> Self {
        Waveform::Dc(v)
    }

    /// Convenience constructor for `PULSE(v1 v2 td tr tf pw per)`.
    pub fn pulse(v1: f64, v2: f64, td: f64, tr: f64, tf: f64, pw: f64, per: f64) -> Self {
        Waveform::Pulse { v1, v2, td, tr, tf, pw, per }
    }

    /// Convenience constructor for `SIN(vo va freq)` with no delay/damping.
    pub fn sin(vo: f64, va: f64, freq: f64) -> Self {
        Waveform::Sin { vo, va, freq, td: 0.0, theta: 0.0 }
    }

    /// Convenience constructor for a piecewise-linear waveform.
    ///
    /// # Panics
    ///
    /// Panics if the points are not sorted by strictly increasing time.
    pub fn pwl(points: Vec<(f64, f64)>) -> Self {
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "pwl points must have strictly increasing times");
        }
        Waveform::Pwl(points)
    }

    /// Evaluates the waveform at time `t` (t < 0 behaves like t = 0).
    pub fn value(&self, t: f64) -> f64 {
        let t = t.max(0.0);
        match *self {
            Waveform::Dc(v) => v,
            Waveform::Pulse { v1, v2, td, tr, tf, pw, per } => {
                if t < td {
                    return v1;
                }
                let tr = tr.max(MIN_EDGE);
                let tf = tf.max(MIN_EDGE);
                let mut tl = t - td;
                if per > 0.0 {
                    tl %= per;
                }
                if tl < tr {
                    v1 + (v2 - v1) * tl / tr
                } else if tl < tr + pw {
                    v2
                } else if tl < tr + pw + tf {
                    v2 + (v1 - v2) * (tl - tr - pw) / tf
                } else {
                    v1
                }
            }
            Waveform::Sin { vo, va, freq, td, theta } => {
                if t < td {
                    vo
                } else {
                    let arg = 2.0 * std::f64::consts::PI * freq * (t - td);
                    let damp = if theta != 0.0 { (-(t - td) * theta).exp() } else { 1.0 };
                    vo + va * damp * arg.sin()
                }
            }
            Waveform::Pwl(ref pts) => {
                if pts.is_empty() {
                    return 0.0;
                }
                if t <= pts[0].0 {
                    return pts[0].1;
                }
                if t >= pts[pts.len() - 1].0 {
                    return pts[pts.len() - 1].1;
                }
                // Binary search for the segment containing t.
                let k = pts.partition_point(|&(pt, _)| pt <= t);
                let (t0, v0) = pts[k - 1];
                let (t1, v1) = pts[k];
                v0 + (v1 - v0) * (t - t0) / (t1 - t0)
            }
            Waveform::Sffm { vo, va, fc, mdi, fs } => {
                let tau = std::f64::consts::TAU;
                vo + va * (tau * fc * t + mdi * (tau * fs * t).sin()).sin()
            }
            Waveform::Exp { v1, v2, td1, tau1, td2, tau2 } => {
                let mut v = v1;
                if t >= td1 && tau1 > 0.0 {
                    v += (v2 - v1) * (1.0 - (-(t - td1) / tau1).exp());
                }
                if t >= td2 && tau2 > 0.0 {
                    v += (v1 - v2) * (1.0 - (-(t - td2) / tau2).exp());
                }
                v
            }
        }
    }

    /// Returns the slope-discontinuity instants in `[0, tstop]`, sorted.
    ///
    /// The transient engine forces a time point at each breakpoint so the
    /// integration never straddles a corner of the input.
    pub fn breakpoints(&self, tstop: f64) -> Vec<f64> {
        let mut bp = Vec::new();
        match *self {
            Waveform::Dc(_) | Waveform::Sin { .. } | Waveform::Sffm { .. } => {}
            Waveform::Pulse { td, tr, tf, pw, per, .. } => {
                let tr = tr.max(MIN_EDGE);
                let tf = tf.max(MIN_EDGE);
                let cycle = [0.0, tr, tr + pw, tr + pw + tf];
                let mut base = td;
                loop {
                    let mut any = false;
                    for &c in &cycle {
                        let t = base + c;
                        if t <= tstop {
                            bp.push(t);
                            any = true;
                        }
                    }
                    if per <= 0.0 || !any {
                        break;
                    }
                    base += per;
                    if base > tstop {
                        break;
                    }
                }
            }
            Waveform::Pwl(ref pts) => {
                bp.extend(pts.iter().map(|&(t, _)| t).filter(|&t| t >= 0.0 && t <= tstop));
            }
            Waveform::Exp { td1, td2, .. } => {
                for t in [td1, td2] {
                    if t >= 0.0 && t <= tstop {
                        bp.push(t);
                    }
                }
            }
        }
        bp.sort_by(|a, b| a.partial_cmp(b).expect("breakpoints are finite"));
        bp.dedup();
        bp
    }
}

impl Default for Waveform {
    fn default() -> Self {
        Waveform::Dc(0.0)
    }
}

impl From<f64> for Waveform {
    fn from(v: f64) -> Self {
        Waveform::Dc(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::dc(3.3);
        assert_eq!(w.value(0.0), 3.3);
        assert_eq!(w.value(1.0), 3.3);
        assert!(w.breakpoints(1.0).is_empty());
    }

    #[test]
    fn pulse_phases() {
        let w = Waveform::pulse(0.0, 5.0, 1e-9, 1e-9, 2e-9, 4e-9, 0.0);
        assert_eq!(w.value(0.5e-9), 0.0); // before delay
        assert!((w.value(1.5e-9) - 2.5).abs() < 1e-12); // mid-rise
        assert_eq!(w.value(3e-9), 5.0); // during pw
        assert!((w.value(7e-9) - 2.5).abs() < 1e-12); // mid-fall
        assert_eq!(w.value(10e-9), 0.0); // after fall
    }

    #[test]
    fn pulse_periodic_repeats() {
        let w = Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 3e-9, 10e-9);
        assert_eq!(w.value(2e-9), 1.0);
        assert_eq!(w.value(12e-9), 1.0); // one period later
        assert_eq!(w.value(8e-9), 0.0);
        assert_eq!(w.value(18e-9), 0.0);
    }

    #[test]
    fn pulse_zero_edges_coerced() {
        let w = Waveform::pulse(0.0, 1.0, 0.0, 0.0, 0.0, 1e-9, 0.0);
        assert_eq!(w.value(0.5e-9), 1.0);
        assert!(w.value(0.0) <= 1.0);
    }

    #[test]
    fn sin_basics() {
        let w = Waveform::sin(1.0, 2.0, 1e6);
        assert!((w.value(0.0) - 1.0).abs() < 1e-12);
        assert!((w.value(0.25e-6) - 3.0).abs() < 1e-9); // quarter period peak
    }

    #[test]
    fn sin_delay_and_damping() {
        let w = Waveform::Sin { vo: 0.0, va: 1.0, freq: 1e3, td: 1e-3, theta: 1000.0 };
        assert_eq!(w.value(0.5e-3), 0.0); // held before td
        let peak = w.value(1e-3 + 0.25e-3);
        assert!(peak > 0.0 && peak < 1.0, "damped peak {peak}");
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::pwl(vec![(0.0, 0.0), (1.0, 2.0), (3.0, -2.0)]);
        assert_eq!(w.value(0.5), 1.0);
        assert_eq!(w.value(2.0), 0.0);
        assert_eq!(w.value(5.0), -2.0); // clamp right
        assert_eq!(w.value(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn pwl_rejects_unsorted() {
        let _ = Waveform::pwl(vec![(1.0, 0.0), (0.5, 1.0)]);
    }

    #[test]
    fn sffm_bounded_and_modulated() {
        let w = Waveform::Sffm { vo: 1.0, va: 2.0, fc: 1e6, mdi: 5.0, fs: 1e5 };
        for k in 0..200 {
            let t = k as f64 * 1e-7;
            let v = w.value(t);
            assert!((-1.0..=3.0).contains(&v), "t={t:e}: {v}");
        }
        // Modulation changes zero-crossing spacing: compare two adjacent
        // carrier periods of an FM-heavy signal against a pure carrier.
        let pure = Waveform::sin(1.0, 2.0, 1e6);
        let mut differs = false;
        for k in 0..50 {
            let t = k as f64 * 5e-8;
            if (w.value(t) - pure.value(t)).abs() > 0.2 {
                differs = true;
                break;
            }
        }
        assert!(differs, "modulation must alter the waveform");
        assert!(w.breakpoints(1e-5).is_empty(), "smooth waveform has no corners");
    }

    #[test]
    fn exp_rises_toward_v2() {
        let w = Waveform::Exp { v1: 0.0, v2: 1.0, td1: 0.0, tau1: 1e-9, td2: 1e-6, tau2: 1e-9 };
        assert!(w.value(0.0) < 1e-12);
        assert!((w.value(10e-9) - 1.0).abs() < 1e-4);
        assert!(w.value(1e-6 + 10e-9) < 1e-3); // fallen back
    }

    #[test]
    fn pulse_breakpoints_cover_edges() {
        let w = Waveform::pulse(0.0, 1.0, 1e-9, 1e-9, 1e-9, 2e-9, 10e-9);
        let bp = w.breakpoints(12e-9);
        let has = |t: f64| bp.iter().any(|&b| (b - t).abs() < 1e-17);
        assert!(has(1e-9));
        assert!(has(2e-9)); // end of rise
        assert!(has(4e-9)); // start of fall
        assert!(has(5e-9)); // end of fall
        assert!(has(11e-9)); // second period rise
        for w2 in bp.windows(2) {
            assert!(w2[0] < w2[1]);
        }
    }

    #[test]
    fn pwl_breakpoints_are_its_knots() {
        let w = Waveform::pwl(vec![(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        assert_eq!(w.breakpoints(1.5), vec![0.0, 1.0]);
    }

    #[test]
    fn breakpoints_respect_tstop() {
        let w = Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 2e-9, 8e-9);
        for &b in &w.breakpoints(5e-9) {
            assert!(b <= 5e-9);
        }
    }

    #[test]
    fn from_f64_gives_dc() {
        let w: Waveform = 2.5.into();
        assert_eq!(w, Waveform::Dc(2.5));
    }
}
