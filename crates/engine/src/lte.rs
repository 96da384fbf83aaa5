//! Local-truncation-error estimation and step-size proposal.
//!
//! The LTE of a `p`-th order method is `C * h^(p+1) * x^(p+1)(xi)`. The
//! `(p+1)`-th derivative is estimated from Newton divided differences over
//! the most recent `p+2` accepted points (`x^(m) ~= m! * DD_m`). The step
//! controller converts the weighted-RMS error ratio into an accept/reject
//! decision and a next-step proposal — and because WavePipe runs this *same*
//! code on every point it accepts, its accuracy contract is identical to the
//! serial engine's.

use crate::integrate::Method;
use crate::options::SimOptions;
use wavepipe_sparse::vector::wrms_norm;
use wavepipe_telemetry::EventKind;

/// Most points a divided difference is taken over: the candidate plus
/// `order + 1` history points, for methods of order at most two.
const MAX_POINTS: usize = 4;

/// LTE overestimation safety divisor (SPICE's `TRTOL`).
const TRTOL: f64 = 7.0;

/// Computes the order-`(len-1)` divided difference of a vector-valued sample
/// set in `table`, a buffer the caller keeps from one evaluation to the next,
/// and returns it (the table's first column). `times[0]`/`xs[0]` is the
/// newest point.
///
/// # Panics
///
/// Panics if fewer than 2 points are given, lengths mismatch, or two sample
/// times coincide.
pub(crate) fn divided_difference<'t>(
    times: &[f64],
    xs: &[&[f64]],
    table: &'t mut Vec<f64>,
) -> &'t mut [f64] {
    assert!(times.len() >= 2, "need at least two points");
    assert_eq!(times.len(), xs.len());
    let n = xs[0].len();
    let m = times.len();
    // Work columns: start with the raw samples, contract m-1 times.
    table.clear();
    for x in xs {
        assert_eq!(x.len(), n);
        table.extend_from_slice(x);
    }
    for level in 1..m {
        for j in 0..(m - level) {
            let dt = times[j] - times[j + level];
            assert!(dt != 0.0, "coincident time points in divided difference");
            let (col, next) = table[j * n..(j + 2) * n].split_at_mut(n);
            for (c, &c1) in col.iter_mut().zip(&*next) {
                *c = (*c - c1) / dt;
            }
        }
    }
    &mut table[..n]
}

/// Result of the LTE test for a candidate point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LteDecision {
    /// Weighted error ratio: `<= 1` means the point passes.
    pub ratio: f64,
    /// Suggested next step (if accepted) or retry step (if rejected).
    pub h_new: f64,
    /// Whether the candidate point should be accepted.
    pub accept: bool,
}

/// Evaluates the LTE of the candidate point `x_new` at `t_new` against the
/// recent history and proposes the next step.
///
/// `times`/`xs` are the previously accepted points, newest first; at least
/// `method.order() + 1` of them must be supplied (so the divided difference
/// has `order + 2` points including the candidate). `h` is the integration
/// stride the candidate was actually computed with — for the serial engine
/// this is `t_new - times[0]`, but WavePipe's backward-pipelined lead points
/// integrate across several committed points, so it is passed explicitly.
///
/// The returned `h_new` is already clamped to the growth limit `opts.rmax`
/// on accept, and to `[0.1, 0.9] * h` on reject. `table` is the
/// [`divided_difference`] buffer its owner keeps between points.
#[allow(clippy::too_many_arguments)] // analysis context is deliberately explicit
pub(crate) fn lte_step_control(
    method: Method,
    t_new: f64,
    x_new: &[f64],
    h: f64,
    times: &[f64],
    xs: &[Vec<f64>],
    opts: &SimOptions,
    table: &mut Vec<f64>,
) -> LteDecision {
    let p = method.order();
    let needed = p + 1;
    assert!(times.len() >= needed, "lte needs {needed} history points, got {}", times.len());
    assert!(h > 0.0, "integration stride must be positive");

    // Assemble candidate + history windows for the divided difference.
    let m = needed + 1;
    let mut dd_times = [t_new; MAX_POINTS];
    let mut dd_xs = [x_new; MAX_POINTS];
    for i in 0..needed {
        dd_times[i + 1] = times[i];
        dd_xs[i + 1] = &xs[i];
    }
    let lte = divided_difference(&dd_times[..m], &dd_xs[..m], table);

    // x^(p+1) ~= (p+1)! * DD_{p+1};  LTE = C * h^(p+1) * x^(p+1).
    let factorial = (1..=(p + 1)).product::<usize>() as f64;
    let scale = method.error_constant() * factorial * h.powi(p as i32 + 1);
    for d in lte.iter_mut() {
        *d *= scale;
    }

    // Weighted norm relative to the solution magnitude; TRTOL absorbs the
    // deliberate overestimation of the bound.
    let ratio = wrms_norm(lte, x_new, opts.reltol, opts.lte_abstol) / TRTOL;
    if !ratio.is_finite() {
        // Degenerate divided differences (e.g. near-coincident history
        // times): treat as a hard rejection with a conservative retry.
        let h_retry = h * 0.3;
        opts.probe.emit(t_new, EventKind::LteReject { ratio: f64::INFINITY, h_retry });
        return LteDecision { ratio: f64::INFINITY, h_new: h_retry, accept: false };
    }

    // Step proposal targets an error ratio of 0.5 at the next step
    // (expected ratio scales like f^(p+1)): deliberately conservative so
    // accepted growth does not immediately bounce off a rejection.
    let exponent = 1.0 / (p as f64 + 1.0);
    if ratio <= 1.0 {
        let factor = if ratio < 1e-12 {
            opts.rmax
        } else {
            (0.5 / ratio).powf(exponent).clamp(0.3, opts.rmax)
        };
        let h_new = h * factor;
        opts.probe.emit(t_new, EventKind::StepSizeChosen { h: h_new, ratio });
        LteDecision { ratio, h_new, accept: true }
    } else {
        let factor = (0.5 / ratio).powf(exponent).clamp(0.1, 0.9);
        let h_retry = h * factor;
        opts.probe.emit(t_new, EventKind::LteReject { ratio, h_retry });
        LteDecision { ratio, h_new: h_retry, accept: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The divided difference as it was before the table was kept: one
    /// freshly allocated column per sample.
    fn divided_difference_reference(times: &[f64], xs: &[&[f64]]) -> Vec<f64> {
        let n = xs[0].len();
        let m = times.len();
        let mut cols: Vec<Vec<f64>> = xs.iter().map(|x| x.to_vec()).collect();
        for level in 1..m {
            for j in 0..(m - level) {
                let dt = times[j] - times[j + level];
                #[allow(clippy::needless_range_loop)] // two columns indexed in lockstep
                for k in 0..n {
                    cols[j][k] = (cols[j][k] - cols[j + 1][k]) / dt;
                }
            }
        }
        cols.swap_remove(0)
    }

    /// The error ratio as [`lte_step_control`] computed it from that.
    fn ratio_reference(
        method: Method,
        t_new: f64,
        x_new: &[f64],
        h: f64,
        times: &[f64],
        xs: &[Vec<f64>],
        opts: &SimOptions,
    ) -> f64 {
        let p = method.order();
        let mut dd_times = vec![t_new];
        let mut dd_xs: Vec<&[f64]> = vec![x_new];
        for i in 0..=p {
            dd_times.push(times[i]);
            dd_xs.push(&xs[i]);
        }
        let dd = divided_difference_reference(&dd_times, &dd_xs);
        let factorial = (1..=(p + 1)).product::<usize>() as f64;
        let scale = method.error_constant() * factorial * h.powi(p as i32 + 1);
        let lte: Vec<f64> = dd.iter().map(|&d| d * scale).collect();
        wrms_norm(&lte, x_new, opts.reltol, opts.lte_abstol) / TRTOL
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Orders 1 and 2, a table reused (dirty, and of the wrong size)
        /// from one evaluation to the next, uneven steps, signed zeros.
        #[test]
        fn kept_table_gives_the_bits_of_the_allocating_version(
            n in 1usize..=40,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let opts = SimOptions::default();
            let mut table = vec![f64::NAN; rng.gen_range(0..200usize)];
            for method in [Method::BackwardEuler, Method::Trapezoidal, Method::Gear2] {
                let mut t = 1.0;
                let mut times = Vec::new();
                for _ in 0..=method.order() + 1 {
                    times.push(t);
                    t -= rng.gen_range(1e-3..0.3);
                }
                let t_new = times.remove(0);
                let mut sample = || -> Vec<f64> {
                    (0..n)
                        .map(|_| match rng.gen_range(0..8usize) {
                            0 => [0.0, -0.0][rng.gen_range(0..2usize)],
                            _ => rng.gen_range(-2.0..2.0),
                        })
                        .collect()
                };
                let x_new = sample();
                let xs: Vec<Vec<f64>> = times.iter().map(|_| sample()).collect();
                let h = t_new - times[0];

                let mut dd_xs: Vec<&[f64]> = vec![&x_new];
                dd_xs.extend(xs.iter().map(|x| x.as_slice()));
                let mut dd_times = vec![t_new];
                dd_times.extend(&times);
                let want = divided_difference_reference(&dd_times, &dd_xs);
                let got = divided_difference(&dd_times, &dd_xs, &mut table);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(got), bits(&want));

                let d = lte_step_control(method, t_new, &x_new, h, &times, &xs, &opts, &mut table);
                let want = ratio_reference(method, t_new, &x_new, h, &times, &xs, &opts);
                prop_assert_eq!(d.ratio.to_bits(), want.to_bits());
                prop_assert_eq!(d.accept, want <= 1.0);
            }
        }
    }

    #[test]
    fn dd_first_order_is_slope() {
        let xs0 = [4.0];
        let xs1 = [2.0];
        let dd = divided_difference_reference(&[2.0, 1.0], &[&xs0, &xs1]);
        assert_eq!(dd, vec![2.0]);
        assert_eq!(divided_difference(&[2.0, 1.0], &[&xs0, &xs1], &mut Vec::new()), [2.0]);
    }

    #[test]
    fn dd_annihilates_polynomials_below_order() {
        // Third divided difference of a quadratic is 0.
        let t = [3.0, 2.5, 1.5, 1.0];
        let f = |x: f64| 2.0 * x * x - x + 1.0;
        let xs: Vec<[f64; 1]> = t.iter().map(|&tt| [f(tt)]).collect();
        let refs: Vec<&[f64]> = xs.iter().map(|a| a.as_slice()).collect();
        let mut table = Vec::new();
        let dd = divided_difference(&t, &refs, &mut table);
        assert!(dd[0].abs() < 1e-10, "dd = {}", dd[0]);
    }

    #[test]
    fn dd_of_cubic_is_leading_coefficient() {
        // DD_3 of x^3 = 1 (leading coefficient), any spacing.
        let t = [2.0, 1.2, 0.7, 0.1];
        let xs: Vec<[f64; 1]> = t.iter().map(|&tt| [tt * tt * tt]).collect();
        let refs: Vec<&[f64]> = xs.iter().map(|a| a.as_slice()).collect();
        let mut table = Vec::new();
        let dd = divided_difference(&t, &refs, &mut table);
        assert!((dd[0] - 1.0).abs() < 1e-9, "dd = {}", dd[0]);
    }

    fn history_of(f: impl Fn(f64) -> f64, ts: &[f64]) -> Vec<Vec<f64>> {
        ts.iter().map(|&t| vec![f(t)]).collect()
    }

    /// [`lte_step_control`] with a table of its own.
    fn decide(
        method: Method,
        t_new: f64,
        x_new: &[f64],
        h: f64,
        times: &[f64],
        xs: &[Vec<f64>],
        opts: &SimOptions,
    ) -> LteDecision {
        lte_step_control(method, t_new, x_new, h, times, xs, opts, &mut Vec::new())
    }

    #[test]
    fn smooth_solution_accepted_with_growth() {
        // A slowly varying (linear) waveform: trap LTE ~ 0 -> accept, grow.
        let opts = SimOptions::default();
        let f = |t: f64| 0.5 * t + 1.0;
        let times = [3.0, 2.0, 1.0];
        let hist = history_of(f, &times);
        let xn = [f(4.0)];
        let d = decide(Method::Trapezoidal, 4.0, &xn, 1.0, &times, &hist, &opts);
        assert!(d.accept);
        assert!(d.h_new >= 1.0 * opts.rmax * 0.99, "h_new = {}", d.h_new);
    }

    #[test]
    fn wild_solution_rejected_with_shrink() {
        // A waveform with enormous third derivative at unit steps.
        let opts = SimOptions::default();
        let f = |t: f64| (10.0 * t).powi(3) * 1e3;
        let times = [3.0, 2.0, 1.0];
        let hist = history_of(f, &times);
        let xn = [f(4.0)];
        let d = decide(Method::Trapezoidal, 4.0, &xn, 1.0, &times, &hist, &opts);
        assert!(!d.accept, "ratio = {}", d.ratio);
        assert!(d.h_new < 1.0);
        assert!(d.h_new >= 0.1 * 0.99);
    }

    #[test]
    fn be_needs_only_two_history_points() {
        let opts = SimOptions::default();
        let f = |t: f64| t;
        let times = [2.0, 1.0];
        let hist = history_of(f, &times);
        let xn = [3.0];
        let d = decide(Method::BackwardEuler, 3.0, &xn, 1.0, &times, &hist, &opts);
        assert!(d.accept);
    }

    #[test]
    fn tighter_reltol_rejects_sooner() {
        let f = |t: f64| (t).sin() * 5.0;
        let times = [0.9, 0.6, 0.3];
        let hist = history_of(f, &times);
        let xn = [f(1.2)];
        let loose = SimOptions { reltol: 1e-2, ..SimOptions::default() };
        let tight = SimOptions { reltol: 1e-8, lte_abstol: 1e-12, ..SimOptions::default() };
        let dl = decide(Method::Trapezoidal, 1.2, &xn, 0.3, &times, &hist, &loose);
        let dt = decide(Method::Trapezoidal, 1.2, &xn, 0.3, &times, &hist, &tight);
        assert!(dt.ratio > dl.ratio);
    }

    #[test]
    #[should_panic(expected = "lte needs")]
    fn insufficient_history_panics() {
        let opts = SimOptions::default();
        let times = [1.0];
        let hist = vec![vec![1.0]];
        let xn = [2.0];
        let _ = decide(Method::Trapezoidal, 2.0, &xn, 1.0, &times, &hist, &opts);
    }
}
